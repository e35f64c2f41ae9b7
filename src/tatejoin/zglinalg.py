"""Matrices over the integral group ring and their integer realizations.

A free-module map between left ZG-modules is stored column-major, each
column as the kernel reads it: triples (i * |G|, h, c), one per nonzero
coefficient c of group element h in M[i, j], which are the nonzero entries
of z-column (j, e) below.  Rows keep the order they were given in (or first
touched in by a builder), h ascending within a row: the down matrices, and
so the generator cycles, follow that order.  A matrix never changes once
built.  GroupRingElements are built only at the API edge: ``column(j)``,
``get``, ``entries`` and ``apply``; ``ZGSolver.solve`` takes a flat dict
and returns triples.  Applying the map to a column vector a gives

    out_i = sum_j a_j * M[i, j]

with the incoming coefficient multiplying on the left; composition therefore
puts the inner map's entry on the left of the product,

    (M after N)[i, k] = sum_j N[j, k] * M[i, j].

The order matters for noncommutative groups and is fixed once, in the
kernel ``groups._accumulate`` that ``apply``, ``compose``, the solver's
multiply-back and the down matrices run: a term a_g g times a column adds
a_g c at i * |G| + g h of one flat integer dict.

Every Z[G] chain in the package, a vector of a free module P_k of rank r,
has the format {i: element} with 0 <= i < r.  Producers never store a zero
entry, so the zero chain is {}.  Consumers ignore explicit zero entries and
name an index out of range.

``z_columns`` forgets the module structure: each ZG-rank counts |G| integer
dimensions, flattened as (i, u) -> i * |G| + u for e_i and group element u,
and the integer matrix has the coefficient of g^{-1} u in M[i, j] in block
((i, u), (j, g)).  The expansion is functorial, so kernels, ranks and
solutions of the integer system answer questions about the ZG-map.  The
dense oracle that checks it is ``z_expansion`` in ``tests/oracles.py``.
The size budget is enforced in one place, ``charge``; ``check_zrank``
charges the largest expanded rank |G| * r to it.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import InternalCheckError, ResolutionError, SizeBudgetError
from .groups import FiniteGroup, GroupRingElement, _accumulate
from .intlinalg import IntegerSolver, NoSolution


def charge(needed: int, budget: int | None, what: str) -> None:
    """Raise SizeBudgetError if needed exceeds the budget (None: no budget).

    The one place the size budget is enforced: every charge, whether an
    expanded rank, a resolution's depth, a degree token or verify's
    bidegree count, comes through here, and ``what`` names the work.
    """
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ResolutionError(f"a size budget must be a positive integer, "
                              f"got {budget!r}")
    if budget is not None and needed > budget:
        raise SizeBudgetError(f"{what} needs {needed}, budget is {budget}",
                              needed=needed, budget=budget)


def check_index(j, n: int, what: str) -> int:
    """j itself if an int in 0..n-1, else ValueError: the one index gate."""
    if not (isinstance(j, int) and 0 <= j < n):
        raise ValueError(f"{what} {j!r} out of range, not an index below {n}")
    return j


def check_zrank(group: FiniteGroup, ranks: Iterable[int],
                max_zrank: int | None, what: str = "matrix") -> None:
    """Charge |G| * max(ranks), the largest integer rank, to the budget."""
    worst = max(ranks, default=0)
    charge(group.order * worst, max_zrank,
           f"{what} (|{group.label}| = {group.order} x rank {worst})")


class ZGMatrix:
    """Sparse matrix over ZG of shape (nrows, len(cols)), built whole.

    ``cols[j]`` maps row i to the entry M[i, j].  The constructor checks
    every row index and entry group once and stores column j as the triples
    (i * |G|, h, c) of its nonzero coefficients, rows in the order given and
    h ascending; no entry is kept as a GroupRingElement, and the methods
    that hand entries back build them.  No method changes a matrix
    afterwards, so nothing derived from one (down matrices, ``solver()``)
    goes stale.
    """

    __slots__ = ("group", "nrows", "ncols", "_cols", "_solver")

    def __init__(self, group: FiniteGroup, nrows: int,
                 cols: Sequence[Mapping[int, GroupRingElement]]):
        self.group = group
        stored = []
        for j, col in enumerate(cols):
            kept = []
            for i, val in col.items():
                if not 0 <= i < nrows:
                    raise ValueError(f"row {i} of column {j} out of range "
                                     f"for a matrix with {nrows} rows")
                if val.group is not group:
                    self._check_group(val.group, f"entry ({i}, {j})")
                kept.extend((i * group.order, h, c) for h, c in val.support())
            stored.append(tuple(kept))
        self.nrows, self.ncols, self._cols = nrows, len(stored), stored
        self._solver: ZGSolver | None = None

    @classmethod
    def _of_triples(cls, group: FiniteGroup, nrows: int,
                    cols: Sequence[tuple]) -> "ZGMatrix":
        """A matrix from columns in the stored form; rows are checked."""
        m, limit = cls.__new__(cls), nrows * group.order
        for j, col in enumerate(cols):
            if col and not (min(col)[0] >= 0 and max(col)[0] < limit):
                raise ValueError(f"a row of column {j} is out of range for "
                                 f"a matrix with {nrows} rows")
        m.group, m.nrows, m.ncols = group, nrows, len(cols)
        m._cols, m._solver = list(cols), None
        return m

    @classmethod
    def from_rows(cls, group: FiniteGroup,
                  rows: Sequence[Sequence[GroupRingElement]]) -> "ZGMatrix":
        ncols = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"ragged rows: row {i} has length {len(row)}, "
                                 f"expected {ncols}")
        return cls(group, len(rows), [{i: row[j] for i, row in enumerate(rows)}
                                      for j in range(ncols)])

    def _check_group(self, group: FiniteGroup, what: str) -> None:
        if group is not self.group and group != self.group:
            raise ValueError(f"{what} lives over Z[{group.label}], "
                             f"matrix is over Z[{self.group.label}]")

    def get(self, i: int, j: int) -> GroupRingElement:
        check_index(i, self.nrows, "row")
        return self.column(j).get(i) or GroupRingElement.zero(self.group)

    @property
    def entries(self) -> Mapping[tuple[int, int], GroupRingElement]:
        """Read-only {(i, j): value} of the nonzero entries, built on read."""
        return MappingProxyType({(i, j): val for j in range(self.ncols)
                                 for i, val in self.column(j).items()})

    def is_zero(self) -> bool:
        return not any(self._cols)

    def column(self, j: int) -> Mapping[int, GroupRingElement]:
        """Read-only {row: value} of the nonzero entries of column j, rows in
        the stored order, built on each call."""
        return MappingProxyType(_elements(self.group, self.triples(j)))

    def triples(self, j: int) -> tuple:
        """Column j in the stored form, (i * |G|, h, c) with c nonzero."""
        return self._cols[check_index(j, self.ncols, "column")]

    def dense_rows(self) -> list[list[list[int]]]:
        """M as rows of entries, each entry its |G| coefficients; one pass."""
        order = self.group.order
        rows = [[[0] * order for _ in self._cols] for _ in range(self.nrows)]
        for j, col in enumerate(self._cols):
            for base, h, c in col:
                rows[base // order][j][h] = c
        return rows

    def augmented(self) -> list[dict[int, int]]:
        """Columns {i: augmentation of M[i, j]} with zeros left out: the
        kernel with a table that sends every product to the identity."""
        order, cols = self.group.order, []
        trivial = ((0,) * order,)  # the row of g = 0 is all the kernel reads
        for col in self._cols:
            acc: dict[int, int] = {}
            _accumulate(acc, trivial, ((0, 1, col),))
            cols.append({base // order: a for base, a in acc.items() if a})
        return cols

    def apply(self, vec: Mapping[int, GroupRingElement]
              ) -> dict[int, GroupRingElement]:
        """Image of a chain {j: a_j}; coefficients multiply entries on the left."""
        try:
            items = vec.items()
        except AttributeError:
            raise _not_a_chain("a chain", vec) from None
        terms = []
        for j, a in items:
            if not 0 <= j < self.ncols:
                raise ValueError(f"chain index {j} out of range for a matrix "
                                 f"with {self.ncols} columns")
            if a.group is not self.group:
                self._check_group(a.group, f"chain entry {j}")
            col = self._cols[j]
            terms.extend((g, ag, col) for g, ag in a.support())
        acc: dict[int, int] = {}
        _accumulate(acc, self.group.table, terms)
        order = self.group.order
        return _elements(self.group, ((k - k % order, k % order, c)
                                      for k, c in acc.items()))

    def compose(self, inner: "ZGMatrix") -> "ZGMatrix":
        """self after inner: apply inner first.  Requires self.ncols == inner.nrows.

        Entry (i, k) is sum_j inner[j, k] * self[i, j], the inner entry on
        the left, exactly as ``apply`` multiplies its coefficients.
        """
        if self.ncols != inner.nrows:
            raise ValueError(
                f"shape mismatch in composition: {self.nrows}x{self.ncols} "
                f"after {inner.nrows}x{inner.ncols}")
        self._check_group(inner.group, "inner map")
        order, table, outer = self.group.order, self.group.table, self._cols
        cols = []
        for col in inner._cols:
            acc: dict[int, int] = {}
            _accumulate(acc, table,
                        ((g, n, outer[base // order]) for base, g, n in col))
            cols.append(_triples(acc, order))
        return ZGMatrix._of_triples(self.group, self.nrows, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZGMatrix):
            return NotImplemented
        # a column's triples are distinct, so equal sets are equal columns
        return (self.group == other.group and self.nrows == other.nrows
                and self.ncols == other.ncols
                and all(a == b or set(a) == set(b)
                        for a, b in zip(self._cols, other._cols)))

    def __repr__(self) -> str:
        entries = sum(len({base for base, _, _ in col}) for col in self._cols)
        return (f"ZGMatrix({self.group.label}, {self.nrows}x{self.ncols}, "
                f"{entries} entries)")

    def solver(self) -> "ZGSolver":
        """This matrix's ZGSolver, built on first use and kept."""
        if self._solver is None:
            self._solver = ZGSolver(self)
        return self._solver

    # -- integer realization --------------------------------------------

    def z_columns(self) -> list[dict[int, int]]:
        """Sparse integer columns of the expansion, (j, g) -> j * |G| + g.

        Column (j, g) is g times column j: entry M[i, j] puts its coefficient
        of h on row (i, g h).  Distinct (i, h) land on distinct rows, so no
        two terms ever meet.
        """
        return [{base + row[h]: c for base, h, c in col}
                for col in self._cols for row in self.group.table]


def _triples(acc: dict[int, int], order: int) -> tuple:
    """The stored column of a flat accumulator {i * |G| + u: c}: rows in the
    order first touched, coefficients that summed to zero left out."""
    if not any(acc.values()):
        return ()
    rows: dict[int, list] = {}
    for k, c in acc.items():
        h = k % order
        rows.setdefault(k - h, []).append((h, c))
    return tuple((base, h, c) for base, hc in rows.items()
                 for h, c in sorted(hc) if c)


def _elements(group: FiniteGroup, col) -> dict[int, GroupRingElement]:
    """The chain {i: element} of triples (i * |G|, h, c), rows in the order
    first met, a row whose coefficients are all zero left out."""
    order, rows = group.order, {}
    for base, h, c in col:
        coeffs = rows.get(base)
        if coeffs is None:
            coeffs = rows[base] = [0] * order
        coeffs[h] = c
    return {base // order: GroupRingElement(group, c)
            for base, c in rows.items() if any(c)}


def _not_a_chain(what: str, vec) -> ValueError:
    """The error for a chain given as anything but a mapping."""
    return ValueError(f"{what} must be a mapping {{index: element}}, "
                      f"not a {type(vec).__name__}")


class ZGSolver:
    """Solve M x = b over ZG by factoring the z-expansion once.

    The constructor runs the Hermite factorization; ``ZGMatrix.solver()``
    builds one per matrix and keeps it, so lifting many columns through the
    same differential costs one factorization.  No ring element is built: b
    is the flat dict ``_accumulate`` sums into, x the triples it reads.
    """

    __slots__ = ("matrix", "_solver")

    def __init__(self, matrix: ZGMatrix):
        self.matrix = matrix
        self._solver = IntegerSolver(matrix.z_columns(),
                                     matrix.nrows * matrix.group.order)

    def solve(self, b: Mapping[int, int], modulo: "ZGSolver | None" = None):
        """x with M x = b as stored triples (j * |G|, g, c), or NoSolution.

        b is flat, {i * |G| + u: c}, zeros ignored; a key outside M is a
        ValueError naming its row i.  Solving the plain integer system
        suffices: the expansion of a ZG-column basis vector (j, g) is g times
        the basis chain e_j, so any integer solution reassembles into ring
        coefficients verbatim.  Given ``modulo``, N's solver with M N = 0, x
        is reduced modulo N's image, and the x returned is multiplied back in
        Z[G] through the kernel, the only check: InternalCheckError on a miss.
        """
        m = self.matrix
        order = m.group.order
        try:
            flat = {k: c for k, c in b.items() if c}
        except AttributeError:
            raise _not_a_chain("a flat right-hand side", b) from None
        if b and (min(b) < 0 or max(b) >= m.nrows * order):
            bad = min(b) if min(b) < 0 else max(b)
            raise ValueError(f"right-hand side row {bad // order} out of "
                             f"range for a matrix with {m.nrows} rows")
        z = self._solver.solve(flat)
        if z is NoSolution:
            return NoSolution
        if modulo is not None:
            z = modulo._solver.reduce(z)
        # z is ascending in k = j * |G| + g: x in the stored column form
        x = tuple((k - k % order, k % order, v) for k, v in z.items())
        acc: dict[int, int] = {}
        _accumulate(acc, m.group.table,
                    ((g, v, m._cols[base // order]) for base, g, v in x))
        if {k: c for k, c in acc.items() if c} != flat:
            raise InternalCheckError("ZG solver self-check failed: M x != b")
        return x
