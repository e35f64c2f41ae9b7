"""Matrices over the integral group ring and their integer realizations.

A free-module map between left ZG-modules is stored column-major: one
sparse column per index j, a dict from row i to the nonzero GroupRingElement
coefficient of basis vector e_i in the image of e_j.  ``column(j)`` is a
read-only view of that dict, found in O(1); ``entries`` is a read-only
{(i, j): GroupRingElement} mapping built from the same columns on each
read, not a second store.  A matrix is built whole from its columns and
never changes afterwards.  Applying the map to a column vector a gives

    out_i = sum_j a_j * M[i, j]

with the incoming coefficient multiplying on the left; composition therefore
puts the inner map's entry on the left of the product,

    (M after N)[i, k] = sum_j N[j, k] * M[i, j].

The order matters for noncommutative groups and is fixed here once, in
``_combine``, the kernel behind both ``apply`` and ``compose``.  It walks the
nonzero coefficients of the input column, convolves coefficient supports
((g, v) pairs) through the group table into plain integer lists, and builds
a GroupRingElement only for a nonzero result entry.

Every Z[G] chain in the package, a vector of a free module P_k of rank r,
has this one format, the format of a matrix column: {i: element} with
0 <= i < r.  Producers never store a zero entry, so the zero chain is {}.
Consumers ignore explicit zero entries and name an index out of range.

``z_columns`` forgets the module structure: each ZG-rank counts |G| integer
dimensions, flattened as (i, u) -> i * |G| + u for e_i and group element u,
and the integer matrix has the coefficient of g^{-1} u in M[i, j] in block
((i, u), (j, g)).  The expansion is functorial, so kernels, ranks and
solutions of the integer system answer questions about the ZG-map.  The
dense oracle that checks it is ``z_expansion`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import InternalCheckError, SizeBudgetError
from .groups import FiniteGroup, GroupRingElement, _convolve_into
from .intlinalg import IntegerSolver, NoSolution


def check_zrank(group: FiniteGroup, ranks: Iterable[int],
                max_zrank: int | None, what: str = "matrix") -> None:
    """Raise SizeBudgetError if |G| * max(ranks) exceeds the budget."""
    if max_zrank is None:
        return
    worst = max(ranks, default=0)
    needed = group.order * worst
    if needed > max_zrank:
        raise SizeBudgetError(
            f"{what} needs integer rank {needed} "
            f"(|{group.label}| = {group.order} x rank {worst}), "
            f"budget is {max_zrank}", needed=needed, budget=max_zrank)


class ZGMatrix:
    """Sparse matrix over ZG of shape (nrows, len(cols)), built whole.

    ``cols[j]`` maps row i to the entry M[i, j].  The constructor checks
    every row index and entry group once, drops zero entries and copies
    what it keeps into ``_cols``; no method changes a matrix afterwards, so
    whatever a caller derives from one (a resolution's down matrices, the
    factorization ``solver()`` keeps) never goes stale.
    """

    __slots__ = ("group", "nrows", "ncols", "_cols", "_solver")

    def __init__(self, group: FiniteGroup, nrows: int,
                 cols: Sequence[Mapping[int, GroupRingElement]]):
        self.group = group
        self.nrows = nrows
        self.ncols = len(cols)
        self._solver: ZGSolver | None = None
        self._cols: list[dict[int, GroupRingElement]] = []
        for j, col in enumerate(cols):
            kept = {}
            for i, val in col.items():
                if not 0 <= i < nrows:
                    raise ValueError(f"row {i} of column {j} out of range "
                                     f"for a matrix with {nrows} rows")
                if val.group is not group:
                    self._check_group(val.group, f"entry ({i}, {j})")
                if any(val.c):
                    kept[i] = val
            self._cols.append(kept)

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
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise ValueError(f"index ({i}, {j}) out of range for a "
                             f"{self.nrows}x{self.ncols} matrix")
        val = self._cols[j].get(i)
        return GroupRingElement.zero(self.group) if val is None else val

    @property
    def entries(self) -> Mapping[tuple[int, int], GroupRingElement]:
        """Read-only {(i, j): value} of the nonzero entries, column by column.

        Built from the column store on each read, so it is never out of date
        and never a second store to keep in sync.
        """
        return MappingProxyType({(i, j): val for j, col in enumerate(self._cols)
                                 for i, val in col.items()})

    def is_zero(self) -> bool:
        return not any(self._cols)

    def column(self, j: int) -> Mapping[int, GroupRingElement]:
        """Read-only {row: value} view of the nonzero entries of column j."""
        return MappingProxyType(self._cols[j])

    def _support_column(self, j: int) -> list[tuple[int, tuple]]:
        """(row, coefficient support) of every entry of column j."""
        return [(i, m.support()) for i, m in self._cols[j].items()]

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
            a_supp = a.support()
            if a_supp:
                terms.append((a_supp, self._support_column(j)))
        return _combine(self.group, terms)

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
        outer = [self._support_column(j) for j in range(self.ncols)]
        return ZGMatrix(self.group, self.nrows,
                        [_combine(self.group, [(n.support(), outer[j])
                                               for j, n in col.items()])
                         for col in inner._cols])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZGMatrix):
            return NotImplemented
        return (self.group == other.group and self.nrows == other.nrows
                and self.ncols == other.ncols and self._cols == other._cols)

    def __repr__(self) -> str:
        return (f"ZGMatrix({self.group.label}, {self.nrows}x{self.ncols}, "
                f"{sum(map(len, self._cols))} entries)")

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
        order = self.group.order
        table = self.group.table
        cols: list[dict[int, int]] = []
        for j in range(self.ncols):
            ents = [(i * order, supp) for i, supp in self._support_column(j)]
            for g in range(order):
                row_of = table[g]
                cols.append({base + row_of[h]: v
                             for base, supp in ents for h, v in supp})
        return cols


def _combine(group: FiniteGroup, terms) -> dict[int, GroupRingElement]:
    """The sparse column sum over terms of a * (column of M), a on the left.

    Each term pairs the support of a coefficient a with a column of M given
    as (row, support of the entry) pairs.  Sums accumulate in integer lists,
    one kernel call per term; only the nonzero ones become GroupRingElements.
    """
    acc: dict[int, list[int]] = {}
    for a_supp, col in terms:
        _convolve_into(acc, group, a_supp, col)
    return {i: GroupRingElement(group, c) for i, c in acc.items() if any(c)}


def _not_a_chain(what: str, vec) -> ValueError:
    """The error for a chain given as anything but a mapping."""
    return ValueError(f"{what} must be a mapping {{index: element}}, "
                      f"not a {type(vec).__name__}")


def unflatten_vector(flat: Sequence[int], group: FiniteGroup,
                     rank: int) -> dict[int, GroupRingElement]:
    """The chain whose entry i has coefficients flat[i*|G| : (i+1)*|G|]."""
    order = group.order
    if len(flat) != rank * order:
        raise ValueError(f"flat vector of length {len(flat)}, expected "
                         f"{rank} x {order}")
    blocks = (flat[i * order:(i + 1) * order] for i in range(rank))
    return {i: GroupRingElement(group, c) for i, c in enumerate(blocks)
            if any(c)}


class ZGSolver:
    """Solve M x = b over ZG by factoring the z-expansion once.

    The constructor runs the Hermite factorization; ``ZGMatrix.solver()``
    builds one per matrix and keeps it, so lifting many chains through the
    same differential costs one factorization.  Right-hand sides and
    solutions are chains, and cross to the integer solver as sparse
    vectors: b through its entries' supports, x regrouped by row, with no
    dense vector of length rank * |G|.
    """

    __slots__ = ("matrix", "_solver")

    def __init__(self, matrix: ZGMatrix):
        self.matrix = matrix
        self._solver = IntegerSolver(matrix.z_columns(),
                                     matrix.nrows * matrix.group.order)

    def solve(self, b: Mapping[int, GroupRingElement]):
        """A sparse ZG-solution {row: entry} of M x = b, or NoSolution.

        Solving the plain integer system suffices: the expansion of a
        ZG-column basis vector (j, g) is g times the basis chain e_j, so any
        integer solution reassembles into ring coefficients verbatim.  The
        solution is checked in Z[G], M x = b through ``apply``, against the
        nonzero entries of b; a row of b outside M is a ValueError.
        """
        m = self.matrix
        group, order = m.group, m.group.order
        try:
            items = b.items()
        except AttributeError:
            raise _not_a_chain("a right-hand side", b) from None
        flat, want = {}, {}
        for i, a in items:
            if not 0 <= i < m.nrows:
                raise ValueError(f"right-hand side row {i} out of range for "
                                 f"a matrix with {m.nrows} rows")
            if a.group is not group:
                m._check_group(a.group, f"right-hand side entry {i}")
            if a.support():
                flat.update((i * order + g, v) for g, v in a.support())
                want[i] = a
        z = self._solver.solve(flat)
        if z is NoSolution:
            return NoSolution
        coeffs: dict[int, list[int]] = {}
        for k, v in z.items():  # ascending k, so rows come out in order
            j, g = divmod(k, order)
            coeffs.setdefault(j, [0] * order)[g] = v
        x = {j: GroupRingElement(group, c) for j, c in coeffs.items()}
        if m.apply(x) != want:
            raise InternalCheckError("ZG solver self-check failed: M x != b")
        return x

