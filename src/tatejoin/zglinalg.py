"""Matrices over the integral group ring and their integer realizations.

A free-module map between left ZG-modules is stored column-sparsely: entry
(i, j) is the GroupRingElement coefficient of basis vector e_i in the image
of e_j.  Applying the map to a column vector a gives

    out_i = sum_j a_j * M[i, j]

with the incoming coefficient multiplying on the left; composition therefore
puts the inner map's entry on the left of the product,

    (M after N)[i, k] = sum_j N[j, k] * M[i, j].

The order matters for noncommutative groups and is fixed here once.

``z_expansion`` forgets the module structure: each ZG-rank counts |G| integer
dimensions, ordered basis (i, u) for e_i, group element u, giving an integer
matrix with entry M[i, j] evaluated at g^{-1} u in block ((i, u), (j, g)).
The expansion is functorial, so kernels, ranks and Smith forms of the integer
matrix answer questions about the ZG-map.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SizeBudgetError
from .groups import FiniteGroup, GroupRingElement
from .intlinalg import IntegerSolver, IntMatrix, NoSolution


def check_zrank(group: FiniteGroup, ranks: Iterable[int],
                max_zrank: int | None, what: str = "matrix") -> None:
    """Raise SizeBudgetError if |G| * max(ranks) exceeds the budget."""
    if max_zrank is None:
        return
    worst = 0
    for r in ranks:
        if r > worst:
            worst = r
    needed = group.order * worst
    if needed > max_zrank:
        raise SizeBudgetError(
            f"{what} needs integer rank {needed} "
            f"(|{group.label}| = {group.order} x rank {worst}), "
            f"budget is {max_zrank}", needed=needed, budget=max_zrank)


class ZGMatrix:
    """Sparse matrix over ZG: {(i, j): GroupRingElement}, shape (nrows, ncols)."""

    __slots__ = ("group", "nrows", "ncols", "entries")

    def __init__(self, group: FiniteGroup, nrows: int, ncols: int,
                 entries: dict[tuple[int, int], GroupRingElement] | None = None):
        self.group = group
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], GroupRingElement] = {}
        if entries:
            for (i, j), val in entries.items():
                self.set(i, j, val)

    @classmethod
    def from_rows(cls, group: FiniteGroup,
                  rows: Sequence[Sequence[GroupRingElement]]) -> "ZGMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(group, nrows, ncols)
        for i, row in enumerate(rows):
            assert len(row) == ncols, "ragged rows"
            for j, val in enumerate(row):
                m.set(i, j, val)
        return m

    def set(self, i: int, j: int, val: GroupRingElement) -> None:
        assert 0 <= i < self.nrows and 0 <= j < self.ncols, "index out of range"
        assert val.group is self.group or val.group == self.group
        if val.is_zero():
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = val

    def get(self, i: int, j: int) -> GroupRingElement:
        val = self.entries.get((i, j))
        return GroupRingElement.zero(self.group) if val is None else val

    def is_zero(self) -> bool:
        return not self.entries

    def column(self, j: int) -> dict[int, GroupRingElement]:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def apply(self, vec: Sequence[GroupRingElement]) -> list[GroupRingElement]:
        """Image of a column vector; coefficients multiply entries on the left."""
        assert len(vec) == self.ncols, "vector length mismatch"
        out = [GroupRingElement.zero(self.group) for _ in range(self.nrows)]
        for (i, j), m in self.entries.items():
            a = vec[j]
            if not a.is_zero():
                out[i] = out[i] + a * m
        return out

    def compose(self, inner: "ZGMatrix") -> "ZGMatrix":
        """self after inner: apply inner first.  Requires self.ncols == inner.nrows."""
        assert self.ncols == inner.nrows, "shape mismatch in composition"
        out = ZGMatrix(self.group, self.nrows, inner.ncols)
        acc: dict[tuple[int, int], GroupRingElement] = {}
        cols: dict[int, list[tuple[int, GroupRingElement]]] = {}
        for (j, k), n in inner.entries.items():
            cols.setdefault(k, []).append((j, n))
        rows_of: dict[int, list[tuple[int, GroupRingElement]]] = {}
        for (i, j), m in self.entries.items():
            rows_of.setdefault(j, []).append((i, m))
        for k, jn in cols.items():
            for j, n in jn:
                for i, m in rows_of.get(j, ()):
                    key = (i, k)
                    prod = n * m  # inner entry on the left
                    if key in acc:
                        acc[key] = acc[key] + prod
                    else:
                        acc[key] = prod
        for key, val in acc.items():
            out.set(key[0], key[1], val)
        return out

    def add(self, other: "ZGMatrix") -> "ZGMatrix":
        assert self.nrows == other.nrows and self.ncols == other.ncols
        out = ZGMatrix(self.group, self.nrows, self.ncols, dict(self.entries))
        for key, val in other.entries.items():
            out.set(key[0], key[1], out.get(*key) + val)
        return out

    def scale(self, k: int) -> "ZGMatrix":
        out = ZGMatrix(self.group, self.nrows, self.ncols)
        for (i, j), val in self.entries.items():
            out.set(i, j, val.scale(k))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZGMatrix):
            return NotImplemented
        return (self.group == other.group and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"ZGMatrix({self.group.label}, {self.nrows}x{self.ncols}, "
                f"{len(self.entries)} entries)")

    # -- integer realization --------------------------------------------

    def z_expansion(self) -> IntMatrix:
        """Dense integer matrix of the underlying Z-linear map.

        Row index (i, u) flattens to i * |G| + u, column index (j, g) to
        j * |G| + g.  Block entry: coefficient of g^{-1} u in M[i, j].
        """
        G = self.group
        order = G.order
        inv = G.inverse
        table = G.table
        out = IntMatrix.zeros(self.nrows * order, self.ncols * order)
        data = out.data
        for (i, j), val in self.entries.items():
            c = val.c
            base_i = i * order
            base_j = j * order
            for g in range(order):
                row_of = table[g]  # u = g * h has coefficient c[h]
                col = base_j + g
                for h in range(order):
                    v = c[h]
                    if v:
                        data[base_i + row_of[h]][col] += v
        return out

    def z_columns(self) -> list[dict[int, int]]:
        """Sparse columns of the z-expansion, same index flattening."""
        G = self.group
        order = G.order
        table = G.table
        cols: list[dict[int, int]] = [dict() for _ in range(self.ncols * order)]
        for (i, j), val in self.entries.items():
            base_i = i * order
            base_j = j * order
            supp = [(h, v) for h, v in enumerate(val.c) if v]
            for g in range(order):
                row_of = table[g]
                col = cols[base_j + g]
                for h, v in supp:
                    r = base_i + row_of[h]
                    col[r] = col.get(r, 0) + v
        return [{i: v for i, v in col.items() if v} for col in cols]


def flatten_vector(vec: Sequence[GroupRingElement], group: FiniteGroup
                   ) -> list[int]:
    """ZG column vector -> integer column in (i, u) order."""
    out: list[int] = []
    for a in vec:
        out.extend(a.c)
    return out


def unflatten_vector(flat: Sequence[int], group: FiniteGroup,
                     rank: int) -> list[GroupRingElement]:
    order = group.order
    assert len(flat) == rank * order, "flat vector length mismatch"
    return [GroupRingElement(group, tuple(flat[i * order:(i + 1) * order]))
            for i in range(rank)]


def vector_is_zero(vec: Sequence[GroupRingElement]) -> bool:
    return all(a.is_zero() for a in vec)


class ZGSolver:
    """Solve M x = b over ZG by factoring the z-expansion once.

    The integer solver is built lazily on first use and kept, so lifting many
    chains through the same differential costs one Hermite factorization.
    """

    __slots__ = ("matrix", "_solver")

    def __init__(self, matrix: ZGMatrix):
        self.matrix = matrix
        self._solver: IntegerSolver | None = None

    def _ensure(self) -> IntegerSolver:
        if self._solver is None:
            order = self.matrix.group.order
            cols = self.matrix.z_columns()
            A = IntMatrix.from_sparse_columns(cols, self.matrix.nrows * order)
            self._solver = IntegerSolver(A)
        return self._solver

    def solve(self, b: Sequence[GroupRingElement]):
        """A ZG-solution of M x = b, or NoSolution.

        Solving the plain integer system suffices: the expansion of a
        ZG-column basis vector (j, g) is g times the basis chain e_j, so any
        integer solution reassembles into ring coefficients verbatim.
        """
        assert len(b) == self.matrix.nrows, "right-hand side length mismatch"
        solver = self._ensure()
        flat = solver.solve(flatten_vector(b, self.matrix.group))
        if flat is NoSolution:
            return NoSolution
        x = unflatten_vector(flat, self.matrix.group, self.matrix.ncols)
        check = self.matrix.apply(x)
        assert all((c - bb).is_zero() for c, bb in zip(check, b)), \
            "ZG solver self-check failed"
        return x


def solve_zg_linear(matrix: ZGMatrix, b: Sequence[GroupRingElement]):
    """One-shot M x = b over ZG.  Returns a vector of ring elements or NoSolution."""
    return ZGSolver(matrix).solve(b)
