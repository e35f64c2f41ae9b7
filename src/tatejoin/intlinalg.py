"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; intermediate
entries in Smith/Hermite eliminations can far exceed any fixed word size.

One engine per job:

* ``_sparse_eliminate`` splits +/-1 pivots off a matrix given as sparse
  columns ({row: value} dicts, the form in which resolutions hand over
  their down complexes), logs its row operations and names each pivot's
  column.  It runs until no surviving row holds a unit, so what is left is
  a small residual with no entry +/-1.  ``sparse_invariant_factors`` adds
  the residual's factors to one per pivot; the ``tate`` module leaves the
  pivot columns out of the next boundary's rows, and replays the log to
  classify cycles.  No dense copy of the input is ever made, so this scales to
  bar-resolution boundaries.
* ``smith_normal_form`` is the one Smith elimination loop.  With
  transforms it runs exactly over Z and tracks U*A*V = S; classify and
  generators call it on residuals only.  Without transforms it runs the
  same loop modulo D, the determinant of a nonsingular r x r minor found
  by ``_rank_and_minor``, the package's one fraction-free Bareiss pass, so
  no entry ever exceeds D (Kannan and Bachem 1979; Cohen, GTM 138,
  section 2.4).
* ``IntegerSolver`` factors sparse columns once (column Hermite form, kept
  sparse) and answers many A x = b queries on sparse vectors; a particular
  solution comes from back substitution, with no size minimization, so
  results are deterministic.  It does not keep A: the caller that holds A
  multiplies x back, once.  It and ``IntegerLattice`` change sparse
  vectors by one in-place operation, ``_sub_multiple``.

The minor-gcd oracle that cross-checks these engines lives with the tests
(``tests/oracles.py``) and shares no code with them.

Pivot rule for the Smith loop and the Bareiss pass: smallest nonzero
absolute value, ties broken by lowest (row, col).  Fixed so decompositions
are reproducible.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalCheckError


class IntMatrix:
    """A dense integer matrix (list-of-rows).  Storage detail stays behind this class."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data: Sequence[Sequence[int]], ncols: int | None = None):
        self.data = [list(row) for row in data]
        self.nrows = len(self.data)
        if self.nrows:
            self.ncols = len(self.data[0])
            if any(len(row) != self.ncols for row in self.data):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and self.nrows and ncols != self.ncols:
            raise ValueError("ncols does not match row length")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols})"

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def apply(self, vec: Sequence[int]) -> list[int]:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return [sum(a * v for a, v in zip(row, vec) if a and v) or 0
                for row in self.data]


class SmithDecomposition:
    """U * A * V = S with U, V unimodular and S = diag(d_1, ..., d_r, 0, ...), d_i | d_{i+1}.

    U moves column vectors into Smith coordinates.  U's inverse is not
    kept: A V = U^-1 S, so for d_p != 0 its column p is A V e_p / d_p, an
    exact division.  Decompositions produced with transforms=False carry
    only S (the transform slots hold None).
    """

    __slots__ = ("U", "S", "V")

    def __init__(self, U: IntMatrix | None, S: IntMatrix,
                 V: IntMatrix | None):
        self.U, self.S, self.V = U, S, V

    @property
    def diagonal(self) -> list[int]:
        n = min(self.S.nrows, self.S.ncols)
        return [self.S.data[i][i] for i in range(n)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    @property
    def invariant_factors(self) -> list[int]:
        """Nonzero diagonal entries (the full chain, including 1s)."""
        return [d for d in self.diagonal if d]

    def nontrivial_factors(self) -> list[int]:
        return [d for d in self.diagonal if d > 1]


def _find_pivot(S: list[list[int]], k: int, nrows: int, ncols: int):
    """Smallest |value| in S[k:, k:], ties by lowest (row, col).  None if all zero."""
    best = best_val = None
    for i in range(k, nrows):
        row = S[i]
        for j in range(k, ncols):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best_val is None or a < best_val:
                    best_val = a
                    best = (i, j)
                    if a == 1:
                        return best
    return best


def _rank_and_minor(A: IntMatrix) -> tuple[int, int]:
    """(r, D): the rank r of A and D = |det| of a nonsingular r x r minor.

    Fraction-free Bareiss elimination with the Smith pivot rule.  After step
    k every live entry is a (k+1) x (k+1) minor of A, so entries stay as
    small as minors are, and the last pivot is the minor on the pivot rows
    and columns.  D = 1 for the zero matrix (the empty minor).
    """
    nrows, ncols = A.nrows, A.ncols
    m = [row[:] for row in A.data]
    prev, r = 1, 0
    while r < min(nrows, ncols):
        pos = _find_pivot(m, r, nrows, ncols)
        if pos is None:
            break
        i, j = pos
        m[r], m[i] = m[i], m[r]
        if j != r:
            for row in m:
                row[r], row[j] = row[j], row[r]
        mr = m[r]
        p = mr[r]
        for i in range(r + 1, nrows):
            mi = m[i]
            a = mi[r]
            for c in range(r + 1, ncols):
                mi[c] = (mi[c] * p - a * mr[c]) // prev
            mi[r] = 0
        prev = p
        r += 1
    return r, abs(prev)


def _balanced(v: int, D: int) -> int:
    """v mod D in (-D/2, D/2]."""
    v %= D
    return v - D if 2 * v > D else v


def smith_normal_form(A: IntMatrix, transforms: bool = True
                      ) -> SmithDecomposition:
    """Smith normal form with the deterministic pivot rule.

    With transforms the loop runs exactly over Z and returns U and V.
    With transforms=False only S is wanted, and the same loop runs on the
    entries reduced modulo D = |det| of a nonsingular r x r minor
    (``_rank_and_minor``).  With m = nrows, the column lattice plus
    D*Z^m has invariant factors d_1, ..., d_r and then m - r copies of D, as
    d_1 * ... * d_r divides every r x r minor; so d_i = gcd(s_i, D) for the
    first r diagonal entries s_i of the reduced form, and every entry stays
    below D.  Both modes return the same S; the modular one certifies its
    factors against r and D and raises InternalCheckError on a mismatch.
    """
    nrows, ncols = A.nrows, A.ncols
    if transforms:
        modulus = 0
        S = [row[:] for row in A.data]
        U = IntMatrix.identity(nrows).data
        V = IntMatrix.identity(ncols).data
        row_side, col_side = (S, U), (S, V)
    else:
        rank, modulus = _rank_and_minor(A)
        S = [[_balanced(v, modulus) for v in row] for row in A.data]
        row_side = col_side = (S,)

    # Row operations act on S and U, column operations on S and V; only S
    # is reduced mod D, and only without transforms.
    def row_sub(i: int, k: int, q: int) -> None:  # r_i -= q*r_k
        if not q:
            return
        for M in row_side:
            Mi = M[i]
            for j, v in enumerate(M[k]):
                if v:
                    Mi[j] -= q * v
        if modulus:
            S[i] = [_balanced(v, modulus) for v in S[i]]

    def row_swap(i: int, k: int) -> None:
        for M in row_side:
            M[i], M[k] = M[k], M[i]

    def row_negate(i: int) -> None:
        for M in row_side:
            M[i] = [-v for v in M[i]]

    def col_sub(j: int, k: int, q: int) -> None:  # c_j -= q*c_k
        if not q:
            return
        for M in col_side:
            for r in M:
                if r[k]:
                    r[j] -= q * r[k]
                    if modulus:
                        r[j] = _balanced(r[j], modulus)

    def col_swap(j: int, k: int) -> None:
        for M in col_side:
            for r in M:
                r[j], r[k] = r[k], r[j]

    n = min(nrows, ncols)
    k = 0
    while k < n:
        pos = _find_pivot(S, k, nrows, ncols)
        if pos is None:
            break
        row_swap(pos[0], k)
        col_swap(pos[1], k)
        while True:
            # clear column k below the pivot
            progressed = False
            for i in range(k + 1, nrows):
                if S[i][k]:
                    q = S[i][k] // S[k][k]
                    row_sub(i, k, q)
                    if S[i][k]:
                        row_swap(i, k)  # remainder is smaller; make it the pivot
                        progressed = True
            if progressed:
                continue
            for j in range(k + 1, ncols):
                if S[k][j]:
                    q = S[k][j] // S[k][k]
                    col_sub(j, k, q)
                    if S[k][j]:
                        col_swap(j, k)
                        progressed = True
            if not progressed:
                break
        if S[k][k] < 0:
            row_negate(k)
        # pivot must divide every remaining entry for the divisibility chain
        d = S[k][k]
        fixed = True
        for i in range(k + 1, nrows):
            Si = S[i]
            for j in range(k + 1, ncols):
                if Si[j] % d:
                    row_sub(k, i, -1)  # fold row i into row k, redo this pivot
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    if not transforms:
        return SmithDecomposition(None, _modular_diagonal(S, rank, modulus,
                                                          nrows, ncols),
                                  None)
    return SmithDecomposition(IntMatrix(U), IntMatrix(S, ncols=ncols),
                              IntMatrix(V))


def _modular_diagonal(S: list[list[int]], rank: int, D: int, nrows: int,
                      ncols: int) -> IntMatrix:
    """diag(d_1, ..., d_r, 0, ...) from the Smith form of A modulo D.

    Certifies the factors: at most r diagonal entries may be nonzero
    mod D, and the first r must hold them (else the rank is wrong); and
    d_1 | ... | d_r with the product dividing D (else D is not a multiple
    of the gcd of the r x r minors).
    """
    diag = [math.gcd(S[i][i], D) for i in range(min(nrows, ncols))]
    factors = diag[:rank]
    nonzero = sum(1 for d in diag if d != D)
    if len(factors) != rank or nonzero > rank:
        raise InternalCheckError(
            f"modular Smith form: {nonzero} of {len(diag)} factors nonzero "
            f"mod {D}, Bareiss rank {rank}")
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise InternalCheckError(
            f"modular Smith form: factors {factors} are not a "
            "divisibility chain")
    if D % math.prod(factors):
        raise InternalCheckError(
            f"modular Smith form: factors {factors} do not divide the "
            f"minor {D}")
    out = IntMatrix.zeros(nrows, ncols)
    for i, d in enumerate(factors):
        out.data[i][i] = d
    return out


def lll_reduce_rows(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduce a list of independent integer rows (same lattice, short basis).

    Cohen's integral LLL (GTM 138, Alg. 2.6.7) with delta = 3/4: the Gram
    determinants d[i] of the first i rows and lam[k][j] = d[j+1] * mu_kj
    stay integers, so no fraction is ever formed.  Used to keep computed
    resolution differentials small; entry growth otherwise compounds from
    one syzygy degree to the next.

    Invariant: the control flow is exactly that of sympy's rational
    ``DomainMatrix.lll()`` (size-reduce (k, k-1); Lovasz test, swapping only
    when it fails; then size-reduce (k, l) for l = k-2 down to 0; rounding
    mu to floor(mu + 1/2); after a swap k = max(k-1, 1)), and every test is
    the exact integer image of sympy's, so the output equals sympy's row for
    row.  Dependent rows raise InternalCheckError.
    """
    b = [list(r) for r in rows]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(map(operator.mul, b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u:
                d[i + 1] = u
            else:
                raise InternalCheckError(
                    f"LLL: row {i} depends on the rows before it")

    def size_reduce(k: int, l: int) -> None:
        # b_k -= q b_l with q = floor(mu_kl + 1/2), skipped when |mu_kl| <= 1/2
        lk, dl = lam[k], d[l + 1]
        if 2 * abs(lk[l]) <= dl:
            return
        q = (2 * lk[l] + dl) // (2 * dl)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lk[l] -= q * dl
        ll = lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        nu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * nu * nu:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        # swap b_{k-1} and b_k; lam[k][k-1] keeps its value
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        dk = (d[k - 1] * d[k + 1] + nu * nu) // d[k]
        for i in range(k + 1, m):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - nu * t) // d[k]
            li[k - 1] = (dk * t + nu * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def kernel_basis(cols: Sequence[dict[int, int]],
                 nrows: int) -> list[dict[int, int]]:
    """A basis of the integer kernel {x : A x = 0}, as sorted sparse vectors.

    A is given as for ``IntegerSolver``.  Read off the column Hermite form
    A*V = [H|0]: the transform columns over the zero block are a kernel
    basis.  One-sided column operations keep the basis vectors far smaller
    than the two-sided Smith transforms would.
    """
    solver = IntegerSolver(cols, nrows)
    rank = len(solver.pivots)
    if any(solver.hcols[rank:]):
        raise InternalCheckError("kernel basis: a nonpivot column is not cleared")
    return [dict(sorted(v.items())) for v in solver.vcols[rank:]]


class NoSolutionType:
    """Sentinel for an inconsistent integer linear system (a value, not an exception)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NoSolution"

    def __bool__(self) -> bool:
        return False


NoSolution = NoSolutionType()


class IntegerSolver:
    """Factor A once (column Hermite form A*V = H), then solve A x = b repeatedly.

    A is given by its row count and sparse columns ({row: value} dicts, as
    ``z_columns`` and ``down_matrix`` return them) and is not kept.
    ``hcols`` / ``vcols`` hold H and V in the same form, with no stored
    zeros; ``kernel_basis`` reads them, and a solve walks pivot column c
    only when the residual at its pivot row is nonzero.  solve() maps a
    sparse b to a sparse particular solution or NoSolution.
    """

    __slots__ = ("nrows", "ncols", "hcols", "_vcols", "_vlog", "pivots")

    def __init__(self, cols: Sequence[dict[int, int]], nrows: int):
        ncols = len(cols)
        self.nrows, self.ncols = nrows, ncols
        self.hcols = hcols = [{i: v for i, v in col.items() if v}
                              for col in cols]
        # (j, q, k): column j -= q * column k; q = 0 swaps j, k or negates j = k
        self._vcols, self._vlog = None, []
        log = self._vlog.append
        self.pivots: list[tuple[int, int]] = []
        first: dict[int, set[int]] = {}  # lowest row -> columns, some stale
        moved = range(ncols)  # the columns whose lowest row may have changed
        c = 0
        for r in range(nrows):
            if c >= ncols:
                break
            for j in moved:
                if hcols[j]:
                    first.setdefault(min(hcols[j]), set()).add(j)
            # columns c.. are zero above row r: their entries are rows >= r
            live = [j for j in first.pop(r, ()) if j >= c and r in hcols[j]]
            moved = set(live)
            if not live:
                continue
            # gcd-combine live columns into a single pivot at column c
            while len(live) > 1:
                live.sort(key=lambda j: (abs(hcols[j][r]), j))
                j0 = live[0]
                h0 = hcols[j0]
                nxt = []
                for j in live[1:]:
                    q = hcols[j][r] // h0[r]
                    if q:
                        _sub_multiple(hcols[j], q, h0)
                        log((j, q, j0))
                    if r in hcols[j]:
                        nxt.append(j)
                live = [j0] + nxt
            j0 = live[0]
            if j0 != c:
                hcols[j0], hcols[c] = hcols[c], hcols[j0]
                log((j0, 0, c))
                moved.add(j0)
            if hcols[c][r] < 0:
                hcols[c] = {i: -v for i, v in hcols[c].items()}
                log((c, 0, c))
            self.pivots.append((r, c))
            c += 1

    @property
    def vcols(self) -> list[dict[int, int]]:
        """V, built on first read from the log of H's column operations."""
        if self._vcols is None:
            v = [{j: 1} for j in range(self.ncols)]
            for j, q, k in self._vlog:
                if q:
                    _sub_multiple(v[j], q, v[k])
                elif j != k:
                    v[j], v[k] = v[k], v[j]
                else:
                    v[j] = {i: -x for i, x in v[j].items()}
            self._vcols, self._vlog = v, None
        return self._vcols

    def solve(self, b: dict[int, int]):
        """x with A x = b as {column: nonzero}, columns ascending, or
        NoSolution; b is {row: value}.  Not multiplied back here: its
        caller certifies x, ``ZGSolver.solve`` over Z[G], the seed of
        ``products._augmentation_seed`` against the augmentation."""
        nrows, hcols, vcols = self.nrows, self.hcols, self.vcols
        resid = [0] * nrows
        for i, v in b.items():
            if not 0 <= i < nrows:
                raise ValueError(f"right-hand side row {i} out of range for "
                                 f"a matrix with {nrows} rows")
            resid[i] = v
        x = [0] * self.ncols
        for r, c in self.pivots:
            t = resid[r]
            if t:
                hc = hcols[c]
                if t % hc[r]:
                    return NoSolution
                t //= hc[r]
                for i, v in hc.items():
                    resid[i] -= t * v
                for i, v in vcols[c].items():
                    x[i] += t * v
        if any(resid):
            return NoSolution
        return {j: xv for j, xv in enumerate(x) if xv}

    def reduce(self, v: dict[int, int]) -> dict[int, int]:
        """v less the vector of A's column lattice that balances, pivot by
        pivot, each pivot row's entry into (-h/2, h/2], h the pivot."""
        x = [v.get(i, 0) for i in range(self.nrows)]
        for r, c in self.pivots:
            t = x[r]
            if t:
                hc = self.hcols[c]
                q = (t - _balanced(t, hc[r])) // hc[r]
                if q:
                    for i, h in hc.items():
                        x[i] -= q * h
        return {i: c for i, c in enumerate(x) if c}


# -- sparse elimination ------------------------------------------------------

class IntegerLattice:
    """A subgroup of Z^n kept as its reduced echelon basis of sparse rows.

    Rows are dicts {col: value} keyed by their leading (lowest) column.  add()
    inserts a vector, running Euclid's algorithm on the leading entries
    against the existing rows; contains() tests exact membership
    (divisibility at every leading position).

    After every add() the basis satisfies two rules: each pivot (leading
    entry) is positive, and every entry that another row holds in a pivot
    column is balanced-reduced modulo that pivot, into (-p/2, p/2].  This is
    a Hermite normal form, so the basis depends only on the lattice, not on
    the vectors that generated it or their order: two lattices are equal
    exactly when their ``rows`` are.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict[int, int]) -> bool:
        """Insert a vector; returns True if the lattice grew (rank or index)."""
        vec = {j: v for j, v in vec.items() if v}
        changed = False
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None:
                if vec[j] < 0:
                    vec = {k: -v for k, v in vec.items()}
                self.rows[j] = vec
                changed = True
                break
            _sub_multiple(vec, vec[j] // row[j], row)
            if j in vec:
                # the positive remainder is the new pivot row; the old row
                # continues, so the pivots run through Euclid's algorithm
                self.rows[j], vec = vec, row
                changed = True
        if changed:
            self._reduce()
        return changed

    def _reduce(self) -> None:
        # keep every entry under a pivot column balanced-reduced mod that
        # pivot, else entries grow exponentially; add stores copies, so
        # the rows are the lattice's own and change in place
        leads = sorted(self.rows)
        for i, ji in enumerate(leads):
            row = self.rows[ji]
            for jm in leads[i + 1:]:
                v = row.get(jm)
                if v:
                    p = self.rows[jm][jm]
                    q = (v - _balanced(v, p)) // p
                    if q:
                        _sub_multiple(row, q, self.rows[jm])

    def contains(self, vec: dict[int, int]) -> bool:
        vec = {j: v for j, v in vec.items() if v}
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return False
            _sub_multiple(vec, vec[j] // row[j], row)
        return True


def f2_rank(masks: Iterable[int]) -> int:
    """The F_2 rank of integer rows mod 2, as bitmasks (bit j: column j)."""
    basis: dict[int, int] = {}  # XOR basis keyed by top bit
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
    return len(basis)


def _sub_multiple(a: dict[int, int], q: int, b: dict[int, int]) -> None:
    """a -= q*b in place for sparse vectors; entries that reach 0 are dropped."""
    for j, v in b.items():
        w = a.get(j, 0) - q * v
        if w:
            a[j] = w
        else:
            a.pop(j, None)


class Elimination(NamedTuple):
    """The row operations of a unit-pivot elimination and what they leave.

    Replaying ``ops``, each (t, s, q) meaning row[t] -= q*row[s], turns A
    into L*A, whose column lattice is spanned by unit vectors on the
    ``pivots`` rows and the ``residual`` columns on the ``rows`` rows.
    Pivot p cleared input column ``pivot_cols[p]``.
    """

    pivots: list[int]
    ops: list[tuple[int, int, int]]
    rows: list[int]
    residual: IntMatrix
    pivot_cols: list[int]


class SparseFactors(NamedTuple):
    """Rank, nonunit invariant factors and unit-pivot columns of a matrix."""
    rank: int
    factors: list[int]
    pivot_cols: list[int]


def _sparse_eliminate(cols: Iterable[dict[int, int]],
                      drop: Iterable[int] = ()) -> Elimination:
    """Split off +/-1 pivots from a sparse matrix given by columns.

    Runs until no surviving row holds a +/-1 entry, however dense the
    fill-in, so no residual entry is a unit and the residual is left small
    for a Smith form.  Columns are read without their rows in ``drop`` and
    never changed.  Deduplicates columns first (the first copy stays,
    under its input index j) and again in the residual; duplicate columns
    never change the column lattice, hence neither rank nor invariant
    factors.  Column operations are not logged, for the same reason.

    Bookkeeping per column j: ``live[j]`` counts the surviving rows that
    hold it (the pivot rule's key), and ``holders[j]`` lists every row that
    ever gained it, stale ones included; a row is skipped there when it is
    gone or no longer holds j.  A heap entry (length, row) is stale unless
    the row still has that length.
    """
    drop = set(drop)
    seen: set[tuple[tuple[int, int], ...]] = set()
    rows: dict[int, dict[int, int]] = {}
    holders: list[list[int]] = []
    for j, col in enumerate(cols):
        col = {i: v for i, v in col.items() if v and i not in drop}
        key = tuple(sorted(col.items()))
        holders.append([])
        if not col or key in seen:
            continue
        seen.add(key)
        holders[j] = list(col)
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    del seen
    live = [len(h) for h in holders]

    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    pivots: list[int] = []
    pivot_cols: list[int] = []
    ops: list[tuple[int, int, int]] = []

    while heap:
        ln, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or ln != len(row):
            continue
        # find a +/-1 entry, preferring emptiest column, lowest index
        best = None
        for j, v in row.items():
            if v == 1 or v == -1:
                key = (live[j], j)
                if best is None or key < best[0]:
                    best = (key, j, v)
        if best is None:
            continue  # no unit; popped again only once the row changes
        _, j, v = best
        # clear column j with row i, then drop both (the implicit column
        # operations touch nothing else because column j is now singleton)
        for i2 in holders[j]:
            r2 = rows.get(i2)
            if i2 == i or r2 is None or j not in r2:
                continue
            q = r2[j] * v  # v in {1,-1}: q = r2[j] / v
            ops.append((i2, i, q))
            for jj, vv in row.items():
                old = r2.get(jj)
                qv = q * vv
                if old is None:
                    r2[jj] = -qv
                    live[jj] += 1
                    holders[jj].append(i2)
                elif old != qv:
                    r2[jj] = old - qv
                else:
                    del r2[jj]
                    live[jj] -= 1
            if r2:
                heapq.heappush(heap, (len(r2), i2))
            else:
                del rows[i2]
        for jj in row:
            live[jj] -= 1
        holders[j] = []
        del rows[i]
        pivots.append(i)
        pivot_cols.append(j)
    # the surviving rows on the columns they still touch, one column per
    # +/- pair: fill-in makes many residual columns equal up to sign
    distinct: dict[tuple[int, ...], None] = {}
    for j in sorted({j for r in rows.values() for j in r}):
        col = tuple(r.get(j, 0) for r in rows.values())
        if next(v for v in col if v) < 0:
            col = tuple(-v for v in col)
        distinct[col] = None
    return Elimination(pivots, ops, list(rows),
                       IntMatrix([list(r) for r in zip(*distinct)],
                                 ncols=len(distinct)), pivot_cols)


def sparse_invariant_factors(cols: Iterable[dict[int, int]], nrows: int,
                             drop: Iterable[int] = ()) -> SparseFactors:
    """(rank, nontrivial invariant factors > 1, pivot columns) of a matrix.

    The unit pivots split off by sparse elimination contribute invariant
    factor 1 each and name their columns; the Smith form of the residual,
    taken modulo one of its maximal minors, supplies the rest.  ``nrows``
    states the row count; the elimination reads only columns.  Rows in
    ``drop`` are left out, which reduces a complex (Kaczynski, Mrozek and
    Slusarek, Comput. Math. Appl. 35, 1998): if B A = 0 and ``drop`` is
    B's ``pivot_cols`` C, B[pivots, C] is unimodular, so leaving out the
    C-coordinates maps ker B, which holds A's columns, isomorphically onto
    a saturated lattice, and A keeps its rank and nonunit factors.
    """
    elim = _sparse_eliminate(cols, drop)
    if not elim.rows:
        return SparseFactors(len(elim.pivots), [], elim.pivot_cols)
    dec = smith_normal_form(elim.residual, transforms=False)
    return SparseFactors(len(elim.pivots) + dec.rank,
                         dec.nontrivial_factors(), elim.pivot_cols)
