"""Independent oracles for the exact linear algebra, for tests only.

None of these functions shares code with ``tatejoin.intlinalg`` or
``tatejoin.zglinalg``: the determinant is its own fraction-free elimination,
the invariant factors come from the minor-gcd characterization
(d_1 * ... * d_k = gcd of all k x k minors), the dense product multiplies
entry by entry, the z-expansion is built from the group table rather than
from ``ZGMatrix.z_columns``, and the chain-map check sums every commutation
square from the group table rather than with ``groups._accumulate``, so an
engine bug cannot cancel out against its oracle; so does the check of a
contraction's identity d h + h d = 1.
"""

import math
from itertools import combinations

from tatejoin import GroupRingElement, IntMatrix


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The dense product a * b."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    return IntMatrix([[sum(x * y for x, y in zip(row, col))
                       for col in zip(*b.data)] or [0] * b.ncols
                      for row in a.data], ncols=b.ncols)


def z_expansion(m) -> IntMatrix:
    """Dense integer matrix of the Z-linear map underlying a ZGMatrix.

    Row index (i, u) flattens to i * |G| + u, column index (j, g) to
    j * |G| + g.  Block entry: coefficient of g^{-1} u in M[i, j], read
    entry by entry from the group table.
    """
    order, table = m.group.order, m.group.table
    data = [[0] * (m.ncols * order) for _ in range(m.nrows * order)]
    for (i, j), val in m.entries.items():
        for g in range(order):
            for h, v in enumerate(val.c):  # u = g * h has coefficient c[h]
                data[i * order + table[g][h]][j * order + g] += v
    return IntMatrix(data, ncols=m.ncols * order)


def flatten_vector(vec, rank: int, order: int) -> list[int]:
    """A Z[G] chain {i: element} of a rank-``rank`` module as an integer
    column in (i, u) order."""
    flat = [0] * (rank * order)
    for i, a in vec.items():
        flat[i * order:(i + 1) * order] = a.c
    return flat


def unflatten_vector(flat, group, rank: int) -> dict:
    """The chain whose entry i has coefficients flat[i*|G| : (i+1)*|G|],
    the inverse of ``flatten_vector``."""
    order = group.order
    if len(flat) != rank * order:
        raise ValueError(f"flat vector of length {len(flat)}, expected "
                         f"{rank} x {order}")
    blocks = (flat[i * order:(i + 1) * order] for i in range(rank))
    return {i: GroupRingElement(group, c) for i, c in enumerate(blocks)
            if any(c)}


def det_bareiss(A: IntMatrix) -> int:
    """Fraction-free determinant of a square matrix."""
    n = A.nrows
    if n != A.ncols:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [row[:] for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pk - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def minor_gcd_invariant_factors(A: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k x k minors; exponential in size.

    Only for cross-checking the elimination code on dimensions <= 5 or so.
    """
    factors = []
    prev = 1
    for k in range(1, min(A.nrows, A.ncols) + 1):
        g = 0
        for rows in combinations(range(A.nrows), k):
            for cols in combinations(range(A.ncols), k):
                sub = IntMatrix([[A.data[i][j] for j in cols] for i in rows])
                g = math.gcd(g, det_bareiss(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _left_sum(table, order: int, terms) -> dict:
    """Sum of (c g) . x over terms (g, c, x), each x a chain in stored
    triples (row * |G|, h, v), as {(row, element): coefficient}."""
    out = {}
    for g, c, col in terms:
        for base, h, v in col:
            key = (base // order, table[g][h])
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def chain_map_failure(f, up_to: int) -> str:
    """The first identity that a chain map breaks through degree up_to, or "".

    f is read as a ``ComparisonLift``: source S, target T, shift s, seed and
    column(k, j), the image of e_j in T_{k+s} as triples.  The base case is
    eps^T psi_0 = eps^S for s = 0, and d^T_s psi_0(e_j) = eps^S(e_j) seed for
    s > 0.  Each square d^T_{k+s} psi_k(e_j) = psi_{k-1}(d^S_k e_j) for
    1 <= k <= up_to multiplies ring entries on the left, as the lifts do.
    """
    S, T, s = f.source, f.target, f.shift
    order, table = S.group.order, S.group.table
    for j in range(S.rank(0)):
        col = f.column(0, j)
        if s == 0:
            got = sum(T.aug[base // order] * v for base, _, v in col)
            if got != S.aug[j]:
                return f"augmentation not respected at column {j}"
            continue
        d = T.differential(s)
        lhs = _left_sum(table, order,
                        ((h, v, d.triples(base // order)) for base, h, v in col))
        rhs = {(i, g): S.aug[j] * c for i, a in f.seed.items()
               for g, c in enumerate(a.c) if S.aug[j] * c}
        if lhs != rhs:
            return f"base case d o psi_0 = seed . eps fails at column {j}"
    for k in range(1, up_to + 1):
        d_t, d_s = T.differential(k + s), S.differential(k)
        for j in range(S.rank(k)):
            lhs = _left_sum(table, order, ((h, v, d_t.triples(base // order))
                                           for base, h, v in f.column(k, j)))
            rhs = _left_sum(table, order, ((g, c, f.column(k - 1, base // order))
                                           for base, g, c in d_s.triples(j)))
            if lhs != rhs:
                return f"fails to commute at degree {k}, column {j}"
    return ""


def contraction_failure(P, b: int, t, value) -> str:
    """What breaks d_{b+1} h_b(t) = t - S_b(d_b t) for one step of the
    join walk, or "".

    t is a chain of P_b as {j * |G| + g: c} and value is h_b(t) as stored
    triples (row * |G|, h, v), as ``products._contract`` takes and returns
    them.  S_b is the plain solve through d_b's solver; d_b t and
    d_{b+1} h_b(t) are summed from the group table.
    """
    order, table = P.group.order, P.group.table
    d_t = _left_sum(table, order, ((k % order, c, P.differential(b).triples(
        k // order)) for k, c in t.items()))
    x = P.differential(b).solver().solve(
        {i * order + g: c for (i, g), c in d_t.items()})
    if not isinstance(x, tuple):
        return f"d_{b} t has no preimage in degree {b}"
    want = {divmod(k, order): c for k, c in t.items()}
    for key, c in _left_sum(table, order, ((0, 1, x),)).items():
        want[key] = want.get(key, 0) - c
    d = P.differential(b + 1)
    got = _left_sum(table, order, ((u, v, d.triples(base // order))
                                   for base, u, v in value))
    if got != {key: c for key, c in want.items() if c}:
        return f"d h_{b}(t) != t - S(d t) in degree {b}"
    return ""
