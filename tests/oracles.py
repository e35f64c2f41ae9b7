"""Independent oracles for the exact linear algebra, for tests only.

None of these functions shares code with ``tatejoin.intlinalg`` or
``tatejoin.zglinalg``: the determinant is its own fraction-free elimination,
the invariant factors come from the minor-gcd characterization
(d_1 * ... * d_k = gcd of all k x k minors), the dense product multiplies
entry by entry, and the z-expansion is built from the group table rather
than from ``ZGMatrix.z_columns``, so an engine bug cannot cancel out against
its oracle.
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
