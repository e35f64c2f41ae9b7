"""Independent oracles for the integer linear algebra, for tests only.

Neither function shares code with ``tatejoin.intlinalg``: the determinant
is its own fraction-free elimination, and the invariant factors come from
the minor-gcd characterization (d_1 * ... * d_k = gcd of all k x k
minors), so an engine bug cannot cancel out against its oracle.
"""

import math
from itertools import combinations

from tatejoin import IntMatrix


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
