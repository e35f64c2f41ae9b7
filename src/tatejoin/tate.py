"""Integral homology of a resolution and the negative-degree correspondence.

Tensoring a resolution down over the group ring (replacing every group-ring
entry by its augmentation) gives the integer complex whose homology is the
group homology H_n.  ``Resolution.down_matrix`` builds its boundary maps D_k
once, as sparse integer columns, and the sparse unit-pivot eliminator of
``intlinalg`` does the work on them.  Invariant factors are read off the
boundary matrices: the torsion of H_n equals the nonunit invariant factors
of D_{n+1}, because the kernel of D_n is a saturated sublattice, and the
free rank is rank ker D_n - rank D_{n+1}.  The complex is reduced degree by
degree first: D_k is eliminated without its rows that are pivot columns of
D_{k-1}, which keeps its rank and nonunit invariant factors because the
Resolution constructor certified d o d = 0 (the argument is stated in
``intlinalg.sparse_invariant_factors``).  Classifying cycles and
exhibiting generators replays the row operations of the elimination of
the full D_{n+1} and takes a transform-tracked Smith form of its small
residual alone, dense by design; a kernel basis of D_n is computed only
when H_n has a free summand.  That data is built lazily,
only when someone asks, and must reproduce the factors of the reduced
complex, so the two eliminations certify each other.

The degree-(-n-1) groups of the Tate theory are reached through the norm
correspondence: an invariant chain of P_n is exactly a norm N.y, and the
class of y (x) 1 in H_n is the image of the stable map the invariant
represents.  ``phi`` and ``phi_inverse`` implement the two directions;
``is_stably_zero`` is the kernel test (the represented map factors through a
projective iff the class vanishes).  Chains of P_n, such as an invariant
cycle, are Z[G] chains {i: nonzero element} (see ``zglinalg``); cycles of
the down complex, the input of ``classify`` and the ``generators``, are
dense integer lists.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import InternalCheckError, ResolutionError, SchemaError
from .groups import GroupRingElement, norm_element
from .intlinalg import (IntMatrix, NoSolution, SparseFactors,
                        _sparse_eliminate, kernel_basis,
                        smith_normal_form, sparse_invariant_factors)
from .resolutions import Resolution, check_degree, check_vector
from .zglinalg import ZGMatrix


def down_vector(vec: Mapping[int, GroupRingElement]) -> dict[int, int]:
    """Image of a chain in P_k (x)_{Z[G]} Z, a sparse down_matrix column."""
    return {i: s for i, a in vec.items() if (s := a.augmentation())}


def lift_vector(res: Resolution, k: int, coords: Sequence[int]
                ) -> dict[int, GroupRingElement]:
    """The chain lifting a down-complex vector: each coordinate on the identity."""
    check_vector(coords, res.rank(k), f"vector in degree {k}")
    return {i: GroupRingElement.basis(res.group, 0, int(c))
            for i, c in enumerate(coords) if c}


def _rank_and_factors(res: Resolution, k: int) -> SparseFactors:
    """(rank, nonunit invariant factors, pivot columns) of the reduced D_k.

    Cached; D_k is read without its rows that are pivot columns of D_{k-1}."""
    cache = res._hcache
    low = k + 1
    while low > 1 and ("rf", low - 1) not in cache:
        low -= 1
    for j in range(low, k + 1):
        below = cache["rf", j - 1].pivot_cols if j > 1 else ()
        cache["rf", j] = sparse_invariant_factors(
            res.down_matrix(j), res.ranks[j - 1], below)
    return cache["rf", k]


class HomologyGroup:
    """H_n of the tensored-down complex, with lazy generator/classify data.

    invariant_factors lists the torsion factors in ascending divisibility
    order followed by one 0 per free summand (0 means a Z summand).  The
    factor list is computed eagerly from ranks alone; generators and the
    classify map are built on first use and cross-checked against the
    eager factors.
    """

    __slots__ = ("resolution", "degree", "invariant_factors", "_cls")

    def __init__(self, resolution: Resolution, degree: int):
        # H_n reads D_{n+1}
        check_degree(degree, 0, resolution.depth - 1, "homology degree")
        self.resolution = resolution
        self.degree = degree
        n = degree
        rank_n = resolution.ranks[n]
        if n == 0:
            ker_rank = rank_n
        else:
            ker_rank = rank_n - _rank_and_factors(resolution, n).rank
        rk_im, torsion, _ = _rank_and_factors(resolution, n + 1)
        free = ker_rank - rk_im
        if free < 0:
            raise InternalCheckError(
                f"H_{n}: image rank {rk_im} exceeds kernel rank {ker_rank}; "
                "not a complex?")
        self.invariant_factors = list(torsion) + [0] * free
        self._cls = None

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        """Number of elements; 0 means infinite."""
        total = 1
        for d in self.invariant_factors:
            if d == 0:
                return 0
            total *= d
        return total

    @property
    def exponent(self) -> int:
        """Largest factor (the maximal element order); 0 means unbounded."""
        if not self.invariant_factors:
            return 1
        return self.invariant_factors[-1]

    def __repr__(self) -> str:
        if not self.invariant_factors:
            desc = "0"
        else:
            desc = " + ".join("Z" if d == 0 else f"Z/{d}"
                              for d in self.invariant_factors)
        return (f"H_{self.degree}({self.resolution.group.label}) = {desc}")

    # -- classify machinery (lazy) ---------------------------------------

    def _coordinates(self) -> "_CycleCoordinates":
        if self._cls is None:
            cls = _CycleCoordinates(self.resolution, self.degree,
                                    self.invariant_factors.count(0))
            if cls.factors != self.invariant_factors:
                raise InternalCheckError(
                    f"H_{self.degree}: classify factors {cls.factors} "
                    f"disagree with rank-counted {self.invariant_factors}")
            self._cls = cls
        return self._cls

    def classify(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of a cycle's class, one per invariant factor.

        Torsion coordinates are reduced mod their factor; the zero class is
        the all-zero tuple; classify(generators[i]) is the i-th unit tuple.
        """
        if not is_cycle(self.resolution, self.degree, cycle):
            raise ResolutionError(
                f"classify: input is not a cycle in degree {self.degree}")
        return self._coordinates().classify(cycle)

    @property
    def generators(self) -> list[list[int]]:
        """One explicit cycle per invariant factor."""
        return self._coordinates().generators

    def class_order(self, coords: Sequence[int]) -> int:
        """Order of the class with the given coordinates (0 = infinite)."""
        check_vector(coords, len(self.invariant_factors),
                     f"coordinates of H_{self.degree}")
        order = 1
        for d, c in zip(self.invariant_factors, coords):
            if d == 0:
                if c:
                    return 0
            elif c:
                order = math.lcm(order, d // math.gcd(d, c))
        return order

    def is_zero_class(self, coords: Sequence[int]) -> bool:
        return self.class_order(coords) == 1


class _CycleCoordinates:
    """Canonical coordinates on H_n = ker D_n / im D_{n+1}.

    The unit-pivot elimination of the full D_{n+1} (the factors come from
    the reduced one) is a unimodular row transform L with L(im D_{n+1}) =
    Z^pivots + im M for its residual M, and the Smith form U M V = S
    diagonalizes im M.  So torsion coordinate p of a cycle c is
    (U (L c)_rows)_p mod d_p.  Its generator is L^-1 U^-1 e_p, which is
    U^-1 e_p on the residual rows: each logged operation adds a multiple of
    a pivot row, so L fixes every vector that vanishes on them.  U^-1 is
    never formed: M V = U^-1 S gives U^-1 e_p = M V e_p / d_p, an exact
    division that is checked.  The rest of U (L c)_rows, with L c on the
    rows that are neither pivot nor residual, vanishes on the saturation of
    im D_{n+1} and is injective on the free part of H_n.  Only when H_n has
    a free summand is it evaluated on a kernel basis of D_n, whose Smith
    form then picks the free basis.
    """

    __slots__ = ("ops", "rows", "U", "rank", "torsion", "zero_rows",
                 "free_U", "factors", "generators")

    def __init__(self, res: Resolution, n: int, free: int):
        elim = _sparse_eliminate(res.down_matrix(n + 1))
        self.ops, self.rows = elim.ops, elim.rows
        dec = smith_normal_form(elim.residual)
        self.U, self.rank = dec.U, dec.rank
        self.torsion = [(p, d) for p, d in enumerate(dec.diagonal) if d > 1]
        self.factors = [d for _, d in self.torsion] + [0] * free
        self.generators = []
        for p, d in self.torsion:
            y = [0] * res.ranks[n]
            for i, v in zip(self.rows, elim.residual.apply(dec.V.column(p))):
                if v % d:
                    raise InternalCheckError(
                        f"H_{n}: M V e_{p} is not divisible by d_{p} = {d}")
                y[i] = v // d
            self.generators.append(y)
        self.zero_rows = self.free_U = None
        if free:
            used = set(elim.pivots) | set(self.rows)
            self.zero_rows = [i for i in range(res.ranks[n]) if i not in used]
            self._add_free_generators(res, n, free)
        if not all(is_cycle(res, n, g) for g in self.generators):
            raise InternalCheckError(f"H_{n}: a generator is not a cycle")

    def _add_free_generators(self, res: Resolution, n: int,
                             free: int) -> None:
        # D_0 maps to the zero module: r_0 empty columns over no rows
        sparse = (kernel_basis(res.down_matrix(n), res.ranks[n - 1]) if n
                  else kernel_basis([{}] * res.ranks[0], 0))
        kernel = [[k.get(i, 0) for i in range(res.ranks[n])] for k in sparse]
        values = [self._coords(k)[1] for k in kernel]
        fdec = smith_normal_form(IntMatrix([list(r) for r in zip(*values)],
                                           ncols=len(kernel)))
        if fdec.invariant_factors != [1] * free:
            raise InternalCheckError(
                f"H_{n}: free part has factors {fdec.invariant_factors}, "
                f"expected {free} unit factors")
        self.free_U = IntMatrix(fdec.U.data[:free], ncols=len(values[0]))
        for q in range(free):
            coeffs = fdec.V.column(q)
            z = [sum(a * k[i] for a, k in zip(coeffs, kernel))
                 for i in range(res.ranks[n])]
            # drop the torsion part so that z classifies to a unit tuple
            for t, g in zip(self._coords(z)[0], self.generators):
                z = [x - t * y for x, y in zip(z, g)]
            self.generators.append(z)

    def _coords(self, cycle: Sequence[int]) -> tuple[list[int], list[int]]:
        """(torsion coordinates, free-part values) of a cycle."""
        y = list(cycle)
        for t, s, q in self.ops:  # y = L y
            y[t] -= q * y[s]
        u = self.U.apply([y[i] for i in self.rows])
        tors = [u[p] % d for p, d in self.torsion]
        if self.zero_rows is None:
            return tors, []
        return tors, u[self.rank:] + [y[i] for i in self.zero_rows]

    def classify(self, cycle: Sequence[int]) -> tuple[int, ...]:
        tors, values = self._coords(cycle)
        if self.free_U is None:
            return tuple(tors)
        return tuple(tors + self.free_U.apply(values))


def homology(res: Resolution, n: int) -> HomologyGroup:
    """H_n of the resolution's tensored-down complex (cached per degree)."""
    key = ("homology", n)
    if not isinstance(n, int) or key not in res._hcache:  # 1.0 hashes as 1
        res._hcache[key] = HomologyGroup(res, n)
    return res._hcache[key]


def is_cycle(res: Resolution, n: int, coords: Sequence[int]) -> bool:
    """Whether coords is an integer cycle of the degree-n down complex; a
    bad degree is an error, a malformed vector is no cycle."""
    rank = res.rank(n)
    try:
        check_vector(coords, rank, f"cycle in degree {n}")
    except ResolutionError:
        return False
    return n == 0 or not any(res.down_boundary(n, coords))


class InvariantCycle:
    """A G-invariant cycle of P_n: the chain-level data of a stable map into a syzygy.

    ``vector`` is a chain of P_n (see ``zglinalg``), with explicit zero
    entries dropped.  Every index is checked to be in range and both
    defining conditions (killed by the differential, fixed by every group
    element) are checked at construction.
    """

    __slots__ = ("resolution", "degree", "vector")

    def __init__(self, resolution: Resolution, degree: int,
                 vector: Mapping[int, GroupRingElement]):
        self.resolution = resolution
        self.degree = degree
        rank = resolution.rank(degree)
        if not isinstance(vector, Mapping):
            raise ResolutionError("an invariant cycle is a chain, a mapping "
                                  "{index: element}")
        if any(not 0 <= i < rank for i in vector):
            raise ResolutionError(f"invariant cycle has an index outside "
                                  f"rank {rank} in degree {degree}")
        if not all(a.is_invariant() for a in vector.values()):
            raise ResolutionError("vector is not G-invariant")
        # an invariant element is c[0] times the norm
        self.vector = {i: a for i, a in vector.items() if a.c[0]}
        if degree >= 1 and resolution.apply_differential(degree, self.vector):
            raise ResolutionError("vector is not a cycle")

    def __repr__(self) -> str:
        return (f"InvariantCycle(deg={self.degree}, "
                f"{ {i: str(a) for i, a in self.vector.items()} })")


def phi_inverse(res: Resolution, n: int, cycle: Sequence[int]
                ) -> InvariantCycle:
    """From a down-complex cycle to the invariant chain N.y representing it.

    The lift y takes each integer coordinate on the identity; multiplying by
    the norm spreads it over the group, and the result is an honest cycle
    because the lift's boundary lands in the augmentation ideal, which the
    norm kills.
    """
    check_degree(n, 1, res.depth, "correspondence degree")
    if not is_cycle(res, n, cycle):
        raise ResolutionError("input is not a cycle of the down complex")
    w = res.group.order
    return InvariantCycle(res, n, {i: GroupRingElement(res.group, (int(c),) * w)
                                   for i, c in enumerate(cycle) if c})


def phi(x: InvariantCycle, via_solver: bool = False) -> tuple[int, ...]:
    """The homology class corresponding to an invariant cycle.

    Solves N.y = x and classifies y (x) 1.  On a free module every invariant
    is a norm and the coefficients of y can be read off directly (each
    coordinate of x has one repeated coefficient); the group-ring solver is
    kept as an independent slow path for cross-checking.
    """
    res = x.resolution
    n = check_degree(x.degree, 1, res.depth, "correspondence degree")
    r = res.rank(n)
    if via_solver:  # N.I_r is diagonal: one 1x1 norm equation per row
        norm = ZGMatrix(res.group, 1, [{0: norm_element(res.group)}]).solver()
        down = {}
        for i, a in x.vector.items():
            y = norm.solve(dict(a.support()))
            if y is NoSolution:
                raise ResolutionError("norm equation unsolvable; input is "
                                      "not an invariant of a free module")
            down[i] = sum(c for _, _, c in y)  # the augmentation of y_i
    else:
        down = {i: a.c[0] for i, a in x.vector.items()}
    return homology(res, n).classify([down.get(i, 0) for i in range(r)])


def is_stably_zero(x: InvariantCycle) -> bool:
    """True iff the stable map represented by x factors through a projective."""
    return not any(phi(x))


class ZeroGroup:
    """The trivial answer in the degree where the theory vanishes identically."""

    invariant_factors: list[int] = []
    generators: list[list[int]] = []
    is_trivial = True
    order = 1
    exponent = 1

    def __repr__(self) -> str:
        return "0"


ZERO = ZeroGroup()


def tate_group(res: Resolution, k: int):
    """The degree-k group of the Tate theory for k <= -1.

    k = -1 vanishes for every finite group; k <= -2 is homology in degree
    -k-1 via the norm correspondence.  Nonnegative k is out of scope.
    """
    if isinstance(k, int) and k >= 0:
        raise SchemaError(
            "only negative degrees are supported (degrees >= 0 are out of scope)")
    # degree -depth reads H_{depth-1}; -1 vanishes at any depth
    check_degree(k, -max(res.depth, 1), -1, "Tate degree")
    if k == -1:
        return ZERO
    return homology(res, -k - 1)


def random_cycle(res: Resolution, n: int, rng) -> list[int]:
    """A random integer cycle of the down complex in degree n (for property tests).

    A random combination of the generators of H_n plus a random boundary.
    """
    h = homology(res, n)
    out = res.down_boundary(
        n + 1, [rng.randrange(-4, 5) for _ in range(res.ranks[n + 1])])
    for g in h.generators:
        c = rng.randrange(-4, 5)
        out = [x + c * y for x, y in zip(out, g)]
    if not is_cycle(res, n, out):
        raise InternalCheckError("random generator combination is not a cycle")
    return out
