"""The negative-degree product, computed two independent ways.

Production path (the join): for classes a in H_n and b in H_m with chain
representatives y_a, y_b, the product is carried by the chain

    w = (N . y_a) (x) y_b   in degree n+m+1 of the join P*P,

whose down-image is a cycle (the boundary's only surviving term is killed by
the norm against the augmentation ideal).  A chain map f from the join to P
carries w back, and the answer is classified in H_{n+m+1}(P).  f is the
basic perturbation lemma's (R. Brown 1965; G. Ellis, J. Symb. Comp. 38,
2004): the join is the total complex of rows a >= -1, row a being
P_a (x) (P -> Z) in the basis e_i (x) g.f_j of ``resolutions.join`` and row
-1 being P.  A Z-linear contraction h of P -> Z contracts each row a >= 0
as H = id (x) h, and with delta_P, the map between rows, f =
(-1)^{n(n+1)/2} (delta_P H)^{n+1} on row n lifts the identity of Z.  H and
delta_P are Z[G]-maps, so f runs on the down complex of the rows, and h
contracts each row summand's whole chain in degrees m..n+m (``_contract``,
two solves, no memo).  P must reach degree n+m+2: the class is read through
D_{n+m+2}, and h_{n+m} is reduced modulo the image of d_{n+m+2}.  The join
is built for the skeleta, P_{<=n} * P_{<=m} through degree n+m+1, a
subcomplex of P*P that is certified and charged to the size budget in its
place and holds w and the certificate that the down-image of d w is 0;
``ProductContext.join_for`` sizes it to the bounding box of the bidegrees
asked for.

Cross-check path (composition): represent b as a stable map into the m+1st
syzygy, lift it to a degree-(m+1) chain self-map of P (strict commutation
with the differentials, base case through the augmentation), evaluate the
lift on the invariant chain N . y_a, and classify the result.  The two
pipelines realize the same stable composition, so their classified outputs
must agree exactly; ``product_table`` records both and flags any mismatch.

The self-map is a lazy ``ComparisonLift``, the one chain-map type.  Every
solve of both pipelines goes through the factorization of a differential of
P, kept by the matrix (``ZGMatrix.solver``), and is certified once:
``ZGSolver.solve`` multiplies each solution back in Z[G], and the seed s
with eps(s) = 1 is checked where it is built.  Lifted columns and
contracted chains are stored as ``ZGMatrix`` column triples, and both
pipelines sum with the one kernel ``groups._accumulate``: they are
independent in the chains they build, not in their arithmetic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InternalCheckError, ResolutionError
from .groups import GroupRingElement, _accumulate
from .intlinalg import IntegerSolver, NoSolution
from .resolutions import (JoinResolution, Resolution, check_vector,
                          include_cycle_tensor, join)
from .tate import (down_vector, homology, is_cycle, lift_vector, phi_inverse)
from .zglinalg import (ZGMatrix, _elements, _not_a_chain, _triples,
                       check_index)


class ComparisonLift:
    """Lazy chain map of degree ``shift`` from one resolution into another.

    Column j in degree k, psi_k(e_j), is lifted through the exact target on
    first use and memoized as a ``ZGMatrix`` column's triples.  Degree 0 is
    eps^S(e_j) . seed, lifted through d^T_shift when shift > 0; there
    ``seed`` is a boundary, a chain of target degree shift - 1, and for
    shift 0 it is ``_augmentation_seed``, with eps^T(seed) = 1.  Degree k > 0
    solves d^T_{k+shift} x = psi_{k-1}(d^S_k e_j), whose right-hand side is
    one ``_accumulate`` call: the entries of d^S_k e_j multiply, on the
    left, the memoized triples of psi_{k-1}(e_i).  Every solve goes through
    the target differential's own solver, so lifts into one target share its
    factorization.  A column with no solution raises ResolutionError.  Any
    two comparison maps are chain homotopic, so a class crosses from one
    resolution to another through ``transport_down``.
    """

    __slots__ = ("source", "target", "shift", "seed", "_seed", "_cols")

    def __init__(self, source: Resolution, target: Resolution, shift: int = 0,
                 seed: Mapping[int, GroupRingElement] | None = None):
        if source.group != target.group:
            raise ResolutionError("comparison lift needs matching groups")
        if (seed is None) != (shift == 0):
            raise ValueError("a lift of shift > 0 needs a seed, "
                             "a lift of shift 0 takes none")
        if seed is None:
            seed = _elements(target.group, _augmentation_seed(target))
        self.source, self.target, self.shift = source, target, shift
        self.seed = seed
        self._seed = ZGMatrix(target.group, target.rank(max(shift - 1, 0)),
                              [seed]).triples(0)  # rows and ring checked
        self._cols: dict[tuple[int, int], tuple] = {}

    def column(self, k: int, j: int) -> tuple:
        """psi_k(e_j) as stored triples (row * |G|, h, c)."""
        key = (k, check_index(j, self.source.rank(k), "column"))
        col = self._cols.get(key)
        if col is not None:
            return col
        if k == 0:
            terms = [(0, self.source.aug[j], self._seed)]
        else:
            terms = []
            for i, val in self.source.differential(k).column(j).items():
                prev = self.column(k - 1, i)
                terms.extend((g, ag, prev) for g, ag in val.support())
        rhs: dict[int, int] = {}
        _accumulate(rhs, self.source.group.table, terms)
        col = (self.target.differential(k + self.shift).solver().solve(rhs)
               if k + self.shift else _triples(rhs, self.source.group.order))
        if col is NoSolution:
            raise ResolutionError(
                f"lifting failed at degree {k}: target resolution not exact")
        self._cols[key] = col
        return col

    def transport_down(self, k: int, down_vec: Mapping[int, int]) -> list[int]:
        """Down-image of psi applied to a chain whose down-image is down_vec.

        down_vec is sparse, {index: integer}, as ``down_vector`` returns it;
        anything else is a ValueError.  Augmentation factors through psi, a
        module map.
        """
        if not isinstance(down_vec, Mapping):
            raise _not_a_chain("a down vector", down_vec)
        order = self.target.group.order
        out = [0] * self.target.rank(k + self.shift)
        for j, c in down_vec.items():
            if not (isinstance(j, int) and isinstance(c, int)):
                raise ValueError(f"down vector entry {j!r}: {c!r} not integral")
            for base, _, v in self.column(k, j):
                out[base // order] += c * v
        return out


def _augmentation_seed(P: Resolution) -> tuple:
    """Triples of s in P_0 with eps(s) = 1, checked: no ZGSolver solves it."""
    z = IntegerSolver([{0: a} for a in P.aug], 1).solve({0: 1})
    if z is NoSolution:
        raise ResolutionError(
            "target augmentation is not onto; invalid resolution")
    if sum(P.aug[i] * v for i, v in z.items()) != 1:
        raise InternalCheckError("seed check failed: eps(seed) != 1")
    return tuple((i * P.group.order, 0, v) for i, v in z.items())


class ProductContext:
    """Shared caches for computing many products over one resolution.

    Holds one join P_{<=N} * P_{<=M} through degree D, grown by
    ``join_for``, and the lazy chain self-maps of the composition pipeline.
    The walk that carries join chains back to P and the self-maps solve
    through the differentials of P, which keep their factorizations.  All
    methods are deterministic.
    """

    __slots__ = ("P", "max_zrank", "_join", "_glifts")

    def __init__(self, P: Resolution, max_zrank: int | None = None):
        self.P = P
        self.max_zrank = max_zrank
        self._join: JoinResolution | None = None
        self._glifts: dict[tuple, ComparisonLift] = {}

    def join_for(self, pairs: Sequence[tuple[int, int]]) -> JoinResolution:
        """The one join that the products of all the given bidegrees read.

        Its box (N, M, D) is the componentwise maximum of (n, m, n + m + 1)
        over the pairs and the join already held; a union of boxes is not
        the join of two resolutions, so the box is the bounding one.  A box
        that grows builds a new join.  Each pair must be two integers; no
        pairs and no join held is an error.
        """
        J = self._join
        boxes = [(n, m, n + m + 1) for n, m in
                 (check_vector(p, 2, "bidegree") for p in pairs)]
        if J is not None:
            boxes.append((J.P.depth, J.Q.depth, J.depth))
        elif not boxes:
            raise ResolutionError("a join needs at least one bidegree")
        N, M, D = map(max, zip(*boxes))
        if J is None or (N, M, D) != boxes[-1]:  # boxes[-1]: the one held
            Pn = self.P.truncated(N)
            Pm = Pn if M == N else self.P.truncated(M)
            J = self._join = join(Pn, Pm, D, max_zrank=self.max_zrank)
        return J

    def table(self, pairs: Sequence[tuple[int, int]]) -> list[dict]:
        """Products of all homology generators for each (n, m) in pairs.

        Every entry is computed by both pipelines; the agree flag records
        exact equality of the classified outputs.
        """
        for pair in pairs:
            _require_bidegree(self.P, *check_vector(pair, 2, "bidegree"))
        if pairs:
            # size the join once, not once per growth in pair order
            self.join_for(pairs)
        entries = []
        for n, m in pairs:
            hn = homology(self.P, n)
            hm = homology(self.P, m)
            for a_idx, za in enumerate(hn.generators):
                for b_idx, zb in enumerate(hm.generators):
                    jc = self.join_product(n, za, m, zb)
                    cc = self.composition_product(n, za, m, zb)
                    entries.append({
                        "n": n, "m": m, "a": a_idx, "b": b_idx,
                        "join": list(jc), "composition": list(cc),
                        "agree": jc == cc,
                    })
        return entries

    # -- the two pipelines ------------------------------------------------

    def join_product(self, n: int, za: Sequence[int], m: int,
                     zb: Sequence[int]) -> tuple[int, ...]:
        """Class of the join-chain product of cycles za (deg n) and zb (deg m)."""
        P = self.P
        _require_factors(P, n, za, m, zb)
        out_deg = n + m + 1
        x = phi_inverse(P, n, za)  # N . y_a, checked invariant cycle
        y = lift_vector(P, m, zb)
        J = self.join_for([(n, m)])
        w = include_cycle_tensor(J, x.vector, n, y, m)
        # the boundary must die after tensoring down (norm against the
        # augmentation ideal); anything else is a sign bug, not bad input
        if down_vector(J.apply_differential(out_deg, w)):
            raise InternalCheckError(
                "down-image of the product chain's boundary is nonzero")
        t = self._carry_down(J, n, m, down_vector(w))
        if not is_cycle(P, out_deg, t):
            raise InternalCheckError("transported product chain is not a cycle")
        return homology(P, out_deg).classify(t)

    def _carry_down(self, J: JoinResolution, n: int, m: int,
                    down: Mapping[int, int]) -> list[int]:
        """f(w) tensored down, w in row n of J with down-image ``down``.
        Row a is {i: t_i}, sum e_i (x) t_i, t_i = {j*|G| + g: c} in P_{n+m-a};
        delta_P sends e_i (x) h(t_i) to sum alpha e_r (x) u^{-1}.h(t_i) for
        (r, u, alpha) in d_a's column i; d_0 = eps."""
        P = self.P
        order, table, inv = P.group.order, P.group.table, P.group.inverse
        rows: dict[int, dict[int, int]] = {}
        for idx, c in down.items():
            _, i, g, j = J.bases[n + m + 1][idx]
            rows.setdefault(i, {})[j * order + g] = c
        for a in range(n, -1, -1):
            below: dict[int, dict[int, int]] = {}
            for i, t in rows.items():
                if not any(t.values()):
                    continue
                col = _contract(P, n + m - a, t)
                delta = (P.differential(a).triples(i) if a
                         else ((0, 0, P.aug[i]),))
                for base, u, alpha in delta:
                    _accumulate(below.setdefault(base // order, {}), table,
                                ((inv[u], alpha, col),))
            rows = below
        out = [0] * P.rank(n + m + 1)
        for k, c in rows.get(0, {}).items():
            out[k // order] += c
        return [-c for c in out] if n * (n + 1) // 2 % 2 else out

    def _g_lift(self, m: int, zb: Sequence[int]) -> ComparisonLift:
        """Strictly commuting lift of the degree-(m+1) stable map given by zb.

        column(k, j) is the image of basis vector e_j of P_k inside
        P_{k+m+1}, with d o glift_k = glift_{k-1} o d and the base case
        d_{m+1} o glift_0 = (1 -> N.y_b) o eps.  Cached per (m, zb).
        """
        key = (m, tuple(zb))
        lift = self._glifts.get(key)
        if lift is None:
            lift = self._glifts[key] = ComparisonLift(
                self.P, self.P, m + 1, seed=phi_inverse(self.P, m, zb).vector)
        return lift

    def composition_product(self, n: int, za: Sequence[int], m: int,
                            zb: Sequence[int]) -> tuple[int, ...]:
        """Class of the composition (Yoneda) product of za (deg n) and zb (deg m)."""
        P = self.P
        _require_factors(P, n, za, m, zb)
        out_deg = n + m + 1
        x = phi_inverse(P, n, za).vector  # N . y_a, checked invariant cycle
        glift = self._g_lift(m, zb)
        out: dict[int, GroupRingElement] = {}
        for j, coeff in x.items():
            _add_multiple(out, coeff, _elements(P.group, glift.column(n, j)))
        # the image of an invariant cycle under a chain map is again an
        # invariant cycle; classify through the norm correspondence
        if P.apply_differential(out_deg, out):
            raise InternalCheckError("composed chain is not a cycle")
        down = [0] * P.rank(out_deg)
        for r, a in out.items():
            if not a.is_invariant():
                raise InternalCheckError("composed chain lost invariance")
            down[r] = a.c[0]
        return homology(P, out_deg).classify(down)


def _contract(P: Resolution, b: int, t: Mapping[int, int]) -> tuple:
    """h_b(t) = R_{b+2} S_{b+1}(t - S_b d_b t) for t = {j*|G| + g: c} in P_b.

    b >= 1.  S_k, the plain solve through d_k, is linear on im d_k (sum
    t_c V_c over the pivot columns), so h' = S_{b+1}(1 - S_b d_b) has
    d h' + h' d = 1: h'_{b-1}(d_b t) = S_b(d_b t) as S(0) = 0.  The first
    multiply-back makes the second right-hand side a cycle, so no solution
    there means P is not exact.  R_{b+2}, the balanced reduction modulo
    im d_{b+2}, keeps entries small and adds a vertical boundary
    (1 (x) d)(z) to each H-step; delta_P commutes with 1 (x) d and
    delta_P^2 = 0, so the walk carries it to a boundary of P and leaves the
    class.
    """
    table, order = P.group.table, P.group.order
    d = P.differential(b)
    dt: dict[int, int] = {}
    _accumulate(dt, table, ((k % order, c, d.triples(k // order))
                            for k, c in t.items()))
    x = d.solver().solve(dt)
    if x is NoSolution:
        raise InternalCheckError(f"no preimage of a boundary in degree "
                                 f"{b - 1}")
    rhs = dict(t)
    _accumulate(rhs, table, ((0, -1, x),))
    y = P.differential(b + 1).solver().solve(
        rhs, modulo=P.differential(b + 2).solver())
    if y is NoSolution:
        raise ResolutionError(f"resolution not exact in degree {b}")
    return y


def _add_multiple(out: dict[int, GroupRingElement], c: GroupRingElement,
                  vec: Mapping[int, GroupRingElement]) -> None:
    """out += c * vec for chains, c on the left.

    One ``ring_multiply`` per entry: the composition pipeline evaluates its
    self-map on N.y_a here.  ``ring_multiply`` calls the convolution kernel
    ``_accumulate``, so this step shares arithmetic with the lifts.
    """
    for r, v in vec.items():
        p = c * v
        out[r] = out[r] + p if r in out else p


def _require_bidegree(P: Resolution, n: int, m: int) -> None:
    """The product of H_n and H_m is defined for n, m >= 1, in H_{n+m+1}."""
    if not all(isinstance(k, int) and k >= 1 for k in (n, m)):
        raise ResolutionError(
            f"the product is defined for degrees >= 1, got ({n!r}, {m!r})")
    if P.depth < n + m + 2:
        raise ResolutionError(f"product needs the resolution to degree "
                              f"{n + m + 2}, depth is {P.depth}")


def _require_factors(P: Resolution, n: int, za: Sequence[int], m: int,
                     zb: Sequence[int]) -> None:
    """The precondition both pipelines share, checked before any work."""
    _require_bidegree(P, n, m)
    for what, k, z in (("first", n, za), ("second", m, zb)):
        check_vector(z, P.rank(k), f"{what} factor in degree {k}")
    # before the self-map cache, whose key tuple(zb) reads [1.0] as [1]
    if not is_cycle(P, m, zb):
        raise ResolutionError("second factor is not a cycle")


def join_product(P: Resolution, n: int, za: Sequence[int], m: int,
                 zb: Sequence[int],
                 max_zrank: int | None = None) -> tuple[int, ...]:
    """One-shot join-pipeline product; build a ProductContext for tables."""
    return ProductContext(P, max_zrank=max_zrank).join_product(n, za, m, zb)


def composition_product(P: Resolution, n: int, za: Sequence[int], m: int,
                        zb: Sequence[int]) -> tuple[int, ...]:
    """One-shot composition-pipeline product."""
    return ProductContext(P).composition_product(n, za, m, zb)


class ProductTable:
    """All generator-by-generator products for a list of degree pairs."""

    __slots__ = ("group_label", "resolution_label", "entries")

    def __init__(self, group_label: str, resolution_label: str,
                 entries: list[dict]):
        self.group_label = group_label
        self.resolution_label = resolution_label
        self.entries = entries

    @property
    def all_agree(self) -> bool:
        return all(e["agree"] for e in self.entries)

    def to_json(self) -> dict:
        return {"group": self.group_label,
                "resolution": self.resolution_label,
                "entries": self.entries}

    def to_csv(self) -> str:
        lines = ["n,m,a,b,join,composition,agree"]
        for e in self.entries:
            lines.append("{n},{m},{a},{b},{j},{c},{g}".format(
                n=e["n"], m=e["m"], a=e["a"], b=e["b"],
                j=";".join(str(v) for v in e["join"]),
                c=";".join(str(v) for v in e["composition"]),
                g="true" if e["agree"] else "false"))
        return "\n".join(lines) + "\n"


def product_table(P: Resolution, pairs: Sequence[tuple[int, int]],
                  max_zrank: int | None = None) -> ProductTable:
    """``ProductContext.table`` under the group and resolution labels."""
    return ProductTable(P.group.label, P.label,
                        ProductContext(P, max_zrank=max_zrank).table(pairs))
