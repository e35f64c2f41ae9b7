"""The negative-degree product, computed two independent ways.

Production path (the join): for classes a in H_n and b in H_m with chain
representatives y_a, y_b, the product is carried by the chain

    (N . y_a) (x) y_b   in degree n+m+1 of the join P*P,

whose down-image is a cycle (the boundary's only surviving term is killed by
the norm against the augmentation ideal).  A degree-0 comparison map from
the join back to P transports the class, and the answer is classified in
H_{n+m+1}(P).  P itself must reach degree n+m+2, since classifying in
degree n+m+1 reads D_{n+m+2}.

The product reads only the join of the n- and m-skeleta, P_{<=n} * P_{<=m}
through degree n+m+1, which is built, certified and charged to the size
budget in place of the whole P*P.  It is a free resolution through that
degree (see ``resolutions``), so a comparison map from it exists, and it is
a subcomplex of P*P on the same basis tuples that holds the product chain.
The boundary certificate and every comparison column the product reads stay
inside it, so the lifted columns and the classes are those of the whole
join.

Cross-check path (composition): represent b as a stable map into the m+1st
syzygy, lift it to a degree-(m+1) chain self-map of P (strict commutation
with the differentials, base case through the augmentation), evaluate the
lift on the invariant chain N . y_a, and classify the result.  The two
pipelines realize the same stable composition, so their classified outputs
must agree exactly; ``product_table`` records both and flags any mismatch.

Both pipelines lift into P with one lazy lifter, ``ComparisonLift``, the
one chain-map type: shift 0 for the join's comparison map, shift m+1 seeded
by N.y_b for the self-map.  Each lift keeps its own columns, and a product
lifts only the columns reachable from its input's support.  Each column is
certified once, as it is lifted: ``ZGSolver.solve`` multiplies every
solution back in Z[G], and the shift-0 seed is checked where it is built;
``tests/oracles.py`` re-checks commutation on the lifts the tests build.
The lifts share the factorization of each differential of P, which the
matrix owns (``ZGMatrix.solver``); sharing it weakens no check.
The seed and the product chains are Z[G] chains {index: nonzero element}
(see ``zglinalg``).  A lifted column stays in the stored triples of a
``ZGMatrix`` column, and each right-hand side is one call of the kernel
``groups._accumulate`` on them.  Ring elements are built only to read the
source differential and in the composition pipeline's last step, the
self-map evaluated on N.y_a (``_add_multiple``), whose ``ring_multiply``
runs the same kernel: what is independent between the pipelines is the
chain each one builds, not the arithmetic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InternalCheckError, ResolutionError
from .groups import GroupRingElement, _accumulate
from .intlinalg import IntegerSolver, NoSolution
from .resolutions import (JoinResolution, Resolution, include_cycle_tensor,
                          join)
from .tate import (down_vector, homology, is_cycle, lift_vector, phi_inverse)
from .zglinalg import ZGMatrix, _elements, _not_a_chain, _triples


class ComparisonLift:
    """Lazy chain map of degree ``shift`` from one resolution into another.

    Column j in degree k, psi_k(e_j), is lifted through the exact target on
    first use and memoized as a ``ZGMatrix`` column's triples.  Degree 0 is
    eps^S(e_j) . seed, lifted through d^T_shift when shift > 0; there
    ``seed`` is a boundary, a chain of target degree shift - 1, and for
    shift 0 the constructor solves and checks eps^T(seed) = 1.  Degree k > 0
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
            z = IntegerSolver([{0: a} for a in target.aug], 1).solve({0: 1})
            if z is NoSolution:
                raise ResolutionError(
                    "target augmentation is not onto; invalid resolution")
            if sum(target.aug[i] * v for i, v in z.items()) != 1:
                raise InternalCheckError("seed check failed: eps(seed) != 1")
            seed = {i: GroupRingElement.basis(target.group, 0, v)
                    for i, v in z.items()}
        self.source = source
        self.target = target
        self.shift = shift
        self.seed = seed
        self._seed = ZGMatrix(target.group, target.rank(max(shift - 1, 0)),
                              [seed]).triples(0)  # rows and ring checked
        self._cols: dict[tuple[int, int], tuple] = {}

    def column(self, k: int, j: int) -> tuple:
        """psi_k(e_j) as stored triples (row * |G|, h, c)."""
        key = (k, j)
        col = self._cols.get(key)
        if col is not None:
            return col
        if not 0 <= j < self.source.rank(k):
            raise ValueError(f"column {j} out of range in degree {k}")
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


class ProductContext:
    """Shared caches for computing many products over one resolution.

    Holds one join P_{<=N} * P_{<=M} through degree D, grown lazily to the
    componentwise maximum (N, M, D) of what the products ask for; a union of
    boxes is not the join of two resolutions, so the box is the bounding
    one.  Also holds the lazy comparison lift join -> P and the lazy chain
    self-maps of the composition pipeline.  Each keeps its own columns; all
    of them solve through the differentials of P, which keep their
    factorizations.  All methods are deterministic.
    """

    __slots__ = ("P", "max_zrank", "_box", "_join", "_lift", "_glifts")

    def __init__(self, P: Resolution, max_zrank: int | None = None):
        self.P = P
        self.max_zrank = max_zrank
        self._box: tuple[int, int, int] | None = None
        self._join: JoinResolution | None = None
        self._lift: ComparisonLift | None = None
        self._glifts: dict[tuple, ComparisonLift] = {}

    def join_to(self, n: int, m: int | None = None,
                degree: int | None = None) -> JoinResolution:
        """The join of P_{<=n} with P_{<=m} through ``degree``, or a larger one.

        m defaults to n and degree to n + m + 1, the output degree of a
        product of bidegree (n, m).  The join is rebuilt only when the box
        (n, m, degree) grows it.  The old join is then a subcomplex of the
        new one on the same basis tuples, so its lifted columns are the
        same P-chains: the new lift keeps them, re-keyed from each old
        basis tuple to its new index.
        """
        m = n if m is None else m
        want = (n, m, n + m + 1 if degree is None else degree)
        box = want if self._box is None else tuple(map(max, self._box, want))
        if box != self._box:
            N, M, D = box
            Pn = self.P.truncated(N)
            Pm = Pn if M == N else self.P.truncated(M)
            old, old_lift = self._join, self._lift
            J = self._join = join(Pn, Pm, D, max_zrank=self.max_zrank)
            self._lift = ComparisonLift(J, self.P)
            if old_lift is not None:
                self._lift._cols.update(
                    ((k, J.index[k][old.bases[k][j]]), col)
                    for (k, j), col in old_lift._cols.items())
            self._box = box
        return self._join

    def join_for(self, pairs: Sequence[tuple[int, int]]) -> JoinResolution:
        """The one join that the products of all the given bidegrees read."""
        return self.join_to(max(n for n, _ in pairs), max(m for _, m in pairs),
                            max(n + m + 1 for n, m in pairs))

    def lift(self) -> ComparisonLift:
        if self._lift is None:
            raise ResolutionError("no join built yet: join_to must run first")
        return self._lift

    def table(self, pairs: Sequence[tuple[int, int]]) -> list[dict]:
        """Products of all homology generators for each (n, m) in pairs.

        Every entry is computed by both pipelines; the agree flag records
        exact equality of the classified outputs.
        """
        for n, m in pairs:
            _require_bidegree(self.P, n, m)
        if pairs:
            # size the join once; rebuilding it per pair order would redo lifts
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
        out_deg = n + m + 1
        _require_factors(P, n, za, m, zb)
        x = phi_inverse(P, n, za)  # N . y_a, checked invariant cycle
        y = lift_vector(P, m, zb)
        if not is_cycle(P, m, zb):
            raise ResolutionError("second factor is not a cycle")
        J = self.join_to(n, m)
        w = include_cycle_tensor(J, x.vector, n, y, m)
        # the boundary must die after tensoring down (norm against the
        # augmentation ideal); anything else is a sign bug, not bad input
        if down_vector(J.apply_differential(out_deg, w)):
            raise InternalCheckError(
                "down-image of the product chain's boundary is nonzero")
        t = self.lift().transport_down(out_deg, down_vector(w))
        if not is_cycle(P, out_deg, t):
            raise InternalCheckError("transported product chain is not a cycle")
        return homology(P, out_deg).classify(t)

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
        out_deg = n + m + 1
        _require_factors(P, n, za, m, zb)
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
    if n < 1 or m < 1:
        raise ResolutionError(
            f"the product is defined for degrees >= 1, got ({n}, {m})")
    if P.depth < n + m + 2:
        raise ResolutionError(f"product needs the resolution to degree "
                              f"{n + m + 2}, depth is {P.depth}")


def _require_factors(P: Resolution, n: int, za: Sequence[int], m: int,
                     zb: Sequence[int]) -> None:
    """The precondition both pipelines share, checked before any work."""
    _require_bidegree(P, n, m)
    for what, k, z in (("first", n, za), ("second", m, zb)):
        if len(z) != P.rank(k):
            raise ResolutionError(
                f"{what} factor has length {len(z)}, but degree {k} has "
                f"rank {P.rank(k)}")


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
