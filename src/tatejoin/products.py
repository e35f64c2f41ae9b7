"""The negative-degree product, computed two independent ways.

Production path (the join): for classes a in H_n and b in H_m with chain
representatives y_a, y_b, the product is carried by the chain

    (N . y_a) (x) y_b   in degree n+m+1 of the join P*P,

whose down-image is a cycle (the boundary's only surviving term is killed by
the norm against the augmentation ideal).  A degree-0 comparison map from
the join back to P transports the class, and the answer is classified in
H_{n+m+1}(P).

Cross-check path (composition): represent b as a stable map into the m+1st
syzygy, lift it to a degree-(m+1) chain self-map of P (strict commutation
with the differentials, base case through the augmentation), evaluate the
lift on the invariant chain N . y_a, and classify the result.  The two
pipelines realize the same stable composition, so their classified outputs
must agree exactly; ``product_table`` records both and flags any mismatch.

Comparison maps are lifted lazily column by column: transporting one product
out of a join only ever touches the columns reachable from the product
chain's support, a small fraction of the join's basis.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalCheckError, ResolutionError
from .groups import GroupRingElement
from .intlinalg import IntegerSolver, NoSolution
from .resolutions import (JoinResolution, Resolution, include_cycle_tensor,
                          join)
from .tate import (down_vector, homology, is_cycle, lift_vector, phi_inverse)
from .zglinalg import ZGMatrix, ZGSolver, vector_is_zero


class ChainMap:
    """A degree-shift family of ZGMatrices commuting strictly with differentials.

    components[k] maps source degree k to target degree k + shift.  check()
    verifies the commutation squares and, for shift 0, augmentation
    compatibility; lift constructors guarantee both.
    """

    __slots__ = ("source", "target", "shift", "components")

    def __init__(self, source: Resolution, target: Resolution, shift: int,
                 components: dict[int, ZGMatrix]):
        self.source = source
        self.target = target
        self.shift = shift
        self.components = dict(components)

    def check(self) -> None:
        """Assert the chain-map identities on every stored degree."""
        degrees = sorted(self.components)
        if self.shift == 0 and 0 in self.components:
            psi0 = self.components[0]
            for j in range(psi0.ncols):
                want = self.source.aug[j]
                got = sum(self.target.aug[i] * v.augmentation()
                          for i, v in psi0.column(j).items())
                if got != want:
                    raise InternalCheckError(
                        f"comparison map does not respect augmentations at column {j}")
        for k in degrees:
            if k == 0 or k - 1 not in self.components:
                continue
            lhs = self.target.differential(k + self.shift).compose(
                self.components[k])
            rhs = self.components[k - 1].compose(self.source.differential(k))
            # compose never stores a zero entry, so equal maps compare equal
            if lhs != rhs:
                raise InternalCheckError(
                    f"chain map fails to commute with differentials at degree {k}")


class ComparisonLift:
    """Lazy degree-0 comparison map from one resolution of Z to another.

    Columns are lifted on demand: column j in degree k is a solution of
    d^T_k x = psi_{k-1}(d^S_k e_j), with degree 0 seeded by matching
    augmentations.  Solutions are memoized, and the group-ring solvers for
    the target differentials are shared across all columns and products.
    """

    __slots__ = ("source", "target", "_cols", "_aug_solver", "_solvers")

    def __init__(self, source: Resolution, target: Resolution):
        if source.group != target.group:
            raise ResolutionError("comparison lift needs matching groups")
        self.source = source
        self.target = target
        self._cols: dict[tuple[int, int], list[GroupRingElement]] = {}
        self._aug_solver = IntegerSolver([{0: a} for a in target.aug], 1)
        self._solvers: dict[int, ZGSolver] = {}

    def _solver(self, k: int) -> ZGSolver:
        s = self._solvers.get(k)
        if s is None:
            s = self._solvers[k] = ZGSolver(self.target.differential(k))
        return s

    def column(self, k: int, j: int) -> list[GroupRingElement]:
        key = (k, j)
        col = self._cols.get(key)
        if col is not None:
            return col
        G = self.source.group
        if k == 0:
            z = self._aug_solver.solve([self.source.aug[j]])
            if z is NoSolution:
                raise ResolutionError(
                    "target augmentation is not onto; invalid resolution")
            col = [GroupRingElement.basis(G, 0, v) for v in z]
        else:
            rhs = [GroupRingElement.zero(G)
                   for _ in range(self.target.rank(k - 1))]
            for i, val in self.source.differential(k).column(j).items():
                _add_multiple(rhs, val, self.column(k - 1, i))
            col = self._solver(k).solve(rhs)
            if col is NoSolution:
                raise ResolutionError(
                    f"lifting failed at degree {k}: target resolution not exact")
        self._cols[key] = col
        return col

    def transport_down(self, k: int, down_vec: Sequence[int]) -> list[int]:
        """Down-image of psi applied to a chain whose down-image is down_vec.

        Since psi is a module map, augmentation factors through it; only the
        columns with nonzero down-coordinate contribute.
        """
        out = [0] * self.target.rank(k)
        for j, c in enumerate(down_vec):
            if c:
                col = self.column(k, j)
                for i, val in enumerate(col):
                    a = val.augmentation()
                    if a:
                        out[i] += c * a
        return out

    def materialize(self, up_to: int) -> ChainMap:
        """The full chain map through the given degree, checked."""
        comps = {}
        for k in range(up_to + 1):
            m = ZGMatrix(self.source.group, self.target.rank(k),
                         self.source.rank(k))
            for j in range(self.source.rank(k)):
                for i, val in enumerate(self.column(k, j)):
                    m.set(i, j, val)
            comps[k] = m
        cm = ChainMap(self.source, self.target, 0, comps)
        cm.check()
        return cm


def lift_comparison(source: Resolution, target: Resolution,
                    up_to: int) -> ChainMap:
    """A degree-0 chain map source -> target lifting the identity of Z."""
    return ComparisonLift(source, target).materialize(up_to)


class ProductContext:
    """Shared caches for computing many products over one resolution.

    Holds the join P*P (grown lazily to the deepest degree requested), the
    lazy comparison lift join -> P, and the per-degree solvers for the
    composition pipeline.  All methods are deterministic.
    """

    __slots__ = ("P", "max_zrank", "_join", "_lift", "_solvers", "_glifts")

    def __init__(self, P: Resolution, max_zrank: int | None = None):
        self.P = P
        self.max_zrank = max_zrank
        self._join: JoinResolution | None = None
        self._lift: ComparisonLift | None = None
        self._solvers: dict[int, ZGSolver] = {}
        self._glifts: dict[tuple, dict[int, list[list[GroupRingElement]]]] = {}

    def join_to(self, depth: int) -> JoinResolution:
        if self._join is None or self._join.depth < depth:
            self._join = join(self.P, self.P, depth, max_zrank=self.max_zrank)
            self._lift = ComparisonLift(self._join, self.P)
        return self._join

    def lift(self) -> ComparisonLift:
        if self._lift is None:
            raise ResolutionError("no join built yet: join_to must run first")
        return self._lift

    def solver(self, k: int) -> ZGSolver:
        s = self._solvers.get(k)
        if s is None:
            s = self._solvers[k] = ZGSolver(self.P.differential(k))
        return s

    # -- the two pipelines ------------------------------------------------

    def join_product(self, n: int, za: Sequence[int], m: int,
                     zb: Sequence[int]) -> tuple[int, ...]:
        """Class of the join-chain product of cycles za (deg n) and zb (deg m)."""
        P = self.P
        out_deg = n + m + 1
        _require_depth(P, out_deg + 1)
        x = phi_inverse(P, n, za)  # N . y_a, checked invariant cycle
        y = lift_vector(P, m, zb)
        J = self.join_to(out_deg + 1)
        w = include_cycle_tensor(J, x.vector, n, y, m)
        # the boundary must die after tensoring down (norm against the
        # augmentation ideal); anything else is a sign bug, not bad input
        bdry = down_vector(J.apply_differential(out_deg, w))
        if any(bdry):
            raise InternalCheckError(
                "down-image of the product chain's boundary is nonzero")
        t = self.lift().transport_down(out_deg, down_vector(w))
        if not is_cycle(P, out_deg, t):
            raise InternalCheckError("transported product chain is not a cycle")
        return homology(P, out_deg).classify(t)

    def _g_lift(self, m: int, zb: Sequence[int], up_to: int
                ) -> dict[int, list[list[GroupRingElement]]]:
        """Strictly commuting lift of the degree-(m+1) stable map given by zb.

        glift[k][j] is the image of source basis vector e_j of P_k inside
        P_{k+m+1}, with d o glift_k = glift_{k-1} o d and the base case
        d_{m+1} o glift_0 = (1 -> N.y_b) o eps.
        """
        key = (m, tuple(zb))
        cache = self._glifts.setdefault(key, {})
        P = self.P
        G = P.group
        s = phi_inverse(P, m, zb).vector
        for k in range(up_to + 1):
            if k in cache:
                continue
            cols = []
            if k == 0:
                solver = self.solver(m + 1)
                for j in range(P.rank(0)):
                    rhs = [v.scale(P.aug[j]) for v in s]
                    x = solver.solve(rhs)
                    if x is NoSolution:
                        raise InternalCheckError(
                            "invariant cycle is not a boundary; resolution not exact")
                    cols.append(x)
            else:
                solver = self.solver(k + m + 1)
                prev = cache[k - 1]
                for j in range(P.rank(k)):
                    rhs = [GroupRingElement.zero(G)
                           for _ in range(P.rank(k + m))]
                    for i, val in P.differential(k).column(j).items():
                        _add_multiple(rhs, val, prev[i])
                    x = solver.solve(rhs)
                    if x is NoSolution:
                        raise InternalCheckError(
                            f"chain self-map lift failed at degree {k}")
                    cols.append(x)
            cache[k] = cols
        return cache

    def composition_product(self, n: int, za: Sequence[int], m: int,
                            zb: Sequence[int]) -> tuple[int, ...]:
        """Class of the composition (Yoneda) product of za (deg n) and zb (deg m)."""
        P = self.P
        out_deg = n + m + 1
        _require_depth(P, out_deg + 1)
        if not is_cycle(P, n, za):
            raise ResolutionError("first factor is not a cycle")
        glift = self._g_lift(m, zb, n)
        x = phi_inverse(P, n, za).vector  # N . y_a in P_n
        out = [GroupRingElement.zero(P.group) for _ in range(P.rank(out_deg))]
        for coeff, col in zip(x, glift[n]):
            _add_multiple(out, coeff, col)
        # the image of an invariant cycle under a chain map is again an
        # invariant cycle; classify through the norm correspondence
        if not vector_is_zero(P.apply_differential(out_deg, out)):
            raise InternalCheckError("composed chain is not a cycle")
        if not all(a.is_invariant() for a in out):
            raise InternalCheckError("composed chain lost invariance")
        down = [a.c[0] for a in out]
        return homology(P, out_deg).classify(down)


def _add_multiple(out: list[GroupRingElement], c: GroupRingElement,
                  vec: Sequence[GroupRingElement]) -> None:
    """out[r] += c * vec[r] for every r, c on the left; zero terms skipped."""
    if c.is_zero():
        return
    for r, v in enumerate(vec):
        if not v.is_zero():
            out[r] = out[r] + c * v


def _require_depth(P: Resolution, need: int) -> None:
    if P.depth < need:
        raise ResolutionError(
            f"product needs the resolution to degree {need}, depth is {P.depth}")


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
    """Products of all homology generators for each (n, m) in pairs.

    Every entry is computed by both pipelines; the agree flag records exact
    equality of the classified outputs.
    """
    ctx = ProductContext(P, max_zrank=max_zrank)
    if pairs:
        # size the join once; rebuilding it per pair order would redo lifts
        ctx.join_to(max(n + m + 2 for n, m in pairs))
    entries = []
    for n, m in pairs:
        hn = homology(P, n)
        hm = homology(P, m)
        for a_idx, za in enumerate(hn.generators):
            for b_idx, zb in enumerate(hm.generators):
                jc = ctx.join_product(n, za, m, zb)
                cc = ctx.composition_product(n, za, m, zb)
                entries.append({
                    "n": n, "m": m, "a": a_idx, "b": b_idx,
                    "join": list(jc), "composition": list(cc),
                    "agree": jc == cc,
                })
    return ProductTable(P.group.label, P.label, entries)
