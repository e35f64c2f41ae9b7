"""Free resolutions of Z over the group ring, and the join construction.

A Resolution holds ranks r_0..r_n, differentials d_k: P_k -> P_{k-1} as
ZGMatrices of shape r_{k-1} x r_k, and an integer augmentation row for
eps: P_0 -> Z.  No caller reads a d_k that has not passed its one
certificate, ``Resolution._certify``: eps o d_1 = 0, or d_{k-1} o d_k = 0.
The constructor runs it on every degree; a join builds and certifies each
differential on its first read.  ``validate_resolution`` additionally
certifies exactness degree by degree from ranks and invariant factors of
the integer expansions.  Library input meets one gate per rule, each
raising ResolutionError: ``check_degree`` for a degree or depth,
``check_vector`` for an integer list or tuple.

Three constructors are provided:

* ``periodic_cyclic_resolution``: the rank-1 two-periodic resolution for a
  cyclic group, differentials alternating between t-1 and the norm.
* ``bar_resolution``: the normalized bar resolution of any group, rank
  (|G|-1)^k in degree k.  General but exponentially large.
* ``syzygy_resolution``: a computed resolution of any small group; each
  differential's columns are module generators of the previous kernel, found
  by covering the integer kernel lattice with group orbits.  Ranks stay far
  smaller than the bar resolution's, which is what makes deep degrees
  reachable for the nonabelian test groups.

The join P*Q is the suspension of the tensor product over Z with the
diagonal group action.  Degree d of the join is the direct sum over
0 <= k <= d+1 of P_{k-1} (x) Q_{d-k}, with the convention P_{-1} = Q_{-1} = Z
in degree -1.  Each middle summand is a free module on basis vectors
e_i (x) g.f_j (the second-factor twist), so its rank is
rank(P_{k-1}) * |G| * rank(Q_{d-k}).  The boundary follows the suspension
sign rule: on x (x) s it is dx (x) s + (-1)^{|x|+1} x (x) ds, where |x| is
the P-degree, the Z factor sits in degree -1, and the boundary out of degree
0 is the augmentation.

A summand exists only where both of its factor degrees are within depth, so
the join of a depth-p P with a depth-q Q is the join of the p- and
q-skeleta.  As augmented complexes, P has homology only in degree p and
Q only in degree q, so by Kuenneth their join is exact below degree p+q+1
(as Milnor's join of a (p-1)- with a (q-1)-connected space is
(p+q)-connected): it is a free resolution through degree p+q+1, the deepest
degree ``join`` allows.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import reprlib
from typing import Mapping, Sequence

from .errors import InternalCheckError, ResolutionError, SchemaError
from .groups import (FiniteGroup, GroupRingElement, _int_list, _is_int,
                     _list, _read_json, build_group)
from .intlinalg import (IntegerLattice, IntMatrix, _rank_and_minor,
                        f2_rank, kernel_basis, lll_reduce_rows,
                        sparse_invariant_factors)
from .zglinalg import ZGMatrix, _elements, check_zrank


def check_degree(k, lo, hi, what: str):
    """k itself if it is an int with lo <= k <= hi, else ResolutionError.

    The one check of a degree or depth given to the library; hi may be
    ``math.inf``.
    """
    if not (_is_int(k) and lo <= k <= hi):
        raise ResolutionError(
            f"{what} must be an integer in {lo}..{hi}, got {k!r}")
    return k


def check_vector(v, length: int, what: str):
    """v itself if it is a list or tuple of length integers, else
    ResolutionError: the one check of a down-complex vector, a class's
    coordinates or a bidegree given to the library."""
    if not (isinstance(v, (list, tuple)) and len(v) == length
            and all(_is_int(c) for c in v)):
        raise ResolutionError(f"{what} must be a list or tuple of {length} "
                              f"integers, got {reprlib.repr(v)}")
    return v


def write_atomically(path: str, text: str) -> None:
    """Write text to path through path.tmp; a failure leaves no .tmp behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # tmp may be absent or a directory
            os.unlink(tmp)
        raise


class Resolution:
    """An augmented free resolution of Z over Z[G], exact through its depth.

    ranks[k] is the Z[G]-rank in degree k (0 <= k <= depth); differential(k)
    is d_k for 1 <= k <= depth; augmentation is the integer row vector with
    eps(g . e_i) = augmentation[i].
    """

    __slots__ = ("group", "ranks", "diffs", "aug", "label", "_down", "_hcache")

    def __init__(self, group: FiniteGroup, ranks: Sequence[int],
                 diffs: Sequence[ZGMatrix], augmentation: Sequence[int],
                 label: str = "res"):
        self._fill(group, ranks, tuple(diffs), augmentation, label)
        if not self.ranks or any(r < 0 for r in self.ranks):
            raise ResolutionError("ranks must be a nonempty list of nonnegative integers")
        if len(self.diffs) != len(self.ranks) - 1:
            raise ResolutionError(
                f"expected {len(self.ranks) - 1} differentials for "
                f"{len(self.ranks)} ranks, got {len(self.diffs)}")
        if len(self.aug) != self.ranks[0]:
            raise ResolutionError("augmentation length must equal rank in degree 0")
        for k, d in enumerate(self.diffs, start=1):
            if d.group != group:
                raise ResolutionError(f"differential {k} has the wrong group")
            if (d.nrows, d.ncols) != (self.ranks[k - 1], self.ranks[k]):
                raise ResolutionError(
                    f"differential {k} has shape {d.nrows}x{d.ncols}, "
                    f"expected {self.ranks[k - 1]}x{self.ranks[k]}")
        for k in range(1, self.depth + 1):
            self._certify(k)

    def _fill(self, group, ranks, diffs, augmentation, label) -> None:
        self.group = group
        self.ranks = tuple(int(r) for r in ranks)
        self.diffs = diffs
        self.aug = tuple(int(a) for a in augmentation)
        self.label = label
        self._down: dict[int, list[dict[int, int]]] = {}
        self._hcache: dict = {}  # homology-side caches, see tate module

    @property
    def depth(self) -> int:
        return len(self.ranks) - 1

    def rank(self, k: int) -> int:
        return self.ranks[check_degree(k, 0, self.depth, "degree")]

    def differential(self, k: int) -> ZGMatrix:
        check_degree(k, 1, self.depth, "differential degree")
        return self.diffs[k - 1]

    def _map(self, k: int) -> ZGMatrix:
        """d_k as held, whether or not its certificate has run yet."""
        return self.diffs[k - 1]

    def _certify(self, k: int) -> None:
        """The one certificate of d_k: eps o d_1 = 0, or d_{k-1} o d_k = 0.

        Both maps are read through ``_map``; a failure is ResolutionError.
        """
        d = self._map(k)
        if k == 1:
            for j, col in enumerate(d.augmented()):
                if sum(self.aug[i] * a for i, a in col.items()):
                    raise ResolutionError("augmentation does not kill "
                                          f"differential 1 (column {j})")
        elif not self._map(k - 1).compose(d).is_zero():
            raise ResolutionError("differentials do not compose to zero "
                                  f"at degree {k}")

    def truncated(self, k: int) -> "Resolution":
        """The k-skeleton: degrees 0..k, sharing this resolution's maps.

        Each map is read through ``differential``, which returns only
        certified immutable maps, so the view does not check them again.
        """
        if check_degree(k, 0, self.depth, "truncation degree") == self.depth:
            return self
        view = Resolution.__new__(Resolution)
        view._fill(self.group, self.ranks[:k + 1],
                   tuple(self.differential(j) for j in range(1, k + 1)),
                   self.aug, f"{self.label}<={k}")
        return view

    def apply_differential(self, k: int, vec: Mapping[int, GroupRingElement]
                           ) -> dict[int, GroupRingElement]:
        return self.differential(k).apply(vec)

    def down_matrix(self, k: int) -> list[dict[int, int]]:
        """D_k, the differential d_k of the tensored-down complex P (x)_{Z[G]} Z.

        Tensoring with the trivial module replaces each group-ring entry by
        its augmentation; ranks are unchanged.  D_k is returned as sparse
        integer columns, one {row: augmentation} dict per basis vector of
        P_k with its zero entries left out, which is the input format of
        the sparse eliminator in ``intlinalg``.  It has ranks[k - 1] rows.
        Built once per degree and cached; callers must not mutate it.
        """
        cols = self._down.get(k)
        if cols is None:
            cols = self._down[k] = self.differential(k).augmented()
        return cols

    def down_boundary(self, k: int, vec: Sequence[int]) -> list[int]:
        """D_k applied to an integer vector of the degree-k down complex."""
        d = self.differential(k)  # names a bad k that hashes as a good one
        cols = self.down_matrix(k)
        out = [0] * d.nrows
        for col, c in zip(cols, check_vector(vec, d.ncols, f"vector of D_{k}")):
            if c:
                for i, a in col.items():
                    out[i] += c * a
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Resolution):
            return NotImplemented
        return (self.group == other.group and self.ranks == other.ranks
                and self.aug == other.aug
                and all(self.differential(k) == other.differential(k)
                        for k in range(1, self.depth + 1)))

    def __hash__(self) -> int:
        # coarse but consistent with __eq__ (differentials left out)
        return hash((self.group, self.ranks, self.aug))

    def __repr__(self) -> str:
        return (f"Resolution({self.label!r}, {self.group.label}, "
                f"depth={self.depth}, ranks={list(self.ranks)})")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "ranks": list(self.ranks),
            "differentials": [self.differential(k).dense_rows()
                              for k in range(1, self.depth + 1)],
            "augmentation": list(self.aug),
        }

    def save(self, path: str) -> None:
        write_atomically(path, json.dumps(self.to_json(), sort_keys=True,
                                          separators=(",", ":")) + "\n")

    @classmethod
    def from_json(cls, obj: dict, label: str = "loaded") -> "Resolution":
        if not isinstance(obj, dict):
            raise SchemaError("resolution JSON must be an object")
        for key in ("group", "ranks", "differentials", "augmentation"):
            if key not in obj:
                raise SchemaError(f"resolution JSON is missing {key!r}")
        group = build_group(obj["group"])
        ranks = _int_list(obj["ranks"], "resolution 'ranks'")
        if any(r < 0 for r in ranks):
            raise SchemaError("resolution 'ranks' must be nonnegative")
        aug = _int_list(obj["augmentation"], "resolution 'augmentation'")
        raw = _list(obj["differentials"], "resolution 'differentials'")
        if len(raw) != len(ranks) - 1:
            raise SchemaError("differential count does not match ranks")
        # shapes first, so the file's own lists bound each rank before
        # anything of that size is built
        for k, rows in enumerate(raw, start=1):
            if len(_list(rows, f"differential {k}")) != ranks[k - 1]:
                raise SchemaError(f"differential {k} has wrong row count")
            for i, row in enumerate(rows):
                if len(_list(row, f"differential {k} row {i}")) != ranks[k]:
                    raise SchemaError(f"differential {k} row {i} has wrong length")
            if not rows and ranks[k] and k == len(raw):
                raise SchemaError(f"differential {k} has no rows to bound "
                                  f"its rank {ranks[k]}")
        diffs, order = [], group.order
        for k, rows in enumerate(raw, start=1):
            cols = [[] for _ in range(ranks[k])]
            for i, row in enumerate(rows):
                for j, coeffs in enumerate(row):
                    what = f"differential {k} entry ({i},{j})"
                    if len(_int_list(coeffs, what)) != order:
                        raise SchemaError(
                            f"{what} has {len(coeffs)} coefficients, "
                            f"expected {order}")
                    cols[j].extend((i * order, h, c)
                                   for h, c in enumerate(coeffs) if c)
            diffs.append(ZGMatrix._of_triples(group, ranks[k - 1],
                                              [tuple(c) for c in cols]))
        return cls(group, ranks, diffs, aug, label=label)


def load_resolution(path: str, max_zrank: int | None = None) -> Resolution:
    """Load and fully validate a resolution file.

    Validation failures are load errors: the constructor rejects a file
    that breaks d o d = 0 or eps o d_1 = 0, and ``validate_resolution`` one
    whose eps is not onto or that fails the exactness certificate at some
    degree.
    """
    obj = _read_json(path)
    try:
        res = Resolution.from_json(obj, label=os.path.basename(path))
    except ResolutionError as e:
        raise ResolutionError(f"{path}: {e}") from e
    report = validate_resolution(res, max_zrank=max_zrank)
    if not report.passed:
        raise ResolutionError(f"{path}: {report.first_failure}")
    return res


class ValidationReport:
    """Outcome of validate_resolution: one named pass/fail line per check."""

    __slots__ = ("checks",)

    def __init__(self):
        self.checks: list[dict] = []

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed),
                            "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    @property
    def first_failure(self) -> str:
        for c in self.checks:
            if not c["passed"]:
                return f"{c['name']}: {c['detail'] or 'failed'}"
        return ""

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": self.checks}

    def __repr__(self) -> str:
        good = sum(1 for c in self.checks if c["passed"])
        return f"ValidationReport({good}/{len(self.checks)} passed)"


def validate_resolution(res: Resolution,
                        max_zrank: int | None = None) -> ValidationReport:
    """Certify the resolution invariants degree by degree.

    Every differential a caller reads passed d o d = 0 and eps o d_1 = 0
    (``Resolution._certify``); the report lists them as passed.  This adds
    that eps is onto (entry gcd 1) and that

        ... -> P_1 -> P_0 -> Z -> 0

    is exact, certified on the integer expansion in one walk up the
    degrees: with z(d_0) = eps, of rank 1 unless eps = 0, degree k - 1 is
    exact when rank z(d_{k-1}) + rank z(d_k) = |G| r_{k-1} and all invariant
    factors of z(d_k) are 1.  Equal ranks make the image a finite-index
    sublattice of the kernel and unit factors make it saturated, so
    together they force image = kernel exactly.  Each z(d_k) is read without
    its rows that are pivot columns of z(d_{k-1}), as D_k is in the ``tate``
    module (the argument is in ``intlinalg.sparse_invariant_factors``).
    """
    report = ValidationReport()
    G = res.group
    order = G.order
    check_zrank(G, res.ranks, max_zrank, what="resolution validation")

    # every map read through differential() passed these (the constructor
    # proved them, or a join proves each on its first read), and the walk
    # below reads every d_k, so a map that fails raises before the report
    # is returned; a truncated view shares maps that were already certified
    report.record("eps o d_1 = 0", True)
    for k in range(2, res.depth + 1):
        report.record(f"d_{k - 1} o d_{k} = 0", True)

    # augmentation onto Z
    g = math.gcd(*res.aug)
    report.record("augmentation onto Z", g == 1,
                  "" if g == 1 else f"gcd of augmentation entries is {g}")

    # exactness at degree k - 1, once z(d_k) is known
    # rank and pivot columns of z(d_{k-1}), starting from eps
    rank_below, below = int(any(res.aug)), []
    for k in range(1, res.depth + 1):
        middle = res.ranks[k - 1] * order
        rank, nontrivial, below = sparse_invariant_factors(
            res.differential(k).z_columns(), middle, below)
        detail = ""
        if rank_below + rank != middle:
            detail = (f"rank z(d_{k - 1}) + rank z(d_{k}) = "
                      f"{rank_below} + {rank} != {middle}")
        elif nontrivial:
            detail = (f"nonunit invariant factors "
                      f"{', '.join(map(str, nontrivial))} of z(d_{k})")
        report.record(f"exact at degree {k - 1}", not detail, detail)
        rank_below = rank
    return report


# -- constructors -------------------------------------------------------------

def periodic_cyclic_resolution(m: int, n: int) -> Resolution:
    """The two-periodic rank-1 resolution of Z over Z[C_m].

    d_k = t - 1 for odd k and the norm for even k; exact because multiples
    of the norm are exactly the elements killed by t - 1 and vice versa.
    """
    check_degree(m, 2, math.inf, "periodic resolution's cyclic order")
    check_degree(n, 0, math.inf, "depth")
    G = build_group(f"cyclic:{m}")
    t_minus_1 = (GroupRingElement.basis(G, 1)
                 - GroupRingElement.one(G))
    norm = GroupRingElement(G, (1,) * m)
    diffs = [ZGMatrix(G, 1, [{0: t_minus_1 if k % 2 == 1 else norm}])
             for k in range(1, n + 1)]
    return Resolution(G, [1] * (n + 1), diffs, [1], label=f"periodic(C{m})")


def bar_resolution(group: FiniteGroup, n: int,
                   max_zrank: int | None = None) -> Resolution:
    """The normalized bar resolution to depth n: rank (|G|-1)^k in degree k.

    Degree-k basis elements are the k-tuples of nonidentity group elements
    [g_1|...|g_k], ordered lexicographically.  The boundary is

        d[g_1|...|g_k] = g_1 [g_2|...|g_k]
                         + sum_i (-1)^i [g_1|...|g_i g_{i+1}|...|g_k]
                         + (-1)^k [g_1|...|g_{k-1}]

    with any bracket containing the identity dropped (the normalization).
    """
    check_degree(n, 0, math.inf, "depth")
    w = group.order
    ranks = [(w - 1) ** k for k in range(n + 1)]
    check_zrank(group, ranks, max_zrank, what=f"bar resolution of {group.label}")

    def tuple_index(tup):
        # lexicographic rank of a tuple of nonidentity elements
        idx = 0
        for g in tup:
            idx = idx * (w - 1) + (g - 1)
        return idx

    # The faces [..|g_i g_{i+1}|..] and [g_1|..|g_{k-1}] of a tuple are
    # distinct rows (where two first differ, one has g_i g_{i+1}, one g_i);
    # only g_1 [g_2|..|g_k], touched first, can share a row with one.
    diffs = []
    for k in range(1, n + 1):
        cols = []
        for tup in itertools.product(range(1, w), repeat=k):  # lexicographic
            faces, sign = {}, -1
            for i in range(k - 1):
                merged = group.table[tup[i]][tup[i + 1]]
                if merged != 0:
                    faces[tuple_index(tup[:i] + (merged,) + tup[i + 2:])] = sign
                sign = -sign
            faces[tuple_index(tup[:-1])] = sign
            first = tuple_index(tup[1:])
            shared = faces.pop(first, 0)
            head = ((first * w, 0, shared),) if shared else ()
            cols.append(head + ((first * w, tup[0], 1),)
                        + tuple((row * w, 0, c) for row, c in faces.items()))
        diffs.append(ZGMatrix._of_triples(group, ranks[k - 1], cols))
    return Resolution(group, ranks, diffs, [1], label=f"bar({group.label})")


def syzygy_resolution(group: FiniteGroup, n: int,
                      max_zrank: int | None = None) -> Resolution:
    """A computed low-rank resolution: each differential covers the previous kernel.

    Degree k+1 generators are found by greedily accumulating group orbits
    of a kernel basis of the expanded d_k (largest first) until they cover
    the kernel lattice K, as equal reduced echelon bases certify.
    Reverse-delete keeps a generator when an F_2 rank deficit of the rest
    proves it needed (K is saturated), drops it only when exact bases show
    the rest span K, then checks the survivors' basis against K's.  Covering
    K, not merely a finite-index sublattice, is exactly degreewise
    exactness, so the result passes the same certificate as any other
    resolution.  Generator counts are not guaranteed minimal, only small.
    """
    check_degree(n, 0, math.inf, "depth")
    order = group.order
    ranks = [1]
    diffs: list[ZGMatrix] = []
    # kernel of eps on z-coordinates: the augmentation ideal
    z_cols, z_rows = [{0: 1} for _ in range(order)], 1
    for k in range(1, n + 1):
        d = _cover_kernel_with_orbits(group, z_cols, z_rows, ranks[k - 1])
        check_zrank(group, [max(d.ncols, 1)], max_zrank,
                    what=f"computed resolution of {group.label} at degree {k}")
        ranks.append(d.ncols)
        diffs.append(d)
        z_cols, z_rows = d.z_columns(), ranks[k - 1] * order
    return Resolution(group, ranks, diffs, [1],
                      label=f"computed({group.label})")


def _cover_kernel_with_orbits(group: FiniteGroup, z_cols: list[dict[int, int]],
                              nrows: int, rank_above: int) -> ZGMatrix:
    """Module generators for the kernel of a Z[G]-map given by its z-expansion.

    z_cols are the sparse integer columns of the expansion (rank_above * |G|
    of them) and nrows its row count.  Returns the next differential: a
    matrix with rank_above rows whose columns' orbits span the integer
    kernel lattice K exactly.  Certificates: the greedy basis equals K's; a
    generator is kept on an F_2 rank deficit of the rest (K is saturated, so
    dim K (x) F_2 = rank K) or unequal exact bases; survivors span K.
    """
    order = group.order
    # ``full`` holds the reduced echelon basis of the kernel lattice.  That
    # basis is unique for the lattice (see IntegerLattice), so it does not
    # depend on the kernel basis that fed it, and it keeps candidate entries
    # small where raw Hermite kernel vectors compound in size from one
    # degree to the next.  The kernel is G-stable, so group translates of
    # its basis would add nothing.
    full = IntegerLattice()
    for v in kernel_basis(z_cols, nrows):
        full.add(v)
    dense = [[full.rows[j].get(i, 0) for i in range(len(z_cols))]
             for j in sorted(full.rows)]
    # Echelon reduction alone cannot bound entries away from the pivot
    # columns; LLL can, and keeps generators small at every degree.
    dense = lll_reduce_rows(dense)
    dense.sort(key=lambda v: (max(abs(x) for x in v),
                              sum(1 for x in v if x), v))
    # a kernel vector in (i, u) order is a stored column verbatim
    candidates = ZGMatrix._of_triples(group, rank_above, [
        tuple((k - k % order, k % order, v) for k, v in enumerate(flat) if v)
        for flat in dense])
    # column (t, g) of the expansion is g times candidate t, so block t is
    # the orbit of candidate t; orbits[t][0] is the candidate itself
    z = candidates.z_columns()
    orbits = [z[t * order:(t + 1) * order] for t in range(len(dense))]
    masks = [[sum(1 << i for i, x in vec.items() if x & 1) for vec in orbit]
             for orbit in orbits]
    pivots = sorted(full.rows)
    orbit_rank = [_orbit_rank(o, m, pivots) for o, m in zip(orbits, masks)]
    order_pref = sorted(range(len(orbits)),
                        key=lambda t: (-orbit_rank[t], t))
    chosen: list[int] = []
    lat = IntegerLattice()
    for t in order_pref:
        if not lat.contains(orbits[t][0]):
            chosen.append(t)
            for vec in orbits[t]:
                lat.add(vec)
    # orbits stay in K, and equal reduced echelon bases are equal lattices;
    # the greedy lattice holds every candidate, a basis of K
    if lat.rows != full.rows:
        raise InternalCheckError("orbit cover missed part of the kernel lattice")
    survivors: list[int] = []
    for i, t in enumerate(chosen):
        rest = survivors + chosen[i + 1:]
        if not _spans_kernel(full, orbits, rest,
                             f2_rank(m for u in rest for m in masks[u])):
            survivors.append(t)
    # rebuilt here, not through _spans_kernel, so that a fault in the drop
    # test cannot pass its own certificate
    if survivors != chosen:
        lat = IntegerLattice()
        for vec in (vec for t in survivors for vec in orbits[t]):
            lat.add(vec)
        if lat.rows != full.rows:
            raise InternalCheckError(
                "reverse-delete dropped part of the kernel lattice")
    return ZGMatrix._of_triples(
        group, rank_above, [candidates.triples(t) for t in sorted(survivors)])


def _orbit_rank(orbit: list[dict[int, int]], masks: list[int],
                pivots: list[int]) -> int:
    """An orbit's rank: rank mod 2 <= rank <= min(|G|, rank K) often meet;
    else Bareiss on K's pivot columns, onto which K's span projects 1-1."""
    low = f2_rank(masks)
    if low == min(len(orbit), len(pivots)):
        return low
    return _rank_and_minor(IntMatrix(
        [[v.get(j, 0) for j in pivots] for v in orbit]))[0]


def _spans_kernel(full: IntegerLattice, orbits: list[list[dict[int, int]]],
                  idxs: list[int], rank2: int) -> bool:
    """Whether the orbits of idxs, of rank rank2 mod 2, span K: never when
    rank2 < rank K = dim K (x) F_2, else when their echelon bases agree."""
    if rank2 < full.rank:
        return False
    lat = IntegerLattice()
    for vec in (vec for t in idxs for vec in orbits[t]):
        lat.add(vec)
    return lat.rows == full.rows


# -- the join -----------------------------------------------------------------

# Basis index convention for (P*Q)_d: tuples (k, i, g, j) denoting the free
# basis vector e_i (x) g.f_j of the summand P_{k-1} (x) Q_{d-k}.  The Z
# factors use placeholder index -1 and identity g: (0, -1, 0, j) is the
# basis of Z (x) Q_d, and (d+1, i, 0, -1) the basis of P_d (x) Z.

def _rank_within(R: Resolution, k: int) -> int:
    """rank R_k, or 0 beyond R's depth, where a truncated factor has none."""
    return R.ranks[k] if k <= R.depth else 0


def _join_basis(P: Resolution, Q: Resolution, d: int) -> list[tuple]:
    order = P.group.order
    basis = []
    for j in range(_rank_within(Q, d)):
        basis.append((0, -1, 0, j))
    for k in range(1, d + 1):
        for i in range(_rank_within(P, k - 1)):
            for g in range(order):
                for j in range(_rank_within(Q, d - k)):
                    basis.append((k, i, g, j))
    for i in range(_rank_within(P, d)):
        basis.append((d + 1, i, 0, -1))
    return basis


def join_rank(P: Resolution, Q: Resolution, d: int) -> int:
    """rank (P*Q)_d = sum over summands, |G| wide except at the two Z ends."""
    order = P.group.order
    total = _rank_within(Q, d) + _rank_within(P, d)
    for k in range(1, d + 1):
        total += _rank_within(P, k - 1) * order * _rank_within(Q, d - k)
    return total


class JoinResolution(Resolution):
    """A join P*Q packaged as a Resolution, remembering its factors and bases.

    ``join`` certifies the ranks and basis sizes up front.  Each
    differential d_k is built on its first read by ``_join_differential``
    and certified at that read by ``Resolution._certify``, against d_{k-1}
    as already certified or else built raw for the check; a failure raises
    InternalCheckError on every read of d_k.  So no caller reads an
    uncertified map, and a degree no caller reads is never built.
    """

    __slots__ = ("P", "Q", "bases", "index", "_raw")

    def __init__(self, P: Resolution, Q: Resolution, ranks, aug, bases,
                 index):
        self.P = P
        self.Q = Q
        self.bases = bases
        self.index = index
        self._fill(P.group, ranks, [None] * (len(ranks) - 1), aug,
                   f"join({P.label},{Q.label})")
        self._raw: dict[int, ZGMatrix] = {}  # built, not yet certified

    def differential(self, k: int) -> ZGMatrix:
        check_degree(k, 1, self.depth, "differential degree")
        if self.diffs[k - 1] is None:
            try:
                self._certify(k)
            except ResolutionError as e:
                # a broken join differential is a bug in the sign
                # bookkeeping, not a property of user input
                raise InternalCheckError(f"join construction: {e}") from e
            self.diffs[k - 1] = self._raw.pop(k)
        return self.diffs[k - 1]

    def _map(self, k: int) -> ZGMatrix:
        if self.diffs[k - 1] is not None:
            return self.diffs[k - 1]
        if k not in self._raw:
            self._raw[k] = _join_differential(self, k)
        return self._raw[k]


def join(P: Resolution, Q: Resolution, n: int,
         max_zrank: int | None = None) -> JoinResolution:
    """The join resolution P*Q through degree n.

    Requires P and Q to be resolutions of the same group with
    n <= depth P + depth Q + 1, the degree below which the join is exact;
    a summand beyond either factor's depth is left out.  Every rank is
    charged to the size budget and checked against its basis here; each
    differential is built and certified on its first read (see
    ``JoinResolution``).  The suspension sign convention and the untwisting
    convention are fixed in ``_join_differential`` once; the d o d = 0
    certificate of each read guards both.
    """
    if P.group != Q.group:
        raise ResolutionError("join factors must resolve the same group")
    check_degree(n, 0, P.depth + Q.depth + 1, "join degree")
    G = P.group
    ranks = [join_rank(P, Q, d) for d in range(n + 1)]
    check_zrank(G, ranks, max_zrank, what=f"join of {P.label} and {Q.label}")
    bases = [_join_basis(P, Q, d) for d in range(n + 1)]
    for d in range(n + 1):
        if len(bases[d]) != ranks[d]:
            raise InternalCheckError(f"join basis in degree {d} disagrees "
                                     "with the rank formula")
    index = [{key: c for c, key in enumerate(b)} for b in bases]
    aug = [Q.aug[j] for j in range(Q.rank(0))] + [P.aug[i] for i in range(P.rank(0))]
    return JoinResolution(P, Q, ranks, aug, bases, index)


def _join_differential(J: JoinResolution, d: int) -> ZGMatrix:
    """d_d of the join J, built raw from its factors' maps and bases."""
    P, Q, G = J.P, J.Q, J.group
    order, inv, table = G.order, G.inverse, G.table
    tgt = J.index[d - 1]
    # No two terms below meet: the P and Q parts of a middle summand land in
    # different summands, and within a part distinct source triples go to
    # distinct (row, element).  So triples are emitted as they come.
    cols = []
    for k, i, g, j in J.bases[d]:
        col = []
        if k == 0:
            # bottom summand Z (x) Q_d: the Q differential verbatim
            col.extend((tgt[0, -1, 0, base // order] * order, v, beta)
                       for base, v, beta in Q.differential(d).triples(j))
        elif k == d + 1:
            # top summand P_d (x) Z: the P differential verbatim
            col.extend((tgt[d, base // order, 0, -1] * order, u, alpha)
                       for base, u, alpha in P.differential(d).triples(i))
        else:
            # middle summand P_{k-1} (x) Q_{d-k}, basis e_i (x) g.f_j
            if k >= 2:
                # u.e_ip (x) g.f_j = u.(e_ip (x) u^{-1}g.f_j)
                col.extend(
                    (tgt[k - 1, base // order, table[inv[u]][g], j] * order,
                     u, alpha)
                    for base, u, alpha in P.differential(k - 1).triples(i))
            elif P.aug[i]:
                # P-degree 0: boundary into the Z factor via eps
                col.append((tgt[0, -1, 0, j] * order, g, P.aug[i]))
            sign = -1 if k % 2 else 1  # suspension sign (-1)^k
            if d - k >= 1:
                # e_i (x) g.(v.f_jp) stays in summand k
                col.extend(
                    (tgt[k, i, table[g][v], base // order] * order, 0,
                     sign * beta)
                    for base, v, beta in Q.differential(d - k).triples(j))
            elif Q.aug[j]:
                # Q-degree 0: eps of the second factor, into P_{k-1} (x) Z
                col.append((tgt[d, i, 0, -1] * order, 0, sign * Q.aug[j]))
        cols.append(tuple(col))
    return ZGMatrix._of_triples(G, J.ranks[d - 1], cols)


def include_cycle_tensor(J: JoinResolution, x: Mapping[int, GroupRingElement],
                         n: int, y: Mapping[int, GroupRingElement],
                         m: int) -> dict[int, GroupRingElement]:
    """The chain x (x) y in degree n+m+1 of the join.

    x is a chain of P_n, y one of Q_m.  Untwisting u.e_i (x) v.f_j =
    u.(e_i (x) u^{-1}v.f_j) places coefficient a_u b_v, as a multiple of the
    group element u, on basis (n+1, i, u^{-1}v, j).  For fixed i and j the
    pairs (u, v) land on distinct (basis, u), so no two terms meet and every
    row that gets a term is nonzero.
    """
    P, Q, G = J.P, J.Q, J.group
    for what, vec, rank in (("first", x, P.rank(n)), ("second", y, Q.rank(m))):
        if not isinstance(vec, Mapping):
            raise ResolutionError(f"{what} tensor factor is not a chain, a "
                                  f"mapping {{index: element}}")
        if any(not 0 <= i < rank for i in vec):
            raise ResolutionError(f"{what} tensor factor has an index "
                                  f"outside its rank {rank}")
    d = check_degree(n + m + 1, 0, J.depth, "degree of x (x) y")
    order, table, inv, idx = G.order, G.table, G.inverse, J.index[d]
    return _elements(G, [
        (idx[n + 1, i, table[inv[u]][v], j] * order, u, av * bv)
        for i, a in x.items() for u, av in a.support()
        for j, b in y.items() for v, bv in b.support()])
