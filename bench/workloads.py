"""The three workloads: their queries, set-up, pinned answers and deadlines.

Every query builds what it needs from scratch (or from a fresh
``Resolution.from_json`` copy), so no homology, join or lift cached by one
query is seen by the next: a ``Resolution`` caches homology in itself, and a
reused object would hide the classify cost.

Pinned answers are the ones the ROADMAP says must never change: invariant
factors, computed-resolution ranks, the class order of every product entry,
agreement of the two product pipelines and validation verdicts.  Generator
cycles and class coordinates are a choice of basis and are not pinned.

The seed picks only the random cycles and the query order.  Groups are
always built with their fixed element labelling: relabelling changes the
computed ranks and the run time.

Deadlines are about five times the query's time at the seed commit and
never under 2 s, so a slow spell of a shared machine does not trip them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import tatejoin as tj
from tatejoin import cli


class Drift(Exception):
    """A pinned answer changed or a cross-check between two paths failed."""


class Skipped(Exception):
    """A query could not run because one it depends on failed in this pass."""


class Query:
    """One closed-loop request: ``fn(state, rng)`` returns the answer."""

    __slots__ = ("name", "deadline_s", "fn", "pin", "known_failure")

    def __init__(self, name, deadline_s, fn, pin, known_failure=None):
        self.name = name
        self.deadline_s = deadline_s
        self.fn = fn
        self.pin = pin
        self.known_failure = known_failure


def c2_cubed() -> tj.FiniteGroup:
    return tj.from_permutations(
        6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]],
        label="C2^3")


def q8_fixture_path() -> str:
    return os.path.join(os.path.dirname(tj.__file__), "fixtures",
                        "q8_periodic.json")


def factors(res, degrees) -> list[list[int]]:
    return [list(tj.homology(res, n).invariant_factors) for n in degrees]


def check_class_order(res, degree: int, coords) -> None:
    h = tj.homology(res, degree)
    order = h.class_order(coords)
    if order and h.exponent and h.exponent % order:
        raise Drift(f"class order {order} does not divide the exponent "
                    f"{h.exponent} of H_{degree}")


# -- bar-homology -------------------------------------------------------------

def cli_homology(argv) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise Drift(f"tatejoin {' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def q_cli_bar(state, rng):
    doc = cli_homology(["homology", "--group", "cyclic:5", "--resolution",
                        "bar", "--degrees", "1..4"])
    for rec in doc:
        if len(rec["generators"]) != len(rec["invariant_factors"]):
            raise Drift(f"degree {rec['degree']}: one generator per factor")
    return [rec["invariant_factors"] for rec in doc]


def q_bar_factors(state, rng):
    return factors(tj.bar_resolution(tj.cyclic(5), 6), range(1, 6))


def phi_round_trip(group, n: int, cycles: int):
    def fn(state, rng):
        res = tj.bar_resolution(group, n + 1)
        h = tj.homology(res, n)
        for _ in range(cycles):
            z = tj.random_cycle(res, n, rng)
            x = tj.phi_inverse(res, n, z)
            direct, solved, cls = tj.phi(x), tj.phi(x, via_solver=True), \
                h.classify(z)
            if not direct == solved == cls:
                raise Drift(f"phi round trip in degree {n}: {direct}, "
                            f"{solved}, {cls}")
            check_class_order(res, n, cls)
        return list(h.invariant_factors)
    return fn


def bar_warmup(state) -> None:
    cli_homology(["homology", "--group", "cyclic:3", "--resolution", "bar",
                  "--degrees", "1..2"])
    phi_round_trip(tj.cyclic(3), 1, 1)(state, random.Random(0))


BAR_QUERIES = [
    Query("cli-homology-c5-bar-1..4", 20, q_cli_bar,
          [[5], [], [5], []]),
    Query("factors-c5-bar6-1..5", 12, q_bar_factors,
          [[5], [], [5], [], [5]]),
    Query("phi-c5-bar-deg1", 2, phi_round_trip(tj.cyclic(5), 1, 4), [5]),
    Query("phi-c5-bar-deg3", 2, phi_round_trip(tj.cyclic(5), 3, 4), [5]),
]

# -- resolve ------------------------------------------------------------------

# (name, group factory, depth, ranks, factors of H_1..H_{depth-1}, build deadline)
RESOLVE_CASES = [
    ("D4", lambda: tj.dihedral(4), 7, [1, 2, 3, 4, 5, 6, 7, 8],
     [[2, 2], [2], [2, 2, 4], [2, 2], [2, 2, 2, 2], [2, 2, 2]], 3),
    ("S3", lambda: tj.symmetric(3), 8, [1, 2, 3, 4, 5, 6, 6, 6, 6],
     [[2], [], [6], [], [2], [], [6]], 2),
    ("Q8", tj.quaternion8, 8, [1, 2, 2, 1, 1, 2, 2, 1, 1],
     [[2, 2], [], [8], [], [2, 2], [], [8]], 2),
    ("C2^3", c2_cubed, 4, [1, 3, 6, 10, 15],
     [[2, 2, 2], [2, 2, 2], [2, 2, 2, 2, 2, 2, 2]], 7),
    ("S4", lambda: tj.symmetric(4), 5, [1, 2, 3, 3, 3, 4],
     [[2], [2], [2, 12], [2]], 13),
]

S4_RELOAD_FAILURE = (
    "deadline: validate_resolution never finishes on the computed S4 "
    "resolution; the sparse eliminator leaves a 63x87 residual and dense "
    "smith_normal_form on it does not finish (entry growth)")

RELOAD_DEADLINE_S = 2


def resolution_path(state, name: str, depth: int) -> str:
    return os.path.join(state["tmpdir"], f"{name}-{depth}.json")


def build(name, group, depth):
    def fn(state, rng):
        path = resolution_path(state, name, depth)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)  # a reload must never read an earlier pass's file
        res = tj.syzygy_resolution(group(), depth)
        res.save(path)
        return list(res.ranks)
    return fn


def reload(name, depth):
    def fn(state, rng):
        path = resolution_path(state, name, depth)
        if not os.path.exists(path):
            raise Skipped(f"build-{name}-{depth} wrote no file in this pass")
        res = tj.load_resolution(path)
        return factors(res, range(1, depth))
    return fn


def resolve_warmup(state) -> None:
    build("warmup", lambda: tj.symmetric(3), 3)(state, None)
    reload("warmup", 3)(state, None)


RESOLVE_BUILDS = [
    Query(f"build-{name}-{depth}", deadline, build(name, group, depth), ranks)
    for name, group, depth, ranks, _, deadline in RESOLVE_CASES]
RESOLVE_RELOADS = [
    Query(f"reload-{name}-{depth}", RELOAD_DEADLINE_S, reload(name, depth),
          facs, S4_RELOAD_FAILURE if name == "S4" else None)
    for name, _, depth, _, facs, _ in RESOLVE_CASES]

# -- products -----------------------------------------------------------------


def fresh(state, name: str) -> tj.Resolution:
    return tj.Resolution.from_json(state["resolutions"][name], label=name)


def table(name, pairs):
    def fn(state, rng):
        res = fresh(state, name)
        t = tj.product_table(res, pairs)
        if not t.all_agree:
            raise Drift(f"{name}: the two product pipelines disagree")
        return [tj.homology(res, e["n"] + e["m"] + 1).class_order(e["join"])
                for e in t.entries]
    return fn


def random_products(name, n, m, count):
    def fn(state, rng):
        res = fresh(state, name)
        ctx = tj.ProductContext(res)
        for _ in range(count):
            za = tj.random_cycle(res, n, rng)
            zb = tj.random_cycle(res, m, rng)
            j = ctx.join_product(n, za, m, zb)
            c = ctx.composition_product(n, za, m, zb)
            if j != c:
                raise Drift(f"{name} {n}x{m}: join {j} != composition {c}")
            check_class_order(res, n + m + 1, j)
        return factors(res, (n, m, n + m + 1))
    return fn


def products_warmup(state) -> None:
    tj.product_table(tj.syzygy_resolution(tj.cyclic(3), 4), [(1, 1)])


def products_build(state) -> None:
    state["resolutions"] = {
        "D4": tj.syzygy_resolution(tj.dihedral(4), 9).to_json(),
        "S3": tj.syzygy_resolution(tj.symmetric(3), 10).to_json(),
        "Q8": tj.load_resolution(q8_fixture_path()).to_json(),
    }


PRODUCT_QUERIES = [
    Query("table-D4-3x3,2x5", 11, table("D4", [(3, 3), (2, 5)]),
          [1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]),
    Query("table-S3-3x3,3x5,1x7", 5, table("S3", [(3, 3), (3, 5), (1, 7)]),
          [6, 2, 2]),
    Query("table-Q8-3x3,1x5,3x4,4x3", 2,
          table("Q8", [(3, 3), (1, 5), (3, 4), (4, 3)]), [8, 1, 2, 2, 1]),
    Query("random-D4-3x3", 5, random_products("D4", 3, 3, 2),
          [[2, 2, 4], [2, 2, 4], [2, 2, 2, 2, 4]]),
    Query("random-S3-3x3", 3, random_products("S3", 3, 3, 2),
          [[6], [6], [6]]),
    Query("random-Q8-3x3", 2, random_products("Q8", 3, 3, 2),
          [[8], [8], [8]]),
]


class Workload:
    """Queries in passes: ``phases`` run in order, each shuffled by the seed.

    ``warmup`` is a small query through the same entry points, run once
    before timing; ``build`` (or None) makes the fixtures the queries copy.
    """

    __slots__ = ("phases", "warmup", "build", "exercised")

    def __init__(self, phases, warmup, build, exercised):
        self.phases = phases
        self.warmup = warmup
        self.build = build
        self.exercised = exercised

    @property
    def queries(self) -> list[Query]:
        return [q for phase in self.phases for q in phase]


# `exercised`: the spans each workload is meant to move (the per-layer table
# in NOTES.md).  The traced run fails its self-test if any records no call.
WORKLOADS = {
    "bar-homology": Workload(
        [BAR_QUERIES], bar_warmup, None,
        ["zglinalg.compose", "zglinalg.solve", "intlinalg.smith_tx",
         "intlinalg.sparse_factors", "resolutions.bar",
         "resolutions.down_matrix", "resolutions.init", "tate.homology",
         "tate.generators", "tate.classify", "cli.emit"]),
    # builds first: a reload reads the file its build wrote in this pass,
    # and is skipped if that build wrote none
    "resolve": Workload(
        [RESOLVE_BUILDS, RESOLVE_RELOADS], resolve_warmup, None,
        ["zglinalg.z_columns", "intlinalg.smith", "intlinalg.sparse_factors",
         "intlinalg.hermite", "intlinalg.lattice_add",
         "intlinalg.lattice_contains", "intlinalg.lll", "resolutions.init",
         "resolutions.syzygy", "resolutions.validate"]),
    "products": Workload(
        [PRODUCT_QUERIES], products_warmup, products_build,
        ["groups.ring_multiply", "zglinalg.compose", "zglinalg.column",
         "zglinalg.solve", "intlinalg.hermite", "intlinalg.hermite_solve",
         "resolutions.init", "resolutions.join", "tate.classify",
         "products.join_product", "products.composition_product",
         "products.g_lift", "products.lift_column"]),
}
