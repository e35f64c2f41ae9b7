"""End-to-end invariant suite: one named pass/fail line per check.

The battery cross-validates every layer against the others on a single
resolution: the exactness certificates, the norm-correspondence round trip,
and agreement of the two product pipelines on every feasible bidegree,
including stability of every answer under change of cycle representative.
The group laws and the join ranks are proved where they are built, by the
``FiniteGroup`` constructor and by ``join``, which raise on a failure; their
lines read those certificates.  Randomized sweeps draw from a seeded
generator so identical configs reproduce identical reports.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import SizeBudgetError
from .products import ProductContext
from .resolutions import ValidationReport, Resolution, validate_resolution
from .tate import (homology, is_stably_zero, phi, phi_inverse, random_cycle,
                   tate_group)


def _check_group_laws(rep: ValidationReport, group) -> None:
    # a FiniteGroup exists only after its constructor proved these: Latin
    # rows and columns, index 0 as identity and Light's associativity test
    # in _check_table, two-sided inverses in __init__
    rep.record("group:identity", True, f"order {group.order}")
    rep.record("group:inverses", True)
    rep.record("group:associativity", True, "Light's test on a generating set")


def _check_join_ranks(rep: ValidationReport, ctx: ProductContext,
                      pairs: Sequence[tuple[int, int]]) -> None:
    # join() proved every rank against join_rank and its basis size, and
    # raises InternalCheckError otherwise; the line reads that certificate
    if not pairs:
        rep.record("join:ranks", True,
                   "no feasible bidegrees at this depth; skipped")
        return
    J = ctx.join_for(pairs)
    rep.record("join:ranks", True,
               f"degrees 0..{J.depth} of P<={J.P.depth} * P<={J.Q.depth}")


def _check_phi(rep: ValidationReport, res: Resolution, rng,
               rounds: int) -> None:
    top = min(4, res.depth - 1)
    for n in range(1, top + 1):
        h = homology(res, n)
        cycles = list(h.generators)
        cycles += [random_cycle(res, n, rng) for _ in range(rounds)]
        bad = ""
        for z in cycles:
            cls = h.classify(z)
            x = phi_inverse(res, n, z)
            got = phi(x)
            slow = phi(x, via_solver=True)
            if got != cls or slow != cls:
                bad = f"class {cls}: phi gave {got}, solver path {slow}"
                break
            if is_stably_zero(x) != h.is_zero_class(cls):
                bad = f"class {cls}: is_stably_zero disagrees with classify"
                break
        rep.record(f"phi:round_trip[deg={n}]", not bad,
                   bad or f"{len(cycles)} cycles")


def _check_tate_degrees(rep: ValidationReport, res: Resolution) -> None:
    t = tate_group(res, -1)
    rep.record("tate:minus_one_vanishes",
               t.is_trivial and not t.invariant_factors)
    ok = True
    detail = ""
    for n in range(1, res.depth):
        if tate_group(res, -n - 1).invariant_factors != \
                homology(res, n).invariant_factors:
            ok = False
            detail = f"degree -{n + 1} disagrees with homology degree {n}"
            break
    rep.record("tate:degree_correspondence", ok,
               detail or f"degrees -2..-{res.depth}")


def _feasible_pairs(res: Resolution, max_zrank: int | None
                    ) -> list[tuple[int, int]]:
    """The bidegrees n, m >= 1 with n + m + 2 <= d, (d - 3)(d - 2)/2 at
    depth d >= 3; |G| per bidegree is charged to the budget before listing."""
    d, group = res.depth, res.group
    count = (d - 3) * (d - 2) // 2 if d >= 3 else 0
    needed = group.order * count
    if max_zrank is not None and needed > max_zrank:
        raise SizeBudgetError(
            f"verify at depth {d} checks {count} bidegrees and needs {needed} "
            f"(|{group.label}| = {group.order} x {count}), budget is "
            f"{max_zrank}", needed=needed, budget=max_zrank)
    return [(n, m) for n in range(1, d) for m in range(1, d - n - 1)]


def _add_classes(factors: Sequence[int], u: Sequence[int],
                 v: Sequence[int]) -> tuple[int, ...]:
    out = []
    for f, a, b in zip(factors, u, v):
        s = a + b
        if f:
            s %= f
        out.append(s)
    return tuple(out)


def _check_products(rep: ValidationReport, ctx: ProductContext,
                    pairs: Sequence[tuple[int, int]], rng,
                    rounds: int) -> None:
    res = ctx.P
    if not pairs:
        rep.record("products:pipeline_agreement", True,
                   "no feasible bidegrees at this depth; skipped")
        return
    entries = ctx.table(pairs)
    for n, m in pairs:
        block = [e for e in entries if (e["n"], e["m"]) == (n, m)]
        bad = next((e for e in block if not e["agree"]), None)
        rep.record(f"products:pipeline_agreement[{n}x{m}]", bad is None,
                   f"{len(block)} generator pairs" if bad is None else
                   f"join {tuple(bad['join'])} != "
                   f"composition {tuple(bad['composition'])}")

    # representative independence and bilinearity on the first bidegree
    # with a nontrivial source, the first with a table entry; boundaries
    # come from the seeded generator
    target = next(((e["n"], e["m"]) for e in entries), None)
    if target is None:
        rep.record("products:representative_independence", True,
                   "all homology trivial in range; skipped")
        rep.record("products:bilinearity", True,
                   "all homology trivial in range; skipped")
        return
    n, m = target
    za = homology(res, n).generators[0]
    zb = homology(res, m).generators[0]
    base_j = ctx.join_product(n, za, m, zb)
    base_c = ctx.composition_product(n, za, m, zb)
    ok = True
    detail = f"bidegree {n}x{m}, {rounds} perturbations per side"
    for _ in range(rounds):
        ba = res.down_boundary(
            n + 1, [rng.randrange(-3, 4) for _ in range(res.ranks[n + 1])])
        bb = res.down_boundary(
            m + 1, [rng.randrange(-3, 4) for _ in range(res.ranks[m + 1])])
        za2 = [a + b for a, b in zip(za, ba)]
        zb2 = [a + b for a, b in zip(zb, bb)]
        if ctx.join_product(n, za2, m, zb2) != base_j or \
                ctx.composition_product(n, za2, m, zb2) != base_c:
            ok = False
            detail = f"bidegree {n}x{m}: class moved under a boundary shift"
            break
    rep.record("products:representative_independence", ok, detail)

    h_out = homology(res, n + m + 1)
    ok = True
    detail = f"bidegree {n}x{m}, {rounds} random cycle pairs"
    for _ in range(rounds):
        z1 = random_cycle(res, n, rng)
        z2 = random_cycle(res, n, rng)
        zs = [a + b for a, b in zip(z1, z2)]
        lhs = ctx.join_product(n, zs, m, zb)
        rhs = _add_classes(h_out.invariant_factors,
                           ctx.join_product(n, z1, m, zb),
                           ctx.join_product(n, z2, m, zb))
        if lhs != rhs:
            ok = False
            detail = f"bidegree {n}x{m}: {lhs} != {rhs}"
            break
    rep.record("products:bilinearity", ok, detail)


def run_verify(res: Resolution, seed: int = 0, rounds: int = 5,
               max_zrank: int | None = None) -> ValidationReport:
    """Run the whole invariant battery on one resolution.

    Returns a report with one named check per line; report.passed is the
    overall verdict.  Deterministic for a fixed (resolution, seed, rounds).
    Before any work, |G| per bidegree checked is charged to max_zrank.
    """
    pairs = _feasible_pairs(res, max_zrank)
    rng = random.Random(seed)
    rep = ValidationReport()
    _check_group_laws(rep, res.group)
    inner = validate_resolution(res, max_zrank=max_zrank)
    for c in inner.checks:
        rep.record(f"resolution:{c['name']}", c["passed"], c["detail"])
    ctx = ProductContext(res, max_zrank=max_zrank)
    _check_join_ranks(rep, ctx, pairs)
    _check_phi(rep, res, rng, rounds)
    _check_tate_degrees(rep, res)
    _check_products(rep, ctx, pairs, rng, rounds)
    return rep
