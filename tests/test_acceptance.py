"""Acceptance suite: one test per headline correctness claim.

All assertions are exact (integer arithmetic, zero tolerance).  Each test
prints a single PASS line with its measured wall time; expected budgets are
noted in the line but not asserted, so a slow machine cannot turn a correct
run red.  Run with -rP (or -s) to see the lines for passing tests.
"""

import ast
import glob
import os
import random
import time

from tatejoin import (ComparisonLift, IntMatrix, ProductContext, ZERO,
                      bar_resolution, composition_product, cyclic, dihedral,
                      homology, is_stably_zero, join_product, load_resolution,
                      periodic_cyclic_resolution, phi, phi_inverse,
                      product_table, quaternion8, random_cycle, run_verify,
                      smith_normal_form, symmetric, syzygy_resolution,
                      tate_group, trivial)
import tatejoin.resolutions
from oracles import chain_map_failure, minor_gcd_invariant_factors

FIXTURE = os.path.join(os.path.dirname(tatejoin.resolutions.__file__),
                       "fixtures", "q8_periodic.json")


def all_test_groups():
    return [trivial(), cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6),
            symmetric(3), dihedral(4), quaternion8()]


def test_cyclic_homology_pattern():
    # H_n(C_m) is Z/m for odd n and 0 for even n, on both resolution kinds
    t0 = time.perf_counter()
    for m in range(2, 7):
        res = periodic_cyclic_resolution(m, 6)
        for n in range(1, 6):
            want = [m] if n % 2 else []
            assert homology(res, n).invariant_factors == want, (m, n)
    t_periodic = time.perf_counter() - t0
    t0 = time.perf_counter()
    for m in range(2, 7):
        res = bar_resolution(cyclic(m), 6)
        for n in range(1, 6):
            want = [m] if n % 2 else []
            assert homology(res, n).invariant_factors == want, (m, n)
    t_bar = time.perf_counter() - t0
    print(f"PASS cyclic homology pattern m=2..6 n=1..5: "
          f"periodic {t_periodic:.2f}s (expect <1s), "
          f"bar {t_bar:.2f}s (expect <30s)")


def test_degree_minus_one_vanishes():
    t0 = time.perf_counter()
    for g in all_test_groups():
        res = syzygy_resolution(g, 2)
        out = tate_group(res, -1)
        assert out is ZERO and out.is_trivial and out.order == 1, g.label
    print(f"PASS degree -1 group vanishes for all {len(all_test_groups())} "
          f"test groups: {time.perf_counter() - t0:.2f}s")


def test_cyclic_generator_products_generate():
    # product of generators is again a generator: maximal order in Z/m
    times = []
    for m in (2, 3, 4, 5):
        t0 = time.perf_counter()
        res = periodic_cyclic_resolution(m, 8)
        ctx = ProductContext(res)
        ctx.join_to(8)
        for n, md in ((1, 1), (1, 3), (3, 3)):
            a = homology(res, n).generators[0]
            b = homology(res, md).generators[0]
            out = ctx.join_product(n, a, md, b)
            h_out = homology(res, n + md + 1)
            assert h_out.invariant_factors == [m], (m, n, md)
            assert h_out.class_order(out) == m, (m, n, md, out)
        times.append(time.perf_counter() - t0)
    detail = ", ".join(f"C{m} {t:.2f}s" for m, t in zip((2, 3, 4, 5), times))
    print(f"PASS cyclic generator products have maximal order "
          f"(join to depth 8): {detail} (expect <10s each)")


def test_pipeline_equivalence():
    # join pipeline == composition pipeline on every generator pair with
    # output degree <= 7
    t0 = time.perf_counter()
    pairs = [(n, m) for n in range(1, 6) for m in range(1, 6) if n + m <= 6]
    resolutions = [periodic_cyclic_resolution(m, 8) for m in (2, 3, 4, 6)]
    resolutions += [syzygy_resolution(symmetric(3), 8),
                    syzygy_resolution(dihedral(4), 8)]
    checked = 0
    for res in resolutions:
        table = product_table(res, pairs)
        bad = [e for e in table.entries if not e["agree"]]
        assert not bad, (res.label, bad[:3])
        checked += len(table.entries)
    print(f"PASS pipeline equivalence on 6 groups, {checked} generator "
          f"pairs: {time.perf_counter() - t0:.2f}s (expect <300s)")


def test_q8_sphere_product_nontrivial():
    t0 = time.perf_counter()
    res = load_resolution(FIXTURE)
    h3 = homology(res, 3)
    h7 = homology(res, 7)
    assert h3.invariant_factors == [8]
    assert h7.invariant_factors == [8]
    g = h3.generators[0]
    out_join = join_product(res, 3, g, 3, g)
    out_comp = composition_product(res, 3, g, 3, g)
    assert out_join == out_comp
    assert any(out_join), "product of degree-3 generators vanished"
    order = h7.class_order(out_join)
    print(f"PASS Q8 fixture: H_3 x H_3 product nonzero in H_7 "
          f"(order {order}): {time.perf_counter() - t0:.2f}s (expect <30s)")


def test_norm_correspondence_round_trip():
    # classify(z) -> invariant cycle -> back, plus the kernel criterion,
    # on every generator and 100 random cycles per group at degrees 1..4
    t0 = time.perf_counter()
    resolutions = [periodic_cyclic_resolution(m, 5) for m in (2, 3, 4, 6)]
    resolutions += [syzygy_resolution(symmetric(3), 5),
                    syzygy_resolution(dihedral(4), 5),
                    syzygy_resolution(quaternion8(), 5)]
    rng = random.Random(20260816)
    checked = 0
    for res in resolutions:
        for n in range(1, 5):
            h = homology(res, n)
            cycles = list(h.generators)
            for _ in range(25):
                cycles.append(random_cycle(res, n, rng))
            for z in cycles:
                cls = h.classify(z)
                x = phi_inverse(res, n, z)
                assert phi(x) == cls, (res.label, n, z)
                assert is_stably_zero(x) == h.is_zero_class(cls)
                checked += 1
    print(f"PASS norm correspondence round trip on {checked} cycles "
          f"across 7 groups: {time.perf_counter() - t0:.2f}s")


def _transport(lift, k, vec):
    """Induced map of a comparison lift on the tensored-down complex."""
    return lift.transport_down(k, {j: c for j, c in enumerate(vec) if c})


def _cycle_of(h, coords, res):
    out = [0] * res.ranks[h.degree]
    for c, gen in zip(coords, h.generators):
        if c:
            out = [u + c * v for u, v in zip(out, gen)]
    return out


def test_structural_invariants_and_independence():
    t0 = time.perf_counter()
    # named certificate battery: exactness, join ranks, round trips,
    # bilinearity, representative independence, pipeline agreement
    for res in (periodic_cyclic_resolution(4, 7),
                syzygy_resolution(symmetric(3), 5)):
        report = run_verify(res, seed=3)
        assert report.passed, report.first_failure

    # resolution independence: the same product class comes out whether it
    # is computed over the bar resolution or the periodic one, once inputs
    # and outputs are carried across by comparison chain maps (each column
    # certified when lifted; the oracle re-checks exact commutation)
    for m in (3, 4):
        bar = bar_resolution(cyclic(m), 4)
        per = periodic_cyclic_resolution(m, 8)
        to_per, to_bar = ComparisonLift(bar, per), ComparisonLift(per, bar)
        assert not chain_map_failure(to_per, 4)
        assert not chain_map_failure(to_bar, 4)

        hb1, hb3 = homology(bar, 1), homology(bar, 3)
        hp1, hp3 = homology(per, 1), homology(per, 3)

        gen_b = hb1.generators[0]
        prod_b = join_product(bar, 1, gen_b, 1, gen_b)
        moved_prod = hp3.classify(_transport(to_per, 3,
                                             _cycle_of(hb3, prod_b, bar)))

        rep = _cycle_of(hp1, hp1.classify(_transport(to_per, 1, gen_b)), per)
        native = join_product(per, 1, rep, 1, rep)
        assert moved_prod == native, m
        assert hp3.class_order(native) == m

        # the two comparison maps invert each other on classes
        back = hb3.classify(_transport(to_bar, 3,
                                       _cycle_of(hp3, moved_prod, per)))
        assert back == prod_b, m
    print(f"PASS structural invariants and resolution independence: "
          f"{time.perf_counter() - t0:.2f}s")


def abelianization_factors(group):
    """Independent oracle: Z^G modulo <e_a + e_b - e_ab> is G made abelian."""
    w = group.order
    cols = []
    for a in range(w):
        for b in range(w):
            col = [0] * w
            col[a] += 1
            col[b] += 1
            col[group.mul(a, b)] -= 1
            cols.append(col)
    rel = IntMatrix([[cols[j][i] for j in range(len(cols))]
                     for i in range(w)], ncols=len(cols))
    dec = smith_normal_form(rel, transforms=False)
    return [d for d in dec.invariant_factors if d != 1]


def test_oracle_cross_checks():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(200):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        A = IntMatrix([[rng.randrange(-6, 7) for _ in range(nc)]
                       for _ in range(nr)], ncols=nc)
        fast = smith_normal_form(A, transforms=False).invariant_factors
        slow = minor_gcd_invariant_factors(A)
        assert fast == slow, (A.data, fast, slow)

    for g, want in ((symmetric(3), [2]), (dihedral(4), [2, 2]),
                    (quaternion8(), [2, 2])):
        res = syzygy_resolution(g, 2)
        got = homology(res, 1).invariant_factors
        oracle = abelianization_factors(g)
        assert got == oracle == want, (g.label, got, oracle)
    print(f"PASS oracle cross checks (200 random Smith forms, first "
          f"homology vs abelianization): {time.perf_counter() - t0:.2f}s")


def test_no_assert_statements_in_the_package():
    # certificates and preconditions raise named errors; an assert would
    # vanish under python -O
    src = os.path.dirname(tatejoin.resolutions.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
    print("PASS no assert statements in src/tatejoin")
