"""The two product pipelines and their agreement.

The join pipeline (include the tensor, transport down a comparison map) and
the composition pipeline (lift one cycle to a chain map, evaluate on the
other) share no chain past the resolution and the factorizations its
differentials keep, so their agreement on every entry is the strongest
internal check the engine has.  Frozen values below
are for cyclic groups, where the product of generators is a generator of the
output degree.
"""

import hashlib
import json
import os
import random
from types import SimpleNamespace

import pytest

import tatejoin
from tatejoin import (ComparisonLift, GroupRingElement, InternalCheckError,
                      ProductContext, Resolution, ResolutionError, ZGMatrix,
                      bar_resolution, composition_product, cyclic, dihedral,
                      from_permutations, homology, include_cycle_tensor, join,
                      join_product, lift_vector, load_resolution,
                      periodic_cyclic_resolution, phi_inverse, product_table,
                      quaternion8, random_cycle, run_verify, symmetric,
                      syzygy_resolution, tate_group, validate_resolution)
from tatejoin.groups import _accumulate
from tatejoin.intlinalg import NoSolution
from tatejoin.tate import down_vector
from tatejoin.zglinalg import _elements
from oracles import chain_map_failure, contraction_failure


def test_cyclic_generator_products_have_maximal_order():
    for m in (2, 3, 4, 5):
        res = periodic_cyclic_resolution(m, 8)
        ctx = ProductContext(res)
        for n, k in ((1, 1), (1, 3), (3, 3)):
            h_out = homology(res, n + k + 1)
            a = homology(res, n).generators[0]
            b = homology(res, k).generators[0]
            cls = ctx.join_product(n, a, k, b)
            assert h_out.class_order(cls) == m, (m, n, k)
            assert ctx.composition_product(n, a, k, b) == cls


def test_one_shot_wrappers_match_context():
    res = periodic_cyclic_resolution(3, 5)
    a = homology(res, 1).generators[0]
    assert join_product(res, 1, a, 1, a) == \
        composition_product(res, 1, a, 1, a)


def test_product_with_zero_class_vanishes():
    res = periodic_cyclic_resolution(4, 5)
    ctx = ProductContext(res)
    a = homology(res, 1).generators[0]
    zero = [0] * res.ranks[1]
    out = ctx.join_product(1, zero, 1, a)
    assert not any(out)
    assert not any(ctx.composition_product(1, a, 1, zero))


def test_bilinearity_over_random_cycles():
    from tatejoin import random_cycle
    res = periodic_cyclic_resolution(6, 5)
    ctx = ProductContext(res)
    rng = random.Random(2)
    h3 = homology(res, 3)
    b = homology(res, 1).generators[0]
    for _ in range(8):
        z1 = random_cycle(res, 1, rng)
        z2 = random_cycle(res, 1, rng)
        zs = [u + v for u, v in zip(z1, z2)]
        lhs = ctx.join_product(1, zs, 1, b)
        p1 = ctx.join_product(1, z1, 1, b)
        p2 = ctx.join_product(1, z2, 1, b)
        want = tuple((x + y) % f for x, y, f in
                     zip(p1, p2, h3.invariant_factors))
        assert lhs == want


def test_representative_independence():
    res = syzygy_resolution(symmetric(3), 6)
    ctx = ProductContext(res)
    rng = random.Random(9)
    a = homology(res, 1).generators[0]
    b = homology(res, 3).generators[0]
    base = ctx.join_product(1, a, 3, b)
    for _ in range(5):
        shift = res.down_boundary(
            2, [rng.randrange(-3, 4) for _ in range(res.ranks[2])])
        a2 = [u + v for u, v in zip(a, shift)]
        assert ctx.join_product(1, a2, 3, b) == base
        assert ctx.composition_product(1, a2, 3, b) == base


def test_q8_sphere_product_nonzero():
    res = syzygy_resolution(quaternion8(), 9)
    ctx = ProductContext(res)
    a = homology(res, 3).generators[0]
    cls = ctx.join_product(3, a, 3, a)
    h7 = homology(res, 7)
    assert h7.invariant_factors == [8]
    assert any(cls)
    assert ctx.composition_product(3, a, 3, a) == cls


def test_rank_two_group_products_vanish():
    # both pipelines must agree on the vanishing for a group of p-rank 2;
    # odd torsion in even degrees makes this the sign-sensitive case
    g = from_permutations(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]],
                          label="C3xC3")
    res = syzygy_resolution(g, 6)
    assert homology(res, 1).invariant_factors == [3, 3]
    assert homology(res, 2).invariant_factors == [3]
    ctx = ProductContext(res)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for a in homology(res, n).generators:
            for b in homology(res, m).generators:
                j = ctx.join_product(n, a, m, b)
                c = ctx.composition_product(n, a, m, b)
                assert j == c
                assert not any(j), (n, m)


def test_product_table_shape_and_agreement():
    res = periodic_cyclic_resolution(3, 7)
    table = product_table(res, [(1, 1), (1, 3), (3, 1)])
    assert table.all_agree
    doc = table.to_json()
    assert doc["group"] == res.group.label
    assert doc["resolution"] == res.label
    assert [(e["n"], e["m"]) for e in doc["entries"]] == [(1, 1), (1, 3),
                                                          (3, 1)]
    for e in doc["entries"]:
        assert e["agree"] is True
        assert e["join"] == e["composition"]


def test_product_table_csv_projection():
    res = periodic_cyclic_resolution(2, 5)
    table = product_table(res, [(1, 1)])
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,m,a,b,join,composition,agree"
    assert lines[1] == "1,1,0,0,1,1,true"


def test_both_orders_recorded_not_asserted():
    # the opposite order is an experiment: the table happily records NxM
    # and MxN side by side without comparing them to each other
    res = syzygy_resolution(symmetric(3), 7)
    table = product_table(res, [(1, 3), (3, 1)])
    assert table.all_agree
    assert [(e["n"], e["m"]) for e in table.entries] == [(1, 3), (3, 1)]


# -- comparison maps -----------------------------------------------------------

def _transport(lift, k, vec):
    """A down-complex cycle carried along a comparison lift."""
    return lift.transport_down(k, {j: c for j, c in enumerate(vec) if c})


def test_lift_comparison_bar_to_periodic():
    bar = bar_resolution(cyclic(3), 4)
    per = periodic_cyclic_resolution(3, 4)
    lift = ComparisonLift(bar, per)
    assert not chain_map_failure(lift, 3)
    # transported bar generators classify like periodic ones
    hb = homology(bar, 1)
    hp = homology(per, 1)
    moved = _transport(lift, 1, hb.generators[0])
    assert hp.classify(moved) in {(1,), (2,)}  # a generator either way
    assert hp.class_order(hp.classify(moved)) == 3


def test_lift_comparison_over_s3_both_ways():
    # S3 is nonabelian, so a lift that multiplies a differential entry on
    # the wrong side of a lifted column fails the commutation oracle
    s3 = symmetric(3)
    bar = bar_resolution(s3, 3)
    syz = syzygy_resolution(s3, 3)
    for src, tgt in ((bar, syz), (syz, bar)):
        lift = ComparisonLift(src, tgt)
        assert not chain_map_failure(lift, 3)
        for k in (1, 2):
            h_src, h_tgt = homology(src, k), homology(tgt, k)
            for gen in h_src.generators:
                moved = _transport(lift, k, gen)
                # transport_down is entrywise augmentation of the columns
                cols = [_elements(src.group, lift.column(k, j))
                        for j in range(len(gen))]
                assert moved == [sum(c.get(i).augmentation() * g
                                     for c, g in zip(cols, gen) if i in c)
                                 for i in range(tgt.ranks[k])]
                # a comparison map is an isomorphism on homology
                assert h_tgt.class_order(h_tgt.classify(moved)) == \
                    h_src.class_order(h_src.classify(gen))


def _cycle_of(h, coords, res):
    """A cycle with the given canonical coordinates: integer combination
    of the stored generators."""
    out = [0] * res.ranks[h.degree]
    for c, gen in zip(coords, h.generators):
        if c:
            out = [u + c * v for u, v in zip(out, gen)]
    return out


def test_resolution_independence_of_products():
    # compute the (1,1) product over the bar resolution of C_3, transport
    # it to the periodic resolution along a comparison map, and compare
    # with the product computed natively there from the transported inputs
    bar = bar_resolution(cyclic(3), 5)
    per = periodic_cyclic_resolution(3, 5)
    lift = ComparisonLift(bar, per)
    assert not chain_map_failure(lift, 4)
    hb1, hb3 = homology(bar, 1), homology(bar, 3)
    hp1, hp3 = homology(per, 1), homology(per, 3)

    gen_b = hb1.generators[0]
    prod_b = ProductContext(bar).join_product(1, gen_b, 1, gen_b)
    moved_gen_cls = hp1.classify(_transport(lift, 1, gen_b))
    moved_prod_cls = hp3.classify(
        _transport(lift, 3, _cycle_of(hb3, prod_b, bar)))

    rep = _cycle_of(hp1, moved_gen_cls, per)
    want = ProductContext(per).join_product(1, rep, 1, rep)
    assert moved_prod_cls == want
    assert hp3.class_order(moved_prod_cls) == 3  # still a generator


def test_chain_map_check_catches_broken_commutation():
    per = periodic_cyclic_resolution(2, 3)
    # a hand-built map, the identity in degrees 0 and 1; doubling only
    # degree 2 breaks commutation: d_2 (2 id) = 2N != N
    hand = SimpleNamespace(source=per, target=per, shift=0, seed=None,
                           column=lambda k, j: ((0, 0, 2 if k == 2 else 1),))
    assert not chain_map_failure(hand, 1)
    assert chain_map_failure(hand, 2) == \
        "fails to commute at degree 2, column 0"


def test_non_cycle_factor_is_bad_input_in_both_pipelines():
    res = syzygy_resolution(dihedral(4), 7)
    za = homology(res, 1).generators[0]
    e0 = [1] + [0] * (res.ranks[2] - 1)
    assert any(res.down_boundary(2, e0))
    ctx = ProductContext(res)
    with pytest.raises(ResolutionError):
        ctx.join_product(1, za, 2, e0)
    with pytest.raises(ResolutionError):
        ctx.composition_product(1, za, 2, e0)
    # half the H_1 generator of C6 is no cycle either; both pipelines read
    # it as a cycle once and answered (0,), where the generator squares to
    # (1,); nor is a mapping, once read as the list of its keys, nor [1.0],
    # once a hit in the self-map cache filled by [1]
    per = periodic_cyclic_resolution(3, 6)
    ctx = ProductContext(per)
    for pipeline in (ctx.join_product, ctx.composition_product):
        assert pipeline(1, [1], 1, [1]) == (1,)
        for za, zb in (([0.5], [1]), ([1], [0.5]), ([0.5], [0.5]),
                       ({0: 1}, [1]), ([1], {0: 1}), ([1], [1.0])):
            with pytest.raises(ResolutionError):
                pipeline(1, za, 1, zb)


@pytest.mark.parametrize("group, depth", [(symmetric(3), 8), (dihedral(4), 7)],
                         ids=["S3", "D4"])
def test_composition_lift_is_a_chain_map(group, depth):
    res = syzygy_resolution(group, depth)
    ctx = ProductContext(res)
    for zb in homology(res, 1).generators:
        lift = ctx._g_lift(1, zb)
        assert lift.shift == 2
        assert not chain_map_failure(lift, depth - 2)
        # base case: d_2 o psi_0 = (1 -> N.y_b) o eps, column by column
        seed = phi_inverse(res, 1, zb).vector
        for j in range(res.ranks[0]):
            col = _elements(group, lift.column(0, j))
            assert res.apply_differential(2, col) == \
                {i: v.scale(res.aug[j]) for i, v in seed.items()}


def test_doctored_seed_fails_the_base_case():
    res = periodic_cyclic_resolution(3, 5)
    zb = homology(res, 1).generators[0]
    lift = ProductContext(res)._g_lift(1, zb)
    assert not chain_map_failure(lift, 2)  # the true seed passes
    # the degree-0 columns are memoized, so after the seed changes only
    # the base case d_2 o psi_0 = seed . eps can notice
    lift.seed = {i: v.scale(2) for i, v in lift.seed.items()}
    assert "base case" in chain_map_failure(lift, 2)
    with pytest.raises(ValueError, match="needs a seed"):
        ComparisonLift(res, res, 2)


def test_products_build_the_join_only_to_the_output_degree(monkeypatch):
    import tatejoin.products as products
    depths = []
    real_join = products.join

    def recording_join(P, Q, n, max_zrank=None):
        depths.append(n)
        return real_join(P, Q, n, max_zrank=max_zrank)

    monkeypatch.setattr(products, "join", recording_join)
    res = periodic_cyclic_resolution(3, 6)
    a = homology(res, 1).generators[0]
    b = homology(res, 3).generators[0]
    table = product_table(res, [(1, 1), (3, 1), (1, 3)])
    assert table.all_agree and depths == [5]
    join_product(res, 1, a, 3, b)
    assert depths == [5, 5]
    ctx = ProductContext(res)
    ctx.join_product(1, a, 1, a)
    ctx.join_product(1, a, 3, b)
    assert depths == [5, 5, 3, 5]
    # verify checks join ranks to degree 4, then needs no deeper join for
    # its products, whose output degree is at most depth - 1 = 4
    del depths[:]
    assert run_verify(periodic_cyclic_resolution(3, 5), rounds=1).passed
    assert depths == [4]


def _lifted_join_classes(P, J, cases):
    """Test oracle: the join pipeline with the comparison lift of the join J
    in place of the contraction walk, one class per (n, za, m, zb)."""
    lift = ComparisonLift(J, P)
    out = []
    for n, za, m, zb in cases:
        d = n + m + 1
        w = include_cycle_tensor(J, phi_inverse(P, n, za).vector, n,
                                 lift_vector(P, m, zb), m)
        out.append(homology(P, d).classify(
            lift.transport_down(d, down_vector(w))))
    return out


def _generator_cases(P, pairs, rng=None):
    """(n, za, m, zb) for every generator pair of each bidegree, and one
    pair of random cycles per bidegree when rng is given."""
    cases = []
    for n, m in pairs:
        zas, zbs = homology(P, n).generators, homology(P, m).generators
        if rng is not None:
            zas = zas + [random_cycle(P, n, rng)]
            zbs = zbs + [random_cycle(P, m, rng)]
        cases += [(n, za, m, zb) for za in zas for zb in zbs]
    return cases


def _q8_fixture():
    return load_resolution(os.path.join(os.path.dirname(tatejoin.__file__),
                                        "fixtures", "q8_periodic.json"))


def _walk_steps(monkeypatch, doctor=None):
    """Record every step (P, b, t, h_b(t)) of the join walk, the value
    passed through ``doctor(P, b, value)`` when one is given."""
    import tatejoin.products as products
    real, steps = products._contract, []

    def step(P, b, t):
        value = real(P, b, t)
        if doctor is not None:
            value = doctor(P, b, value)
        steps.append((P, b, dict(t), value))
        return value

    monkeypatch.setattr(products, "_contract", step)
    return steps


@pytest.mark.parametrize("build, pairs", [
    (lambda: syzygy_resolution(dihedral(4), 9), [(2, 5), (1, 1)]),
    (lambda: syzygy_resolution(symmetric(3), 10), [(3, 3), (3, 5)]),
    (_q8_fixture, [(3, 3), (1, 5), (3, 4), (4, 3)]),
    (lambda: bar_resolution(cyclic(3), 7), [(1, 1), (1, 3), (3, 1)]),
    (lambda: periodic_cyclic_resolution(5, 10), [(1, 1), (1, 7), (5, 1)]),
], ids=["D4/9", "S3/10", "Q8", "bar(C3)/7", "C5/10"])
def test_the_contraction_walk_matches_a_lift_of_the_full_join(
        build, pairs, monkeypatch):
    # random cycles as well as generators; the sign (-1)^{n(n+1)/2}
    # differs from (-1)^{n+1} at n = 1 and 5, which an odd-order
    # H_{n+m+1} (C3, C5) tells apart
    P = build()
    ctx = ProductContext(P)
    cases = _generator_cases(P, pairs, random.Random(5))
    assert cases
    steps = _walk_steps(monkeypatch)
    J = join(P, P, max(n + m + 1 for n, m in pairs))
    assert [ctx.join_product(*c) for c in cases] == \
        _lifted_join_classes(P, J, cases)
    assert steps
    assert not [f for s in steps if (f := contraction_failure(*s))]


@pytest.fixture(scope="module")
def s4_verify():
    """S4 to depth 8, a context, the generator cases of its verify pairs,
    each joined by the walk, and the steps the walk took."""
    P = syzygy_resolution(symmetric(4), 8)
    ctx = ProductContext(P)
    pairs = [(n, m) for n in range(1, 8) for m in range(1, 7 - n)]
    cases = _generator_cases(P, pairs)
    with pytest.MonkeyPatch.context() as mp:
        steps = _walk_steps(mp)
        walked = [ctx.join_product(*c) for c in cases]
    return P, ctx, pairs, cases, walked, steps


def test_s4_verify_products_match_the_box_lift(s4_verify):
    P, ctx, pairs, cases, walked, _ = s4_verify
    assert len(cases) == 26
    assert walked == _lifted_join_classes(P, ctx.join_for(pairs), cases)


def test_s4_contraction_entries_stay_small(s4_verify):
    # unreduced, the walk's values on S4/8 reach about 2,000 bits; reduced
    # modulo the next image, about 10
    steps = s4_verify[-1]
    assert {b for _, b, _, _ in steps} == set(range(1, 7))
    bits = max(abs(c).bit_length() for *_, v in steps for _, _, c in v)
    assert bits < 64
    assert not [f for s in steps if (f := contraction_failure(*s))]


def _plus_boundary(P, b, v):
    """v + d_{b+2}(y) for y = sum (j + 1) e_j, a boundary of P_{b+1}."""
    d = P.differential(b + 2)
    return v + tuple((base, u, (j + 1) * c) for j in range(d.ncols)
                     for base, u, c in d.triples(j))


def _plus_e(j):
    """Adds e_j, a chain that is no cycle of the down complex."""
    return lambda P, b, v: v + ((j * P.group.order, 0, 1),)


_DOCTORED = {"C3": lambda: periodic_cyclic_resolution(3, 6),
             "S3": lambda: syzygy_resolution(symmetric(3), 6)}


@pytest.mark.parametrize("key, doctor, caught", [
    (("C3", 1), lambda P, b, v: tuple((r, u, 2 * c) for r, u, c in v),
     "disagree"),
    (("C3", 2), lambda P, b, v: tuple((r, u, -c) for r, u, c in v),
     "disagree"),
    (("C3", 2), _plus_e(0), "disagree"),
    (("C3", 1), _plus_e(0), "disagree"),
    (("S3", 1), _plus_e(2), InternalCheckError),
    (("S3", 2), _plus_e(3), InternalCheckError),
])
def test_a_doctored_contraction_value_is_caught(key, doctor, caught,
                                                monkeypatch):
    # a walk value off d h + h d = 1 by a non-boundary, in the degree of
    # the key, must end in a failed check or a pipeline disagreement, never
    # in a class nobody doubts
    label, degree = key
    P = _DOCTORED[label]()
    ctx = ProductContext(P)
    assert ctx.table([(1, 1)])[0]["agree"]
    steps = _walk_steps(
        monkeypatch, lambda P, b, v: doctor(P, b, v) if b == degree else v)
    if caught == "disagree":
        assert not ctx.table([(1, 1)])[0]["agree"]
    else:
        with pytest.raises(caught, match="not a cycle"):
            ctx.table([(1, 1)])
    assert [f for s in steps if (f := contraction_failure(*s))]


@pytest.mark.parametrize("build, pairs", [
    (lambda: periodic_cyclic_resolution(3, 8), [(1, 1), (1, 3), (3, 1)]),
    (lambda: syzygy_resolution(dihedral(4), 9), [(2, 5), (3, 3)]),
    (lambda: syzygy_resolution(symmetric(3), 10), [(3, 5), (1, 7)]),
], ids=["C3/8", "D4/9", "S3/10"])
def test_a_boundary_added_to_every_walk_value_leaves_the_classes(
        build, pairs, monkeypatch):
    # the reduction adds d_{b+2}(z) to each value; the walk must carry
    # any such vertical boundary to a boundary of P
    P = build()
    cases = _generator_cases(P, pairs, random.Random(7))
    ctx = ProductContext(P)
    plain = [ctx.join_product(*c) for c in cases]
    steps = _walk_steps(monkeypatch, _plus_boundary)
    assert [ctx.join_product(*c) for c in cases] == plain
    # d_{b+1} kills the boundary, so the step's own identity still holds
    assert steps and not [f for s in steps if (f := contraction_failure(*s))]


@pytest.mark.parametrize("build", [
    lambda: syzygy_resolution(dihedral(4), 9),
    lambda: syzygy_resolution(symmetric(3), 10),
], ids=["D4/9", "S3/10"])
def test_the_plain_solve_is_additive_on_the_image(build):
    # the walk's contraction is linear only while S_k is: a reduction
    # inside the plain solve would break d h + h d = 1
    P = build()
    rng = random.Random(11)
    order, table = P.group.order, P.group.table

    def image(d):
        acc = {}
        _accumulate(acc, table, [(rng.randrange(order), rng.randint(-3, 3),
                                  d.triples(rng.randrange(d.ncols)))
                                 for _ in range(4)])
        return {k: c for k, c in acc.items() if c}

    def flat(x):
        acc = {}
        _accumulate(acc, table, ((0, 1, x),))
        return {k: c for k, c in acc.items() if c}

    for k in range(1, P.depth + 1):
        S = P.differential(k).solver()
        assert S.solve({}) == ()
        for _ in range(3):
            u, v = image(P.differential(k)), image(P.differential(k))
            uv = {i: u.get(i, 0) + v.get(i, 0) for i in u.keys() | v.keys()}
            sum_uv = flat(S.solve(u) + S.solve(v))
            assert flat(S.solve(uv)) == sum_uv, k


def _not_exact_in_degree_2():
    """C3 to depth 6 with d_3 = 0: d o d = 0 still holds, ker d_2 != 0."""
    per = periodic_cyclic_resolution(3, 6)
    diffs = list(per.diffs)
    diffs[2] = ZGMatrix(per.group, per.rank(2), [{}] * per.rank(3))
    return Resolution(per.group, per.ranks, diffs, per.aug, label="broken")


def test_a_non_exact_resolution_is_named_by_the_walk():
    P = _not_exact_in_degree_2()
    a = homology(periodic_cyclic_resolution(3, 6), 1).generators[0]
    with pytest.raises(ResolutionError, match="not exact in degree 2"):
        ProductContext(P).join_product(1, a, 1, a)


@pytest.mark.parametrize("wrong, message", [
    (lambda x: NoSolution, "no preimage of a boundary in degree 0"),
    (lambda x: {j: 2 * v for j, v in x.items()} if x else x, "M x != b"),
])
def test_a_wrong_solve_in_the_walk_is_an_engine_fault(wrong, message,
                                                      monkeypatch):
    import tatejoin.intlinalg as intlinalg
    per = periodic_cyclic_resolution(3, 6)
    a = homology(per, 1).generators[0]
    ctx = ProductContext(per)
    ctx.join_for([(1, 1)])
    real = intlinalg.IntegerSolver.solve
    monkeypatch.setattr(intlinalg.IntegerSolver, "solve",
                        lambda self, b: wrong(real(self, b)))
    with pytest.raises(InternalCheckError, match=message):
        ctx.join_product(1, a, 1, a)


@pytest.mark.parametrize("build, n, m", [
    (lambda: syzygy_resolution(dihedral(4), 9), 3, 3),
    (lambda: syzygy_resolution(symmetric(3), 10), 1, 7),
])
def test_box_join_products_match_the_full_join(build, n, m):
    P = build()
    ctx = ProductContext(P)
    cases = _generator_cases(P, [(n, m)])
    assert cases
    assert [ctx.join_product(*c) for c in cases] == \
        _lifted_join_classes(P, join(P, P, n + m + 1), cases)


def test_product_context_grows_its_box_componentwise(monkeypatch):
    import tatejoin.products as products
    calls = []
    real_join = products.join

    def recording_join(P, Q, n, max_zrank=None):
        calls.append((P.depth, Q.depth, n))
        return real_join(P, Q, n, max_zrank=max_zrank)

    monkeypatch.setattr(products, "join", recording_join)
    res = periodic_cyclic_resolution(3, 8)
    ctx = ProductContext(res)
    for n, m in ((1, 1), (1, 3), (3, 1), (1, 1), (3, 3)):
        a = homology(res, n).generators[0]
        b = homology(res, m).generators[0]
        assert ctx.join_product(n, a, m, b) == \
            ctx.composition_product(n, a, m, b)
    # (1, 1) lies inside the box already built; (3, 3) grows the degree
    assert calls == [(1, 1, 3), (1, 3, 5), (3, 3, 5), (3, 3, 7)]


# The digests pin the lifted columns themselves, not only the classes they
# give: a change of either is a change of the chain maps, to be announced.
def _lift_digest(lift, up_to):
    """sha256 of every component's entries through degree up_to, column by
    column, row-sorted; each component is built from lift.column(k, j)."""
    assert not chain_map_failure(lift, up_to)
    G = lift.source.group
    comps = {str(k): [lift.target.rank(k + lift.shift),
                      [[[i, list(v.c)] for i, v in
                        sorted(_elements(G, lift.column(k, j)).items())]
                       for j in range(lift.source.rank(k))]]
             for k in range(up_to + 1)}
    text = json.dumps(comps, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_lifted_comparison_columns_are_byte_identical():
    s3 = symmetric(3)
    lift = ComparisonLift(bar_resolution(s3, 4), syzygy_resolution(s3, 6))
    assert _lift_digest(lift, 4) == \
        "e11aae2141f89a0038101826d5d708c1c5ab4cae6e8ead11ee11c40bf15041c5"


def test_lifted_self_map_columns_are_byte_identical():
    res = syzygy_resolution(dihedral(4), 7)
    ctx = ProductContext(res)
    got = [_lift_digest(ctx._g_lift(1, zb), 4)
           for zb in homology(res, 1).generators]
    assert got == [
        "0246daaaaa783a6051717b0d9b11fe22306d6ecb30b21e90355a7b26c7c8d5a0",
        "9f5a424e3511890e12fc91df1ba81f21ae685b10f7545e5e5f3e35323bed080c",
    ]


def test_a_grown_join_gives_the_classes_of_one_sized_up_front():
    res = syzygy_resolution(dihedral(4), 9)
    pairs = [(1, 1), (3, 3), (2, 5)]

    def products_of(ctx):
        return [ctx.join_product(n, za, m, zb) for n, m in pairs
                for za in homology(res, n).generators
                for zb in homology(res, m).generators]

    grown = products_of(ProductContext(res))  # the box grows twice
    sized = ProductContext(res)
    sized.join_for(pairs)
    assert products_of(sized) == grown


def test_a_product_table_factors_each_differential_once(monkeypatch):
    # the join pipeline's contraction (its solves, and its reductions by
    # the next differential) and the self-maps all use the differentials
    # of P, and each matrix keeps its one solver
    import tatejoin.zglinalg as zglinalg
    res = load_resolution(os.path.join(os.path.dirname(tatejoin.__file__),
                                       "fixtures", "q8_periodic.json"))
    factored = []
    real_init = zglinalg.ZGSolver.__init__

    def recording_init(self, matrix):
        factored.append(matrix)
        real_init(self, matrix)

    monkeypatch.setattr(zglinalg.ZGSolver, "__init__", recording_init)
    assert product_table(res, [(3, 3), (1, 5)]).all_agree
    diffs = [res.differential(k) for k in range(1, res.depth + 1)]
    assert factored
    assert len({id(m) for m in factored}) == len(factored)
    assert all(any(m is d for d in diffs) for m in factored)


@pytest.mark.parametrize("pipeline", ["join_product", "composition_product"])
@pytest.mark.parametrize("factor, delta", [("first", -1), ("first", 1),
                                           ("second", -1), ("second", 1)])
def test_wrong_length_factor_is_a_named_error(pipeline, factor, delta):
    res = syzygy_resolution(dihedral(4), 8)
    gens = homology(res, 3).generators
    factors = {"first": list(gens[0]), "second": list(gens[-1])}
    z = factors[factor]
    factors[factor] = z[:delta] if delta < 0 else z + [0] * delta
    ctx = ProductContext(res)
    with pytest.raises(ResolutionError, match=f"{factor} factor .* degree 3"):
        getattr(ctx, pipeline)(3, factors["first"], 3, factors["second"])


def test_a_degree_zero_factor_is_refused_before_any_join(monkeypatch):
    # the product is defined for n, m >= 1; a degree-0 factor is bad input
    # in both pipelines, both positions and the one-shot wrappers, and is
    # refused before a join is built
    import tatejoin.products as products

    def no_join(*args, **kwargs):
        pytest.fail("a join was built for a degree-0 factor")

    monkeypatch.setattr(products, "join", no_join)
    res = syzygy_resolution(symmetric(3), 6)
    z3 = homology(res, 3).generators[0]
    z0 = homology(res, 0).generators[0]
    ctx = ProductContext(res)
    calls = [ctx.join_product, ctx.composition_product,
             lambda *a: join_product(res, *a),
             lambda *a: composition_product(res, *a)]
    for args in ((3, z3, 0, z0), (0, z0, 3, z3), (0, z0, 0, z0)):
        for call in calls:
            with pytest.raises(ResolutionError, match="degrees >= 1"):
                call(*args)
    for pairs in ([(3, 0)], [(0, 3)], [(1, 1), (0, 1)]):
        with pytest.raises(ResolutionError, match="degrees >= 1"):
            product_table(res, pairs)


BAD_DEGREE_CALLS = [
    ("homology '1'", lambda per: homology(per, "1"), "got '1'"),
    ("homology 1.5", lambda per: homology(per, 1.5), "got 1.5"),
    ("join_product 1.0",
     lambda per: ProductContext(per).join_product(1.0, [1], 1, [1]),
     r"got \(1\.0, 1\)"),
    ("join_product '1'",
     lambda per: ProductContext(per).join_product("1", [1], 1, [1]),
     r"got \('1', 1\)"),
    ("composition_product 1.0",
     lambda per: composition_product(per, 1, [1], 1.0, [1]),
     r"got \(1, 1\.0\)"),
    ("random_cycle 1.0", lambda per: random_cycle(per, 1.0, random.Random(0)),
     "got 1.0"),
    ("phi_inverse 1.0", lambda per: phi_inverse(per, 1.0, [1]), "got 1.0"),
    ("product_table 1.0", lambda per: product_table(per, [(1.0, 1)]),
     r"got \(1\.0, 1\)"),
    ("rank 1.0", lambda per: per.rank(1.0),
     "degree must be an integer in 0..6, got 1.0"),
    ("differential 1.0", lambda per: per.differential(1.0),
     "differential degree must be an integer in 1..6, got 1.0"),
    # an integer bidegree past the depth: H_7 reads D_8
    ("product past the depth",
     lambda per: ProductContext(per).join_product(3, [1], 3, [1]),
     "needs the resolution to degree 8, depth is 6"),
]


# malformed library input, each once a bare TypeError or ValueError, or an
# InternalCheckError (the engine-bug class) for join(per, per, -1)
BAD_INPUT_CALLS = [
    ("classify 5", lambda per: homology(per, 1).classify(5), "not a cycle"),
    ("phi_inverse None", lambda per: phi_inverse(per, 1, None),
     "not a cycle"),
    ("join_product 5", lambda per: ProductContext(per).join_product(
        1, 5, 1, [1]), "first factor in degree 1 .* got 5"),
    ("composition_product 5", lambda per: composition_product(
        per, 1, [1], 1, 5), "second factor in degree 1 .* got 5"),
    ("class_order 7", lambda per: homology(per, 1).class_order(7), "got 7"),
    ("is_zero_class 7", lambda per: homology(per, 1).is_zero_class(7),
     "got 7"),
    ("lift_vector 5", lambda per: lift_vector(per, 1, 5), "got 5"),
    ("bar_resolution '2'", lambda per: bar_resolution(per.group, "2"),
     "depth must be an integer in 0..inf, got '2'"),
    ("syzygy_resolution 2.0", lambda per: syzygy_resolution(per.group, 2.0),
     "depth must be an integer in 0..inf, got 2.0"),
    ("periodic_cyclic_resolution '2'",
     lambda per: periodic_cyclic_resolution(3, "2"), "got '2'"),
    ("join '3'", lambda per: join(per, per, "3"),
     "join degree must be an integer in 0..13, got '3'"),
    ("join -1", lambda per: join(per, per, -1), "got -1"),
    ("down_boundary 5", lambda per: per.down_boundary(1, 5),
     "vector of D_1 .* got 5"),
    # D_1 is cached by H_1, and 1.0 hashes as 1
    ("down_boundary 1.0", lambda per: per.down_boundary(1.0, [1]),
     "differential degree .* got 1.0"),
    ("join_for []", lambda per: ProductContext(per).join_for([]),
     "at least one bidegree"),
    ("join_for [(1,)]", lambda per: ProductContext(per).join_for([(1,)]),
     r"bidegree .* got \(1,\)"),
    ("product_table [(1,)]", lambda per: product_table(per, [(1,)]),
     r"bidegree .* got \(1,\)"),
    ("product_table [1]", lambda per: product_table(per, [1]),
     "bidegree .* got 1"),
    ("tate_group '-2'", lambda per: tate_group(per, "-2"),
     "Tate degree must be an integer in -6..-1, got '-2'"),
    ("tate_group -2.0", lambda per: tate_group(per, -2.0),
     "Tate degree .* got -2.0"),
    # a library size budget is None or a positive int, as --max-zrank is
    ("validate_resolution max_zrank '5'",
     lambda per: validate_resolution(per, max_zrank="5"),
     "size budget must be a positive integer, got '5'"),
    ("join max_zrank True", lambda per: join(per, per, 3, max_zrank=True),
     "size budget .* got True"),
    ("join max_zrank 0", lambda per: join(per, per, 3, max_zrank=0),
     "size budget .* got 0"),
    ("ProductContext max_zrank 2.5", lambda per: ProductContext(
        per, max_zrank=2.5).join_product(1, [1], 1, [1]),
     "size budget .* got 2.5"),
]


@pytest.mark.parametrize("call, match",
                         [c[1:] for c in BAD_DEGREE_CALLS + BAD_INPUT_CALLS],
                         ids=[c[0] for c in BAD_DEGREE_CALLS
                              + BAD_INPUT_CALLS])
def test_a_bad_degree_is_a_named_error(call, match):
    # a degree that is not an int raised a bare TypeError deep inside; H_1
    # is cached first, so a degree equal to 1 must not read the cache
    per = periodic_cyclic_resolution(3, 6)
    assert homology(per, 1).invariant_factors == [3]
    with pytest.raises(ResolutionError, match=match):
        call(per)


def test_an_empty_table_builds_no_join():
    # verify reads an empty table where no bidegree is feasible
    ctx = ProductContext(periodic_cyclic_resolution(3, 6))
    assert ctx.table([]) == [] and ctx._join is None


@pytest.mark.parametrize("target, match", [
    (lambda: periodic_cyclic_resolution(3, 3), "matching groups"),
    (lambda: Resolution(cyclic(2), [1], [], [2]), "augmentation is not onto"),
], ids=["group mismatch", "augmentation not onto"])
def test_a_lift_into_an_unfit_target_is_a_named_error(target, match):
    with pytest.raises(ResolutionError, match=match):
        ComparisonLift(periodic_cyclic_resolution(2, 3), target())


def test_lifts_take_sparse_seeds_and_return_chains():
    res = syzygy_resolution(dihedral(4), 6)
    zb = homology(res, 1).generators[0]
    seed = phi_inverse(res, 1, zb).vector
    padded = {i: GroupRingElement.zero(res.group) for i in range(res.ranks[1])}
    padded.update(seed)
    clean = ComparisonLift(res, res, 2, seed=seed)
    noisy = ComparisonLift(res, res, 2, seed=padded)
    for k in range(3):
        for j in range(res.ranks[k]):
            col = _elements(res.group, clean.column(k, j))
            assert all(not v.is_zero() for v in col.values())
            assert _elements(res.group, noisy.column(k, j)) == col
            assert noisy.column(k, j) == clean.column(k, j)
            assert all(c for _, _, c in clean.column(k, j))
    assert not chain_map_failure(noisy, 2)  # the base case reads the padded seed
    J = join(res, res, 3)
    lift = ComparisonLift(J, res)
    cols = [_elements(res.group, lift.column(3, j)) for j in range(J.ranks[3])]
    assert all(not v.is_zero() for col in cols for v in col.values())
    assert all(c for j in range(J.ranks[3]) for _, _, c in lift.column(3, j))


def test_a_wrong_shift_zero_seed_is_caught_where_it_is_built(monkeypatch):
    # the seed solves eps(s) = 1 outside any ZGSolver, so no multiply-back
    # covers it: the constructor checks it, and a doubled one must raise
    res = syzygy_resolution(dihedral(4), 4)
    J = join(res, res, 2)
    real = tatejoin.intlinalg.IntegerSolver.solve

    def doubled(self, b):
        return {j: 2 * v for j, v in real(self, b).items()}

    monkeypatch.setattr(tatejoin.intlinalg.IntegerSolver, "solve", doubled)
    with pytest.raises(InternalCheckError, match="eps\\(seed\\) != 1"):
        ComparisonLift(J, res)


def test_a_lift_names_a_column_index_outside_the_rank():
    # j = -1 once read the last column and was memoized under (k, -1)
    res = syzygy_resolution(dihedral(4), 5)
    lift = ComparisonLift(res, res)
    for k in (0, 1, 2):
        for j in (-1, res.ranks[k]):
            with pytest.raises(ValueError, match=f"column {j} out of range"):
                lift.column(k, j)
    assert not any(j < 0 for _, j in lift._cols)
    for j in (-1, res.ranks[1]):
        with pytest.raises(ValueError, match=f"column {j} out of range"):
            lift.transport_down(1, {j: 1})


def test_a_lift_gates_its_column_index_before_its_cache():
    # column(1, 0.0) raised a bare TypeError on a fresh lift, but returned
    # the memoized (1, 0) column once that one was lifted
    per = periodic_cyclic_resolution(3, 6)
    for warm in (False, True):
        lift = ComparisonLift(per, per)
        if warm:
            assert lift.column(1, 0)
        with pytest.raises(ValueError, match="column 0.0 out of range"):
            lift.column(1, 0.0)
        assert sorted(lift._cols) == ([(0, 0), (1, 0)] if warm else [])


def test_transport_down_names_bad_input():
    res = syzygy_resolution(dihedral(4), 5)
    lift = ComparisonLift(res, res)
    for vec in ([1, 0], None, (0, 1)):
        with pytest.raises(ValueError, match="must be a mapping"):
            lift.transport_down(1, vec)
    for vec in ({"0": 1}, {0.0: 1}, {0: 1.5}, {0: "1"}, {1: None}):
        with pytest.raises(ValueError, match="not integral"):
            lift.transport_down(1, vec)
    assert not lift._cols  # refused before any column was lifted
    # the identity's lift carries every vector to itself
    assert lift.transport_down(1, {0: 2, 1: -1}) == [2, -1]


def test_lifting_builds_no_ring_element_between_solves(monkeypatch):
    # every lifted column stays in the stored triple form from one solve to
    # the next right-hand side; the only ring elements a lift builds are
    # the source differential's columns, read through ZGMatrix.column
    res = syzygy_resolution(dihedral(4), 7)
    ctx = ProductContext(res)
    # a shift-0 lift of the join box of bidegree (2, 2), to degree 5, and
    # a self-map of the composition pipeline
    lifts = [ComparisonLift(ctx.join_for([(2, 2)]), res),
             ctx._g_lift(1, homology(res, 1).generators[0])]
    assert lifts[1].shift == 2
    built, read = [0], [0]
    real_init, real_column = GroupRingElement.__init__, ZGMatrix.column

    def counting_init(self, group, coeffs):
        built[0] += 1
        real_init(self, group, coeffs)

    def counting_column(self, j):
        col = real_column(self, j)
        read[0] += len(col)
        return col

    monkeypatch.setattr(GroupRingElement, "__init__", counting_init)
    monkeypatch.setattr(ZGMatrix, "column", counting_column)
    for lift in lifts:
        for k in range(6):
            for j in range(lift.source.rank(k)):
                lift.column(k, j)
    assert read[0] > 0
    assert built[0] == read[0]
