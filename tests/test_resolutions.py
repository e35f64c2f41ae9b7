"""Resolution constructors, exactness certificates, and the join.

Structural values here (differential patterns, rank formulas, the basis
coordinates of an included tensor) are frozen from expanding the definitions
by hand on C_2; larger cases are certified by the exactness checks instead
of asserted from memory.
"""

import hashlib
import json
import os
import random

import pytest

from oracles import z_expansion
from tatejoin import (GroupRingElement, InternalCheckError,
                      ResolutionError, Resolution,
                      SchemaError, SizeBudgetError, bar_resolution, cyclic,
                      dihedral, from_permutations, homology,
                      include_cycle_tensor, join,
                      join_rank,
                      load_resolution, norm_element,
                      periodic_cyclic_resolution, quaternion8, symmetric,
                      syzygy_resolution, validate_resolution)
from tatejoin import resolutions
from tatejoin.intlinalg import IntegerLattice, IntMatrix, _rank_and_minor
from tatejoin.tate import down_vector
from tatejoin.zglinalg import ZGMatrix

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "tatejoin", "fixtures")


def test_periodic_differential_pattern():
    # d_1 = t - 1, d_2 = N, repeating; down complex alternates 0, m
    r = periodic_cyclic_resolution(2, 4)
    g = r.group
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    assert r.ranks == (1, 1, 1, 1, 1)
    assert r.differential(1).get(0, 0) == t - e
    assert r.differential(2).get(0, 0) == norm_element(g)
    assert r.differential(3) == r.differential(1)
    assert r.differential(4) == r.differential(2)
    for k, want in ((1, [{}]), (2, [{0: 2}]), (3, [{}]), (4, [{0: 2}])):
        assert r.down_matrix(k) == want


def test_periodic_rejects_tiny_order():
    with pytest.raises((ResolutionError, SchemaError, Exception)):
        periodic_cyclic_resolution(1, 3)


def test_bar_c2_matches_periodic():
    bar = bar_resolution(cyclic(2), 3)
    per = periodic_cyclic_resolution(2, 3)
    assert bar.ranks == (1, 1, 1, 1)
    for k in (1, 2, 3):
        assert bar.differential(k) == per.differential(k)


def test_bar_ranks_are_powers():
    bar = bar_resolution(symmetric(3), 3)
    assert bar.ranks == (1, 5, 25, 125)


def test_bar_budget():
    with pytest.raises(SizeBudgetError):
        bar_resolution(symmetric(3), 5, max_zrank=2000)


def test_validate_passes_for_constructors():
    for res in (periodic_cyclic_resolution(3, 5),
                bar_resolution(dihedral(2), 3),
                syzygy_resolution(symmetric(3), 4)):
        rep = validate_resolution(res)
        assert rep.passed, rep.first_failure


def test_constructor_rejects_broken_complex():
    # d_2 = t - 1 does not compose to zero after d_1 = t - 1
    g = cyclic(2)
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    from tatejoin import ZGMatrix
    d1 = ZGMatrix.from_rows(g, [[t - e]])
    with pytest.raises(ResolutionError) as err:
        Resolution(g, [1, 1, 1], [d1, d1], [1])
    assert "degree 2" in str(err.value)


def _t_minus_1(order, ncols=1):
    g = cyclic(order)
    d = GroupRingElement.basis(g, 1) - GroupRingElement.basis(g, 0)
    return ZGMatrix(g, 1, [{0: d}] * ncols)


@pytest.mark.parametrize("ranks, diffs, aug, match", [
    ([], [], [], "ranks must be a nonempty list"),
    ([1, -1], [], [1], "ranks must be a nonempty list"),
    ([1, 1], [], [1], "expected 1 differentials for 2 ranks, got 0"),
    ([1], [], [1, 1], "augmentation length must equal rank in degree 0"),
    ([1, 1], [_t_minus_1(3)], [1], "differential 1 has the wrong group"),
    ([1, 1], [_t_minus_1(2, 2)], [1],
     "differential 1 has shape 1x2, expected 1x1"),
], ids=["no ranks", "negative rank", "differential count",
        "augmentation length", "wrong group", "wrong shape"])
def test_constructor_names_shape_errors(ranks, diffs, aug, match):
    with pytest.raises(ResolutionError, match=match):
        Resolution(cyclic(2), ranks, diffs, aug)


def test_constructor_rejects_augmentation_not_killing_d1():
    # d_1 = [e] on C2: eps o d_1 sends the basis vector to 1, not 0
    g = cyclic(2)
    d1 = ZGMatrix.from_rows(g, [[GroupRingElement.basis(g, 0)]])
    with pytest.raises(ResolutionError, match=r"augmentation does not kill "
                                              r"differential 1 \(column 0\)"):
        Resolution(g, [1, 1], [d1], [1])


def test_validate_reads_the_constructor_certificates(monkeypatch):
    # d o d = 0 was proved when the resolution was built; validation lists
    # it without composing a single pair of differentials again
    res = syzygy_resolution(symmetric(3), 5)

    def no_compose(self, other):
        pytest.fail("validate_resolution composed differentials")

    monkeypatch.setattr(ZGMatrix, "compose", no_compose)
    rep = validate_resolution(res)
    assert rep.passed, rep.first_failure
    assert [c["name"] for c in rep.checks] == [
        "eps o d_1 = 0", "d_1 o d_2 = 0", "d_2 o d_3 = 0", "d_3 o d_4 = 0",
        "d_4 o d_5 = 0", "augmentation onto Z", "exact at degree 0",
        "exact at degree 1", "exact at degree 2", "exact at degree 3",
        "exact at degree 4"]


def test_validate_flags_inexactness_with_degree():
    # d_2 = 2N composes to zero with d_1 = t - 1 but misses half the kernel
    g = cyclic(2)
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    from tatejoin import ZGMatrix
    d1 = ZGMatrix.from_rows(g, [[t - e]])
    d2 = ZGMatrix.from_rows(g, [[norm_element(g).scale(2)]])
    res = Resolution(g, [1, 1, 1], [d1, d2], [1])
    rep = validate_resolution(res)
    assert not rep.passed
    assert "degree 1" in rep.first_failure


def _c2_complex(*maps):
    """The C2 complex of rank-1 modules with differentials d_1, d_2, ..."""
    g = cyclic(2)
    e, t = GroupRingElement.basis(g, 0), GroupRingElement.basis(g, 1)
    named = {"t-1": t - e, "2(t-1)": (t - e).scale(2), "N": norm_element(g)}
    return Resolution(g, [1] * (len(maps) + 1),
                      [ZGMatrix.from_rows(g, [[named[d]]]) for d in maps], [1])


@pytest.mark.parametrize("maps, degree", [
    # im 2(t-1) has index 2 in ker eps = (t-1), exact everywhere above
    (("2(t-1)", "N", "t-1", "N"), 0),
    # im 2(t-1) has index 2 in ker N = (t-1) at degree 2 only
    (("t-1", "N", "2(t-1)", "N", "t-1"), 2),
])
def test_validate_fails_exactly_the_inexact_degree(maps, degree):
    rep = validate_resolution(_c2_complex(*maps))
    failed = [c["name"] for c in rep.checks if not c["passed"]]
    assert failed == [f"exact at degree {degree}"]
    assert [c["name"] for c in rep.checks if c["name"].startswith("exact")] \
        == [f"exact at degree {k}" for k in range(len(maps))]
    # the ranks add up (1 + 1 = 2); the factor 2 is what fails
    assert rep.first_failure == (
        f"exact at degree {degree}: nonunit invariant factors 2 of "
        f"z(d_{degree + 1})")


def test_a_zero_augmentation_is_not_exact_at_degree_zero():
    # eps = 0 kills everything, so the image of d_1 = t - 1 is not its kernel
    g = cyclic(2)
    d1 = ZGMatrix.from_rows(g, [[GroupRingElement.basis(g, 1)
                                 - GroupRingElement.basis(g, 0)]])
    rep = validate_resolution(Resolution(g, [1, 1], [d1], [0]))
    assert [c["name"] for c in rep.checks if not c["passed"]] == [
        "augmentation onto Z", "exact at degree 0"]
    assert rep.checks[-1]["detail"] == \
        "rank z(d_0) + rank z(d_1) = 0 + 1 != 2"


def test_save_load_round_trip(tmp_path):
    res = syzygy_resolution(quaternion8(), 5)
    path = str(tmp_path / "q8.json")
    res.save(path)
    loaded = load_resolution(path)
    assert loaded == res
    assert loaded.ranks == res.ranks


def test_computed_s4_resolution_reloads(tmp_path):
    # validating this file eliminates a degree-5 block which, stopped at
    # 25% fill, leaves a 63x87 part whose exact Smith form grows entries
    # past 10^5 bits; the load must finish without such a form
    res = syzygy_resolution(symmetric(4), 5)
    path = str(tmp_path / "s4.json")
    res.save(path)
    loaded = load_resolution(path)
    assert loaded.ranks == (1, 2, 3, 3, 3, 4)
    assert [homology(loaded, n).invariant_factors for n in range(1, 5)] == \
        [[2], [2], [2, 12], [2]]


def test_load_rejects_doctored_file(tmp_path):
    res = periodic_cyclic_resolution(4, 4)
    path = str(tmp_path / "c4.json")
    res.save(path)
    doc = json.load(open(path))
    doc["differentials"][2][0][0][0] += 1
    bad = str(tmp_path / "bad.json")
    json.dump(doc, open(bad, "w"))
    with pytest.raises((ResolutionError, SchemaError)) as err:
        load_resolution(bad)
    assert "degree" in str(err.value)


def test_load_rejects_schema_garbage(tmp_path):
    path = str(tmp_path / "junk.json")
    json.dump({"ranks": [1]}, open(path, "w"))
    with pytest.raises(SchemaError):
        load_resolution(path)


def test_shipped_q8_fixture_is_periodic():
    res = load_resolution(os.path.join(FIXTURES, "q8_periodic.json"))
    assert res.group.order == 8
    assert res.ranks == (1, 2, 2, 1, 1, 2, 2, 1, 1, 2)
    for k in range(5, res.depth + 1):
        assert res.differential(k) == res.differential(k - 4)
    assert validate_resolution(res).passed


def test_syzygy_c4_agrees_with_periodic_pattern():
    res = syzygy_resolution(cyclic(4), 5)
    rep = validate_resolution(res)
    assert rep.passed, rep.first_failure
    assert res.ranks == (1, 1, 1, 1, 1, 1)


def test_syzygy_entries_stay_small():
    # kernel covers are LLL-reduced; without that, entries compound
    # exponentially with the degree on rank-2 elementary abelian groups
    from tatejoin import from_permutations
    g = from_permutations(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]],
                          label="C3xC3")
    res = syzygy_resolution(g, 6)
    assert res.ranks == (1, 2, 3, 4, 5, 6, 7)
    worst = 0
    for k in range(1, res.depth + 1):
        d = res.differential(k)
        for i in range(d.nrows):
            for j in range(d.ncols):
                worst = max(worst, max(abs(c) for c in d.get(i, j).c))
    assert worst <= 4


# -- joins ---------------------------------------------------------------------

def test_syzygy_cover_ignores_the_kernel_basis_given(monkeypatch):
    # the cover reads the reduced echelon basis of the kernel lattice, which
    # every basis of the kernel yields; a unimodular recombination of the
    # Hermite kernel basis must not change a single coefficient
    want = syzygy_resolution(symmetric(3), 6).to_json()
    real = resolutions.kernel_basis
    changed = []

    def recombined(cols, nrows):
        basis = real(cols, nrows)
        out = [dict(v) for v in basis]
        rng = random.Random(len(out))
        for _ in range(3 * len(out)):
            if len(out) > 1:
                i, j = rng.sample(range(len(out)), 2)
                c = rng.choice([-2, -1, 1, 2])
                out[i] = {k: out[i].get(k, 0) + c * out[j].get(k, 0)
                          for k in out[i].keys() | out[j].keys()}
                out[i] = {k: v for k, v in out[i].items() if v}
        out.reverse()
        changed.append(out != basis)
        return out

    monkeypatch.setattr(resolutions, "kernel_basis", recombined)
    assert syzygy_resolution(symmetric(3), 6).to_json() == want
    assert len(changed) == 6 and all(changed)


def test_syzygy_cover_certificate_is_live(monkeypatch):
    # a greedy pass that takes every candidate as covered picks nothing;
    # the basis-equality certificate must catch it, as a named error
    monkeypatch.setattr(IntegerLattice, "contains", lambda self, vec: True)
    with pytest.raises(InternalCheckError, match="orbit cover missed"):
        syzygy_resolution(symmetric(3), 3)


def c3xc3():
    return from_permutations(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]])


def test_syzygy_reverse_delete_certificate_is_live(monkeypatch):
    # an exact drop test that finds every generator redundant drops one that
    # C3xC3 needs, where |G| is odd and no F_2 deficit proves it needed; the
    # survivors' basis comparison must catch it, as a named error
    monkeypatch.setattr(resolutions, "_spans_kernel",
                        lambda full, orbits, idxs, rank2: rank2 >= full.rank)
    with pytest.raises(InternalCheckError, match="reverse-delete"):
        syzygy_resolution(c3xc3(), 3)


@pytest.mark.parametrize("make", [lambda: dihedral(4), c3xc3])
def test_syzygy_cover_survives_a_lying_f2_rank(monkeypatch, make):
    # an F_2 helper that finds every span deficient sends every orbit rank
    # to Bareiss and makes every generator look needed: nothing is dropped,
    # and the resolution is still exact, with the same homology
    want = syzygy_resolution(make(), 5)
    monkeypatch.setattr(resolutions, "f2_rank", lambda masks: 0)
    got = syzygy_resolution(make(), 5)
    assert validate_resolution(got).passed
    assert all(a >= b for a, b in zip(got.ranks, want.ranks))
    assert [homology(got, n).invariant_factors for n in range(1, 5)] == \
        [homology(want, n).invariant_factors for n in range(1, 5)]


RESOLVE_GROUPS = {
    "D4": (lambda: dihedral(4), 7),
    "S3": (lambda: symmetric(3), 8),
    "Q8": (quaternion8, 8),
    "C2^3": (lambda: from_permutations(6, [[1, 0, 2, 3, 4, 5],
                                           [0, 1, 3, 2, 4, 5],
                                           [0, 1, 2, 3, 5, 4]]), 4),
    "S4": (lambda: symmetric(4), 5),
}


@pytest.mark.parametrize("name", RESOLVE_GROUPS)
def test_syzygy_f2_shortcuts_agree_with_exact_oracles(monkeypatch, name):
    # every orbit rank the cover takes (from F_2 bounds or pivot columns)
    # equals full-width Bareiss, and every generator an F_2 deficit keeps is
    # also needed by an exact lattice built here
    ranks, deficits = [], []
    orbit_rank = resolutions._orbit_rank
    spans_kernel = resolutions._spans_kernel

    def recorded_rank(orbit, masks, pivots):
        ranks.append((orbit, orbit_rank(orbit, masks, pivots)))
        return ranks[-1][1]

    def recorded_spans(full, orbits, idxs, rank2):
        if rank2 < full.rank:
            deficits.append((full, [orbits[t] for t in idxs]))
        return spans_kernel(full, orbits, idxs, rank2)

    monkeypatch.setattr(resolutions, "_orbit_rank", recorded_rank)
    monkeypatch.setattr(resolutions, "_spans_kernel", recorded_spans)
    make, depth = RESOLVE_GROUPS[name]
    syzygy_resolution(make(), depth)
    assert ranks and deficits
    for orbit, rank in ranks:
        width = 1 + max(j for vec in orbit for j in vec)
        dense = [[vec.get(j, 0) for j in range(width)] for vec in orbit]
        assert rank == _rank_and_minor(IntMatrix(dense))[0]
    for full, orbits in deficits:
        lat = IntegerLattice()
        for vec in (vec for orbit in orbits for vec in orbit):
            lat.add(vec)
        assert lat.rows != full.rows


# sha256 of json.dumps(to_json(), sort_keys=True).  A change of any of these
# is a change of the generators the cover chooses, which must be announced.
PINNED_SYZYGY = {
    "D4": (lambda: dihedral(4), 9,
           "59dc90d26e86888ce91ed02d610d9d1f4328dd42c946753a652aa9020550df93"),
    "S3": (lambda: symmetric(3), 10,
           "da8794b7caf5f31c63482c6837f7dc2db6b7f1d8dac2570d21d0496212ea5d96"),
    "Q8": (quaternion8, 8,
           "d45293482bb8494bc4118bfed495a75626d225b1b4540e020349aef1dcea28ba"),
    "C2^3": (lambda: from_permutations(6, [[1, 0, 2, 3, 4, 5],
                                           [0, 1, 3, 2, 4, 5],
                                           [0, 1, 2, 3, 5, 4]]), 5,
             "44c9897498cd9945b5a8366f6c76da804ec64b4aca3729725428a20517be4c5e"),
    "S4": (lambda: symmetric(4), 6,
           "6b7121bec968a0e9c968ce9c78eb44f464522f7e721f23303128ea7d17d69ec3"),
    "A4": (lambda: from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]]), 6,
           "fbb3379212367da04daf57e08cc502f7cab964012ba40adc00faeda7e26eee67"),
    "C4xC4": (lambda: from_permutations(8, [[1, 2, 3, 0, 4, 5, 6, 7],
                                            [0, 1, 2, 3, 5, 6, 7, 4]]), 4,
              "bf33f54264f317ec976f5499a2db06388e2ea5fc202067d49ad59dc4d22d13f5"),
    "S3-relabelled": (lambda: from_permutations(3, [[1, 0, 2], [1, 2, 0]]), 10,
                      "4533cc58c73379cce1faa02dc1774ae6f8fb41df3e831ddfa8a0727a4b2904c2"),
    "C3xC3": (c3xc3, 6,
              "c0e6b6f6a03b85574d1d0ff768b9259b99c510d79fe3fd0cf6dd34a97371026d"),
}


@pytest.mark.parametrize("name", PINNED_SYZYGY)
def test_syzygy_resolutions_are_byte_identical(name):
    make, depth, digest = PINNED_SYZYGY[name]
    res = syzygy_resolution(make(), depth)
    text = json.dumps(res.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_join_rank_formula_c2():
    p = periodic_cyclic_resolution(2, 4)
    assert join_rank(p, p, 0) == 2
    assert join_rank(p, p, 1) == 4
    assert join_rank(p, p, 2) == 6
    j = join(p, p, 3)
    assert j.ranks[:3] == (2, 4, 6)
    for d in range(j.depth + 1):
        assert j.ranks[d] == join_rank(p, p, d) == len(j.bases[d])


def test_join_validates_as_resolution():
    p = periodic_cyclic_resolution(2, 4)
    rep = validate_resolution(join(p, p, 3))
    assert rep.passed, rep.first_failure


def test_join_basis_count_is_checked(monkeypatch):
    per = periodic_cyclic_resolution(2, 3)
    real = join_rank
    monkeypatch.setattr("tatejoin.resolutions.join_rank",
                        lambda P, Q, d: real(P, Q, d) + (d == 2))
    with pytest.raises(InternalCheckError, match="join basis"):
        join(per, per, 3)


def test_join_requires_depth():
    # depth-2 factors: their join is exact below degree 2 + 2 + 1 = 5, so
    # it is a resolution through degree 5 and no further
    p = periodic_cyclic_resolution(2, 2)
    rep = validate_resolution(join(p, p, 5))
    assert rep.passed, rep.first_failure
    with pytest.raises(ResolutionError):
        join(p, p, 6)


@pytest.mark.parametrize("name, build, n, m", [
    ("C4", lambda: periodic_cyclic_resolution(4, 3), 1, 3),
    ("S3/5", lambda: syzygy_resolution(symmetric(3), 5), 2, 1),
    ("D4/4", lambda: syzygy_resolution(dihedral(4), 4), 1, 2),
    ("Q8", lambda: load_resolution(os.path.join(FIXTURES, "q8_periodic.json")),
     2, 2),
])
def test_box_join_is_a_resolution(name, build, n, m):
    # the join of the n- and m-skeleta is exact below degree n+m+1
    res = build()
    Pn, Pm = res.truncated(n), res.truncated(m)
    assert (Pn.depth, Pm.depth) == (n, m)
    assert Pn.diffs == res.diffs[:n] and Pm.aug == res.aug
    J = join(Pn, Pm, n + m + 1)
    for d in range(J.depth + 1):
        assert J.ranks[d] == join_rank(Pn, Pm, d) == len(J.bases[d])
    rep = validate_resolution(J)
    assert rep.passed, (name, rep.first_failure)


def test_truncation_outside_depth_is_refused():
    res = periodic_cyclic_resolution(2, 3)
    assert res.truncated(3) is res
    for k in (-1, 4):
        with pytest.raises(ResolutionError,
                           match=f"must be an integer in 0..3, got {k}"):
            res.truncated(k)


def test_join_budget():
    b = bar_resolution(symmetric(3), 3)
    with pytest.raises(SizeBudgetError):
        join(b, b, 3, max_zrank=500)


def test_include_cycle_tensor_c2_coordinates():
    # x = N.e in P_1, y = e in P_1: after untwisting, coefficient 1 as a
    # multiple of u on basis (2, 0, u, 0) for u in {e, t}; boundary is
    # nonzero at chain level but dies after tensoring down
    p = periodic_cyclic_resolution(2, 4)
    g = p.group
    j = join(p, p, 3)
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    x = {0: norm_element(g)}
    y = {0: e}
    w = include_cycle_tensor(j, x, 1, y, 1)
    assert all(0 <= pos < j.ranks[3] for pos in w)
    expect = {(2, 0, 0, 0): e, (2, 0, 1, 0): t}
    for pos, basis_tuple in enumerate(j.bases[3]):
        assert w.get(pos, GroupRingElement.zero(g)) == \
            expect.get(basis_tuple, GroupRingElement.zero(g))
    bdry = j.apply_differential(3, w)
    assert any(not a.is_zero() for a in bdry.values())
    assert down_vector(bdry) == {}


def test_include_cycle_tensor_depth_guard():
    p = periodic_cyclic_resolution(2, 2)
    j = join(p, p, 2)
    g = p.group
    with pytest.raises(ResolutionError):
        include_cycle_tensor(j, {0: norm_element(g)}, 1,
                             {0: GroupRingElement.basis(g, 0)}, 1)


# -- the down complex -----------------------------------------------------------

def _down_from_expansion(res, k):
    """D_k read off the z-expansion of d_k: entry (i, j) is the sum over u
    of block entry ((i, u), (j, identity)), the augmentation of d_k[i, j]."""
    z = z_expansion(res.differential(k))
    w = res.group.order
    cols = []
    for j in range(res.ranks[k]):
        col = {}
        for i in range(res.ranks[k - 1]):
            v = sum(z[i * w + u, j * w] for u in range(w))
            if v:
                col[i] = v
        cols.append(col)
    return cols


def test_down_matrix_matches_expansion():
    d4 = syzygy_resolution(dihedral(4), 3)
    for res in (periodic_cyclic_resolution(4, 5),
                bar_resolution(cyclic(3), 4),
                syzygy_resolution(symmetric(3), 6),
                join(d4, d4, 3)):
        for k in range(1, res.depth + 1):
            assert res.down_matrix(k) == _down_from_expansion(res, k), \
                (res, k)


def test_down_boundary_applies_the_columns():
    res = syzygy_resolution(symmetric(3), 4)
    for k in range(1, res.depth + 1):
        cols = _down_from_expansion(res, k)
        vec = [(-1) ** j * (j + 2) for j in range(res.ranks[k])]
        want = [sum(col.get(i, 0) * v for col, v in zip(cols, vec))
                for i in range(res.ranks[k - 1])]
        assert res.down_boundary(k, vec) == want


def test_down_boundary_rejects_wrong_length():
    res = syzygy_resolution(symmetric(3), 3)
    with pytest.raises(ResolutionError, match=f"of {res.ranks[2]} integers"):
        res.down_boundary(2, [1] * (res.ranks[2] + 1))
    with pytest.raises(ResolutionError, match=f"of {res.ranks[1]} integers"):
        res.down_boundary(1, [])
    with pytest.raises(ResolutionError):
        res.down_boundary(4, [])  # no differential beyond the depth


def test_failed_save_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        periodic_cyclic_resolution(3, 2).save(str(target))
    assert not os.path.exists(str(target) + ".tmp")


def test_apply_differential_and_tensor_inclusion_return_chains():
    p = periodic_cyclic_resolution(2, 4)
    g = p.group
    N, e = norm_element(g), GroupRingElement.basis(g, 0)
    zero = GroupRingElement.zero(g)
    # d_1 N = (t - 1) N = 0: the cancelled row is left out
    assert p.apply_differential(1, {0: N}) == {}
    assert p.apply_differential(1, {0: zero}) == {}
    j = join(p, p, 3)
    w = include_cycle_tensor(j, {0: N}, 1, {0: e}, 1)
    assert w and all(not v.is_zero() for v in w.values())
    bdry = j.apply_differential(3, w)
    assert bdry and all(not v.is_zero() for v in bdry.values())
    # explicit zeros are ignored, indices out of range are named
    assert include_cycle_tensor(j, {0: zero}, 1, {0: e}, 1) == {}
    for x, y, which in (({1: N}, {0: e}, "first"),
                        ({0: N}, {-1: e}, "second")):
        with pytest.raises(ResolutionError, match=f"{which} tensor factor"):
            include_cycle_tensor(j, x, 1, y, 1)


def test_huge_rank_in_a_resolution_file_is_refused_before_allocation():
    import tracemalloc
    with open(os.path.join(FIXTURES, "q8_periodic.json")) as fh:
        doc = json.load(fh)
    doc["ranks"][1] = 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="differential 1 row 0"):
            Resolution.from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a top rank over an empty degree is bounded by no list of the file
    empty_top = {"group": {"table": [[0]]}, "ranks": [1, 0, 10 ** 6],
                 "differentials": [[[]], []], "augmentation": [1]}
    with pytest.raises(SchemaError, match="no rows to bound"):
        Resolution.from_json(empty_top)


def test_builders_and_certificates_make_no_ring_elements(monkeypatch):
    # the bar and join builders emit the stored triples directly, and the
    # constructor's d o d and eps o d_1 certificates read them as they are
    P = syzygy_resolution(dihedral(4), 7)
    made = []
    real = GroupRingElement.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(GroupRingElement, "__init__", counted)
    bar = bar_resolution(cyclic(5), 5)
    box = join(P.truncated(3), P.truncated(3), 7)
    monkeypatch.undo()
    assert len(made) == 0
    assert bar.ranks == (1, 4, 16, 64, 256, 1024)
    assert box.depth == 7
