"""Homology groups, the norm correspondence, and negative Tate degrees.

Two independent oracles anchor these values: the abelianization of G via
the relation matrix of its commutator quotient (columns e_a + e_b - e_ab,
whose integer cokernel is exactly G^ab) checks every H_1; the classical odd/
even pattern checks cyclic groups.  Everything else is structural: round
trips, boundary invariance, and cross-checks between the fast and slow paths.
"""

import os
import random

import pytest

import tatejoin.tate
from tatejoin import (GroupRingElement, IntMatrix, InternalCheckError,
                      Resolution, ResolutionError, SchemaError, ZERO,
                      ZGMatrix, bar_resolution, cyclic, dihedral, homology,
                      is_cycle, is_stably_zero, lift_vector, load_resolution,
                      norm_element, periodic_cyclic_resolution, phi,
                      phi_inverse, quaternion8, random_cycle,
                      smith_normal_form, symmetric, syzygy_resolution,
                      tate_group, trivial)
from tatejoin.tate import down_vector

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "tatejoin", "fixtures")


def abelianization_factors(group):
    """Oracle: invariant factors of G^ab from the relation lattice.

    The quotient of Z^G by the subgroup generated by e_a + e_b - e_{ab} is
    the abelianization (taking a = b = identity forces e_identity = 0, and
    commutators die by symmetry of addition).  Shares nothing with the
    resolution pipeline.
    """
    w = group.order
    cols = []
    for a in range(w):
        for b in range(w):
            col = [0] * w
            col[a] += 1
            col[b] += 1
            col[group.mul(a, b)] -= 1
            cols.append(col)
    relations = IntMatrix([[cols[j][i] for j in range(len(cols))]
                           for i in range(w)])
    return [d for d in smith_normal_form(relations, transforms=False)
            .invariant_factors if d != 1]


def test_cyclic_pattern_spot_checks():
    res = periodic_cyclic_resolution(5, 6)
    assert homology(res, 1).invariant_factors == [5]
    assert homology(res, 2).invariant_factors == []
    assert homology(res, 3).invariant_factors == [5]
    assert homology(res, 0).invariant_factors == [0]  # H_0 = Z


def test_h1_is_abelianization():
    for make_group, depth in ((symmetric(3), 2), (dihedral(4), 2),
                              (quaternion8(), 2), (cyclic(6), 2)):
        res = syzygy_resolution(make_group, depth)
        assert homology(res, 1).invariant_factors == \
            abelianization_factors(make_group), make_group.label


def test_abelianization_oracle_known_values():
    assert abelianization_factors(symmetric(3)) == [2]
    assert abelianization_factors(dihedral(4)) == [2, 2]
    assert abelianization_factors(quaternion8()) == [2, 2]
    assert abelianization_factors(cyclic(12)) == [12]


def test_dihedral_homology_table():
    res = syzygy_resolution(dihedral(4), 5)
    assert homology(res, 1).invariant_factors == [2, 2]
    assert homology(res, 2).invariant_factors == [2]
    assert homology(res, 3).invariant_factors == [2, 2, 4]
    assert homology(res, 4).invariant_factors == [2, 2]


def test_s3_homology_is_four_periodic():
    res = syzygy_resolution(symmetric(3), 6)
    values = [homology(res, n).invariant_factors for n in range(1, 6)]
    assert values == [[2], [], [6], [], [2]]


def test_homology_group_properties():
    res = syzygy_resolution(dihedral(4), 4)
    h = homology(res, 3)
    assert h.order == 16
    assert h.exponent == 4
    assert not h.is_trivial
    assert homology(res, 2).order == 2


def test_homology_depth_guard():
    res = periodic_cyclic_resolution(3, 3)
    homology(res, 2)
    with pytest.raises(ResolutionError):
        homology(res, 3)
    with pytest.raises(ResolutionError):
        homology(res, -1)


def c2_complex_with_free_h2():
    """Over C2: ranks (1,1,2,1), d_1 = t-1, d_2 = [N, 0], d_3 = [t-1; t-1].

    A complex that is not exact: H_2 = Z although D_2 = [2, 0] is nonzero,
    so classify needs a kernel basis of D_2 and not just the identity.
    """
    g = cyclic(2)
    t_minus_1 = GroupRingElement(g, (-1, 1))
    zero = GroupRingElement.zero(g)
    d1 = ZGMatrix.from_rows(g, [[t_minus_1]])
    d2 = ZGMatrix.from_rows(g, [[norm_element(g), zero]])
    d3 = ZGMatrix.from_rows(g, [[t_minus_1], [t_minus_1]])
    return Resolution(g, [1, 1, 2, 1], [d1, d2, d3], [1], label="free-H2")


def trivial_complex_with_torsion_and_free_h1():
    """Over the trivial group: ranks (1,3,1), d_1 = 0, d_2 = [2; 2; 0].

    H_1 = Z/2 + Z + Z, where the free generators must shed a torsion part
    to classify to unit tuples.
    """
    g = trivial()
    zero, two = GroupRingElement.zero(g), GroupRingElement(g, (2,))
    d1 = ZGMatrix.from_rows(g, [[zero, zero, zero]])
    d2 = ZGMatrix.from_rows(g, [[two], [two], [zero]])
    return Resolution(g, [1, 3, 1], [d1, d2], [1], label="tors+free-H1")


def engine_cases():
    """(name, resolution, degrees) for the classify-map properties."""
    yield "S3 computed", syzygy_resolution(symmetric(3), 4), [3]
    yield "C5 bar", bar_resolution(cyclic(5), 5), [1, 2, 3, 4]
    yield "D4 computed", syzygy_resolution(dihedral(4), 7), range(1, 7)
    yield "Q8 fixture", load_resolution(
        os.path.join(FIXTURES, "q8_periodic.json")), range(1, 9)
    yield "C2 free H_2", c2_complex_with_free_h2(), [0, 1, 2]
    yield "trivial Z/2+Z^2", trivial_complex_with_torsion_and_free_h1(), [0, 1]


def test_classify_units_and_boundaries():
    rng = random.Random(3)
    for name, res, degrees in engine_cases():
        for n in degrees:
            h = homology(res, n)
            assert len(h.generators) == len(h.invariant_factors)
            for i, gen in enumerate(h.generators):
                assert is_cycle(res, n, gen), (name, n, i)
                want = tuple(int(j == i) for j in range(len(h.generators)))
                assert h.classify(gen) == want, (name, n, i)
            # boundaries classify to zero
            bdry = res.down_boundary(
                n + 1, [rng.randrange(-3, 4) for _ in range(res.ranks[n + 1])])
            assert h.classify(bdry) == (0,) * len(h.invariant_factors)
            assert h.is_zero_class(h.classify(bdry))


def test_classify_is_additive_on_random_cycles():
    rng = random.Random(7)
    for name, res, degrees in engine_cases():
        for n in degrees:
            h = homology(res, n)
            for _ in range(3):
                z1, z2 = random_cycle(res, n, rng), random_cycle(res, n, rng)
                c1, c2 = h.classify(z1), h.classify(z2)
                want = tuple((a + b) % d if d else a + b for a, b, d in
                             zip(c1, c2, h.invariant_factors))
                got = h.classify([a + b for a, b in zip(z1, z2)])
                assert got == want, (name, n)


def test_free_summand_outside_degree_zero():
    res = c2_complex_with_free_h2()
    assert res.down_matrix(2) == [{0: 2}, {}]
    assert [homology(res, n).invariant_factors for n in range(3)] == \
        [[0], [2], [0]]
    h = homology(res, 2)
    (gen,) = h.generators
    assert gen in ([0, 1], [0, -1])
    assert h.classify([0, 3 * gen[1]]) == (3,)
    assert h.class_order(h.classify(gen)) == 0


def test_classify_factor_check_is_not_an_assert(monkeypatch):
    # the check must raise, not assert, so python -O cannot switch it off
    real = smith_normal_form

    def wrong_diagonal(A, transforms=True):
        dec = real(A, transforms)
        for i in range(min(dec.S.nrows, dec.S.ncols)):
            dec.S.data[i][i] *= 2
        return dec

    monkeypatch.setattr(tatejoin.tate, "smith_normal_form", wrong_diagonal)
    res = periodic_cyclic_resolution(4, 3)
    h = homology(res, 1)
    assert h.invariant_factors == [4]
    with pytest.raises(InternalCheckError):
        h.generators


def test_classify_rejects_non_cycles():
    res = periodic_cyclic_resolution(4, 4)
    h = homology(res, 2)
    with pytest.raises(ResolutionError):
        h.classify([1])  # d_2 = norm, so [1] is not a cycle
    # a wrong length is no cycle in any degree, not a bare ValueError
    res = syzygy_resolution(dihedral(4), 4)
    assert res.ranks[1] == 2
    for n in (1, 2):
        for coords in ([], [1], [0] * (res.ranks[n] + 1)):
            with pytest.raises(ResolutionError, match="not a cycle"):
                homology(res, n).classify(coords)
            with pytest.raises(ResolutionError, match="not a cycle"):
                phi_inverse(res, n, coords)
    # nor is a non-integer vector: half the H_1 generator of C6 was read as
    # a cycle of class (0.5,), and its lift stored a zero entry
    per = periodic_cyclic_resolution(3, 6)
    for coords in ([0.5], [1.0], ["1"], [None]):
        assert not is_cycle(per, 1, coords)
        with pytest.raises(ResolutionError, match="not a cycle"):
            homology(per, 1).classify(coords)
        with pytest.raises(ResolutionError, match="not a cycle"):
            phi_inverse(per, 1, coords)
        with pytest.raises(ResolutionError, match="not integral"):
            lift_vector(per, 1, coords)
        with pytest.raises(ResolutionError, match="not integers"):
            homology(per, 1).class_order(tuple(coords))
    assert is_cycle(per, 1, [2]) and lift_vector(per, 1, [0]) == {}


def test_class_order():
    res = syzygy_resolution(dihedral(4), 4)
    h = homology(res, 3)  # [2, 2, 4]
    assert h.class_order((1, 0, 0)) == 2
    assert h.class_order((0, 0, 1)) == 4
    assert h.class_order((0, 0, 2)) == 2
    assert h.class_order((0, 0, 0)) == 1


def test_wrong_length_coordinates_are_refused():
    # H_3(S3) = Z/6 takes one coordinate; no other length names a class
    h = homology(syzygy_resolution(symmetric(3), 4), 3)
    assert h.invariant_factors == [6]
    assert h.class_order((2,)) == 3 and h.is_zero_class((6,))
    for coords in ((), (1, 2), (1, 2, 3)):
        for query in (h.class_order, h.is_zero_class):
            with pytest.raises(ResolutionError, match="have length 1, got "
                               f"{len(coords)}"):
                query(coords)


def test_lift_then_down_is_identity():
    res = periodic_cyclic_resolution(3, 3)
    assert down_vector(lift_vector(res, 1, [7])) == {0: 7}


def test_phi_c2_generator():
    # N.e = e + t is the invariant cycle of the H_1 generator
    res = periodic_cyclic_resolution(2, 4)
    g = res.group
    h = homology(res, 1)
    x = phi_inverse(res, 1, [1])
    assert x.vector == {0: norm_element(g)}
    assert phi(x) == (1,)
    assert not is_stably_zero(x)


def test_phi_kills_doubled_generator():
    # 2 (e + t) represents 2 x generator = 0 in Z/2
    res = periodic_cyclic_resolution(2, 4)
    x = phi_inverse(res, 1, [2])
    assert is_stably_zero(x)
    assert phi(x) == (0,)


def test_phi_round_trip_generators():
    for res in (periodic_cyclic_resolution(2, 5),
                periodic_cyclic_resolution(3, 5),
                periodic_cyclic_resolution(4, 5)):
        for n in (1, 3):
            h = homology(res, n)
            for gen in h.generators:
                cls = h.classify(gen)
                x = phi_inverse(res, n, gen)
                assert phi(x) == cls
                assert phi(x, via_solver=True) == cls


def test_phi_boundary_shift_invariance():
    # phi(x + N d(s)) = phi(x): boundaries of invariant chains are stably zero
    res = syzygy_resolution(symmetric(3), 4)
    rng = random.Random(5)
    n = 3
    h = homology(res, n)
    gen = h.generators[0]
    x = phi_inverse(res, n, gen)
    s = [GroupRingElement(res.group,
                          [rng.randrange(-2, 3) for _ in range(6)])
         for _ in range(res.ranks[n + 1])]
    # N d(s) = d(N s): either order works, d is a module map
    shift = res.apply_differential(
        n + 1, {i: norm_element(res.group) * a for i, a in enumerate(s)})
    from tatejoin import InvariantCycle
    zero = GroupRingElement.zero(res.group)
    shifted = InvariantCycle(res, n, {
        i: x.vector.get(i, zero) + shift.get(i, zero)
        for i in range(res.ranks[n])})
    assert phi(shifted) == phi(x)


def test_phi_random_cycles_kernel_characterization():
    rng = random.Random(11)
    res = syzygy_resolution(quaternion8(), 5)
    for n in (1, 2, 3, 4):
        h = homology(res, n)
        for _ in range(10):
            z = random_cycle(res, n, rng)
            assert is_cycle(res, n, z)
            cls = h.classify(z)
            x = phi_inverse(res, n, z)
            assert phi(x) == cls
            assert is_stably_zero(x) == h.is_zero_class(cls)


def test_tate_degree_mapping():
    res = periodic_cyclic_resolution(4, 5)
    assert tate_group(res, -1) is ZERO
    assert ZERO.is_trivial and ZERO.order == 1
    assert tate_group(res, -2).invariant_factors == [4]
    assert tate_group(res, -3).invariant_factors == []
    assert tate_group(res, -4).invariant_factors == [4]


def test_tate_rejects_nonnegative_degrees():
    res = periodic_cyclic_resolution(4, 5)
    with pytest.raises(SchemaError):
        tate_group(res, 0)
    with pytest.raises(SchemaError):
        tate_group(res, 2)


def test_homology_same_on_bar_and_periodic():
    bar = bar_resolution(cyclic(4), 4)
    per = periodic_cyclic_resolution(4, 4)
    for n in range(4):
        assert homology(bar, n).invariant_factors == \
            homology(per, n).invariant_factors


def test_tate_chains_store_no_zero_entry():
    res = syzygy_resolution(dihedral(4), 4)
    g = res.group
    z = homology(res, 3).generators[-1]
    nonzero = {i: c for i, c in enumerate(z) if c}
    assert len(nonzero) < len(z)  # the generator has zero coordinates
    assert down_vector(lift_vector(res, 3, z)) == nonzero
    x = phi_inverse(res, 3, z)
    assert set(x.vector) == set(nonzero)
    assert down_vector(x.vector) == {i: 8 * c for i, c in nonzero.items()}
    t = GroupRingElement.basis(g, 1)
    assert down_vector({0: t - GroupRingElement.one(g), 1: t}) == {1: 1}


def test_invariant_cycle_ignores_zeros_and_names_bad_indices():
    from tatejoin import InvariantCycle
    res = syzygy_resolution(dihedral(4), 4)
    zero = GroupRingElement.zero(res.group)
    x = phi_inverse(res, 3, homology(res, 3).generators[-1])
    padded = {i: zero for i in range(res.ranks[3])}
    padded.update(x.vector)
    y = InvariantCycle(res, 3, padded)
    assert y.vector == x.vector
    assert phi(y) == phi(x) == phi(y, via_solver=True)
    assert InvariantCycle(res, 3, {0: zero}).vector == {}
    for bad in (res.ranks[3], -1):
        with pytest.raises(ResolutionError, match="index outside rank"):
            InvariantCycle(res, 3, {bad: zero})


def test_a_dense_list_is_not_an_invariant_cycle():
    from tatejoin import InvariantCycle, include_cycle_tensor, join
    res = periodic_cyclic_resolution(2, 4)
    dense = [norm_element(res.group)]
    with pytest.raises(ResolutionError, match=r"mapping \{index: element\}"):
        InvariantCycle(res, 1, dense)
    x = phi_inverse(res, 1, homology(res, 1).generators[0]).vector
    J = join(res, res, 3)
    for args in ((dense, 1, x, 1), (x, 1, dense, 1)):
        with pytest.raises(ResolutionError,
                           match=r"mapping \{index: element\}"):
            include_cycle_tensor(J, *args)


# -- the reduced down complex ---------------------------------------------------
#
# D_k is eliminated without its rows that are pivot columns of D_{k-1}, and
# validate_resolution does the same on the z-expansion.  Both must keep every
# rank and every nonunit invariant factor of the full matrices.

def _d4_join_box():
    from tatejoin import join
    res = syzygy_resolution(dihedral(4), 7)
    return join(res.truncated(3), res.truncated(3), 7)


def _c2_cubed():
    from tatejoin import from_permutations
    return from_permutations(6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5],
                                 [0, 1, 2, 3, 5, 4]])


REDUCED_CASES = {
    **{f"bar C{n}": (lambda n=n: bar_resolution(cyclic(n), 6 if n == 5
                                                else 5)) for n in range(2, 7)},
    "bar S3/4": lambda: bar_resolution(symmetric(3), 4),
    "D4/9": lambda: syzygy_resolution(dihedral(4), 9),
    "S3/10": lambda: syzygy_resolution(symmetric(3), 10),
    "C2^3/5": lambda: syzygy_resolution(_c2_cubed(), 5),
    "S4/6": lambda: syzygy_resolution(symmetric(4), 6),
    "Q8 fixture": lambda: load_resolution(
        os.path.join(FIXTURES, "q8_periodic.json")),
    "D4/7 join box": _d4_join_box,
}


@pytest.mark.parametrize("name", REDUCED_CASES)
def test_reduced_down_complex_keeps_ranks_and_factors(name):
    from tatejoin.intlinalg import sparse_invariant_factors
    from tatejoin.tate import _rank_and_factors
    res = REDUCED_CASES[name]()
    for k in range(1, res.depth + 1):
        full = sparse_invariant_factors(res.down_matrix(k), res.ranks[k - 1])
        assert _rank_and_factors(res, k)[:2] == full[:2], (name, k)


@pytest.mark.parametrize("name", REDUCED_CASES)
def test_validation_reduces_the_expansion_keeping_ranks_and_factors(
        monkeypatch, name):
    from tatejoin import resolutions, validate_resolution
    from tatejoin.intlinalg import sparse_invariant_factors
    res = REDUCED_CASES[name]()
    seen = []

    def recording(cols, nrows, drop):
        out = sparse_invariant_factors(cols, nrows, drop)
        seen.append(out)
        return out

    monkeypatch.setattr(resolutions, "sparse_invariant_factors", recording)
    assert validate_resolution(res).passed
    assert len(seen) == res.depth
    for k, got in enumerate(seen, start=1):
        full = sparse_invariant_factors(res.differential(k).z_columns(),
                                        res.ranks[k - 1] * res.group.order)
        assert got[:2] == full[:2], (name, k)


def test_reduction_reaches_the_eliminator(monkeypatch):
    # a structural guard on the gain: D_6 of bar(C5) has 1,024 rows, and
    # the 204 pivot columns of D_5 are dropped as it is eliminated
    from tatejoin.intlinalg import sparse_invariant_factors
    rows = {}

    def recording(cols, nrows, drop):
        drop = set(drop)
        rows[len(cols)] = len({i for col in cols for i in col
                               if i not in drop})
        return sparse_invariant_factors(cols, nrows, drop)

    monkeypatch.setattr(tatejoin.tate, "sparse_invariant_factors", recording)
    res = bar_resolution(cyclic(5), 6)
    assert homology(res, 5).invariant_factors == [5]
    assert rows[res.ranks[6]] <= 820


def test_a_doctored_pivot_column_never_passes_silently():
    # drop one row too many from D_{n+1}, trying the non-pivot columns of
    # D_n in order: the answer stays right (the row was redundant) until
    # the generators, which eliminate the full D_{n+1}, refuse one
    from tatejoin.tate import _rank_and_factors
    res = bar_resolution(cyclic(5), 6)
    truth = {n: homology(res, n).invariant_factors for n in range(1, 6)}
    for n in range(1, 6):
        pivots = _rank_and_factors(res, n).pivot_cols
        for extra in sorted(set(range(res.ranks[n])) - set(pivots))[:3]:
            res._hcache.clear()
            entry = _rank_and_factors(res, n)
            res._hcache["rf", n] = entry._replace(
                pivot_cols=entry.pivot_cols + [extra])
            try:
                h = homology(res, n)
                h.generators
            except InternalCheckError:
                break
            assert h.invariant_factors == truth[n], (n, extra)
        else:
            pytest.fail(f"no doctored pivot column refused in degree {n}")
