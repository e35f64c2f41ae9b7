"""Group tables, named families, and group-ring arithmetic.

Expected values are frozen from hand computations small enough to redo in
your head (convolution products over C_2 and C_3, the quaternion signs).
"""

import json

import pytest

from tatejoin import (FiniteGroup, GroupError, GroupRingElement, SchemaError,
                      augmentation, build_group, cyclic, dihedral,
                      from_permutations, norm_element, quaternion8, symmetric,
                      trivial)


def test_cyclic_table():
    g = cyclic(4)
    assert g.order == 4
    assert g.mul(1, 2) == 3
    assert g.mul(3, 2) == 1
    assert g.inv(1) == 3
    assert g.inv(0) == 0


def test_trivial_group():
    g = trivial()
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_dihedral_relations():
    # element i + n*j is r^i s^j; check s^2 = e and s r s = r^-1
    g = dihedral(4)
    assert g.order == 8
    s = 4
    r = 1
    assert g.mul(s, s) == 0
    assert g.mul(g.mul(s, r), s) == g.inv(r)


def test_symmetric_order_and_center():
    g = symmetric(3)
    assert g.order == 6
    center = [a for a in range(6)
              if all(g.mul(a, b) == g.mul(b, a) for b in range(6))]
    assert center == [0]


def test_quaternion_relations():
    g = quaternion8()
    # index order 1,-1,i,-i,j,-j,k,-k: i*i = -1, i*j = k, j*i = -k
    one, minus, i, j, k = 0, 1, 2, 4, 6
    assert g.mul(i, i) == minus
    assert g.mul(i, j) == k
    assert g.mul(j, i) == g.inv(k)
    assert g.mul(minus, minus) == one


def test_from_permutations_s3():
    g = from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    assert g.order == 6


def test_from_permutations_rejects_non_permutation():
    with pytest.raises(GroupError):
        from_permutations(3, [[0, 0, 2]])


def test_bad_table_rejected():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])  # second row not a bijection


def test_non_associative_table_rejected():
    # a latin square that is not a group table
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError):
        FiniteGroup(t)


def test_non_associative_table_of_order_66_rejected():
    # Z/66 with the intercalate at rows 1, 34 and columns 2, 35 swapped: a
    # latin square with identity 0 whose order is past any cubic scan
    t = [[(a + b) % 66 for b in range(66)] for a in range(66)]
    t[1][2], t[1][35] = t[1][35], t[1][2]
    t[34][2], t[34][35] = t[34][35], t[34][2]
    with pytest.raises(GroupError, match="associativity"):
        FiniteGroup(t)
    assert FiniteGroup([[(a + b) % 66 for b in range(66)]
                        for a in range(66)]).associativity_failure() is None


def test_build_group_specs():
    assert build_group("cyclic:5").order == 5
    assert build_group("dihedral:3").order == 6
    assert build_group("sym:4").order == 24
    assert build_group("q8").order == 8
    assert build_group("trivial").order == 1
    with pytest.raises(SchemaError):
        build_group("frieze:7")
    with pytest.raises(SchemaError):
        build_group("cyclic:x")


def test_build_group_from_files(tmp_path):
    table = tmp_path / "c3.json"
    table.write_text(json.dumps(cyclic(3).to_json()))
    assert build_group(f"file:{table}").order == 3

    perms = tmp_path / "v4.json"
    perms.write_text(json.dumps({
        "degree": 4, "label": "V4",
        "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}))
    g = build_group(f"file:{perms}")
    assert g.order == 4
    assert g.label == "V4"
    assert all(g.mul(a, a) == 0 for a in range(4))


def test_group_json_round_trip():
    g = dihedral(3)
    assert FiniteGroup.from_json(g.to_json()) == g


def test_group_json_schema_errors():
    with pytest.raises(SchemaError):
        FiniteGroup.from_json({"generators": [[1, 0]]})  # missing degree
    with pytest.raises(SchemaError):
        FiniteGroup.from_json({"order": 3, "table": [[0]]})


# -- group ring ---------------------------------------------------------------

def test_ring_multiply_c3():
    # (e + t)(e + t^2) = e + t^2 + t + e = 2e + t + t^2
    g = cyclic(3)
    a = GroupRingElement(g, [1, 1, 0])
    b = GroupRingElement(g, [1, 0, 1])
    assert (a * b).c == (2, 1, 1)


def test_ring_multiply_noncommutative():
    g = symmetric(3)
    x = GroupRingElement.basis(g, 1)
    y = GroupRingElement.basis(g, 2)
    assert x * y != y * x


def test_norm_absorbs():
    for g in (cyclic(4), symmetric(3), quaternion8()):
        n = norm_element(g)
        assert (n * n).c == tuple(g.order for _ in range(g.order))
        for a in range(g.order):
            assert n * GroupRingElement.basis(g, a) == n
            assert GroupRingElement.basis(g, a) * n == n


def test_norm_kills_augmentation_ideal():
    g = cyclic(2)
    t_minus_1 = GroupRingElement(g, [-1, 1])
    assert (t_minus_1 * norm_element(g)).is_zero()


def test_augmentation_is_ring_map():
    g = symmetric(3)
    a = GroupRingElement(g, [2, -1, 0, 3, 0, 1])
    b = GroupRingElement(g, [0, 1, 1, 0, -2, 0])
    assert augmentation(a) == 5
    assert augmentation(a * b) == augmentation(a) * augmentation(b)
    assert augmentation(a + b) == augmentation(a) + augmentation(b)


def test_invariant_iff_norm_multiple():
    g = cyclic(3)
    assert norm_element(g).scale(4).is_invariant()
    assert not GroupRingElement(g, [2, 2, 1]).is_invariant()


def test_scalar_arithmetic():
    g = cyclic(2)
    a = GroupRingElement(g, [3, -2])
    assert (2 * a).c == (6, -4)
    assert (a - a).is_zero()
    assert (-a).c == (-3, 2)


def _refused_or_trivial_cheaply(doc):
    """from_json on doc: its error or group, checked to take < 0.1 s, < 1 MB."""
    import time
    import tracemalloc
    tracemalloc.start()
    start = time.perf_counter()
    try:
        try:
            outcome = FiniteGroup.from_json(doc)
        except (GroupError, SchemaError) as e:
            outcome = e
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1 << 20, (elapsed, peak)
    return outcome


def test_a_long_cycle_is_refused_before_the_closure():
    # an orbit of n points means order >= n; the closure would store up to
    # 1024 elements of degree 10,000 before noticing
    import time
    import tracemalloc
    cycle = list(range(1, 10_000)) + [0]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(GroupError, match="orbit of 10000 points"):
            from_permutations(10_000, [cycle], label="long")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 5 << 20, (elapsed, peak)


def test_group_json_is_bounded_by_its_own_size():
    table = [[(i + j) % 1030 for j in range(1030)] for i in range(1030)]
    err = _refused_or_trivial_cheaply({"table": table})
    assert isinstance(err, GroupError) and "1024" in str(err)
    err = _refused_or_trivial_cheaply({"generators": [[1, 0]],
                                       "degree": 10 ** 6})
    assert isinstance(err, GroupError) and "not a permutation" in str(err)
    err = _refused_or_trivial_cheaply({"generators": [], "degree": -1})
    assert isinstance(err, SchemaError) and "'degree'" in str(err)
    for degree in (10 ** 6, 3 * 10 ** 6):
        g = _refused_or_trivial_cheaply({"generators": [], "degree": degree})
        assert isinstance(g, FiniteGroup) and g.order == 1


def _closure_on_all_points(degree, gens):
    """The group table of the closure acting on every point, fixed or not:
    breadth-first from the identity, (p*q)(i) = p(q(i)), as documented."""
    ident = tuple(range(degree))
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
                queue.append(q)
    return tuple(tuple(index[tuple(p[q[i]] for i in range(degree))]
                       for q in elems) for p in elems)


@pytest.mark.parametrize("degree, gens", [
    (4, [[1, 0, 2, 3], [1, 2, 3, 0]]),  # S4
    (6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]),  # C2^3
    # S3 on {2, 5, 7} times C2 on {1, 8}; 0, 3, 4 and 6 are fixed
    (9, [[0, 1, 5, 3, 4, 7, 6, 2, 8], [0, 1, 5, 3, 4, 2, 6, 7, 8],
         [0, 8, 2, 3, 4, 5, 6, 7, 1]]),
])
def test_closing_on_moved_points_keeps_the_table(degree, gens):
    g = from_permutations(degree, gens)
    assert g.table == _closure_on_all_points(degree, gens)


def _transpositions(count, degree):
    """count disjoint transpositions (2t 2t+1) acting on degree points."""
    gens = []
    for t in range(count):
        p = list(range(degree))
        p[2 * t], p[2 * t + 1] = 2 * t + 1, 2 * t
        gens.append(p)
    return gens


def test_short_orbits_above_the_cap_are_refused_cheaply(tmp_path, capsys):
    # order 2048 with orbits of 2: only the 22 moved points enter the closure
    import time
    import tracemalloc
    from tatejoin.cli import main
    gens = _transpositions(11, 10_000)
    # timed untraced, since tracemalloc slows every allocation down
    start = time.perf_counter()
    with pytest.raises(GroupError, match="exceeds the largest"):
        from_permutations(10_000, gens)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(GroupError, match="exceeds the largest"):
            from_permutations(10_000, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 5 << 20, (elapsed, peak)
    path = tmp_path / "short_orbits.json"
    path.write_text(json.dumps({"degree": 10_000, "generators": gens}))
    start = time.perf_counter()
    rc = main(["homology", "--group", f"file:{path}", "--degrees", "1"])
    elapsed = time.perf_counter() - start
    assert rc == 2 and elapsed < 0.5, (rc, elapsed)
    assert "1024" in capsys.readouterr().err


def test_fixed_points_cost_next_to_nothing():
    # order 1024 on its 20 moved points, then with 9,980 fixed points added
    import time

    def best_of_two(gens):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            g = from_permutations(len(gens[0]), gens)
            times.append(time.perf_counter() - start)
        return min(times), g

    t_moved, g_moved = best_of_two(_transpositions(10, 20))
    t_fixed, g_fixed = best_of_two(_transpositions(10, 10_000))
    assert g_moved.order == 1024 and g_fixed.table == g_moved.table
    assert t_fixed <= 1.5 * t_moved, (t_fixed, t_moved)
