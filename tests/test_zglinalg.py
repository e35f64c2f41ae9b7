"""Matrices over the group ring and the expansion to integer matrices.

The z-expansion examples are frozen from applying each matrix entry to the
group-element basis by hand; solver answers are verified by multiplying
back, never by comparing against the solver itself.
"""

import random
from types import SimpleNamespace

import pytest

import tatejoin.intlinalg
from oracles import flatten_vector, matmul, unflatten_vector, z_expansion
from tatejoin import (ComparisonLift, GroupRingElement, InternalCheckError,
                      SizeBudgetError, ZGMatrix, ZGSolver, cyclic, dihedral,
                      homology, norm_element, phi, phi_inverse, symmetric,
                      syzygy_resolution)
from tatejoin.intlinalg import NoSolution
from tatejoin.zglinalg import _elements, check_zrank


def c2_elems():
    g = cyclic(2)
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    return g, e, t


def test_z_expansion_t_minus_1():
    # right multiplication by (t - 1) on basis {e, t}: e -> t - e, t -> e - t
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[t - e]])
    assert z_expansion(m).data == [[-1, 1], [1, -1]]


def test_z_expansion_norm_functoriality():
    # (t - 1) N = 0, so the expansions must multiply to the zero matrix
    g, e, t = c2_elems()
    a = ZGMatrix.from_rows(g, [[t - e]])
    b = ZGMatrix.from_rows(g, [[norm_element(g)]])
    prod = a.compose(b)
    assert prod.is_zero()
    ea, eb = z_expansion(a), z_expansion(b)
    assert all(v == 0 for row in matmul(ea, eb).data for v in row)


def test_z_columns_match_expansion():
    g = symmetric(3)
    a = GroupRingElement(g, [1, -2, 0, 0, 3, 0])
    m = ZGMatrix.from_rows(g, [[a, a * a], [GroupRingElement.zero(g), a]])
    dense = z_expansion(m)
    sparse = m.z_columns()
    assert len(sparse) == dense.ncols
    for j, col in enumerate(sparse):
        for i in range(dense.nrows):
            assert col.get(i, 0) == dense.data[i][j]


def test_apply_matches_expansion():
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[t - e, norm_element(g)], [e, t]])
    vec = {0: e + t, 1: t.scale(3)}
    flat_in = flatten_vector(vec, 2, 2)
    out = m.apply(vec)
    assert flatten_vector(out, 2, 2) == z_expansion(m).apply(flat_in)


def test_flatten_round_trip():
    g = symmetric(3)
    vec = {0: GroupRingElement(g, [1, 0, -2, 0, 0, 5])}
    assert unflatten_vector(flatten_vector(vec, 2, 6), g, 2) == vec


def flat(b, g):
    """A chain {i: element} in the solver's right-hand side form,
    {i * |G| + u: c}, zero coefficients kept as explicit zeros."""
    return {i * g.order + u: c for i, a in b.items() for u, c in enumerate(a.c)}


def solve(m, b):
    """ZGSolver(m) on the chain b, and its stored triples read back as a
    chain."""
    x = ZGSolver(m).solve(flat(b, m.group))
    return x if x is NoSolution else _elements(m.group, x)


def test_solver_norm_equation():
    # [N] x = [e + t] has solution x = [e] (among others); verify by product
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[norm_element(g)]])
    x = solve(m, {0: e + t})
    assert x is not NoSolution
    assert m.apply(x) == {0: e + t}


def test_solver_no_solution():
    # nothing times N hits e: augmentations of N-multiples are even
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[norm_element(g)]])
    assert solve(m, {0: e}) is NoSolution


def test_solver_two_by_two():
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[t, e - t], [GroupRingElement.zero(g), e + t]])
    b = [t + e.scale(2), (e + t).scale(2)]
    x = m.apply({0: e + t, 1: e.scale(2)})
    got = solve(m, x)
    assert got is not NoSolution
    assert m.apply(got) == x
    del b


def test_matrix_equality_and_compose_shapes():
    g, e, t = c2_elems()
    a = ZGMatrix.from_rows(g, [[e, t]])
    b = ZGMatrix.from_rows(g, [[t], [e]])
    assert a.compose(b).get(0, 0) == t.scale(2)
    with pytest.raises(ValueError):
        b.compose(b)


def test_check_zrank_budget():
    g = symmetric(3)
    check_zrank(g, [100], 1000)
    with pytest.raises(SizeBudgetError) as err:
        check_zrank(g, [100, 200], 1000)
    assert err.value.needed > err.value.budget


def s3_matrix(rng, nrows, ncols):
    """A matrix over Z[S3] with non-monomial entries and some zeros."""
    g = symmetric(3)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < 0.25:
                row.append(GroupRingElement.zero(g))
            else:
                c = [0] * g.order
                for h in rng.sample(range(g.order), rng.randrange(2, 5)):
                    c[h] = rng.choice([-3, -2, -1, 1, 2, 3])
                row.append(GroupRingElement(g, c))
        rows.append(row)
    return ZGMatrix.from_rows(g, rows)


def test_compose_order_matches_expansion_over_s3():
    # S3 is noncommutative, so swapping the factors of any entry product
    # breaks the functoriality of the expansion
    rng = random.Random(7)
    for shape in [(2, 3, 4), (3, 1, 2), (1, 4, 3), (3, 3, 3)]:
        a = s3_matrix(rng, shape[0], shape[1])
        b = s3_matrix(rng, shape[1], shape[2])
        prod = a.compose(b)
        assert (prod.nrows, prod.ncols) == (shape[0], shape[2])
        assert (z_expansion(prod).data
                == matmul(z_expansion(a), z_expansion(b)).data)
        for i in range(shape[0]):
            for k in range(shape[2]):
                want = GroupRingElement.zero(a.group)
                for j in range(shape[1]):
                    want = want + b.get(j, k) * a.get(i, j)
                assert prod.get(i, k) == want


def test_column_and_apply_match_expansion_over_s3():
    rng = random.Random(8)
    g = symmetric(3)
    for nrows, ncols in [(2, 3), (4, 1), (3, 5)]:
        m = s3_matrix(rng, nrows, ncols)
        dense = z_expansion(m)
        for j in range(ncols):
            col = m.column(j)
            # column (j, identity) of the expansion holds column j verbatim
            for i in range(nrows):
                block = [dense.data[i * g.order + u][j * g.order]
                         for u in range(g.order)]
                if any(block):
                    assert col[i].c == tuple(block)
                else:
                    assert i not in col
        vec = s3_matrix(rng, ncols, 1).column(0)
        out = m.apply(vec)
        assert (flatten_vector(out, nrows, g.order)
                == dense.apply(flatten_vector(vec, ncols, g.order)))


def test_constructor_drops_zeros_and_views_are_read_only():
    g = symmetric(3)
    a = GroupRingElement(g, [1, 0, -2, 0, 0, 5])
    zero = GroupRingElement.zero(g)
    cols = [{0: zero}, {2: a, 1: zero}]
    m = ZGMatrix(g, 3, cols)
    assert (m.nrows, m.ncols) == (3, 2)
    assert dict(m.column(0)) == {}
    assert dict(m.column(1)) == {2: a}
    assert dict(m.entries) == {(2, 1): a}
    assert m.get(1, 1) == zero
    # the matrix keeps its own copy of the columns it was given
    cols[1][0] = a
    assert dict(m.column(1)) == {2: a}
    z = ZGMatrix(g, 3, [{2: zero}, {}])
    assert z.is_zero() and len(z.entries) == 0
    # both views read the column store and refuse writes
    with pytest.raises(TypeError):
        m.column(0)[0] = a
    with pytest.raises(TypeError):
        m.entries[(0, 0)] = a


def test_shape_and_index_errors_are_named():
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[e, t]])
    with pytest.raises(ValueError):
        ZGMatrix(g, 1, [{1: e}])
    with pytest.raises(ValueError):
        ZGMatrix(g, 1, [{-1: e}])
    with pytest.raises(ValueError):
        ZGMatrix(g, 1, [{0: GroupRingElement.one(symmetric(3))}])
    with pytest.raises(ValueError):
        m.get(0, 2)
    with pytest.raises(ValueError):
        ZGMatrix.from_rows(g, [[e, t], [e]])
    with pytest.raises(ValueError):
        m.apply({2: e})
    with pytest.raises(ValueError):
        unflatten_vector([1, 0, 1], g, 2)
    with pytest.raises(ValueError):
        solve(m, {0: e, 1: t})
    # a flat key is named by its Z[G] row, zero or not
    for key, row in ((2, 1), (3, 1), (-1, -1), (7, 3)):
        for c in (1, 0):
            with pytest.raises(ValueError, match=f"row {row} out of range"):
                ZGSolver(m).solve({0: 1, key: c})
    # operands from another group ring of the same order must not be
    # multiplied through this group's table
    s3 = symmetric(3)
    c6 = cyclic(6)
    one6 = GroupRingElement.one(c6)
    a6 = ZGMatrix.from_rows(c6, [[one6]])
    a_s3 = ZGMatrix.from_rows(s3, [[GroupRingElement.one(s3)]])
    with pytest.raises(ValueError):
        a6.compose(a_s3)
    with pytest.raises(ValueError):
        a6.apply({0: GroupRingElement.one(s3)})
    with pytest.raises(ValueError):
        ZGMatrix.from_rows(g, [[e]]).compose(a_s3)
    with pytest.raises(ValueError):
        ZGMatrix.from_rows(g, [[e]]).apply({0: GroupRingElement.one(s3)})


def test_zg_solver_check_is_not_an_assert(monkeypatch):
    # a wrong integer solution must raise, not assert, so python -O cannot
    # switch the check off
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[norm_element(g)]])
    real = tatejoin.intlinalg.IntegerSolver.solve

    def off_by_one(self, b):
        x = real(self, b)
        return x if x is NoSolution else {**x, 0: x.get(0, 0) + 1}

    monkeypatch.setattr(tatejoin.intlinalg.IntegerSolver, "solve", off_by_one)
    with pytest.raises(InternalCheckError):
        solve(m, {0: e + t})


def double_v(zg_solver):
    """Double every transform column V of a ZGSolver's factorization, so
    each nonzero solution it returns is twice a right one."""
    vcols = zg_solver._solver.vcols
    vcols[:] = [{i: 2 * v for i, v in col.items()} for col in vcols]


def test_a_doctored_factorization_is_caught_on_every_solve_path(monkeypatch):
    # the integer solver keeps no copy of A, so a wrong V is seen only by
    # the Z[G] multiply-back in ZGSolver.solve: for a plain solve, for a
    # lifted comparison column and for phi through the norm equation; it
    # must raise, not assert, so python -O cannot switch it off
    res = syzygy_resolution(dihedral(4), 4)  # its own: its solvers change
    d1 = res.differential(1)
    b = d1.apply({0: GroupRingElement.one(res.group)})
    assert ComparisonLift(res, res).column(1, 0)  # a nonzero right-hand side
    assert d1.solver().solve(flat(b, res.group))
    double_v(d1.solver())
    with pytest.raises(InternalCheckError, match="M x != b"):
        d1.solver().solve(flat(b, res.group))
    with pytest.raises(InternalCheckError, match="M x != b"):
        ComparisonLift(res, res).column(1, 0)

    x = phi_inverse(res, 1, homology(res, 1).generators[0])
    assert phi(x, via_solver=True) == phi(x) == (1, 0)
    real_init = ZGSolver.__init__

    def doctored(self, matrix):
        real_init(self, matrix)
        double_v(self)

    monkeypatch.setattr(ZGSolver, "__init__", doctored)
    with pytest.raises(InternalCheckError, match="M x != b"):
        phi(x, via_solver=True)


def test_solver_takes_and_returns_sparse_columns():
    # b = M x for x = (0, 2e), so one solution has a zero first row; an
    # explicit zero entry in b is the same column as leaving it out
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[t, e - t], [GroupRingElement.zero(g), e + t]])
    b = m.apply({0: GroupRingElement.zero(g), 1: e.scale(2)})
    with_zeros = {0: GroupRingElement.zero(g), 1: GroupRingElement.zero(g),
                  **b}
    x = solve(m, with_zeros)
    assert x == solve(m, b)
    assert all(not v.is_zero() for v in x.values())
    assert m.apply(x) == b
    assert solve(m, {}) == {}
    # the stored triples themselves: no zero coefficient, and {} -> ()
    assert all(c for _, _, c in ZGSolver(m).solve(flat(with_zeros, g)))
    assert ZGSolver(m).solve({}) == ()


def test_chain_producers_store_no_zero_entry():
    # row 0 of M x cancels, e - e = 0, so apply must leave it out
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[e, e.scale(-1)], [t, e]])
    assert m.apply({0: e, 1: e}) == {1: t + e}
    assert m.apply({}) == {}
    assert unflatten_vector([0, 0, 1, 0], g, 2) == {1: e}
    assert unflatten_vector([0, 0, 0, 0], g, 2) == {}
    x = solve(m, {1: t + e})
    assert x is not NoSolution
    assert all(not v.is_zero() for v in x.values())
    assert m.apply(x) == {1: t + e}


def test_chain_consumers_ignore_zeros_and_name_bad_indices():
    g, e, t = c2_elems()
    zero = GroupRingElement.zero(g)
    m = ZGMatrix.from_rows(g, [[e, t]])
    assert m.apply({0: zero, 1: e}) == m.apply({1: e}) == {0: t}
    assert m.apply({0: zero, 1: zero}) == {}
    for bad in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            m.apply({bad: zero})


def test_a_dense_list_is_not_a_chain():
    # the chain format before the sparse one: one element per coordinate
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[norm_element(g)]])
    with pytest.raises(ValueError, match=r"mapping \{index: element\}"):
        m.apply([norm_element(g)])
    with pytest.raises(ValueError, match=r"mapping \{index: element\}"):
        m.solver().solve([norm_element(g)])
    with pytest.raises(ValueError, match=r"mapping \{index: element\}"):
        m.solver().solve([1, 1])


def test_a_matrix_keeps_its_solver():
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[norm_element(g)]])
    assert m.solver() is m.solver()
    assert m.apply(_elements(g, m.solver().solve(
        flat({0: norm_element(g)}, g)))) == {0: norm_element(g)}


def shuffled_columns(rng, g, nrows, ncols):
    """Element columns {row: entry} over g, rows listed out of order, entries
    with two to four nonzero coefficients."""
    cols = []
    for _ in range(ncols):
        rows = [i for i in range(nrows) if rng.random() < 0.7]
        rng.shuffle(rows)
        col = {}
        for i in rows:
            c = [0] * g.order
            for h in rng.sample(range(g.order), rng.randrange(2, 5)):
                c[h] = rng.choice([-3, -2, -1, 1, 2, 3])
            col[i] = GroupRingElement(g, c)
        cols.append(col)
    return cols


def oracle(g, nrows, cols):
    """The dense z-expansion of element columns, read from the columns as
    given, not from any matrix."""
    return z_expansion(SimpleNamespace(
        group=g, nrows=nrows, ncols=len(cols),
        entries={(i, j): v for j, col in enumerate(cols)
                 for i, v in col.items()}))


@pytest.mark.parametrize("g", [symmetric(3), dihedral(4)],
                         ids=["S3", "D4"])
def test_the_stored_layout_cannot_be_seen(g):
    rng = random.Random(g.order)
    zero = GroupRingElement.zero(g)
    for nrows, mid, ncols in [(3, 4, 2), (1, 3, 5), (5, 2, 3), (4, 4, 4)]:
        a_cols = shuffled_columns(rng, g, nrows, mid)
        b_cols = shuffled_columns(rng, g, mid, ncols)
        a, b = ZGMatrix(g, nrows, a_cols), ZGMatrix(g, mid, b_cols)
        a_dense = oracle(g, nrows, a_cols)
        for j, col in enumerate(a_cols):
            # rows come back in the order they were given
            assert list(a.column(j).items()) == list(col.items())
            for i in range(nrows):
                assert a.get(i, j) == col.get(i, zero)
        assert dict(a.entries) == {(i, j): v for j, col in enumerate(a_cols)
                                   for i, v in col.items()}
        for k, zcol in enumerate(a.z_columns()):
            assert ([zcol.get(r, 0) for r in range(a_dense.nrows)]
                    == [row[k] for row in a_dense.data])
        prod = a.compose(b)
        assert z_expansion(prod).data == matmul(
            a_dense, oracle(g, mid, b_cols)).data
        for vec in b_cols:
            assert (flatten_vector(a.apply(vec), nrows, g.order)
                    == a_dense.apply(flatten_vector(vec, mid, g.order)))
        # the same entries with each column's rows reversed: stored in
        # another order, equal all the same
        flipped = ZGMatrix(g, nrows, [dict(reversed(col.items()))
                                      for col in a_cols])
        assert flipped == a and a == flipped
        if any(len(col) > 1 for col in a_cols):
            assert any(flipped.triples(j) != a.triples(j)
                       for j in range(mid))
        rebuilt = ZGMatrix(g, nrows, [dict(reversed(prod.column(k).items()))
                                      for k in range(ncols)])
        assert rebuilt == prod
        changed = [dict(col) for col in a_cols]
        j = next((j for j, col in enumerate(changed) if col), None)
        if j is not None:
            i = next(iter(changed[j]))
            changed[j][i] = changed[j][i] + GroupRingElement.one(g)
            assert ZGMatrix(g, nrows, changed) != a


def test_a_column_index_outside_the_matrix_is_named():
    # j = -1 once read the last column, and j = ncols raised IndexError
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[e, t]])
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"column {j} out of range"):
            m.column(j)
        with pytest.raises(ValueError, match=f"column {j} out of range"):
            m.triples(j)


def test_an_index_that_is_not_an_int_is_named():
    # 0.0 passed 0 <= j < ncols and then raised a bare TypeError in a list
    # subscript; every index read of a matrix goes through one gate
    g, e, t = c2_elems()
    m = ZGMatrix.from_rows(g, [[e, t]])
    for j in (0.0, 1.5, "0", None):
        for read in (m.column, m.triples, lambda j: m.get(0, j),
                     lambda i: m.get(i, 0)):
            with pytest.raises(ValueError, match="out of range"):
                read(j)
    assert m.get(0, 1) == t and m.triples(0) == ((0, 0, 1),)
