"""Exact integer linear algebra, cross-checked against independent oracles.

The minor-gcd characterization of invariant factors (d_1...d_k = gcd of all
k x k minors) is computed by brute force in the test helper ``oracles`` and
used as the oracle for the Smith form; it shares no code with the
elimination.  Frozen small examples were worked by hand.
"""

import copy
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from oracles import det_bareiss, matmul, minor_gcd_invariant_factors
from tatejoin import (IntMatrix, InternalCheckError, NoSolution, bar_resolution,
                      cyclic, dihedral, kernel_basis, smith_normal_form,
                      sparse_invariant_factors, symmetric, syzygy_resolution)
from tatejoin import intlinalg
from tatejoin.intlinalg import (IntegerLattice, IntegerSolver,
                                _modular_diagonal, _sparse_eliminate,
                                lll_reduce_rows)


def columns(a):
    """The sparse {row: value} columns of a dense matrix, as the solver takes them."""
    return [{i: v for i, v in enumerate(a.column(j)) if v}
            for j in range(a.ncols)]


def solver_of(a):
    return IntegerSolver(columns(a), a.nrows)


def dense(x, n):
    """A sparse {index: value} vector as a dense list of length n."""
    return [x.get(i, 0) for i in range(n)]


def apply_sparse(cols, x, nrows):
    """A x for sparse columns and a sparse x, as a dense list."""
    out = [0] * nrows
    for j, xv in x.items():
        for i, a in cols[j].items():
            out[i] += a * xv
    return out


def test_smith_hand_example():
    # [[2,4],[6,8]]: gcd of entries 2; det = -8, so factors 2, 4
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert dec.invariant_factors == [2, 4]


def test_smith_transforms_multiply_out():
    rng = random.Random(7)
    for _ in range(50):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-9, 10) for _ in range(nc)]
                       for _ in range(nr)])
        dec = smith_normal_form(a)
        assert matmul(matmul(dec.U, a), dec.V) == dec.S
        assert abs(det_bareiss(dec.U)) == 1
        assert abs(det_bareiss(dec.V)) == 1
        facs = dec.invariant_factors
        for d, e in zip(facs, facs[1:]):
            assert e % d == 0


def test_smith_without_transforms_same_diagonal():
    rng = random.Random(8)
    for _ in range(50):
        a = IntMatrix([[rng.randrange(-9, 10) for _ in range(4)]
                       for _ in range(3)])
        full = smith_normal_form(a)
        bare = smith_normal_form(a, transforms=False)
        assert bare.U is None and bare.V is None
        assert bare.S == full.S


def test_minor_gcd_oracle_small():
    # diag(2, 3) has 1x1 gcd 1, 2x2 det 6: factors 1, 6
    assert minor_gcd_invariant_factors(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
    assert minor_gcd_invariant_factors(IntMatrix([[0, 0], [0, 0]])) == []


def test_smith_vs_minor_gcd_200_random():
    rng = random.Random(12345)
    for _ in range(200):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        a = IntMatrix([[rng.randrange(-6, 7) for _ in range(nc)]
                       for _ in range(nr)])
        assert smith_normal_form(a).invariant_factors == \
            minor_gcd_invariant_factors(a)


def test_sparse_matches_dense():
    rng = random.Random(99)
    for _ in range(60):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        a = IntMatrix([[rng.randrange(-4, 5) if rng.random() < 0.4 else 0
                        for _ in range(nc)] for _ in range(nr)])
        cols = [{i: a[i, j] for i in range(nr) if a[i, j]} for j in range(nc)]
        want = [d for d in smith_normal_form(a).invariant_factors if d != 1]
        rank, factors = sparse_invariant_factors(cols, nr)[:2]
        assert factors == want
        assert rank == len(smith_normal_form(a).invariant_factors)
        assert sparse_invariant_factors(cols, nr)[0] == rank


# -- factors modulo a minor ----------------------------------------------------

BIG = 2 ** 40

MODULAR_CASES = {
    "rank-deficient": [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    "rank-deficient, no unit": [[2, 4], [4, 8], [6, 12]],
    "wide": [[2, 0, 4, 6], [0, 6, 3, 9]],
    "tall": [[2, 0], [0, 6], [4, 3], [6, 9]],
    "1 x n": [[4, 6, 10]],
    "n x 1": [[4], [6], [10]],
    "1 x 1": [[-12]],
    "zero": [[0, 0, 0], [0, 0, 0]],
    "d_r = D, all equal": [[2, 0], [0, 2]],
    "d_r = D": [[1, 0], [0, 6]],
    "d_r = D, scrambled": [[3, 5], [9, 13]],
    "unimodular": [[2, 3], [1, 2]],
    "entries near 2^40": [[BIG + 1, BIG], [BIG, BIG - 1], [BIG, -BIG]],
    "near 2^40, rank 2": [[BIG, 2 * BIG, 2], [BIG + 2, 2 * BIG + 4, 0]],
    "near 2^40, square": [[BIG - 3, 6, 2 * BIG], [BIG + 5, -BIG, 9],
                          [4, BIG - 7, BIG + 11]],
}


@pytest.mark.parametrize("rows", list(MODULAR_CASES.values()),
                         ids=list(MODULAR_CASES))
def test_modular_factors_match_oracles(rows):
    a = IntMatrix(rows)
    bare = smith_normal_form(a, transforms=False)
    full = smith_normal_form(a)
    assert bare.U is None
    assert bare.S == full.S
    assert bare.invariant_factors == minor_gcd_invariant_factors(a)


def test_modular_factors_of_empty_shapes():
    for a in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0),
              IntMatrix.zeros(0, 0)):
        bare = smith_normal_form(a, transforms=False)
        assert bare.S == smith_normal_form(a).S
        assert bare.invariant_factors == []


def test_modular_factors_random_near_2_40():
    rng = random.Random(40)
    for _ in range(30):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        a = IntMatrix([[rng.choice([0, rng.randrange(-BIG - 50, -BIG + 50),
                                    rng.randrange(BIG - 50, BIG + 50),
                                    rng.randrange(-9, 10)])
                        for _ in range(nc)] for _ in range(nr)])
        bare = smith_normal_form(a, transforms=False)
        assert bare.S == smith_normal_form(a).S
        assert bare.invariant_factors == minor_gcd_invariant_factors(a)


def test_modular_certificate_is_not_an_assert(monkeypatch):
    # diag(2, 2): rank 2, minor 4.  A wrong rank or a minor that the
    # factors do not divide must raise, not assert
    a = IntMatrix([[2, 0], [0, 2]])
    assert smith_normal_form(a, transforms=False).invariant_factors == [2, 2]
    for rank, minor, what in [(1, 4, "Bareiss rank 1"),
                              (3, 4, "Bareiss rank 3"),
                              (2, 2, "do not divide")]:
        monkeypatch.setattr(intlinalg, "_rank_and_minor",
                            lambda A, r=rank, D=minor: (r, D))
        with pytest.raises(InternalCheckError, match=what):
            smith_normal_form(a, transforms=False)


def test_modular_chain_certificate():
    with pytest.raises(InternalCheckError, match="divisibility chain"):
        _modular_diagonal([[4, 0], [0, 6]], 2, 12, 2, 2)
    assert _modular_diagonal([[2, 0], [0, 6]], 2, 12, 2, 2).data == \
        [[2, 0], [0, 6]]


def test_sparse_residual_has_no_unit_entry():
    # the unit-pivot elimination runs to the end: no +/-1 survives in the
    # residual, however dense the fill-in gets
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randrange(1, 30), rng.randrange(1, 30)
        cols = [{i: v for i in range(nr)
                 if (v := rng.choice([-2, -1, 0, 0, 0, 1, 2, 3]))}
                for _ in range(nc)]
        elim = _sparse_eliminate(cols)
        assert all(abs(v) != 1 for row in elim.residual.data for v in row)
        # the whole matrix modulo its own minor, without the elimination
        dense = smith_normal_form(
            IntMatrix([[c.get(i, 0) for c in cols] for i in range(nr)],
                      ncols=nc), transforms=False)
        assert sparse_invariant_factors(cols, nr)[:2] == \
            (dense.rank, dense.nontrivial_factors())


def test_sparse_pivot_columns_carry_a_unimodular_minor():
    # pivot p cleared input column pivot_cols[p]: A[pivots, pivot_cols] is
    # unimodular, and of equal columns only the first is ever named
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randrange(1, 12), rng.randrange(1, 12)
        cols = [{i: v for i in range(nr)
                 if (v := rng.choice([-2, -1, 0, 0, 0, 1, 1, 3]))}
                for _ in range(nc)]
        cols += [dict(rng.choice(cols)) for _ in range(3)]
        elim = _sparse_eliminate(cols)
        got = sparse_invariant_factors(cols, nr)
        assert got.pivot_cols == elim.pivot_cols
        assert len(set(elim.pivot_cols)) == len(elim.pivots)
        for j in elim.pivot_cols:
            assert cols[j] and cols[j] not in cols[:j]
        minor = IntMatrix([[cols[j].get(i, 0) for j in elim.pivot_cols]
                           for i in elim.pivots], ncols=len(elim.pivots))
        assert abs(det_bareiss(minor)) == 1


def test_dropping_rows_on_load_equals_dropping_them_first(monkeypatch):
    # skipping the rows in drop as each column is read is eliminating the
    # pre-filtered columns, also where the drop empties a column or makes
    # two columns equal; the input is never changed
    rng = random.Random(25)
    for _ in range(60):
        nr, nc = rng.randrange(2, 12), rng.randrange(1, 12)
        cols = [{i: v for i in range(nr)
                 if (v := rng.choice([-2, -1, 0, 0, 0, 1, 1, 3]))}
                for _ in range(nc)]
        drop = rng.sample(range(nr), rng.randrange(1, nr))
        cols.append({i: 1 for i in drop})  # empty once dropped
        cols.append({**cols[0], drop[0]: 5})  # equal to cols[0] once dropped
        rng.shuffle(cols)
        before = copy.deepcopy(cols)
        kept = [{i: v for i, v in c.items() if i not in drop} for c in cols]
        assert _sparse_eliminate(cols, drop) == _sparse_eliminate(kept)
        assert sparse_invariant_factors(cols, nr, drop) == \
            sparse_invariant_factors(kept, nr)
        assert cols == before
    # the tate module hands the cached D_k itself to the eliminator
    from tatejoin import homology, tate
    res = bar_resolution(cyclic(3), 5)
    down = [res.down_matrix(k) for k in range(1, 6)]
    saved = copy.deepcopy(down)
    passed = []

    def recording(cols, nrows, drop):
        passed.append(cols)
        return sparse_invariant_factors(cols, nrows, drop)

    monkeypatch.setattr(tate, "sparse_invariant_factors", recording)
    for n in range(5):
        homology(res, n).generators
    assert [id(c) for c in passed] == [id(c) for c in down]
    assert [res.down_matrix(k) for k in range(1, 6)] == saved == down


def test_invariant_factor_engines_agree_fuzz():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-4, 4), st.integers(-2 ** 41, 2 ** 41))
    shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
    matrices = shapes.flatmap(lambda s: st.lists(
        st.lists(entry, min_size=s[1], max_size=s[1]),
        min_size=s[0], max_size=s[0]))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(matrices)
    def agree(rows):
        a = IntMatrix(rows)
        full = smith_normal_form(a)
        assert smith_normal_form(a, transforms=False).S == full.S
        assert full.invariant_factors == minor_gcd_invariant_factors(a)
        cols = [{i: r[j] for i, r in enumerate(rows) if r[j]}
                for j in range(a.ncols)]
        assert sparse_invariant_factors(cols, a.nrows)[:2] == \
            (full.rank, full.nontrivial_factors())

    agree()


def test_solve_single_diophantine():
    a = IntMatrix([[2, 3]])
    x = solver_of(a).solve({0: 1})
    assert a.apply(dense(x, a.ncols)) == [1]


def test_solve_consistency_and_no_solution():
    a = IntMatrix([[2, 0], [0, 2]])
    assert a.apply(dense(solver_of(a).solve({0: 4, 1: -6}), 2)) == [4, -6]
    assert solver_of(a).solve({0: 1}) is NoSolution
    # inconsistent overdetermined system
    b = IntMatrix([[1], [1]])
    assert solver_of(b).solve({0: 1, 1: 2}) is NoSolution


def test_solve_random_verified_by_multiplication():
    rng = random.Random(4)
    hits = 0
    for _ in range(100):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        a = IntMatrix([[rng.randrange(-5, 6) for _ in range(nc)]
                       for _ in range(nr)])
        target = [rng.randrange(-8, 9) for _ in range(nr)]
        x = solver_of(a).solve(dict(enumerate(target)))
        if x is not NoSolution:
            assert a.apply(dense(x, nc)) == target
            hits += 1
    assert hits > 10  # the sweep actually exercised the solver


def test_kernel_basis_check_is_not_an_assert(monkeypatch):
    # a factorization that leaves a nonpivot column uncleared must raise
    class Doctored(IntegerSolver):
        def __init__(self, cols, nrows):
            super().__init__(cols, nrows)
            self.hcols[-1] = {i: 1 for i in range(self.nrows)}

    a = [{0: 1}, {0: 1}]
    assert kernel_basis(a, 1) in ([{0: 1, 1: -1}], [{0: -1, 1: 1}])
    monkeypatch.setattr("tatejoin.intlinalg.IntegerSolver", Doctored)
    with pytest.raises(InternalCheckError, match="nonpivot"):
        kernel_basis(a, 1)


def test_kernel_basis_spans_and_is_independent():
    rng = random.Random(21)
    for _ in range(60):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 6)
        a = IntMatrix([[rng.randrange(-4, 5) for _ in range(nc)]
                       for _ in range(nr)])
        basis = [dense(v, nc) for v in kernel_basis(columns(a), nr)]
        for v in basis:
            assert a.apply(v) == [0] * nr
        rank = len(smith_normal_form(a).invariant_factors)
        assert len(basis) == nc - rank
        if basis:
            stacked = IntMatrix(basis)
            assert len(smith_normal_form(stacked).invariant_factors) == len(basis)


def test_kernel_basis_of_injective_map_is_empty():
    assert kernel_basis([{0: 1, 2: 3}, {1: 2, 2: 3}], 3) == []


def test_kernel_basis_of_zero_rows_is_the_identity():
    # D_0 of a down complex: columns with no rows to land in
    assert kernel_basis([{}, {}], 0) == [{0: 1}, {1: 1}]


def test_solver_takes_sparse_columns_with_stored_zeros():
    # {0: a} for every augmentation entry, a = 0 included
    solver = IntegerSolver([{0: 0}, {0: 2}, {0: 3}], 1)
    x = solver.solve({0: 1})
    assert 2 * x.get(1, 0) + 3 * x.get(2, 0) == 1


def test_solver_stores_only_nonzero_entries():
    # the diagonal norm matrix N.I_r on bar(C5) in degree 3: integer rank
    # 320, 896 nonzeros in H and V together
    from tatejoin import norm_element
    from tatejoin.zglinalg import ZGMatrix
    g = cyclic(5)
    r = bar_resolution(g, 4).rank(3)
    norm = ZGMatrix(g, r, [{i: norm_element(g)} for i in range(r)])
    solver = IntegerSolver(norm.z_columns(), r * g.order)
    stored = [v for col in solver.hcols + solver.vcols for v in col.values()]
    assert len(stored) <= 896 and all(stored)


def test_solver_factorization_scales_with_the_entries():
    # each row reads its live columns from a lowest-row index; a scan of
    # every column for every row made 18 million lookups (0.8 s on a
    # 2-vCPU VM)
    n = 6000
    cols = [{j: 1, j + 1: -1} for j in range(n - 1)] + [{n - 1: 1}]
    start = time.perf_counter()
    solver = IntegerSolver(cols, n)
    assert time.perf_counter() - start < 0.2
    assert solver.pivots == [(j, j) for j in range(n)]
    assert solver.solve({n - 1: 1}) == {n - 1: 1}


def test_engines_leave_their_arguments_unchanged():
    # the factorization and the lattice change sparse vectors in place;
    # that must never reach a caller's dicts
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 6)
        cols = [{i: rng.randrange(-4, 5) for i in range(nr)
                 if rng.random() < 0.7} for _ in range(nc)]
        b = {i: rng.randrange(-6, 7) for i in range(nr)}
        vec = {j: rng.randrange(-5, 6) for j in range(nc)}
        want = copy.deepcopy((cols, b, vec))
        x = IntegerSolver(cols, nr).solve(b)
        if x is not NoSolution:
            assert apply_sparse(cols, x, nr) == dense(b, nr)
        for v in kernel_basis(cols, nr):
            assert apply_sparse(cols, v, nr) == [0] * nr
        lat = IntegerLattice()
        for col in cols:
            lat.add(col)
        lat.add(vec)
        lat.contains(vec)
        lat.contains(b)
        assert (cols, b, vec) == want


def test_solve_ignores_zeros_and_names_a_row_out_of_range():
    solver = solver_of(IntMatrix([[2, 0], [0, 3]]))
    assert solver.solve({0: 4, 1: 0}) == solver.solve({0: 4}) == {0: 2}
    assert solver.solve({0: 0}) == {}
    for row in (2, -1):
        with pytest.raises(ValueError, match=f"row {row} out of range"):
            solver.solve({0: 4, row: 1})


# -- integer lattices ---------------------------------------------------------

def test_lattice_membership():
    lat = IntegerLattice()
    lat.add({0: 2, 1: 0})
    lat.add({1: 3})
    assert lat.contains({0: 4, 1: 3})
    assert not lat.contains({0: 1})
    assert lat.rank == 2


def test_lattice_rejects_only_new_directions():
    lat = IntegerLattice()
    assert lat.add({0: 1, 2: 5})
    assert not lat.add({0: 2, 2: 10})  # dependent: no rank change
    assert lat.rank == 1


def test_lattice_entries_stay_reduced():
    # adding many near-parallel vectors must not blow entries up; this
    # regressed before balanced reduction (entries reached 10^1000)
    rng = random.Random(3)
    lat = IntegerLattice()
    for _ in range(80):
        lat.add({i: rng.randrange(-50, 51) for i in range(6)})
    rows = lat.rows.values()
    assert max(abs(v) for row in rows for v in row.values()) < 10 ** 6


def naive_f2_rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_f2_rank_matches_gaussian_elimination():
    # masks as the syzygy cover builds them: bit j is column j
    rng = random.Random(11)
    for _ in range(200):
        ncols = rng.randrange(1, 40)
        rows = [[int(rng.random() < 0.3) for _ in range(ncols)]
                for _ in range(rng.randrange(0, 25))]
        masks = [sum(b << j for j, b in enumerate(r)) for r in rows]
        assert intlinalg.f2_rank(masks) == naive_f2_rank(rows)


def _lattice(vectors):
    lat = IntegerLattice()
    for v in vectors:
        lat.add({i: x for i, x in enumerate(v) if x})
    return lat


def test_lattice_basis_depends_only_on_the_lattice():
    # the reduced echelon basis is a Hermite normal form: shuffled,
    # unimodularly recombined and redundant generating sets of one lattice
    # leave identical rows, and a different lattice leaves different ones
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(1, 7)
        gens = [[rng.randrange(-6, 7) for _ in range(n)]
                for _ in range(rng.randrange(1, 6))]
        ref = _lattice(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        recombined = [v[:] for v in gens]
        for _ in range(3 * len(gens)):
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            if i != j:
                c = rng.choice([-3, -1, 1, 2])
                recombined[i] = [a + c * b for a, b in
                                 zip(recombined[i], recombined[j])]
            else:
                recombined[i] = [-a for a in recombined[i]]
        redundant = gens + [[0] * n]
        for _ in range(3):
            coeffs = [rng.randrange(-2, 3) for _ in gens]
            redundant.append([sum(c * v[k] for c, v in zip(coeffs, gens))
                              for k in range(n)])
        rng.shuffle(redundant)
        for other in (shuffled, recombined, redundant):
            assert _lattice(other).rows == ref.rows
        if ref.rank:
            assert _lattice([[2 * a for a in v] for v in gens]).rows != ref.rows
        # the two rules the uniqueness rests on
        for lead, row in ref.rows.items():
            assert min(row) == lead and row[lead] > 0
            for other_lead, other_row in ref.rows.items():
                v = other_row.get(lead, 0)
                if other_lead != lead:
                    assert -row[lead] < 2 * v <= row[lead]


def test_lll_preserves_lattice_and_shrinks():
    rows = [[1, 0, 0], [0, 1, 0], [7, 8, 9]]
    red = lll_reduce_rows(rows)
    assert len(red) == 3
    assert max(abs(v) for r in red for v in r) <= 9
    # same lattice: each original row solvable over the reduced basis and
    # determinants agree up to sign
    assert abs(det_bareiss(IntMatrix(red))) == abs(det_bareiss(IntMatrix(rows)))
    solver = solver_of(IntMatrix([list(c) for c in zip(*red)]))
    for v in rows:
        assert solver.solve(dict(enumerate(v))) is not NoSolution


def test_lll_rounds_ties_up():
    # mu = 3/2 and -3/2 round to floor(mu + 1/2) = 2 and -1, as sympy's
    # DomainMatrix.lll() does; the other rounding gives other bases
    assert lll_reduce_rows([[2, 0], [3, 1]]) == [[-1, 1], [1, 1]]
    assert lll_reduce_rows([[2, 0], [-3, 1]]) == [[-1, 1], [1, 1]]


def test_lll_single_row_passthrough():
    assert lll_reduce_rows([[3, 6, 9]]) == [[3, 6, 9]]
    assert lll_reduce_rows([]) == []


def test_lll_equals_sympy_on_cover_lattices(monkeypatch):
    # the integral LLL makes sympy's rational decisions exactly, so the
    # chosen generators cannot depend on which of the two ran
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from tatejoin import (cyclic, dihedral, from_permutations, quaternion8,
                          resolutions, symmetric, syzygy_resolution)
    lattices = []

    def capture(rows):
        lattices.append([r[:] for r in rows])
        return lll_reduce_rows(rows)

    monkeypatch.setattr(resolutions, "lll_reduce_rows", capture)
    for group, depth in [
            (cyclic(4), 5), (dihedral(4), 6), (symmetric(3), 8),
            (quaternion8(), 6),
            (from_permutations(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]), 5),
            (from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]]), 5),
            (symmetric(4), 4)]:
        syzygy_resolution(group, depth)
    assert len(lattices) == 39
    for rows in lattices:
        want = DomainMatrix.from_list(rows, ZZ).lll().to_list()
        assert lll_reduce_rows(rows) == [[int(v) for v in r] for r in want]


def gram_schmidt(rows):
    """(mu, squared lengths of the b*_i), in exact fractions."""
    star, mu, norms = [], [], []
    for b in rows:
        v = [Fraction(x) for x in b]
        coeffs = []
        for s, n in zip(star, norms):
            c = sum(x * y for x, y in zip(b, s)) / n
            coeffs.append(c)
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(coeffs)
        norms.append(sum(x * x for x in v))
    return mu, norms


def lattice_rows(rows):
    lat = IntegerLattice()
    for r in rows:
        lat.add({j: v for j, v in enumerate(r) if v})
    return lat.rows


def test_lll_output_is_reduced_on_random_inputs():
    rng = random.Random(8)
    done = 0
    while done < 60:
        m = rng.randint(2, 7)
        rows = [[rng.randint(-20, 20) for _ in range(rng.randint(m, 9))]]
        rows += [[rng.randint(-20, 20) for _ in rows[0]] for _ in range(m - 1)]
        if 0 in gram_schmidt(rows)[1]:
            continue  # dependent rows; covered below
        done += 1
        red = lll_reduce_rows(rows)
        mu, norms = gram_schmidt(red)
        assert all(abs(c) <= Fraction(1, 2) for coeffs in mu for c in coeffs)
        for k in range(1, m):
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
        assert lattice_rows(red) == lattice_rows(rows)


@pytest.mark.parametrize("rows", [
    [[0, 0, 0]],
    [[1, 2, 3], [2, 4, 6]],
    [[1, 0], [0, 1], [1, 1]],
    [[1, 0, 0], [0, 1, 0], [3, -5, 0], [0, 0, 2]],
])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(InternalCheckError, match="LLL"):
        lll_reduce_rows(rows)


# -- pinned outputs ------------------------------------------------------------
# sha256 of json.dumps of the engines' full output.  The Smith transforms and
# the unit-pivot op log are choices (generators are read off them), so a
# change of either is a change of the generators, to be announced.

def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _pinned_smith_inputs():
    rng = random.Random(1414)
    for _ in range(200):
        nr, nc = rng.randrange(1, 11), rng.randrange(1, 11)
        density = rng.choice((0.3, 0.6, 1.0))
        yield IntMatrix([[rng.randrange(-5, 6) if rng.random() < density
                          else 0 for _ in range(nc)] for _ in range(nr)])


def test_smith_forms_are_byte_identical():
    full, bare = [], []
    for a in _pinned_smith_inputs():
        dec = smith_normal_form(a)
        full.append([dec.S.data, dec.U.data, dec.V.data])
        bare.append(smith_normal_form(a, transforms=False).S.data)
    assert _sha(full) == \
        "b17be8bff9386dda1d091ae30fc79865119f390fdb58802c154aaed874f57fc1"
    assert _sha(bare) == \
        "fb931e647165a8c70f4cbadf3cb9755900d17b942bd6ac44aaff3b89837b069b"


def _elimination_record(cols):
    e = _sparse_eliminate(cols)
    return [e.pivots, e.ops, e.rows, e.residual.data]


def test_sparse_eliminations_are_byte_identical():
    bar = bar_resolution(cyclic(5), 6)
    assert _sha([_elimination_record(bar.down_matrix(k))
                 for k in range(1, 7)]) == \
        "8311f0ad696eb9b6d5edf70a8f9f8d3227aa9793364b5bb22ab992fc19e404fb"
    pinned = (
        (syzygy_resolution(dihedral(4), 9),
         "28d2a2afa314219b58b110120f4995af13925709e0b67fd728faf0838cdbadd9"),
        (syzygy_resolution(symmetric(3), 10),
         "aa6966823f789aa6e88a0babb467fb9d389aa601bbf85ed343ac804db35415b4"))
    for res, digest in pinned:
        ks = range(1, res.depth + 1)
        got = [_elimination_record(res.down_matrix(k)) for k in ks]
        got += [_elimination_record(res.differential(k).z_columns())
                for k in ks]
        assert _sha(got) == digest
