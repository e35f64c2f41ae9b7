"""The verify battery: passes on healthy input, fails on sabotage."""

import pytest

from tatejoin import (FiniteGroup, GroupRingElement, Resolution,
                      SizeBudgetError, ZGMatrix, bar_resolution, cyclic,
                      norm_element, periodic_cyclic_resolution, run_verify,
                      syzygy_resolution, symmetric)
from tatejoin import selfcheck
from tatejoin.products import ProductContext


def test_verify_passes_periodic_cyclic():
    rep = run_verify(periodic_cyclic_resolution(4, 7), seed=0)
    assert rep.passed, rep.first_failure
    names = [c["name"] for c in rep.checks]
    assert "group:associativity" in names
    assert "tate:minus_one_vanishes" in names
    assert any(n.startswith("phi:round_trip") for n in names)
    assert any(n.startswith("products:pipeline_agreement") for n in names)
    assert "products:representative_independence" in names
    assert "products:bilinearity" in names
    assert any(n.startswith("resolution:exact at degree") for n in names)


def test_verify_passes_computed_s3():
    rep = run_verify(syzygy_resolution(symmetric(3), 5), seed=3)
    assert rep.passed, rep.first_failure


def test_verify_deterministic_for_fixed_seed():
    a = run_verify(periodic_cyclic_resolution(3, 6), seed=42)
    b = run_verify(periodic_cyclic_resolution(3, 6), seed=42)
    assert a.to_json() == b.to_json()


def test_verify_flags_inexact_resolution():
    # d_2 = 2N is a complex but not exact; verify must fail with the degree
    g = cyclic(2)
    e = GroupRingElement.basis(g, 0)
    t = GroupRingElement.basis(g, 1)
    d_odd = ZGMatrix.from_rows(g, [[t - e]])
    d_bad = ZGMatrix.from_rows(g, [[norm_element(g).scale(2)]])
    res = Resolution(g, [1, 1, 1, 1], [d_odd, d_bad, d_odd], [1])
    rep = run_verify(res, seed=0)
    assert not rep.passed
    assert "degree" in rep.first_failure


def test_verify_handles_shallow_resolution():
    # depth 2 leaves no feasible product bidegrees; still a clean pass
    rep = run_verify(periodic_cyclic_resolution(5, 2), seed=0)
    assert rep.passed, rep.first_failure
    assert any("skipped" in c["detail"] for c in rep.checks)


def test_verify_checks_the_join_it_builds(monkeypatch):
    # pairs up to 1x3 and 3x1 at depth 6: the bounding box of the 3-skeleta
    # through output degree 5
    res = periodic_cyclic_resolution(3, 6)
    rep = run_verify(res, rounds=1)
    line = next(c for c in rep.checks if c["name"] == "join:ranks")
    assert line["passed"] and line["detail"] == "degrees 0..5 of P<=3 * P<=3"
    real = selfcheck.join_rank
    monkeypatch.setattr(selfcheck, "join_rank",
                        lambda P, Q, d: real(P, Q, d) + (d == 4))
    rep = run_verify(res, rounds=1)
    assert not rep.passed and "degree 4" in rep.first_failure


def test_verify_charges_validation_to_the_budget():
    res = bar_resolution(cyclic(3), 3)
    with pytest.raises(SizeBudgetError, match="resolution validation"):
        run_verify(res, max_zrank=5)


def test_verify_reads_the_group_constructor_certificates(monkeypatch):
    # the FiniteGroup constructor ran Light's test; verify lists the laws
    # without running it again
    res = periodic_cyclic_resolution(3, 6)

    def no_test(self):
        pytest.fail("verify re-ran the associativity test")

    monkeypatch.setattr(FiniteGroup, "associativity_failure", no_test)
    rep = run_verify(res, rounds=1)
    assert rep.passed, rep.first_failure
    assert [c for c in rep.checks if c["name"].startswith("group:")] == [
        {"name": "group:identity", "passed": True, "detail": "order 3"},
        {"name": "group:inverses", "passed": True, "detail": ""},
        {"name": "group:associativity", "passed": True,
         "detail": "Light's test on a generating set"}]


def test_verify_flags_pipeline_disagreement(monkeypatch):
    real = ProductContext.composition_product

    def shifted(self, n, za, m, zb):
        return tuple(v + 1 for v in real(self, n, za, m, zb))

    monkeypatch.setattr(ProductContext, "composition_product", shifted)
    rep = run_verify(periodic_cyclic_resolution(3, 6), rounds=1)
    bad = next(c for c in rep.checks if not c["passed"])
    assert bad == {"name": "products:pipeline_agreement[1x1]",
                   "passed": False,
                   "detail": "join (1,) != composition (2,)"}
