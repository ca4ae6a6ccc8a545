"""Tests for testing constants and the comparability checks.

Hand oracles on Lebesgue weights:

* single cube, (2,2,1,1): both testing constants are 1 (every factor is a
  unit mass); the operator norm is 1 by Cauchy-Schwarz, so the norm-vs-sum
  ratio is exactly 1/2.
* chain {[0,1), [0,1/2)}, (2,2,1,1): local sums give the step (2,1) whose
  L^2 norm is sqrt(5/2); localizing to the small member gives 1, so both
  testing constants equal sqrt(5/2). With the exact norm 1 + sqrt(1/2)
  (see test_sparse) the norm-vs-sum ratio is (1+sqrt(.5))/(2 sqrt(2.5)).
* same chain, coefficient 1 on both cubes, p = 2: phi = (2,1), lhs =
  sqrt(5/2), rhs^2 = 1*1.5 + 1*1 *(1/2) = 2, ratio sqrt(5)/2.
* geometric packed sums on the depth-4 chain: sum of 2^-k for k <= 4 is
  1.9375 and every tested query triple reduces to it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sparselab import (
    LEBESGUE,
    DegenerateInstanceError,
    DyadicInterval,
    ExponentConfig,
    MeasureEstimateQuery,
    ParameterError,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    ROOT,
    SparseFamily,
    chain_family,
    check_lemma32,
    check_lemma41,
    check_lemma43,
    check_prop31,
    estimate_opnorm,
    lp_norm,
    lsu_check,
    lsu_testing_sums,
    make_instance,
    verify_thm42,
)
from sparselab import testing_T as _testing_T
from sparselab import testing_Tstar as _testing_Tstar

CHAIN1 = chain_family(1)
SINGLE = SparseFamily((ROOT,))
CFG2211 = ExponentConfig(2, 2, 1, 1)


def test_testing_constants_single_cube():
    assert _testing_T(SINGLE, CFG2211, LEBESGUE, LEBESGUE) == pytest.approx(1.0, rel=1e-15)
    assert _testing_Tstar(SINGLE, CFG2211, LEBESGUE, LEBESGUE) == pytest.approx(1.0, rel=1e-15)


def test_testing_constants_chain():
    root5_half = math.sqrt(2.5)
    assert _testing_T(CHAIN1, CFG2211, LEBESGUE, LEBESGUE) == pytest.approx(root5_half, rel=1e-12)
    assert _testing_Tstar(CHAIN1, CFG2211, LEBESGUE, LEBESGUE) == pytest.approx(root5_half, rel=1e-12)


def test_testing_tstar_needs_p_above_r():
    with pytest.raises(ParameterError):
        _testing_Tstar(CHAIN1, ExponentConfig(2, 2, 2, 1), LEBESGUE, LEBESGUE)


def test_testing_degenerate_weight():
    sigma = PiecewiseWeight(1, [0.0, 2.0])
    with pytest.raises(DegenerateInstanceError):
        _testing_T(CHAIN1, CFG2211, LEBESGUE, sigma)
    # one mass check names the weight and its first massless member for every caller
    chain2 = chain_family(2)
    zero_deep = PiecewiseWeight(2, [0.0, 1.0, 1.0, 1.0])  # massless on [0, 1/4) only
    member = r"on member \[0/2\^2, 1/2\^2\)"
    with pytest.raises(DegenerateInstanceError, match="sigma has zero mass " + member):
        _testing_T(chain2, CFG2211, LEBESGUE, zero_deep)
    op = PositiveDyadicOperator(chain2, np.ones(3))
    with pytest.raises(DegenerateInstanceError, match="omega has zero mass " + member):
        lsu_testing_sums(op, 2.0, 2.0, zero_deep, LEBESGUE)
    with pytest.raises(DegenerateInstanceError, match="sigma has zero mass " + member):
        estimate_opnorm(chain2, CFG2211, LEBESGUE, zero_deep)


def test_prop31_single_cube():
    rep = check_prop31(SINGLE, CFG2211, LEBESGUE, LEBESGUE, restarts=4, seed=0)
    assert rep.ratio == pytest.approx(0.5, rel=1e-9)
    assert rep.extras["branch"].startswith("r < p")


def test_prop31_chain_ratio():
    rep = check_prop31(CHAIN1, CFG2211, LEBESGUE, LEBESGUE, restarts=8, seed=0)
    expected = (1.0 + math.sqrt(0.5)) / (2.0 * math.sqrt(2.5))
    assert rep.lhs == pytest.approx(1.0 + math.sqrt(0.5), rel=1e-6)
    assert rep.ratio == pytest.approx(expected, rel=1e-6)
    assert rep.extras["converged"]


def test_prop31_heavy_r_branch():
    cfg = ExponentConfig(2, 2, 3, 1)
    rep = check_prop31(SINGLE, cfg, LEBESGUE, LEBESGUE, restarts=4, seed=0)
    assert rep.extras["branch"].startswith("r >= p")
    # rhs is T alone = 1; the norm of f -> (int f)^3 ... ^{1/3} is 1 as well
    assert rep.rhs == pytest.approx(1.0, rel=1e-12)


def test_lemma32_single_cube_unit_ratio():
    cfg = ExponentConfig(3, 3, 2, 1)
    rep = check_lemma32(SINGLE, cfg, np.array([1.0]), LEBESGUE, LEBESGUE, restarts=4, seed=0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    assert rep.rhs == pytest.approx(1.0, rel=1e-6)


def test_lemma32_zero_coefficients_trivial():
    cfg = ExponentConfig(3, 3, 2, 1)
    rep = check_lemma32(CHAIN1, cfg, np.zeros(2), LEBESGUE, LEBESGUE)
    assert rep.trivial and rep.ratio == 0.0


def test_lemma32_exponent_guard():
    with pytest.raises(ParameterError):
        check_lemma32(CHAIN1, CFG2211, np.array([1.0, 1.0]), LEBESGUE, LEBESGUE)


def test_lemma32_comparable_and_deterministic():
    cfg = ExponentConfig(3, 3, 2, 1)
    omega = PiecewiseWeight(2, [0.5, 2.0, 1.0, 0.25])
    a = check_lemma32(CHAIN1, cfg, np.array([1.0, 0.7]), omega, LEBESGUE, restarts=6, seed=4)
    b = check_lemma32(CHAIN1, cfg, np.array([1.0, 0.7]), omega, LEBESGUE, restarts=6, seed=4)
    assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
    assert 0.3 <= a.ratio <= 3.0
    assert a.extras["converged"]


def test_lsu_single_cube_half():
    op = PositiveDyadicOperator(SINGLE, np.array([1.0]))
    rep = lsu_check(op, 2.0, 2.0, LEBESGUE, LEBESGUE, restarts=4, seed=0)
    assert rep.lhs == pytest.approx(1.0, rel=1e-9)
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)
    assert rep.ratio == pytest.approx(0.5, rel=1e-9)


def test_lsu_testing_sums_symmetric():
    op = PositiveDyadicOperator(CHAIN1, np.array([1.0, 1.0]))
    first, second = lsu_testing_sums(op, 2.0, 2.0, LEBESGUE, LEBESGUE)
    # omega = sigma makes the two localized sums coincide
    assert first == pytest.approx(second, rel=1e-12)
    assert first == pytest.approx(math.sqrt(2.5), rel=1e-12)


def test_lsu_zero_taus_trivial():
    op = PositiveDyadicOperator(CHAIN1, np.zeros(2))
    rep = lsu_check(op, 2.0, 2.0, LEBESGUE, LEBESGUE)
    assert rep.trivial


def test_lemma41_single_cube_exact():
    for p in (1.5, 2.0, 3.0):
        rep = check_lemma41(SINGLE, np.array([2.5]), LEBESGUE, p)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)


def test_lemma41_chain_sqrt_5_over_4():
    rep = check_lemma41(CHAIN1, np.array([1.0, 1.0]), LEBESGUE, 2.0)
    assert rep.lhs == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert rep.rhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rep.ratio == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_lemma41_ratio_is_scale_free():
    # both sides are 1-homogeneous, so extreme scales keep the ratio
    coefs = np.array([1.0, 0.5])
    ref = check_lemma41(CHAIN1, coefs, LEBESGUE, 3.0)
    for c in (1e-200, 1e300):
        rep = check_lemma41(CHAIN1, c * coefs, LEBESGUE, 3.0)
        assert not rep.trivial
        assert rep.ratio == pytest.approx(ref.ratio, rel=1e-14)
        assert rep.lhs == pytest.approx(c * ref.lhs, rel=1e-14)
        assert rep.rhs == pytest.approx(c * ref.rhs, rel=1e-14)


@given(
    coefs=st.lists(st.floats(0.0, 5.0), min_size=7, max_size=7),
    sigma_vals=st.lists(st.floats(0.1, 4.0), min_size=8, max_size=8),
)
# both sides underflow to 0 here unless the coefficients are normalized
@example(coefs=[0.0] * 6 + [2.0939691100955884e-236], sigma_vals=[1.0] * 8)
def test_lemma41_quadratic_identity(coefs, sigma_vals):
    # p = 2: lhs^2 = 2 rhs^2 - sum a_Q^2 sigma(Q), exactly, because dyadic
    # members either nest or are disjoint
    family = chain_family(3)
    members = family.members + (DyadicInterval(1, 1), DyadicInterval(2, 2), DyadicInterval(3, 4))
    family = SparseFamily(members, eta=0.25)
    coefs = np.array(coefs)
    if not np.any(coefs > 0.0):
        coefs = coefs + 1.0
    sigma = PiecewiseWeight(3, sigma_vals)
    rep = check_lemma41(family, coefs, sigma, 2.0)
    correction = sum(
        a * a * sigma.mass(q) for a, q in zip(coefs, family.members)
    )
    assert rep.lhs**2 == pytest.approx(2.0 * rep.rhs**2 - correction, rel=1e-9)
    assert 1.0 - 1e-9 <= rep.ratio <= math.sqrt(2.0) + 1e-9


def test_lemma43_geometric_chain():
    family = chain_family(4)
    total = 1.9375  # sum of 2^-k, k = 0..4
    for trip in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0)):
        rep = check_lemma43(
            family, LEBESGUE, LEBESGUE, MeasureEstimateQuery(*trip), ROOT
        )
        assert rep.lhs == pytest.approx(total, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
    scale_free = check_lemma43(
        family, LEBESGUE, LEBESGUE, MeasureEstimateQuery(0.0, 1.0, 0.0), ROOT
    )
    assert scale_free.extras["branch"].startswith("scale-free")


def test_lemma43_localizes_to_top():
    family = chain_family(4)
    top = DyadicInterval(2, 0)
    rep = check_lemma43(
        family, LEBESGUE, LEBESGUE, MeasureEstimateQuery(1.0, 0.0, 0.0), top
    )
    # only levels 2..4 sit inside the top member
    assert rep.lhs == pytest.approx(0.25 + 0.125 + 0.0625, rel=1e-12)
    assert rep.rhs == pytest.approx(0.25, rel=1e-12)


def _lemma43_by_objects(family, omega, sigma, query, top):
    """Reference sums: the members inside top as objects, their masses by one call each."""
    inside = [q for q in family.members if top.encloses(q)]
    levels = np.array([q.level for q in inside])
    positions = np.array([q.position for q in inside])
    terms = (
        np.ldexp(1.0, -levels) ** query.a
        * sigma.masses(levels, positions) ** query.b
        * omega.masses(levels, positions) ** query.c
    )
    return math.fsum(terms.tolist()), float(terms[inside.index(top)])


def test_lemma43_reads_the_shared_geometry(monkeypatch):
    queries = [MeasureEstimateQuery(1.0, 0.0, 0.0), MeasureEstimateQuery(0.25, 0.25, 0.5)]
    for index in range(30):
        inst = make_instance("lemma43", 5, index)
        family = inst.family
        for omega, sigma in ((inst.omega, inst.sigma), (PowerWeight(-0.4), PowerWeight(0.7))):
            for query in queries:
                for top in family.members[::3]:
                    rep = check_lemma43(family, omega, sigma, query, top)
                    want = _lemma43_by_objects(family, omega, sigma, query, top)
                    assert (rep.lhs, rep.rhs) == want  # bitwise
    # member masses come from the geometry: a second query computes none
    check_lemma43(family, inst.omega, inst.sigma, queries[1], family.members[-1])
    monkeypatch.setattr(PiecewiseWeight, "masses", lambda *args: pytest.fail("mass recomputed"))
    monkeypatch.setattr("sparselab.dyadic.interval_arrays", lambda *a: pytest.fail("arrays"))
    check_lemma43(family, inst.omega, inst.sigma, queries[1], family.members[0])


def test_lemma43_validation():
    family = chain_family(2)
    with pytest.raises(ParameterError):
        check_lemma43(
            family, LEBESGUE, LEBESGUE,
            MeasureEstimateQuery(1.0, 0.0, 0.0), DyadicInterval(3, 0),
        )
    with pytest.raises(ParameterError):
        MeasureEstimateQuery(-0.1, 0.6, 0.6)
    with pytest.raises(ParameterError):
        MeasureEstimateQuery(0.2, 0.2, 0.2)


def test_thm42_chain_ratios():
    rep_t, rep_tstar = verify_thm42(CHAIN1, CFG2211, LEBESGUE, LEBESGUE)
    assert rep_t.ratio == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert rep_tstar.ratio == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert rep_t.extras["branch"] == "generic"
    assert rep_tstar.extras["branch"] == "generic"


def test_thm42_diagonal_branch_tags():
    cfg = ExponentConfig(2, 2, 1, 0.5)
    rep_t, rep_tstar = verify_thm42(CHAIN1, cfg, LEBESGUE, LEBESGUE)
    assert rep_t.extras["branch"] == "diagonal fractional split"
    assert rep_tstar.extras["branch"] == "diagonal fractional split"


def test_thm42_skips_dual_when_r_large():
    cfg = ExponentConfig(2, 2, 3, 1)
    rep_t, rep_tstar = verify_thm42(CHAIN1, cfg, LEBESGUE, LEBESGUE)
    assert rep_tstar is None
    assert rep_t.tag == "thm42-T"


def _suite_report(suite, i):
    inst = make_instance(suite, 7, i)
    if suite == "prop31":
        return inst, check_prop31(inst.family, inst.cfg, inst.omega, inst.sigma, seed=i)
    if suite == "lemma32":
        coefs = inst.extras["coefs"]
        return inst, check_lemma32(inst.family, inst.cfg, coefs, inst.omega, inst.sigma, seed=i)
    op = PositiveDyadicOperator(inst.family, inst.extras["taus"])
    return inst, lsu_check(op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma, seed=i)


@pytest.mark.parametrize("suite", ["prop31", "lemma32", "lemma34"])
def test_certified_upper_bounds_every_bracketed_row(suite):
    # p = q with r <= q: the solver's sides carry a Collatz-Wielandt bound, never below them
    covered = 0
    for i in range(100):
        inst, rep = _suite_report(suite, i)
        cfg = inst.cfg or ExponentConfig(inst.extras["p"], inst.extras["q"], 1.0, 1.0)
        upper = rep.extras["certified_upper"]
        if suite == "lemma32":  # both sides are solved
            sides, bounds = (rep.lhs, rep.rhs), upper
        else:
            sides, bounds = (rep.lhs,), (upper,)
        for side, bound in zip(sides, bounds):
            if cfg.p == cfg.q and cfg.r <= cfg.q:
                covered += 1
                assert bound is not None and side <= bound, f"instance {i}"
            else:
                assert bound is None, f"instance {i}"
    assert covered == (100 if suite == "lemma32" else 50)
