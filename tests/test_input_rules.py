"""The input rules: coefficient, density and mass arrays are finite and
nonnegative, scalar parameters are finite inside their ranges, and levels,
positions, depths, seeds and counts are integers and not bools.

NaN fails every comparison, so a check written as `x < 0` lets it through;
each array and scalar input below once accepted NaN or an infinity and
returned NaN or a trivial value instead of an error. Most integer inputs
once truncated a float, read a bool as 0 or 1, or failed with a bare
TypeError.
"""

import math
from functools import cache, partial

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    ROOT,
    CubeObjective,
    DyadicInterval,
    ExponentConfig,
    MeasureEstimateQuery,
    ParameterError,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    SharpnessConfig,
    SparseFamily,
    ainfty,
    chain_family,
    check_lemma32,
    check_lemma41,
    classical_ap,
    dual_quantities,
    fit_slope,
    lsu_check,
    lsu_testing_sums,
    make_instance,
    maximize,
    one_weight_apq,
    primal_quantities,
    rayleigh_objective,
    run_suite,
    subdivide,
    sweep,
    uniform_partition,
)

BAD = [math.nan, math.inf, -math.inf, -1.0]
FAMILY = chain_family(2)  # three members, three atoms


def _filled(bad, everywhere):
    """Three ones with the second entry, or every entry, replaced by bad."""
    arr = np.ones(3)
    arr[slice(None) if everywhere else 1] = bad
    return arr


# input -> (the name its error carries, a call that passes bad values to it)
ARRAY_INPUTS = {
    "CubeObjective": ("gamma", lambda vals: CubeObjective(
        gamma=vals, incidence=np.ones((3, 3)), sigma_atom=np.ones(3),
        omega_atom=np.ones(3), e=1.0, t=2.0, s=2.0,
    )),
    "PiecewiseWeight": ("weight densities", lambda vals: PiecewiseWeight(2, np.append(vals, 1.0))),
    "PositiveDyadicOperator": ("operator coefficients", partial(PositiveDyadicOperator, FAMILY)),
    "check_lemma32": ("cube coefficients", lambda vals: check_lemma32(
        FAMILY, ExponentConfig(3.0, 3.0, 2.0, 1.0), vals, LEBESGUE, LEBESGUE,
    )),
    "check_lemma41": ("coefficients", lambda vals: check_lemma41(FAMILY, vals, LEBESGUE, 2.0)),
    "MeasureEstimateQuery": ("exponents", lambda vals: MeasureEstimateQuery(*vals)),
}


@pytest.mark.parametrize("everywhere", [False, True])
@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("which", sorted(ARRAY_INPUTS))
def test_array_inputs_must_be_finite_and_nonnegative(which, bad, everywhere):
    # all-NaN taus once gave lsu_check a trivial 0/0 row, one NaN among
    # lemma41's coefficients a NaN ratio, and PiecewiseWeight(2, [nan] * 4)
    # an A_infty constant of 1
    name, build = ARRAY_INPUTS[which]
    with pytest.raises(ParameterError, match=f"^{name} must be finite and nonnegative$"):
        build(_filled(bad, everywhere))


@pytest.mark.parametrize("which", sorted(ARRAY_INPUTS))
def test_array_inputs_accept_zeros(which):
    # zero entries stay legal wherever they were: a vanishing density or
    # coefficient is nonnegative
    _, build = ARRAY_INPUTS[which]
    build(np.array([1.0, 0.0, 1.0]))


SCALAR_INPUTS = {
    "PowerWeight.beta": lambda bad: PowerWeight(bad),
    "PowerWeight.coeff": lambda bad: PowerWeight(0.5, bad),
    "ExponentConfig.p": lambda bad: ExponentConfig(bad, 4.0, 1.0, 0.75),
    "ExponentConfig.q": lambda bad: ExponentConfig(2.0, bad, 1.0, 0.75),
    "ExponentConfig.r": lambda bad: ExponentConfig(2.0, 4.0, bad, 0.75),
    "ExponentConfig.alpha": lambda bad: ExponentConfig(2.0, 4.0, 1.0, bad),
    "SharpnessConfig.q": lambda bad: SharpnessConfig(2.0, bad, 0.5, "primal"),
    "SharpnessConfig.alpha": lambda bad: SharpnessConfig(2.0, 4.0, bad, "primal"),
    "check_lemma41.p": lambda bad: check_lemma41(FAMILY, np.ones(3), LEBESGUE, bad),
    "lsu_check.q": lambda bad: lsu_check(
        PositiveDyadicOperator(FAMILY, np.ones(3)), 2.0, bad, LEBESGUE, LEBESGUE,
    ),
    "lsu_testing_sums.p": lambda bad: lsu_testing_sums(
        PositiveDyadicOperator(FAMILY, np.ones(3)), bad, 4.0, LEBESGUE, LEBESGUE,
    ),
    "lsu_testing_sums.q": lambda bad: lsu_testing_sums(
        PositiveDyadicOperator(FAMILY, np.ones(3)), 2.0, bad, LEBESGUE, LEBESGUE,
    ),
    "classical_ap.p": lambda bad: classical_ap(LEBESGUE, LEBESGUE, bad, FAMILY),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("which", sorted(SCALAR_INPUTS))
def test_scalar_parameters_must_be_finite(which, bad):
    # PowerWeight(inf) had level-1 masses [0, nan], ExponentConfig(2, inf, 1, 0.5)
    # a NaN q_conj, SharpnessConfig(2, inf, 0.5) a sweep that crashed in the
    # slope fit, and check_lemma41 at p = inf a ratio of 1
    with pytest.raises(ParameterError):
        SCALAR_INPUTS[which](bad)


@pytest.mark.parametrize("p, q", [(2.0, math.inf), (0.5, 2.0), (1.0, 2.0), (3.0, 2.0)])
def test_testing_sums_take_the_norm_characterization_exponents(p, q):
    # at q = inf the sums were (nan, 2.0); at p = 0.5 a value with a RuntimeWarning
    op = PositiveDyadicOperator(FAMILY, np.ones(3))
    with pytest.raises(ParameterError, match=r"needs 1 < p <= q < inf"):
        lsu_testing_sums(op, p, q, LEBESGUE, LEBESGUE)
    with pytest.raises(ParameterError, match=r"needs 1 < p <= q < inf"):
        lsu_check(op, p, q, LEBESGUE, LEBESGUE)


@pytest.mark.parametrize("p", [math.nan, math.inf, 1.0, 0.5])
def test_classical_ap_takes_a_finite_exponent_above_one(p):
    # classical_ap(LEBESGUE, LEBESGUE, nan, chain_family(2)) was nan
    with pytest.raises(ParameterError, match=r"^need 1 < p < inf$"):
        classical_ap(LEBESGUE, LEBESGUE, p, FAMILY)
    assert classical_ap(LEBESGUE, LEBESGUE, 2.0, FAMILY) == 1.0


@pytest.mark.parametrize("p", [math.nan, math.inf, 1.0, 0.5])
def test_one_weight_apq_takes_the_same_exponent_rule(p):
    # p = inf once failed later, building a weight of power nan
    with pytest.raises(ParameterError, match=r"^need 1 < p < inf$"):
        one_weight_apq(LEBESGUE, p, 4.0)


@cache
def _sweep_rows():
    return sweep(SharpnessConfig(2.0, 4.0, 0.75, "primal"))


def _solve(**opts):
    _, obj = rayleigh_objective(FAMILY, ExponentConfig(2.0, 4.0, 2.0, 0.75), LEBESGUE, LEBESGUE)
    res = maximize(obj, **opts)
    return res.value, res.iterations, res.starts


# integer input -> (the name its error carries, a call on a value, a value it accepts)
INTEGER_INPUTS = {
    "DyadicInterval.level": ("interval level", lambda k: DyadicInterval(k, 1), 2),
    "DyadicInterval.position": ("interval position", lambda k: DyadicInterval(3, k), 2),
    "SparseFamily.from_arrays.levels": (
        "interval level", lambda k: SparseFamily.from_arrays([0, k], [0, 1], 0.5), 2,
    ),
    "SparseFamily.from_arrays.positions": (
        "interval position", lambda k: SparseFamily.from_arrays([0, 2], [0, k], 0.5), 2,
    ),
    "ainfty.depth": ("depth", lambda k: ainfty(PowerWeight(-0.5), ROOT, k), 2),
    "uniform_partition.depth_below": ("depth", lambda k: uniform_partition(ROOT, k).atoms, 2),
    "subdivide.levels": ("depth", lambda k: subdivide(ROOT, k), 2),
    "grid_masses.levels_down": ("depth", lambda k: LEBESGUE.grid_masses(ROOT, k).tolist(), 2),
    "chain_family.depth": ("chain depth", chain_family, 2),
    "PiecewiseWeight.depth": (
        "piecewise depth", lambda k: PiecewiseWeight(k, np.ones(4)).masses([2], [1]).tolist(), 2,
    ),
    "make_instance.seed": ("seed", lambda k: make_instance("lemma41", k, 0).family, 2),
    "make_instance.index": ("index", lambda k: make_instance("lemma41", 7, k).family, 2),
    "run_suite.trials": ("trials", lambda k: [r.ratio for r in run_suite("lemma41", 7, k).rows], 2),
    "fit_slope.window": ("fit window", lambda k: fit_slope(_sweep_rows(), k), 3),
    "primal_quantities.k_top": ("k_top", partial(primal_quantities, 0.25, 2.0, 4.0, 0.75), 80),
    "dual_quantities.k_top": ("k_top", partial(dual_quantities, 0.25, 2.0, 4.0, 0.75), 80),
    "maximize.restarts": ("restarts", lambda k: _solve(restarts=k), 2),
    "maximize.max_iters": ("max_iters", lambda k: _solve(max_iters=k), 2),
    "maximize.seed": ("seed", lambda k: _solve(seed=k), 2),
}


@pytest.mark.parametrize("bad", [2.5, True, "1"])
@pytest.mark.parametrize("which", sorted(INTEGER_INPUTS))
def test_integer_inputs_must_be_integers_and_not_bools(which, bad):
    # chain_family(2.5) built a 4-member chain and chain_family(True) a 2-member
    # one, PiecewiseWeight(True, [1, 1]) and make_instance("thm11", 7, True) ran,
    # and PiecewiseWeight(2.0, [1] * 4), a seed of 1.5 and trials=2.5 raised a
    # bare TypeError
    name, call, _ = INTEGER_INPUTS[which]
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, not a bool, got "):
        call(bad)


@pytest.mark.parametrize("which", sorted(INTEGER_INPUTS))
def test_integer_inputs_take_numpy_integers_as_python_ints(which):
    _, call, good = INTEGER_INPUTS[which]
    assert call(np.int64(good)) == call(good)
