"""The one input rule: coefficient, density and mass arrays are finite and
nonnegative, and scalar parameters are finite inside their ranges.

NaN fails every comparison, so a check written as `x < 0` lets it through;
each input below once accepted NaN or an infinity and returned NaN or a
trivial value instead of an error.
"""

import math
from functools import partial

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    CubeObjective,
    ExponentConfig,
    MeasureEstimateQuery,
    ParameterError,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    SharpnessConfig,
    chain_family,
    check_lemma32,
    check_lemma41,
    classical_ap,
    lsu_check,
    lsu_testing_sums,
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
