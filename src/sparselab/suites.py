"""Seeded ratio suites driving the comparability checks in bulk.

Each trial draws a deterministic random instance and records one row
(lhs, rhs, ratio) from the check's ComparabilityReport; the
testing-constant suite records one row per constant. Conditions that
are exact theorems rather than implied-constant statements are enforced
per row and reported as failures that name the suite, seed and
instance; so is an unconverged fixed-point solve in the four solver
suites (prop31, lemma32, lemma34, thm11). Observed ratio windows are meant to be compared against the
frozen baselines (see the baselines module).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .baselines import CANONICAL_SEED, CANONICAL_TRIALS
from .errors import ParameterError, integer
from .instances import SUITES, RandomInstance, make_instance
from .stopping import build_principal_cubes, principal_sum_bound
from .testing import (
    ComparabilityReport,
    PositiveDyadicOperator,
    _report,
    check_lemma32,
    check_lemma41,
    check_lemma43,
    check_prop31,
    check_thm11,
    lsu_check,
    verify_thm42,
)

SANDWICH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SuiteRow:
    instance_id: str
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True, eq=False)
class SuiteResult:
    suite: str
    seed: int
    trials: int
    rows: tuple
    failures: tuple
    elapsed: float

    @property
    def ratio_window(self) -> tuple[float, float]:
        ratios = [r.ratio for r in self.rows if r.rhs > 0.0]
        if not ratios:
            raise ParameterError("no nontrivial rows to take a window over")
        return min(ratios), max(ratios)


def _row(instance_id: str, rep: ComparabilityReport) -> SuiteRow:
    return SuiteRow(instance_id, float(rep.lhs), float(rep.rhs), float(rep.ratio))


def _unconverged(rep: ComparabilityReport) -> list[str]:
    """The failure of a solver row whose fixed-point solve did not converge."""
    if rep.extras.get("converged", True):
        return []
    return [f"the solver did not converge (residual {rep.extras['residual']:g})"]


# Each runner returns the instance's rows and the reasons it failed an
# exact per-row condition, an unconverged solve included for the solver
# suites; run_suite names the suite, seed and instance.


def _rows_prop31(inst: RandomInstance):
    rep = check_prop31(
        inst.family, inst.cfg, inst.omega, inst.sigma, seed=inst.index
    )
    return [_row(str(inst.index), rep)], _unconverged(rep)


def _rows_lemma32(inst: RandomInstance):
    rep = check_lemma32(
        inst.family, inst.cfg, inst.extras["coefs"], inst.omega, inst.sigma,
        seed=inst.index,
    )
    return [_row(str(inst.index), rep)], _unconverged(rep)


def _rows_lemma34(inst: RandomInstance):
    op = PositiveDyadicOperator(inst.family, inst.extras["taus"])
    rep = lsu_check(
        op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma,
        seed=inst.index,
    )
    return [_row(str(inst.index), rep)], _unconverged(rep)


def _rows_lemma41(inst: RandomInstance):
    p = inst.extras["p"]
    rep = check_lemma41(inst.family, inst.extras["coefs"], inst.sigma, p)
    reasons = []
    # exactly two-sided at p = 2
    if p == 2.0 and not 1.0 - 1e-9 <= rep.ratio <= math.sqrt(2.0) + 1e-9:
        reasons.append(f"p=2 ratio {rep.ratio} outside [1, sqrt 2]")
    return [_row(str(inst.index), rep)], reasons


def _rows_lemma43(inst: RandomInstance):
    query = inst.extras["query"]
    rep = check_lemma43(
        inst.family, inst.omega, inst.sigma, query, inst.extras["top"]
    )
    reasons = []
    # the packed sum contains the reference term itself
    if query.a > 0.0 and rep.ratio < 1.0 - SANDWICH_TOL:
        reasons.append("packed sum below its own top term")
    return [_row(str(inst.index), rep)], reasons


def _rows_principal(inst: RandomInstance):
    stopping = build_principal_cubes(inst.family, inst.extras["f"], inst.sigma)
    bound = principal_sum_bound(stopping, inst.extras["f"], inst.sigma, inst.extras["p"])
    rep = _report(
        "principal", bound["max_pointwise_ratio"], 1.0, "pointwise ratio to the exact bound"
    )
    reasons = []
    if rep.lhs > 1.0 + SANDWICH_TOL:
        reasons.append("pointwise principal sum exceeds the exact bound")
    return [_row(str(inst.index), rep)], reasons


def _rows_thm42(inst: RandomInstance):
    rep_t, rep_s = verify_thm42(inst.family, inst.cfg, inst.omega, inst.sigma)
    rows = [_row(f"{inst.index}/T", rep_t)]
    if rep_s is not None:
        rows.append(_row(f"{inst.index}/Tstar", rep_s))
    return rows, []


def _rows_thm11(inst: RandomInstance):
    rep = check_thm11(inst.family, inst.cfg, inst.omega, inst.sigma, seed=inst.index)
    lower = rep.extras["certified_lower"]
    reasons = _unconverged(rep)
    if lower < rep.extras["characteristic"] * (1.0 - SANDWICH_TOL):
        reasons.append("certified lower bound fell below the characteristic")
    if rep.lhs < lower * (1.0 - SANDWICH_TOL):
        reasons.append("estimate fell below the certified bound")
    return [_row(str(inst.index), rep)], reasons


_RUNNERS = {
    "prop31": _rows_prop31,
    "lemma32": _rows_lemma32,
    "lemma34": _rows_lemma34,
    "lemma41": _rows_lemma41,
    "lemma43": _rows_lemma43,
    "principal": _rows_principal,
    "thm42": _rows_thm42,
    "thm11": _rows_thm11,
}

assert set(_RUNNERS) == set(SUITES)


def run_suite(suite: str, seed: int = CANONICAL_SEED, trials: int = CANONICAL_TRIALS) -> SuiteResult:
    """`trials` rows of the suite at the seed; the default is the baselines' canonical run."""
    if suite not in _RUNNERS:
        raise ParameterError(f"unknown suite {suite!r}")
    if integer(trials, "trials") < 1:
        raise ParameterError("need at least one trial")
    runner = _RUNNERS[suite]
    rows: list[SuiteRow] = []
    failures: list[str] = []
    start = time.perf_counter()
    for index in range(trials):
        inst = make_instance(suite, seed, index)
        inst_rows, reasons = runner(inst)
        for row in inst_rows:
            if not (math.isfinite(row.lhs) and math.isfinite(row.rhs)):
                reasons.append(f"non-finite value in row {row.instance_id}")
            elif row.rhs > 0.0 and row.ratio <= 0.0:
                reasons.append(f"vanishing ratio in row {row.instance_id}")
        failures += [f"{suite} seed {seed} instance {index}: {reason}" for reason in reasons]
        rows += inst_rows
    elapsed = time.perf_counter() - start
    return SuiteResult(
        suite=suite,
        seed=seed,
        trials=trials,
        rows=tuple(rows),
        failures=tuple(failures),
        elapsed=elapsed,
    )
