"""Seeded ratio suites driving the comparability checks in bulk.

Each trial draws a deterministic random instance and records one row
(lhs, rhs, ratio); the testing-constant suite records one row per
constant. Conditions that are exact theorems rather than
implied-constant statements are enforced per row and reported as
failures. Observed ratio windows are meant to be compared against the
frozen baselines (see the baselines module).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import ParameterError
from .instances import SUITES, RandomInstance, make_instance
from .sparse import estimate_opnorm, theorem_rhs
from .stopping import build_principal_cubes, principal_sum_bound
from .testing import (
    PositiveDyadicOperator,
    _default_depth,
    check_lemma32,
    check_lemma41,
    check_lemma43,
    check_prop31,
    lsu_check,
    verify_thm42,
)
from .weights import ainfty, two_weight_char

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


def _row(instance_id: str, lhs: float, rhs: float) -> SuiteRow:
    lhs, rhs = float(lhs), float(rhs)
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return SuiteRow(instance_id, lhs, rhs, ratio)


def _rows_prop31(inst: RandomInstance, failures):
    rep = check_prop31(
        inst.family, inst.cfg, inst.omega, inst.sigma, seed=inst.index
    )
    return [_row(str(inst.index), rep.lhs, rep.rhs)]


def _rows_lemma32(inst: RandomInstance, failures):
    rep = check_lemma32(
        inst.family, inst.cfg, inst.extras["coefs"], inst.omega, inst.sigma,
        seed=inst.index,
    )
    return [_row(str(inst.index), rep.lhs, rep.rhs)]


def _rows_lemma34(inst: RandomInstance, failures):
    op = PositiveDyadicOperator(inst.family, inst.extras["taus"])
    rep = lsu_check(
        op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma,
        seed=inst.index,
    )
    return [_row(str(inst.index), rep.lhs, rep.rhs)]


def _rows_lemma41(inst: RandomInstance, failures):
    p = inst.extras["p"]
    rep = check_lemma41(inst.family, inst.extras["coefs"], inst.sigma, p)
    if p == 2.0:
        # exactly two-sided at p = 2
        if not 1.0 - 1e-9 <= rep.ratio <= math.sqrt(2.0) + 1e-9:
            failures.append(
                f"instance {inst.index}: p=2 ratio {rep.ratio} outside [1, sqrt 2]"
            )
    return [_row(str(inst.index), rep.lhs, rep.rhs)]


def _rows_lemma43(inst: RandomInstance, failures):
    query = inst.extras["query"]
    rep = check_lemma43(
        inst.family, inst.omega, inst.sigma, query, inst.extras["top"]
    )
    if query.a > 0.0 and rep.ratio < 1.0 - SANDWICH_TOL:
        # the packed sum contains the reference term itself
        failures.append(
            f"instance {inst.index}: packed sum below its own top term"
        )
    return [_row(str(inst.index), rep.lhs, rep.rhs)]


def _rows_principal(inst: RandomInstance, failures):
    stopping = build_principal_cubes(inst.family, inst.extras["f"], inst.sigma)
    bound = principal_sum_bound(stopping, inst.extras["f"], inst.sigma, inst.extras["p"])
    lhs = bound["max_pointwise_ratio"]
    if lhs > 1.0 + SANDWICH_TOL:
        failures.append(
            f"instance {inst.index}: pointwise principal sum exceeds the exact bound"
        )
    return [_row(str(inst.index), lhs, 1.0)]


def _rows_thm42(inst: RandomInstance, failures):
    rep_t, rep_s = verify_thm42(inst.family, inst.cfg, inst.omega, inst.sigma)
    rows = [_row(f"{inst.index}/T", rep_t.lhs, rep_t.rhs)]
    if rep_s is not None:
        rows.append(_row(f"{inst.index}/Tstar", rep_s.lhs, rep_s.rhs))
    return rows


def _rows_thm11(inst: RandomInstance, failures):
    cfg = inst.cfg
    est = estimate_opnorm(
        inst.family, cfg, inst.omega, inst.sigma, seed=inst.index
    )
    char = two_weight_char(inst.omega, inst.sigma, cfg, inst.family).value
    if est.certified_lower < char * (1.0 - SANDWICH_TOL):
        failures.append(
            f"instance {inst.index}: certified lower bound fell below the characteristic"
        )
    if est.ascent_value < est.certified_lower * (1.0 - SANDWICH_TOL):
        failures.append(
            f"instance {inst.index}: estimate fell below the certified bound"
        )
    depth = _default_depth(inst.family, inst.omega, inst.sigma)
    rhs = theorem_rhs(
        cfg,
        char,
        ainfty(inst.sigma, depth=depth).value,
        ainfty(inst.omega, depth=depth).value,
    )
    return [_row(str(inst.index), est.ascent_value, rhs)]


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


def run_suite(suite: str, seed: int = 7, trials: int = 100) -> SuiteResult:
    if suite not in _RUNNERS:
        raise ParameterError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    runner = _RUNNERS[suite]
    rows: list[SuiteRow] = []
    failures: list[str] = []
    start = time.perf_counter()
    for index in range(trials):
        inst = make_instance(suite, seed, index)
        for row in runner(inst, failures):
            if not (math.isfinite(row.lhs) and math.isfinite(row.rhs)):
                failures.append(f"instance {row.instance_id}: non-finite value")
            elif row.rhs > 0.0 and row.ratio <= 0.0:
                failures.append(f"instance {row.instance_id}: vanishing ratio")
            rows.append(row)
    elapsed = time.perf_counter() - start
    return SuiteResult(
        suite=suite,
        seed=seed,
        trials=trials,
        rows=tuple(rows),
        failures=tuple(failures),
        elapsed=elapsed,
    )
