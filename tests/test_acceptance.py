"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines on passing runs too). The slow criteria regenerate the seeded
verification suites from scratch, so this module takes several minutes.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sparselab
from sparselab import (
    DyadicInterval,
    ExponentConfig,
    LEBESGUE,
    PiecewiseWeight,
    PowerWeight,
    ROOT,
    SharpnessConfig,
    SparseFamily,
    chain_family,
    default_eps_grid,
    dual_quantities,
    estimate_opnorm,
    fit_slope,
    make_instance,
    oracle_opnorm,
    primal_quantities,
    run_suite,
    sweep,
    two_weight_char,
)
from sparselab.baselines import check_window

SEED = 7
SLOPE_GRID = tuple(2.0**-k for k in range(9, 13))


def _verdict(num: int, text: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {text}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.mark.slow
def test_criterion_1_lower_bound_sandwich():
    t0 = time.perf_counter()
    bad = []
    covered = 0
    for i in range(200):
        inst = make_instance("thm11", SEED, i)
        est = estimate_opnorm(inst.family, inst.cfg, inst.omega, inst.sigma, seed=i)
        char = two_weight_char(inst.omega, inst.sigma, inst.cfg, inst.family).value
        if not est.ascent_value >= est.certified_lower * (1.0 - 1e-12):
            bad.append(f"{i}: estimate below the indicator bound")
        if not est.certified_lower >= char * (1.0 - 1e-12):
            bad.append(f"{i}: indicator bound below the characteristic")
        # p = q, r <= q: the Collatz-Wielandt bound closes the sandwich from above
        if inst.cfg.p == inst.cfg.q:
            covered += 1
            if est.certified_upper is None or not est.ascent_value <= est.certified_upper:
                bad.append(f"{i}: estimate above the certified upper bound")
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "characteristic <= indicator bound <= estimate (<= upper bound where p = q)"
        " on 200 seeded instances",
        not bad and covered == 133 and elapsed < 120.0,
        f"{len(bad)} violations, {covered} bracketed rows, {elapsed:.1f}s"
        + ("; " + bad[0] if bad else ""),
    )


def test_criterion_2_primal_slope_2_4():
    t0 = time.perf_counter()
    rows = sweep(SharpnessConfig(2, 4, 0.75, "primal", eps_grid=SLOPE_GRID))
    fit = fit_slope(rows, window=4)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "primal (2, 4, 3/4) slope within 0.05 of 0.375",
        abs(fit.slope - 0.375) <= 0.05 and elapsed < 60.0,
        f"slope {fit.slope:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_dual_slopes_and_crossover():
    results = []
    for p, q, alpha, variant, target in [
        (2, 4, 0.75, "dual", 0.25),
        (4, 8, 0.875, "dual", 0.375),
        (4, 8, 0.875, "primal", 7.0 / 48.0),
    ]:
        t0 = time.perf_counter()
        rows = sweep(SharpnessConfig(p, q, alpha, variant, eps_grid=SLOPE_GRID))
        fit = fit_slope(rows, window=4)
        elapsed = time.perf_counter() - t0
        results.append((variant, p, q, fit.slope, target, elapsed))
    ok = all(abs(s - t) <= 0.05 and e < 60.0 for _, _, _, s, t, e in results)
    detail = "; ".join(
        f"{v} ({p},{q}): {s:.4f} vs {t:.4f}" for v, p, q, s, t, _ in results
    )
    _verdict(3, "dual slopes plus the exponent-crossover pair", ok, detail)


def test_criterion_4_closed_form_identities():
    worst_f, worst_c = 0.0, 0.0
    for p, q, alpha in [(2, 4, 0.75), (4, 8, 0.875)]:
        for row in sweep(SharpnessConfig(p, q, alpha, "primal")):
            worst_f = max(worst_f, _rel(row.extras["fnorm"], row.eps ** (-1.0 / p)))
        for row in sweep(SharpnessConfig(p, q, alpha, "dual")):
            worst_c = max(worst_c, row.extras["coef_identity_max_rel"])
    _verdict(
        4,
        "test-function norm and dual coefficient identities to 1e-9",
        worst_f <= 1e-9 and worst_c <= 1e-9,
        f"max deviations {worst_f:.2e}, {worst_c:.2e}",
    )


def _small_instances():
    bump = PiecewiseWeight(1, [3.0, 0.5])
    bump2 = PiecewiseWeight(2, [4.0, 1.0, 0.25, 2.0])
    single = SparseFamily((ROOT,))
    half = SparseFamily((ROOT, DyadicInterval(1, 0)), eta=0.5)
    right = SparseFamily((ROOT, DyadicInterval(1, 1)), eta=0.5)
    fams = [
        (single, LEBESGUE, PowerWeight(-0.5)),
        (single, bump, bump2),
        (half, PowerWeight(-0.5), PowerWeight(-0.5)),
        (right, bump2, LEBESGUE),
        (chain_family(2), PowerWeight(0.25), bump2),
        (chain_family(2), bump2, PowerWeight(-0.25)),
    ]
    cfgs = [
        ExponentConfig(2, 2, 1, 1),
        ExponentConfig(2, 4, 2, 0.75),
        ExponentConfig(1.5, 3, 0.5, 1),
        ExponentConfig(2, 2, 1, 0.5),
        ExponentConfig(3, 3, 2, 1),
    ]
    return [(f, c, om, sg) for f, om, sg in fams for c in cfgs]


def test_criterion_5_oracle_equivalence():
    cases = _small_instances()
    assert len(cases) >= 30
    t0 = time.perf_counter()
    worst = 0.0
    bracketed, below = 0, 0
    for fam, cfg, omega, sigma in cases:
        est = estimate_opnorm(fam, cfg, omega, sigma, seed=0)
        oracle = oracle_opnorm(fam, cfg, omega, sigma)
        worst = max(worst, _rel(est.ascent_value, oracle))
        if est.certified_upper is not None:
            bracketed += 1
            below += not est.certified_upper >= oracle
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        f"ascent matches the dense oracle on {len(cases)} small instances",
        worst <= 1e-4 and bracketed and not below and elapsed < 60.0,
        f"worst relative gap {worst:.2e}; {below} of {bracketed} upper bounds"
        f" below the oracle; {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_6_frozen_ratio_suites():
    problems = []
    for suite in ("prop31", "lemma32", "lemma34", "lemma41", "lemma43", "thm42"):
        res = run_suite(suite, seed=SEED, trials=100)
        problems.extend(f"{suite}: {f}" for f in res.failures)
        try:
            check_window(suite, res.ratio_window)
        except Exception as exc:  # noqa: BLE001 - report any window escape
            problems.append(f"{suite}: {exc}")
    res = run_suite("principal", seed=SEED, trials=100)
    problems.extend(f"principal: {f}" for f in res.failures)
    if any(row.lhs > 1.0 + 1e-12 for row in res.rows):
        problems.append("principal: pointwise constant exceeded")
    try:
        check_window("principal", res.ratio_window)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"principal: {exc}")
    _verdict(
        6,
        "six ratio suites inside frozen windows; principal bound exact",
        not problems,
        problems[0] if problems else "7 suites x 100 instances clean",
    )


def test_criterion_7_truncation_robustness():
    worst = 0.0
    for p, q, alpha in [(2, 4, 0.75), (4, 8, 0.875)]:
        for eps in default_eps_grid():
            k = math.ceil(20.0 / eps)
            a = primal_quantities(eps, p, q, alpha, k)
            b = primal_quantities(eps, p, q, alpha, 2 * k)
            for x, y in [(a.fnorm, b.fnorm), (a.af_lower, b.af_lower),
                         (a.af_exact, b.af_exact)]:
                worst = max(worst, _rel(x, y))
            da = dual_quantities(eps, p, q, alpha, k)
            db = dual_quantities(eps, p, q, alpha, 2 * k)
            for x, y in [(da.rhs_norm, db.rhs_norm), (da.lhs_norm, db.lhs_norm)]:
                worst = max(worst, _rel(x, y))
    _verdict(
        7,
        "doubling the truncation moves every norm by <= 1e-6 relative",
        worst <= 1e-6,
        f"worst relative change {worst:.2e}",
    )


@pytest.mark.slow
def test_criterion_8_bitwise_deterministic_verify(tmp_path):
    # Launch the CLI as `python -m sparselab` with the directory this module
    # imported sparselab from first on PYTHONPATH: the command under test is
    # then the library under test, installed or not.
    argv = [sys.executable, "-m", "sparselab", "verify", "--suite", "thm11",
            "--seed", "7", "--trials", "200"]
    src_dir = str(Path(sparselab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        env = dict(os.environ, SPARSELAB_OUT=str(out), PYTHONPATH=pythonpath)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "verify_thm11_seed7_trials200.csv").read_bytes())
    _verdict(
        8,
        "two verify runs emit bitwise-identical reports",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes each",
    )
