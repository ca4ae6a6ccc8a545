"""Command line interface.

Five subcommands: `char`, `opnorm`, `testing`, `verify`, `sharpness`.
Every run prints a JSON report to stdout and writes a CSV artifact into
the output directory (``--out``, overridden by the ``SPARSELAB_OUT``
environment variable). All floating output is rounded to 12 significant
digits and CSV files use LF line endings, so identical inputs produce
bitwise-identical artifacts; wall-clock timing is reported separately
and is the only nondeterministic field.

Exit codes: 0 success, 2 unreadable or malformed instance file (also
argparse usage errors), 3 invalid parameters, 4 degenerate instance,
5 baseline or invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .baselines import check_window, load_baselines, save_baselines
from .dyadic import DyadicInterval, SparseFamily, carleson_constant, chain_family
from .errors import (
    EXIT_BASELINE,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_PARSE,
    BaselineViolationError,
    DegenerateInstanceError,
    InstanceParseError,
    ParameterError,
    SparselabError,
)
from .instances import SUITES
from .sharpness import SharpnessConfig, expected_slope, fit_slope, sweep
from .sparse import estimate_opnorm, rhs_branch, theorem_rhs
from .suites import run_suite
from .testing import _default_depth, check_prop31, testing_T, testing_Tstar
from .weights import (
    ExponentConfig,
    PiecewiseWeight,
    PowerWeight,
    ainfty,
    feasibility,
    one_weight_apq,
    two_weight_char,
)


# ---------------------------------------------------------------- instance IO


class ParsedInstance:
    def __init__(self, raw, cfg, family, omega, sigma, options):
        self.raw = raw
        self.cfg = cfg
        self.family = family
        self.omega = omega
        self.sigma = sigma
        self.options = options


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise InstanceParseError(f"missing field {path}.{key}")
    return obj[key]


def _num(obj: dict, key: str, path: str) -> float:
    val = _get(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InstanceParseError(f"field {path}.{key} must be a number")
    return float(val)


def _int(obj: dict, key: str, path: str) -> int:
    val = _get(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, int):
        raise InstanceParseError(f"field {path}.{key} must be an integer")
    return val


def _dict(obj: dict, key: str, path: str) -> dict:
    val = _get(obj, key, path)
    if not isinstance(val, dict):
        raise InstanceParseError(f"field {path}.{key} must be an object")
    return val


def _parse_weight(obj: dict, path: str):
    kind = _get(obj, "kind", path)
    if kind == "power":
        beta = _num(obj, "beta", path)
        coeff = _num(obj, "coeff", path) if "coeff" in obj else 1.0
        try:
            return PowerWeight(beta, coeff)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}: {err}") from err
    if kind == "piecewise":
        depth = _int(obj, "depth", path)
        values = _get(obj, "values", path)
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise InstanceParseError(f"field {path}.values must be a number list")
        try:
            return PiecewiseWeight(depth, [float(v) for v in values])
        except SparselabError as err:
            raise InstanceParseError(f"field {path}: {err}") from err
    raise InstanceParseError(f"field {path}.kind must be 'power' or 'piecewise'")


def _parse_family(obj: dict, path: str) -> SparseFamily:
    kind = _get(obj, "kind", path)
    if kind == "chain":
        depth = _int(obj, "depth", path)
        try:
            return chain_family(depth)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}.depth: {err}") from err
    if kind == "members":
        raw = _get(obj, "intervals", path)
        if not isinstance(raw, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in raw
        ):
            raise InstanceParseError(
                f"field {path}.intervals must be a list of [level, position] pairs"
            )
        try:
            members = tuple(DyadicInterval(int(k), int(m)) for k, m in raw)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}.intervals: {err}") from err
        if "eta" in obj:
            eta = _num(obj, "eta", path)
        else:
            eta = 1.0 / carleson_constant(SparseFamily(members, eta=1.0))
        try:
            return SparseFamily(members, eta=eta)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}: {err}") from err
    raise InstanceParseError(f"field {path}.kind must be 'chain' or 'members'")


_KNOWN_TOP = {"exponents", "family", "omega", "sigma", "options"}
_KNOWN_OPTIONS = {"seed", "restarts", "max_iters", "tol", "depth"}


def load_instance(path: str) -> ParsedInstance:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InstanceParseError(f"cannot read instance file {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceParseError(f"instance file is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise InstanceParseError("instance file must hold a JSON object")
    for key in raw:
        if key not in _KNOWN_TOP:
            raise InstanceParseError(f"unknown field {key!r} in instance file")
    exp = _dict(raw, "exponents", "instance")
    cfg = ExponentConfig(
        _num(exp, "p", "exponents"),
        _num(exp, "q", "exponents"),
        _num(exp, "r", "exponents"),
        _num(exp, "alpha", "exponents"),
    )
    family = _parse_family(_dict(raw, "family", "instance"), "family")
    omega = _parse_weight(_dict(raw, "omega", "instance"), "omega")
    sigma = _parse_weight(_dict(raw, "sigma", "instance"), "sigma")
    options = dict(raw.get("options", {}))
    for key in options:
        if key not in _KNOWN_OPTIONS:
            raise InstanceParseError(f"unknown field options.{key}")
    return ParsedInstance(raw, cfg, family, omega, sigma, options)


# ---------------------------------------------------------------- report IO


def _round12(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _outdir(args) -> Path:
    out = os.environ.get("SPARSELAB_OUT") or args.out or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, note: str, digest: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# sparselab {note}; input sha256:{digest[:16]}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _emit(report: dict, elapsed: float) -> None:
    report = dict(report)
    report["elapsed_seconds"] = round(elapsed, 3)
    print(json.dumps(_round12(report), indent=2, sort_keys=True))


def _char_report(rep) -> dict:
    return {
        "value": rep.value,
        "attained_at": str(rep.attained_at),
        "test_set": rep.test_set,
        "note": rep.note,
    }


def _resolve_depth(args, inst: ParsedInstance) -> int:
    if getattr(args, "depth", None) is not None:
        return args.depth
    if inst.options.get("depth") is not None:
        return int(inst.options["depth"])
    return _default_depth(inst.family, inst.omega, inst.sigma)


def _solver_options(args, inst: ParsedInstance) -> dict:
    """Ascent options from the instance file; --seed, when given, wins."""
    opts = inst.options
    seed = args.seed if args.seed is not None else opts.get("seed", 0)
    return {
        "restarts": int(opts.get("restarts", 16)),
        "max_iters": int(opts.get("max_iters", 5000)),
        "tol": float(opts.get("tol", 1e-8)),
        "seed": int(seed),
    }


# ---------------------------------------------------------------- commands


def cmd_char(args) -> int:
    start = time.perf_counter()
    inst = load_instance(args.instance)
    feas = feasibility(inst.cfg)
    if not feas.feasible:
        raise ParameterError(feas.diagnostic)
    depth = _resolve_depth(args, inst)
    char = two_weight_char(inst.omega, inst.sigma, inst.cfg, inst.family)
    a_om = ainfty(inst.omega, depth=depth)
    a_sig = ainfty(inst.sigma, depth=depth)
    try:
        apq = one_weight_apq(inst.omega, inst.cfg.p, inst.cfg.q, depth=depth)
        apq_value: Optional[float] = apq.value
        apq_note = apq.test_set
    except ParameterError as err:
        apq_value = None
        apq_note = f"skipped: {err}"
    values = {
        "two_weight_char": _char_report(char),
        "ainfty_omega": _char_report(a_om),
        "ainfty_sigma": _char_report(a_sig),
        "one_weight_apq_omega": {"value": apq_value, "note": apq_note},
        "feasibility": {
            "feasible": feas.feasible,
            "defect": feas.defect,
            "sobolev_line": feas.sobolev_line,
            "diagonal_required": feas.diagonal_required,
            "q_range": list(feas.q_range),
            "diagnostic": feas.diagnostic,
        },
        "depth": depth,
    }
    digest = _digest(inst.raw)
    outdir = _outdir(args)
    csv_path = outdir / f"char_{Path(args.instance).stem}.csv"
    rows = [
        ("two-weight-char", char.value),
        ("ainfty-omega", a_om.value),
        ("ainfty-sigma", a_sig.value),
        ("one-weight-apq-omega", math.nan if apq_value is None else apq_value),
        ("feasibility-defect", feas.defect),
    ]
    _write_csv(csv_path, "char; dimensionless", digest, "quantity,value", rows)
    _emit(
        {
            "command": "char",
            "instance": str(args.instance),
            "digest": digest,
            "values": values,
            "csv": str(csv_path),
        },
        time.perf_counter() - start,
    )
    return EXIT_OK


def cmd_opnorm(args) -> int:
    start = time.perf_counter()
    inst = load_instance(args.instance)
    est = estimate_opnorm(
        inst.family, inst.cfg, inst.omega, inst.sigma, **_solver_options(args, inst)
    )
    depth = _resolve_depth(args, inst)
    char = two_weight_char(inst.omega, inst.sigma, inst.cfg, inst.family).value
    a_sig = ainfty(inst.sigma, depth=depth).value
    a_om = ainfty(inst.omega, depth=depth).value
    rhs = theorem_rhs(inst.cfg, char, a_sig, a_om)
    values = {
        "estimate": est.ascent_value,
        "certified_lower": est.certified_lower,
        "characteristic": char,
        "theorem_rhs": rhs,
        "rhs_branch": rhs_branch(inst.cfg),
        "ratio_lower_over_estimate": est.certified_lower / est.ascent_value,
        "ratio_estimate_over_rhs": est.ascent_value / rhs,
        "converged": est.converged,
        "iterations": est.iterations,
        "depth": depth,
    }
    digest = _digest(inst.raw)
    outdir = _outdir(args)
    csv_path = outdir / f"opnorm_{Path(args.instance).stem}.csv"
    rows = [
        ("estimate", est.ascent_value),
        ("certified-lower", est.certified_lower),
        ("characteristic", char),
        ("theorem-rhs", rhs),
        ("ratio-lower-over-estimate", values["ratio_lower_over_estimate"]),
        ("ratio-estimate-over-rhs", values["ratio_estimate_over_rhs"]),
    ]
    _write_csv(csv_path, "opnorm; operator norms", digest, "quantity,value", rows)
    _emit(
        {
            "command": "opnorm",
            "instance": str(args.instance),
            "digest": digest,
            "values": values,
            "csv": str(csv_path),
        },
        time.perf_counter() - start,
    )
    return EXIT_OK


def cmd_testing(args) -> int:
    start = time.perf_counter()
    inst = load_instance(args.instance)
    cfg = inst.cfg
    t_val = testing_T(inst.family, cfg, inst.omega, inst.sigma)
    if cfg.p > cfg.r:
        tstar: Optional[float] = testing_Tstar(inst.family, cfg, inst.omega, inst.sigma)
        tstar_note = ""
    else:
        tstar = None
        tstar_note = "dual testing constant undefined for p <= r"
    rep = check_prop31(
        inst.family, cfg, inst.omega, inst.sigma, **_solver_options(args, inst)
    )
    values = {
        "testing_T": t_val,
        "testing_Tstar": tstar,
        "tstar_note": tstar_note,
        "opnorm_power_r": rep.lhs,
        "testing_bound": rep.rhs,
        "ratio": rep.ratio,
        "branch": rep.extras.get("branch", ""),
    }
    digest = _digest(inst.raw)
    outdir = _outdir(args)
    csv_path = outdir / f"testing_{Path(args.instance).stem}.csv"
    rows = [
        ("testing-T", t_val),
        ("testing-Tstar", math.nan if tstar is None else tstar),
        ("opnorm-power-r", rep.lhs),
        ("testing-bound", rep.rhs),
        ("ratio", rep.ratio),
    ]
    _write_csv(csv_path, "testing; local testing constants", digest, "quantity,value", rows)
    _emit(
        {
            "command": "testing",
            "instance": str(args.instance),
            "digest": digest,
            "values": values,
            "csv": str(csv_path),
        },
        time.perf_counter() - start,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    window = result.ratio_window
    digest = _digest({"suite": args.suite, "seed": args.seed, "trials": args.trials})
    outdir = _outdir(args)
    csv_path = outdir / f"verify_{args.suite}_seed{args.seed}_trials{args.trials}.csv"
    _write_csv(
        csv_path,
        f"verify {args.suite}; ratio = lhs/rhs",
        digest,
        "instance-id,lhs,rhs,ratio",
        [(r.instance_id, r.lhs, r.rhs, r.ratio) for r in result.rows],
    )
    code = EXIT_OK
    if args.refresh_baselines:
        try:
            windows = load_baselines()
        except (OSError, ParameterError):
            windows = {}
        windows[args.suite] = window
        save_baselines(windows)
        baseline_status = "refreshed"
    else:
        try:
            check_window(args.suite, window)
            baseline_status = "within frozen window"
        except BaselineViolationError as err:
            baseline_status = str(err)
            code = EXIT_BASELINE
    if result.failures:
        code = EXIT_BASELINE
    _emit(
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "trials": args.trials,
            "digest": digest,
            "rows": len(result.rows),
            "ratio_min": window[0],
            "ratio_max": window[1],
            "failures": list(result.failures),
            "baseline": baseline_status,
            "csv": str(csv_path),
        },
        time.perf_counter() - start,
    )
    return code


def cmd_sharpness(args) -> int:
    start = time.perf_counter()
    if args.eps_min_exp > args.eps_max_exp:
        raise ParameterError("--eps-min-exp must not exceed --eps-max-exp")
    grid = tuple(2.0**-k for k in range(args.eps_min_exp, args.eps_max_exp + 1))
    config = SharpnessConfig(
        p=args.p, q=args.q, alpha=args.alpha, variant=args.variant, eps_grid=grid
    )
    rows = sweep(config)
    fit = fit_slope(rows, window=min(4, len(rows)))
    expected = expected_slope(args.p, args.q, args.alpha, args.variant)
    digest = _digest(
        {
            "variant": args.variant,
            "p": args.p,
            "q": args.q,
            "alpha": args.alpha,
            "eps_min_exp": args.eps_min_exp,
            "eps_max_exp": args.eps_max_exp,
        }
    )
    outdir = _outdir(args)
    csv_path = outdir / (
        f"sharpness_{args.variant}_p{args.p:g}_q{args.q:g}"
        f"_e{args.eps_min_exp}-{args.eps_max_exp}.csv"
    )
    _write_csv(
        csv_path,
        f"sharpness {args.variant}; ratio = norm quotient",
        digest,
        "eps,K,characteristic,ratio,tail-bound",
        [(r.eps, r.k_top, r.char, r.ratio, r.tail_bound) for r in rows],
    )
    _emit(
        {
            "command": "sharpness",
            "variant": args.variant,
            "exponents": {"p": args.p, "q": args.q, "alpha": args.alpha},
            "digest": digest,
            "rows": len(rows),
            "fitted_slope": fit.slope,
            "expected_slope": expected,
            "slope_error": abs(fit.slope - expected),
            "fit_window_eps": list(fit.eps_window),
            "max_fit_residual": fit.max_residual,
            "max_tail_bound": max(r.tail_bound for r in rows),
            "csv": str(csv_path),
        },
        time.perf_counter() - start,
    )
    return EXIT_OK


# ---------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselab",
        description="Sparse-operator two-weight norm experiments on the dyadic unit interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, instance=False):
        sp.add_argument("--out", default=None, help="output directory for CSV artifacts")
        if instance:
            sp.add_argument("--instance", required=True, help="instance JSON file")
            sp.add_argument("--seed", type=int, default=None, help="ascent seed override")
            sp.add_argument("--depth", type=int, default=None, help="dyadic scan depth")

    sp = sub.add_parser("char", help="weight characteristics and exponent feasibility")
    add_common(sp, instance=True)
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("opnorm", help="operator-norm estimate with certified lower bound")
    add_common(sp, instance=True)
    sp.set_defaults(func=cmd_opnorm)

    sp = sub.add_parser("testing", help="local testing constants and the norm comparison")
    add_common(sp, instance=True)
    sp.set_defaults(func=cmd_testing)

    sp = sub.add_parser("verify", help="seeded ratio suites against frozen baselines")
    sp.add_argument("--suite", required=True, choices=list(SUITES))
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--out", default=None)
    sp.add_argument(
        "--refresh-baselines",
        action="store_true",
        help="freeze the observed ratio window (never use in CI)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sharpness", help="power-weight sweeps along the critical exponent line")
    sp.add_argument("--variant", required=True, choices=["primal", "dual"])
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps-min-exp", type=int, default=4)
    sp.add_argument("--eps-max-exp", type=int, default=12)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceParseError as err:
        _fail("parse", err)
        return EXIT_PARSE
    except BaselineViolationError as err:
        _fail("baseline", err)
        return EXIT_BASELINE
    except DegenerateInstanceError as err:
        _fail("degenerate", err)
        return EXIT_DEGENERATE
    except ParameterError as err:
        _fail("parameter", err)
        return EXIT_PARAMETER


def _fail(kind: str, err: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(err)}), file=sys.stderr)


def entrypoint() -> None:
    raise SystemExit(main())
