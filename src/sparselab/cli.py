"""Command line interface.

Five subcommands: `char`, `opnorm`, `testing`, `verify`, `sharpness`.
Each reads its numbers from one library call: `char` from the
characteristic triple shared with the checks, `opnorm` from
`testing.check_thm11`, `testing` from `testing.check_prop31`, `verify`
from `suites.run_suite` and `sharpness` from `sharpness.sweep`; the
three instance commands share the instance loader. Each registers only
the flags it reads: `char` takes ``--depth`` (the A_infty scan depth),
`testing` takes ``--seed`` (the solver seed) and `opnorm` takes both;
either flag wins over the same key in the instance file's ``options``,
which every instance command accepts. One runner then
digests the command's input, writes its CSV artifact into the output
directory (``--out``, overridden by the ``SPARSELAB_OUT`` environment
variable) and prints its JSON report to stdout. All floating output is
rounded to 12 significant digits and CSV files use LF line endings, so
identical inputs produce bitwise-identical artifacts; wall-clock timing
is reported separately and is the only nondeterministic field.

Exit codes: 0 success, 2 unreadable or malformed instance file (also
argparse usage errors), 3 invalid parameters (infeasible exponents are
rejected by `char` only, a scan depth below 0 or at level 63 or deeper by
`char` and `opnorm` before anything is allocated, and so is a scan too
large to allocate), 4 degenerate instance, 5 a `verify` ratio window
outside its frozen baseline, or a per-row invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from .baselines import check_window, load_baselines, save_baselines
from .dyadic import DyadicInterval, SparseFamily, _packing, chain_family, interval_arrays
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
from .suites import run_suite
from .testing import _characteristics, check_prop31, check_thm11
from .weights import ExponentConfig, PiecewiseWeight, PowerWeight, feasibility, one_weight_apq


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


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _int(obj: dict, key: str, path: str) -> int:
    val = _get(obj, key, path)
    if not _is_int(val):
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
        if not isinstance(raw, list) or not raw or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in raw
        ):
            raise InstanceParseError(
                f"field {path}.intervals must be a non-empty list of [level, position] pairs"
            )
        for i, pair in enumerate(raw):
            if not all(map(_is_int, pair)):
                raise InstanceParseError(f"field {path}.intervals[{i}] must be two integers")
        try:
            members = tuple(DyadicInterval(k, m) for k, m in raw)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}.intervals: {err}") from err
        if "eta" in obj:
            eta = _num(obj, "eta", path)
        else:
            eta = 1.0 / _packing(*interval_arrays(sorted(set(members))))
        try:
            return SparseFamily(members, eta=eta)
        except SparselabError as err:
            raise InstanceParseError(f"field {path}: {err}") from err
    raise InstanceParseError(f"field {path}.kind must be 'chain' or 'members'")


_KNOWN_TOP = {"exponents", "family", "omega", "sigma", "options"}
_OPTIONS = {"seed": _int, "restarts": _int, "max_iters": _int, "tol": _num, "depth": _int}
_SOLVER_OPTIONS = ("seed", "restarts", "max_iters", "tol")


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
    raw_options = _dict(raw, "options", "instance") if "options" in raw else {}
    options = {}
    for key in raw_options:
        if key not in _OPTIONS:
            raise InstanceParseError(f"unknown field options.{key}")
        options[key] = _OPTIONS[key](raw_options, key, "options")
    return ParsedInstance(raw, cfg, family, omega, sigma, options)


# ---------------------------------------------------------------- report IO


def _round12(obj, non_finite: list, key: str = ""):
    """obj with floats rounded to 12 digits; non-finite ones become None, their keys go to non_finite."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        non_finite.append(key)
        return None
    if isinstance(obj, dict):
        return {k: _round12(v, non_finite, f"{key}.{k}" if key else k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v, non_finite, f"{key}[{i}]") for i, v in enumerate(obj)]
    return obj


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(report: dict, elapsed: float) -> None:
    """Print the report as strict JSON; infinities and NaNs become null, listed under non_finite."""
    report = dict(report)
    report["elapsed_seconds"] = round(elapsed, 3)
    non_finite: list = []
    report = _round12(report, non_finite)
    if non_finite:
        report["non_finite"] = non_finite
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _char_report(rep) -> dict:
    return {
        "value": rep.value,
        "attained_at": str(rep.attained_at),
        "test_set": rep.test_set,
        "note": rep.note,
    }


def _depth_option(args, inst: ParsedInstance) -> Optional[int]:
    """A_infty scan depth from --depth or the instance file; None for the default."""
    if args.depth is not None:
        return args.depth
    return inst.options.get("depth")


def _solver_options(args, inst: ParsedInstance) -> dict:
    """The solver options the instance file sets, --seed winning; `maximize` defaults the rest."""
    opts = {k: v for k, v in inst.options.items() if k in _SOLVER_OPTIONS}
    if args.seed is not None:
        opts["seed"] = args.seed
    return opts


@dataclass(frozen=True, eq=False)
class _Artifact:
    """What a command publishes: the input it digests, its CSV and its JSON report."""

    source: object  # canonical input; its digest heads the CSV and the report
    csv_name: str
    note: str
    header: str
    rows: list
    report: dict
    code: int = EXIT_OK


# ---------------------------------------------------------------- commands


def _on_instance(compute, args) -> _Artifact:
    """Load --instance and run compute(args, inst) -> (note, values, rows) on it."""
    inst = load_instance(args.instance)
    note, values, rows = compute(args, inst)
    return _Artifact(
        inst.raw,
        f"{args.command}_{Path(args.instance).stem}.csv",
        note,
        "quantity,value",
        rows,
        {"instance": str(args.instance), "values": values},
    )


def cmd_char(args, inst: ParsedInstance) -> tuple[str, dict, list]:
    feas = feasibility(inst.cfg)
    if not feas.feasible:
        raise ParameterError(feas.diagnostic)
    depth, char, a_sig, a_om = _characteristics(
        inst.family, inst.cfg, inst.omega, inst.sigma, _depth_option(args, inst)
    )
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
    rows = [
        ("two-weight-char", char.value),
        ("ainfty-omega", a_om.value),
        ("ainfty-sigma", a_sig.value),
        ("one-weight-apq-omega", math.nan if apq_value is None else apq_value),
        ("feasibility-defect", feas.defect),
    ]
    return "char; dimensionless", values, rows


def cmd_opnorm(args, inst: ParsedInstance) -> tuple[str, dict, list]:
    rep = check_thm11(
        inst.family, inst.cfg, inst.omega, inst.sigma, _depth_option(args, inst),
        **_solver_options(args, inst),
    )
    extras = rep.extras
    values = {
        "estimate": rep.lhs,
        "certified_lower": extras["certified_lower"],
        "certified_upper": extras["certified_upper"],
        "certified_upper_reason": extras["certified_upper_reason"],
        "starts": extras["starts"],
        "characteristic": extras["characteristic"],
        "theorem_rhs": rep.rhs,
        "rhs_branch": extras["rhs_branch"],
        "ratio_lower_over_estimate": extras["lower_ratio"],
        "ratio_estimate_over_rhs": rep.ratio,
        "converged": extras["converged"],
        "residual": extras["residual"],
        "iterations": extras["iterations"],
        "depth": extras["depth"],
    }
    rows = [
        ("estimate", rep.lhs),
        ("certified-lower", extras["certified_lower"]),
        ("characteristic", extras["characteristic"]),
        ("theorem-rhs", rep.rhs),
        ("ratio-lower-over-estimate", extras["lower_ratio"]),
        ("ratio-estimate-over-rhs", rep.ratio),
    ]
    return "opnorm; operator norms", values, rows


def cmd_testing(args, inst: ParsedInstance) -> tuple[str, dict, list]:
    rep = check_prop31(
        inst.family, inst.cfg, inst.omega, inst.sigma, **_solver_options(args, inst)
    )
    t_val, tstar = rep.extras["testing_T"], rep.extras["testing_Tstar"]
    values = {
        "testing_T": t_val,
        "testing_Tstar": tstar,
        "tstar_note": "" if tstar is not None else "dual testing constant undefined for p <= r",
        "opnorm_power_r": rep.lhs,
        "testing_bound": rep.rhs,
        "ratio": rep.ratio,
        "branch": rep.extras["branch"],
    }
    rows = [
        ("testing-T", t_val),
        ("testing-Tstar", math.nan if tstar is None else tstar),
        ("opnorm-power-r", rep.lhs),
        ("testing-bound", rep.rhs),
        ("ratio", rep.ratio),
    ]
    return "testing; local testing constants", values, rows


def cmd_verify(args) -> _Artifact:
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    window = result.ratio_window
    code = EXIT_BASELINE if result.failures else EXIT_OK
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
    return _Artifact(
        {"suite": args.suite, "seed": args.seed, "trials": args.trials},
        f"verify_{args.suite}_seed{args.seed}_trials{args.trials}.csv",
        f"verify {args.suite}; ratio = lhs/rhs",
        "instance-id,lhs,rhs,ratio",
        [(r.instance_id, r.lhs, r.rhs, r.ratio) for r in result.rows],
        {
            "suite": args.suite,
            "seed": args.seed,
            "trials": args.trials,
            "rows": len(result.rows),
            "ratio_min": window[0],
            "ratio_max": window[1],
            "failures": list(result.failures),
            "baseline": baseline_status,
        },
        code,
    )


def cmd_sharpness(args) -> _Artifact:
    if args.eps_min_exp > args.eps_max_exp:
        raise ParameterError("--eps-min-exp must not exceed --eps-max-exp")
    grid = tuple(2.0**-k for k in range(args.eps_min_exp, args.eps_max_exp + 1))
    config = SharpnessConfig(
        p=args.p, q=args.q, alpha=args.alpha, variant=args.variant, eps_grid=grid
    )
    rows = sweep(config)
    fit = fit_slope(rows, window=min(4, len(rows)))
    expected = expected_slope(args.p, args.q, args.alpha, args.variant)
    return _Artifact(
        {
            "variant": args.variant,
            "p": args.p,
            "q": args.q,
            "alpha": args.alpha,
            "eps_min_exp": args.eps_min_exp,
            "eps_max_exp": args.eps_max_exp,
        },
        f"sharpness_{args.variant}_p{args.p:g}_q{args.q:g}"
        f"_e{args.eps_min_exp}-{args.eps_max_exp}.csv",
        f"sharpness {args.variant}; ratio = norm quotient",
        "eps,K,characteristic,ratio,tail-bound",
        [(r.eps, r.k_top, r.char, r.ratio, r.tail_bound) for r in rows],
        {
            "variant": args.variant,
            "exponents": {"p": args.p, "q": args.q, "alpha": args.alpha},
            "rows": len(rows),
            "fitted_slope": fit.slope,
            "expected_slope": expected,
            "slope_error": abs(fit.slope - expected),
            "fit_window_eps": list(fit.eps_window),
            "max_fit_residual": fit.max_residual,
            "max_tail_bound": max(r.tail_bound for r in rows),
        },
    )


# ---------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparselab",
        description="Sparse-operator two-weight norm experiments on the dyadic unit interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_help = {"--seed": "solver seed override", "--depth": "dyadic scan depth"}
    for name, compute, flags, text in (
        ("char", cmd_char, ("--depth",), "weight characteristics and exponent feasibility"),
        ("opnorm", cmd_opnorm, ("--seed", "--depth"),
         "operator-norm estimate with certified lower bound"),
        ("testing", cmd_testing, ("--seed",), "local testing constants and the norm comparison"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--out", default=None, help="output directory for CSV artifacts")
        sp.add_argument("--instance", required=True, help="instance JSON file")
        for flag in flags:
            sp.add_argument(flag, type=int, default=None, help=flag_help[flag])
        sp.set_defaults(func=partial(_on_instance, compute))

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


def _run(args) -> int:
    """Run the command, then digest its input, write its CSV and print its JSON report."""
    start = time.perf_counter()
    art = args.func(args)
    blob = json.dumps(art.source, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest()
    outdir = Path(os.environ.get("SPARSELAB_OUT") or args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / art.csv_name
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# sparselab {art.note}; input sha256:{digest[:16]}\n")
        fh.write(art.header + "\n")
        for row in art.rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    _emit(
        dict(art.report, command=args.command, digest=digest, csv=str(csv_path)),
        time.perf_counter() - start,
    )
    return art.code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
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
