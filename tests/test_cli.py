"""End-to-end command line tests: exit codes, artifacts, determinism."""

import json
import math
from dataclasses import replace

import pytest

from sparselab import (
    DyadicInterval,
    FamilyGeometry,
    RandomInstance,
    SparseFamily,
    carleson_constant,
    check_prop31,
    check_thm11,
)
from sparselab import testing_T as _testing_T  # aliases keep pytest collection clean
from sparselab import testing_Tstar as _testing_Tstar
from sparselab.cli import _emit, _round12, load_instance, main
from sparselab.suites import _rows_thm11

CHAIN_INSTANCE = {
    "exponents": {"p": 2, "q": 2, "r": 1, "alpha": 1},
    "family": {"kind": "chain", "depth": 2},
    "omega": {"kind": "power", "beta": -0.5},
    "sigma": {"kind": "power", "beta": -0.5},
    "options": {"seed": 3, "restarts": 4},
}


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch, tmp_path):
    monkeypatch.delenv("SPARSELAB_OUT", raising=False)
    monkeypatch.setattr(
        "sparselab.baselines.baseline_path", lambda: tmp_path / "baselines.txt"
    )


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, report, err


def test_char_command(tmp_path, capsys):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    code, report, _ = run_cli(
        capsys, ["char", "--instance", inst, "--out", str(tmp_path)]
    )
    assert code == 0
    # sup over the chain of |Q|^{-1} (2 sqrt|Q|) peaks at the deepest member
    assert report["values"]["two_weight_char"]["value"] == pytest.approx(4.0, rel=1e-12)
    assert report["values"]["feasibility"]["feasible"] is True
    csv_lines = (tmp_path / "char_inst.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# sparselab char")
    assert "input sha256:" in csv_lines[0]
    assert csv_lines[1] == "quantity,value"
    assert csv_lines[2].split(",") == ["two-weight-char", "4"]


def test_opnorm_sandwich_and_determinism(tmp_path, capsys):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, rep_a, _ = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(out_a)])
    code_b, rep_b, _ = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(out_b)])
    assert code_a == code_b == 0
    vals = rep_a["values"]
    assert vals["certified_lower"] <= vals["estimate"] * (1 + 1e-12)
    assert vals["estimate"] <= vals["theorem_rhs"]
    assert vals["rhs_branch"] == "generic"
    assert vals["converged"] and vals["residual"] <= 1e-8
    # p = q: one start, bracketed from above
    assert vals["starts"] == 1 and vals["certified_upper_reason"] is None
    assert vals["estimate"] <= vals["certified_upper"] <= vals["estimate"] * (1 + 1e-6)
    for rep in (rep_a, rep_b):
        rep.pop("elapsed_seconds")
        rep.pop("csv")
    assert rep_a == rep_b
    assert (out_a / "opnorm_inst.csv").read_bytes() == (out_b / "opnorm_inst.csv").read_bytes()


def test_opnorm_and_the_thm11_row_read_check_thm11(tmp_path, capsys):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    code, report, _ = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 0
    parsed = load_instance(inst)
    args = (parsed.family, parsed.cfg, parsed.omega, parsed.sigma)
    rep = check_thm11(*args, restarts=4, seed=3)
    names = ("certified_lower", "certified_upper", "certified_upper_reason", "starts",
             "characteristic", "rhs_branch", "converged", "residual", "iterations", "depth")
    expected = {name: rep.extras[name] for name in names}
    expected.update(
        estimate=rep.lhs, theorem_rhs=rep.rhs, ratio_estimate_over_rhs=rep.ratio,
        ratio_lower_over_estimate=rep.extras["lower_ratio"],
    )
    assert report["values"] == _round12(expected, [])
    # the suite row of the same instance, at the suite's solver options
    row_inst = RandomInstance("thm11", 3, parsed.family, parsed.omega, parsed.sigma, parsed.cfg)
    rows, reasons = _rows_thm11(row_inst)
    rep = check_thm11(*args, seed=3)
    assert reasons == [] and len(rows) == 1
    assert (rows[0].instance_id, rows[0].lhs, rows[0].rhs, rows[0].ratio) == (
        "3", rep.lhs, rep.rhs, rep.ratio
    )


def test_opnorm_reports_an_underflowed_estimate(tmp_path, capsys):
    # sigma at 1e-300 underflows the estimate to 0; both ratios follow the
    # report rule, 0 over a vanishing rhs, instead of dividing by zero
    payload = dict(
        CHAIN_INSTANCE,
        exponents={"p": 3, "q": 3, "r": 2, "alpha": 1},
        sigma={"kind": "power", "beta": -0.5, "coeff": 1e-300},
    )
    inst = write_instance(tmp_path, payload)
    code, rep, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 0 and err is None
    vals = rep["values"]
    assert vals["estimate"] == vals["certified_lower"] == 0.0
    assert vals["ratio_lower_over_estimate"] == vals["ratio_estimate_over_rhs"] == 0.0
    # a vanishing value certifies nothing: the instance's 4 seeded starts
    # run after the rejected constant start
    assert vals["certified_upper"] is None
    assert "not positive and finite" in vals["certified_upper_reason"]
    assert vals["starts"] == 5
    assert (tmp_path / "opnorm_inst.csv").exists()


def test_opnorm_reports_why_no_upper_bound(tmp_path, capsys):
    payload = dict(CHAIN_INSTANCE, exponents={"p": 2, "q": 4, "r": 2, "alpha": 0.75})
    inst = write_instance(tmp_path, payload)
    code, rep, _ = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 0
    vals = rep["values"]
    assert vals["certified_upper"] is None and "1-homogeneous" in vals["certified_upper_reason"]
    assert vals["starts"] == 4  # the instance's restarts
    assert "non_finite" not in rep
    # the bracket goes to the JSON report only; the CSV rows stay as they were
    lines = (tmp_path / "opnorm_inst.csv").read_text().splitlines()[2:]
    assert [line.split(",")[0] for line in lines] == [
        "estimate", "certified-lower", "characteristic", "theorem-rhs",
        "ratio-lower-over-estimate", "ratio-estimate-over-rhs",
    ]


class _Received(Exception):
    """Raised by a stand-in solver once it has recorded its arguments."""


@pytest.mark.parametrize("command,solver", [("opnorm", "check_thm11"), ("testing", "check_prop31")])
@pytest.mark.parametrize("argv_seed,seed", [(["--seed", "99"], 99), ([], 3)])
def test_solver_options_reach_the_solver(tmp_path, monkeypatch, command, solver, argv_seed, seed):
    # --seed wins over options.seed; the solver gets the file's options and
    # nothing else, so maximize's own defaults fill the rest
    received = {}

    def stand_in(*args, **kwargs):
        received.update(kwargs)
        raise _Received

    monkeypatch.setattr(f"sparselab.cli.{solver}", stand_in)
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    with pytest.raises(_Received):
        main([command, "--instance", inst, "--out", str(tmp_path), *argv_seed])
    assert received == {"restarts": 4, "seed": seed}


def test_out_env_override(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("SPARSELAB_OUT", str(env_dir))
    code, report, _ = run_cli(
        capsys, ["char", "--instance", inst, "--out", str(tmp_path / "ignored")]
    )
    assert code == 0
    assert (env_dir / "char_inst.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_testing_command(tmp_path, capsys):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    code, report, _ = run_cli(capsys, ["testing", "--instance", inst, "--out", str(tmp_path)])
    assert code == 0
    vals = report["values"]
    assert vals["testing_T"] > 0.0
    assert vals["testing_Tstar"] > 0.0
    assert vals["branch"].startswith("r < p")
    assert 0.0 < vals["ratio"] <= 1.0 + 1e-9


def test_testing_builds_one_geometry(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    parsed = load_instance(inst)
    args = (parsed.family, parsed.cfg, parsed.omega, parsed.sigma)
    t_val, tstar = _testing_T(*args), _testing_Tstar(*args)
    rep = check_prop31(*args, restarts=4, seed=3)
    assert rep.extras["testing_T"] == t_val and rep.extras["testing_Tstar"] == tstar
    built = []
    init = FamilyGeometry.__init__

    def counting(self, *a, **k):
        built.append(self)
        init(self, *a, **k)

    monkeypatch.setattr(FamilyGeometry, "__init__", counting)
    code, report, _ = run_cli(capsys, ["testing", "--instance", inst, "--out", str(tmp_path)])
    assert code == 0 and len(built) == 1
    vals = report["values"]
    assert [vals["testing_T"], vals["testing_Tstar"]] == _round12([t_val, tstar], [])
    assert [vals["opnorm_power_r"], vals["testing_bound"]] == _round12([rep.lhs, rep.rhs], [])


def test_parse_errors_name_the_field(tmp_path, capsys):
    broken = {k: v for k, v in CHAIN_INSTANCE.items()}
    broken["exponents"] = {"p": 2, "q": 2, "r": 1}
    inst = write_instance(tmp_path, broken)
    code, _, err = run_cli(capsys, ["char", "--instance", inst, "--out", str(tmp_path)])
    assert code == 2
    assert err["error"] == "parse"
    assert "exponents.alpha" in err["message"]


@pytest.mark.parametrize(
    "intervals,bad",
    [
        ([[0, 0], ["a", 0]], 1),
        ([[1.7, 0]], 0),
        ([[0, 0], [1, 0], [True, 1]], 2),
        ([[1, False]], 0),
    ],
)
def test_parse_error_mistyped_interval(tmp_path, capsys, intervals, bad):
    payload = dict(CHAIN_INSTANCE, family={"kind": "members", "intervals": intervals})
    inst = write_instance(tmp_path, payload)
    code, rep, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 2 and rep is None
    assert err["error"] == "parse" and f"family.intervals[{bad}]" in err["message"]


def test_member_family_eta_is_its_packing_and_built_once(tmp_path, monkeypatch):
    # duplicates and any order; without "eta" the file gets 1 / carleson_constant
    intervals = [[3, 1], [0, 0], [2, 0], [1, 0], [3, 1], [2, 1], [3, 0]]
    payload = dict(CHAIN_INSTANCE, family={"kind": "members", "intervals": intervals})
    inst = write_instance(tmp_path, payload)
    built = []
    from_arrays = SparseFamily.from_arrays

    def counting(*args):
        built.append(from_arrays(*args))
        return built[-1]

    monkeypatch.setattr(SparseFamily, "from_arrays", staticmethod(counting))
    family = load_instance(inst).family
    assert built == [family]
    assert family.members == tuple(sorted({DyadicInterval(k, m) for k, m in intervals}))
    assert family.eta.hex() == (1.0 / carleson_constant(family)).hex()


def test_parse_error_empty_interval_list(tmp_path, capsys):
    for extra in ({}, {"eta": 0.5}):
        payload = dict(CHAIN_INSTANCE, family={"kind": "members", "intervals": [], **extra})
        inst = write_instance(tmp_path, payload)
        code, rep, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
        assert code == 2 and rep is None
        assert err["error"] == "parse" and "non-empty list" in err["message"]


def test_parse_error_unknown_keys(tmp_path, capsys):
    for patch in ({"extra": 1}, {"options": {"seed": 1, "typo": 2}}):
        payload = dict(CHAIN_INSTANCE, **patch)
        inst = write_instance(tmp_path, payload)
        code, _, err = run_cli(capsys, ["char", "--instance", inst, "--out", str(tmp_path)])
        assert code == 2 and err["error"] == "parse"


def test_parse_error_bad_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["char", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 2 and err["error"] == "parse"
    code, _, err = run_cli(
        capsys, ["char", "--instance", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    )
    assert code == 2 and err["error"] == "parse"


def test_parameter_error_infeasible_exponents(tmp_path, capsys):
    payload = dict(CHAIN_INSTANCE, exponents={"p": 2, "q": 4, "r": 2, "alpha": 1})
    inst = write_instance(tmp_path, payload)
    code, _, err = run_cli(capsys, ["char", "--instance", inst, "--out", str(tmp_path)])
    assert code == 3
    assert err["error"] == "parameter"


@pytest.mark.parametrize("command", ["char", "opnorm"])
@pytest.mark.parametrize("patch, code, field", [
    # a density is a weight field, which the parser reports: exit 2
    ({"omega": {"kind": "piecewise", "depth": 1, "values": [1.0, math.nan]}}, 2, "field omega"),
    ({"sigma": {"kind": "power", "beta": math.inf}}, 2, "field sigma"),
    # an exponent is a parameter, as an infeasible one is: exit 3
    ({"exponents": {"p": 2, "q": math.inf, "r": 1, "alpha": 1}}, 3, "q=inf"),
])
def test_non_finite_inputs_exit_with_a_message_naming_the_field(
    tmp_path, capsys, command, patch, code, field
):
    # json writes these as NaN and Infinity, which the loader reads back;
    # a NaN omega density once gave char exit 0 and ainfty_omega = 1
    inst = write_instance(tmp_path, dict(CHAIN_INSTANCE, **patch))
    exit_code, report, err = run_cli(capsys, [command, "--instance", inst, "--out", str(tmp_path)])
    assert exit_code == code and report is None
    assert err["error"] == ("parse" if code == 2 else "parameter")
    assert field in err["message"]


def test_sharpness_rejects_an_infinite_exponent(tmp_path, capsys):
    # q = inf passed the line test and the sweep crashed in the slope fit
    argv = ["sharpness", "--variant", "primal", "--p", "2", "--q", "inf", "--alpha", "0.5"]
    code, report, err = run_cli(capsys, argv + ["--out", str(tmp_path)])
    assert code == 3 and report is None and err["error"] == "parameter"


@pytest.mark.parametrize(
    "exponents,options",
    [
        ({"p": 2, "q": 4, "r": 2, "alpha": 0.75}, {"restarts": -1}),
        ({"p": 2, "q": 4, "r": 2, "alpha": 0.75}, {"max_iters": -1}),
        ({"p": 2, "q": 2, "r": 1, "alpha": 1}, {"tol": math.nan}),  # written as NaN
        ({"p": 2, "q": 2, "r": 1, "alpha": 1}, {"tol": 0}),
        ({"p": 2, "q": 2, "r": 1, "alpha": 1}, {"seed": -3}),
        ({"p": 2, "q": 4, "r": 2, "alpha": 0.75}, {"seed": -3}),
    ],
)
@pytest.mark.parametrize("command", ["opnorm", "testing"])
def test_bad_solver_options_are_parameter_errors(tmp_path, capsys, exponents, options, command):
    payload = dict(
        CHAIN_INSTANCE,
        exponents=exponents,
        family={"kind": "chain", "depth": 3},
        omega={"kind": "power", "beta": 0},
        sigma={"kind": "power", "beta": 0},
        options=options,
    )
    inst = write_instance(tmp_path, payload)
    code, rep, err = run_cli(capsys, [command, "--instance", inst, "--out", str(tmp_path)])
    assert code == 3 and rep is None
    assert err["error"] == "parameter" and "must be" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["testing", "--seed", "-2"],
        ["opnorm", "--seed", "-2"],
        ["verify", "--suite", "lemma41", "--seed", "-1", "--trials", "2"],
    ],
)
def test_negative_seed_flags_are_parameter_errors(tmp_path, capsys, argv):
    if argv[0] != "verify":
        argv = argv + ["--instance", write_instance(tmp_path, CHAIN_INSTANCE)]
    code, rep, err = run_cli(capsys, argv + ["--out", str(tmp_path)])
    assert code == 3 and rep is None
    assert err["error"] == "parameter" and "must be >= 0" in err["message"]


def test_members_deeper_than_level_62_are_parameter_errors(tmp_path, capsys):
    for depth, code in ((62, 0), (63, 3)):
        payload = dict(CHAIN_INSTANCE, family={"kind": "chain", "depth": depth})
        inst = write_instance(tmp_path, payload)
        got, _, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
        assert got == code
    assert err["error"] == "parameter" and "[0/2^63, 1/2^63)" in err["message"]


_DEEP = "[5/2^63, 6/2^63) is at level 63 or deeper"


@pytest.mark.parametrize(
    "family, code, message",
    [
        ({"kind": "members", "intervals": [[0, 0], [-1, 0]]}, 2,
         "field family.intervals: interval level must be >= 0, got -1"),
        ({"kind": "members", "intervals": [[0, 0], [2, 5]]}, 2,
         "field family.intervals: position 5 outside the unit root at level 2"),
        ({"kind": "members", "intervals": [[0, 0]], "eta": 2.0}, 2,
         "field family: eta must lie in (0, 1], got 2.0"),
        ({"kind": "members", "intervals": [[0, 0], [63, 5]], "eta": 2.0}, 2,
         "field family: eta must lie in (0, 1], got 2.0"),
        ({"kind": "members", "intervals": [[0, 0], [63, 5], [70, 1]]}, 3, _DEEP),
        ({"kind": "members", "intervals": [[0, 0], [63, 5]], "eta": 0.5}, 3, _DEEP),
        ({"kind": "chain", "depth": -1}, 2, "field family.depth: chain depth must be >= 0"),
        ({"kind": "chain", "depth": 64}, 3, "[0/2^63, 1/2^63) is at level 63 or deeper"),
    ],
)
def test_bad_families_keep_their_exit_codes_and_messages(tmp_path, capsys, family, code, message):
    # interval and eta rules are parse errors; members at level 63 or deeper
    # are parameter errors, though the family constructor checks both
    inst = write_instance(tmp_path, dict(CHAIN_INSTANCE, family=family))
    got, rep, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert (got, rep) == (code, None)
    assert err == {"error": {2: "parse", 3: "parameter"}[code], "message": message}


@pytest.mark.parametrize("command", ["char", "opnorm"])
@pytest.mark.parametrize("depth", [63, 64])
def test_scan_depth_at_level_63_is_a_parameter_error(tmp_path, capsys, command, depth):
    # both once died in np.repeat with exit 1
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    argv = [command, "--instance", inst, "--depth", str(depth), "--out", str(tmp_path)]
    code, rep, err = run_cli(capsys, argv)
    assert code == 3 and rep is None
    assert err["error"] == "parameter"
    assert err["message"] == f"depth {depth} puts intervals at level 63 or deeper"


@pytest.mark.parametrize("command", ["char", "opnorm"])
def test_scan_too_large_to_allocate_is_a_parameter_error(tmp_path, capsys, command):
    # 2^51 layout entries exceed any address space; numpy's MemoryError once ended in exit 1
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    argv = [command, "--instance", inst, "--depth", "50", "--out", str(tmp_path)]
    code, rep, err = run_cli(capsys, argv)
    assert code == 3 and rep is None
    assert err["error"] == "parameter"
    assert err["message"].startswith("a scan to depth 50 needs ")


@pytest.mark.parametrize(
    "options",
    [
        {"restarts": "abc"},
        {"seed": "x"},
        {"restarts": 1.5},
        {"max_iters": True},
        {"tol": "nan"},
        {"depth": 6.0},
    ],
)
@pytest.mark.parametrize("command", ["opnorm", "testing"])
def test_mistyped_options_are_parse_errors(tmp_path, capsys, options, command):
    # every option is type-checked when the file is read, before any solver runs
    inst = write_instance(tmp_path, dict(CHAIN_INSTANCE, options=options))
    code, rep, err = run_cli(capsys, [command, "--instance", inst, "--out", str(tmp_path)])
    (key,) = options
    assert code == 2 and rep is None
    assert err["error"] == "parse" and f"options.{key}" in err["message"]


def test_options_must_be_an_object(tmp_path, capsys):
    inst = write_instance(tmp_path, dict(CHAIN_INSTANCE, options=[["seed", 1]]))
    code, _, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 2 and err["error"] == "parse" and "instance.options" in err["message"]


def test_degenerate_instance_exit_code(tmp_path, capsys):
    payload = dict(
        CHAIN_INSTANCE,
        family={"kind": "chain", "depth": 1},
        sigma={"kind": "piecewise", "depth": 1, "values": [0.0, 1.0]},
    )
    inst = write_instance(tmp_path, payload)
    code, _, err = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])
    assert code == 4
    assert err["error"] == "degenerate"


def test_argparse_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag", [("testing", "--depth"), ("char", "--seed")])
def test_instance_commands_take_only_the_flags_they_read(tmp_path, capsys, command, flag):
    # testing never scans to a depth and char never runs the solver
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", inst, "--out", str(tmp_path), flag, "9"])
    assert exc.value.code == 2
    assert not (tmp_path / f"{command}_inst.csv").exists()


def test_verify_refresh_then_pass_then_violation(tmp_path, capsys):
    base = ["verify", "--suite", "lemma43", "--seed", "11", "--trials", "4",
            "--out", str(tmp_path)]
    # no frozen window yet
    code, report, _ = run_cli(capsys, base)
    assert code == 5
    assert "no frozen window" in report["baseline"]
    # freeze, then the same run passes
    code, report, _ = run_cli(capsys, base + ["--refresh-baselines"])
    assert code == 0 and report["baseline"] == "refreshed"
    code, report, _ = run_cli(capsys, base)
    assert code == 0
    assert report["baseline"] == "within frozen window"
    assert report["failures"] == []
    # different draw escapes the frozen window
    code, report, _ = run_cli(
        capsys,
        ["verify", "--suite", "lemma43", "--seed", "99", "--trials", "40",
         "--out", str(tmp_path)],
    )
    assert code == 5
    assert "leaves" in report["baseline"] or "no frozen window" in report["baseline"]


def test_verify_fails_unconverged_solver_rows(tmp_path, capsys, monkeypatch):
    real = check_prop31

    def unconverged(*args, **kwargs):
        rep = real(*args, **kwargs)
        return replace(rep, extras=dict(rep.extras, converged=False))

    monkeypatch.setattr("sparselab.suites.check_prop31", unconverged)
    argv = ["verify", "--suite", "prop31", "--seed", "7", "--trials", "2",
            "--out", str(tmp_path), "--refresh-baselines"]
    code, report, _ = run_cli(capsys, argv)
    assert code == 5
    assert [f.split(":")[0] for f in report["failures"]] == [
        "prop31 seed 7 instance 0", "prop31 seed 7 instance 1"
    ]


def test_verify_csv_bitwise_deterministic(tmp_path, capsys):
    argv = ["verify", "--suite", "lemma41", "--seed", "3", "--trials", "5",
            "--refresh-baselines"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, argv + ["--out", str(out_a)])
    run_cli(capsys, argv + ["--out", str(out_b)])
    name = "verify_lemma41_seed3_trials5.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / name).read_text().splitlines()[1]
    assert header == "instance-id,lhs,rhs,ratio"


def test_sharpness_command(tmp_path, capsys):
    argv = ["sharpness", "--variant", "primal", "--p", "2", "--q", "4",
            "--alpha", "0.75", "--eps-min-exp", "4", "--eps-max-exp", "9",
            "--out", str(tmp_path)]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0
    assert report["rows"] == 6
    assert report["slope_error"] < 0.05
    assert report["max_tail_bound"] <= 1e-6
    csv_path = tmp_path / "sharpness_primal_p2_q4_e4-9.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "eps,K,characteristic,ratio,tail-bound"
    assert len(lines) == 2 + 6
    # rerun is byte-identical
    before = csv_path.read_bytes()
    run_cli(capsys, argv)
    assert csv_path.read_bytes() == before


def test_sharpness_parameter_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["sharpness", "--variant", "primal", "--p", "2", "--q", "4",
         "--alpha", "0.8", "--out", str(tmp_path)],
    )
    assert code == 3 and err["error"] == "parameter"
    code, _, err = run_cli(
        capsys,
        ["sharpness", "--variant", "primal", "--p", "2", "--q", "4",
         "--alpha", "0.75", "--eps-min-exp", "9", "--eps-max-exp", "4",
         "--out", str(tmp_path)],
    )
    assert code == 3


def test_report_floats_are_12_digit_stable(tmp_path, capsys):
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    _, report, _ = run_cli(capsys, ["opnorm", "--instance", inst, "--out", str(tmp_path)])

    def check(node):
        if isinstance(node, float):
            assert node == float(f"{node:.12g}")
        elif isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(report)


def test_emit_writes_strict_json(capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    _emit({"values": {"a": math.inf, "b": math.nan, "c": 1.5, "d": [2.0, -math.inf]}}, 0.0)
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["values"] == {"a": None, "b": None, "c": 1.5, "d": [2.0, None]}
    assert report["non_finite"] == ["values.a", "values.b", "values.d[1]"]


def test_emit_finite_report_has_no_note(capsys):
    _emit({"value": 0.1 + 0.2}, 0.0)
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 0.3
    assert "non_finite" not in report
