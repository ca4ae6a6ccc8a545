"""End-to-end command line tests: exit codes, artifacts, determinism."""

import json
import math

import pytest

from sparselab.cli import main

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
    for rep in (rep_a, rep_b):
        rep.pop("elapsed_seconds")
        rep.pop("csv")
    assert rep_a == rep_b
    assert (out_a / "opnorm_inst.csv").read_bytes() == (out_b / "opnorm_inst.csv").read_bytes()


class _Received(Exception):
    """Raised by a stand-in solver once it has recorded its arguments."""


@pytest.mark.parametrize("command,solver", [("opnorm", "estimate_opnorm"), ("testing", "check_prop31")])
@pytest.mark.parametrize("argv_seed,seed", [(["--seed", "99"], 99), ([], 3)])
def test_solver_options_reach_the_solver(tmp_path, monkeypatch, command, solver, argv_seed, seed):
    # --seed wins over options.seed; the other options come from the file
    received = {}

    def stand_in(*args, **kwargs):
        received.update(kwargs)
        raise _Received

    monkeypatch.setattr(f"sparselab.cli.{solver}", stand_in)
    inst = write_instance(tmp_path, CHAIN_INSTANCE)
    with pytest.raises(_Received):
        main([command, "--instance", inst, "--out", str(tmp_path), *argv_seed])
    assert received == {"restarts": 4, "max_iters": 5000, "tol": 1e-8, "seed": seed}


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


def test_parse_errors_name_the_field(tmp_path, capsys):
    broken = {k: v for k, v in CHAIN_INSTANCE.items()}
    broken["exponents"] = {"p": 2, "q": 2, "r": 1}
    inst = write_instance(tmp_path, broken)
    code, _, err = run_cli(capsys, ["char", "--instance", inst, "--out", str(tmp_path)])
    assert code == 2
    assert err["error"] == "parse"
    assert "exponents.alpha" in err["message"]


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
