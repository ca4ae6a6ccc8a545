"""Baseline file round trip and window checking."""

import json
import math

import pytest

from sparselab import BaselineViolationError, ParameterError
from sparselab.baselines import check_window, load_baselines, save_baselines
from sparselab.cli import main

NAN, INF = math.nan, math.inf


def test_round_trip(tmp_path):
    path = tmp_path / "b.txt"
    windows = {"prop31": (0.25, 0.75), "thm11": (0.1234567890123, 2.0)}
    save_baselines(windows, path)
    got = load_baselines(path)
    assert set(got) == set(windows)
    assert got["prop31"] == (0.25, 0.75)
    # 12 significant digits survive the text round trip
    assert got["thm11"][0] == pytest.approx(0.1234567890123, rel=1e-12)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# comment\nprop31 0.5\n")
    with pytest.raises(ParameterError):
        load_baselines(path)


def test_check_window_logic():
    baselines = {"prop31": (0.5, 1.0)}
    check_window("prop31", (0.5, 1.0), baselines)
    check_window("prop31", (0.6, 0.9), baselines)
    # headroom tolerates relative drift up to 1e-6
    check_window("prop31", (0.5 * (1 - 5e-7), 1.0 * (1 + 5e-7)), baselines)
    with pytest.raises(BaselineViolationError):
        check_window("prop31", (0.4, 0.9), baselines)
    with pytest.raises(BaselineViolationError):
        check_window("prop31", (0.6, 1.1), baselines)
    with pytest.raises(BaselineViolationError):
        check_window("lemma41", (1.0, 1.0), baselines)


BAD_BOUNDS = ["nan nan", "0.5 nan", "nan 1.0", "-inf 1.0", "0.5 inf", "2.0 1.0", "0.5 x", "abc 1.0"]
BAD_WINDOWS = [(NAN, NAN), (0.5, NAN), (NAN, 1.0), (-INF, 1.0), (0.5, INF), (2.0, 1.0)]


@pytest.mark.parametrize("bounds", BAD_BOUNDS)
def test_bounds_must_be_finite_numbers_in_order(tmp_path, bounds):
    # "thm11 nan nan" once loaded as a NaN window that passed every observed
    # window, and a bound that is no number raised a bare ValueError
    path = tmp_path / "b.txt"
    path.write_text(f"# comment\nprop31 0.5 1.0\nthm11 {bounds}\n")
    message = f"^baseline line 3 needs finite bounds lo <= hi, got {bounds}$"
    with pytest.raises(ParameterError, match=message):
        load_baselines(path)


@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_windows_that_are_not_finite_are_neither_saved_nor_checked(tmp_path, window):
    path = tmp_path / "b.txt"
    with pytest.raises(ParameterError, match="^suite 'thm11' window needs finite bounds lo <= hi"):
        save_baselines({"prop31": (0.5, 1.0), "thm11": window}, path)
    assert not path.exists()
    with pytest.raises(ParameterError, match="^suite 'thm11' window needs finite bounds lo <= hi"):
        check_window("thm11", (0.001, 1e9), {"thm11": window})


@pytest.mark.parametrize("refresh", [[], ["--refresh-baselines"]])
def test_verify_reports_a_bad_bound_as_a_parameter_error(tmp_path, monkeypatch, capsys, refresh):
    # it once exited 1 with a ValueError traceback; a refresh that skipped
    # a malformed file would rewrite it with lemma41's window alone
    path = tmp_path / "b.txt"
    path.write_text("lemma41 0.5 x\nthm11 0.1 2.0\n")
    monkeypatch.setattr("sparselab.baselines.baseline_path", lambda: path)
    monkeypatch.delenv("SPARSELAB_OUT", raising=False)
    argv = ["verify", "--suite", "lemma41", "--trials", "2", "--out", str(tmp_path)]
    assert main(argv + refresh) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "parameter",
        "message": "baseline line 1 needs finite bounds lo <= hi, got 0.5 x",
    }
    assert path.read_text() == "lemma41 0.5 x\nthm11 0.1 2.0\n"
