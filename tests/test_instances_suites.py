"""Determinism and well-formedness of the seeded suites."""

import numpy as np
import pytest

from sparselab import (
    ComparabilityReport,
    DyadicInterval,
    ParameterError,
    PositiveDyadicOperator,
    PowerWeight,
    ROOT,
    SparseFamily,
    build_principal_cubes,
    carleson_constant,
    check_lemma41,
    check_lemma43,
    estimate_opnorm,
    lsu_check,
    make_instance,
    packing_certified,
    random_family,
    random_weight,
    run_suite,
    verify_thm42,
)
from sparselab.instances import EXPONENT_MENUS, SUITES


def test_suite_names():
    assert SUITES == (
        "lemma32", "lemma34", "lemma41", "lemma43",
        "principal", "prop31", "thm11", "thm42",
    )


def test_make_instance_bitwise_deterministic():
    a = make_instance("thm11", 7, 5)
    b = make_instance("thm11", 7, 5)
    assert a.family.members == b.family.members
    assert a.family.eta == b.family.eta
    assert np.array_equal(a.omega.values, b.omega.values)
    assert np.array_equal(a.sigma.values, b.sigma.values)
    assert a.cfg == b.cfg


def test_instance_index_independent_of_trial_count():
    # per-index seeding: instance i never depends on how many trials ran
    short = run_suite("lemma43", seed=11, trials=3)
    longer = run_suite("lemma43", seed=11, trials=8)
    for row_s, row_l in zip(short.rows, longer.rows):
        assert row_s.instance_id == row_l.instance_id
        assert row_s.lhs == row_l.lhs
        assert row_s.rhs == row_l.rhs


def test_random_family_certified():
    rng = np.random.default_rng(0)
    for _ in range(20):
        family = random_family(rng)
        assert ROOT in family.members
        assert len(family) >= 3
        assert carleson_constant(family) <= 4.0 + 1e-12
        assert packing_certified(family)


def _family_by_objects(rng, include_prob=0.3, max_depth=6, packing_cap=4.0):
    """Reference draw: one interval object per pick and a throwaway family for eta."""
    while True:
        members = [ROOT]
        for level in range(1, max_depth + 1):
            picks = rng.random(1 << level) < include_prob
            members.extend(DyadicInterval(level, pos) for pos in np.flatnonzero(picks).tolist())
        if len(members) < 3:
            continue
        packing = carleson_constant(SparseFamily(tuple(members), eta=1.0))
        if packing <= packing_cap:
            return SparseFamily(tuple(members), eta=1.0 / packing)


@pytest.mark.parametrize("seed", [1, 7])
def test_drawn_families_equal_the_families_of_their_members(seed):
    for suite in SUITES:
        for index in range(100):
            family = make_instance(suite, seed, index).family
            ref = _family_by_objects(np.random.default_rng([seed, index]))
            assert family == ref  # members and eta
            assert family.eta.hex() == ref.eta.hex()
            assert all(type(v) is int for m in family.members for v in (m.level, m.position))


def test_random_family_builds_one_family_per_draw(monkeypatch):
    built = []
    from_arrays = SparseFamily.from_arrays

    def counting(*args):
        built.append(from_arrays(*args))
        return built[-1]

    monkeypatch.setattr(SparseFamily, "from_arrays", staticmethod(counting))
    rng = np.random.default_rng(3)
    families = [random_family(rng) for _ in range(20)]
    assert built == families


def test_drawing_instances_builds_no_interval_but_lemma43s_top(monkeypatch):
    made = []
    post_init = DyadicInterval.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(DyadicInterval, "__post_init__", counting)
    for suite in SUITES:
        for index in range(12):
            inst = make_instance(suite, 1, index)
            assert made == ([inst.extras["top"]] if suite == "lemma43" else [])
            made.clear()


# one call per check that reads a family, with the suite whose instances it takes
_FAMILY_READERS = [
    ("thm11", lambda i: estimate_opnorm(i.family, i.cfg, i.omega, i.sigma, restarts=2)),
    ("thm42", lambda i: verify_thm42(i.family, i.cfg, i.omega, i.sigma)),
    ("lemma41", lambda i: check_lemma41(i.family, i.extras["coefs"], i.sigma, i.extras["p"])),
    ("lemma34", lambda i: lsu_check(
        PositiveDyadicOperator(i.family, i.extras["taus"]),
        i.extras["p"], i.extras["q"], i.omega, i.sigma, restarts=2,
    )),
    ("lemma43", lambda i: check_lemma43(
        i.family, i.omega, i.sigma, i.extras["query"], i.extras["top"],
    )),
    ("principal", lambda i: build_principal_cubes(i.family, PowerWeight(0.3), i.sigma)),
    ("principal", lambda i: build_principal_cubes(i.family, i.omega, i.sigma)),
]


@pytest.mark.parametrize("suite, call", _FAMILY_READERS)
def test_checks_leave_the_member_tuple_unbuilt(suite, call):
    # every check reads the family's arrays; `members` is built only on request
    for index in range(6):
        inst = make_instance(suite, 3, index)
        call(inst)
        assert "members" not in vars(inst.family)


def test_random_weight_range():
    rng = np.random.default_rng(1)
    w = random_weight(rng)
    assert w.depth == 6
    assert np.all(w.values >= 1e-2) and np.all(w.values <= 1e2)


def test_menu_cycling():
    menu = EXPONENT_MENUS["prop31"]
    for idx in (0, 2, 4):
        inst = make_instance("prop31", 3, idx)
        assert (inst.cfg.p, inst.cfg.q, inst.cfg.r, inst.cfg.alpha) == menu[idx % len(menu)]


def test_extras_shapes():
    inst34 = make_instance("lemma34", 2, 1)
    assert inst34.cfg is None
    assert (inst34.extras["p"], inst34.extras["q"]) == (2.0, 4.0)
    assert len(inst34.extras["taus"]) == len(inst34.family)
    inst43 = make_instance("lemma43", 2, 0)
    assert inst43.extras["top"] in inst43.family.members
    inst_pr = make_instance("principal", 2, 2)
    assert isinstance(inst_pr.extras["f"], PowerWeight)


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        make_instance("lemma99", 0, 0)
    with pytest.raises(ParameterError):
        run_suite("lemma99")


def test_negative_seed_or_index_rejected():
    for seed, index in ((-1, 0), (0, -1)):
        with pytest.raises(ParameterError, match="must be >= 0"):
            make_instance("lemma41", seed, index)


def test_run_suite_repeatable():
    a = run_suite("lemma41", seed=3, trials=10)
    b = run_suite("lemma41", seed=3, trials=10)
    assert [(r.instance_id, r.lhs, r.rhs, r.ratio) for r in a.rows] == [
        (r.instance_id, r.lhs, r.rhs, r.ratio) for r in b.rows
    ]
    assert a.failures == b.failures == ()
    assert a.ratio_window == b.ratio_window


def test_failures_name_suite_seed_and_instance(monkeypatch):
    # a p = 2 ratio outside [1, sqrt 2] is a per-row failure of the lemma41 runner
    outside = ComparabilityReport("lemma41", 3.0, 1.0, 3.0, "stand-in")
    monkeypatch.setattr("sparselab.suites.check_lemma41", lambda *args: outside)
    result = run_suite("lemma41", seed=7, trials=6)
    p2 = [i for i in range(6) if make_instance("lemma41", 7, i).extras["p"] == 2.0]
    assert p2 and result.failures == tuple(
        f"lemma41 seed 7 instance {i}: p=2 ratio 3.0 outside [1, sqrt 2]" for i in p2
    )


def _solver_report(converged: bool) -> ComparabilityReport:
    extras = dict(converged=converged, residual=0.5, certified_lower=1.5, characteristic=1.0)
    return ComparabilityReport("stand-in", 2.0, 1.0, 2.0, "stand-in", extras=extras)


@pytest.mark.parametrize(
    "suite,check",
    [("prop31", "check_prop31"), ("lemma32", "check_lemma32"),
     ("lemma34", "lsu_check"), ("thm11", "check_thm11")],
)
def test_unconverged_solver_rows_fail(monkeypatch, suite, check):
    monkeypatch.setattr(f"sparselab.suites.{check}", lambda *a, **k: _solver_report(False))
    result = run_suite(suite, seed=7, trials=3)
    assert result.failures == tuple(
        f"{suite} seed 7 instance {i}: the solver did not converge (residual 0.5)"
        for i in range(3)
    )
    monkeypatch.setattr(f"sparselab.suites.{check}", lambda *a, **k: _solver_report(True))
    assert run_suite(suite, seed=7, trials=3).failures == ()


def test_lemma41_window_is_the_proved_bracket():
    result = run_suite("lemma41", seed=5, trials=12)
    lo, hi = result.ratio_window
    assert 1.0 - 1e-9 <= lo <= hi <= 2.0**0.5 + 1e-9


def test_principal_rows_never_exceed_constant():
    result = run_suite("principal", seed=9, trials=9)
    assert result.failures == ()
    for row in result.rows:
        assert row.ratio <= 1.0 + 1e-9


def test_cheap_suites_clean_at_small_trials():
    for suite in ("lemma43", "lemma41"):
        result = run_suite(suite, seed=7, trials=6)
        assert result.failures == ()
        assert result.trials == 6
        assert len(result.rows) >= 6
        lo, hi = result.ratio_window
        assert 0.0 < lo <= hi
