"""The compiled CubeObjective kernel against the loop it replaced.

The reference below is a full, unfused pass on the objective's compiled
matrices: one `_stationarity` pass that computes log J, the pullback g and
the gradient together, run on `f[moving]` on every step, and used for every
value. Its stop test runs on every `every`-th pass, RESIDUAL_EVERY by
default. The kernel splits that pass into a forward piece (log J) and a
pullback piece (g and the gradient), and the solver's passes between stop
tests compute g alone; all perform the same floating-point operations in the
same order on the same row batches, so every solver output must agree
bitwise, and each g-only pass gives the full pass's g to the bit. Against
the reference at every = 1, the loop that tests on every pass, the later
stops may move a value by at most 1e-10 relative and must save the full
passes.

The incidence-form pass, which multiplies by the 0/1 incidence matrix and
rescales by sigma, gamma and omega on every pass, is kept as an oracle: the
compiled matrices fold those rescalings in, and at e = 1 with n <= 2m compose
the atom-by-atom kernels, so values may move in their last bits only and
every count must stay.
"""

import math

import numpy as np
import pytest

from sparselab import (
    ROOT,
    DyadicInterval,
    ExponentConfig,
    PiecewiseWeight,
    PowerWeight,
    SparseFamily,
    ascent,
    chain_family,
    estimate_opnorm,
    indicator_lower_bound,
    make_instance,
    maximize,
    oracle_opnorm,
    rayleigh_objective,
    suites,
)
from sparselab.ascent import (
    BRACKET_TOL,
    RESIDUAL_EVERY,
    ROUNDING_SLACK,
    AscentResult,
    CubeObjective,
)


def _pow0(x, p, zero=False):
    if p == 0.0:
        return np.ones_like(x)
    if p == 1.0:
        return x
    if p < 0.0 or zero:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x > 0.0, x, 1.0) ** p
        return np.where(x > 0.0, out, 0.0)
    return x**p


def _sums(obj: CubeObjective, f, h):
    """sn, f^(s-1), sd and log J at rows f with image h."""
    sn = np.dot(_pow0(h, obj.t), obj.omega_atom)
    fs1 = f ** (obj.s - 1.0)
    sd = np.dot(fs1 * f, obj.sigma_atom)
    logj = np.log(sn) / obj.t - (obj.e / obj.s) * np.log(sd)
    return sn, fs1, sd, logj


def _ref_stationarity(obj: CubeObjective, f):
    """log J, its gradient in log f and the pullback g, in one pass on the compiled matrices."""
    if obj._one_stage:
        kernel_h, kernel_w = obj._matrices
        big_f, h = None, f @ kernel_h
    else:
        sigma_t, gamma_i, omega_t = obj._matrices
        big_f = f @ sigma_t
        h = _pow0(big_f, obj.e) @ gamma_i
    sn, fs1, sd, logj = _sums(obj, f, h)
    h_t1 = _pow0(h, obj.t - 1.0, zero=(obj.t < 1.0))
    if obj._one_stage:
        g = h_t1 @ kernel_w
    else:
        w = h_t1 @ omega_t
        g = (_pow0(big_f, obj.e - 1.0, zero=(obj.e < 1.0)) * w) @ gamma_i
    grad = obj.e * obj.sigma_atom * f * (g / sn[:, None] - fs1 / sd[:, None])
    return logj, grad, g


def _oracle_stationarity(obj: CubeObjective, f):
    """The same pass in incidence form: the 0/1 incidence and the weights applied apart."""
    big_f = (f * obj.sigma_atom) @ obj.incidence.T
    h = (obj.gamma * _pow0(big_f, obj.e)) @ obj.incidence
    sn, fs1, sd, logj = _sums(obj, f, h)
    w = (obj.omega_atom * _pow0(h, obj.t - 1.0, zero=(obj.t < 1.0))) @ obj.incidence.T
    g = (obj.gamma * _pow0(big_f, obj.e - 1.0, zero=(obj.e < 1.0)) * w) @ obj.incidence
    grad = obj.e * obj.sigma_atom * f * (g / sn[:, None] - fs1 / sd[:, None])
    return logj, grad, g


@np.errstate(divide="ignore", invalid="ignore")
def _ref_value(obj: CubeObjective, f, stationarity=_ref_stationarity):
    return np.exp(obj.outer * stationarity(obj, np.atleast_2d(f))[0])


@np.errstate(divide="ignore", invalid="ignore")
def _ref_solve(objective, f, max_iters, tol, certify, every=RESIDUAL_EVERY,
               stationarity=_ref_stationarity):
    # the full pass on every step; the stop test on every `every`-th pass only
    power = 1.0 / (objective.s - 1.0)
    moving = np.arange(len(f))
    iterations = 0
    while len(moving) and iterations < max_iters:
        iterations += 1
        _, grad, g = stationarity(objective, f[moving])
        if iterations % every == 0:
            still = np.max(np.abs(grad), axis=1) > tol
            moving, g = moving[still], g[still]
        f[moving] = (g / g.max(axis=1, keepdims=True)) ** power

    # the endpoint certificate values the endpoints too
    u = np.log(f)
    logj, grad, g = stationarity(objective, np.exp(u))
    residual = float(np.max(np.abs(grad), initial=0.0))
    restart_values = np.exp(objective.outer * logj)
    # the cube indicators and the constant function, valued as their own batch
    candidates = np.vstack([objective.incidence, np.ones(len(objective.sigma_atom))])
    allf = np.concatenate([f, candidates], axis=0)
    vals = np.concatenate([restart_values, _ref_value(objective, candidates, stationarity)])
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    best = int(np.argmax(vals))
    maximizer = allf[best]
    peak = maximizer.max()
    if peak > 0.0:
        maximizer = maximizer / peak
    value = float(vals[best])
    upper, reason = None, None
    if certify:
        ratio = np.max(g / np.exp(u) ** (objective.s - 1.0))
        bound = float(ratio ** (objective.outer / objective.t)) * (1.0 + ROUNDING_SLACK)
        if not (value > 0.0 and math.isfinite(value)):
            reason = f"the value at the constant start is {value:g}, not positive and finite"
        elif not math.isfinite(bound):
            reason = "the bound at the constant start is not finite: g vanishes on some atoms"
        elif bound > value * (1.0 + BRACKET_TOL):
            reason = f"the bound at the constant start exceeds the value by more than {BRACKET_TOL:g}"
        else:
            upper = bound
    return AscentResult(
        value=value,
        maximizer=maximizer,
        iterations=iterations,
        converged=residual <= tol,
        residual=residual,
        restart_values=restart_values,
        candidate_values=vals[len(f):],
        from_candidate=best >= len(f),
        starts=len(f),
        certified_upper=upper,
        certified_upper_reason=reason,
    )


def _hex(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return [float(v).hex() for v in np.ravel(x)]


def _fields(res: AscentResult) -> dict:
    return {name: _hex(getattr(res, name)) for name in AscentResult.__dataclass_fields__}


def _run_suite_solver(suite, index):
    inst = make_instance(suite, 7, index)
    if suite == "thm11":
        # the solver call of check_thm11, without its A_infty scans
        estimate_opnorm(inst.family, inst.cfg, inst.omega, inst.sigma, seed=inst.index)
    else:
        suites._RUNNERS[suite](inst)


@pytest.mark.parametrize("suite", ["thm11", "lemma34", "prop31", "lemma32"])
def test_solver_is_bitwise_the_reference_loop(monkeypatch, suite):
    # every _solve call of the suite's seed-7 instances 0-59, run on both
    # kernels from the same starts: value, certified_upper, the candidate
    # values (certified_lower), iterations, residual, restart values and
    # maximizer agree to the last bit
    solve = ascent._solve
    seen = {"calls": 0, "e": set(), "t<1": 0, "s": set()}

    def both(objective, f, max_iters, tol, certify):
        ref = _ref_solve(objective, f.copy(), max_iters, tol, certify)
        res = solve(objective, f, max_iters, tol, certify)
        assert _fields(res) == _fields(ref)
        seen["calls"] += 1
        seen["e"].add(objective.e)
        seen["t<1"] += objective.t < 1.0
        seen["s"].add(objective.s)
        return res

    monkeypatch.setattr(ascent, "_solve", both)
    for index in range(60):
        _run_suite_solver(suite, index)
    assert seen["calls"] >= 60
    if suite == "prop31":
        assert seen["t<1"] > 0  # (2, 2, 3, 1): the masked-power branch
    if suite == "lemma32":
        assert {1.0, 2.0} <= seen["e"] and {1.5, 3.0} <= seen["s"]


def _no_pullback(*args, **kwargs):
    raise AssertionError("a value sweep ran the pullback piece")


@pytest.mark.parametrize("depth", [1, 2])
def test_value_sweeps_skip_the_pullback(monkeypatch, depth):
    # value, the indicator bound and the oracle grid (two and three atoms)
    # give the reference kernel's numbers with the pullback piece disabled
    args = (chain_family(depth), ExponentConfig(2, 4, 2, 0.75),
            PowerWeight(0.25), PiecewiseWeight(2, [4.0, 1.0, 0.25, 2.0]))
    part, obj = rayleigh_objective(*args)
    f = np.exp(np.random.default_rng(depth).uniform(-3.0, 3.0, (5, len(part))))
    with monkeypatch.context() as m:
        m.setattr(CubeObjective, "value", _ref_value)
        expected = indicator_lower_bound(*args), oracle_opnorm(*args, grid_res=1e-2)
    monkeypatch.setattr(CubeObjective, "_pullback", _no_pullback)
    assert _hex(obj.value(f)) == _hex(_ref_value(obj, f))
    got = indicator_lower_bound(*args), oracle_opnorm(*args, grid_res=1e-2)
    assert _hex(got) == _hex(expected)


@pytest.mark.parametrize(
    "max_iters", sorted({0, 1, 3, RESIDUAL_EVERY - 1, RESIDUAL_EVERY, RESIDUAL_EVERY + 1})
)
def test_solver_stopped_by_max_iters_is_bitwise_the_reference(monkeypatch, max_iters):
    # starts still moving when the loop ends are written back as they stand,
    # whether the last pass tested stationarity or stepped on g alone
    inst = make_instance("lemma32", 7, 3)
    solve = ascent._solve
    calls = []

    def both(objective, f, max_iters, tol, certify):
        ref = _ref_solve(objective, f.copy(), max_iters, tol, certify)
        res = solve(objective, f, max_iters, tol, certify)
        assert _fields(res) == _fields(ref)
        calls.append(res.iterations)
        return res

    monkeypatch.setattr(ascent, "_solve", both)
    suites.check_lemma32(inst.family, inst.cfg, inst.extras["coefs"], inst.omega,
                         inst.sigma, max_iters=max_iters)
    assert calls and max(calls) == max_iters


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.mark.parametrize("suite", ["thm11", "lemma34", "prop31", "lemma32"])
def test_residual_every_k_passes_drifts_little_and_saves_the_full_passes(monkeypatch, suite):
    # every _solve call of the suite's seed-7 instances 0-59 against the loop
    # that tests stationarity on every pass (the reference at every = 1): the
    # later stops move the value by at most 1e-10 relative and lose no
    # certificate and no convergence. certified_upper, a Collatz-Wielandt
    # bound whose gap above the value shrinks with the endpoint's residual,
    # only tightens (by up to 7.4e-8 relative on these rows), so it is held
    # to no more than 1e-10 above the reference's. The pullback piece (the
    # residual) runs on at most ceil(passes / K) + 1 rows per start: the check
    # passes and the endpoint certificate
    solve = ascent._solve
    pullback = CubeObjective._pullback
    rows = []

    def counted(self, f, *fwd):
        rows[-1] += len(f)
        return pullback(self, f, *fwd)

    def both(objective, f, max_iters, tol, certify):
        ref = _ref_solve(objective, f.copy(), max_iters, tol, certify, every=1)
        rows.append(0)
        res = solve(objective, f, max_iters, tol, certify)
        assert _rel(res.value, ref.value) <= 1e-10
        assert (res.certified_upper is None) <= (ref.certified_upper is None)
        if ref.certified_upper is not None:
            assert res.value <= res.certified_upper <= ref.certified_upper * (1.0 + 1e-10)
        assert res.converged >= ref.converged
        assert rows[-1] <= res.starts * (math.ceil(res.iterations / RESIDUAL_EVERY) + 1)
        return res

    monkeypatch.setattr(CubeObjective, "_pullback", counted)
    monkeypatch.setattr(ascent, "_solve", both)
    for index in range(60):
        _run_suite_solver(suite, index)
    assert len(rows) >= 60


def _assert_close_to_oracle(res: AscentResult, oracle: AscentResult, rel=1e-13):
    """Values within rel of the incidence-form oracle; every count and flag identical."""
    for name in ("iterations", "converged", "starts", "from_candidate"):
        assert getattr(res, name) == getattr(oracle, name), name
    assert (res.certified_upper is None) == (oracle.certified_upper is None)
    assert res.certified_upper_reason == oracle.certified_upper_reason
    pairs = [(res.value, oracle.value)]
    if res.certified_upper is not None:
        pairs.append((res.certified_upper, oracle.certified_upper))
    pairs += zip(res.restart_values, oracle.restart_values)
    pairs += zip(res.candidate_values, oracle.candidate_values)
    for got, want in pairs:
        if got == want:
            continue  # equal values, -inf and zero included
        assert abs(got - want) <= rel * abs(want), (got, want)
    return max((abs(a - b) / abs(b) for a, b in pairs if a != b), default=0.0)


def _against_oracle(monkeypatch, drift):
    """Patch ascent._solve so every call is checked against the incidence-form oracle."""
    solve = ascent._solve

    def both(objective, f, max_iters, tol, certify):
        oracle = _ref_solve(objective, f.copy(), max_iters, tol, certify,
                            stationarity=_oracle_stationarity)
        res = solve(objective, f, max_iters, tol, certify)
        drift.append((objective._one_stage, _assert_close_to_oracle(res, oracle)))
        return res

    monkeypatch.setattr(ascent, "_solve", both)


@pytest.mark.parametrize("suite", ["thm11", "lemma34", "prop31", "lemma32"])
def test_compiled_kernel_drifts_in_the_last_bits_only(monkeypatch, suite):
    # every _solve call of the suite's seed-7 instances 0-99 against the
    # incidence-form oracle from the same starts: value, certified_lower (the
    # candidate values), certified_upper and the restart values within 1e-13
    # relative; iterations, converged, starts, from_candidate and the
    # certificate identical
    drift = []
    _against_oracle(monkeypatch, drift)
    for index in range(100):
        _run_suite_solver(suite, index)
    assert len(drift) >= 100
    assert max(d for _, d in drift) > 0.0  # the compiled matrices do round differently
    if suite == "lemma34":
        assert all(one for one, _ in drift)  # e = 1 and n <= 2m: the one-stage form
    else:
        assert {one for one, _ in drift} == {True, False}  # both forms


# a root and three members 20 to 24 levels down: 4 cubes, 64 atoms
DEEP_SPARSE = SparseFamily((ROOT, DyadicInterval(20, 5), DyadicInterval(22, 3 << 20),
                            DyadicInterval(24, 1 << 23)))


@pytest.mark.parametrize("cfg", [ExponentConfig(2, 2, 1, 0.75), ExponentConfig(2, 4, 1, 0.75)],
                         ids=["p=q", "p<q"])
@pytest.mark.parametrize("family, one_stage", [
    (chain_family(8), True), (chain_family(32), True), (DEEP_SPARSE, False),
])
def test_both_forms_of_the_step_match_the_reference_and_the_oracle(
    monkeypatch, cfg, family, one_stage
):
    # a chain (n = m + 1 atoms) takes the one-stage form; at e = 1 too, a
    # family with more than twice as many atoms as cubes takes the two-stage
    # form. Either way the solver is bitwise the compiled-matrix reference
    # and within 1e-13 of the incidence-form oracle, with identical counts.
    # The weights are those of the paper's extremal chain (x^(3/2), x^(-3/4))
    _, obj = rayleigh_objective(family, cfg, PowerWeight(1.5), PowerWeight(-0.75))
    m, n = obj.incidence.shape
    assert obj._one_stage == one_stage == (n <= 2 * m)
    shapes = [(n, n), (n, n)] if one_stage else [(n, m), (m, n), (n, m)]
    assert [a.shape for a in obj._matrices] == shapes
    solve = ascent._solve
    calls = []

    def checked(objective, f, max_iters, tol, certify):
        ref = _ref_solve(objective, f.copy(), max_iters, tol, certify)
        oracle = _ref_solve(objective, f.copy(), max_iters, tol, certify,
                            stationarity=_oracle_stationarity)
        res = solve(objective, f, max_iters, tol, certify)
        assert _fields(res) == _fields(ref)
        _assert_close_to_oracle(res, oracle)
        calls.append(res)
        return res

    monkeypatch.setattr(ascent, "_solve", checked)
    res = maximize(obj)
    assert calls and res.converged
