"""Oracle-backed tests for the sparse power operator and norm estimation.

Hand-computed references, all on Lebesgue weights unless noted:

* chain {[0,1), [0,1/2)}, alpha = 1/2, r = 2, f = 1: cube integrals 1 and
  1/2, scaled summands 1^2 and (sqrt(2)/2)^2 = 1/2, so the operator value
  is sqrt(3/2) on [0,1/2) and 1 on [1/2,1).
* same chain at (p,q,r,alpha) = (2,2,1,1): both indicator quotients equal
  sqrt(5/2). Reducing the true norm to the two atom values (x, y) gives
  the Rayleigh quotient of the matrix [[10,4],[4,2]]/4 whose top eigenvalue
  is (6+4 sqrt 2)/4, so the norm is sqrt(3/2 + sqrt 2) = 1 + sqrt(1/2),
  attained at y/x = sqrt(2)-1 >= 0.
* theorem_rhs at (2,2,1,1/2) with char 1, a_sigma 1, a_omega 4: split
  exponents 1/4 and 3/4 on a_omega, so the bound is 4^{1/4}+4^{3/4}.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import (
    LEBESGUE,
    CubeObjective,
    DegenerateInstanceError,
    DyadicInterval,
    ExponentConfig,
    FamilyGeometry,
    ParameterError,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    SparseFamily,
    StepFunction,
    apply_sparse,
    atoms_of,
    chain_family,
    estimate_opnorm,
    indicator_lower_bound,
    lp_norm,
    lsu_check,
    make_instance,
    maximize,
    oracle_opnorm,
    rayleigh_objective,
    rhs_branch,
    theorem_rhs,
    two_weight_char,
)
from sparselab import ascent
from sparselab import testing_T as _testing_T  # alias keeps pytest collection clean

CHAIN1 = chain_family(1)


def test_apply_sparse_chain_sqrt_half():
    cfg = ExponentConfig(p=2, q=2, r=2, alpha=0.5)
    part = atoms_of(CHAIN1)
    one = StepFunction(part, np.ones(len(part)), nonneg=True)
    out = apply_sparse(CHAIN1, cfg, LEBESGUE, one)
    assert out.values == pytest.approx([math.sqrt(1.5), 1.0], rel=1e-12)


def test_apply_sparse_needs_aligned_partition():
    coarse = atoms_of(CHAIN1)
    f = StepFunction(coarse, np.ones(len(coarse)), nonneg=True)
    with pytest.raises(ParameterError):
        apply_sparse(chain_family(2), ExponentConfig(2, 2, 1, 1), LEBESGUE, f)


def test_lp_norm_two_atoms():
    part = atoms_of(CHAIN1)
    f = StepFunction(part, np.array([1.0, 3.0]))
    assert lp_norm(f, LEBESGUE, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-12)
    with pytest.raises(ParameterError):
        lp_norm(f, LEBESGUE, 0.0)


@given(
    c=st.floats(1e-3, 1e3),
    p=st.floats(0.5, 4.0),
    vals=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
)
def test_lp_norm_homogeneous(c, p, vals):
    f = StepFunction(atoms_of(chain_family(2)), np.array(vals))
    a = lp_norm(f.scaled(c), LEBESGUE, p)
    b = c * lp_norm(f, LEBESGUE, p)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_indicator_lower_bound_chain():
    cfg = ExponentConfig(2, 2, 1, 1)
    got = indicator_lower_bound(CHAIN1, cfg, LEBESGUE, LEBESGUE)
    assert got == pytest.approx(math.sqrt(2.5), rel=1e-12)


def test_indicator_lower_bound_degenerate_sigma():
    sigma = PiecewiseWeight(1, [0.0, 2.0])
    with pytest.raises(DegenerateInstanceError):
        indicator_lower_bound(CHAIN1, ExponentConfig(2, 2, 1, 1), LEBESGUE, sigma)


def test_estimate_matches_eigenvalue_oracle():
    cfg = ExponentConfig(2, 2, 1, 1)
    est = estimate_opnorm(CHAIN1, cfg, LEBESGUE, LEBESGUE, restarts=8, seed=0)
    exact = 1.0 + math.sqrt(0.5)
    assert est.certified_lower == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert est.ascent_value == pytest.approx(exact, rel=1e-6)
    assert est.ascent_value >= est.certified_lower
    assert est.converged


def test_certified_lower_is_the_indicator_bound():
    # both value the same candidate batch, so they agree bitwise; on
    # instances 148 and 154 a batch that also held the restart endpoints
    # rounded the best indicator differently
    for i in [*range(30), 148, 154]:
        inst = make_instance("thm11", 7, i)
        est = estimate_opnorm(inst.family, inst.cfg, inst.omega, inst.sigma, seed=i)
        lower = indicator_lower_bound(inst.family, inst.cfg, inst.omega, inst.sigma)
        assert est.certified_lower == lower, i
    sigma = PiecewiseWeight(1, [0.0, 2.0])
    with pytest.raises(DegenerateInstanceError):
        estimate_opnorm(CHAIN1, ExponentConfig(2, 2, 1, 1), LEBESGUE, sigma)


def test_estimate_deterministic_in_seed():
    cfg = ExponentConfig(2, 4, 2, 0.75)
    omega = PiecewiseWeight(2, [0.2, 1.0, 3.0, 0.5])
    a = estimate_opnorm(CHAIN1, cfg, omega, LEBESGUE, restarts=6, seed=11)
    b = estimate_opnorm(CHAIN1, cfg, omega, LEBESGUE, restarts=6, seed=11)
    assert a.ascent_value == b.ascent_value
    assert np.array_equal(a.maximizer.values, b.maximizer.values)


THREE_ATOMS = SparseFamily(
    (DyadicInterval(0, 0), DyadicInterval(1, 0), DyadicInterval(2, 0)), eta=0.5
)

SMALL_INSTANCES = [
    (SparseFamily((DyadicInterval(0, 0),)), ExponentConfig(2, 2, 1, 1), LEBESGUE, LEBESGUE),
    (CHAIN1, ExponentConfig(2, 2, 1, 1), LEBESGUE, LEBESGUE),
    (CHAIN1, ExponentConfig(2, 4, 2, 0.75), PiecewiseWeight(1, [3.0, 0.4]), PowerWeight(0.5)),
    (CHAIN1, ExponentConfig(1.5, 3, 0.5, 1), LEBESGUE, PiecewiseWeight(1, [1.0, 2.0])),
    (THREE_ATOMS, ExponentConfig(2, 2, 1, 0.5), LEBESGUE, LEBESGUE),
    (THREE_ATOMS, ExponentConfig(3, 3, 2, 1), PowerWeight(-0.25), PiecewiseWeight(2, [1, 4, 2, 1])),
]


@pytest.mark.parametrize("family,cfg,omega,sigma", SMALL_INSTANCES)
def test_estimate_against_grid_oracle(family, cfg, omega, sigma):
    oracle = oracle_opnorm(family, cfg, omega, sigma)
    est = estimate_opnorm(family, cfg, omega, sigma, restarts=8, seed=2)
    # both sides are feasible-point lower bounds of the true norm, so they
    # agree only up to grid resolution and solver tolerance
    assert est.ascent_value == pytest.approx(oracle, rel=1e-4)
    assert est.ascent_value >= oracle * (1.0 - 1e-6)


def test_oracle_rejects_large_partition():
    with pytest.raises(ParameterError):
        oracle_opnorm(chain_family(3), ExponentConfig(2, 2, 1, 1), LEBESGUE, LEBESGUE)


def test_sandwich_on_random_instances():
    rng = np.random.default_rng(5)
    cfgs = [
        ExponentConfig(2, 2, 1, 1),
        ExponentConfig(2, 4, 2, 0.75),
        ExponentConfig(3, 3, 2, 1),
    ]
    base = chain_family(3).members
    for trial in range(6):
        members = tuple(m for m in base if rng.random() < 0.8) or base
        family = SparseFamily(members, eta=0.5)
        omega = PiecewiseWeight(3, 10 ** rng.uniform(-1, 1, 8))
        sigma = PiecewiseWeight(3, 10 ** rng.uniform(-1, 1, 8))
        cfg = cfgs[trial % len(cfgs)]
        est = estimate_opnorm(family, cfg, omega, sigma, restarts=4, seed=trial)
        lower = indicator_lower_bound(family, cfg, omega, sigma)
        char = two_weight_char(omega, sigma, cfg, family).value
        assert est.ascent_value >= lower * (1.0 - 1e-12)
        assert lower >= char * (1.0 - 1e-12)


def test_scaling_covariance():
    # sigma -> c sigma multiplies the norm by c^{1-1/p} and T by c^{r-r/p}
    cfg = ExponentConfig(2, 4, 1.5, 0.75)
    omega = PiecewiseWeight(2, [0.5, 2.0, 1.0, 0.25])
    sigma = PiecewiseWeight(2, [1.0, 3.0, 0.2, 1.5])
    c = 3.7
    scaled = sigma.scaled(c)
    lower = indicator_lower_bound(CHAIN1, cfg, omega, sigma)
    lower_c = indicator_lower_bound(CHAIN1, cfg, omega, scaled)
    assert lower_c == pytest.approx(c ** (1.0 - 1.0 / cfg.p) * lower, rel=1e-12)
    t = _testing_T(CHAIN1, cfg, omega, sigma)
    t_c = _testing_T(CHAIN1, cfg, omega, scaled)
    assert t_c == pytest.approx(c ** (cfg.r - cfg.r / cfg.p) * t, rel=1e-12)
    est = estimate_opnorm(CHAIN1, cfg, omega, sigma, restarts=4, seed=9)
    est_c = estimate_opnorm(CHAIN1, cfg, omega, scaled, restarts=4, seed=9)
    assert est_c.ascent_value == pytest.approx(
        c ** (1.0 - 1.0 / cfg.p) * est.ascent_value, rel=1e-9
    )


def test_theorem_rhs_generic():
    cfg = ExponentConfig(2, 2, 1, 1)
    assert rhs_branch(cfg) == "generic"
    assert theorem_rhs(cfg, 1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert theorem_rhs(cfg, 2.0, 16.0, 9.0) == pytest.approx(14.0, rel=1e-12)
    # (1/r - 1/p)_+ clips to zero once r >= p
    heavy = ExponentConfig(2, 2, 3, 1)
    assert theorem_rhs(heavy, 1.0, 1.0, 50.0) == pytest.approx(2.0, rel=1e-12)


def test_theorem_rhs_diagonal_fractional():
    cfg = ExponentConfig(2, 2, 1, 0.5)
    assert rhs_branch(cfg) == "diagonal-fractional"
    got = theorem_rhs(cfg, 1.0, 1.0, 4.0)
    assert got == pytest.approx(4.0**0.25 + 4.0**0.75, rel=1e-12)


@pytest.mark.parametrize(
    "cfg,branch",
    [
        (ExponentConfig(2, 2, 1, 1), "generic"),
        (ExponentConfig(2, 4, 2, 0.75), "generic"),
        (ExponentConfig(2, 2, 2, 0.5), "generic"),
        (ExponentConfig(3, 3, 2, 0.9), "diagonal-fractional"),
    ],
)
def test_rhs_branch_cases(cfg, branch):
    assert rhs_branch(cfg) == branch


@given(
    char=st.floats(0.1, 10.0),
    a=st.floats(1.0, 50.0),
    rp=st.floats(0.1, 0.9),
)
def test_diagonal_split_exponents_sum(char, a, rp):
    # equal maximal-density factors collapse both split terms to a^{1/r}
    r = 2.0 * rp
    cfg = ExponentConfig(2, 2, r, 0.5)
    got = theorem_rhs(cfg, char, a, a)
    assert got == pytest.approx(2.0 * char * a ** (1.0 / r), rel=1e-10)


def test_objective_gradient_matches_finite_differences():
    part, obj = rayleigh_objective(
        THREE_ATOMS,
        ExponentConfig(2, 4, 1.5, 0.75),
        PiecewiseWeight(2, [0.5, 2.0, 1.0, 0.25]),
        PiecewiseWeight(2, [1.0, 3.0, 0.2, 1.5]),
    )
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, (2, len(part)))
    logj, grad, _ = obj.log_value_and_grad(u)
    eps = 1e-6
    for i in range(u.shape[0]):
        for k in range(u.shape[1]):
            up, dn = u.copy(), u.copy()
            up[i, k] += eps
            dn[i, k] -= eps
            fd = (obj.log_value(np.exp(up[i : i + 1]))[0]
                  - obj.log_value(np.exp(dn[i : i + 1]))[0]) / (2 * eps)
            assert grad[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_objective_matches_operator_loop():
    # the incidence-matrix kernel against the cube-by-cube apply_sparse path
    for i in range(3):
        inst = make_instance("thm11", 7, i)
        part, obj = rayleigh_objective(inst.family, inst.cfg, inst.omega, inst.sigma)
        rng = np.random.default_rng(i)
        f = np.exp(rng.uniform(-3.0, 3.0, (4, len(part))))
        got = obj.value(f)
        for row, val in zip(f, got):
            step = StepFunction(part, row, nonneg=True)
            image = apply_sparse(inst.family, inst.cfg, inst.sigma, step)
            ref = lp_norm(image, inst.omega, inst.cfg.q) / lp_norm(
                step, inst.sigma, inst.cfg.p
            )
            assert val == pytest.approx(ref, rel=1e-12)


def test_maximize_never_below_candidates():
    # maximize values the objective's own rows, the member indicators and
    # the constant function, as one batch of their own
    _, obj = rayleigh_objective(THREE_ATOMS, ExponentConfig(2, 2, 1, 1), LEBESGUE, LEBESGUE)
    cand = obj.candidates
    values = obj.value(cand)
    floor = float(np.max(values))
    res = maximize(obj, restarts=2, max_iters=50, seed=0)
    assert res.value >= floor * (1.0 - 1e-15)
    assert np.array_equal(res.candidate_values, values)
    only = maximize(obj, restarts=0)
    assert np.array_equal(only.candidate_values, values)
    assert only.value == floor and only.from_candidate and only.converged
    assert only.starts == 0 and len(only.restart_values) == 0
    assert only.certified_upper is None and "restarts = 0" in only.certified_upper_reason


@pytest.mark.parametrize("cfg", [ExponentConfig(2, 2, 1, 1), ExponentConfig(2, 4, 2, 0.75)])
@pytest.mark.parametrize(
    "opts",
    [{"restarts": -1}, {"max_iters": -1}, {"tol": 0.0}, {"tol": -1e-8},
     {"tol": math.nan}, {"tol": math.inf}, {"seed": -1},
     {"restarts": 1.5}, {"max_iters": 2.5}, {"seed": 1.5},
     {"restarts": True}, {"max_iters": True}, {"seed": True},
     {"tol": True}, {"tol": None}, {"tol": "1e-8"}],
)
def test_maximize_rejects_bad_solver_options(cfg, opts):
    # with and without the Collatz-Wielandt bracket; restarts = 0 stays valid.
    # Counts and seeds are integers and not bools on every kind of row; tol is
    # a real number and not a bool (True once ran the solver at tol 1.0)
    _, obj = rayleigh_objective(THREE_ATOMS, cfg, LEBESGUE, LEBESGUE)
    with pytest.raises(ParameterError):
        maximize(obj, **opts)
    with pytest.raises(ParameterError):
        estimate_opnorm(THREE_ATOMS, cfg, LEBESGUE, LEBESGUE, **opts)
    assert estimate_opnorm(THREE_ATOMS, cfg, LEBESGUE, LEBESGUE, restarts=0).starts == 0


@pytest.mark.parametrize("field, bad", [
    ("gamma", -1.0), ("gamma", math.nan), ("gamma", math.inf),
    ("sigma_atom", -1e-300), ("sigma_atom", math.nan), ("sigma_atom", math.inf),
    ("omega_atom", -1.0), ("omega_atom", math.nan), ("omega_atom", -math.inf),
    ("e", 0.0), ("e", -1.0), ("e", math.nan), ("e", math.inf),
    ("t", 0.0), ("t", -1.0), ("t", math.nan), ("t", math.inf),
    ("s", 0.0), ("s", -1.0), ("s", math.nan), ("s", math.inf),
])
def test_cube_objective_rejects_invalid_inputs(field, bad):
    # the step map and the Collatz-Wielandt bound assume nonnegative inputs:
    # t = -1 on this instance returned 0.4427 and reported converged, s = 0
    # raised a bare ZeroDivisionError and s = -1 valued a row at 1.0. Zero
    # entries stay legal
    inst = make_instance("thm11", 7, 0)
    _, obj = rayleigh_objective(inst.family, inst.cfg, inst.omega, inst.sigma)
    fields = ("gamma", "incidence", "sigma_atom", "omega_atom", "e", "t", "s", "outer")
    kwargs = {name: getattr(obj, name) for name in fields}
    if isinstance(kwargs[field], np.ndarray):
        kwargs[field] = kwargs[field].copy()
        kwargs[field][1] = 0.0
        CubeObjective(**kwargs)
        kwargs[field][1] = bad
    else:
        kwargs[field] = bad
    with pytest.raises(ParameterError, match=rf"^{field} must be finite and"):
        CubeObjective(**kwargs)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_cube_objective_keeps_s_up_to_one_for_values(s):
    # the value sweeps may evaluate at 0 < s <= 1; only the fixed-point step
    # of maximize needs s > 1
    inst = make_instance("thm11", 7, 0)
    _, obj = rayleigh_objective(inst.family, inst.cfg, inst.omega, inst.sigma)
    fields = ("gamma", "incidence", "sigma_atom", "omega_atom", "e", "t", "outer")
    low = CubeObjective(**{name: getattr(obj, name) for name in fields}, s=s)
    assert np.all(np.isfinite(low.value(np.ones((1, low.n_atoms)))))
    with pytest.raises(ParameterError, match="needs s > 1"):
        maximize(low)


def test_members_deeper_than_level_62_are_parameter_errors():
    # heap codes 2^level + position overflow int64 from level 63 on, which
    # made deeper chains report values exactly twice as large
    cfg = ExponentConfig(2, 2, 1, 1)
    est = estimate_opnorm(chain_family(62), cfg, LEBESGUE, LEBESGUE)
    assert est.certified_upper is not None
    assert est.certified_lower <= est.ascent_value <= est.certified_upper
    for depth in (63, 64):
        with pytest.raises(ParameterError, match=r"\[0/2\^63, 1/2\^63\)"):
            estimate_opnorm(chain_family(depth), cfg, LEBESGUE, LEBESGUE)


def _spectral_norm(family, gamma, omega, sigma):
    """|| diag(sqrt omega) M^T diag(gamma) M diag(sqrt sigma) ||_2 on the family's atoms.

    The L^2(sigma) -> L^2(omega) norm of f -> sum_Q gamma_Q (int_Q f dsigma) 1_Q.
    """
    geom = FamilyGeometry(family)
    m = geom.incidence
    kernel = m.T @ (gamma[:, None] * m)
    sig, om = geom.masses(sigma)[0], geom.masses(omega)[0]
    return np.linalg.norm(np.sqrt(om)[:, None] * kernel * np.sqrt(sig)[None, :], 2)


def test_thm11_linear_rows_match_spectral_norm():
    rows = 0
    for i in range(60):
        inst = make_instance("thm11", 7, i)
        cfg = inst.cfg
        if (cfg.p, cfg.q, cfg.r) != (2.0, 2.0, 1.0):
            continue
        gamma = FamilyGeometry(inst.family).lengths ** -cfg.alpha
        exact = _spectral_norm(inst.family, gamma, inst.omega, inst.sigma)
        est = estimate_opnorm(inst.family, cfg, inst.omega, inst.sigma, seed=i)
        assert est.ascent_value == pytest.approx(exact, rel=1e-9), f"instance {i}"
        # the bound is first order in the endpoint's distance to the eigenvector
        assert exact <= est.certified_upper <= exact * (1.0 + 1e-7), f"instance {i}"
        rows += 1
    assert rows == 20


def test_lemma34_linear_rows_match_spectral_norm():
    rows = 0
    for i in range(60):
        inst = make_instance("lemma34", 7, i)
        p, q, taus = inst.extras["p"], inst.extras["q"], inst.extras["taus"]
        if (p, q) != (2.0, 2.0):
            continue
        gamma = taus / FamilyGeometry(inst.family).lengths
        exact = _spectral_norm(inst.family, gamma, inst.omega, inst.sigma)
        op = PositiveDyadicOperator(inst.family, taus)
        rep = lsu_check(op, p, q, inst.omega, inst.sigma, seed=i)
        assert rep.lhs == pytest.approx(exact, rel=1e-9), f"instance {i}"
        assert exact <= rep.extras["certified_upper"] <= exact * (1.0 + 1e-7), f"instance {i}"
        rows += 1
    assert rows > 0


def test_estimate_certificate_residual():
    # the converged flag follows the stationarity residual, not the iteration count
    inst = make_instance("thm11", 7, 9)
    args = (inst.family, inst.cfg, inst.omega, inst.sigma)
    est = estimate_opnorm(*args, seed=9)
    assert est.converged
    assert est.residual <= 1e-8
    short = estimate_opnorm(*args, seed=9, max_iters=2)
    assert not short.converged
    assert short.residual > 1e-8
    # the constant start is rejected, so two passes of it precede two seeded passes
    assert short.starts == 17 and short.iterations == 4


def test_bracket_rows_run_one_start():
    # thm11 cycles six exponent tuples; the p = q ones, 40 of 60 rows, are bracketed
    starts = []
    for i in range(60):
        inst = make_instance("thm11", 7, i)
        est = estimate_opnorm(inst.family, inst.cfg, inst.omega, inst.sigma, seed=i)
        starts.append(est.starts)
        if inst.cfg.p == inst.cfg.q:
            assert est.certified_upper is not None and est.converged, f"instance {i}"
            assert est.certified_upper_reason is None
        else:
            assert est.certified_upper is None
            assert "1-homogeneous" in est.certified_upper_reason
    assert starts.count(1) == 40 and starts.count(16) == 20


@pytest.mark.parametrize("cfg,reason", [
    (ExponentConfig(2, 4, 2, 0.75), "not 1-homogeneous"),  # p < q
    (ExponentConfig(2, 2, 3, 1), "order-preserving"),  # t = q/r < 1
])
def test_unbracketed_rows_run_the_seeded_starts(cfg, reason):
    omega = PiecewiseWeight(2, [0.5, 2.0, 1.0, 0.25])
    est = estimate_opnorm(THREE_ATOMS, cfg, omega, LEBESGUE, restarts=5, seed=3)
    assert est.starts == 5
    assert est.certified_upper is None and reason in est.certified_upper_reason


def test_reducible_map_falls_back_to_the_seeded_starts(monkeypatch):
    # tau = 0 on the root: g vanishes on the atom no other cube covers
    family = SparseFamily((DyadicInterval(0, 0), DyadicInterval(1, 0), DyadicInterval(2, 2)))
    op = PositiveDyadicOperator(family, np.array([0.0, 1.0, 0.5]))
    rep = lsu_check(op, 2.0, 2.0, LEBESGUE, LEBESGUE, restarts=6, seed=1)
    assert rep.extras["certified_upper"] is None
    geom = FamilyGeometry(family)
    obj = CubeObjective(
        gamma=op.taus / geom.lengths, incidence=geom.incidence,
        sigma_atom=geom.masses(LEBESGUE)[0], omega_atom=geom.masses(LEBESGUE)[0],
        e=1.0, t=2.0, s=2.0,
    )
    phases, solve = [], ascent._solve

    def recording(*args, **kwargs):
        phases.append(solve(*args, **kwargs))
        return phases[-1]

    monkeypatch.setattr(ascent, "_solve", recording)
    res = maximize(obj, restarts=6, seed=1)
    assert res.certified_upper is None and "not finite" in res.certified_upper_reason
    assert res.starts == 7 and len(res.restart_values) == 6
    assert res.value == rep.lhs and res.converged
    # iterations counts the rejected constant start's passes and the seeded ones
    rejected, seeded = phases
    assert rejected.starts == 1 and rejected.iterations > 0
    assert res.iterations == rejected.iterations + seeded.iterations
