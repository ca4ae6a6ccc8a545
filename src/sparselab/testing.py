"""Testing constants and numerical comparability checks.

The local testing constants bound the operator norm from above up to
dimensional constants; every comparability statement in scope is realized
here as an exact or solver-based ratio of two computable sides. Implied
constants are treated as empirical: suites record ratio windows which are
frozen as regression baselines (see the baselines module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ascent import CubeObjective, maximize
from .dyadic import DEFAULT_DEPTH_CAP, DyadicInterval, FamilyGeometry, SparseFamily, family_geometry
from .errors import ParameterError, finite_exponent, finite_nonnegative
from .sparse import _require_mass, estimate_opnorm, rhs_branch, theorem_rhs
from .weights import (
    ExponentConfig,
    PiecewiseWeight,
    Weight,
    ainfty,
    two_weight_char,
)


@dataclass(frozen=True, eq=False)
class ComparabilityReport:
    tag: str
    lhs: float
    rhs: float
    ratio: float
    descriptor: str
    trivial: bool = False
    extras: dict = field(default_factory=dict)


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, and 0 where rhs vanishes: the ratio rule of every report."""
    return lhs / rhs if rhs > 0.0 else 0.0


def _report(tag, lhs, rhs, descriptor, **extras) -> ComparabilityReport:
    trivial = lhs == 0.0 or rhs == 0.0
    return ComparabilityReport(
        tag=tag,
        lhs=lhs,
        rhs=rhs,
        ratio=_ratio(lhs, rhs),
        descriptor=descriptor,
        trivial=trivial,
        extras=extras,
    )


def _describe(family: SparseFamily, cfg: ExponentConfig) -> str:
    return f"family of {len(family)}, exponents ({cfg.p}, {cfg.q}, {cfg.r}, {cfg.alpha})"


def _testing_sup(
    geom: FamilyGeometry, coefs: np.ndarray, atom_masses: np.ndarray, exponent: float,
    member_masses: np.ndarray, power: float,
) -> float:
    """sup_R mu(R)^power || sum_{Q <= R} coefs_Q 1_Q ||_{L^exponent(nu)} over members R.

    nu is given by its atom masses and mu by its member masses.
    """
    local = (geom.contains * coefs) @ geom.incidence
    norms = (local**exponent @ atom_masses) ** (1.0 / exponent)
    return float(np.max(member_masses**power * norms))


def testing_T(
    family: SparseFamily, cfg: ExponentConfig, omega: Weight, sigma: Weight
) -> float:
    """sup_R sigma(R)^{-r/p} || sum_{Q<=R} |Q|^{-ar} sigma(Q)^r 1_Q ||_{L^{q/r}_omega}."""
    geom = family_geometry(family)
    om_atom, _ = geom.masses(omega)
    _, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    coefs = geom.length_powers(-cfg.alpha * cfg.r) * sig_q**cfg.r
    return _testing_sup(geom, coefs, om_atom, cfg.q / cfg.r, sig_q, -cfg.r / cfg.p)


def testing_Tstar(
    family: SparseFamily, cfg: ExponentConfig, omega: Weight, sigma: Weight
) -> float:
    """Dual testing constant; defined only in the regime p > r.

    sup_R omega(R)^{-1/(q/r)'} || sum_{Q<=R} |Q|^{-ar} sigma(Q)^{r-1}
    omega(Q) 1_Q ||_{L^{(p/r)'}_sigma}.
    """
    if not cfg.p > cfg.r:
        raise ParameterError("dual testing constant is only used when p > r")
    geom = family_geometry(family)
    _, om_q = geom.masses(omega)
    sig_atom, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    _require_mass(geom, om_q, "omega")
    coefs = geom.length_powers(-cfg.alpha * cfg.r) * sig_q ** (cfg.r - 1.0) * om_q
    tr = cfg.q / cfg.r
    tr_conj = tr / (tr - 1.0)
    return _testing_sup(geom, coefs, sig_atom, cfg.outer_conj, om_q, -1.0 / tr_conj)


def check_prop31(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    **solver,
) -> ComparabilityReport:
    """Operator norm (to the r) against the testing-constant bound.

    lhs = estimate^r; rhs = T + T* when r < p, T alone when r >= p. `solver`
    goes to `maximize` as in `estimate_opnorm`: one start where p = q and
    r <= q, `restarts` seeded starts elsewhere and where the bracket fails.
    `certified_upper` is the estimate's Collatz-Wielandt bound to the r, an
    upper bound on lhs, or None where the bracket does not apply or fails.
    The extras also carry `testing_T` and `testing_Tstar` (None when r >= p).
    """
    est = estimate_opnorm(family, cfg, omega, sigma, **solver)
    t_val = testing_T(family, cfg, omega, sigma)
    tstar = None
    if cfg.r < cfg.p:
        tstar = testing_Tstar(family, cfg, omega, sigma)
        rhs = t_val + tstar
        branch = "r < p: sum of both testing constants"
    else:
        rhs = t_val
        branch = "r >= p: direct testing constant only"
    return _report(
        "prop31",
        est.ascent_value**cfg.r,
        rhs,
        _describe(family, cfg),
        branch=branch,
        converged=est.converged,
        residual=est.residual,
        certified_upper=None if est.certified_upper is None else est.certified_upper**cfg.r,
        testing_T=t_val,
        testing_Tstar=tstar,
    )


def check_thm11(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    ainfty_depth: Optional[int] = None,
    **solver,
) -> ComparabilityReport:
    """Operator-norm estimate against the mixed-characteristic bound (Theorem 1.1).

    lhs is `estimate_opnorm` with `solver`, rhs is `theorem_rhs` with the
    A_infty scans run to `ainfty_depth` (default `_default_depth`). The
    extras carry the characteristics, the scan depth, the branch, the
    estimate's diagnostics and `lower_ratio` = certified_lower / estimate
    under the report rule.
    """
    est = estimate_opnorm(family, cfg, omega, sigma, **solver)
    depth, char, a_sig, a_om = _characteristics(family, cfg, omega, sigma, ainfty_depth)
    return _report(
        "thm11",
        est.ascent_value,
        theorem_rhs(cfg, char.value, a_sig.value, a_om.value),
        _describe(family, cfg),
        characteristic=char.value,
        ainfty_sigma=a_sig.value,
        ainfty_omega=a_om.value,
        depth=depth,
        rhs_branch=rhs_branch(cfg),
        certified_lower=est.certified_lower,
        certified_upper=est.certified_upper,
        certified_upper_reason=est.certified_upper_reason,
        starts=est.starts,
        iterations=est.iterations,
        converged=est.converged,
        residual=est.residual,
        lower_ratio=_ratio(est.certified_lower, est.ascent_value),
    )


def check_lemma32(
    family: SparseFamily,
    cfg: ExponentConfig,
    coefs: np.ndarray,
    omega: Weight,
    sigma: Weight,
    seed: int = 0,
    **solver,
) -> ComparabilityReport:
    """Equivalence of the two localized suprema over test functions.

    I maximizes || sum c_Q (int_Q f dsigma)^r 1_Q ||_{L^{q/r}_omega} over
    ||f||_{L^p_sigma} <= 1; II the linearized form over ||g||_{L^{p/r}_sigma}
    <= 1 with coefficients c_Q sigma(Q)^{r-1}. Requires 1 < r < p <= q and
    finite nonnegative coefficients.
    Side I runs `maximize` from `seed`, side II from `seed + 1`.
    When p = q each side runs one start and `certified_upper` holds the
    Collatz-Wielandt bounds on (lhs, rhs), entries None where a bound fails;
    when p < q both sides run `restarts` seeded starts and the entries are None.
    """
    if not (1.0 < cfg.r < cfg.p <= cfg.q):
        raise ParameterError("the two-supremum equivalence needs 1 < r < p <= q")
    coefs = finite_nonnegative(coefs, "cube coefficients")
    geom = family_geometry(family)
    om_atom, _ = geom.masses(omega)
    sig_atom, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    desc = f"family of {len(family)}, exponents ({cfg.p}, {cfg.q}, {cfg.r})"
    if not np.any(coefs > 0.0):
        return _report("lemma32", 0.0, 0.0, desc)
    obj_i = CubeObjective(
        gamma=coefs, incidence=geom.incidence, sigma_atom=sig_atom, omega_atom=om_atom,
        e=cfg.r, t=cfg.q / cfg.r, s=cfg.p, outer=1.0,
    )
    obj_ii = CubeObjective(
        gamma=coefs * sig_q ** (cfg.r - 1.0), incidence=geom.incidence,
        sigma_atom=sig_atom, omega_atom=om_atom,
        e=1.0, t=cfg.q / cfg.r, s=cfg.p / cfg.r, outer=1.0,
    )
    res_i = maximize(obj_i, seed=seed, **solver)
    res_ii = maximize(obj_ii, seed=seed + 1, **solver)
    return _report(
        "lemma32",
        res_i.value,
        res_ii.value,
        desc,
        converged=res_i.converged and res_ii.converged,
        residual=max(res_i.residual, res_ii.residual),
        certified_upper=(res_i.certified_upper, res_ii.certified_upper),
    )


@dataclass(frozen=True, eq=False)
class PositiveDyadicOperator:
    """T(f) = sum_Q tau_Q <f>_Q 1_Q with finite nonnegative coefficients."""

    family: SparseFamily
    taus: np.ndarray

    def __post_init__(self):
        taus = finite_nonnegative(self.taus, "operator coefficients")
        if taus.shape != (len(self.family),):
            raise ParameterError("one tau per family member is required")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)


def lsu_testing_sums(
    op: PositiveDyadicOperator, p: float, q: float, omega: Weight, sigma: Weight
) -> tuple[float, float]:
    """The two localized testing suprema of the norm characterization, at 1 < p <= q < inf.

    First: sup_R omega(R)^{-1/q'} || sum_{Q<=R} tau_Q <omega>_Q 1_Q ||_{L^{p'}_sigma}.
    Second: sup_R sigma(R)^{-1/p} || sum_{Q<=R} tau_Q <sigma>_Q 1_Q ||_{L^q_omega}.
    """
    if not 1.0 < p <= q < math.inf:
        raise ParameterError("norm characterization needs 1 < p <= q < inf")
    geom = family_geometry(op.family)
    om_atom, om_q = geom.masses(omega)
    sig_atom, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    _require_mass(geom, om_q, "omega")
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    return (
        _testing_sup(geom, op.taus * om_q / geom.lengths, sig_atom, p_conj, om_q, -1.0 / q_conj),
        _testing_sup(geom, op.taus * sig_q / geom.lengths, om_atom, q, sig_q, -1.0 / p),
    )


def lsu_check(
    op: PositiveDyadicOperator,
    p: float,
    q: float,
    omega: Weight,
    sigma: Weight,
    **solver,
) -> ComparabilityReport:
    """Norm of the linear positive operator against its two testing sums, at 1 < p <= q < inf.

    The norm is `maximize` with `solver` forwarded. When p = q one start
    runs and `certified_upper` bounds lhs from above; when p < q, or when
    the bound fails (for example a zero coefficient leaves g zero on some
    atoms), `restarts` seeded starts run and `certified_upper` is None.
    """
    first, second = lsu_testing_sums(op, p, q, omega, sigma)  # and their exponent rule
    geom = family_geometry(op.family)
    desc = f"positive operator on {len(op.family)} cubes, (p, q)=({p}, {q})"
    if not np.any(op.taus > 0.0):
        return _report("lemma34", 0.0, 0.0, desc)
    obj = CubeObjective(
        gamma=op.taus / geom.lengths, incidence=geom.incidence,
        sigma_atom=geom.masses(sigma)[0], omega_atom=geom.masses(omega)[0],
        e=1.0, t=q, s=p, outer=1.0,
    )
    res = maximize(obj, **solver)
    return _report(
        "lemma34", res.value, first + second, desc,
        converged=res.converged, residual=res.residual,
        certified_upper=res.certified_upper,
    )


def check_lemma41(
    family: SparseFamily, coefs: np.ndarray, sigma: Weight, p: float
) -> ComparabilityReport:
    """Norm of phi = sum a_Q 1_Q against the localized-average bracket.

    rhs^p = sum_Q a_Q (<phi_Q>_Q^sigma)^{p-1} sigma(Q) with
    phi_Q = sum_{Q' <= Q} a_{Q'} 1_{Q'}. For p = 2 the bracket is exactly
    two-sided: rhs <= lhs <= sqrt(2) rhs. p must be finite and the
    coefficients finite and nonnegative.

    Both sides are 1-homogeneous in the coefficients, so they are computed
    for the coefficients divided by their maximum and scaled back; the
    ratio comes from the normalized sides and cannot underflow or overflow
    at extreme coefficient scales.
    """
    finite_exponent(p)
    coefs = finite_nonnegative(coefs, "coefficients")
    geom = family_geometry(family)
    sig_atom, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    desc = f"{len(family)} cubes, p={p}"
    if not np.any(coefs > 0.0):
        return _report("lemma41", 0.0, 0.0, desc)
    scale = float(coefs.max())
    unit = coefs / scale
    phi = unit @ geom.incidence
    lhs = float(np.dot(phi**p, sig_atom)) ** (1.0 / p)
    local = geom.contains @ (unit * sig_q)
    rhs = float(np.dot(unit * (local / sig_q) ** (p - 1.0), sig_q)) ** (1.0 / p)
    return ComparabilityReport("lemma41", scale * lhs, scale * rhs, lhs / rhs, desc)


@dataclass(frozen=True)
class MeasureEstimateQuery:
    """Finite exponent triple (a, b, c) >= 0 with a + b + c >= 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        finite_nonnegative((self.a, self.b, self.c), "exponents")
        if self.a + self.b + self.c < 1.0:
            raise ParameterError("exponents must sum to at least 1")


def check_lemma43(
    family: SparseFamily,
    omega: Weight,
    sigma: Weight,
    query: MeasureEstimateQuery,
    top: DyadicInterval,
) -> ComparabilityReport:
    """Packed sums of |Q|^a sigma(Q)^b omega(Q)^c against the local value.

    For a > 0 the reference is |R|^a sigma(R)^b omega(R)^c alone; for a = 0
    the reference additionally carries the two Fujii-Wilson factors, the
    A_infty scans run to `_default_depth`.
    """
    at = np.flatnonzero((family.levels == top.level) & (family.positions == top.position))
    if not at.size:
        raise ParameterError("reference interval must belong to the family")
    i = int(at[0])
    geom = family_geometry(family)
    terms = (
        geom.lengths ** query.a
        * geom.member_masses(sigma) ** query.b
        * geom.member_masses(omega) ** query.c
    )
    lhs = math.fsum(terms[geom.contains[i]].tolist())
    rhs = float(terms[i])
    if query.a > 0.0:
        branch = "scale-positive: local value alone"
    else:
        depth = _default_depth(family, omega, sigma)
        rhs *= (
            ainfty(sigma, depth=depth).value ** query.b
            * ainfty(omega, depth=depth).value ** query.c
        )
        branch = "scale-free: local value times maximal-density factors"
    return _report(
        "lemma43",
        lhs,
        rhs,
        f"query ({query.a}, {query.b}, {query.c}) at {top}",
        branch=branch,
    )


def _default_depth(family: SparseFamily, *weights: Weight) -> int:
    depths = [w.depth for w in weights if isinstance(w, PiecewiseWeight)]
    return min(max(6, family.max_level, *depths), DEFAULT_DEPTH_CAP)


def _characteristics(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    depth: Optional[int] = None,
):
    """depth (`_default_depth` when None) and the char, A_infty(sigma), A_infty(omega) reports."""
    if depth is None:
        depth = _default_depth(family, omega, sigma)
    return (
        depth,
        two_weight_char(omega, sigma, cfg, family),
        ainfty(sigma, depth=depth),
        ainfty(omega, depth=depth),
    )


def verify_thm42(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
) -> tuple[ComparabilityReport, Optional[ComparabilityReport]]:
    """Testing constants against their mixed-characteristic upper bounds.

    Each constant is compared with char^r times the appropriate product of
    Fujii-Wilson factors, the A_infty scans run to `_default_depth`; the
    exponent split is the diagonal fractional one where `rhs_branch` is
    "diagonal-fractional" (p = q > r, alpha < 1).
    """
    _, char, a_sig, a_om = _characteristics(family, cfg, omega, sigma)
    char, a_sig, a_om = char.value, a_sig.value, a_om.value
    desc = _describe(family, cfg)

    t_val = testing_T(family, cfg, omega, sigma)
    diag = rhs_branch(cfg) == "diagonal-fractional"
    if diag:
        w = (1.0 - cfg.r / cfg.p) ** 2
        rhs_t = char**cfg.r * a_sig ** (1.0 - w) * a_om**w
        branch_t = "diagonal fractional split"
    else:
        rhs_t = char**cfg.r * a_sig ** (cfg.r / cfg.q)
        branch_t = "generic"
    rep_t = _report("thm42-T", t_val, rhs_t, desc, branch=branch_t)

    rep_tstar = None
    if cfg.p > cfg.r:
        tstar = testing_Tstar(family, cfg, omega, sigma)
        if diag:
            w = (cfg.r / cfg.p) ** 2
            rhs_s = char**cfg.r * a_om ** (1.0 - w) * a_sig**w
            branch_s = "diagonal fractional split"
        else:
            rhs_s = char**cfg.r * a_om ** (1.0 - cfg.r / cfg.p)
            branch_s = "generic"
        rep_tstar = _report("thm42-Tstar", tstar, rhs_s, desc, branch=branch_s)
    return rep_t, rep_tstar
