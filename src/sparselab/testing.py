"""Testing constants and numerical comparability checks.

The local testing constants bound the operator norm from above up to
dimensional constants; every comparability statement in scope is realized
here as an exact or ascent-based ratio of two computable sides. Implied
constants are treated as empirical: suites record ratio windows which are
frozen as regression baselines (see the baselines module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ascent import CubeObjective, maximize
from .dyadic import DyadicInterval, FamilyGeometry, SparseFamily
from .errors import DegenerateInstanceError, ParameterError
from .sparse import estimate_opnorm
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


def _report(tag, lhs, rhs, descriptor, **extras) -> ComparabilityReport:
    trivial = lhs == 0.0 or rhs == 0.0
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return ComparabilityReport(
        tag=tag,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        descriptor=descriptor,
        trivial=trivial,
        extras=extras,
    )


def _local_norms(
    geom: FamilyGeometry, coefs: np.ndarray, atom_masses: np.ndarray, exponent: float
) -> np.ndarray:
    """|| sum_{Q <= R} coefs_Q 1_Q ||_{L^exponent} on atoms, one entry per member R."""
    local = (geom.contains * coefs) @ geom.incidence
    return (local**exponent @ atom_masses) ** (1.0 / exponent)


def _positive(member_masses: np.ndarray, name: str) -> None:
    if np.any(member_masses <= 0.0):
        raise DegenerateInstanceError(f"{name} vanishes on a family member")


def testing_T(
    family: SparseFamily, cfg: ExponentConfig, omega: Weight, sigma: Weight
) -> float:
    """sup_R sigma(R)^{-r/p} || sum_{Q<=R} |Q|^{-ar} sigma(Q)^r 1_Q ||_{L^{q/r}_omega}."""
    geom = FamilyGeometry(family)
    return _testing_T(geom, cfg, geom.masses(omega), geom.masses(sigma))


def _testing_T(
    geom: FamilyGeometry, cfg: ExponentConfig, omega_masses, sigma_masses
) -> float:
    om_atom, _ = omega_masses
    _, sig_q = sigma_masses
    _positive(sig_q, "sigma")
    coefs = geom.length_powers(-cfg.alpha * cfg.r) * sig_q**cfg.r
    norms = _local_norms(geom, coefs, om_atom, cfg.q / cfg.r)
    return float(np.max(sig_q ** (-cfg.r / cfg.p) * norms))


def testing_Tstar(
    family: SparseFamily, cfg: ExponentConfig, omega: Weight, sigma: Weight
) -> float:
    """Dual testing constant; defined only in the regime p > r.

    sup_R omega(R)^{-1/(q/r)'} || sum_{Q<=R} |Q|^{-ar} sigma(Q)^{r-1}
    omega(Q) 1_Q ||_{L^{(p/r)'}_sigma}.
    """
    if not cfg.p > cfg.r:
        raise ParameterError("dual testing constant is only used when p > r")
    geom = FamilyGeometry(family)
    return _testing_Tstar(geom, cfg, geom.masses(omega), geom.masses(sigma))


def _testing_Tstar(
    geom: FamilyGeometry, cfg: ExponentConfig, omega_masses, sigma_masses
) -> float:
    _, om_q = omega_masses
    sig_atom, sig_q = sigma_masses
    _positive(sig_q, "sigma")
    _positive(om_q, "omega")
    coefs = geom.length_powers(-cfg.alpha * cfg.r) * sig_q ** (cfg.r - 1.0) * om_q
    tr = cfg.q / cfg.r
    tr_conj = tr / (tr - 1.0)
    norms = _local_norms(geom, coefs, sig_atom, cfg.outer_conj)
    return float(np.max(om_q ** (-1.0 / tr_conj) * norms))


def check_prop31(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
) -> ComparabilityReport:
    """Operator norm (to the r) against the testing-constant bound.

    lhs = estimate^r; rhs = T + T* when r < p, T alone when r >= p.
    """
    est = estimate_opnorm(
        family, cfg, omega, sigma,
        restarts=restarts, max_iters=max_iters, tol=tol, seed=seed,
    )
    geom = FamilyGeometry(family)
    masses = geom.masses(omega), geom.masses(sigma)
    t_val = _testing_T(geom, cfg, *masses)
    if cfg.r < cfg.p:
        rhs = t_val + _testing_Tstar(geom, cfg, *masses)
        branch = "r < p: sum of both testing constants"
    else:
        rhs = t_val
        branch = "r >= p: direct testing constant only"
    return _report(
        "prop31",
        est.ascent_value**cfg.r,
        rhs,
        f"family of {len(family)}, exponents ({cfg.p}, {cfg.q}, {cfg.r}, {cfg.alpha})",
        branch=branch,
        converged=est.converged,
    )


def check_lemma32(
    family: SparseFamily,
    cfg: ExponentConfig,
    coefs: np.ndarray,
    omega: Weight,
    sigma: Weight,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
) -> ComparabilityReport:
    """Equivalence of the two localized suprema over test functions.

    I maximizes || sum c_Q (int_Q f dsigma)^r 1_Q ||_{L^{q/r}_omega} over
    ||f||_{L^p_sigma} <= 1; II the linearized form over ||g||_{L^{p/r}_sigma}
    <= 1 with coefficients c_Q sigma(Q)^{r-1}. Requires 1 < r < p <= q.
    """
    if not (1.0 < cfg.r < cfg.p <= cfg.q):
        raise ParameterError("the two-supremum equivalence needs 1 < r < p <= q")
    coefs = np.asarray(coefs, dtype=float)
    if np.any(coefs < 0.0):
        raise ParameterError("cube coefficients must be nonnegative")
    geom = FamilyGeometry(family)
    om_atom, _ = geom.masses(omega)
    sig_atom, sig_q = geom.masses(sigma)
    _positive(sig_q, "sigma")
    desc = f"family of {len(family)}, exponents ({cfg.p}, {cfg.q}, {cfg.r})"
    if not np.any(coefs > 0.0):
        return ComparabilityReport(
            "lemma32", 0.0, 0.0, 0.0, desc, trivial=True, extras={}
        )
    obj_i = CubeObjective(
        gamma=coefs, incidence=geom.incidence, sigma_atom=sig_atom, omega_atom=om_atom,
        e=cfg.r, t=cfg.q / cfg.r, s=cfg.p, outer=1.0,
    )
    res_i = maximize(
        obj_i, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed,
        extra_candidates=geom.candidates,
    )
    obj_ii = CubeObjective(
        gamma=coefs * sig_q ** (cfg.r - 1.0), incidence=geom.incidence,
        sigma_atom=sig_atom, omega_atom=om_atom,
        e=1.0, t=cfg.q / cfg.r, s=cfg.p / cfg.r, outer=1.0,
    )
    res_ii = maximize(
        obj_ii, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed + 1,
        extra_candidates=geom.candidates,
    )
    return _report(
        "lemma32",
        res_i.value,
        res_ii.value,
        desc,
        converged=res_i.converged and res_ii.converged,
    )


@dataclass(frozen=True, eq=False)
class PositiveDyadicOperator:
    """T(f) = sum_Q tau_Q <f>_Q 1_Q with nonnegative coefficients."""

    family: SparseFamily
    taus: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        if taus.shape != (len(self.family),):
            raise ParameterError("one tau per family member is required")
        if np.any(taus < 0.0):
            raise ParameterError("operator coefficients must be nonnegative")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)


def lsu_testing_sums(
    op: PositiveDyadicOperator, p: float, q: float, omega: Weight, sigma: Weight
) -> tuple[float, float]:
    """The two localized testing suprema of the norm characterization.

    First: sup_R omega(R)^{-1/q'} || sum_{Q<=R} tau_Q <omega>_Q 1_Q ||_{L^{p'}_sigma}.
    Second: sup_R sigma(R)^{-1/p} || sum_{Q<=R} tau_Q <sigma>_Q 1_Q ||_{L^q_omega}.
    """
    geom = FamilyGeometry(op.family)
    return _lsu_sums(geom, op.taus, p, q, geom.masses(omega), geom.masses(sigma))


def _lsu_sums(
    geom: FamilyGeometry, taus: np.ndarray, p: float, q: float, omega_masses, sigma_masses
) -> tuple[float, float]:
    om_atom, om_q = omega_masses
    sig_atom, sig_q = sigma_masses
    if np.any(sig_q <= 0.0) or np.any(om_q <= 0.0):
        raise DegenerateInstanceError("a weight vanishes on a family member")
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    n1 = _local_norms(geom, taus * om_q / geom.lengths, sig_atom, p_conj)
    n2 = _local_norms(geom, taus * sig_q / geom.lengths, om_atom, q)
    return (
        float(np.max(om_q ** (-1.0 / q_conj) * n1)),
        float(np.max(sig_q ** (-1.0 / p) * n2)),
    )


def lsu_check(
    op: PositiveDyadicOperator,
    p: float,
    q: float,
    omega: Weight,
    sigma: Weight,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
) -> ComparabilityReport:
    """Norm of the linear positive operator against its two testing sums."""
    if not 1.0 < p <= q:
        raise ParameterError("norm characterization needs 1 < p <= q")
    family = op.family
    geom = FamilyGeometry(family)
    om, sig = geom.masses(omega), geom.masses(sigma)
    desc = f"positive operator on {len(family)} cubes, (p, q)=({p}, {q})"
    if not np.any(op.taus > 0.0):
        return ComparabilityReport("lemma34", 0.0, 0.0, 0.0, desc, trivial=True)
    obj = CubeObjective(
        gamma=op.taus / geom.lengths, incidence=geom.incidence,
        sigma_atom=sig[0], omega_atom=om[0],
        e=1.0, t=q, s=p, outer=1.0,
    )
    res = maximize(
        obj, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed,
        extra_candidates=geom.candidates,
    )
    first, second = _lsu_sums(geom, op.taus, p, q, om, sig)
    return _report(
        "lemma34", res.value, first + second, desc, converged=res.converged
    )


def check_lemma41(
    family: SparseFamily, coefs: np.ndarray, sigma: Weight, p: float
) -> ComparabilityReport:
    """Norm of phi = sum a_Q 1_Q against the localized-average bracket.

    rhs^p = sum_Q a_Q (<phi_Q>_Q^sigma)^{p-1} sigma(Q) with
    phi_Q = sum_{Q' <= Q} a_{Q'} 1_{Q'}. For p = 2 the bracket is exactly
    two-sided: rhs <= lhs <= sqrt(2) rhs.

    Both sides are 1-homogeneous in the coefficients, so they are computed
    for the coefficients divided by their maximum and scaled back; the
    ratio comes from the normalized sides and cannot underflow or overflow
    at extreme coefficient scales.
    """
    if not p > 1.0:
        raise ParameterError("need p > 1")
    coefs = np.asarray(coefs, dtype=float)
    if np.any(coefs < 0.0):
        raise ParameterError("coefficients must be nonnegative")
    geom = FamilyGeometry(family)
    sig_atom, sig_q = geom.masses(sigma)
    _positive(sig_q, "sigma")
    desc = f"{len(family)} cubes, p={p}"
    if not np.any(coefs > 0.0):
        return ComparabilityReport("lemma41", 0.0, 0.0, 0.0, desc, trivial=True)
    scale = float(coefs.max())
    unit = coefs / scale
    phi = unit @ geom.incidence
    lhs = float(np.dot(phi**p, sig_atom)) ** (1.0 / p)
    local = geom.contains @ (unit * sig_q)
    rhs = float(np.dot(unit * (local / sig_q) ** (p - 1.0), sig_q)) ** (1.0 / p)
    return ComparabilityReport("lemma41", scale * lhs, scale * rhs, lhs / rhs, desc)


@dataclass(frozen=True)
class MeasureEstimateQuery:
    """Exponent triple (a, b, c) >= 0 with a + b + c >= 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0.0:
            raise ParameterError("exponents must be nonnegative")
        if self.a + self.b + self.c < 1.0:
            raise ParameterError("exponents must sum to at least 1")


def check_lemma43(
    family: SparseFamily,
    omega: Weight,
    sigma: Weight,
    query: MeasureEstimateQuery,
    top: DyadicInterval,
    ainfty_depth: Optional[int] = None,
) -> ComparabilityReport:
    """Packed sums of |Q|^a sigma(Q)^b omega(Q)^c against the local value.

    For a > 0 the reference is |R|^a sigma(R)^b omega(R)^c alone; for a = 0
    the reference additionally carries the two Fujii-Wilson factors.
    """
    if top not in family.members:
        raise ParameterError("reference interval must belong to the family")
    lhs = math.fsum(
        q.length**query.a * sigma.mass(q) ** query.b * omega.mass(q) ** query.c
        for q in family.members
        if top.encloses(q)
    )
    rhs = (
        top.length**query.a
        * sigma.mass(top) ** query.b
        * omega.mass(top) ** query.c
    )
    if query.a > 0.0:
        branch = "scale-positive: local value alone"
    else:
        depth = ainfty_depth if ainfty_depth is not None else _default_depth(family, omega, sigma)
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
    depth = max(6, family.max_level)
    for w in weights:
        if isinstance(w, PiecewiseWeight):
            depth = max(depth, w.depth)
    return min(depth, 14)


def verify_thm42(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    ainfty_depth: Optional[int] = None,
) -> tuple[ComparabilityReport, Optional[ComparabilityReport]]:
    """Testing constants against their mixed-characteristic upper bounds.

    Each constant is compared with char^r times the appropriate product of
    Fujii-Wilson factors; the exponent split depends on whether the
    diagonal fractional regime (p = q, alpha < 1) applies.
    """
    depth = ainfty_depth if ainfty_depth is not None else _default_depth(family, omega, sigma)
    char = two_weight_char(omega, sigma, cfg, family).value
    a_sig = ainfty(sigma, depth=depth).value
    a_om = ainfty(omega, depth=depth).value
    desc = f"family of {len(family)}, exponents ({cfg.p}, {cfg.q}, {cfg.r}, {cfg.alpha})"

    geom = FamilyGeometry(family)
    masses = geom.masses(omega), geom.masses(sigma)
    t_val = _testing_T(geom, cfg, *masses)
    diag = cfg.p == cfg.q and cfg.alpha < 1.0
    if diag and cfg.p > cfg.r:
        w = (1.0 - cfg.r / cfg.p) ** 2
        rhs_t = char**cfg.r * a_sig ** (1.0 - w) * a_om**w
        branch_t = "diagonal fractional split"
    else:
        rhs_t = char**cfg.r * a_sig ** (cfg.r / cfg.q)
        branch_t = "generic"
    rep_t = _report("thm42-T", t_val, rhs_t, desc, branch=branch_t)

    rep_tstar = None
    if cfg.p > cfg.r:
        tstar = _testing_Tstar(geom, cfg, *masses)
        if diag:
            w = (cfg.r / cfg.p) ** 2
            rhs_s = char**cfg.r * a_om ** (1.0 - w) * a_sig**w
            branch_s = "diagonal fractional split"
        else:
            rhs_s = char**cfg.r * a_om ** (1.0 - cfg.r / cfg.p)
            branch_s = "generic"
        rep_tstar = _report("thm42-Tstar", tstar, rhs_s, desc, branch=branch_s)
    return rep_t, rep_tstar
