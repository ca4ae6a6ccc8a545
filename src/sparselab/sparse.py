"""The sparse power operator, weighted norms, and operator-norm estimation.

The operator sends f to (sum_Q (|Q|^{-alpha} int_Q f dsigma)^r 1_Q)^{1/r}
over the members of a sparse family. Everything is evaluated exactly on
atom partitions, through the family's compiled geometry (atoms, member
atom ranges and the member-by-atom incidence matrix; see
dyadic.FamilyGeometry), which one call builds once and shares between the
ascent objective, the indicator bound and the candidate sweep. The only
non-exact quantity is the ascent estimate of the operator norm, which is
bracketed from below by the certified indicator bound and cross-checked on
tiny instances by a sphere-grid oracle. `apply_sparse` evaluates the
operator cube by cube and is kept as the independent reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ascent import CubeObjective, maximize
from .dyadic import AtomPartition, FamilyGeometry, SparseFamily
from .errors import DegenerateInstanceError, ParameterError
from .functions import StepFunction
from .weights import ExponentConfig, Weight


def apply_sparse(
    family: SparseFamily, cfg: ExponentConfig, sigma: Weight, f: StepFunction
) -> StepFunction:
    """Pointwise value of the operator applied to f dsigma, on f's partition.

    f must live on a partition refining the family's atoms; the cube
    integrals int_Q f dsigma are then exact atom sums.
    """
    geom = FamilyGeometry(family, f.partition)
    fs = f.values * geom.masses(sigma)[0]
    acc = np.zeros(len(fs))
    for q, (i0, i1) in zip(family.members, geom.ranges):
        cube_int = float(fs[i0:i1].sum())
        acc[i0:i1] += (q.length ** (-cfg.alpha) * cube_int) ** cfg.r
    return StepFunction(f.partition, acc ** (1.0 / cfg.r), nonneg=True)


def lp_norm(f: StepFunction, w: Weight, p: float) -> float:
    """(sum_a |f(a)|^p w(a))^{1/p} with exact atom masses."""
    if not p > 0.0:
        raise ParameterError(f"norm exponent must be positive, got {p}")
    masses = np.array([w.mass(a) for a in f.partition.atoms])
    return float(np.dot(np.abs(f.values) ** p, masses)) ** (1.0 / p)


def _objective(
    geom: FamilyGeometry, cfg: ExponentConfig, omega: Weight, sigma: Weight
) -> tuple[CubeObjective, np.ndarray]:
    """The operator-norm quotient on the geometry's atoms, and sigma's member masses."""
    sig_atom, sig_q = geom.masses(sigma)
    obj = CubeObjective(
        gamma=geom.length_powers(-cfg.alpha * cfg.r),
        incidence=geom.incidence,
        sigma_atom=sig_atom,
        omega_atom=geom.masses(omega)[0],
        e=cfg.r,
        t=cfg.q / cfg.r,
        s=cfg.p,
        outer=1.0 / cfg.r,
    )
    return obj, sig_q


def _indicator_bound(geom: FamilyGeometry, obj: CubeObjective, sig_q: np.ndarray) -> float:
    zero = np.flatnonzero(sig_q <= 0.0)
    if len(zero):
        raise DegenerateInstanceError(
            f"sigma has zero mass on member {geom.family.members[zero[0]]}"
        )
    return float(np.max(obj.value(geom.incidence)))


def indicator_lower_bound(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    part: AtomPartition | None = None,
) -> float:
    """Certified operator-norm lower bound from indicator test functions.

    Takes the best Rayleigh quotient over the member indicators 1_Q, all
    evaluated in one batch by the ascent objective; always at least the
    two-weight characteristic because the single-cube term already equals
    |Q|^{-alpha} sigma(Q) * omega(Q)^{1/q} / sigma(Q)^{1/p}. The tests
    check it against the cube-by-cube `apply_sparse` path.
    """
    geom = FamilyGeometry(family, part)
    return _indicator_bound(geom, *_objective(geom, cfg, omega, sigma))


def rayleigh_objective(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    part: AtomPartition | None = None,
) -> tuple[AtomPartition, CubeObjective]:
    """The operator-norm quotient as a cube-sum objective on family atoms."""
    geom = FamilyGeometry(family, part)
    return geom.part, _objective(geom, cfg, omega, sigma)[0]


@dataclass(frozen=True, eq=False)
class OpNormEstimate:
    certified_lower: float
    ascent_value: float
    maximizer: StepFunction
    restarts: int
    iterations: int
    converged: bool
    seed: int


def estimate_opnorm(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
) -> OpNormEstimate:
    """Multi-start log-parametrized ascent on the operator-norm quotient.

    Cube indicators and the constant function are always swept as
    candidates, so the estimate never falls below the certified bound.
    """
    geom = FamilyGeometry(family)
    obj, sig_q = _objective(geom, cfg, omega, sigma)
    lower = _indicator_bound(geom, obj, sig_q)
    res = maximize(
        obj,
        restarts=restarts,
        max_iters=max_iters,
        tol=tol,
        seed=seed,
        extra_candidates=geom.candidates,
    )
    return OpNormEstimate(
        certified_lower=lower,
        ascent_value=res.value,
        maximizer=StepFunction(geom.part, res.maximizer, nonneg=True),
        restarts=restarts,
        iterations=res.iterations,
        converged=res.converged,
        seed=seed,
    )


def oracle_opnorm(
    family: SparseFamily,
    cfg: ExponentConfig,
    omega: Weight,
    sigma: Weight,
    grid_res: float | None = None,
) -> float:
    """Brute-force norm on instances whose partition has at most 3 atoms.

    Scans nonnegative directions on the unit sphere of the sigma-weighted
    p-norm at angular resolution grid_res and returns the best quotient.
    """
    part, obj = rayleigh_objective(family, cfg, omega, sigma)
    n = len(part)
    if n > 3:
        raise ParameterError(f"oracle limited to 3 atoms, partition has {n}")
    if np.any(obj.sigma_atom <= 0.0):
        raise DegenerateInstanceError("oracle requires positive sigma mass per atom")
    scale = obj.sigma_atom ** (-1.0 / cfg.p)
    if n == 1:
        return float(obj.value(np.ones((1, 1)) * scale)[0])
    if grid_res is None:
        grid_res = 1e-3 if n == 2 else 2e-3
    half_pi = math.pi / 2.0
    steps = int(half_pi / grid_res) + 1
    theta = np.linspace(0.0, half_pi, steps)
    best = -np.inf
    if n == 2:
        c, s = np.cos(theta), np.sin(theta)
        f = np.stack([c, s], axis=1) ** (2.0 / cfg.p) * scale
        vals = obj.value(f)
        best = float(np.max(vals[np.isfinite(vals)]))
        return best
    phi = np.linspace(0.0, half_pi, steps)
    chunk = max(1, 200_000 // steps)
    for lo in range(0, steps, chunk):
        th = theta[lo : lo + chunk]
        ct = np.cos(th)[:, None] * np.ones_like(phi)[None, :]
        st = np.sin(th)[:, None]
        f = np.stack(
            [ct, st * np.cos(phi)[None, :], st * np.sin(phi)[None, :]], axis=2
        )
        f = f.reshape(-1, 3) ** (2.0 / cfg.p) * scale
        vals = obj.value(f)
        vals = vals[np.isfinite(vals)]
        if len(vals):
            best = max(best, float(np.max(vals)))
    return best


def theorem_rhs(
    cfg: ExponentConfig, char: float, a_sigma: float, a_omega: float
) -> float:
    """Mixed-characteristic upper-bound expression for the operator norm.

    Generic branch: char * (a_sigma^{1/q} + a_omega^{(1/r - 1/p)_+}).
    In the diagonal fractional regime p = q > r, alpha < 1 the two terms
    carry split exponents summing to 1/r on each product.
    """
    if rhs_branch(cfg) == "diagonal-fractional":
        rp = cfg.r / cfg.p
        term1 = a_omega ** ((1.0 - rp) ** 2 / cfg.r) * a_sigma ** (
            (1.0 - (1.0 - rp) ** 2) / cfg.r
        )
        term2 = a_omega ** ((1.0 - rp**2) / cfg.r) * a_sigma ** (rp**2 / cfg.r)
        return char * (term1 + term2)
    plus = max(1.0 / cfg.r - 1.0 / cfg.p, 0.0)
    return char * (a_sigma ** (1.0 / cfg.q) + a_omega**plus)


def rhs_branch(cfg: ExponentConfig) -> str:
    if cfg.p == cfg.q and cfg.p > cfg.r and cfg.alpha < 1.0:
        return "diagonal-fractional"
    return "generic"
