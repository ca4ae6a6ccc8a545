"""Certified fixed-point solver for cube-sum Rayleigh quotients.

Every operator-norm style maximization in this package has the shape

    J(f) = || sum_Q gamma_Q (int_Q f dsigma)^e 1_Q ||_{L^t_omega}
           / ||f||_{L^s_sigma}^e

over nonnegative atom functions f, reported as J^outer. J is scale-free,
and its gradient vanishes exactly when f^(s-1) is proportional to
g = scatter(gamma F^(e-1) range_sum(omega h^(t-1))), where F are the cube
integrals of f and h is the operator image. `maximize` iterates
f <- g^(1/(s-1)): Boyd's power method for l^p operator norms (Boyd 1974;
Higham 1992), extended to the r-power operator. Every caller has s > 1.
The reported certificate is the stationarity residual
max |d log J / d log f| at the endpoints. Quasi-norm regimes t < 1 or
e < 1 use the same formulas; no triangle inequality is assumed.

When e t = s, e >= 1 and t >= 1 (the p = q rows with r <= q), the step
map is order-preserving and homogeneous of degree 1, so nonlinear
Perron-Frobenius theory applies: when the map is irreducible one start
reaches the maximizer, and at every positive f the Collatz-Wielandt bound
J_max <= (max_a g_a(f) / f_a^(s-1))^(1/t) brackets it from above (Lemmens &
Nussbaum, Nonlinear Perron-Frobenius Theory, 2012; Gautier, Tudisco & Hein
2018). Those rows run the constant start alone and keep it when the bound
confirms it; all others run seeded multi-start iterations.

Because every cube of a sparse family is a contiguous run of partition
atoms, cube sums and their transposes are products with the 0/1
cube-by-atom incidence matrix, which the objective takes from the
family's compiled geometry (see dyadic.FamilyGeometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class CubeObjective:
    """Coefficients and geometry defining one Rayleigh quotient."""

    gamma: np.ndarray       # (m,) nonnegative cube coefficients
    incidence: np.ndarray   # (m, n) 0/1 cube-by-atom incidence matrix
    sigma_atom: np.ndarray  # (n,) atom masses of sigma
    omega_atom: np.ndarray  # (n,) atom masses of omega
    e: float                # inner power on cube integrals
    t: float                # outer integrability over omega
    s: float                # denominator integrability over sigma
    outer: float = 1.0      # reported value is J ** outer

    def __post_init__(self):
        for name in ("gamma", "incidence", "sigma_atom", "omega_atom"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if self.incidence.shape != (len(self.gamma), self.n_atoms):
            raise ParameterError("one incidence row per cube coefficient is required")

    @property
    def n_atoms(self) -> int:
        return len(self.sigma_atom)

    def _range_sum(self, x: np.ndarray) -> np.ndarray:
        """Per-cube sums of atom rows: (B, n) -> (B, m)."""
        return x @ self.incidence.T

    def _scatter(self, v: np.ndarray) -> np.ndarray:
        """Transpose of _range_sum: add v_Q to every atom of Q: (B, m) -> (B, n)."""
        return v @ self.incidence

    @np.errstate(divide="ignore", invalid="ignore")
    def log_value(self, f: np.ndarray) -> np.ndarray:
        """log J(f) per nonnegative row; -inf on rows where the numerator vanishes."""
        return self._stationarity(np.atleast_2d(f))[0]

    def _forward(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cube integrals F = int_Q f dsigma and the operator image h on atoms."""
        big_f = self._range_sum(f * self.sigma_atom)
        return big_f, self._scatter(self.gamma * _pow0(big_f, self.e))

    def _pullback(self, big_f: np.ndarray, h: np.ndarray) -> np.ndarray:
        """scatter(gamma F^(e-1) range_sum(omega h^(t-1))): the numerator gradient over e sigma."""
        w = self._range_sum(self.omega_atom * _pow0(h, self.t - 1.0, zero=(self.t < 1.0)))
        return self._scatter(self.gamma * _pow0(big_f, self.e - 1.0, zero=(self.e < 1.0)) * w)

    def value(self, f: np.ndarray) -> np.ndarray:
        return np.exp(self.outer * self.log_value(f))

    def log_value_and_grad(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log J, its gradient in u and the pullback g at f = exp(u) (u rows are (B, n))."""
        return self._stationarity(np.exp(u))

    def _stationarity(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log J, its gradient in log f, and g = _pullback at f (rows are (B, n)).

        The gradient is e sigma f (g / sn - f^(s-1) / sd), so it vanishes
        exactly when f^(s-1) is proportional to g.
        """
        big_f, h = self._forward(f)
        sn = np.dot(_pow0(h, self.t), self.omega_atom)
        fs1 = f ** (self.s - 1.0)
        sd = np.dot(fs1 * f, self.sigma_atom)
        logj = np.log(sn) / self.t - (self.e / self.s) * np.log(sd)
        g = self._pullback(big_f, h)
        grad = self.e * self.sigma_atom * f * (g / sn[:, None] - fs1 / sd[:, None])
        return logj, grad, g


def _pow0(x: np.ndarray, p: float, zero: bool = False) -> np.ndarray:
    """x**p with the convention 0**p = 0 for the masked negative-power case."""
    if p == 0.0:
        return np.ones_like(x)
    if p == 1.0:
        return x
    if p < 0.0 or zero:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x > 0.0, x, 1.0) ** p
        return np.where(x > 0.0, out, 0.0)
    return x**p


# A constant start with a positive, finite value is kept when its Collatz-Wielandt
# bound lies within this relative distance above it; otherwise the seeded starts run.
BRACKET_TOL = 1e-6
# The bound is raised by this relative amount to cover the rounding of g and
# of the value, each a few O(n)-term sums: about n 2^-53, 1e-14 at n = 100
# atoms. Without it a one-atom bound, equal to the value, can fall 1 ulp below.
ROUNDING_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class AscentResult:
    value: float
    maximizer: np.ndarray
    iterations: int  # fixed-point passes, a rejected constant start's included
    converged: bool
    residual: float
    restart_values: np.ndarray
    candidate_values: np.ndarray  # one per extra candidate row; -inf where not finite
    from_candidate: bool
    starts: int  # fixed-point starts run, a rejected constant start included
    certified_upper: float | None  # bound on the maximum, on the scale of value
    certified_upper_reason: str | None  # why certified_upper is None


def _bracket_reason(objective: CubeObjective) -> str | None:
    """Why the Collatz-Wielandt bound does not hold for the objective; None when it does.

    The step map f -> g(f)^(1/(s-1)) is homogeneous of degree (e t - 1)/(s - 1)
    and order-preserving when e >= 1 and t >= 1. At degree 1 (e t = s) the
    maximum of J^t is its cone spectral radius, which max_a g_a / f_a^(s-1)
    bounds at every positive f (Lemmens & Nussbaum 2012). t is stored as a
    quotient, so e t is compared with s to 1e-12 relative.
    """
    e, t, s = objective.e, objective.t, objective.s
    if not math.isclose(e * t, s, rel_tol=1e-12):
        return f"e t = {e * t:g} differs from s = {s:g}: the step map is not 1-homogeneous"
    if e < 1.0 or t < 1.0:
        return f"e = {e:g}, t = {t:g}: the step map is order-preserving only when both are >= 1"
    return None


@np.errstate(divide="ignore", invalid="ignore")
def maximize(
    objective: CubeObjective,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
    extra_candidates: np.ndarray | None = None,
) -> AscentResult:
    """Fixed-point iteration from one or more starts plus a sweep of candidate functions.

    Each step sets f <- g^(1/(s-1)) scaled to maximum 1, on the starts whose
    residual max |d log J / d log f| still exceeds tol. The value is the max
    over the endpoints and the candidate rows (e.g. cube indicators), whose
    values are returned as `candidate_values`; `residual` is the largest
    endpoint residual, converged means <= tol.

    Where the Collatz-Wielandt bound holds (`_bracket_reason` is None) and
    restarts >= 1, one start runs: the constant function. It is kept, with
    `certified_upper` = (max_a g_a / f_a^(s-1))^(outer/t) at its endpoint,
    when its value is positive and finite and that bound is finite and
    within BRACKET_TOL of the value. Otherwise,
    as on every other objective, `restarts` starts are drawn per atom
    log-uniformly from [1e-3, 1e3] with a seeded generator, so identical
    (seed, opts) reproduce bitwise; `certified_upper` is then None and
    `certified_upper_reason` says why. `iterations` counts the passes of both
    phases, a rejected constant start included. restarts = 0 sweeps the
    candidates only.
    """
    if not objective.s > 1.0:
        raise ParameterError(f"the fixed-point step needs s > 1, got {objective.s}")
    reason = _bracket_reason(objective)
    if reason is None and restarts == 0:
        reason = "restarts = 0: no start was run"
    starts, iterations = 0, 0  # of a rejected constant start
    if reason is None:
        single = _solve(objective, np.ones((1, objective.n_atoms)), max_iters, tol,
                        extra_candidates, certify=True)
        if single.certified_upper is not None:
            return single
        reason, starts, iterations = single.certified_upper_reason, single.starts, single.iterations
    rng = np.random.default_rng(seed)
    f = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(restarts, objective.n_atoms)))
    res = _solve(objective, f, max_iters, tol, extra_candidates, certify=False)
    return replace(res, starts=res.starts + starts, iterations=res.iterations + iterations,
                   certified_upper_reason=reason)


def _solve(
    objective: CubeObjective,
    f: np.ndarray,
    max_iters: int,
    tol: float,
    extra_candidates: np.ndarray | None,
    certify: bool,
) -> AscentResult:
    """Iterate the starts f (rows, updated in place), certify and sweep the candidates.

    With certify, the Collatz-Wielandt bound is taken from the pullback g of
    the endpoint certificate call; the caller has checked that it holds.
    """
    power = 1.0 / (objective.s - 1.0)
    moving = np.arange(len(f))
    iterations = 0
    while len(moving) and iterations < max_iters:
        iterations += 1
        _, grad, g = objective._stationarity(f[moving])
        still = np.max(np.abs(grad), axis=1) > tol
        moving, g = moving[still], g[still]
        f[moving] = (g / g.max(axis=1, keepdims=True)) ** power

    u = np.log(f)
    logj, grad, g = objective.log_value_and_grad(u)
    residual = float(np.max(np.abs(grad), initial=0.0))
    # The endpoints and the candidates are valued as two batches: BLAS may
    # round a row differently with other rows beside it, and a candidate's
    # value must not depend on the restarts (see indicator_lower_bound).
    rows, vals = [f], [objective.value(f)]
    if extra_candidates is not None and len(extra_candidates):
        rows.append(np.atleast_2d(np.asarray(extra_candidates, dtype=float)))
        vals.append(objective.value(rows[-1]))
    allf = np.concatenate(rows, axis=0)
    vals = np.concatenate(vals)
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
        restart_values=np.exp(objective.outer * logj),
        candidate_values=vals[len(f):],
        from_candidate=best >= len(f),
        starts=len(f),
        certified_upper=upper,
        certified_upper_reason=reason,
    )
