"""Batched multiplicative gradient ascent for cube-sum Rayleigh quotients.

Every operator-norm style maximization in this package has the shape

    J(f) = || sum_Q gamma_Q (int_Q f dsigma)^e 1_Q ||_{L^t_omega}
           / ||f||_{L^s_sigma}^e

over nonnegative atom functions f, reported as J^outer. The quotient is
smooth and scale-free on the open positive cone, so iterates are kept
strictly positive through the parametrization f = exp(u) and updated by
gradient steps in u with backtracking (halve until improvement, regrow on
success). Quasi-norm regimes t < 1 or s < 1 use the same formulas; no
triangle inequality is assumed anywhere.

Because every cube of a sparse family is a contiguous run of partition
atoms, cube sums and their transposes are products with the 0/1
cube-by-atom incidence matrix, which the objective takes from the
family's compiled geometry (see dyadic.FamilyGeometry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_UCAP = 40.0  # |u| cap; keeps every intermediate power inside float64 range


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

    def log_value(self, f: np.ndarray) -> np.ndarray:
        """log J(f) per row; -inf on rows where the numerator vanishes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._log_value(np.atleast_2d(f))

    def _log_value(self, f: np.ndarray) -> np.ndarray:
        """log_value for (B, n) rows, without the floating-point error context."""
        big_f = self._range_sum(f * self.sigma_atom)
        h = self._scatter(self.gamma * _pow0(big_f, self.e))
        sn = np.dot(_pow0(h, self.t), self.omega_atom)
        sd = np.dot(np.abs(f) ** self.s, self.sigma_atom)
        return np.log(sn) / self.t - (self.e / self.s) * np.log(sd)

    def value(self, f: np.ndarray) -> np.ndarray:
        return np.exp(self.outer * self.log_value(f))

    def log_value_and_grad(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log J and its gradient in u at f = exp(u) (u rows are (B, n))."""
        f = np.exp(u)
        fs = f * self.sigma_atom
        big_f = self._range_sum(fs)
        fe = self.gamma * _pow0(big_f, self.e)
        h = self._scatter(fe)
        ht = _pow0(h, self.t)
        sn = np.dot(ht, self.omega_atom)
        sd = np.dot(f**self.s, self.sigma_atom)
        logj = np.log(sn) / self.t - (self.e / self.s) * np.log(sd)

        hw = self.omega_atom * _pow0(h, self.t - 1.0, zero=(self.t < 1.0))
        w = self._range_sum(hw)
        z = self.e * self.gamma * _pow0(big_f, self.e - 1.0, zero=(self.e < 1.0)) * w
        grad_n = self.sigma_atom * self._scatter(z) / sn[:, None]
        grad_d = self.e * self.sigma_atom * f ** (self.s - 1.0) / sd[:, None]
        return logj, f * (grad_n - grad_d)


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


def _clip(u: np.ndarray) -> np.ndarray:
    """u clipped to [-_UCAP, _UCAP] (two ufuncs; np.clip has a slow wrapper)."""
    return np.minimum(np.maximum(u, -_UCAP), _UCAP)


@dataclass(frozen=True, eq=False)
class AscentResult:
    value: float
    maximizer: np.ndarray
    iterations: int
    converged: bool
    restart_values: np.ndarray
    from_candidate: bool


@np.errstate(divide="ignore", invalid="ignore")
def maximize(
    objective: CubeObjective,
    restarts: int = 16,
    max_iters: int = 5000,
    tol: float = 1e-8,
    seed: int = 0,
    extra_candidates: np.ndarray | None = None,
) -> AscentResult:
    """Multi-start ascent plus a deterministic sweep of candidate functions.

    Starting points are drawn per atom log-uniformly from [1e-3, 1e3] with
    a seeded generator, so identical (seed, opts) reproduce bitwise. The
    returned value is the max over all converged restarts and the supplied
    candidate rows (e.g. cube indicators), guaranteeing the result never
    falls below the best candidate.
    """
    n = objective.n_atoms
    rng = np.random.default_rng(seed)
    u = rng.uniform(np.log(1e-3), np.log(1e3), size=(restarts, n))
    step = np.ones(restarts)
    converged = np.zeros(restarts, dtype=bool)
    iterations = 0
    logj = np.full(restarts, -np.inf)
    for it in range(max_iters):
        iterations = it + 1
        logj, grad = objective.log_value_and_grad(u)
        active = ~converged & np.isfinite(logj)
        if not np.count_nonzero(active):
            break
        u_try = _clip(u + step[:, None] * grad)
        lj_try = objective._log_value(np.exp(u_try))
        for _ in range(60):
            stuck = active & ~(lj_try > logj) & (step > 1e-15)
            if not np.count_nonzero(stuck):
                break
            step[stuck] *= 0.5
            u_try[stuck] = _clip(u[stuck] + step[stuck, None] * grad[stuck])
            lj_try[stuck] = objective._log_value(np.exp(u_try[stuck]))
        improved = active & (lj_try > logj)
        delta = np.where(improved, lj_try - logj, 0.0)
        u = np.where(improved[:, None], u_try, u)
        u -= u.sum(axis=1, keepdims=True) / n
        step = np.where(improved, np.minimum(step * 2.0, 1e6), step)
        logj = np.where(improved, lj_try, logj)
        converged |= active & (~improved | (delta < tol))
        if np.count_nonzero(converged) == restarts:
            break

    final_f = np.exp(u)
    rows = [final_f]
    if extra_candidates is not None and len(extra_candidates):
        rows.append(np.atleast_2d(np.asarray(extra_candidates, dtype=float)))
    allf = np.concatenate(rows, axis=0)
    vals = objective.value(allf)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    best = int(np.argmax(vals))
    maximizer = allf[best]
    peak = maximizer.max()
    if peak > 0.0:
        maximizer = maximizer / peak
    return AscentResult(
        value=float(vals[best]),
        maximizer=maximizer,
        iterations=iterations,
        converged=bool(converged.all()),
        restart_values=np.exp(objective.outer * logj),
        from_candidate=best >= restarts,
    )
