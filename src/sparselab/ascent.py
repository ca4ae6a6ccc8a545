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
cube-by-atom incidence matrix I, which the objective takes from the
family's compiled geometry (see dyadic.FamilyGeometry). The objective's
`candidates` are its rows (the cube indicators), then the constant function.

`CubeObjective` compiles its step once, on first use, and keeps it for its
own lifetime, with its exponents bound at construction (a power of 1
returns its argument, and F^(e-1) is skipped at e = 1). sigma, gamma and
omega never change within a solve, so they are folded into the products:
- two-stage form (any e): F = f @ diag(sigma) I^T, h = F^e @ diag(gamma) I,
  and g = (F^(e-1) (h^(t-1) @ diag(omega) I^T)) @ diag(gamma) I;
- one-stage form (e = 1 and n <= 2m, for m cubes and n atoms): the
  atom-by-atom kernels H = diag(sigma) A and W = diag(omega) A of
  A = I^T diag(gamma) I give h = f @ H and g = h^(t-1) @ W.
A pass over B rows costs 2 B n^2 flops in one stage and 4 B m n in two, so
the shape alone picks the form. On these matrices the forward piece gives
F and h, then sn = sum omega h^t and sd = sum sigma f^s, hence
log J = log(sn)/t - (e/s) log(sd); the pullback piece gives g, then the
gradient. Value sweeps (`value`, `log_value`) run the forward piece alone;
`log_value_and_grad`, the endpoint certificate, runs both and also gives
the endpoint values. A step needs g alone, so the fixed-point loop tests
stationarity only on every RESIDUAL_EVERY-th pass: there it runs both
pieces without log J (`_step`), which returns which starts still move and
g; the passes in between run the g-only pass, the same products the full
pass runs. The floating-point operations, their order and the row batches
are those of a single pass computing log J, g and the gradient on the
compiled matrices on every step, so every value is bitwise what that pass
gives under the same schedule (tests/test_ascent_kernel.py keeps it as the
reference, and the incidence form, with the weights applied apart, as an
oracle that the compiled matrices match to the last bits).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError, finite_nonnegative, integer


class _StepMaps(NamedTuple):
    image: Callable  # f -> (F or None, h)
    pull: Callable  # (F, h) -> g
    g_pass: Callable  # f -> g, the pass that needs g alone


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
        # the step map and the Collatz-Wielandt bound assume nonnegative
        # coefficients and masses, and the compiled step bakes them in
        for name in ("gamma", "sigma_atom", "omega_atom"):
            finite_nonnegative(getattr(self, name), name)
        # s <= 1 stays legal for the value sweeps; maximize itself needs s > 1
        for name in ("e", "t", "s"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ParameterError(f"{name} must be finite and positive, got {val}")
        # Bound once per objective: each power, x itself at exponent 1.
        bind = partial(object.__setattr__, self)
        bind("_pow_e", _power(self.e))
        bind("_pow_t", _power(self.t))
        bind("_pow_s1", _power(self.s - 1.0))
        bind("_pow_t1", _power(self.t - 1.0))
        # at e = 1, F^(e-1) is 1: the pullback takes w itself, as 1 * w is w to the bit
        bind("_pow_e1", None if self.e == 1.0 else _power(self.e - 1.0))
        bind("_e_sigma", self.e * self.sigma_atom)
        # A pass costs 2 B n^2 flops in the one-stage form and 4 B m n in the
        # two-stage form (B rows, m cubes, n atoms); the one-stage form needs e = 1.
        bind("_one_stage", self.e == 1.0 and self.n_atoms <= 2 * len(self.gamma))

    @property
    def n_atoms(self) -> int:
        return len(self.sigma_atom)

    @property
    def candidates(self) -> np.ndarray:
        """The cube indicators (the incidence rows), then the constant function."""
        return np.concatenate([self.incidence, np.ones((1, self.n_atoms))])

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, ...]:
        """The step's matrices, composed on first use and kept for the objective's lifetime.

        With I the incidence: in the one-stage form, the atom-by-atom kernels
        H = diag(sigma) A and W = diag(omega) A of A = I^T diag(gamma) I; in
        the two-stage form, diag(sigma) I^T, diag(gamma) I and diag(omega) I^T.
        """
        inc, inc_t = self.incidence, self.incidence.T
        if self._one_stage:
            kernel = inc_t @ (self.gamma[:, None] * inc)
            return self.sigma_atom[:, None] * kernel, self.omega_atom[:, None] * kernel
        return (self.sigma_atom[:, None] * inc_t, self.gamma[:, None] * inc,
                self.omega_atom[:, None] * inc_t)

    @cached_property
    def _step_maps(self) -> _StepMaps:
        """The maps of a pass on the compiled matrices, bound on first use.

        image(f) gives F = int_Q f dsigma, the cube integrals at rows f
        ((B, n) -> (B, m)), and h, the operator image on atoms; the one-stage
        form, h = f @ H, never forms F and gives None for it. pull(F, h)
        gives g = scatter(gamma F^(e-1) range_sum(omega h^(t-1))): h^(t-1) @ W
        in one stage; in two, w = h^(t-1) @ diag(omega) I^T sums per cube and
        (F^(e-1) w) @ diag(gamma) I adds each cube's term to its atoms.
        g_pass(f) is pull(*image(f)), the pass that needs g alone.
        """
        pow_e, pow_t1, pow_e1 = self._pow_e, self._pow_t1, self._pow_e1
        dot = np.dot  # for 2-D arrays the same BLAS product as @, with less call overhead
        if self._one_stage:
            kernel_h, kernel_w = self._matrices

            def image(f):
                return None, dot(f, kernel_h)

            def pull(big_f, h):
                return dot(pow_t1(h), kernel_w)

            def g_pass(f):
                return dot(pow_t1(dot(f, kernel_h)), kernel_w)

            return _StepMaps(image, pull, g_pass)
        sigma_t, gamma_i, omega_t = self._matrices

        def image(f):
            big_f = dot(f, sigma_t)
            return big_f, dot(pow_e(big_f), gamma_i)

        def pull(big_f, h):
            w = dot(pow_t1(h), omega_t)
            return dot(w if pow_e1 is None else pow_e1(big_f) * w, gamma_i)

        def g_pass(f):
            return pull(*image(f))

        return _StepMaps(image, pull, g_pass)

    def _forward(self, f: np.ndarray) -> tuple:
        """The forward piece at rows f: F, h, f^(s-1), sn and sd.

        sn = sum omega h^t and sd = sum sigma f^s give log J.
        """
        big_f, h = self._step_maps.image(f)
        sn = np.dot(self._pow_t(h), self.omega_atom)
        fs1 = self._pow_s1(f)
        sd = np.dot(fs1 * f, self.sigma_atom)
        return big_f, h, fs1, sn, sd

    def _log_j(self, sn: np.ndarray, sd: np.ndarray) -> np.ndarray:
        return np.log(sn) / self.t - (self.e / self.s) * np.log(sd)

    def _pullback(self, f, big_f, h, fs1, sn, sd) -> tuple[np.ndarray, np.ndarray]:
        """The pullback piece: the gradient of log J in log f, and g.

        The gradient is e sigma f (g / sn - f^(s-1) / sd), so it vanishes
        exactly when f^(s-1) is proportional to g.
        """
        g = self._step_maps.pull(big_f, h)
        grad = self._e_sigma * f * (g / sn[:, None] - fs1 / sd[:, None])
        return grad, g

    @np.errstate(divide="ignore", invalid="ignore")
    def log_value(self, f: np.ndarray) -> np.ndarray:
        """log J(f) per nonnegative row; -inf on rows where the numerator vanishes."""
        *_, sn, sd = self._forward(np.atleast_2d(f))
        return self._log_j(sn, sd)

    def value(self, f: np.ndarray) -> np.ndarray:
        return np.exp(self.outer * self.log_value(f))

    def log_value_and_grad(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log J, its gradient in u and the pullback g at f = exp(u) (u rows are (B, n))."""
        f = np.exp(u)
        fwd = self._forward(f)
        grad, g = self._pullback(f, *fwd)
        return self._log_j(fwd[3], fwd[4]), grad, g

    def _step(self, f: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Both pieces without log J: which rows of f still move (residual > tol), and g."""
        grad, g = self._pullback(f, *self._forward(f))
        return np.maximum.reduce(np.abs(grad), axis=1) > tol, g


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _power(p: float):
    """The map x -> x**p, bound once: x itself at p = 1, ones at p = 0.

    Negative powers (t - 1 at t < 1, e - 1 at e < 1) take the convention 0**p = 0.
    """
    if p == 0.0:
        return np.ones_like
    if p == 1.0:
        return _identity
    if p < 0.0:
        def masked_power(x: np.ndarray) -> np.ndarray:
            positive = x > 0.0
            return np.where(positive, np.where(positive, x, 1.0) ** p, 0.0)
        return masked_power
    return lambda x: x**p


# A constant start with a positive, finite value is kept when its Collatz-Wielandt
# bound lies within this relative distance above it; otherwise the seeded starts run.
BRACKET_TOL = 1e-6
# The bound is raised by this relative amount to cover the rounding of g and
# of the value, each a few O(n)-term sums: about n 2^-53, 1e-14 at n = 100
# atoms. Without it a one-atom bound, equal to the value, can fall 1 ulp below.
ROUNDING_SLACK = 1e-12
# The fixed-point loop tests stationarity, and stops starts, on every this-many-th
# pass; the passes in between compute g alone, at about half a full pass's cost.
# A start runs up to RESIDUAL_EVERY - 1 passes past its first stationary one. On
# the 60-instance opnorm and lsu-local rounds of the compiled step (median whole
# round over 21 runs; 2-core Xeon, numpy 2.4, OpenBLAS), 1, 2, 4 and 8 take
# 1,712, 1,742, 1,800 and 1,952 opnorm passes in 69.1, 57.4, 51.4 and 49.4 ms
# (lsu-local: 1,257, 1,280, 1,360 and 1,456 passes in 51.0, 43.3, 39.5 and
# 37.3 ms). 4 keeps most of the gain of 8 at under half its extra passes and
# moves a solver value of the four solver suites by at most 1.7e-11 relative.
RESIDUAL_EVERY = 4


@dataclass(frozen=True, eq=False)
class AscentResult:
    value: float
    maximizer: np.ndarray
    iterations: int  # fixed-point passes, g-only ones and a rejected constant start's included
    converged: bool
    residual: float
    restart_values: np.ndarray
    candidate_values: np.ndarray  # one per objective candidate row; -inf where not finite
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
) -> AscentResult:
    """Fixed-point iteration from one or more starts plus a sweep of the objective's candidates.

    The one solver entry and the only holder of the solver defaults. Each
    step sets f <- g^(1/(s-1)) scaled to maximum 1 on the starts still
    moving; every RESIDUAL_EVERY-th step first stops the starts whose
    residual max |d log J / d log f| is within tol. The value is the max
    over the endpoints and `objective.candidates` (the cube indicators, then
    the constant function), whose values are returned as `candidate_values`;
    `residual` is the largest endpoint residual, converged means <= tol.

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
    candidates only. A restarts, max_iters or seed that is not an integer
    >= 0 (a bool is not one), and a tol that is not a real number (a bool is
    not one), finite and positive, raise ParameterError on every objective.
    """
    if not objective.s > 1.0:
        raise ParameterError(f"the fixed-point step needs s > 1, got {objective.s}")
    for name, val in (("restarts", restarts), ("max_iters", max_iters), ("seed", seed)):
        if integer(val, name) < 0:
            raise ParameterError(f"{name} must be >= 0, got {val!r}")
    real = not isinstance(tol, bool) and isinstance(tol, numbers.Real)
    if not (real and math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be a finite positive real, not a bool, got {tol!r}")
    reason = _bracket_reason(objective)
    if reason is None and restarts == 0:
        reason = "restarts = 0: no start was run"
    starts, iterations = 0, 0  # of a rejected constant start
    if reason is None:
        single = _solve(objective, np.ones((1, objective.n_atoms)), max_iters, tol, certify=True)
        if single.certified_upper is not None:
            return single
        reason, starts, iterations = single.certified_upper_reason, single.starts, single.iterations
    rng = np.random.default_rng(seed)
    f = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(restarts, objective.n_atoms)))
    res = _solve(objective, f, max_iters, tol, certify=False)
    return replace(res, starts=res.starts + starts, iterations=res.iterations + iterations,
                   certified_upper_reason=reason)


def _solve(
    objective: CubeObjective,
    f: np.ndarray,
    max_iters: int,
    tol: float,
    certify: bool,
) -> AscentResult:
    """Iterate the starts f (rows, updated in place), certify and sweep `objective.candidates`.

    With certify, the Collatz-Wielandt bound is taken from the pullback g of
    the endpoint certificate call; the caller has checked that it holds.
    """
    power = _power(1.0 / (objective.s - 1.0))
    # The moving rows are stepped as one batch, f_moving, in the order of
    # `moving` (BLAS may round a row differently in another batch, see below).
    # Only every RESIDUAL_EVERY-th pass tests stationarity; a start stops on
    # the first such pass whose residual is within tol, and the passes in
    # between step on g alone. A row goes back into f when its start stops or
    # the loop ends, so a step that stops no start gathers and scatters nothing.
    g_pass = objective._step_maps.g_pass
    moving = np.arange(len(f))
    f_moving = f
    iterations = 0
    while len(moving) and iterations < max_iters:
        iterations += 1
        if iterations % RESIDUAL_EVERY:
            g = g_pass(f_moving)
        else:
            still, g = objective._step(f_moving, tol)
            if np.count_nonzero(still) < len(still):
                stopped = ~still
                f[moving[stopped]] = f_moving[stopped]
                moving, g = moving[still], g[still]
        g /= np.maximum.reduce(g, axis=1, keepdims=True)
        f_moving = power(g)
    f[moving] = f_moving

    # The endpoint certificate, the public log_value_and_grad at u = log f,
    # also gives the endpoint values. The endpoints and the candidates are
    # valued as two batches: BLAS may round a row differently with other rows
    # beside it, and a candidate's value must not depend on the restarts (see
    # indicator_lower_bound).
    u = np.log(f)
    logj, grad, g = objective.log_value_and_grad(u)
    residual = float(np.abs(grad).max(initial=0.0))
    restart_values = np.exp(objective.outer * logj)
    candidates = objective.candidates
    vals = np.concatenate([restart_values, objective.value(candidates)])
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    best = int(vals.argmax())
    maximizer = f[best] if best < len(f) else candidates[best - len(f)]
    peak = maximizer.max()
    if peak > 0.0:
        maximizer = maximizer / peak
    value = float(vals[best])
    upper, reason = None, None
    if certify:
        ratio = (g / np.exp(u) ** (objective.s - 1.0)).max()
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
