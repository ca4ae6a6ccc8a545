"""Weights on the unit interval and their characteristic constants.

A weight is a nonnegative density with exactly computable interval masses.
Two representations cover everything in scope: pure powers c|x|^beta
anchored at the origin, and piecewise-constant densities on a uniform
dyadic grid. Characteristic suprema are taken over declared finite dyadic
test sets and the test set is recorded in every report, so reported values
are exact maxima of what was actually scanned, never estimates of a
continuous supremum. The Fujii-Wilson constant uses the depth-truncated
dyadic maximal function and is therefore flagged as a lower estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .dyadic import ROOT, DyadicInterval, SparseFamily, uniform_partition
from .errors import DegenerateInstanceError, ParameterError
from .functions import StepFunction


@dataclass(frozen=True)
class PowerWeight:
    """Density coeff * x^beta on [0, 1); beta > -1 keeps every mass finite."""

    beta: float
    coeff: float = 1.0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ParameterError(f"power exponent must exceed -1, got {self.beta}")
        if not self.coeff > 0.0:
            raise ParameterError("power weight coefficient must be positive")

    def mass(self, interval: DyadicInterval) -> float:
        # For m = position > 0, right^e - left^e = left^e * expm1(e * log1p(1/m))
        # avoids the cancellation of the plain difference at deep levels. The
        # plain difference is exact for e = 1 (dyadic endpoints) and for m = 0.
        e = self.beta + 1.0
        m = interval.position
        if m == 0 or e == 1.0:
            diff = interval.right**e - interval.left**e
        else:
            diff = interval.left**e * math.expm1(e * math.log1p(1.0 / m))
        return self.coeff * diff / e

    def grid_masses(self, base: DyadicInterval, levels_down: int) -> np.ndarray:
        """Masses of the 2^levels_down descendants of base, left to right."""
        lvl = base.level + levels_down
        pos = (base.position << levels_down) + np.arange(1 << levels_down)
        left = np.ldexp(pos.astype(float), -lvl)
        right = np.ldexp((pos + 1).astype(float), -lvl)
        e = self.beta + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = left**e * np.expm1(e * np.log1p(1.0 / pos))
        diff = np.where((pos == 0) | (e == 1.0), right**e - left**e, diff)
        return self.coeff * diff / e

    def pow(self, exponent: float) -> "PowerWeight":
        return PowerWeight(self.beta * exponent, self.coeff**exponent)

    def scaled(self, c: float) -> "PowerWeight":
        return PowerWeight(self.beta, self.coeff * c)


LEBESGUE = PowerWeight(0.0)


@dataclass(frozen=True, eq=False)
class PiecewiseWeight:
    """Nonnegative density constant on each depth-`depth` atom of [0, 1)."""

    depth: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.depth < 0:
            raise ParameterError("piecewise depth must be >= 0")
        if vals.shape != (1 << self.depth,):
            raise ParameterError(
                f"piecewise weight at depth {self.depth} needs {1 << self.depth} values"
            )
        if np.any(vals < 0):
            raise ParameterError("weight densities must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def mass(self, interval: DyadicInterval) -> float:
        # a correctly rounded sum of the covered cells, not a prefix-sum difference
        if interval.level <= self.depth:
            lo, hi = interval.ticks(self.depth)
            return math.fsum(self.values[lo:hi].tolist()) * math.ldexp(1.0, -self.depth)
        cell = interval.position >> (interval.level - self.depth)
        return float(self.values[cell]) * interval.length

    def grid_masses(self, base: DyadicInterval, levels_down: int) -> np.ndarray:
        lvl = base.level + levels_down
        n = 1 << levels_down
        first = base.position << levels_down
        if lvl <= self.depth:
            shift = self.depth - lvl
            cells = self.values[first << shift : (first + n) << shift]
            return np.add.reduceat(cells, np.arange(n) << shift) * math.ldexp(1.0, -self.depth)
        cells = (np.arange(n) + first) >> (lvl - self.depth)
        return self.values[cells] * math.ldexp(1.0, -lvl)

    def pow(self, exponent: float) -> "PiecewiseWeight":
        if exponent < 0 and np.any(self.values == 0.0):
            raise ParameterError("negative power of a weight that vanishes on an atom")
        return PiecewiseWeight(self.depth, self.values**exponent)

    def scaled(self, c: float) -> "PiecewiseWeight":
        return PiecewiseWeight(self.depth, self.values * c)


Weight = Union[PowerWeight, PiecewiseWeight]


def mass(w: Weight, interval: DyadicInterval) -> float:
    return w.mass(interval)


def _product_mass(f: Weight, g: Weight, interval: DyadicInterval) -> float:
    """Exact integral of the product density f*g over a dyadic interval."""
    if isinstance(f, PowerWeight) and isinstance(g, PowerWeight):
        return PowerWeight(f.beta + g.beta, f.coeff * g.coeff).mass(interval)
    depths = [w.depth for w in (f, g) if isinstance(w, PiecewiseWeight)]
    down = max(max(depths) - interval.level, 0)
    fm = f.grid_masses(interval, down)
    gm = g.grid_masses(interval, down)
    cell = math.ldexp(1.0, -(interval.level + down))
    # On each cell at least one factor is constant, so mass*mass/length is exact.
    return float(np.dot(fm, gm)) / cell


def average(w, interval: DyadicInterval, base: Weight = LEBESGUE) -> float:
    """Base-weighted average of w over the interval.

    With the default Lebesgue base this is mass(w, I)/|I|; for a general
    base it is the base-measure average of the density w.
    """
    denom = base.mass(interval)
    if denom <= 0.0:
        raise DegenerateInstanceError(f"zero base mass on {interval}")
    if isinstance(base, PowerWeight) and base.beta == 0.0:
        return w.mass(interval) / denom
    return _product_mass(w, base, interval) / denom


def weighted_integral(f, w: Weight, interval: DyadicInterval) -> float:
    """Exact integral of f against the measure w dx over a dyadic interval.

    f may be a Weight density (analytic power or piecewise) or a
    StepFunction; intervals finer than a step function's atoms see the
    constant atom value.
    """
    if isinstance(f, StepFunction):
        part = f.partition
        try:
            i0, i1 = part.atom_range(interval)
        except ParameterError:
            return float(f.values[part.locate(interval)]) * w.mass(interval)
        return math.fsum(
            float(f.values[i]) * w.mass(part.atoms[i]) for i in range(i0, i1)
        )
    return _product_mass(f, w, interval)


def weighted_average(f, w: Weight, interval: DyadicInterval) -> float:
    """<f>_I^w = w(I)^{-1} * integral of f dw."""
    denom = w.mass(interval)
    if denom <= 0.0:
        raise DegenerateInstanceError(f"zero mass on {interval}")
    return weighted_integral(f, w, interval) / denom


def dyadic_maximal(w: Weight, top: DyadicInterval, depth: int) -> StepFunction:
    """Maximal ancestor average max_{a <= Q' <= top} <w>_{Q'} per depth atom.

    `depth` is absolute: atoms live at that level, so depth >= top.level.
    """
    if depth < top.level:
        raise ParameterError("maximal-function depth is coarser than the interval")
    down = depth - top.level
    best = None
    for k in range(down + 1):
        avgs = w.grid_masses(top, k) * math.ldexp(1.0, top.level + k)
        tiled = np.repeat(avgs, 1 << (down - k))
        best = tiled if best is None else np.maximum(best, tiled)
    return StepFunction(uniform_partition(top, down), best, nonneg=True)


@dataclass(frozen=True)
class CharacteristicReport:
    value: float
    attained_at: Optional[DyadicInterval]
    test_set: str
    note: str = ""


def ainfty(w: Weight, root: DyadicInterval = ROOT, depth: int = 10) -> CharacteristicReport:
    """Fujii-Wilson constant sup_Q mass(w,Q)^{-1} int_Q M(1_Q w) over dyadic Q.

    The maximal function is dyadic and truncated at `depth`, so the result
    is a lower estimate of the continuous characteristic. It is exact for
    the finite test set scanned, >= 1, and nondecreasing in depth.
    """
    if w.mass(root) <= 0.0:
        raise DegenerateInstanceError("weight has zero mass on the root")
    down = depth - root.level
    if down < 0:
        raise ParameterError("depth is coarser than the root interval")
    level_masses = [w.grid_masses(root, k) for k in range(down + 1)]
    best_val = 1.0
    best_q = root
    # running[a] = max average over ancestors of atom a up to the current level
    running = level_masses[down] * math.ldexp(1.0, depth)
    for k in range(down, -1, -1):
        width = 1 << (down - k)
        if k < down:
            avgs = level_masses[k] * math.ldexp(1.0, root.level + k)
            running = np.maximum(np.repeat(avgs, width), running)
        integrals = running.reshape(-1, width).sum(axis=1) * math.ldexp(1.0, -depth)
        masses_k = level_masses[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(masses_k > 0.0, integrals / masses_k, 0.0)
        j = int(np.argmax(ratios))
        if ratios[j] > best_val:
            best_val = float(ratios[j])
            best_q = DyadicInterval(root.level + k, (root.position << k) + j)
    return CharacteristicReport(
        value=best_val,
        attained_at=best_q,
        test_set=f"dyadic subintervals of {root} to depth {depth}",
        note="dyadic truncated maximal function; lower estimate",
    )


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent tuple (p, q, r, alpha) with 1 < p <= q, r > 0, 0 < alpha <= 1."""

    p: float
    q: float
    r: float
    alpha: float

    def __post_init__(self):
        if not 1.0 < self.p <= self.q:
            raise ParameterError(f"need 1 < p <= q, got p={self.p}, q={self.q}")
        if not self.r > 0.0:
            raise ParameterError(f"need r > 0, got r={self.r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError(f"need 0 < alpha <= 1, got alpha={self.alpha}")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def outer_conj(self) -> float:
        """Conjugate of p/r, defined only when p > r."""
        if not self.p > self.r:
            raise ParameterError("p/r conjugate needs p > r")
        s = self.p / self.r
        return s / (s - 1.0)


def two_weight_char(
    omega: Weight, sigma: Weight, cfg: ExponentConfig, family: SparseFamily
) -> CharacteristicReport:
    """sup over family members of |Q|^{-alpha} omega(Q)^{1/q} sigma(Q)^{1/p'}."""
    best_val = -1.0
    best_q = None
    for q_int in family.members:
        val = (
            q_int.length ** (-cfg.alpha)
            * omega.mass(q_int) ** (1.0 / cfg.q)
            * sigma.mass(q_int) ** (1.0 / cfg.p_conj)
        )
        if val > best_val:
            best_val = val
            best_q = q_int
    return CharacteristicReport(
        value=best_val,
        attained_at=best_q,
        test_set=f"declared family of {len(family)} intervals",
    )


def _dyadic_test_set(depth: int) -> list[DyadicInterval]:
    out = []
    for k in range(depth + 1):
        out.extend(DyadicInterval(k, m) for m in range(1 << k))
    return out


def one_weight_apq(
    w: Weight,
    p: float,
    q: float,
    test_set: Optional[Iterable[DyadicInterval]] = None,
    depth: int = 12,
) -> CharacteristicReport:
    """sup_Q <w^q>_Q (<w^{-p'}>_Q)^{q/p'} over a dyadic test set.

    Default test set: every dyadic interval to the given depth (this
    includes the origin-anchored chain that drives all the power-weight
    asymptotics in scope).
    """
    if not p > 1.0:
        raise ParameterError("need p > 1")
    p_conj = p / (p - 1.0)
    wq = w.pow(q)
    wmp = w.pow(-p_conj)
    if isinstance(w, PowerWeight):
        if not (w.beta * q > -1.0 and -w.beta * p_conj > -1.0):
            raise ParameterError(
                f"power weight exponent {w.beta} not integrable for (p, q)=({p}, {q})"
            )
    intervals = list(test_set) if test_set is not None else _dyadic_test_set(depth)
    descriptor = (
        "caller-provided test set"
        if test_set is not None
        else f"all dyadic intervals to depth {depth}"
    )
    best_val = -1.0
    best_q = None
    for q_int in intervals:
        val = average(wq, q_int) * average(wmp, q_int) ** (q / p_conj)
        if val > best_val:
            best_val = val
            best_q = q_int
    return CharacteristicReport(value=best_val, attained_at=best_q, test_set=descriptor)


def classical_ap(
    omega: Weight,
    sigma: Weight,
    p: float,
    test_set: Union[SparseFamily, Iterable[DyadicInterval]],
) -> float:
    """sup_Q |Q|^{-p} omega(Q) sigma(Q)^{p-1} over the given intervals."""
    intervals = test_set.members if isinstance(test_set, SparseFamily) else test_set
    best = -1.0
    for q_int in intervals:
        val = (
            q_int.length ** (-p)
            * omega.mass(q_int)
            * sigma.mass(q_int) ** (p - 1.0)
        )
        best = max(best, val)
    return best


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    defect: float
    sobolev_line: bool
    diagonal_required: bool
    q_range: tuple[float, float]
    diagnostic: str


def feasibility(cfg: ExponentConfig, tol: float = 1e-12) -> FeasibilityReport:
    """Whether the exponent region -alpha + 1/q + 1/p' >= 0 is met.

    Also reports the Sobolev case (equality, alpha = 1 + 1/q - 1/p) and the
    admissible q-range [p, p/(p(alpha-1)+1)] when alpha > 1/p'.
    """
    defect = -cfg.alpha + 1.0 / cfg.q + 1.0 / cfg.p_conj
    feasible = defect >= -tol
    sobolev = abs(defect) <= tol
    diagonal = abs(cfg.alpha - 1.0) <= tol
    if cfg.alpha > 1.0 / cfg.p_conj + tol:
        q_hi = cfg.p / (cfg.p * (cfg.alpha - 1.0) + 1.0)
        q_range = (cfg.p, q_hi)
    else:
        q_range = (cfg.p, math.inf)
    if not feasible:
        diag = "infeasible: -alpha + 1/q + 1/p' < 0"
        if diagonal:
            diag += " (alpha = 1 forces p = q)"
    elif sobolev:
        diag = "feasible, on the Sobolev line alpha = 1 + 1/q - 1/p"
    else:
        diag = "feasible, strict inequality"
    return FeasibilityReport(
        feasible=feasible,
        defect=defect,
        sobolev_line=sobolev,
        diagonal_required=diagonal,
        q_range=q_range,
        diagnostic=diag,
    )
