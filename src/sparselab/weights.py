"""Weights on the unit interval and their characteristic constants.

A weight is a nonnegative density with exactly computable interval masses.
Two representations cover everything in scope: pure powers c|x|^beta
anchored at the origin, and piecewise-constant densities on a uniform
dyadic grid. Each class has one array kernel, `masses(levels, positions)`,
that every mass in the package goes through; `mass` and `grid_masses` are
one-line wrappers over it, and `product_masses` computes the masses of a
product density from the kernels of its factors. Every subtree scan reads
`dyadic.scan_layout` and every grid `dyadic.grid_arrays`, under their one
depth rule. Characteristic suprema are taken over declared finite,
nonempty dyadic test sets and the test set is recorded in every report, so
reported values are exact maxima of what was actually scanned, never
estimates of a continuous supremum. The Fujii-Wilson constant uses the
depth-truncated dyadic maximal function and is therefore flagged as a
lower estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .dyadic import (
    ROOT,
    DyadicInterval,
    SparseFamily,
    _allocating,
    family_geometry,
    grid_arrays,
    interval_arrays,
    scan_layout,
    uniform_partition,
)
from .errors import DegenerateInstanceError, ParameterError, finite_exponent, finite_nonnegative
from .errors import integer
from .functions import StepFunction


@dataclass(frozen=True)
class PowerWeight:
    """Density coeff * x^beta on [0, 1); a finite beta > -1 keeps every mass finite."""

    beta: float
    coeff: float = 1.0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ParameterError(f"power exponent must exceed -1, got {self.beta}")
        if self.beta == math.inf:
            raise ParameterError("power exponent must be finite")
        if not 0.0 < self.coeff < math.inf:
            raise ParameterError(f"power coefficient must be finite and positive, got {self.coeff}")

    def masses(self, levels, positions) -> np.ndarray:
        """Masses of the dyadic intervals [m 2^-k, (m+1) 2^-k), elementwise."""
        lvl = np.asarray(levels, dtype=np.int64)
        pos = np.asarray(positions, dtype=np.int64)
        left = np.ldexp(pos.astype(float), -lvl)
        right = np.ldexp((pos + 1).astype(float), -lvl)
        e = self.beta + 1.0
        if e == 1.0:
            diff = right - left  # exact: dyadic endpoints
        else:
            # For m = position > 0, right^e - left^e = left^e * expm1(e * log1p(1/m))
            # avoids the cancellation of the plain difference at deep levels; at
            # m = 0 the plain difference is right^e itself.
            with np.errstate(divide="ignore", invalid="ignore"):
                diff = left**e * np.expm1(e * np.log1p(1.0 / pos))
            diff = np.where(pos == 0, right**e, diff)
        return self.coeff * diff / e

    def mass(self, interval: DyadicInterval) -> float:
        return float(self.masses([interval.level], [interval.position])[0])

    def grid_masses(self, base: DyadicInterval, levels_down: int) -> np.ndarray:
        """Masses of the 2^levels_down descendants of base, left to right."""
        return self.masses(*grid_arrays(base, levels_down))

    def pow(self, exponent: float) -> "PowerWeight":
        return PowerWeight(self.beta * exponent, self.coeff**exponent)

    def scaled(self, c: float) -> "PowerWeight":
        return PowerWeight(self.beta, self.coeff * c)


LEBESGUE = PowerWeight(0.0)


def _pairwise_tree(cells: np.ndarray, depth: int) -> np.ndarray:
    """The node sums of the 2^depth cell values, summed pairwise level by level.

    Node (k, m) sits at entry 2^k - 1 + m; the cells are the last row.
    """
    tree = np.empty((2 << depth) - 1)
    tree[(1 << depth) - 1 :] = cells
    for k in range(depth - 1, -1, -1):
        below = tree[(2 << k) - 1 : (4 << k) - 1]
        np.add(below[0::2], below[1::2], out=tree[(1 << k) - 1 : (2 << k) - 1])
    return tree


def _tree_masses(tree: np.ndarray, depth: int, lvl: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Masses of the intervals (lvl, pos) from the `_pairwise_tree` of cells at `depth`.

    See PiecewiseWeight.masses, which is this lookup on the weight's own tree.
    """
    below = np.maximum(lvl - depth, 0)
    node = (1 << (lvl - below)) - 1 + (pos >> below)
    return np.ldexp(tree[node], -np.maximum(lvl, depth))


@dataclass(frozen=True, eq=False)
class PiecewiseWeight:
    """Finite nonnegative density constant on each depth-`depth` atom of [0, 1).

    The density sums of every dyadic node at or above the cell depth are
    summed once, pairwise, into a level-by-level tree: node (k, m) sits at
    entry 2^k - 1 + m, and `values` is a read-only view of the tree's leaf
    row. Weights are immutable, so the tree never goes stale.
    """

    depth: int
    values: np.ndarray

    def __post_init__(self):
        vals = finite_nonnegative(self.values, "weight densities")
        object.__setattr__(self, "depth", integer(self.depth, "piecewise depth"))
        if self.depth < 0:
            raise ParameterError("piecewise depth must be >= 0")
        if vals.shape != (1 << self.depth,):
            raise ParameterError(
                f"piecewise weight at depth {self.depth} needs {1 << self.depth} values"
            )
        tree = _pairwise_tree(vals, self.depth)
        tree.setflags(write=False)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "values", tree[(1 << self.depth) - 1 :])

    def masses(self, levels, positions) -> np.ndarray:
        """Masses of the dyadic intervals [m 2^-k, (m+1) 2^-k), elementwise.

        At or above the cell depth a mass is the node's density sum times
        2^-depth; below it, the one covering cell's density times 2^-k. A
        single cell's mass is therefore its density times its length exactly.
        """
        lvl = np.asarray(levels, dtype=np.int64)
        pos = np.asarray(positions, dtype=np.int64)
        return _tree_masses(self._tree, self.depth, lvl, pos)

    def mass(self, interval: DyadicInterval) -> float:
        return float(self.masses([interval.level], [interval.position])[0])

    def grid_masses(self, base: DyadicInterval, levels_down: int) -> np.ndarray:
        """Masses of the 2^levels_down descendants of base, left to right."""
        return self.masses(*grid_arrays(base, levels_down))

    def pow(self, exponent: float) -> "PiecewiseWeight":
        if exponent < 0 and np.any(self.values == 0.0):
            raise ParameterError("negative power of a weight that vanishes on an atom")
        return PiecewiseWeight(self.depth, self.values**exponent)

    def scaled(self, c: float) -> "PiecewiseWeight":
        return PiecewiseWeight(self.depth, self.values * c)


Weight = Union[PowerWeight, PiecewiseWeight]


def product_masses(f: Weight, g: Weight, levels, positions) -> np.ndarray:
    """Masses of the product density f*g on dyadic intervals, elementwise.

    A power times a power is again a power. Otherwise let the cells be those
    of the finest piecewise factor. On a cell, and on anything finer, at
    least one factor is constant, so the product's mass is exactly
    f(Q) g(Q) / |Q|; coarser masses are node sums of the cell densities
    f(c) g(c) / |c|^2, summed into the tree a piecewise weight holds, with
    no weight built. No array is finer than the factors' own cells, however
    deep the intervals.
    """
    lvl = np.asarray(levels, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    if isinstance(f, PowerWeight) and isinstance(g, PowerWeight):
        return PowerWeight(f.beta + g.beta, f.coeff * g.coeff).masses(lvl, pos)
    cells = max(w.depth for w in (f, g) if isinstance(w, PiecewiseWeight))
    grid = grid_arrays(ROOT, cells)
    tree = _pairwise_tree(np.ldexp(f.masses(*grid) * g.masses(*grid), 2 * cells), cells)
    out = _tree_masses(tree, cells, lvl, pos)
    fine = lvl > cells
    if fine.any():
        lf, pf = lvl[fine], pos[fine]
        out[fine] = np.ldexp(f.masses(lf, pf) * g.masses(lf, pf), lf)
    return out


def average(w, interval: DyadicInterval) -> float:
    """Lebesgue average mass(w, I)/|I| of w over the interval; `weighted_average` takes a base."""
    denom = LEBESGUE.mass(interval)
    if denom <= 0.0:
        raise DegenerateInstanceError(f"zero base mass on {interval}")
    return w.mass(interval) / denom


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
        atom_masses = w.masses(part.levels[i0:i1], part.positions[i0:i1])
        return math.fsum((f.values[i0:i1] * atom_masses).tolist())
    return float(product_masses(f, w, [interval.level], [interval.position])[0])


def weighted_average(f, w: Weight, interval: DyadicInterval) -> float:
    """<f>_I^w = w(I)^{-1} * integral of f dw."""
    denom = w.mass(interval)
    if denom <= 0.0:
        raise DegenerateInstanceError(f"zero mass on {interval}")
    return weighted_integral(f, w, interval) / denom


def _ancestor_averages(w: Weight, top: DyadicInterval, depth: int):
    """top's `scan_layout`, the subtree masses in its order and each depth atom's ancestor averages.

    The masses come from one kernel call. Row i of the level-by-atom array
    holds, per atom, the average of its ancestor i levels up; an array too
    large to allocate raises ParameterError, as the layout does.
    """
    k, j, cover = layout = scan_layout(top, depth)
    levels = top.level + k
    masses = w.masses(levels, (top.position << k) + j)
    with _allocating(depth, 8 * (int(k[0]) + 1) * int(cover[-1])):  # k[0]: levels below top
        return layout, masses, np.repeat(np.ldexp(masses, levels), cover).reshape(-1, cover[-1])


def dyadic_maximal(w: Weight, top: DyadicInterval, depth: int) -> StepFunction:
    """Maximal ancestor average max_{a <= Q' <= top} <w>_{Q'} per depth atom.

    `depth` is absolute: atoms live at that level. The value on an atom
    is the largest entry of its column of the level-by-atom array of
    ancestor averages.
    """
    _, _, averages = _ancestor_averages(w, top, depth)
    part = uniform_partition(top, depth - top.level)
    return StepFunction(part, averages.max(axis=0), nonneg=True)


@dataclass(frozen=True)
class CharacteristicReport:
    value: float
    attained_at: DyadicInterval
    test_set: str
    note: str = ""


def ainfty(w: Weight, root: DyadicInterval = ROOT, depth: int = 10) -> CharacteristicReport:
    """Fujii-Wilson constant sup_Q mass(w,Q)^{-1} int_Q M(1_Q w) over dyadic Q.

    The maximal function is dyadic and truncated at `depth`, so the result
    is a lower estimate of the continuous characteristic. It is exact for
    the finite test set scanned, >= 1, and nondecreasing in depth.

    One pass over the subtree: the level-by-atom array of ancestor averages
    is turned in place into running maxima over the ancestors from the
    atom's level up to each Q's level, and each level's integrals are
    contiguous block sums of its row, pairwise as NumPy sums them. The
    ratios are laid out deepest level first, so one argmax breaks ties
    toward the deepest level and then the leftmost interval. The scan holds
    (depth - root.level + 1) * 2^(depth - root.level) floats.
    """
    (k, j, _), masses, running = _ancestor_averages(w, root, depth)
    down = int(k[0])  # levels below root: the layout lists the deepest level first
    if masses[-1] <= 0.0:
        raise DegenerateInstanceError("weight has zero mass on the root")
    integrals = np.empty_like(masses)
    end = 0
    for i in range(down + 1):
        # row i becomes the largest average over ancestors 0..i levels up;
        # each interval i levels up integrates 2^i consecutive atoms
        if i:
            np.maximum(running[i - 1], running[i], out=running[i])
        start, end = end, end + (1 << (down - i))
        np.add.reduce(running[i].reshape(-1, 1 << i), axis=1, out=integrals[start:end])
    integrals *= math.ldexp(1.0, -(root.level + down))
    ratios = np.divide(integrals, masses, out=np.zeros_like(masses), where=masses > 0.0)
    n = int(np.argmax(ratios))
    best_val, best_q = 1.0, root
    if ratios[n] > best_val:
        best_val = float(ratios[n])
        best_q = DyadicInterval(root.level + int(k[n]), (root.position << int(k[n])) + int(j[n]))
    return CharacteristicReport(
        value=best_val,
        attained_at=best_q,
        test_set=f"dyadic subintervals of {root} to depth {depth}",
        note="dyadic truncated maximal function; lower estimate",
    )


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent tuple (p, q, r, alpha) with 1 < p <= q < inf, 0 < r < inf, 0 < alpha <= 1."""

    p: float
    q: float
    r: float
    alpha: float

    def __post_init__(self):
        if not 1.0 < self.p <= self.q < math.inf:
            raise ParameterError(f"need 1 < p <= q < inf, got p={self.p}, q={self.q}")
        if not 0.0 < self.r < math.inf:
            raise ParameterError(f"need 0 < r < inf, got r={self.r}")
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


def _first_max(
    vals: np.ndarray, levels: np.ndarray, positions: np.ndarray
) -> tuple[float, DyadicInterval]:
    """The largest value and the first interval attaining it."""
    j = int(np.argmax(vals))
    return float(vals[j]), DyadicInterval(int(levels[j]), int(positions[j]))


def _test_set_arrays(test_set) -> tuple[np.ndarray, np.ndarray]:
    """Levels and positions of a caller's test set; ParameterError when it is empty."""
    if isinstance(test_set, SparseFamily):
        return test_set.levels, test_set.positions
    intervals = list(test_set)
    if not intervals:
        raise ParameterError("empty test set: a supremum needs at least one interval")
    return interval_arrays(intervals)


def two_weight_char(
    omega: Weight, sigma: Weight, cfg: ExponentConfig, family: SparseFamily
) -> CharacteristicReport:
    """sup over family members of |Q|^{-alpha} omega(Q)^{1/q} sigma(Q)^{1/p'}.

    The member masses come from the family's geometry, which the norm
    estimate and the testing sums of the same family share; reading them
    builds no atoms.
    """
    geom = family_geometry(family)
    vals = (
        geom.lengths ** (-cfg.alpha)
        * geom.member_masses(omega) ** (1.0 / cfg.q)
        * geom.member_masses(sigma) ** (1.0 / cfg.p_conj)
    )
    best_val, best_q = _first_max(vals, geom.levels, geom.positions)
    return CharacteristicReport(
        value=best_val,
        attained_at=best_q,
        test_set=f"declared family of {len(family)} intervals",
    )


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
    asymptotics in scope); ties go to the coarsest level, then the
    leftmost interval. A caller's test set must not be empty.
    """
    finite_exponent(p)
    p_conj = p / (p - 1.0)
    wq = w.pow(q)
    wmp = w.pow(-p_conj)
    if isinstance(w, PowerWeight):
        if not (w.beta * q > -1.0 and -w.beta * p_conj > -1.0):
            raise ParameterError(
                f"power weight exponent {w.beta} not integrable for (p, q)=({p}, {q})"
            )
    if test_set is not None:
        levels, positions = _test_set_arrays(test_set)
        descriptor = "caller-provided test set"
    else:
        k, j, _ = scan_layout(ROOT, depth)
        coarse_first = np.argsort(k, kind="stable")  # the layout lists the deepest level first
        levels, positions = k[coarse_first], j[coarse_first]
        descriptor = f"all dyadic intervals to depth {depth}"
    lengths = np.ldexp(1.0, -levels)
    vals = (wq.masses(levels, positions) / lengths) * (
        wmp.masses(levels, positions) / lengths
    ) ** (q / p_conj)
    best_val, best_q = _first_max(vals, levels, positions)
    return CharacteristicReport(value=best_val, attained_at=best_q, test_set=descriptor)


def classical_ap(
    omega: Weight,
    sigma: Weight,
    p: float,
    test_set: Union[SparseFamily, Iterable[DyadicInterval]],
) -> float:
    """sup_Q |Q|^{-p} omega(Q) sigma(Q)^{p-1} over at least one given interval, at 1 < p < inf."""
    finite_exponent(p)
    levels, positions = _test_set_arrays(test_set)
    vals = (
        np.ldexp(1.0, -levels) ** (-p)
        * omega.masses(levels, positions)
        * sigma.masses(levels, positions) ** (p - 1.0)
    )
    return _first_max(vals, levels, positions)[0]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    defect: float
    sobolev_line: bool
    diagonal_required: bool
    q_range: tuple[float, float]
    diagnostic: str


def feasibility(cfg: ExponentConfig) -> FeasibilityReport:
    """Whether the exponent region -alpha + 1/q + 1/p' >= 0 is met; every comparison has slack 1e-12.

    Also reports the Sobolev case (equality, alpha = 1 + 1/q - 1/p) and the
    admissible q-range [p, p/(p(alpha-1)+1)] when alpha > 1/p'.
    """
    tol = 1e-12
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
