"""Seeded random instances for the verification suites.

Each suite draws its instances from a per-index seeded generator, so
instance i of a given (suite, seed) is identical no matter how many trials
a run requests. Families are random subsets of the depth-6 dyadic tree
containing the root, resampled until the packing constant is at most 4;
weights are piecewise densities with log-uniform values in [1e-2, 1e2].
Exponent tuples cycle deterministically through fixed menus chosen to hit
every branch of the statements under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicInterval, SparseFamily, _packing
from .errors import ParameterError
from .testing import MeasureEstimateQuery
from .weights import ExponentConfig, PiecewiseWeight, PowerWeight

WEIGHT_DEPTH = 6
TREE_DEPTH = 6
INCLUDE_PROB = 0.3  # chance that a node below the root is a member
PACKING_CAP = 4.0  # largest Carleson constant a drawn family may have

# (p, q, r, alpha) menus; order matters, trials cycle through them.
EXPONENT_MENUS = {
    "prop31": ((2.0, 2.0, 1.0, 1.0), (3.0, 3.0, 2.0, 1.0), (2.0, 4.0, 2.0, 0.75), (2.0, 2.0, 3.0, 1.0)),
    "lemma32": ((3.0, 3.0, 2.0, 1.0), (4.0, 4.0, 2.0, 1.0), (4.0, 8.0, 3.0, 1.0), (2.5, 3.0, 1.5, 1.0)),
    "lemma34": ((2.0, 2.0), (2.0, 4.0), (3.0, 3.0), (1.5, 2.0)),
    "lemma41": (2.0, 3.0, 1.5, 4.0),
    "lemma43": (
        (1.0, 0.0, 0.0),
        (0.5, 0.5, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.5, 0.5),
        (0.25, 0.25, 0.5),
        (0.0, 0.0, 1.0),
    ),
    "principal": (2.0, 1.5, 3.0, 4.0),
    "thm42": (
        (2.0, 2.0, 1.0, 1.0),
        (2.0, 2.0, 1.0, 0.5),
        (3.0, 3.0, 2.0, 0.75),
        (2.0, 4.0, 2.0, 0.75),
        (2.0, 2.0, 2.0, 1.0),
        (4.0, 4.0, 2.0, 0.5),
    ),
    "thm11": (
        (2.0, 2.0, 1.0, 1.0),
        (2.0, 4.0, 2.0, 0.75),
        (3.0, 3.0, 2.0, 1.0),
        (2.0, 2.0, 1.0, 0.5),
        (4.0, 4.0, 2.0, 0.5),
        (2.0, 3.0, 1.0, 5.0 / 6.0),
    ),
}

SUITES = tuple(sorted(EXPONENT_MENUS))


@dataclass(frozen=True, eq=False)
class RandomInstance:
    suite: str
    index: int
    family: SparseFamily
    omega: PiecewiseWeight
    sigma: PiecewiseWeight
    cfg: ExponentConfig | None
    extras: dict = field(default_factory=dict)


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def random_family(rng: np.random.Generator) -> SparseFamily:
    """Random subtree-free subset of the dyadic tree, packing-bounded, built once."""
    while True:
        picks = [np.flatnonzero(rng.random(1 << k) < INCLUDE_PROB) for k in range(1, TREE_DEPTH + 1)]
        levels = np.repeat(np.arange(TREE_DEPTH + 1), [1] + [len(p) for p in picks])
        positions = np.concatenate([[0], *picks])  # member order: by level, then position
        if len(levels) >= 3 and (packing := _packing(levels, positions)) <= PACKING_CAP:
            return SparseFamily.from_arrays(levels, positions, 1.0 / packing)


def random_weight(rng: np.random.Generator) -> PiecewiseWeight:
    """Piecewise weight at depth WEIGHT_DEPTH, log-uniform values in [1e-2, 1e2]."""
    return PiecewiseWeight(WEIGHT_DEPTH, 10.0 ** rng.uniform(-2.0, 2.0, 1 << WEIGHT_DEPTH))


def make_instance(suite: str, seed: int, index: int) -> RandomInstance:
    """Deterministic instance `index` of the given suite and seed, both >= 0."""
    if suite not in EXPONENT_MENUS:
        raise ParameterError(f"unknown suite {suite!r}")
    if seed < 0 or index < 0:
        raise ParameterError(f"seed and index must be >= 0, got {seed} and {index}")
    rng = _instance_rng(seed, index)
    family = random_family(rng)
    omega = random_weight(rng)
    sigma = random_weight(rng)
    menu = EXPONENT_MENUS[suite]
    pick = menu[index % len(menu)]
    extras: dict = {}
    cfg = None
    if suite in ("prop31", "lemma32", "thm42", "thm11"):
        cfg = ExponentConfig(*pick)
    if suite == "lemma32":
        extras["coefs"] = 10.0 ** rng.uniform(-1.0, 1.0, len(family))
    elif suite == "lemma34":
        extras["p"], extras["q"] = pick
        extras["taus"] = 10.0 ** rng.uniform(-1.0, 1.0, len(family))
    elif suite == "lemma41":
        extras["p"] = pick
        extras["coefs"] = 10.0 ** rng.uniform(-1.0, 1.0, len(family))
    elif suite == "lemma43":
        extras["query"] = MeasureEstimateQuery(*pick)
        i = int(rng.integers(len(family)))
        extras["top"] = DyadicInterval(int(family.levels[i]), int(family.positions[i]))
    elif suite == "principal":
        extras["p"] = pick
        kind = index % 3
        if kind == 2:
            extras["f"] = PowerWeight(float(rng.uniform(-0.95, 1.0)))
        else:
            extras["f"] = random_weight(rng)
    return RandomInstance(
        suite=suite,
        index=index,
        family=family,
        omega=omega,
        sigma=sigma,
        cfg=cfg,
        extras=extras,
    )
