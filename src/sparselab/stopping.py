"""Principal-interval (stopping-time) construction over a sparse family.

Starting from the maximal members, each principal interval F spawns as
children the maximal family members Q strictly inside F whose sigma-average
of f strictly exceeds twice the average on F. The resulting collection
controls sums of powered averages by the dyadic sigma-maximal function with
the explicit geometric constant (1 - 2^{-p})^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicInterval, FamilyGeometry, SparseFamily
from .errors import DegenerateInstanceError
from .weights import Weight, weighted_average


@dataclass(frozen=True)
class StoppingFamily:
    """Principals, the minimal-principal parent map, and stopping children."""

    family: SparseFamily
    principals: tuple[DyadicInterval, ...]
    parent: dict
    children: dict
    averages: dict

    def principal_of(self, member: DyadicInterval) -> DyadicInterval:
        return self.parent[member]


def build_principal_cubes(
    family: SparseFamily, f, sigma: Weight, factor: float = 2.0
) -> StoppingFamily:
    """Stopping construction with rule <f>_Q^sigma > factor * <f>_F^sigma.

    f is a nonnegative Weight density or StepFunction; sigma must have
    positive mass on every member.
    """
    members = family.members
    avg = {}
    for q in members:
        if sigma.mass(q) <= 0.0:
            raise DegenerateInstanceError(f"sigma has zero mass on member {q}")
        avg[q] = weighted_average(f, sigma, q)
    avgs = np.array([avg[q] for q in members])
    geom = FamilyGeometry(family)
    # inside[i, j]: member i lies strictly inside member j
    inside = geom.contains.T & ~np.eye(len(members), dtype=bool)

    principals: list[int] = []
    children: dict = {}
    stack = list(np.flatnonzero(~inside.any(axis=1)))
    while stack:
        top = stack.pop()
        principals.append(top)
        hits = np.flatnonzero(inside[:, top] & (avgs > factor * avgs[top]))
        kids = hits[~inside[np.ix_(hits, hits)].any(axis=1)]
        children[members[top]] = tuple(members[i] for i in kids)
        stack.extend(kids)
    principals.sort()

    # Principals enclosing a member form a chain; members are sorted by
    # level, so the deepest of them has the largest index.
    chosen = np.array(principals)
    deepest = np.where(geom.contains[chosen], chosen[:, None], -1).max(axis=0)
    parent = {q: members[i] for q, i in zip(members, deepest)}
    return StoppingFamily(
        family=family,
        principals=tuple(members[i] for i in principals),
        parent=parent,
        children=children,
        averages=avg,
    )


def principal_sum_bound(
    stopping: StoppingFamily, f, sigma: Weight, p: float
) -> dict:
    """Atomwise check of the powered-average sum against the maximal bound.

    On each atom x: sum over principals F containing x of (<f>_F^sigma)^p,
    compared with (1 - 2^{-p})^{-1} (M_sigma f(x))^p where M_sigma is the
    dyadic maximal over all family members. Returns the worst atomwise
    ratio and the integrated (sigma-measure) ratio; both should be <= 1.
    """
    members = stopping.family.members
    geom = FamilyGeometry(stopping.family)
    avgs = np.array([stopping.averages[q] for q in members])
    chosen = set(stopping.principals)
    is_principal = np.array([q in chosen for q in members])
    maxavg = (geom.incidence * avgs[:, None]).max(axis=0)
    lhs = np.where(is_principal, avgs**p, 0.0) @ geom.incidence
    rhs = maxavg**p / (1.0 - 2.0**-p)
    with np.errstate(divide="ignore", invalid="ignore"):
        pointwise = np.where(rhs > 0.0, lhs / rhs, 0.0)
    smass, _ = geom.masses(sigma)
    lhs_int = float(np.dot(lhs, smass))
    rhs_int = float(np.dot(rhs, smass))
    return {
        "max_pointwise_ratio": float(pointwise.max()),
        "integrated_ratio": lhs_int / rhs_int if rhs_int > 0.0 else 0.0,
        "atoms": len(geom.part),
    }
