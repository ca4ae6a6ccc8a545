"""Principal-interval (stopping-time) construction over a sparse family.

Starting from the maximal members, each principal interval F spawns as
children the maximal family members Q strictly inside F whose sigma-average
of f strictly exceeds FACTOR = 2 times the average on F. The resulting
collection controls sums of powered averages by the dyadic sigma-maximal
function with the constant (1 - 2^{-p})^{-1}, which needs that factor.

Both the construction and the sum bound run on member indices of the
family's shared geometry (`dyadic.family_geometry`): an array of averages,
a principal mask and parent indices. The bound reads sigma's atom masses
from the geometry, where the construction left them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicInterval, SparseFamily, _read_only, family_geometry
from .functions import StepFunction
from .sparse import _require_mass
from .weights import Weight, product_masses, weighted_integral

FACTOR = 2.0  # principal_sum_bound's constant (1 - FACTOR^-p)^-1 holds for this factor only


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Principals, the minimal-principal parent map, and stopping children.

    The construction works on member indices, in the family's member
    order: `member_averages` holds each member's sigma-average of f,
    `parent_index` gives each member's minimal enclosing principal, and
    `child_index` maps each principal's index to the indices of its
    stopping children. The principals, the members that are their own
    parent (`principals`, `principal_mask`), and the interval-keyed dicts
    `averages`, `parent` and `children` are views built on first use.
    """

    family: SparseFamily
    member_averages: np.ndarray
    parent_index: np.ndarray
    child_index: dict

    @cached_property
    def principal_mask(self) -> np.ndarray:
        return _read_only(self.parent_index == np.arange(len(self.parent_index)))

    @cached_property
    def principals(self) -> tuple[DyadicInterval, ...]:
        return tuple(q for q, top in zip(self.family.members, self.principal_mask.tolist()) if top)

    @cached_property
    def averages(self) -> dict:
        return dict(zip(self.family.members, self.member_averages.tolist()))

    @cached_property
    def parent(self) -> dict:
        members = self.family.members
        return {q: members[i] for q, i in zip(members, self.parent_index.tolist())}

    @cached_property
    def children(self) -> dict:
        members = self.family.members
        return {
            members[top]: tuple(members[i] for i in kids)
            for top, kids in self.child_index.items()
        }

    def principal_of(self, member: DyadicInterval) -> DyadicInterval:
        return self.parent[member]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.family == other.family
            and np.array_equal(self.member_averages, other.member_averages)
            and np.array_equal(self.parent_index, other.parent_index)
            and self.child_index == other.child_index
        )


def build_principal_cubes(family: SparseFamily, f, sigma: Weight) -> StoppingFamily:
    """Stopping construction with rule <f>_Q^sigma > FACTOR * <f>_F^sigma.

    f is a nonnegative Weight density or StepFunction; sigma must have
    positive mass on every member.
    """
    geom = family_geometry(family)
    _, sig_q = geom.masses(sigma)
    _require_mass(geom, sig_q, "sigma")
    if isinstance(f, StepFunction):
        integrals = np.array([weighted_integral(f, sigma, q) for q in family.members])
    else:
        integrals = product_masses(f, sigma, geom.levels, geom.positions)
    avgs = integrals / sig_q
    avg = avgs.tolist()
    # up[j]: the deepest member strictly enclosing member j, or -1. Members
    # are sorted by level, so each member's enclosing members come before it.
    index = np.arange(len(family))
    up = np.where(np.triu(geom.contains, 1), index[:, None], -1).max(axis=0)

    # One pass in member order. The deepest principal strictly enclosing
    # member j is the minimal principal of up[j]; j is a stopping child of
    # it when its average exceeds FACTOR times that principal's. Principals
    # enter `children` in member order.
    parent: list[int] = []
    children: dict[int, list[int]] = {}
    for j, u in enumerate(up.tolist()):
        top = parent[u] if u >= 0 else -1
        if top < 0 or avg[j] > FACTOR * avg[top]:
            if top >= 0:
                children[top].append(j)
            children[j] = []
            parent.append(j)
        else:
            parent.append(top)
    return StoppingFamily(
        family=family,
        member_averages=_read_only(avgs),
        parent_index=_read_only(np.array(parent)),
        child_index={top: tuple(kids) for top, kids in children.items()},
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
    geom = family_geometry(stopping.family)
    avgs = stopping.member_averages
    maxavg = (geom.incidence * avgs[:, None]).max(axis=0)
    lhs = np.where(stopping.principal_mask, avgs**p, 0.0) @ geom.incidence
    rhs = maxavg**p / (1.0 - FACTOR**-p)
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
