"""Tests for the principal-interval construction.

Reference cases:

* f with sigma-averages (1, 2, 4) down the chain of depth 2: the middle
  interval has average exactly 2 and the selection rule is strict, so the
  principals are the root and the deepest interval only.
* f(x) = x^{-1/2} on the chain of depth 9: the average over [0, 2^-k) is
  2 * 2^{k/2}, so averages first exceed double three levels down and the
  principals sit at levels 0, 3, 6, 9. On the finest atom, with p = 2 the
  powered-average sum is 4*(1+8+64+512) = 2340 against the maximal bound
  4*512/(1 - 1/4), giving pointwise ratio 1755/2048.
"""

import math

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    DegenerateInstanceError,
    DyadicInterval,
    FamilyGeometry,
    PiecewiseWeight,
    PowerWeight,
    ROOT,
    SparseFamily,
    StepFunction,
    atoms_of,
    build_principal_cubes,
    chain_family,
    relate,
    Relation,
    weighted_average,
    principal_sum_bound,
    uniform_partition,
)


def brute_principals(members, avg, factor):
    """Independent recursion: maximal members, then maximal strict
    descendants whose average exceeds factor times the ancestor's."""
    maximal = [
        q for q in members
        if not any(relate(q, o) is Relation.INSIDE for o in members)
    ]
    out = []

    def descend(top):
        out.append(top)
        hits = [
            q for q in members
            if relate(q, top) is Relation.INSIDE and avg[q] > factor * avg[top]
        ]
        for q in hits:
            if not any(relate(q, o) is Relation.INSIDE for o in hits):
                descend(q)

    for top in maximal:
        descend(top)
    return sorted(out)


def test_strict_rule_skips_exact_doubling():
    family = chain_family(2)
    f = PiecewiseWeight(2, [4.0, 0.0, 0.0, 0.0])
    stopping = build_principal_cubes(family, f, LEBESGUE)
    assert stopping.averages[ROOT] == pytest.approx(1.0, rel=1e-12)
    assert stopping.averages[DyadicInterval(1, 0)] == pytest.approx(2.0, rel=1e-12)
    assert stopping.principals == (ROOT, DyadicInterval(2, 0))
    assert stopping.principal_of(DyadicInterval(1, 0)) == ROOT
    assert stopping.principal_of(DyadicInterval(2, 0)) == DyadicInterval(2, 0)
    assert stopping.children[ROOT] == (DyadicInterval(2, 0),)


def test_power_density_principals_every_third_level():
    family = chain_family(9)
    stopping = build_principal_cubes(family, PowerWeight(-0.5), LEBESGUE)
    got = sorted(p.level for p in stopping.principals)
    assert got == [0, 3, 6, 9]
    for q in family.members:
        assert stopping.principal_of(q).level == 3 * (q.level // 3)


def test_powered_sum_pointwise_constant():
    family = chain_family(9)
    stopping = build_principal_cubes(family, PowerWeight(-0.5), LEBESGUE)
    report = principal_sum_bound(stopping, PowerWeight(-0.5), LEBESGUE, 2.0)
    assert report["max_pointwise_ratio"] == pytest.approx(1755.0 / 2048.0, rel=1e-12)
    assert report["integrated_ratio"] <= report["max_pointwise_ratio"] + 1e-15
    assert report["atoms"] == 10


def test_matches_brute_recursion_on_random_families():
    rng = np.random.default_rng(12)
    pool = [DyadicInterval(k, m) for k in range(5) for m in range(1 << k)]
    for _ in range(25):
        picks = [q for q in pool if rng.random() < 0.25]
        if ROOT not in picks:
            picks.append(ROOT)
        family = SparseFamily(tuple(picks), eta=0.05)
        f = PiecewiseWeight(5, 10 ** rng.uniform(-1.5, 1.5, 32))
        sigma = PiecewiseWeight(5, 10 ** rng.uniform(-1, 1, 32))
        stopping = build_principal_cubes(family, f, sigma)
        avg = {q: weighted_average(f, sigma, q) for q in family.members}
        assert list(stopping.principals) == brute_principals(family.members, avg, 2.0)
        for q in family.members:
            pi = stopping.principal_of(q)
            assert pi.encloses(q)
            if q != pi:
                # not selected, so the average stayed within double
                assert avg[q] <= 2.0 * avg[pi] * (1.0 + 1e-12)


def test_bound_holds_on_random_instances():
    rng = np.random.default_rng(7)
    pool = [DyadicInterval(k, m) for k in range(4) for m in range(1 << k)]
    for p in (1.5, 2.0, 3.0):
        picks = [q for q in pool if rng.random() < 0.4] or [ROOT]
        family = SparseFamily(tuple(picks), eta=0.05)
        f = PiecewiseWeight(4, 10 ** rng.uniform(-1, 2, 16))
        stopping = build_principal_cubes(family, f, LEBESGUE)
        report = principal_sum_bound(stopping, f, LEBESGUE, p)
        assert 0.0 < report["max_pointwise_ratio"] <= 1.0 + 1e-12


def test_children_are_disjoint():
    family = chain_family(6)
    members = family.members + (
        DyadicInterval(1, 1), DyadicInterval(2, 2), DyadicInterval(3, 6),
    )
    family = SparseFamily(members, eta=0.2)
    f = PiecewiseWeight(3, [9.0, 0.5, 2.0, 0.1, 4.0, 4.0, 0.3, 7.0])
    stopping = build_principal_cubes(family, f, LEBESGUE)
    for kids in stopping.children.values():
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                assert relate(a, b) is Relation.DISJOINT


def test_step_function_density_matches_piecewise_weight():
    # a StepFunction f takes the per-member path, a Weight f the product weight
    family = SparseFamily(chain_family(3).members + (DyadicInterval(2, 3),), eta=0.2)
    vals = [9.0, 0.5, 2.0, 0.1, 4.0, 4.0, 0.3, 7.0]
    sigma = PiecewiseWeight(2, [1.0, 3.0, 0.5, 2.0])
    step = StepFunction(uniform_partition(ROOT, 3), vals, nonneg=True)
    by_step = build_principal_cubes(family, step, sigma)
    by_weight = build_principal_cubes(family, PiecewiseWeight(3, vals), sigma)
    assert by_step.principals == by_weight.principals
    for q in family.members:
        assert by_step.averages[q] == pytest.approx(by_weight.averages[q], rel=1e-14)


def test_degenerate_sigma_rejected():
    sigma = PiecewiseWeight(1, [0.0, 1.0])
    with pytest.raises(DegenerateInstanceError):
        build_principal_cubes(chain_family(1), LEBESGUE, sigma)


def test_one_geometry_per_construction(monkeypatch):
    built = []
    init = FamilyGeometry.__init__

    def counting(self, family, *args, **kwargs):
        built.append(family)
        init(self, family, *args, **kwargs)

    monkeypatch.setattr(FamilyGeometry, "__init__", counting)
    family = chain_family(9)
    f = PowerWeight(-0.5)
    stopping = build_principal_cubes(family, f, LEBESGUE)
    report = principal_sum_bound(stopping, f, LEBESGUE, 2.0)
    assert built == [family]
    assert report["atoms"] == len(atoms_of(family))
    assert build_principal_cubes(family, f, LEBESGUE) == stopping
