"""The compiled family geometry against brute-force nesting loops.

Every quantity that now reads nesting or atom coverage from
FamilyGeometry is recomputed here the direct way: containment from
`encloses`, coverage from `atom_range`, the testing sums from loops over
the enclosed members, the indicator bound from the cube-by-cube
`apply_sparse` operator, and the principal cubes from the stopping rule
applied with `encloses`. The instances come from the suites, so the
families are the random depth-6 subtrees the suites run on.
"""

import math

import numpy as np
import pytest

from sparselab import (
    FamilyGeometry,
    PositiveDyadicOperator,
    StepFunction,
    apply_sparse,
    atoms_of,
    build_principal_cubes,
    carleson_constant,
    check_lemma41,
    indicator_lower_bound,
    lp_norm,
    lsu_testing_sums,
    make_instance,
    weighted_average,
)
from sparselab import testing_T as _testing_T
from sparselab import testing_Tstar as _testing_Tstar

TRIALS = range(12)


def _instances(suite):
    return [make_instance(suite, 7, i) for i in TRIALS]


def _brute(family, w):
    """Atom ranges, enclosed-member lists, atom masses and member masses."""
    part = atoms_of(family)
    members = family.members
    ranges = [part.atom_range(q) for q in members]
    enclosed = [[k for k, q in enumerate(members) if top.encloses(q)] for top in members]
    atom_m = np.array([w.mass(a) for a in part.atoms])
    member_m = np.array([w.mass(q) for q in members])
    return part, ranges, enclosed, atom_m, member_m


def _local_norm(coefs, ranges, inside, atom_masses, exponent):
    vals = np.zeros(len(atom_masses))
    for k in inside:
        i0, i1 = ranges[k]
        vals[i0:i1] += coefs[k]
    return float(np.dot(vals**exponent, atom_masses)) ** (1.0 / exponent)


@pytest.mark.parametrize("suite", ["thm42", "lemma34", "lemma41", "thm11"])
def test_geometry_matches_encloses_and_atom_range(suite):
    for inst in _instances(suite):
        family = inst.family
        geom = FamilyGeometry(family)
        part, ranges, enclosed, _, _ = _brute(family, inst.sigma)
        assert geom.part.atoms == part.atoms
        contains = np.zeros((len(family), len(family)), dtype=bool)
        incidence = np.zeros((len(family), len(part)))
        for j, (i0, i1) in enumerate(ranges):
            contains[j, enclosed[j]] = True
            incidence[j, i0:i1] = 1.0
        assert np.array_equal(geom.contains, contains)
        assert np.array_equal(geom.incidence, incidence)
        assert np.array_equal(geom.candidates, np.vstack([incidence, np.ones(len(part))]))
        assert geom.lengths.tolist() == [q.length for q in family.members]


@pytest.mark.parametrize("suite", ["thm42", "lemma34", "lemma41", "thm11"])
def test_carleson_constant_matches_fsum_loop(suite):
    for inst in _instances(suite):
        members = inst.family.members
        expected = max(
            math.fsum(q.length for q in members if top.encloses(q)) / top.length
            for top in members
        )
        assert carleson_constant(inst.family) == pytest.approx(expected, rel=1e-12)


def test_testing_constants_match_loops():
    for inst in _instances("thm42"):
        cfg, family = inst.cfg, inst.family
        _, ranges, enclosed, om_atom, om_q = _brute(family, inst.omega)
        _, _, _, sig_atom, sig_q = _brute(family, inst.sigma)
        gam = np.array([q.length ** (-cfg.alpha * cfg.r) for q in family.members])
        coefs = gam * sig_q**cfg.r
        t_ref = max(
            sig_q[j] ** (-cfg.r / cfg.p)
            * _local_norm(coefs, ranges, enclosed[j], om_atom, cfg.q / cfg.r)
            for j in range(len(family))
        )
        assert _testing_T(family, cfg, inst.omega, inst.sigma) == pytest.approx(t_ref, rel=1e-12)
        if cfg.p <= cfg.r:
            continue
        tr = cfg.q / cfg.r
        coefs = gam * sig_q ** (cfg.r - 1.0) * om_q
        tstar_ref = max(
            om_q[j] ** (-(tr - 1.0) / tr)
            * _local_norm(coefs, ranges, enclosed[j], sig_atom, cfg.outer_conj)
            for j in range(len(family))
        )
        got = _testing_Tstar(family, cfg, inst.omega, inst.sigma)
        assert got == pytest.approx(tstar_ref, rel=1e-12)


def test_lsu_testing_sums_match_loops():
    for inst in _instances("lemma34"):
        family, p, q = inst.family, inst.extras["p"], inst.extras["q"]
        taus = inst.extras["taus"]
        _, ranges, enclosed, om_atom, om_q = _brute(family, inst.omega)
        _, _, _, sig_atom, sig_q = _brute(family, inst.sigma)
        lengths = np.array([m.length for m in family.members])
        first = max(
            om_q[j] ** (-(q - 1.0) / q)
            * _local_norm(taus * om_q / lengths, ranges, enclosed[j], sig_atom, p / (p - 1.0))
            for j in range(len(family))
        )
        second = max(
            sig_q[j] ** (-1.0 / p)
            * _local_norm(taus * sig_q / lengths, ranges, enclosed[j], om_atom, q)
            for j in range(len(family))
        )
        op = PositiveDyadicOperator(family, taus)
        got = lsu_testing_sums(op, p, q, inst.omega, inst.sigma)
        assert got == pytest.approx((first, second), rel=1e-12)


def test_lemma41_sides_match_loops():
    for inst in _instances("lemma41"):
        family, coefs, p = inst.family, inst.extras["coefs"], inst.extras["p"]
        _, ranges, enclosed, sig_atom, sig_q = _brute(family, inst.sigma)
        phi = np.zeros(len(sig_atom))
        for (i0, i1), a in zip(ranges, coefs):
            phi[i0:i1] += a
        lhs = float(np.dot(phi**p, sig_atom)) ** (1.0 / p)
        rhs_p = math.fsum(
            coefs[j]
            * (math.fsum(coefs[k] * sig_q[k] for k in enclosed[j]) / sig_q[j]) ** (p - 1.0)
            * sig_q[j]
            for j in range(len(family))
        )
        rep = check_lemma41(family, coefs, inst.sigma, p)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs_p ** (1.0 / p), rel=1e-12)


def test_indicator_bound_matches_operator_loop():
    for inst in _instances("thm11"):
        family, cfg = inst.family, inst.cfg
        part = atoms_of(family)
        best = 0.0
        for q in family.members:
            i0, i1 = part.atom_range(q)
            ind = np.zeros(len(part))
            ind[i0:i1] = 1.0
            f = StepFunction(part, ind, nonneg=True)
            image = apply_sparse(family, cfg, inst.sigma, f)
            best = max(best, lp_norm(image, inst.omega, cfg.q) / lp_norm(f, inst.sigma, cfg.p))
        got = indicator_lower_bound(family, cfg, inst.omega, inst.sigma)
        assert got == pytest.approx(best, rel=1e-12)


def _strictly_inside(q, other):
    return q != other and other.encloses(q)


def test_principal_cubes_match_encloses_loops():
    for inst in _instances("principal"):
        family, f, sigma = inst.family, inst.extras["f"], inst.sigma
        members = family.members
        avg = {q: weighted_average(f, sigma, q) for q in members}
        stack = [q for q in members if not any(_strictly_inside(q, o) for o in members)]
        principals, children = [], {}
        while stack:
            top = stack.pop()
            principals.append(top)
            hits = [q for q in members if _strictly_inside(q, top) and avg[q] > 2.0 * avg[top]]
            kids = tuple(q for q in hits if not any(_strictly_inside(q, o) for o in hits))
            children[top] = kids
            stack.extend(kids)
        parent = {
            q: max((p for p in principals if p.encloses(q)), key=lambda p: p.level)
            for q in members
        }
        got = build_principal_cubes(family, f, sigma)
        assert got.principals == tuple(sorted(principals))
        assert got.children == children
        assert got.parent == parent
