"""The compiled family geometry against brute-force nesting loops.

Every quantity that now reads nesting or atom coverage from
FamilyGeometry is recomputed here the direct way: containment from
`encloses`, coverage from `atom_range`, the testing sums from loops over
the enclosed members, the indicator bound from the cube-by-cube
`apply_sparse` operator, and the principal cubes from the stopping rule
applied with `encloses`. The instances come from the suites, so the
families are the random depth-6 subtrees the suites run on. The heap-code
atom walk is also held bitwise to the former numpy pipeline (`_ref_atoms`)
on the suite families, every chain and random families down to level 28.
"""

import itertools
import math
import re

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    ROOT,
    AtomPartition,
    CubeObjective,
    DyadicInterval,
    ExponentConfig,
    FamilyGeometry,
    MeasureEstimateQuery,
    ParameterError,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    SparseFamily,
    StepFunction,
    ainfty,
    apply_sparse,
    atoms_of,
    build_principal_cubes,
    carleson_constant,
    chain_family,
    check_lemma41,
    check_lemma43,
    classical_ap,
    indicator_lower_bound,
    lp_norm,
    lsu_testing_sums,
    make_instance,
    principal_sum_bound,
    subdivide,
    two_weight_char,
    uniform_partition,
    verify_thm42,
    weighted_average,
)
from sparselab import testing_T as _testing_T
from sparselab import testing_Tstar as _testing_Tstar
from sparselab.dyadic import interval_arrays
from sparselab.instances import SUITES

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
        # the solver's candidates: the member indicators, then the constant function
        obj = CubeObjective(
            gamma=geom.lengths, incidence=geom.incidence, sigma_atom=geom.masses(inst.sigma)[0],
            omega_atom=geom.masses(inst.omega)[0], e=1.0, t=2.0, s=2.0,
        )
        assert np.array_equal(obj.candidates, np.vstack([incidence, np.ones(len(part))]))
        assert geom.lengths.tolist() == [q.length for q in family.members]


def _suite_families(seed):
    # instances at one (seed, index) share their family across suites, so
    # each suite takes its own indices
    for n, suite in enumerate(SUITES):
        for i in TRIALS:
            yield make_instance(suite, seed, len(TRIALS) * n + i).family


def _ref_atoms(family, extra_depth=0):
    """Atom levels and positions by the former numpy pipeline (a reference only).

    Heap codes of every strict ancestor of every member, from repeat and
    cumsum, are the split nodes after np.unique; the atoms are their
    children that searchsorted does not find among them, sorted by left tick.
    """
    root = family.root
    level, pos = interval_arrays(family.members)
    depth = level - root.level
    member = np.repeat(np.arange(len(level)), depth)
    up = np.arange(len(member)) - np.repeat(np.cumsum(depth) - depth, depth) + 1
    split, first = np.unique(((1 << level) + pos)[member] >> up, return_index=True)
    if len(split):
        children = np.concatenate([2 * split, 2 * split + 1])
        at = np.minimum(np.searchsorted(split, children), len(split) - 1)
        leaf = split[at] != children
        cell_level = np.tile(level[member[first]] - up[first] + 1, 2)[leaf]
        cell_pos = children[leaf] - (1 << cell_level)
    else:
        cell_level = np.array([root.level], dtype=np.int64)
        cell_pos = np.array([root.position], dtype=np.int64)
    order = np.argsort(cell_pos << (cell_level.max() - cell_level))
    cell_level, cell_pos = cell_level[order], cell_pos[order]
    if extra_depth:
        k = 1 << extra_depth
        cell_level = np.repeat(cell_level + extra_depth, k)
        cell_pos = np.repeat(cell_pos << extra_depth, k) + np.tile(np.arange(k), len(order))
    return cell_level, cell_pos


def _ref_geometry(family):
    """Atoms, member ranges, incidence and containment by the former code."""
    atom_level, atom_pos = _ref_atoms(family)
    level, pos = interval_arrays(family.members)
    finest = atom_level.max()
    left = atom_pos << (finest - atom_level)
    shift = finest - level
    ranges = np.stack([
        np.searchsorted(left, pos << shift), np.searchsorted(left, (pos + 1) << shift),
    ], axis=1)
    atom = np.arange(len(atom_level))
    incidence = ((atom >= ranges[:, :1]) & (atom < ranges[:, 1:])).astype(float)
    down = level - level[:, None]
    contains = (down >= 0) & (pos >> np.maximum(down, 0) == pos[:, None])
    return {"levels": atom_level, "positions": atom_pos, "ranges": ranges,
            "incidence": incidence, "contains": contains}


def _random_deep_family(rng):
    levels = rng.integers(0, 29, int(rng.integers(1, 25)))
    return SparseFamily(tuple(
        DyadicInterval(int(k), int(rng.integers(0, 1 << int(k)))) for k in levels
    ))


def _reference_families():
    for seed in (1, 7):
        for suite in SUITES:
            for i in range(60):
                yield make_instance(suite, seed, i).family
    for depth in range(63):
        yield chain_family(depth)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        yield _random_deep_family(rng)


def test_geometry_is_bitwise_the_former_numpy_pipeline():
    count = 0
    for family in _reference_families():
        geom = FamilyGeometry(family)
        got = {"levels": geom.part.levels, "positions": geom.part.positions,
               "ranges": geom.ranges, "incidence": geom.incidence, "contains": geom.contains}
        for name, expected in _ref_geometry(family).items():
            assert got[name].dtype == expected.dtype, (family, name)
            assert np.array_equal(got[name], expected), (family, name)
        count += 1
    assert count == 2 * len(SUITES) * 60 + 63 + 300


def test_refined_atoms_are_bitwise_the_former_numpy_pipeline():
    rng = np.random.default_rng(7)
    for n in range(300):
        family = _random_deep_family(rng)
        part = atoms_of(family, n % 3)
        levels, positions = _ref_atoms(family, n % 3)
        assert part.levels.dtype == levels.dtype and part.positions.dtype == positions.dtype
        assert np.array_equal(part.levels, levels) and np.array_equal(part.positions, positions)


@pytest.mark.parametrize("seed", [1, 7])
def test_own_atom_ranges_match_atom_ranges(seed):
    for family in _suite_families(seed):
        geom = FamilyGeometry(family)
        expected = geom.part.atom_ranges(geom.levels, geom.positions)
        assert geom.ranges.dtype == expected.dtype
        assert np.array_equal(geom.ranges, expected)


@pytest.mark.parametrize("seed", [1, 7])
def test_outside_partition_names_an_unaligned_member(seed):
    for family in _suite_families(seed):
        # a partition at the deepest member level, except that the deepest
        # member's parent stays one atom; members inside it are unaligned
        up = family.members[-1].parent()
        atoms = [a for a in subdivide(ROOT, up.level + 1) if not up.encloses(a)]
        part = AtomPartition(ROOT, sorted(atoms + [up], key=lambda a: a.left))
        unaligned = next(q for q in family.members if q != up and up.encloses(q))
        f = StepFunction(part, np.ones(len(part)), nonneg=True)
        with pytest.raises(ParameterError, match=re.escape(f"{unaligned} is not aligned")):
            apply_sparse(family, ExponentConfig(2.0, 2.0, 1.0, 1.0), LEBESGUE, f)


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


def _step_density(f):
    """f's cell averages on the depth-6 cells, as a StepFunction."""
    return StepFunction(uniform_partition(ROOT, 6), np.ldexp(f.grid_masses(ROOT, 6), 6), nonneg=True)


def test_principal_cubes_match_encloses_loops():
    # the suite's own densities, and the same densities as step functions
    for i, step in itertools.product(range(100), (False, True)):
        inst = make_instance("principal", 7, i)
        family, sigma = inst.family, inst.sigma
        f = _step_density(inst.extras["f"]) if step else inst.extras["f"]
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
        assert got.averages == pytest.approx(avg, rel=1e-14)
        assert all(got.principal_of(q) == parent[q] for q in members)
        assert got.principal_mask.tolist() == [q in children for q in members]
        assert build_principal_cubes(family, f, sigma) == got
        # the rule is scale-free, so only the averages tell these apart
        doubled = build_principal_cubes(family, f.scaled(2.0), sigma)
        assert doubled.principals == got.principals and doubled != got


def test_geometry_masses_make_no_scalar_mass_calls(monkeypatch):
    # every mass goes through one `masses` kernel call per array
    calls = []
    for cls in (PowerWeight, PiecewiseWeight):
        scalar = cls.mass
        monkeypatch.setattr(
            cls, "mass", lambda self, iv, scalar=scalar: calls.append(iv) or scalar(self, iv)
        )
    members = [DyadicInterval(k, m) for k in range(5) for m in range(1 << k)]
    family = SparseFamily(tuple(members + [DyadicInterval(5, 2 * m) for m in range(9)]))
    assert len(family) == 40
    sigma = PiecewiseWeight(3, np.linspace(0.5, 4.0, 8))
    omega = PowerWeight(-0.5)
    geom = FamilyGeometry(family)
    for w in (sigma, omega):
        atom_m, member_m = geom.masses(w)
        assert len(atom_m) == len(geom.part) and len(member_m) == 40
    cfg = ExponentConfig(2.0, 2.0, 1.0, 0.5)
    two_weight_char(omega, sigma, cfg, family)
    classical_ap(omega, sigma, 2.0, family)
    ainfty(sigma, depth=6)
    verify_thm42(family, cfg, omega, sigma)
    check_lemma43(family, omega, sigma, MeasureEstimateQuery(0.0, 0.5, 0.5), ROOT)
    for f in (PowerWeight(0.5), sigma.pow(2.0)):
        stopping = build_principal_cubes(family, f, sigma)
        principal_sum_bound(stopping, f, sigma, 2.0)
    assert calls == []
