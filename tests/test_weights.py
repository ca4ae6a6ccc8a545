import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sparselab import (
    LEBESGUE,
    ROOT,
    DegenerateInstanceError,
    DyadicInterval,
    ExponentConfig,
    ParameterError,
    PiecewiseWeight,
    PowerWeight,
    ainfty,
    average,
    chain_family,
    check_lemma43,
    classical_ap,
    dyadic_maximal,
    feasibility,
    make_instance,
    one_weight_apq,
    two_weight_char,
    weighted_average,
)
from sparselab.weights import product_masses


def quad_mass(density, interval, **kw):
    val, err = integrate.quad(density, interval.left, interval.right, **kw)
    assert err < 1e-8
    return val


# ------------------------------------------------------------------ masses


@pytest.mark.parametrize("beta", [0.0, 1.5, -0.5, -0.9, 2.0])
@pytest.mark.parametrize("iv", [ROOT, DyadicInterval(3, 5), DyadicInterval(6, 1)])
def test_power_mass_against_quadrature(beta, iv):
    w = PowerWeight(beta, coeff=1.7)
    expected = quad_mass(lambda x: 1.7 * x**beta, iv)
    assert math.isclose(w.mass(iv), expected, rel_tol=1e-8)


def test_power_mass_singular_origin():
    # integrable singularity: antiderivative form must stay exact
    w = PowerWeight(-0.5)
    assert math.isclose(w.mass(ROOT), 2.0, rel_tol=1e-15)
    assert math.isclose(
        w.mass(DyadicInterval(4, 0)), 2.0 * 0.25, rel_tol=1e-15
    )


def test_piecewise_mass_against_quadrature():
    vals = [0.5, 2.0, 1.0, 4.0]
    w = PiecewiseWeight(2, vals)

    def density(x):
        return vals[min(int(4 * x), 3)]

    for iv in (ROOT, DyadicInterval(1, 1), DyadicInterval(2, 2)):
        assert math.isclose(w.mass(iv), quad_mass(density, iv), rel_tol=1e-12)
    # finer than the weight grid: constant on the cell
    assert math.isclose(w.mass(DyadicInterval(4, 5)), 2.0 / 16.0, rel_tol=1e-15)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=8, max_size=8
    ),
    st.integers(min_value=0, max_value=3),
)
def test_piecewise_mass_additive(vals, level):
    w = PiecewiseWeight(3, vals)
    for pos in range(1 << level):
        q = DyadicInterval(level, pos)
        kids = q.children()
        assert math.isclose(
            w.mass(q), w.mass(kids[0]) + w.mass(kids[1]), rel_tol=1e-12
        )


@given(st.floats(min_value=-0.9, max_value=3.0), st.integers(0, 5))
def test_power_mass_additive(beta, level):
    w = PowerWeight(beta)
    q = DyadicInterval(level, (1 << level) - 1)
    kids = q.children()
    assert math.isclose(
        w.mass(q), w.mass(kids[0]) + w.mass(kids[1]), rel_tol=1e-12
    )


def test_piecewise_cell_masses_exact():
    # one cell is its density times the cell length, with no prefix-sum
    # difference in between
    for seed in range(20):
        vals = 10.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, 64)
        w = PiecewiseWeight(6, vals)
        for i in range(64):
            assert w.mass(DyadicInterval(6, i)) == vals[i] * 2.0**-6
        assert np.array_equal(w.grid_masses(ROOT, 6), vals * 2.0**-6)


def test_lemma43_sum_matches_exact_masses():
    # top [53/64, 54/64): the prefix-sum mass missed the exact sum by 2.1e-12
    inst = make_instance("lemma43", 34, 75)
    query, top = inst.extras["query"], inst.extras["top"]
    assert top == DyadicInterval(6, 53)

    def exact_mass(w, iv):
        lo, hi = iv.ticks(6)
        return float(sum(Fraction(v) for v in w.values[lo:hi].tolist()) / 64)

    expected = math.fsum(
        q.length**query.a
        * exact_mass(inst.sigma, q) ** query.b
        * exact_mass(inst.omega, q) ** query.c
        for q in inst.family.members
        if top.encloses(q)
    )
    rep = check_lemma43(inst.family, inst.omega, inst.sigma, query, top)
    assert rep.lhs == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("level", [20, 30, 40])
def test_power_mass_deep_right_end(level):
    # right^e - left^e cancels next to x = 1; compare with 60-digit arithmetic
    beta = -0.9
    iv = DyadicInterval(level, 2**level - 1)
    with mpmath.workdps(60):
        e = mpmath.mpf(beta) + 1
        left = mpmath.mpf(iv.position) / mpmath.mpf(2) ** level
        right = mpmath.mpf(iv.position + 1) / mpmath.mpf(2) ** level
        exact = (right**e - left**e) / e
        w = PowerWeight(beta)
        assert float(abs(w.mass(iv) - exact) / exact) < 1e-13
        grid = w.grid_masses(DyadicInterval(level - 2, iv.position >> 2), 2)
        assert float(abs(grid[-1] - exact) / exact) < 1e-13


def _arrays(intervals):
    return (
        np.array([q.level for q in intervals], dtype=np.int64),
        np.array([q.position for q in intervals], dtype=np.int64),
    )


def _exact_piecewise_mass(vals, depth, iv):
    if iv.level <= depth:
        lo, hi = iv.ticks(depth)
        return sum(Fraction(v) for v in vals[lo:hi]) / 2**depth
    return Fraction(vals[iv.position >> (iv.level - depth)]) / 2**iv.level


@st.composite
def _weight_and_intervals(draw):
    depth = draw(st.integers(0, 6))
    vals = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=1 << depth, max_size=1 << depth
    ))
    interval = st.integers(0, depth + 4).flatmap(
        lambda k: st.integers(0, (1 << k) - 1).map(lambda m: DyadicInterval(k, m))
    )
    return depth, vals, draw(st.lists(interval, min_size=1, max_size=40))


@given(_weight_and_intervals())
def test_piecewise_masses_kernel(case):
    # mixed levels above and below the cell depth in one call
    depth, vals, ivs = case
    w = PiecewiseWeight(depth, vals)
    got = w.masses(*_arrays(ivs))
    assert np.array_equal(got, [w.mass(q) for q in ivs])
    for m, q in zip(got.tolist(), ivs):
        exact = _exact_piecewise_mass(vals, depth, q)
        assert abs(Fraction(m) - exact) <= Fraction(1, 10**14) * exact


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.0, 0.7, 2.0])
def test_power_masses_against_mpmath(beta):
    # beta = 0 is the plain-difference branch e = 1; position 0 the other one
    w = PowerWeight(beta, coeff=1.3)
    ivs = [
        DyadicInterval(k, m)
        for k in range(41)
        for m in sorted({0, 1, (1 << k) // 3, (1 << k) - 1})
        if m < 1 << k
    ]
    got = w.masses(*_arrays(ivs))
    with mpmath.workdps(60):
        e = mpmath.mpf(beta) + 1
        for m, q in zip(got.tolist(), ivs):
            left = mpmath.mpf(q.position) / mpmath.mpf(2) ** q.level
            right = mpmath.mpf(q.position + 1) / mpmath.mpf(2) ** q.level
            exact = mpmath.mpf(1.3) * (right**e - left**e) / e
            assert float(abs(m - exact) / exact) < 1e-13, q


def test_masses_of_no_intervals():
    empty = np.array([], dtype=np.int64)
    for w in (PowerWeight(-0.5), LEBESGUE, PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])):
        got = w.masses(empty, empty)
        assert got.shape == (0,) and got.dtype == np.float64


def test_piecewise_values_view_the_tree():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    w = PiecewiseWeight(2, vals)
    assert np.array_equal(w.values, vals)
    assert not w.values.flags.writeable
    assert vals.flags.writeable  # the caller's array is copied, not frozen
    vals[0] = 100.0
    assert w.mass(ROOT) == 2.5


def test_product_masses_against_exact_products():
    f = PiecewiseWeight(2, [0.5, 2.0, 1.25, 4.0])
    g = PiecewiseWeight(3, [3.0, 0.1, 1.0, 7.0, 0.25, 2.0, 5.0, 0.75])
    ivs = [DyadicInterval(k, m) for k in range(6) for m in range(1 << k)]
    cells = [Fraction(f.values[c >> 1]) * Fraction(g.values[c]) for c in range(8)]
    for m, q in zip(product_masses(f, g, *_arrays(ivs)).tolist(), ivs):
        assert m == pytest.approx(float(_exact_piecewise_mass(cells, 3, q)), rel=1e-15)

    # a power factor: exact above, on and below the piecewise cells, down to
    # level 40, with no grid finer than the cells
    p = PowerWeight(-0.5, coeff=2.0)
    ivs += [DyadicInterval(k, m) for k in (12, 40) for m in (0, 5, (1 << k) - 1)]
    with mpmath.workdps(40):
        for m, q in zip(product_masses(p, g, *_arrays(ivs)).tolist(), ivs):
            # 2 x^(-1/2) integrates to 4 sqrt(x); g is constant on each depth-3 cell
            k = max(q.level, 3)
            lo, hi = (q.position << (k - q.level), (q.position + 1) << (k - q.level))
            exact = mpmath.fsum(
                g.values[c >> (k - 3)] * 4
                * (mpmath.sqrt(mpmath.mpf(c + 1) / 2**k) - mpmath.sqrt(mpmath.mpf(c) / 2**k))
                for c in range(lo, hi)
            )
            assert float(abs(m - exact) / exact) < 1e-14, q

    both = product_masses(p, PowerWeight(1.5, coeff=3.0), *_arrays(ivs))
    assert np.array_equal(both, PowerWeight(1.0, coeff=6.0).masses(*_arrays(ivs)))


def _former_product_masses(f, g, lvl, pos):
    """product_masses as it was: a PiecewiseWeight of the cell densities, built per call."""
    cells = max(w.depth for w in (f, g) if isinstance(w, PiecewiseWeight))
    grid = (np.full(1 << cells, cells), np.arange(1 << cells))
    prod = PiecewiseWeight(cells, np.ldexp(f.masses(*grid) * g.masses(*grid), 2 * cells))
    out = prod.masses(lvl, pos)
    fine = lvl > cells
    if fine.any():
        lf, pf = lvl[fine], pos[fine]
        out[fine] = np.ldexp(f.masses(lf, pf) * g.masses(lf, pf), lf)
    return out


@pytest.mark.parametrize("seed", [1, 7])
def test_product_masses_are_bitwise_the_former_weight_route(seed):
    # the principal suite's f and sigma, instances 0-99 (a piecewise f on two
    # of every three, a power f on the third; sigma piecewise): the members,
    # their parents and the intervals 12 levels below each member, against
    # the route that built a PiecewiseWeight of the product on every call
    kinds = set()
    for index in range(100):
        inst = make_instance("principal", seed, index)
        f, sigma = inst.extras["f"], inst.sigma
        kinds.add(type(f))
        assert isinstance(sigma, PiecewiseWeight)
        lvl, pos = _arrays(inst.family.members)
        lvl = np.concatenate([lvl, np.maximum(lvl - 1, 0), lvl + 12])
        pos = np.concatenate([pos, pos >> (lvl[: len(pos)] > 0), pos << 12])
        got = product_masses(f, sigma, lvl, pos)
        assert np.array_equal(got, _former_product_masses(f, sigma, lvl, pos)), index
    assert kinds == {PiecewiseWeight, PowerWeight}


def test_pow_and_scaled():
    w = PowerWeight(-0.5, coeff=2.0)
    # (2 x^{-1/2})^2 = 4/x is not integrable; pow must refuse it
    with pytest.raises(ParameterError):
        w.pow(2.0)
    half = w.pow(0.5)
    assert math.isclose(
        half.mass(ROOT), quad_mass(lambda x: math.sqrt(2.0) * x**-0.25, ROOT)
    )
    assert math.isclose(w.scaled(3.0).mass(ROOT), 3.0 * w.mass(ROOT), rel_tol=1e-15)
    pw = PiecewiseWeight(1, [1.0, 4.0])
    assert math.isclose(pw.pow(0.5).mass(ROOT), 0.5 + 1.0, rel_tol=1e-15)
    with pytest.raises(ParameterError):
        PiecewiseWeight(1, [0.0, 1.0]).pow(-1.0)


def test_weighted_average_product_mass():
    # power times piecewise handled by refining to the piecewise grid
    f = PowerWeight(-0.5)
    g = PiecewiseWeight(1, [3.0, 1.0])

    def density(x):
        return x**-0.5 * (3.0 if x < 0.5 else 1.0)

    val, err = integrate.quad(density, 0.0, 1.0, points=[0.5])
    expected = val / g.mass(ROOT)
    assert math.isclose(weighted_average(f, g, ROOT), expected, rel_tol=1e-10)


def test_average_lebesgue():
    w = PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])
    assert math.isclose(average(w, DyadicInterval(1, 0)), 1.5, rel_tol=1e-15)


# ------------------------------------------------------------------ maximal / ainfty


def brute_ainfty(w, depth):
    """Direct evaluation of the truncated Fujii-Wilson supremum."""
    best = 1.0
    for k in range(depth + 1):
        for m in range(1 << k):
            q = DyadicInterval(k, m)
            if w.mass(q) <= 0.0:
                continue
            total = 0.0
            for j in range(1 << (depth - k)):
                atom = DyadicInterval(depth, (m << (depth - k)) + j)
                anc_avgs = []
                cur = atom
                while True:
                    if q.encloses(cur):
                        anc_avgs.append(w.mass(cur) / cur.length)
                    if cur.level == 0:
                        break
                    cur = cur.parent()
                total += max(anc_avgs) * atom.length
            best = max(best, total / w.mass(q))
    return best


@pytest.mark.parametrize(
    "w",
    [
        PiecewiseWeight(1, [1.0, 3.0]),
        PiecewiseWeight(2, [8.0, 1.0, 2.0, 1.0]),
        PowerWeight(-0.5),
        PowerWeight(2.0),
    ],
)
def test_ainfty_matches_bruteforce(w):
    for depth in (2, 4):
        got = ainfty(w, depth=depth)
        assert math.isclose(got.value, brute_ainfty(w, depth), rel_tol=1e-12)


def test_ainfty_frozen_values():
    assert math.isclose(
        ainfty(PiecewiseWeight(1, [1.0, 3.0]), depth=1).value, 1.25, rel_tol=1e-15
    )
    assert ainfty(LEBESGUE, depth=8).value == 1.0


def test_ainfty_monotone_in_depth():
    w = PiecewiseWeight(2, [8.0, 1.0, 2.0, 1.0])
    vals = [ainfty(w, depth=d).value for d in range(2, 8)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)


def test_ainfty_zero_mass_rejected():
    with pytest.raises(DegenerateInstanceError):
        ainfty(PiecewiseWeight(1, [0.0, 0.0]), depth=2)


def test_dyadic_maximal_simple():
    w = PiecewiseWeight(1, [1.0, 3.0])
    f = dyadic_maximal(w, ROOT, 1)
    # averages: root 2, halves 1 and 3; downward max is (2, 3)
    assert np.allclose(f.values, [2.0, 3.0])


# ------------------------------------------------------------------ characteristics


def test_two_weight_char_chain_closed_form():
    w = PowerWeight(-0.5)
    for K in (2, 4, 7):
        cfg = ExponentConfig(2, 2, 1, 1)
        rep = two_weight_char(w, w, cfg, chain_family(K))
        assert math.isclose(rep.value, 2.0 * 2.0 ** (K / 2.0), rel_tol=1e-12)
        assert rep.attained_at == DyadicInterval(K, 0)


def test_two_weight_reduces_to_one_weight():
    # omega = w^q, sigma = w^{-p'}, alpha = 1/q + 1/p' gives A_pq^{1/q}
    w = PowerWeight(0.3)
    p, q = 2.0, 4.0
    p_conj = 2.0
    alpha = 1.0 / q + 1.0 / p_conj
    cfg = ExponentConfig(p, q, 1, alpha)
    fam = chain_family(6)
    lhs = two_weight_char(w.pow(q), w.pow(-p_conj), cfg, fam).value
    rhs = one_weight_apq(w, p, q, test_set=fam.members).value
    assert math.isclose(lhs, rhs ** (1.0 / q), rel_tol=1e-12)


def test_classical_ap_identity():
    omega = PiecewiseWeight(2, [1.0, 2.0, 0.5, 4.0])
    sigma = PiecewiseWeight(2, [2.0, 1.0, 3.0, 0.25])
    p = 2.0
    fam = chain_family(2)
    cfg = ExponentConfig(p, p, 1, 1)
    lhs = two_weight_char(omega, sigma, cfg, fam).value
    rhs = classical_ap(omega, sigma, p, fam)
    assert math.isclose(lhs, rhs ** (1.0 / p), rel_tol=1e-12)


def test_classical_ap_frozen():
    # |Q|^{-2} omega(Q) sigma(Q) maximized at the smallest chain interval
    w = PowerWeight(-0.5)
    val = classical_ap(w, w, 2.0, chain_family(4))
    assert math.isclose(val, 64.0, rel_tol=1e-12)


def test_one_weight_power_frozen():
    # w = x^{(1-eps)/p'} on origin-anchored intervals, eps = 1/2, p=2, q=4:
    # <w^q> = 1/(q(1-eps)/p'+1) = 1/2, <w^{-p'}> = 1/eps = 2, q/p' = 2
    w = PowerWeight(0.25)
    rep = one_weight_apq(w, 2.0, 4.0, test_set=[ROOT])
    assert math.isclose(rep.value, 0.5 * 2.0**2.0, rel_tol=1e-12)


def test_one_weight_rejects_nonintegrable():
    with pytest.raises(ParameterError):
        one_weight_apq(PowerWeight(-0.5), 2.0, 2.0)


def test_empty_test_sets_are_parameter_errors():
    # both once returned -1.0, a value no supremum of these characteristics takes
    for compute in (
        lambda: one_weight_apq(LEBESGUE, 2.0, 2.0, test_set=[]),
        lambda: classical_ap(LEBESGUE, LEBESGUE, 2.0, []),
        lambda: classical_ap(LEBESGUE, LEBESGUE, 2.0, iter(())),
    ):
        with pytest.raises(ParameterError, match="empty test set"):
            compute()


def test_one_weight_scan_includes_chain():
    w = PowerWeight(0.25)
    scan = one_weight_apq(w, 2.0, 4.0, depth=6)
    anchored = one_weight_apq(w, 2.0, 4.0, test_set=[DyadicInterval(k, 0) for k in range(7)])
    assert scan.value >= anchored.value - 1e-15


# ------------------------------------------------------------------ feasibility


def test_feasibility_cases():
    ok = feasibility(ExponentConfig(2, 4, 1, 0.75))
    assert ok.feasible and ok.sobolev_line
    strict = feasibility(ExponentConfig(2, 4, 1, 0.5))
    assert strict.feasible and not strict.sobolev_line
    bad = feasibility(ExponentConfig(2, 4, 1, 1.0))
    assert not bad.feasible
    assert "infeasible" in bad.diagnostic
    assert bad.diagonal_required


def test_feasibility_q_range():
    rep = feasibility(ExponentConfig(2, 4, 1, 0.75))
    lo, hi = rep.q_range
    assert lo == 2.0
    assert math.isclose(hi, 2.0 / (2.0 * -0.25 + 1.0), rel_tol=1e-12)


def test_exponent_config_validation():
    with pytest.raises(ParameterError):
        ExponentConfig(1.0, 2, 1, 1)
    with pytest.raises(ParameterError):
        ExponentConfig(3, 2, 1, 1)
    with pytest.raises(ParameterError):
        ExponentConfig(2, 2, 0.0, 1)
    with pytest.raises(ParameterError):
        ExponentConfig(2, 2, 1, 1.2)
    cfg = ExponentConfig(2, 2, 3, 1)
    with pytest.raises(ParameterError):
        _ = cfg.outer_conj
