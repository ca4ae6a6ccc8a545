"""Tests for the power-weight sweeps.

The implementation accumulates everything in log2 space and evaluates the
three square-function norms as one chain sum, which streams its shells in
fixed-length chunks until they turn exactly geometric (g(l+1) > 54) and
sums the rest in closed form; a long streamed head (the dual rhs) is
summed by Gregory's formula instead. The oracles below check it four ways:
naive shell sums in plain double arithmetic at eps = 1/4 and 1/8, where
the largest intermediate is ~2^{450} and doubles still hold it; 40-digit
mpmath shell sums, shell by shell, of all three norms at eps = 2^-8 and
2^-9 and of the rhs at 2^-11; invariance under the chunk length; and
Gregory summation against closed-form geometric sums up to n = 2^44 and
against the streamed sum. The coefficient-identity check, which skips
every k its rounding envelope proves cannot change its value, must equal
the plain array expressions over every k bitwise: at fixed rows, at the
chunk length, on the dyadic grid, and on random rows with short chunks;
a second work guard counts the k it evaluates.
The deep grid eps = 2^-9 ... 2^-17 checks slopes and tails where the
benchmark runs, a tracemalloc guard keeps every array bounded
independently of K, and a work guard counts the summand evaluations of a
deep row. Characteristics are cross-checked against the independent
one-weight scanner, and the test-function norm against its closed form
eps^{-1/p}.
"""

import math
import tracemalloc
import unittest.mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparselab.sharpness as sharpness
from sparselab import (
    ParameterError,
    PowerWeight,
    ROOT,
    SharpnessConfig,
    SweepRow,
    default_eps_grid,
    dual_quantities,
    expected_slope,
    fit_slope,
    one_weight_apq,
    primal_quantities,
    sweep,
)

P243 = (2.0, 4.0, 0.75)
P487 = (4.0, 8.0, 0.875)


def shell_mass(l, e):
    return 2.0 ** (-l * (e + 1.0)) * (1.0 - 2.0 ** -(e + 1.0)) / (e + 1.0)


def geom_to(l, growth):
    # sum of 2^{growth j} over j = 0..l
    return (2.0 ** (growth * (l + 1.0)) - 1.0) / (2.0**growth - 1.0)


def naive_primal(eps, p, q, alpha, k):
    pc = p / (p - 1.0)
    m = q * (1.0 - eps) / pc
    growth = 2.0 * (alpha - eps)
    terms = [eps**-q * geom_to(l, growth) ** (q / 2.0) * shell_mass(l, m) for l in range(k)]
    core = eps**-q * geom_to(k, growth) ** (q / 2.0) * 2.0 ** (-k * (m + 1.0)) / (m + 1.0)
    s_exact = math.fsum(terms) + core
    single = [
        eps**-q * 2.0 ** (q * (alpha - eps) * l) * shell_mass(l, m) for l in range(k)
    ]
    core_low = eps**-q * 2.0 ** (q * (alpha - eps) * k) * 2.0 ** (-k * (m + 1.0)) / (m + 1.0)
    s_low = math.fsum(single) + core_low
    d = (m + 1.0) - q * (alpha - eps)
    tail_low = single[0] * 2.0 ** (-k * d) / (1.0 - 2.0**-d) / s_low / q
    major = (
        eps**-q
        * (2.0 ** (growth * (k + 1.0)) / (2.0**growth - 1.0)) ** (q / 2.0)
        * shell_mass(k, m)
    )
    tail_ex = major / (1.0 - 2.0**-d) / s_exact / q
    return s_low ** (1.0 / q), s_exact ** (1.0 / q), tail_low, tail_ex


def naive_dual(eps, p, q, alpha, k):
    pc = p / (p - 1.0)
    qc = q / (q - 1.0)
    g = 2.0 * eps
    mj = (qc + 1.0) * eps - 1.0
    terms = [(eps * geom_to(l, g)) ** (qc / 2.0) * shell_mass(l, mj) for l in range(k)]
    core = (eps * geom_to(k, g)) ** (qc / 2.0) * 2.0 ** (-k * (mj + 1.0)) / (mj + 1.0)
    s_rhs = math.fsum(terms) + core
    h = 2.0 * (alpha - eps)
    u = pc * (1.0 - eps) / q
    terms2 = [
        (0.25 / eps * geom_to(l, h)) ** (pc / 2.0) * shell_mass(l, u) for l in range(k)
    ]
    core2 = (0.25 / eps * geom_to(k, h)) ** (pc / 2.0) * 2.0 ** (-k * (u + 1.0)) / (u + 1.0)
    s_lhs = math.fsum(terms2) + core2

    major = (
        (eps * 2.0 ** (g * (k + 1.0)) / (2.0**g - 1.0)) ** (qc / 2.0) * shell_mass(k, mj)
    )
    gap = math.fsum(
        (2.0 ** (g * j) - 1.0) ** (qc / 2.0) * 2.0 ** (-j * (mj + 1.0))
        for j in range(1, k + 1)
    ) + 2.0 ** (-(k + 1.0) * eps) / (1.0 - 2.0**-eps)
    tail_rhs = major * gap / s_rhs / qc

    d2 = (u + 1.0) - pc * (alpha - eps)
    major2 = (
        (0.25 / eps * 2.0 ** (h * (k + 1.0)) / (2.0**h - 1.0)) ** (pc / 2.0)
        * shell_mass(k, u)
    )
    tail_lhs = major2 / (1.0 - 2.0**-d2) / s_lhs / pc
    return s_rhs ** (1.0 / qc), s_lhs ** (1.0 / pc), tail_rhs, tail_lhs


def mp_shell_sum(k, lead, c, g, rate):
    """40-digit lead * (sum_{l<k} G_l^c J_l + G_k^c 2^{-k rate} / rate) and the tail majorant.

    G_l = (2^{g(l+1)} - 1)/(2^g - 1) and J_l = 2^{-l rate}(1 - 2^-rate)/rate,
    summed shell by shell.
    """
    with mpmath.workdps(40):
        two_g, step = mpmath.mpf(2) ** g, mpmath.mpf(2) ** -rate
        total, grow, decay = mpmath.mpf(0), two_g, mpmath.mpf(1)
        for _ in range(k):
            total += ((grow - 1) / (two_g - 1)) ** c * decay
            grow *= two_g
            decay *= step
        total *= (1 - step) / rate
        core = ((grow - 1) / (two_g - 1)) ** c * decay / rate
        major = (grow / (two_g - 1)) ** c * decay * (1 - step) / rate
        return lead * (total + core), lead * major


def mp_primal(eps, p, q, alpha, k):
    """af_exact and tail_exact to 40 digits, with p' = p/(p-1) exact."""
    with mpmath.workdps(40):
        eps, p, q, alpha = map(mpmath.mpf, (eps, p, q, alpha))
        m = q * (1 - eps) * (p - 1) / p
        s, major = mp_shell_sum(k, eps**-q, q / 2, 2 * (alpha - eps), m + 1)
        d = m + 1 - q * (alpha - eps)
        return s ** (1 / q), major / (1 - mpmath.mpf(2) ** -d) / s / q


def mp_lhs(eps, p, q, alpha, k):
    """lhs_norm and tail_lhs to 40 digits, with p' = p/(p-1) exact."""
    with mpmath.workdps(40):
        eps, p, q, alpha = map(mpmath.mpf, (eps, p, q, alpha))
        pc = p / (p - 1)
        u = pc * (1 - eps) / q
        s, major = mp_shell_sum(k, (4 * eps) ** (-pc / 2), pc / 2, 2 * (alpha - eps), u + 1)
        d = u + 1 - pc * (alpha - eps)
        return s ** (1 / pc), major / (1 - mpmath.mpf(2) ** -d) / s / pc


def mp_rhs(eps, q, k):
    """rhs_norm to 40 digits, with q' = q/(q-1) exact."""
    with mpmath.workdps(40):
        eps, q = mpmath.mpf(eps), mpmath.mpf(q)
        qc = q / (q - 1)
        s, _ = mp_shell_sum(k, eps ** (qc / 2), qc / 2, 2 * eps, (qc + 1) * eps)
        return s ** (1 / qc)


@pytest.mark.parametrize("pqa", [P243, P487])
@pytest.mark.parametrize("eps", [2.0**-8, 2.0**-9])
def test_shell_sums_match_mpmath(pqa, eps):
    p, q, alpha = pqa
    k = math.ceil(20.0 / eps)
    prim = primal_quantities(eps, p, q, alpha, k)
    dual = dual_quantities(eps, p, q, alpha, k)
    af, tail_ex = mp_primal(eps, p, q, alpha, k)
    lhs, tail_lhs = mp_lhs(eps, p, q, alpha, k)
    assert prim.af_exact == pytest.approx(float(af), rel=1e-12)
    assert dual.lhs_norm == pytest.approx(float(lhs), rel=1e-12)
    assert dual.rhs_norm == pytest.approx(float(mp_rhs(eps, q, k)), rel=1e-14)
    assert prim.tail_exact == pytest.approx(float(tail_ex), rel=1e-9)
    assert dual.tail_lhs == pytest.approx(float(tail_lhs), rel=1e-9)


@pytest.mark.parametrize("pqa", [P243, P487])
def test_gregory_rhs_matches_mpmath(pqa):
    p, q, alpha = pqa
    eps = 2.0**-11  # K = 40960 rhs shells, summed by Gregory's formula
    k = math.ceil(20.0 / eps)
    assert k >= sharpness._GREGORY_MIN
    got = dual_quantities(eps, p, q, alpha, k).rhs_norm
    assert got == pytest.approx(float(mp_rhs(eps, q, k)), rel=1e-14)


def _shell_term(c, g, rate):
    return lambda j: c * sharpness._v_log2_2pow_m1(g * j) - j * rate


def mp_log2_geom(n, d):
    """40-digit log2 sum_{j=1}^{n} 2^{-j d}."""
    with mpmath.workdps(40):
        r = mpmath.mpf(2) ** -mpmath.mpf(d)
        return mpmath.log(r * (1 - r**n) / (1 - r), 2)


def _assert_gregory(n, c, g, rate, d, want):
    got, err = sharpness._log2_sum_gregory(n, g, _shell_term(c, g, rate))
    assert err <= sharpness._GREGORY_TOL
    assert abs(got - float(want)) * math.log(2.0) <= 1e-14
    assert sharpness._log2_shell_sum(n, c, g, rate, d) == got


@pytest.mark.parametrize("n", [2**14, 10**5, 2**22 + 7, 10**9, 2**44])
@pytest.mark.parametrize("decay", [1.0, 20.0, 200.0])
def test_gregory_geometric_series(n, decay):
    # c = 0: sum_{j=1}^{n} 2^{-j rate}, with g small enough that all n
    # terms are the head
    rate = decay / n
    _assert_gregory(n, 0.0, 54.0 / n, rate, rate, mp_log2_geom(n, rate))


@pytest.mark.parametrize("n", [2**14, 10**5, 2**22 + 7, 10**9, 2**44])
@pytest.mark.parametrize("growth", [0.25, 2.0])
def test_gregory_difference_of_geometric_series(n, growth):
    # c = 1: sum_j (2^{gj} - 1) 2^{-j rate} = sum_j 2^{-j d} - sum_j 2^{-j rate}
    d = 20.0 / n
    g = growth * d
    rate = g + d
    with mpmath.workdps(40):
        want = mpmath.log(
            2 ** mp_log2_geom(n, mpmath.mpf(rate) - mpmath.mpf(g)) - 2 ** mp_log2_geom(n, rate), 2
        )
    _assert_gregory(n, 1.0, g, rate, d, want)


@settings(max_examples=25, deadline=None)
@given(
    e=st.floats(11.0, 17.6),
    q_conj=st.sampled_from([4.0 / 3.0, 8.0 / 7.0]),
    data=st.data(),
)
def test_gregory_matches_streamed_rhs_sum(e, q_conj, data):
    # the dual rhs head at a jittered eps; n, log-uniform, stays within the head 27/eps
    eps = 2.0**-e
    log_n = data.draw(st.floats(14.0, min(22.0, math.log2(27.0 / eps))))
    n = math.floor(2.0**log_n)
    term = _shell_term(q_conj / 2.0, 2.0 * eps, (q_conj + 1.0) * eps)
    got, err = sharpness._log2_sum_gregory(n, 2.0 * eps, term)
    want = sharpness._log2_sum_streamed(1, n + 1, term)
    assert err <= sharpness._GREGORY_TOL
    assert abs(got - want) * math.log(2.0) <= 1e-14


def test_gregory_falls_back_to_streaming(monkeypatch):
    eps = 2.0**-12
    n, g, rate = math.ceil(20.0 / eps), 2.0 * eps, 7.0 / 3.0 * eps
    term = _shell_term(2.0 / 3.0, g, rate)
    greg, err = sharpness._log2_sum_gregory(n, g, term)
    assert 0.0 < err <= sharpness._GREGORY_TOL
    stream, streamed = sharpness._log2_sum_streamed, []

    def recorded(lo, hi, log_term):
        streamed.append((lo, hi))
        return stream(lo, hi, log_term)

    monkeypatch.setattr(sharpness, "_log2_sum_streamed", recorded)
    assert sharpness._log2_shell_sum(n, 2.0 / 3.0, g, rate, eps) == greg
    assert streamed == []
    monkeypatch.setattr(sharpness, "_GREGORY_TOL", 0.0)
    assert sharpness._log2_shell_sum(n, 2.0 / 3.0, g, rate, eps) == stream(1, n + 1, term)
    assert streamed == [(1, n + 1)]


def test_legendre_rule_is_numpys_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(sharpness._LEGENDRE_NODES, nodes)
    assert np.array_equal(sharpness._LEGENDRE_WEIGHTS, weights)


def test_gregory_error_estimate_flags_a_rough_summand():
    # 2^{sin j} is not smooth in j on the panel scale 2/g
    n, g = 2**15, 2.0**-10

    def term(j):
        return np.sin(j) - 1e-5 * j

    assert sharpness._log2_sum_gregory(n, g, term)[1] > 1e-3
    assert sharpness._log2_head_sum(n, g, term) == sharpness._log2_sum_streamed(1, n + 1, term)


@pytest.mark.parametrize("pqa", [P243, P487])
def test_deep_dual_row_evaluates_few_summands(pqa, monkeypatch):
    # streaming would evaluate the rhs summand at all K = 2,621,440 shells
    evaluate = sharpness._v_log2_2pow_m1
    points = []

    def counted(x):
        points.append(np.size(x))
        return evaluate(x)

    monkeypatch.setattr(sharpness, "_v_log2_2pow_m1", counted)
    eps = 2.0**-17
    dual_quantities(eps, *pqa, math.ceil(20.0 / eps))
    assert 0 < sum(points) <= 10**4


@pytest.mark.parametrize("pqa", [P243, P487])
def test_chunk_length_does_not_move_values(pqa, monkeypatch):
    p, q, alpha = pqa
    eps = 1.01 * 2.0**-12  # K = 81109: two streamed chunks, five chunks of the coefficient scan
    k = math.ceil(20.0 / eps)
    base = primal_quantities(eps, p, q, alpha, k), dual_quantities(eps, p, q, alpha, k)
    assert base[1].coef_identity_max_rel > 0.0
    for chunk in (2**10, k + 1):
        monkeypatch.setattr(sharpness, "_CHUNK", chunk)
        monkeypatch.setattr(sharpness, "_COEF_SCAN_CHUNK", chunk)
        got = primal_quantities(eps, p, q, alpha, k), dual_quantities(eps, p, q, alpha, k)
        for new, old in zip(got, base):
            for name, a, b in zip(old._fields, new, old):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0), name
        assert got[1].coef_identity_max_rel == base[1].coef_identity_max_rel


@pytest.mark.parametrize("chunk", [2**10, 2**16])
def test_streamed_sum_across_chunk_seams(chunk, monkeypatch):
    # 81,109 dual rhs terms span 80 and 2 chunks
    eps = 1.01 * 2.0**-12
    n = math.ceil(20.0 / eps)
    term = _shell_term(2.0 / 3.0, 2.0 * eps, 7.0 / 3.0 * eps)
    one_chunk = sharpness._log2_sum_streamed(1, n + 1, term)
    monkeypatch.setattr(sharpness, "_CHUNK", chunk)
    assert sharpness._log2_sum_streamed(1, n + 1, term) == pytest.approx(one_chunk, rel=1e-15)


def _coef_plain_diffs(eps, alpha, k_top):
    """a_k - b_k as the plain array expressions over one arange."""
    k = np.arange(k_top + 1, dtype=float)
    log2_eps = math.log2(eps)
    coef_a = k * (alpha - eps) - 0.5 * log2_eps - 1.0
    coef_b = (
        alpha * k
        + (0.5 * log2_eps + eps * k)
        + (-(2.0 * eps) * k - math.log2(2.0 * eps))
    )
    return coef_a - coef_b


def _coef_plain(eps, alpha, k_top):
    """The check's value from the plain array expressions, every k evaluated."""
    diff = _coef_plain_diffs(eps, alpha, k_top)
    return float(np.max(np.abs(np.expm1(diff * math.log(2.0)))))


def _coef_full_scan(eps, alpha, k_top, chunk=2**16):
    """_coef_plain in chunks, for deep rows: every k evaluated, memory bounded."""
    hi, lo = -math.inf, math.inf
    log2_eps = math.log2(eps)
    for start in range(0, k_top + 1, chunk):
        k = np.arange(start, min(start + chunk, k_top + 1), dtype=float)
        coef_a = k * (alpha - eps) - 0.5 * log2_eps - 1.0
        coef_b = (
            alpha * k
            + (0.5 * log2_eps + eps * k)
            + (-(2.0 * eps) * k - math.log2(2.0 * eps))
        )
        diff = coef_a - coef_b
        hi, lo = max(hi, diff.max()), min(lo, diff.min())
    return float(np.max(np.abs(np.expm1(np.array([hi, lo]) * math.log(2.0)))))


@pytest.mark.parametrize("alpha", [0.75, 0.875])
def test_coef_identity_in_place_matches_array_expressions(alpha):
    # the plain array expressions over one arange, as written before the
    # check was evaluated in place; the max must agree bitwise
    for e in (9.013, 11.5, 12.98, 14.02):
        eps = 2.0**-e
        k_top = math.ceil(20.0 / eps)
        assert sharpness._coef_identity_max_rel(eps, alpha, k_top) == _coef_plain(eps, alpha, k_top)


@pytest.mark.parametrize("alpha", [0.75, 0.875])
@pytest.mark.parametrize("e", [9.1, 10.7])
def test_coef_identity_negative_extreme(alpha, e):
    # here min_k (a_k - b_k) = -2 max_k (a_k - b_k), so the check is set by
    # its negative extreme
    eps = 2.0**-e
    k_top = math.ceil(20.0 / eps)
    diff = _coef_plain_diffs(eps, alpha, k_top)
    assert -diff.min() > diff.max() > 0.0
    expected = float(np.max(np.abs(np.expm1(diff * math.log(2.0)))))
    assert sharpness._coef_identity_max_rel(eps, alpha, k_top) == expected


@pytest.mark.parametrize("alpha", [0.75, 0.875])
@pytest.mark.parametrize("e", [9.1, 10.7])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_coef_identity_at_the_chunk_length(alpha, e, offset, monkeypatch):
    # K + 1 one below, equal to and one above the chunk length, on the rows
    # set by their negative extreme: one chunk scanned outright, or a chunk
    # and a single k
    eps = 2.0**-e
    k_top = math.ceil(20.0 / eps)
    monkeypatch.setattr(sharpness, "_COEF_SCAN_CHUNK", k_top + 1 - offset)
    assert sharpness._coef_identity_max_rel(eps, alpha, k_top) == _coef_plain(eps, alpha, k_top)


@settings(max_examples=100, deadline=None)
@given(
    u=st.floats(3.0, 14.0),
    short_alpha=st.sampled_from([0.75, 0.875, None]),
    extra=st.integers(0, 5000),
    chunk=st.sampled_from([2**8, 2**9, 2**10]),
    data=st.data(),
)
def test_coef_identity_bitwise_with_the_envelope(u, short_alpha, extra, chunk, data):
    # eps = 2^-u, dyadic or not; alpha short (k alpha exact) or any float in
    # [2 eps, 1]; K = ceil(20/eps) or larger. Short chunks make the scan cross
    # many chunk seams and binade edges of a_k, where the envelope splits its
    # range; the value must be the plain expressions' over every k bitwise
    eps = 2.0**-u
    alpha = short_alpha or data.draw(st.floats(2.0 * eps, 1.0), label="alpha")
    k_top = math.ceil(20.0 / eps) + extra
    with unittest.mock.patch.object(sharpness, "_COEF_SCAN_CHUNK", chunk):
        got = sharpness._coef_identity_max_rel(eps, alpha, k_top)
    assert got == _coef_plain(eps, alpha, k_top)


@pytest.mark.parametrize("alpha", [0.75, 0.875])
def test_coef_identity_is_zero_on_the_dyadic_grid(alpha):
    # every operation is exact at eps = 2^-4 ... 2^-17: the envelope proves
    # the value 0.0 that the full scan finds
    for e in range(4, 18):
        eps = 2.0**-e
        k_top = math.ceil(20.0 / eps)
        assert sharpness._coef_envelope(eps, alpha, 0, k_top) == (0.0, 0.0)
        assert sharpness._coef_identity_max_rel(eps, alpha, k_top) == 0.0
        assert _coef_full_scan(eps, alpha, k_top) == 0.0


def _seed1_deepest_eps():
    # the sharpness-deep benchmark's eps at level 17 for seed 1:
    # 2^(-k + u_k), u_k uniform in [-0.02, 0.02] for k = 9..17
    return 2.0 ** (-17 + np.random.default_rng(1).uniform(-0.02, 0.02, 9)[-1])


@pytest.mark.parametrize("alpha", [0.75, 0.875])
def test_coef_identity_scans_few_indices(alpha, monkeypatch):
    # the k whose d_k are evaluated, and the bisections for binade edges
    diffs, coef_a = sharpness._coef_diffs, sharpness._coef_a
    scanned, bisected = [], []

    def counted_diffs(k, *args):
        scanned.append(k.size)
        return diffs(k, *args)

    def counted_a(*args):
        bisected.append(args)
        return coef_a(*args)

    monkeypatch.setattr(sharpness, "_coef_diffs", counted_diffs)
    monkeypatch.setattr(sharpness, "_coef_a", counted_a)
    # a dyadic eps: the envelope over 0..K is 0.0 and no k is evaluated
    eps = 2.0**-17
    assert sharpness._coef_identity_max_rel(eps, alpha, math.ceil(20.0 / eps)) == 0.0
    assert sum(scanned) == 0
    # the deepest jittered row of seed 1: 47% (3/4) and 9% (7/8) of K + 1 evaluated
    eps = _seed1_deepest_eps()
    k_top = math.ceil(20.0 / eps)
    value = sharpness._coef_identity_max_rel(eps, alpha, k_top)
    assert 0 < sum(scanned) <= 0.6 * (k_top + 1)
    assert bisected
    monkeypatch.setattr(sharpness, "_coef_diffs", diffs)
    assert value == _coef_full_scan(eps, alpha, k_top)
    # a row of one chunk is scanned outright, without bisection
    bisected.clear()
    eps = 2.0**-9.013
    k_top = math.ceil(20.0 / eps)
    assert k_top + 1 <= sharpness._COEF_SCAN_CHUNK
    assert sharpness._coef_identity_max_rel(eps, alpha, k_top) == _coef_plain(eps, alpha, k_top)
    assert not bisected


@pytest.mark.parametrize("pqa,variant", [
    (P243, "primal"), (P243, "dual"), (P487, "primal"), (P487, "dual"),
])
def test_deep_grid_slopes_and_tails(pqa, variant):
    p, q, alpha = pqa
    grid = tuple(2.0**-k for k in range(9, 18))
    rows = sweep(SharpnessConfig(p, q, alpha, variant, eps_grid=grid))
    fit = fit_slope(rows, window=4)
    assert abs(fit.slope - expected_slope(p, q, alpha, variant)) < 0.01
    for row in rows:
        assert row.tail_bound <= 1e-6
        if variant == "primal":
            assert row.extras["af_exact"] >= row.extras["af_lower"]


@pytest.mark.parametrize("quantities", [primal_quantities, dual_quantities])
def test_deepest_row_memory_is_bounded(quantities):
    eps = 2.0**-17
    k = math.ceil(20.0 / eps)  # 2,621,440 shells; one float array of K is 21 MB
    tracemalloc.start()
    try:
        quantities(eps, *P487, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("pqa", [P243, P487])
@pytest.mark.parametrize("eps,k", [(0.25, 80), (0.125, 160)])
def test_primal_matches_naive_shell_sums(pqa, eps, k):
    p, q, alpha = pqa
    got = primal_quantities(eps, p, q, alpha, k)
    low, exact, tail_low, tail_ex = naive_primal(eps, p, q, alpha, k)
    assert got.af_lower == pytest.approx(low, rel=1e-12)
    assert got.af_exact == pytest.approx(exact, rel=1e-12)
    assert got.tail_lower == pytest.approx(tail_low, rel=1e-9)
    assert got.tail_exact == pytest.approx(tail_ex, rel=1e-9)
    assert got.af_exact >= got.af_lower


@pytest.mark.parametrize("pqa", [P243, P487])
@pytest.mark.parametrize("eps,k", [(0.25, 80), (0.125, 160)])
def test_dual_matches_naive_shell_sums(pqa, eps, k):
    p, q, alpha = pqa
    got = dual_quantities(eps, p, q, alpha, k)
    rhs, lhs, tail_rhs, tail_lhs = naive_dual(eps, p, q, alpha, k)
    assert got.rhs_norm == pytest.approx(rhs, rel=1e-12)
    assert got.lhs_norm == pytest.approx(lhs, rel=1e-12)
    assert got.tail_rhs == pytest.approx(tail_rhs, rel=1e-9)
    assert got.tail_lhs == pytest.approx(tail_lhs, rel=1e-9)


@pytest.mark.parametrize("pqa", [P243, P487])
def test_char_agrees_with_one_weight_scanner(pqa):
    p, q, alpha = pqa
    pc = p / (p - 1.0)
    for eps in (0.25, 2.0**-6):
        k = math.ceil(20.0 / eps)
        prim = primal_quantities(eps, p, q, alpha, k)
        ref = one_weight_apq(PowerWeight((1.0 - eps) / pc), p, q, test_set=[ROOT])
        assert prim.char == pytest.approx(ref.value, rel=1e-12)
        if eps <= alpha / 2.0:
            du = dual_quantities(eps, p, q, alpha, k)
            ref2 = one_weight_apq(PowerWeight((eps - 1.0) / q), p, q, test_set=[ROOT])
            assert du.char == pytest.approx(ref2.value, rel=1e-12)


def test_fnorm_closed_form_and_coefficient_identity():
    for p, q, alpha in (P243, P487):
        prim = sweep(SharpnessConfig(p, q, alpha, "primal"))
        for row in prim:
            assert row.extras["fnorm"] == pytest.approx(row.eps ** (-1.0 / p), rel=1e-9)
        dual = sweep(SharpnessConfig(p, q, alpha, "dual"))
        for row in dual:
            assert row.extras["coef_identity_max_rel"] <= 1e-9


@pytest.mark.parametrize(
    "pqa,variant,slope",
    [
        (P243, "primal", 0.375),
        (P243, "dual", 0.25),
        (P487, "primal", 7.0 / 48.0),
        (P487, "dual", 0.375),
    ],
)
def test_sweep_slopes(pqa, variant, slope):
    p, q, alpha = pqa
    assert expected_slope(p, q, alpha, variant) == pytest.approx(slope, rel=1e-12)
    rows = sweep(SharpnessConfig(p, q, alpha, variant))
    fit = fit_slope(rows, window=4)
    assert abs(fit.slope - slope) < 0.01
    assert fit.max_residual < 0.01


@pytest.mark.parametrize(
    "pqa,variant",
    [(P243, "primal"), (P243, "dual"), (P487, "dual"), ((1.5, 1.5, 1.0), "dual")],
)
def test_sweep_rows_finite_positive_small_tails(pqa, variant):
    p, q, alpha = pqa
    rows = sweep(SharpnessConfig(p, q, alpha, variant))
    chars = [r.char for r in rows]
    assert chars == sorted(chars)
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios)
    for row in rows:
        for v in (row.char, row.ratio, row.tail_bound):
            assert math.isfinite(v) and v > 0.0
        assert row.tail_bound <= 1e-6
        assert row.k_top == math.ceil(20.0 / row.eps)


def test_doubling_truncation_moves_less_than_tail_bound():
    eps = 2.0**-6
    k = math.ceil(20.0 / eps)
    for p, q, alpha in (P243, P487):
        a = primal_quantities(eps, p, q, alpha, k)
        b = primal_quantities(eps, p, q, alpha, 2 * k)
        assert abs(b.af_lower - a.af_lower) / a.af_lower <= a.tail_lower
        assert abs(b.af_exact - a.af_exact) / a.af_exact <= a.tail_exact
        da = dual_quantities(eps, p, q, alpha, k)
        db = dual_quantities(eps, p, q, alpha, 2 * k)
        assert abs(db.rhs_norm - da.rhs_norm) / da.rhs_norm <= da.tail_rhs
        assert abs(db.lhs_norm - da.lhs_norm) / da.lhs_norm <= da.tail_lhs


def test_synthetic_slope_recovery():
    rows = [
        SweepRow(eps=2.0**-k, k_top=0, char=2.0**k, ratio=3.0 * (2.0**k) ** 0.42,
                 tail_bound=0.0, extras={})
        for k in range(4, 10)
    ]
    fit = fit_slope(rows, window=4)
    assert fit.slope == pytest.approx(0.42, rel=1e-12)
    assert fit.max_residual < 1e-12
    assert fit.eps_window == tuple(2.0**-k for k in range(6, 10))


def test_fit_slope_needs_enough_rows():
    rows = [
        SweepRow(eps=0.1, k_top=0, char=1.0, ratio=1.0, tail_bound=0.0, extras={})
    ] * 2
    with pytest.raises(ParameterError):
        fit_slope(rows, window=4)
    with pytest.raises(ParameterError):
        fit_slope(rows * 3, window=2)


def test_config_validation():
    with pytest.raises(ParameterError):
        SharpnessConfig(2.0, 4.0, 0.8, "primal")  # off the exponent line
    with pytest.raises(ParameterError):
        SharpnessConfig(2.0, 4.0, 0.75, "sideways")
    with pytest.raises(ParameterError):
        SharpnessConfig(2.0, 4.0, 0.75, "primal", eps_grid=())
    with pytest.raises(ParameterError):
        SharpnessConfig(2.0, 4.0, 0.75, "primal", eps_grid=(0.1, 0.2))
    with pytest.raises(ParameterError):
        SharpnessConfig(2.0, 4.0, 0.75, "dual", eps_grid=(0.5, 0.25))
    cfg = SharpnessConfig(2.0, 4.0, 0.75, "primal", eps_grid=(2.0**-4, 2.0**-5))
    assert cfg.k_of(2.0**-4) == 320


def test_quantity_validation():
    with pytest.raises(ParameterError):
        primal_quantities(0.8, 2.0, 4.0, 0.75, 1000)  # eps above alpha
    with pytest.raises(ParameterError):
        primal_quantities(0.1, 2.0, 4.0, 0.75, 100)  # k below 20/eps
    with pytest.raises(ParameterError):
        dual_quantities(0.5, 2.0, 4.0, 0.75, 1000)  # above the alpha/2 cap
    with pytest.raises(ParameterError):
        dual_quantities(-0.1, 2.0, 4.0, 0.75, 1000)
    with pytest.raises(ParameterError):
        # off the line the lhs shells grow; rejected before any O(K) work
        dual_quantities(0.1, 2.0, 4.0, 2.0, 10**12)


def test_expected_slope_variants():
    assert expected_slope(2.0, 4.0, 0.75, "combined") == pytest.approx(0.375)
    assert expected_slope(4.0, 8.0, 0.875, "combined") == pytest.approx(0.375)
    with pytest.raises(ParameterError):
        expected_slope(2.0, 4.0, 0.75, "inverse")
    with pytest.raises(ParameterError):
        expected_slope(2.0, 4.0, 0.8, "primal")
    assert default_eps_grid() == tuple(2.0**-k for k in range(4, 13))
