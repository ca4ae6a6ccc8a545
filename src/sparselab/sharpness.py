"""Extremizer experiments on the Sobolev line and log-log slope fitting.

Both experiments live at r = 2 on the exponent line 1/q + 1/p' = alpha and
drive the characteristic to infinity through a one-parameter family of
power weights. Everything is evaluated through closed-form shell sums: the
extremizing functions are powers, the family is the origin-anchored chain,
and on each dyadic shell (2^{-(l+1)}, 2^{-l}] every integrand is a pure
power, so norms reduce to geometric sums. All accumulation happens in
log2 space because truncation depths K = 20/eps run into the millions
(2.6e6 at eps = 2^-17), where the raw shell terms overflow double
precision by thousands of orders of magnitude.

The three square-function norms (primal exact, dual lhs, dual rhs) are
one chain sum, `_chain_sum`: shell l carries the block sum
G_l = (2^{g(l+1)} - 1)/(2^g - 1) to the power outer/2. Once g(l+1) > 54,
log2(2^{g(l+1)} - 1) equals g(l+1) in double precision and the shells form
one exact geometric series, so only the first about 54/g shells, the
head, are summed term by term and the rest in closed form. At the primal
and lhs growth g = 2(alpha - eps) >= 3/4 on the recorded grids
the head is at most 72 shells, streamed over fixed-length chunks with a
running log-sum-exp. At the rhs growth g = 2 eps it is all K shells, and
once it is long (2^14 terms, eps below about 2^-10) it is summed by
Gregory's formula: 2047 terms explicitly, the rest as a Gauss-Legendre
integral on O(log K) nodes plus end corrections, with a streamed fallback
whenever the error estimate exceeds 1e-14. A row then costs O(log K)
apart from the coefficient-identity check, which evaluates only the k a
rigorous rounding envelope cannot rule out: none at a dyadic eps, about a
half (alpha = 3/4) or a tenth (7/8) of the K + 1 at jittered eps near
2^-17. No array grows with K.

The reported tail bound per row is a one-sided geometric envelope of the
discarded shells, relative to the truncated value and already divided by
the outer norm exponent; it certifies that extending K cannot move any
reported norm by more than the stated amount.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

_LN2 = math.log(2.0)


def _log2_1m2pow(y: float) -> float:
    """log2(1 - 2^-y) for y > 0, stable for tiny and huge y."""
    if y <= 0.0:
        raise ParameterError("geometric ratio must be strictly decreasing")
    return math.log(-math.expm1(-y * _LN2)) / _LN2


def _log2_2pow_m1(x: float) -> float:
    """log2(2^x - 1) for x > 0."""
    return x + _log2_1m2pow(x)


def _v_log2_2pow_m1(x: np.ndarray) -> np.ndarray:
    return x + np.log(-np.expm1(-x * _LN2)) / _LN2


def _log2_geom_sum(n: int, d: float) -> float:
    """log2 of sum_{l=0}^{n-1} 2^{-l d} for d > 0."""
    return _log2_1m2pow(n * d) - _log2_1m2pow(d)


_CHUNK = 1 << 16  # indices per streamed chunk
# Indices per chunk of the coefficient-identity scan. Its value is exact, so it
# is the same at every chunk length; the scan stops only between chunks. On the
# 108 sweep rows of seeds 1-3 (eps = 2^(-k +- 0.02), k = 9..17, alpha = 3/4
# and 7/8) the check took 61, 46, 41, 53 and 77 ms at 2^12 ... 2^16 (2-core
# Xeon, numpy 2.4), against 121 ms for the full scan at 2^14. The streamed sums
# keep _CHUNK: their values move in the last bits with the chunk length.
_COEF_SCAN_CHUNK = 1 << 14
_EXACT_GROWTH = 54.0  # log2(2^x - 1) rounds to x for x past this


def _chunks(lo: int, hi: int):
    """The float indices lo, ..., hi - 1 as consecutive arrays of at most _CHUNK."""
    for start in range(lo, hi, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, hi), dtype=float)


def _log2_sum_streamed(lo: int, hi: int, log_term) -> float:
    """log2 sum_{l=lo}^{hi-1} 2^{log_term(l)}, a running log-sum-exp over chunks."""
    top, acc = -math.inf, 0.0
    for l in _chunks(lo, hi):
        logs = log_term(l)
        m = float(np.max(logs))
        if m > top:
            acc, top = acc * 2.0 ** (top - m), m
        acc += float(np.sum(np.exp2(logs - top)))
    return top + math.log2(acc) if acc > 0.0 else -math.inf


_GREGORY_HEAD = 2048  # terms j < this are summed explicitly
_GREGORY_MIN = 1 << 14  # shortest sum taken by Gregory's formula; streaming is cheaper below
_GREGORY_TOL = 1e-14  # largest accepted relative error estimate; above it the sum streams
# |G_{k+1}|, k = 1..8, the Gregory coefficients of the differences of order k
_GREGORY = (
    0.08333333333333333, 0.041666666666666664, 0.02638888888888889, 0.01875,
    0.014269179894179895, 0.01136739417989418, 0.00935653659611993, 0.00789255401234568,
)


# The 20-point Gauss-Legendre rule on [-1, 1], symmetric about 0: the nodes
# x > 0 and their weights, bitwise those of numpy.polynomial.legendre.leggauss(20).
# As literals they spare the process numpy.polynomial and the LAPACK call
# inside leggauss, about 1 MB of resident memory.
_LEGENDRE_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628), (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824), (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186), (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471), (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446), (0.993128599185095, 0.017614007139150893),
])
_LEGENDRE_NODES = np.concatenate((-_LEGENDRE_HALF[::-1, 0], _LEGENDRE_HALF[:, 0]))
_LEGENDRE_WEIGHTS = np.concatenate((_LEGENDRE_HALF[::-1, 1], _LEGENDRE_HALF[:, 1]))


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-point Gauss-Legendre rule on each panel."""
    t, w = _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * t
    return nodes.ravel(), (half[:, None] * w).ravel()


def _log2_sum_gregory(n: int, g: float, log_term) -> tuple[float, float]:
    """log2 sum_{j=1}^{n} 2^{log_term(j)} by Gregory's formula, and its error estimate.

    The terms j < 2048 are summed explicitly. The rest is the integral over
    [2048, n] by 20-point Gauss-Legendre on panels x_{i+1} = min(2 x_i,
    x_i + 2/g, n), plus the trapezoid ends and Gregory's corrections from the
    differences of orders 1..8 at both ends (DLMF 2.10). The estimate, relative
    to the sum, adds the order-7 and order-8 corrections to the change of the
    integral on panels merged in pairs.
    """
    a = _GREGORY_HEAD
    edges = [float(a)]
    while edges[-1] < n:
        x = edges[-1]
        edges.append(min(2.0 * x, x + 2.0 / g, float(n)))
    fine = np.array(edges)
    coarse = fine[::2] if len(edges) % 2 else np.append(fine[::2], fine[-1])
    x_fine, w_fine = _gauss_legendre(fine)
    x_coarse, w_coarse = _gauss_legendre(coarse)
    step = np.arange(9, dtype=float)
    points = np.concatenate((np.arange(1, a, dtype=float), a + step, n - step, x_fine, x_coarse))
    logs = log_term(points)
    top = float(np.max(logs))
    f = np.exp2(logs - top)
    head, ends, quad = f[:a - 1], f[a - 1:a + 17], f[a + 17:]
    integral = float(quad[:x_fine.size] @ w_fine)
    check = float(quad[x_fine.size:] @ w_coarse)
    # with e_i = f(a + i) + f(n - i), the order-k correction of both ends
    # together is (-1)^k times the order-k forward difference of e at 0
    e = ends[:9] + ends[9:]
    total = float(np.sum(head)) + integral + 0.5 * e[0]
    terms = []
    for coef in _GREGORY:
        e = e[:-1] - e[1:]
        terms.append(coef * e[0])
    total += math.fsum(terms)
    err = (abs(terms[6] + terms[7]) + abs(integral - check)) / total
    return top + math.log2(total), err


def _log2_head_sum(n: int, g: float, log_term) -> float:
    """log2 sum_{j=1}^{n} 2^{log_term(j)} for terms smooth in j on the scale 1/g.

    Streamed when short; Gregory summation when long, unless its error
    estimate exceeds _GREGORY_TOL.
    """
    if n >= _GREGORY_MIN:
        log_sum, err = _log2_sum_gregory(n, g, log_term)
        if err <= _GREGORY_TOL:
            return log_sum
    return _log2_sum_streamed(1, n + 1, log_term)


def _coef_a(eps: float, alpha: float, k: int) -> float:
    """a_k = k (alpha - eps) - log2(eps)/2 - 1, rounded as `_coef_diffs` rounds it."""
    return k * (alpha - eps) - 0.5 * math.log2(eps) - 1.0


def _coef_diffs(
    k: np.ndarray, eps: float, alpha: float, a: np.ndarray, b: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """d_k = a_k - b_k at the float indices k, in place in the buffers a, b, t.

    a_k = k (alpha - eps) - log2(eps)/2 - 1 is the closed form and
    b_k = alpha k + (log2(eps)/2 + eps k) + (-2 eps k - log2(2 eps)) the
    product of the block factors, each evaluated in the order written, so
    every d_k is that of the plain array expressions bitwise. Returns a.
    """
    half_log2_eps = 0.5 * math.log2(eps)
    np.multiply(k, alpha - eps, out=a)
    np.subtract(a, half_log2_eps, out=a)
    np.subtract(a, 1.0, out=a)
    np.multiply(k, alpha, out=b)
    np.multiply(k, eps, out=t)
    np.add(t, half_log2_eps, out=t)
    np.add(b, t, out=b)
    np.multiply(k, -(2.0 * eps), out=t)
    np.subtract(t, math.log2(2.0 * eps), out=t)
    np.add(b, t, out=b)
    return np.subtract(a, b, out=a)


_ANY_BIT = 1 << 11  # lowest-bit exponent of 0.0, a multiple of every power of two


def _lowest_bit(x: float) -> int:
    """The exponent of the lowest set bit of x: x is a multiple of 2^that."""
    if x == 0.0:
        return _ANY_BIT
    n, d = x.as_integer_ratio()
    return (n & -n).bit_length() - d.bit_length()


def _rounded(lo: float, hi: float, bit: int, errs: list) -> tuple[float, float, int]:
    """One rounded operation over a range of k, with results from lo to hi.

    lo <= hi are its rounded extremes and its exact results are multiples of
    2^bit. Its rounding error is 0 when every exact result is below 2^(bit+53)
    in magnitude, which makes it representable, and otherwise at most half an
    ulp at the binade of the largest result; that bound goes to errs. The
    rounded results are multiples of 2^bit too, and of 2^(e-52) when they all
    lie at or above the binade 2^e in magnitude; the larger exponent is
    returned with lo and hi.
    """
    big = max(-lo, hi)
    top = math.frexp(big)[1]
    if big > 0.0 and top > bit + 53:
        errs.append(math.ldexp(1.0, max(top - 54, -1074)))
    if lo > 0.0 or hi < 0.0:
        bit = max(bit, math.frexp(lo if lo > 0.0 else hi)[1] - 53)
    return lo, hi, bit


def _coef_envelope(eps: float, alpha: float, k_lo: int, k_hi: int) -> tuple[float, float]:
    """Bounds lower <= d_k <= upper over k = k_lo..k_hi for the d_k of `_coef_diffs`.

    In exact arithmetic on the rounded constants, a_k - b_k is the model
    k delta + gamma: delta = fl(alpha - eps) - (alpha - eps) and gamma =
    log2(2 eps) - log2(eps) - 1 are rounding errors of the constants. The
    error of one rounded subtraction is a float, so math.fsum gives delta
    exactly; gamma is checked to be exact, else its ulp is added. Each of
    the ten rounded operations adds its error, bounded by `_rounded` from
    its results at k_lo and k_hi; every operation is monotone in each
    operand, so those bound it over the range (standard model: Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    2.2). The model's extremes widened by these errors bound a_k - b_k, and
    so its rounding d_k. d_k lies on the grid of the lowest bits of a_k and
    b_k, so the bounds are rounded inwards to it; inside one binade 2^j of
    both it is 2^(j-52), where the subtraction is exact by Sterbenz's lemma
    (ibid., Theorem 2.5). At a dyadic eps every operation is exact and both
    bounds are 0.0.
    """
    h = 0.5 * math.log2(eps)
    log2_two_eps = math.log2(2.0 * eps)
    ks = float(k_lo), float(k_hi)
    errs = []

    def const(c):
        return c, c, _lowest_bit(c)

    def times(c):  # fl(k c) for the integers k >= 0 of the range
        lo, hi = sorted((ks[0] * c, ks[1] * c))
        return _rounded(lo, hi, _lowest_bit(c), errs)

    def plus(x, y):  # fl(x + y), nondecreasing in x and in y
        return _rounded(x[0] + y[0], x[1] + y[1], min(x[2], y[2]), errs)

    a = plus(plus(times(alpha - eps), const(-h)), const(-1.0))
    b = plus(
        plus(times(alpha), plus(times(eps), const(h))),
        plus(times(-(2.0 * eps)), const(-log2_two_eps)),
    )
    delta = math.fsum([alpha - eps, -alpha, eps])
    gamma_parts = [log2_two_eps, -2.0 * h, -1.0]
    gamma = math.fsum(gamma_parts)
    if math.fsum(gamma_parts + [-gamma]) != 0.0:
        errs.append(math.ulp(gamma))
    model = plus(times(delta), const(gamma))
    upper = math.nextafter(math.fsum([model[1], *errs]), math.inf)
    lower = math.nextafter(math.fsum([model[0], *(-e for e in errs)]), -math.inf)
    grid = math.ldexp(1.0, min(a[2], b[2]))
    return math.ceil(lower / grid) * grid, math.floor(upper / grid) * grid


def _coef_split(eps: float, alpha: float, top: int) -> tuple[int, list, list]:
    """Split k = 0..top around c, the first k of the binade 2^j of a_top.

    Returns c, the ranges [c + m, top - m] and [0, c - m - 1] to bound by
    `_coef_envelope`, and the k within m of c or of top, to scan. The other
    intermediates of `_coef_diffs` that grow with k stay within
    2 k eps + |log2 eps| + 1 of a_k, and m is that gap in k: over the first
    range they all keep to the binade 2^j, one grid and one ulp, and over the
    second they all stay below it. a_k is nondecreasing in k, so c is found
    by bisection.
    """
    a_top = _coef_a(eps, alpha, top)
    if not a_top > 0.0:
        return 0, [(0, top)], []
    level = math.ldexp(1.0, math.frexp(a_top)[1] - 1)
    edge = bisect.bisect_left(range(top + 1), level, key=lambda k: _coef_a(eps, alpha, k))
    m = math.ceil((2.0 * top * eps - math.log2(eps) + 2.0) / (alpha - eps))
    bounded = [(edge + m, top - m), (0, edge - m - 1)]
    scanned = [(max(0, edge - m), min(top, edge + m - 1)), (max(edge + m, top - m + 1), top)]
    return edge, [r for r in bounded if r[0] <= r[1]], [r for r in scanned if r[0] <= r[1]]


@functools.cache
def _coef_buffers(size: int) -> tuple[np.ndarray, ...]:
    """0, 1, ..., size - 1 and four scratch arrays for the scan, made once.

    Made per call, the arrays were handed back to the system between calls,
    and the next call took about 70-130 page faults to map them again. The
    scan is not reentrant: it is not run from several threads at once.
    """
    return (np.arange(size, dtype=float), *(np.empty(size) for _ in range(4)))


def _coef_identity_max_rel(eps: float, alpha: float, k_top: int) -> float:
    """max_k |2^(a_k - b_k) - 1| over k = 0..k_top for the two coefficient forms.

    Both forms are affine in k and agree in exact arithmetic, so d_k = a_k -
    b_k (`_coef_diffs`) is rounding only, and `_coef_envelope` bounds it. An
    envelope of 0.0 over 0..k_top proves every d_k zero, as at a dyadic eps,
    and the value is 0.0 unscanned. A row of one chunk is scanned outright:
    the envelope costs about a quarter of its scan. Otherwise chunks are
    scanned from the top down, and only the extremes of d_k go through
    |expm1(. ln2)|, which is monotone on either side of 0. Once per binade of
    a_k, while a chunk or more is left, `_coef_split` splits the k left: its
    few k near binade edges are scanned and the rest bounded, and the scan
    stops once that bound is at most the running value. No skipped k can then
    raise it, so the value is that of the plain array expressions over every
    k bitwise.
    """
    size = min(_COEF_SCAN_CHUNK, k_top + 1)
    if size <= k_top and _coef_envelope(eps, alpha, 0, k_top) == (0.0, 0.0):
        return 0.0
    iota, k, a, b, t = _coef_buffers(_COEF_SCAN_CHUNK)
    hi, lo = -math.inf, math.inf

    def scan(first: int, last: int) -> float:
        nonlocal hi, lo
        for start in range(first, last + 1, size):
            n = min(size, last + 1 - start)
            kk = np.add(iota[:n], start, out=k[:n])
            d = _coef_diffs(kk, eps, alpha, a[:n], b[:n], t[:n])
            hi, lo = max(hi, float(d.max())), min(lo, float(d.min()))
        return float(np.abs(np.expm1(np.array([hi, lo]) * _LN2)).max())

    top, edge, bound = k_top, k_top + 1, math.inf
    while True:
        start = max(0, top + 1 - size)
        value = scan(start, top)
        top = start - 1
        if top < 0:
            return value
        if top < edge and top >= size:
            edge, bounded, scanned = _coef_split(eps, alpha, top)
            for first, last in scanned:
                value = scan(first, last)
            envs = [_coef_envelope(eps, alpha, first, last) for first, last in bounded]
            upper = max((e[1] for e in envs), default=0.0)
            lower = min((e[0] for e in envs), default=0.0)
            bound = float(np.abs(np.expm1(np.array([upper, lower]) * _LN2)).max())
        if bound <= value:
            return value


def _log2_shell_sum(n: int, c: float, g: float, rate: float, d: float) -> float:
    """log2 sum_{j=1}^{n} 2^{c log2(2^{gj} - 1) - j rate}.

    d = rate - c g > 0 is passed in by the caller in a form that does not
    cancel. Terms with gj > 54 are exactly geometric with ratio 2^-d and
    are summed in closed form; the about 54/g terms before them are the
    head, streamed when short and summed by Gregory's formula when long
    (`_log2_head_sum`).
    """
    head = min(n, math.floor(_EXACT_GROWTH / g))
    log_head = _log2_head_sum(head, g, lambda j: c * _v_log2_2pow_m1(g * j) - j * rate)
    if head == n:
        return log_head
    log_first = c * g * (head + 1.0) - (head + 1.0) * rate
    return float(np.logaddexp2(log_head, log_first + _log2_geom_sum(n - head, d)))


def _chain_sum(
    k_top: int, outer: float, lead: float, g: float, rate: float, d: float
) -> tuple[float, float, float]:
    """log2 of a chain sum S, of its tail majorant and of its raw shell sum.

    S = sum_{l<K} (2^lead G_l)^c J_l + (2^lead G_K)^c 2^{-K rate}/rate with
    c = outer/2 and J_l = 2^{-l rate} (1 - 2^-rate)/rate the measure of shell
    l; the last term is the core [0, 2^-K] with the block sum frozen at K.
    The majorant is term K with G_K <= 2^{g(K+1)}/(2^g - 1); the discarded
    shells decay from it at least like 2^-d. The raw sum is
    `_log2_shell_sum(K, c, g, rate, d)`, the shells without their constants.
    """
    c = outer / 2.0
    log_gm1 = _log2_2pow_m1(g)
    log_meas = _log2_1m2pow(rate) - math.log2(rate)
    log_raw = _log2_shell_sum(k_top, c, g, rate, d)
    log_shells = log_raw + (c * (lead - log_gm1) + log_meas + rate)
    log_core = (c * (lead + _log2_2pow_m1(g * (k_top + 1.0)) - log_gm1) - k_top * rate
                - math.log2(rate))
    log_major = c * (lead + g * (k_top + 1.0) - log_gm1) + log_meas - k_top * rate
    return float(np.logaddexp2(log_shells, log_core)), log_major, log_raw


class PrimalQuantities(NamedTuple):
    char: float
    fnorm: float
    af_lower: float
    af_exact: float
    tail_lower: float
    tail_exact: float


class DualQuantities(NamedTuple):
    char: float
    rhs_norm: float
    lhs_norm: float
    square_sum_bound: float
    coef_identity_max_rel: float
    tail_rhs: float
    tail_lhs: float


def primal_quantities(
    eps: float, p: float, q: float, alpha: float, k_top: int
) -> PrimalQuantities:
    """Weight x^{(1-eps)/p'}, test function x^{eps-1}, chain truncated at k_top.

    Returns the one-weight characteristic, the exact weighted norm of the
    test function, and the shell-integrated norm of the operator output in
    two versions: the single-term lower bound the shell argument uses, and
    the full square function (which can only be larger).
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if k_top < 20.0 / eps:
        raise ParameterError("truncation depth below the declared tail rule")
    p_conj = p / (p - 1.0)
    log2_eps = math.log2(eps)

    char = eps ** (-q / p_conj) / (q * (1.0 - eps) / p_conj + 1.0)

    weighted_exp = p * ((1.0 - eps) / p_conj + eps - 1.0) + 1.0
    fnorm = (1.0 / weighted_exp) ** (1.0 / p)

    m = q * (1.0 - eps) / p_conj
    growth = 2.0 * (alpha - eps)
    if growth <= 0.0:
        raise ParameterError("eps must stay below alpha")
    c_shell = _log2_1m2pow(m + 1.0) - math.log2(m + 1.0)
    d_step = (m + 1.0) - q * (alpha - eps)
    if d_step <= 0.0:
        raise ParameterError("shell terms fail to decay; exponents off the line")

    # single-term lower bound: exactly geometric shells plus the flat core
    log_t0 = -q * log2_eps + c_shell
    log_shells = log_t0 + _log2_geom_sum(k_top, d_step)
    log_core_meas = -k_top * (m + 1.0) - math.log2(m + 1.0)
    log_core_low = q * (-log2_eps + k_top * (alpha - eps)) + log_core_meas
    log_s_low = float(np.logaddexp2(log_shells, log_core_low))
    af_lower = 2.0 ** (log_s_low / q)
    log_tail_low = log_t0 - k_top * d_step - _log2_1m2pow(d_step)
    tail_lower = 2.0 ** (log_tail_low - log_s_low) / q

    # exact square function: the chain sum, whose decay
    # (m + 1) - q (alpha - eps) = d_step is q (eps / p + line defect)
    log_s_exact, log_major, _ = _chain_sum(
        k_top, q, -2.0 * log2_eps, growth, m + 1.0, q * (eps / p + _line_defect(p, q, alpha))
    )
    af_exact = 2.0 ** (log_s_exact / q)
    tail_exact = 2.0 ** (log_major - _log2_1m2pow(d_step) - log_s_exact) / q

    return PrimalQuantities(char, fnorm, af_lower, af_exact, tail_lower, tail_exact)


def dual_quantities(
    eps: float, p: float, q: float, alpha: float, k_top: int
) -> DualQuantities:
    """Weight x^{(eps-1)/q} against the square-function block sequence.

    Compares the two sides of the vector-valued estimate: lhs carries the
    cube coefficients |I_k|^{-alpha} int a_k w^q, rhs the pointwise square
    sum of the blocks a_k = eps^{1/2} |I_k|^{-eps} x^eps 1_{I_k}.
    """
    if eps >= alpha:
        raise ParameterError("the shell lower bound needs eps < alpha")
    if eps > alpha / 2.0:
        raise ParameterError(
            "eps above the recorded admissible cap alpha/2 for this experiment"
        )
    if not eps > 0.0:
        raise ParameterError("eps must be positive")
    if k_top < 20.0 / eps:
        raise ParameterError("truncation depth below the declared tail rule")
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    log2_eps = math.log2(eps)

    char = (1.0 / eps) * (1.0 + p_conj * (1.0 - eps) / q) ** (-q / p_conj)

    square_sum_bound = eps * 2.0 ** (2.0 * eps) / math.expm1(2.0 * eps * _LN2)

    # the lhs shells must decay; checked before any O(K) work
    h_growth = 2.0 * (alpha - eps)
    u = p_conj * (1.0 - eps) / q
    d_step = (u + 1.0) - p_conj * (alpha - eps)
    if d_step <= 0.0:
        raise ParameterError("lhs shells fail to decay; exponents off the line")

    coef_identity_max_rel = _coef_identity_max_rel(eps, alpha, k_top)

    # rhs: || (sum a_k^2)^{1/2} ||_{L^{q'}(w^q)}; block squares eps 2^{2 eps k}
    # (growth 2 eps, decay eps), integrand power (q'+1)eps - 1; the rate
    # (q'+1)eps is formed directly, since (power) + 1 loses about 15 bits
    log_s_rhs, log_major, log_raw = _chain_sum(
        k_top, q_conj, log2_eps, 2.0 * eps, (q_conj + 1.0) * eps, eps
    )
    rhs_norm = 2.0 ** (log_s_rhs / q_conj)
    if q_conj <= 2.0:
        # The truncated value already contains the core integral with the
        # block sum frozen at K, so the true omission is
        # sum_{l>=K} [(eps G_l)^{q'/2} - (eps G_K)^{q'/2}] J_l; bound the
        # bracket by (eps (G_l - G_K))^{q'/2} (subadditive for q'/2 <= 1).
        log_rest = -(k_top + 1.0) * eps - _log2_1m2pow(eps)
        log_gap = float(np.logaddexp2(log_raw, log_rest))
    else:
        log_gap = -_log2_1m2pow(eps)
    tail_rhs = 2.0 ** (log_major + log_gap - log_s_rhs) / q_conj

    # lhs: coefficients (1/2) eps^{-1/2} 2^{k(alpha-eps)}, measure w^{-p'};
    # the shell decay d_step is p' (eps / q' + line defect)
    log_s_lhs, log_major, _ = _chain_sum(
        k_top, p_conj, -2.0 - log2_eps, h_growth, u + 1.0,
        p_conj * (eps * (1.0 - 1.0 / q) + _line_defect(p, q, alpha)),
    )
    lhs_norm = 2.0 ** (log_s_lhs / p_conj)
    tail_lhs = 2.0 ** (log_major - _log2_1m2pow(d_step) - log_s_lhs) / p_conj

    return DualQuantities(
        char, rhs_norm, lhs_norm, square_sum_bound, coef_identity_max_rel, tail_rhs, tail_lhs
    )


def expected_slope(p: float, q: float, alpha: float, variant: str) -> float:
    """Predicted growth exponent of the norm quotient in the characteristic."""
    _require_sobolev_line(p, q, alpha)
    p_conj = p / (p - 1.0)
    if variant == "primal":
        return p_conj * alpha / q
    if variant == "dual":
        return alpha - 0.5
    if variant == "combined":
        return max(p_conj * alpha / q, alpha - 0.5)
    raise ParameterError(f"unknown variant {variant!r}")


def _line_defect(p: float, q: float, alpha: float) -> float:
    """1/q + 1/p' - alpha; exactly 0.0 on the line for dyadic exponents."""
    return 1.0 / q + (1.0 - 1.0 / p) - alpha


def _require_sobolev_line(p: float, q: float, alpha: float) -> None:
    """Finite 1 < p <= q and alpha on the line to 1e-12; a NaN alpha fails the test."""
    if not 1.0 < p <= q < math.inf:
        raise ParameterError("need 1 < p <= q < inf")
    if not abs(_line_defect(p, q, alpha)) <= 1e-12:
        raise ParameterError(
            "exponents must satisfy 1/q + 1/p' = alpha for the sharpness experiments"
        )


# the default grid eps = 2^-4, ..., 2^-12; a slope is fitted over its 4 smallest eps
EPS_MIN_EXP, EPS_MAX_EXP, FIT_WINDOW = 4, 12, 4


def _eps_grid(lo: int, hi: int) -> tuple[float, ...]:
    return tuple(2.0**-k for k in range(lo, hi + 1))


def default_eps_grid() -> tuple[float, ...]:
    return _eps_grid(EPS_MIN_EXP, EPS_MAX_EXP)


@dataclass(frozen=True)
class SharpnessConfig:
    p: float
    q: float
    alpha: float
    variant: str
    eps_grid: tuple[float, ...] = field(default_factory=default_eps_grid)

    def __post_init__(self):
        _require_sobolev_line(self.p, self.q, self.alpha)
        if self.variant not in ("primal", "dual"):
            raise ParameterError(f"unknown variant {self.variant!r}")
        grid = tuple(float(e) for e in self.eps_grid)
        if not grid:
            raise ParameterError("empty eps grid")
        if any(not 0.0 < e < 1.0 for e in grid):
            raise ParameterError("eps grid must lie in (0, 1)")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ParameterError("eps grid must be strictly decreasing")
        if self.variant == "dual" and grid[0] > self.alpha / 2.0:
            raise ParameterError(
                "dual experiment restricted to eps <= alpha/2 (recorded cap)"
            )
        object.__setattr__(self, "eps_grid", grid)

    def k_of(self, eps: float) -> int:
        """K = ceil(20/eps), the least depth the quantities' tail rule accepts."""
        return math.ceil(20.0 / eps)


@dataclass(frozen=True, eq=False)
class SweepRow:
    eps: float
    k_top: int
    char: float
    ratio: float
    tail_bound: float
    extras: dict


def sweep(config: SharpnessConfig) -> list[SweepRow]:
    """One row per grid eps: characteristic, norm-quotient ratio, tail bound."""
    rows = []
    for eps in config.eps_grid:
        k_top = config.k_of(eps)
        if config.variant == "primal":
            pq = primal_quantities(eps, config.p, config.q, config.alpha, k_top)
            ratio = pq.af_lower / pq.fnorm
            tail = max(pq.tail_lower, pq.tail_exact)
            extras = {
                "fnorm": pq.fnorm,
                "af_lower": pq.af_lower,
                "af_exact": pq.af_exact,
            }
            rows.append(SweepRow(eps, k_top, pq.char, ratio, tail, extras))
        else:
            dq = dual_quantities(eps, config.p, config.q, config.alpha, k_top)
            ratio = dq.lhs_norm / dq.rhs_norm
            tail = max(dq.tail_rhs, dq.tail_lhs)
            extras = {
                "lhs_norm": dq.lhs_norm,
                "rhs_norm": dq.rhs_norm,
                "square_sum_bound": dq.square_sum_bound,
                "coef_identity_max_rel": dq.coef_identity_max_rel,
            }
            rows.append(SweepRow(eps, k_top, dq.char, ratio, tail, extras))
    return rows


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    max_residual: float
    eps_window: tuple[float, ...]


def fit_slope(rows: list[SweepRow], window: int = FIT_WINDOW) -> SlopeFit:
    """Least-squares slope of log(ratio) against log(characteristic).

    Uses the `window` rows of smallest eps (the grid is decreasing, so the
    last rows); needs at least 3 points.
    """
    if window < 3 or len(rows) < window:
        raise ParameterError("degenerate fit window; need at least 3 rows")
    tail_rows = rows[-window:]
    x = np.log([r.char for r in tail_rows])
    y = np.log([r.ratio for r in tail_rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.max(np.abs(resid))),
        eps_window=tuple(r.eps for r in tail_rows),
    )
