"""The one-pass A-infinity scan against the per-level loops it replaced.

The references below are the earlier `ainfty` and `dyadic_maximal`: one
loop over the levels of the subtree, each level tiling its averages over
the depth atoms with `np.repeat`, folding them into a running maximum and
summing that maximum in contiguous blocks. The scan gathers every level's
averages into one array and performs the same sums, maxima and divisions,
so every value, every attained interval and every maximal-function value
must agree bitwise.
"""

import math

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    ROOT,
    DyadicInterval,
    PiecewiseWeight,
    PowerWeight,
    ainfty,
    dyadic_maximal,
    make_instance,
)
from sparselab.dyadic import subtree_arrays
from sparselab.instances import SUITES
from sparselab.testing import _default_depth


def _ref_level_masses(w, top, down):
    heap = w.masses(*subtree_arrays(top, down))
    return [heap[(1 << k) - 1 : (2 << k) - 1] for k in range(down + 1)]


def _ref_dyadic_maximal(w, top, depth):
    down = depth - top.level
    best = None
    for k, level_masses in enumerate(_ref_level_masses(w, top, down)):
        avgs = level_masses * math.ldexp(1.0, top.level + k)
        tiled = np.repeat(avgs, 1 << (down - k))
        best = tiled if best is None else np.maximum(best, tiled)
    return best


def _ref_ainfty(w, root, depth):
    """(value, attained_at) of the level loop: deepest level first, strict improvement."""
    down = depth - root.level
    level_masses = _ref_level_masses(w, root, down)
    best_val = 1.0
    best_q = root
    running = level_masses[down] * math.ldexp(1.0, depth)
    for k in range(down, -1, -1):
        width = 1 << (down - k)
        if k < down:
            avgs = level_masses[k] * math.ldexp(1.0, root.level + k)
            running = np.maximum(np.repeat(avgs, width), running)
        integrals = running.reshape(-1, width).sum(axis=1) * math.ldexp(1.0, -depth)
        masses_k = level_masses[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(masses_k > 0.0, integrals / masses_k, 0.0)
        j = int(np.argmax(ratios))
        if ratios[j] > best_val:
            best_val = float(ratios[j])
            best_q = DyadicInterval(root.level + k, (root.position << k) + j)
    return best_val, best_q


def _assert_scan_matches(w, root, depths):
    for depth in depths:
        rep = ainfty(w, root, depth)
        value, at = _ref_ainfty(w, root, depth)
        assert (rep.value.hex(), rep.attained_at) == (value.hex(), at), (w, root, depth)
        got = dyadic_maximal(w, root, depth).values
        want = _ref_dyadic_maximal(w, root, depth)
        assert got.tobytes() == want.tobytes(), (w, root, depth)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_scan_is_bitwise_the_level_loop_on_suite_weights(suite, seed):
    # instances at one (seed, index) share their weights across suites, so
    # each suite takes its own indices
    n = SUITES.index(suite)
    for index in range(3 * n, 3 * n + 3):
        inst = make_instance(suite, seed, index)
        top = _default_depth(inst.family, inst.omega, inst.sigma) + 4
        for w in (inst.sigma, inst.omega):
            _assert_scan_matches(w, ROOT, range(top + 1))
    _assert_scan_matches(inst.sigma, DyadicInterval(2, 1), range(2, 9))


@pytest.mark.parametrize(
    "w",
    [
        PowerWeight(-0.9),
        PowerWeight(-0.5),
        PowerWeight(0.5, 3.0),
        PowerWeight(2.0),
        PowerWeight(7.5, 0.25),
    ],
)
def test_scan_is_bitwise_the_level_loop_on_power_weights(w):
    _assert_scan_matches(w, ROOT, range(11))
    _assert_scan_matches(w, DyadicInterval(3, 5), range(3, 12))


def test_zero_mass_cells_take_ratio_zero():
    values = np.ones(64)
    values[[0, 1, 2, 3, 17, 40, 41, 63]] = 0.0
    for w in (PiecewiseWeight(3, [0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 1.0]), PiecewiseWeight(6, values)):
        _assert_scan_matches(w, ROOT, range(10))
        _assert_scan_matches(w, DyadicInterval(1, 0), range(1, 9))


def test_constant_weight_gives_the_root_with_one():
    for w in (LEBESGUE, PiecewiseWeight(4, np.full(16, 2.5))):
        for depth in range(9):
            rep = ainfty(w, depth=depth)
            assert (rep.value, rep.attained_at) == (1.0, ROOT)
        _assert_scan_matches(w, ROOT, range(9))


def test_ties_go_to_the_deepest_level_then_the_leftmost_interval():
    # the root and both halves reach 1.25; the deepest level, then the left half, wins
    w = PiecewiseWeight(2, [1.0, 3.0, 1.0, 3.0])
    rep = ainfty(w, depth=2)
    assert (rep.value, rep.attained_at) == (1.25, DyadicInterval(1, 0))
    self_similar = PiecewiseWeight(4, np.tile([1.0, 3.0], 8))
    _assert_scan_matches(w, ROOT, range(8))
    _assert_scan_matches(self_similar, ROOT, range(8))
