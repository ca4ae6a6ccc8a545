"""The subtree scans and grids of `dyadic.scan_layout` against the code they replaced.

The references below are the earlier `ainfty` and `dyadic_maximal`: one
loop over the levels of the subtree, each level tiling its averages over
the depth atoms with `np.repeat`, folding them into a running maximum and
summing that maximum in contiguous blocks. The scan gathers every level's
averages into one array and performs the same sums, maxima and divisions,
so every value, every attained interval and every maximal-function value
must agree bitwise.

The other references enumerate descendants as the package did before it
had one layout: the subtree level by level from the top (`_subtree_arrays`),
the one-level grid as its own arrays (`_ref_grid`), and partitions and
subdivisions built from `DyadicInterval` objects. Every value built on the
layout, and every attained interval, must agree with them bitwise.
"""

import math

import numpy as np
import pytest

from sparselab import (
    LEBESGUE,
    ROOT,
    AtomPartition,
    DyadicInterval,
    PiecewiseWeight,
    PowerWeight,
    ainfty,
    dyadic_maximal,
    make_instance,
    one_weight_apq,
    subdivide,
    uniform_partition,
)
from sparselab.dyadic import interval_arrays
from sparselab.instances import SUITES
from sparselab.testing import _default_depth
from sparselab.weights import _pairwise_tree, _tree_masses, product_masses


def _subtree_arrays(top, down):
    """Levels and positions of top's descendants 0, ..., down levels below it.

    Level by level, left to right: the descendants k levels down occupy
    entries 2^k - 1 to 2^(k+1) - 2, and entry 0 is top itself.
    """
    k = np.repeat(np.arange(down + 1), 1 << np.arange(down + 1))
    offset = np.arange(len(k)) + 1 - (1 << k)
    return top.level + k, (top.position << k) + offset


def _ref_level_masses(w, top, down):
    heap = w.masses(*_subtree_arrays(top, down))
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


def _ref_grid(base, levels_down):
    n = 1 << levels_down
    return np.full(n, base.level + levels_down), (base.position << levels_down) + np.arange(n)


def _ref_one_weight_apq(w, p, q, depth):
    """(value, attained_at) over the subtree in level-by-level order, first maximum."""
    p_conj = p / (p - 1.0)
    levels, positions = _subtree_arrays(ROOT, depth)
    lengths = np.ldexp(1.0, -levels)
    vals = (w.pow(q).masses(levels, positions) / lengths) * (
        w.pow(-p_conj).masses(levels, positions) / lengths
    ) ** (q / p_conj)
    j = int(np.argmax(vals))
    return float(vals[j]), DyadicInterval(int(levels[j]), int(positions[j]))


def _ref_product_masses(f, g, lvl, pos):
    if isinstance(f, PowerWeight) and isinstance(g, PowerWeight):
        return PowerWeight(f.beta + g.beta, f.coeff * g.coeff).masses(lvl, pos)
    cells = max(w.depth for w in (f, g) if isinstance(w, PiecewiseWeight))
    grid = _ref_grid(ROOT, cells)
    tree = _pairwise_tree(np.ldexp(f.masses(*grid) * g.masses(*grid), 2 * cells), cells)
    out = _tree_masses(tree, cells, lvl, pos)
    fine = lvl > cells
    if fine.any():
        lf, pf = lvl[fine], pos[fine]
        out[fine] = np.ldexp(f.masses(lf, pf) * g.masses(lf, pf), lf)
    return out


def _assert_same_partition(got, top, down):
    atoms = [DyadicInterval(top.level + down, (top.position << down) + j) for j in range(1 << down)]
    want = AtomPartition(top, *interval_arrays(atoms))
    for name in ("levels", "positions", "left_ticks", "right_ticks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, top, down)
    assert (got.root, got.finest_level, got.atoms) == (want.root, want.finest_level, want.atoms)
    assert subdivide(top, down) == atoms


def _assert_layout_matches(w, other, depths, exponents=((2.0, 2.0), (2.0, 4.0))):
    """Every layout reader on w (and its product with `other`) against the references."""
    for depth in depths:
        _assert_scan_matches(w, ROOT, [depth])
        for p, q in exponents:
            rep = one_weight_apq(w, p, q, depth=depth)
            value, at = _ref_one_weight_apq(w, p, q, depth)
            assert (rep.value.hex(), rep.attained_at) == (value.hex(), at), (w, p, q, depth)
        for base in (ROOT, DyadicInterval(2, 1)):
            got = w.grid_masses(base, depth)
            assert got.tobytes() == w.masses(*_ref_grid(base, depth)).tobytes(), (w, base, depth)
        lvl, pos = _subtree_arrays(ROOT, depth)
        got = product_masses(w, other, lvl, pos)
        assert got.tobytes() == _ref_product_masses(w, other, lvl, pos).tobytes(), (w, depth)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_layout_readers_are_bitwise_the_former_enumerations(suite, seed):
    inst = make_instance(suite, seed, SUITES.index(suite))
    _assert_layout_matches(inst.sigma, inst.omega, range(13))
    _assert_layout_matches(inst.omega, PowerWeight(0.5), range(13))


@pytest.mark.parametrize(
    "w, other",
    [
        (LEBESGUE, PowerWeight(0.5)),
        (PowerWeight(0.25), LEBESGUE),
        (PowerWeight(-0.2, 3.0), PiecewiseWeight(2, [1.0, 2.0, 0.5, 4.0])),
    ],
)
def test_layout_readers_are_bitwise_the_former_enumerations_on_power_weights(w, other):
    _assert_layout_matches(w, other, range(13))


def test_one_weight_ties_go_to_the_coarsest_level_then_the_leftmost_interval():
    # a constant density ties everywhere: the root wins, as in the level-by-level order
    for w in (LEBESGUE, PiecewiseWeight(3, np.full(8, 2.5))):
        for depth in range(9):
            assert one_weight_apq(w, 2.0, 2.0, depth=depth).attained_at == ROOT
    # the left half and both of its halves reach 4.515625, above the root:
    # the coarser left half wins over the two deeper quarters
    w = PiecewiseWeight(3, [1.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    rep = one_weight_apq(w, 2.0, 2.0, depth=3)
    assert (rep.value, rep.attained_at) == (4.515625, DyadicInterval(1, 0))
    assert (rep.value, rep.attained_at) == _ref_one_weight_apq(w, 2.0, 2.0, 3)


@pytest.mark.parametrize("top", [ROOT, DyadicInterval(3, 5), DyadicInterval(50, 7)])
def test_uniform_partition_and_subdivide_are_the_interval_built_ones(top):
    for down in range(11 if top.level < 50 else 12):
        _assert_same_partition(uniform_partition(top, down), top, down)
