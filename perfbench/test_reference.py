"""Tests of the benchmark's own references and checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import sparselab as sl  # noqa: E402
import workloads as wk  # noqa: E402

UP = 1.0 + 1e-8
DOWN = 1.0 - 1e-8


def _weights(seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-2.0, 2.0, ref.CELLS), 10.0 ** rng.uniform(-2.0, 2.0, ref.CELLS)


@pytest.mark.parametrize("member", [(0, 0), (1, 1), (3, 5), (6, 0), (6, 63)])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_spectral_norm_of_one_member_is_closed_form(member, alpha):
    sigma, omega = _weights(member[0] * 64 + member[1])
    sig, om = ref.cell_masses(sigma), ref.cell_masses(omega)
    matrix = ref.incidence([member])
    length = 2.0 ** -member[0]
    got = ref.spectral_norm(matrix, [length**-alpha], sig, om)
    sig_q, om_q = float(matrix[0] @ sig), float(matrix[0] @ om)
    assert got == pytest.approx(length**-alpha * math.sqrt(om_q * sig_q), rel=1e-12)


SMALL_FAMILIES = [
    [(0, 0)],
    [(0, 0), (1, 0)],
    [(0, 0), (1, 1)],
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0), (1, 1), (2, 3)],
    [(1, 0), (2, 1)],
]


@pytest.mark.parametrize("members", SMALL_FAMILIES)
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_spectral_norm_agrees_with_grid_oracle(members, alpha):
    sigma, omega = _weights(10 * len(members) + int(2 * alpha))
    family = sl.SparseFamily(tuple(sl.DyadicInterval(*m) for m in members), eta=0.5)
    sig_w, om_w = sl.PiecewiseWeight(6, sigma), sl.PiecewiseWeight(6, omega)
    cfg = sl.ExponentConfig(2.0, 2.0, 1.0, alpha)
    assert len(sl.atoms_of(family)) <= 3
    oracle = sl.oracle_opnorm(family, cfg, om_w, sig_w)
    ordered = [(m.level, m.position) for m in family.members]
    gamma = ref.lengths(ordered) ** -alpha
    exact = ref.spectral_norm(
        ref.incidence(ordered), gamma, ref.cell_masses(sigma), ref.cell_masses(omega)
    )
    # the oracle scans a finite grid of directions, so it can only fall short
    assert oracle <= exact * (1.0 + 1e-12)
    assert oracle == pytest.approx(exact, rel=1e-4)


def test_containment_matches_dyadic_nesting():
    members = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (3, 7), (6, 63)]
    inside = ref.containment(ref.incidence(members))
    for r, (lr, pr) in enumerate(members):
        for q, (lq, pq) in enumerate(members):
            nested = lq >= lr and pq >> (lq - lr) == pr
            assert inside[r, q] == nested


def test_incidence_rejects_members_off_the_grid():
    with pytest.raises(ValueError):
        ref.incidence([(7, 0)])


def _rejected(check, *args):
    return bool(check(*args))


def _replace(out, index, factor):
    out = list(out)
    out[index] *= factor
    return tuple(out)


# Each case: a check, an output that passes it at equality, the index of the
# value to perturb, the factor that crosses the bound, and the check's other
# arguments. Equality checks appear once per direction.
S = 7.5
CASES = [
    # opnorm: estimate >= lower >= char, A_infty >= 1, estimate == spectral
    ("opnorm estimate vs lower", wk.check_opnorm, (S, S, 1.0, 1.0, 1.0), 0, DOWN, (None,)),
    ("opnorm lower vs char", wk.check_opnorm, (S * 2, S, S, 1.0, 1.0), 1, DOWN, (None,)),
    ("opnorm ainfty sigma", wk.check_opnorm, (S, S, 1.0, 1.0, 1.0), 3, DOWN, (None,)),
    ("opnorm ainfty omega", wk.check_opnorm, (S, S, 1.0, 1.0, 1.0), 4, DOWN, (None,)),
    ("opnorm spectral below", wk.check_opnorm, (S, 1.0, 1.0, 1.0, 1.0), 0, DOWN, (S,)),
    ("opnorm spectral above", wk.check_opnorm, (S, 1.0, 1.0, 1.0, 1.0), 0, UP, (S,)),
    # lsu-local: total == first + second, estimate >= each sum, estimate == spectral
    ("lsu total below", wk.check_lsu, (S, 5.0), 1, DOWN, ((2.0, 3.0), None)),
    ("lsu total above", wk.check_lsu, (S, 5.0), 1, UP, ((2.0, 3.0), None)),
    ("lsu estimate vs second", wk.check_lsu, (3.0, 5.0), 0, DOWN, ((2.0, 3.0), None)),
    ("lsu estimate vs first", wk.check_lsu, (3.0, 5.0), 0, DOWN, ((3.0, 2.0), None)),
    ("lsu spectral below", wk.check_lsu, (S, 5.0), 0, DOWN, ((2.0, 3.0), S)),
    ("lsu spectral above", wk.check_lsu, (S, 5.0), 0, UP, ((2.0, 3.0), S)),
    # thm42: T and T* == grid, each and its bound >= char^r
    ("thm42 T below", wk.check_thm42, (S, S, None, None), 0, DOWN, (S, None, 1.0)),
    ("thm42 T above", wk.check_thm42, (S, S, None, None), 0, UP, (S, None, 1.0)),
    ("thm42 T vs char", wk.check_thm42, (S, S, None, None), 0, DOWN, (S, None, S)),
    ("thm42 T bound vs char", wk.check_thm42, (S, S, None, None), 1, DOWN, (S, None, S)),
    ("thm42 T* below", wk.check_thm42, (S, S, S, S), 2, DOWN, (S, S, 1.0)),
    ("thm42 T* above", wk.check_thm42, (S, S, S, S), 2, UP, (S, S, 1.0)),
    ("thm42 T* vs char", wk.check_thm42, (S, S, S, S), 2, DOWN, (S, S, S)),
    ("thm42 T* bound vs char", wk.check_thm42, (S, S, S, S), 3, DOWN, (S, S, S)),
    # lemma41: both sides == grid; at p = 2 the ratio lies in [1, sqrt 2]
    ("lemma41 lhs below", wk.check_lemma41, (S, 2.0, S / 2.0), 0, DOWN, (S, 2.0, 3.0)),
    ("lemma41 lhs above", wk.check_lemma41, (S, 2.0, S / 2.0), 0, UP, (S, 2.0, 3.0)),
    ("lemma41 rhs below", wk.check_lemma41, (S, 2.0, S / 2.0), 1, DOWN, (S, 2.0, 3.0)),
    ("lemma41 rhs above", wk.check_lemma41, (S, 2.0, S / 2.0), 1, UP, (S, 2.0, 3.0)),
    ("lemma41 ratio below 1", wk.check_lemma41, (S, S, 1.0), 2, DOWN, (S, S, 2.0)),
    ("lemma41 ratio above sqrt 2", wk.check_lemma41, (S, S, math.sqrt(2.0)), 2, UP, (S, S, 2.0)),
    # principal: pointwise ratio <= 1
    ("principal ratio", wk.check_principal, (1.0, 0.5, 3), 0, UP, ()),
    # primal rows: fnorm == eps^(-1/p), af_exact >= af_lower, tails <= 1e-6
    ("primal fnorm below", wk.check_primal_row, (9.0, 2.0**4.5, S, S, 0.0, 0.0), 1, DOWN, (2.0**-9, 2.0)),
    ("primal fnorm above", wk.check_primal_row, (9.0, 2.0**4.5, S, S, 0.0, 0.0), 1, UP, (2.0**-9, 2.0)),
    ("primal af_exact", wk.check_primal_row, (9.0, 2.0**4.5, S, S, 0.0, 0.0), 3, DOWN, (2.0**-9, 2.0)),
    ("primal tail_lower", wk.check_primal_row, (9.0, 2.0**4.5, S, S, 1e-6, 0.0), 4, UP, (2.0**-9, 2.0)),
    ("primal tail_exact", wk.check_primal_row, (9.0, 2.0**4.5, S, S, 0.0, 1e-6), 5, UP, (2.0**-9, 2.0)),
    # dual rows: coefficient identity <= 1e-9, tails <= 1e-6
    ("dual coef identity", wk.check_dual_row, (9.0, 1.0, 1.0, 1.0, 1e-9, 0.0, 0.0), 4, UP, ()),
    ("dual tail_rhs", wk.check_dual_row, (9.0, 1.0, 1.0, 1.0, 0.0, 1e-6, 0.0), 5, UP, ()),
    ("dual tail_lhs", wk.check_dual_row, (9.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1e-6), 6, UP, ()),
]


@pytest.mark.parametrize("name, check, out, index, factor, args", CASES, ids=[c[0] for c in CASES])
def test_check_rejects_value_perturbed_by_1e8(name, check, out, index, factor, args):
    assert not _rejected(check, out, *args), check(out, *args)
    assert _rejected(check, _replace(out, index, factor), *args)


def _sweep_rows(slope, chars):
    """Rows (char, rhs, lhs) whose quotient lhs / rhs grows exactly like char^slope."""
    return [(c, 1.0, c**slope) for c in chars]


@pytest.mark.parametrize("variant, edge", [("primal", 1.0), ("primal", -1.0), ("dual", 1.0), ("dual", -1.0)])
def test_slope_check_rejects_value_perturbed_by_1e8(variant, edge):
    p, q, alpha = 2.0, 4.0, 0.75
    target = ref.slope_target(p, q, alpha, variant)
    chars = [2.0 ** (1.5 * k) for k in range(14, 18)]
    rows = _sweep_rows(target + edge * (wk.SLOPE_TOL - 1e-10), chars)
    assert wk.check_slope(rows, p, q, alpha, variant) is None
    last = rows[-1]
    rows[-1] = (last[0], last[1], last[2] * (UP if edge > 0 else DOWN))
    assert wk.check_slope(rows, p, q, alpha, variant) is not None


def test_slope_targets_are_the_paper_exponents():
    assert ref.slope_target(2.0, 4.0, 0.75, "primal") == pytest.approx(0.375)
    assert ref.slope_target(2.0, 4.0, 0.75, "dual") == pytest.approx(0.25)
    assert ref.slope_target(4.0, 8.0, 0.875, "primal") == pytest.approx(7.0 / 48.0)
    assert ref.slope_target(4.0, 8.0, 0.875, "dual") == pytest.approx(0.375)


def test_fitted_slope_is_least_squares():
    x = np.array([1.0, 2.0, 4.0, 7.0])
    y = 0.3 * x + np.array([0.01, -0.02, 0.015, -0.005])
    expected = np.polyfit(x, y, 1)[0]
    assert ref.fitted_slope(np.exp(x), np.exp(y)) == pytest.approx(expected, rel=1e-12)
