"""The four benchmark workloads: their inputs, operations and checks.

A workload is run in rounds. Every round holds the same kinds of operation
in the same order, so a run made of whole rounds fails the same share of
its operations whatever its length and seed. `setup` generates every input
with `make_instance` (the part of the run that `setup_s` times);
`prepare` computes the independent references, untimed; `round_ops` lists
the operations of round k.

Operations call sparselab through attributes of the package looked up at
call time, so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

SANDWICH_TOL = 1e-12  # relative slack of the inequalities the theorems guarantee
EXACT_TOL = 1e-12     # recomputed sums, testing constants and bracket sides
SPECTRAL_TOL = 1e-9   # (p, q) = (2, 2) norms against the spectral norm
SWEEP_TOL = 1e-9      # closed-form identities of the sweeps
TAIL_MAX = 1e-6       # certified truncation tails of the sweeps
SLOPE_TOL = 0.01      # fitted sweep slope against its predicted exponent

# opnorm and lsu-local run instances of this seed, whatever --seed is. Every
# linear row among them fails its spectral check (the ascent fault in
# README.md), so the failed share of a run does not depend on the seed.
FAULT_SEED = 7


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], tuple]
    check: Callable[[tuple], list]  # failure reasons of an output; empty if it passes


def _failures(*reasons) -> list:
    return [r for r in reasons if r]


def _members(inst) -> list:
    return [(m.level, m.position) for m in inst.family.members]


def _grid(inst):
    """Incidence matrix and sigma, omega cell masses of a generated instance."""
    return (
        ref.incidence(_members(inst)),
        ref.cell_masses(inst.sigma.values),
        ref.cell_masses(inst.omega.values),
    )


class Workload:
    name = ""
    # op_ms_tail's percentile: the highest whole percentile that has ten
    # operations beyond it in every run; a run holds min_ops or more.
    tail_percentile = 50
    trace_rounds = 1        # rounds of the traced run

    @property
    def min_ops(self) -> int:
        return math.ceil(1000 / (100 - self.tail_percentile))

    def setup(self, sl, seed: int):
        raise NotImplementedError

    def prepare(self, inputs):
        raise NotImplementedError

    def round_ops(self, sl, inputs, refs, k: int) -> list:
        raise NotImplementedError

    def check_round(self, ops, outputs) -> list:
        """Failure reasons per operation; an output of None (the call raised) is skipped."""
        return [[] if out is None else op.check(out) for op, out in zip(ops, outputs)]


def _label(inst, seed) -> str:
    return f"{inst.suite} seed {seed} index {inst.index}"


class FixedPool(Workload):
    """Instances 0..count-1 of one suite at FAULT_SEED; a round visits each once.

    The instance set does not depend on --seed, which only shuffles the
    order of a round: the cost of one ascent varies several-fold between
    instances, so a seed-drawn subset moved ops_per_s by 22% (interquartile
    range over five seeds) where the fixed set moves it by machine noise
    alone. The fixed set also keeps every known-fault row in every run.
    """

    suite = ""
    count = 60

    def setup(self, sl, seed):
        pool = [sl.make_instance(self.suite, FAULT_SEED, i) for i in range(self.count)]
        return np.random.default_rng(seed).permutation(self.count), pool

    def prepare(self, inputs):
        return [self.reference(inst) for inst in inputs[1]]

    def round_ops(self, sl, inputs, refs, k):
        order, pool = inputs
        return [self.op(sl, pool[i], refs[i]) for i in order]


class OpNorm(FixedPool):
    """thm11 instances, each through the calls `sparselab opnorm` makes."""

    name = "opnorm"
    suite = "thm11"
    tail_percentile = 83  # ten of a round's 60 operations lie beyond it

    @staticmethod
    def reference(inst):
        """The spectral norm on (p, q, r) = (2, 2, 1) rows, else None."""
        cfg = inst.cfg
        if (cfg.p, cfg.q, cfg.r) != (2.0, 2.0, 1.0):
            return None
        matrix, sig, om = _grid(inst)
        gamma = ref.lengths(_members(inst)) ** -cfg.alpha
        return ref.spectral_norm(matrix, gamma, sig, om)

    @staticmethod
    def op(sl, inst, spectral):
        def call():
            cfg = inst.cfg
            est = sl.estimate_opnorm(
                inst.family, cfg, inst.omega, inst.sigma, seed=inst.index
            )
            depth = sl.testing._default_depth(inst.family, inst.omega, inst.sigma)
            char = sl.two_weight_char(inst.omega, inst.sigma, cfg, inst.family).value
            a_sig = sl.ainfty(inst.sigma, depth=depth).value
            a_om = sl.ainfty(inst.omega, depth=depth).value
            rhs = sl.theorem_rhs(cfg, char, a_sig, a_om)
            return (est.ascent_value, est.certified_lower, char, a_sig, a_om, rhs,
                    est.iterations, est.converged)

        return Op(_label(inst, FAULT_SEED), call, lambda out: check_opnorm(out, spectral))


def check_opnorm(out, spectral):
    """Sandwich and A_infty checks; on (2, 2, 1) rows the estimate is the spectral norm.

    Falling short of the spectral norm is the known ascent fault; exceeding
    it is impossible for a correct program and a correct reference.
    """
    est, lower, char, a_sig, a_om = out[:5]
    reasons = _failures(
        ref.at_least("estimate", est, lower, SANDWICH_TOL),
        ref.at_least("certified lower bound", lower, char, SANDWICH_TOL),
        ref.at_least("ainfty(sigma)", a_sig, 1.0, 0.0),
        ref.at_least("ainfty(omega)", a_om, 1.0, 0.0),
    )
    if spectral is not None:
        reasons += _failures(
            ref.at_least("estimate (spectral norm)", est, spectral, SPECTRAL_TOL),
            ref.at_most("estimate (spectral norm)", est, spectral, SPECTRAL_TOL),
        )
    return reasons


class LsuLocal(FixedPool):
    """lemma34 instances through `lsu_check`, the linear positive operator."""

    name = "lsu-local"
    suite = "lemma34"
    tail_percentile = 91  # ten of 120 lie beyond it; min_ops makes a run two rounds or more

    @staticmethod
    def reference(inst):
        """Both testing sums, and the spectral norm on (p, q) = (2, 2) rows."""
        matrix, sig, om = _grid(inst)
        p, q, taus = inst.extras["p"], inst.extras["q"], inst.extras["taus"]
        sums = ref.lsu_testing_sums(matrix, taus, p, q, sig, om)
        if (p, q) != (2.0, 2.0):
            return sums, None
        gamma = np.asarray(taus) / ref.lengths(_members(inst))
        return sums, ref.spectral_norm(matrix, gamma, sig, om)

    @staticmethod
    def op(sl, inst, refs):
        def call():
            op = sl.PositiveDyadicOperator(inst.family, inst.extras["taus"])
            rep = sl.lsu_check(
                op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma,
                seed=inst.index,
            )
            return (rep.lhs, rep.rhs, rep.extras["converged"])

        return Op(_label(inst, FAULT_SEED), call, lambda out: check_lsu(out, *refs))


def check_lsu(out, sums, spectral):
    """The estimate dominates both testing sums; (2, 2) rows meet the spectral norm."""
    est, total = out[:2]
    first, second = sums
    reasons = _failures(
        ref.close("sum of testing sums", total, first + second, EXACT_TOL),
        ref.at_least("estimate", est, max(first, second), SANDWICH_TOL),
    )
    if spectral is not None:
        reasons += _failures(ref.close("estimate", est, spectral, SPECTRAL_TOL))
    return reasons


class TestingSums(Workload):
    """thm42, lemma41 and principal instances in round robin.

    lemma43 is left out: PiecewiseWeight.mass loses up to 4e-12 relative to
    prefix-sum cancellation on single level-6 cells, so on some seeds a few
    lemma43 sums miss the 1e-12 direct-sum check (see CHANGES.md).
    """

    name = "testing-sums"
    tail_percentile = 99
    trace_rounds = 100
    pool = 100
    suites = ("thm42", "lemma41", "principal")

    def setup(self, sl, seed):
        pools = {s: [sl.make_instance(s, seed, i) for i in range(self.pool)] for s in self.suites}
        return seed, pools

    def prepare(self, inputs):
        _, pools = inputs
        thm42 = []
        for inst in pools["thm42"]:
            matrix, sig, om = _grid(inst)
            cfg = inst.cfg
            t_val, tstar = ref.testing_constants(
                matrix, cfg.alpha, cfg.p, cfg.q, cfg.r, sig, om
            )
            char = ref.characteristic(matrix, cfg.alpha, cfg.p, cfg.q, sig, om)
            thm42.append((t_val, tstar, char**cfg.r))
        lemma41 = []
        for inst in pools["lemma41"]:
            matrix, sig, _ = _grid(inst)
            coefs, p = inst.extras["coefs"], inst.extras["p"]
            lemma41.append(ref.lemma41_sides(matrix, coefs, p, sig))
        return {"thm42": thm42, "lemma41": lemma41}

    def round_ops(self, sl, inputs, refs, k):
        seed, pools = inputs
        i = k % self.pool
        t42, l41, pr = (pools[s][i] for s in self.suites)
        return [
            Op(_label(t42, seed), lambda: call_thm42(sl, t42),
               lambda out: check_thm42(out, *refs["thm42"][i])),
            Op(_label(l41, seed), lambda: call_lemma41(sl, l41),
               lambda out: check_lemma41(out, *refs["lemma41"][i], l41.extras["p"])),
            Op(_label(pr, seed), lambda: call_principal(sl, pr), check_principal),
        ]


def call_thm42(sl, inst):
    rep_t, rep_s = sl.verify_thm42(inst.family, inst.cfg, inst.omega, inst.sigma)
    if rep_s is None:
        return (rep_t.lhs, rep_t.rhs, None, None)
    return (rep_t.lhs, rep_t.rhs, rep_s.lhs, rep_s.rhs)


def check_thm42(out, t_ref, tstar_ref, char_r):
    """T and T* against the grid, both at least char^r; so are their A_infty bounds."""
    t_val, rhs_t, tstar, rhs_s = out
    reasons = _failures(
        ref.close("T", t_val, t_ref, EXACT_TOL),
        ref.at_least("T", t_val, char_r, SANDWICH_TOL),
        ref.at_least("T bound (A_infty factors >= 1)", rhs_t, char_r, SANDWICH_TOL),
    )
    if (tstar is None) != (tstar_ref is None):
        reasons.append(f"T* computed {tstar!r}, expected {tstar_ref!r}")
    elif tstar is not None:
        reasons += _failures(
            ref.close("T*", tstar, tstar_ref, EXACT_TOL),
            ref.at_least("T*", tstar, char_r, SANDWICH_TOL),
            ref.at_least("T* bound (A_infty factors >= 1)", rhs_s, char_r, SANDWICH_TOL),
        )
    return reasons


def call_lemma41(sl, inst):
    rep = sl.check_lemma41(inst.family, inst.extras["coefs"], inst.sigma, inst.extras["p"])
    return (rep.lhs, rep.rhs, rep.ratio)


def check_lemma41(out, lhs_ref, rhs_ref, p):
    lhs, rhs, ratio = out
    reasons = _failures(
        ref.close("lemma41 lhs", lhs, lhs_ref, EXACT_TOL),
        ref.close("lemma41 rhs", rhs, rhs_ref, EXACT_TOL),
    )
    if p == 2.0:
        reasons += _failures(
            ref.at_least("p=2 ratio", ratio, 1.0, SANDWICH_TOL),
            ref.at_most("p=2 ratio", ratio, math.sqrt(2.0), SANDWICH_TOL),
        )
    return reasons


def call_principal(sl, inst):
    f, p = inst.extras["f"], inst.extras["p"]
    stopping = sl.build_principal_cubes(inst.family, f, inst.sigma)
    bound = sl.principal_sum_bound(stopping, f, inst.sigma, p)
    return (bound["max_pointwise_ratio"], bound["integrated_ratio"], len(stopping.principals))


def check_principal(out):
    return _failures(ref.at_most("principal pointwise ratio", out[0], 1.0, SANDWICH_TOL))


class SharpnessDeep(Workload):
    """Primal and dual sweeps at (2, 4, 3/4) and (4, 8, 7/8), eps down to 2^-17."""

    name = "sharpness-deep"
    # p97 would fall between the two costliest rows of a round, dual (2, 4)
    # and dual (4, 8) at the smallest eps; p96 lies among the second.
    tail_percentile = 96
    trace_rounds = 1
    sweeps = (
        (2.0, 4.0, 0.75, "primal"),
        (2.0, 4.0, 0.75, "dual"),
        (4.0, 8.0, 0.875, "primal"),
        (4.0, 8.0, 0.875, "dual"),
    )
    levels = range(9, 18)
    jitter = 0.02  # eps_k = 2^(-k + u_k), u_k uniform in [-jitter, jitter] from the seed
    fit_rows = 4

    def setup(self, sl, seed):
        u = np.random.default_rng(seed).uniform(-self.jitter, self.jitter, len(self.levels))
        return [2.0 ** (-k + d) for k, d in zip(self.levels, u)]

    def prepare(self, inputs):
        return None

    def round_ops(self, sl, inputs, refs, k):
        ops = []
        for p, q, alpha, variant in self.sweeps:
            for eps in inputs:
                k_top = math.ceil(20.0 / eps)
                fn = "primal_quantities" if variant == "primal" else "dual_quantities"
                ops.append(Op(
                    f"{variant} ({p:g}, {q:g}, {alpha:g}) eps={eps!r} K={k_top}",
                    _sweep_call(sl, fn, eps, p, q, alpha, k_top),
                    _sweep_check(variant, eps, p),
                ))
        return ops

    def check_round(self, ops, outputs):
        reasons = super().check_round(ops, outputs)
        rows = len(self.levels)
        for s, (p, q, alpha, variant) in enumerate(self.sweeps):
            fitted = range((s + 1) * rows - self.fit_rows, (s + 1) * rows)
            outs = [outputs[i] for i in fitted]
            if any(out is None for out in outs):
                continue
            reason = check_slope(outs, p, q, alpha, variant)
            if reason:
                for i in fitted:
                    reasons[i].append(reason)
        return reasons


def _sweep_call(sl, fn, eps, p, q, alpha, k_top):
    return lambda: tuple(getattr(sl, fn)(eps, p, q, alpha, k_top))


def _sweep_check(variant, eps, p):
    if variant == "primal":
        return lambda out: check_primal_row(out, eps, p)
    return check_dual_row


def check_primal_row(out, eps, p):
    _, fnorm, af_lower, af_exact, tail_lower, tail_exact = out
    return _failures(
        ref.close("fnorm", fnorm, eps ** (-1.0 / p), SWEEP_TOL),
        ref.at_least("af_exact", af_exact, af_lower, SANDWICH_TOL),
        ref.at_most("tail_lower", tail_lower, TAIL_MAX, 0.0),
        ref.at_most("tail_exact", tail_exact, TAIL_MAX, 0.0),
    )


def check_dual_row(out):
    coef_rel, tail_rhs, tail_lhs = out[4:]
    return _failures(
        ref.at_most("coef_identity_max_rel", coef_rel, SWEEP_TOL, 0.0),
        ref.at_most("tail_rhs", tail_rhs, TAIL_MAX, 0.0),
        ref.at_most("tail_lhs", tail_lhs, TAIL_MAX, 0.0),
    )


def check_slope(outs, p, q, alpha, variant):
    """Slope of the norm quotient against the characteristic over the fitted rows.

    The quotient is af_lower / fnorm (primal) or lhs_norm / rhs_norm (dual),
    fields 2 and 1 of either row.
    """
    chars = [out[0] for out in outs]
    slope = ref.fitted_slope(chars, [out[2] / out[1] for out in outs])
    target = ref.slope_target(p, q, alpha, variant)
    if abs(slope - target) <= SLOPE_TOL:
        return None
    return f"{variant} slope {slope!r} further than {SLOPE_TOL} from {target!r}"


WORKLOADS = {w.name: w for w in (OpNorm(), LsuLocal(), TestingSums(), SharpnessDeep())}
