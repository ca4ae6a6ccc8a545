"""Per-layer tracing of sparselab from outside the program.

Each traced function is replaced, in every loaded sparselab module that
binds its name, by a wrapper that records a span: layer name, parent span,
start and end. Methods are replaced on their class, so both weight classes
count under `weights.mass` and `weights.grid_masses`. Spans are kept in
memory; a layer's self time is the sum over its spans of the duration minus
the durations of the span's children. Everything is restored on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute); "Class.method" attributes are methods of that class.
TRACED = (
    ("instances", "make_instance"),
    ("dyadic", "atoms_of"),
    ("dyadic", "carleson_constant"),
    ("weights", "PowerWeight.mass"),
    ("weights", "PiecewiseWeight.mass"),
    ("weights", "PowerWeight.grid_masses"),
    ("weights", "PiecewiseWeight.grid_masses"),
    ("weights", "ainfty"),
    ("weights", "two_weight_char"),
    ("sparse", "estimate_opnorm"),
    ("sparse", "rayleigh_objective"),
    ("sparse", "indicator_lower_bound"),
    ("ascent", "maximize"),
    ("ascent", "CubeObjective.log_value_and_grad"),
    ("testing", "testing_T"),
    ("testing", "testing_Tstar"),
    ("testing", "lsu_testing_sums"),
    ("testing", "check_lemma41"),
    ("testing", "check_lemma43"),
    ("stopping", "build_principal_cubes"),
    ("stopping", "principal_sum_bound"),
    ("sharpness", "primal_quantities"),
    ("sharpness", "dual_quantities"),
)


def layer_of(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


LAYERS = tuple(dict.fromkeys(layer_of(m, a) for m, a in TRACED))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# layer -> (counter, amount added per call from (args, kwargs, result))
COUNTERS = {
    "ascent.maximize": ("ascent.iterations", lambda a, k, r: r.iterations),
    "ascent.log_value_and_grad": ("ascent.grad_rows", lambda a, k, r: len(_arg(a, k, 1, "u"))),
    "sharpness.primal_quantities": ("sharpness.shells", lambda a, k, r: _arg(a, k, 4, "k_top")),
    "sharpness.dual_quantities": ("sharpness.shells", lambda a, k, r: _arg(a, k, 4, "k_top")),
}


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start_ns, end_ns]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter_ns()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the body of span(), inlined: this runs on every call of a traced function
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sparselab" or n.startswith("sparselab.")]
        for module_name, attr in TRACED:
            home = sys.modules[f"sparselab.{module_name}"]
            name = layer_of(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for (name, _, start, end), children in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - children
        return dict(out)
