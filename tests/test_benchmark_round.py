"""One round of every benchmark workload runs and passes its checks.

perfbench/workloads.py reads the library directly (for example
`testing._default_depth`, the order of the sweep tuples and the report
extras); a change that breaks one of those reads would otherwise only
surface as a failed benchmark run. Under perfbench/tracer.py, round 0 must
also reach the traced layers that do its work, so the per-layer figures
keep measuring that work.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sparselab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    # workloads.py imports its sibling reference.py by name, and its
    # dataclasses look their module up in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
tracer = _load_tracer()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_round_zero_passes(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(sparselab, 1)
    refs = wl.prepare(inputs)
    ops = wl.round_ops(sparselab, inputs, refs, 0)
    assert ops
    outputs = [op.call() for op in ops]
    failures = [
        f"{op.label}: {'; '.join(why)}"
        for op, why in zip(ops, wl.check_round(ops, outputs))
        if why
    ]
    assert not failures


# The checks call the public testing sums, so these layers count them:
# verify_thm42 computes T and T* once per testing-sums round, and lsu_check
# one pair of sums for each of the 60 lsu-local operators.
TESTING_CALLS = {
    "testing-sums": {"testing.testing_T": 1, "testing.testing_Tstar": 1},
    "lsu-local": {"testing.lsu_testing_sums": 60},
}


# testing-sums: one verify_thm42 (two scans) and three geometries per round;
# opnorm: two scans and one geometry for each of its 60 instances;
# lsu-local: no scan and one geometry for each of its 60 operators
@pytest.mark.parametrize(
    "name,ainfty_calls,atoms_of_calls",
    [("testing-sums", 2, 3), ("opnorm", 120, 60), ("lsu-local", 0, 60)],
)
def test_round_zero_goes_through_the_traced_layers(name, ainfty_calls, atoms_of_calls):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(sparselab, 1)
    ops = wl.round_ops(sparselab, inputs, wl.prepare(inputs), 0)
    with tracer.Tracer() as traced:
        for op in ops:
            op.call()
    calls = {layer: row["calls"] for layer, row in traced.summary().items()}
    expected = {
        "weights.ainfty": ainfty_calls,
        "dyadic.atoms_of": atoms_of_calls,
        **TESTING_CALLS.get(name, {}),
    }
    assert {layer: calls.get(layer, 0) for layer in expected} == expected
