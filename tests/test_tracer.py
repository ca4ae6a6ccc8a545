"""The benchmark tracer's targets must exist in the library.

perfbench/tracer.py wraps sparselab functions and methods by name; a
rename in the library would otherwise only surface as a failing traced
benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import sparselab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name,attr", tracer.TRACED)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(f"{sparselab.__name__}.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads methods from the class __dict__, not through inheritance
        assert callable(vars(getattr(module, cls_name)).get(method)), attr
    else:
        assert callable(getattr(module, attr, None)), attr


def test_counter_arguments_exist():
    # COUNTERS read maximize's result.iterations, log_value_and_grad's u and the sweeps' k_top
    fields = {f.name for f in dataclasses.fields(sparselab.AscentResult)}
    assert "iterations" in fields
    params = inspect.signature(sparselab.CubeObjective.log_value_and_grad).parameters
    assert list(params)[1] == "u"
    for name in ("primal_quantities", "dual_quantities"):
        params = inspect.signature(getattr(sparselab.sharpness, name)).parameters
        assert list(params)[4] == "k_top"
