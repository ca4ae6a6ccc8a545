"""`ascent.maximize` is the one solver entry and alone holds the solver defaults.

The five solver-facing functions forward the options they are given to
`maximize` unchanged and pass none they were not given, so a default
stated anywhere else would show up here. The signature scan, in the style
of tests/test_tracer.py, keeps solver-option parameters from drifting back
into the checks.
"""

import importlib
import inspect
import pkgutil

import pytest

import sparselab
from sparselab import (
    PositiveDyadicOperator,
    ascent,
    check_lemma32,
    check_prop31,
    check_thm11,
    estimate_opnorm,
    lsu_check,
    make_instance,
)


def _estimate_opnorm(**solver):
    inst = make_instance("thm11", 7, 5)
    estimate_opnorm(inst.family, inst.cfg, inst.omega, inst.sigma, **solver)


def _check_thm11(**solver):
    inst = make_instance("thm11", 7, 0)
    check_thm11(inst.family, inst.cfg, inst.omega, inst.sigma, **solver)


def _check_prop31(**solver):
    inst = make_instance("prop31", 7, 1)
    check_prop31(inst.family, inst.cfg, inst.omega, inst.sigma, **solver)


def _check_lemma32(**solver):
    inst = make_instance("lemma32", 7, 3)
    check_lemma32(inst.family, inst.cfg, inst.extras["coefs"], inst.omega, inst.sigma, **solver)


def _lsu_check(**solver):
    inst = make_instance("lemma34", 7, 2)
    op = PositiveDyadicOperator(inst.family, inst.extras["taus"])
    lsu_check(op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma, **solver)


CALLERS = {
    "estimate_opnorm": _estimate_opnorm,
    "check_thm11": _check_thm11,
    "check_prop31": _check_prop31,
    "check_lemma32": _check_lemma32,
    "lsu_check": _lsu_check,
}


@pytest.mark.parametrize("name", CALLERS)
@pytest.mark.parametrize(
    "solver",
    [{}, {"tol": 1e-7}, {"restarts": 3, "max_iters": 40, "tol": 1e-6, "seed": 5}],
    ids=["none", "tol", "all"],
)
def test_solver_options_reach_maximize_unchanged(monkeypatch, name, solver):
    received = []
    maximize = ascent.maximize

    def recorder(objective, **kwargs):
        received.append(kwargs)
        return maximize(objective, **kwargs)

    monkeypatch.setattr(sparselab.sparse, "maximize", recorder)
    monkeypatch.setattr(sparselab.testing, "maximize", recorder)
    CALLERS[name](**solver)
    if name == "check_lemma32":
        # side II runs from the next seed; check_lemma32's own seed defaults to 0
        seed = solver.get("seed", 0)
        assert received == [{**solver, "seed": seed}, {**solver, "seed": seed + 1}]
    else:
        assert received == [solver]


SOLVER_PARAMS = {"restarts", "max_iters", "tol"}
# Every declaration of a parameter named like a solver option: maximize, the
# one entry and the only one with defaults, and its two internal steps, which
# take maximize's values.
DECLARED = {
    "ascent.maximize": {"restarts", "max_iters", "tol"},
    "ascent._solve": {"max_iters", "tol"},
    "ascent.CubeObjective._step": {"tol"},
}


def _functions():
    """Every function and method written in the package's source files.

    Code that dataclasses generate has no source file and is skipped.
    """
    for info in pkgutil.iter_modules(sparselab.__path__):
        module = importlib.import_module(f"{sparselab.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)  # static and class methods
                    if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                        yield f"{info.name}.{name}.{attr}", func


def test_only_maximize_declares_the_solver_defaults():
    found = {}
    for qualname, func in _functions():
        params = inspect.signature(func).parameters
        names = SOLVER_PARAMS & set(params)
        if names:
            found[qualname] = names
        if qualname != "ascent.maximize":
            defaults = {n for n in names if params[n].default is not inspect.Parameter.empty}
            assert not defaults, (qualname, defaults)
    assert found == DECLARED
