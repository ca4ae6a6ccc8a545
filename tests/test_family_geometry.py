"""One family geometry per family object, reached through `family_geometry`.

Every check that reads a family's geometry on its own atoms calls the
public norm estimate and testing sums with the family, and those share one
geometry through `dyadic.family_geometry`, which rebuilds only when it is
handed a different family object. The source scan, in the style of
tests/test_solver_entry.py, keeps geometry-passing twins of the public
functions and private geometry builds from coming back.
"""

import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import sparselab
from sparselab import (
    FamilyGeometry,
    PositiveDyadicOperator,
    chain_family,
    check_prop31,
    check_thm11,
    lsu_check,
    make_instance,
    verify_thm42,
)
from sparselab.dyadic import family_geometry


@pytest.fixture
def built(monkeypatch):
    """The family of every FamilyGeometry built while the test runs."""
    families = []
    init = FamilyGeometry.__init__

    def counting(self, family, *args, **kwargs):
        families.append(family)
        init(self, family, *args, **kwargs)

    monkeypatch.setattr(FamilyGeometry, "__init__", counting)
    return families


def _prop31():
    inst = make_instance("prop31", 7, 1)  # r < p: the estimate, T and T*
    rep = check_prop31(inst.family, inst.cfg, inst.omega, inst.sigma)
    assert rep.extras["testing_Tstar"] is not None
    return inst.family


def _thm11():
    inst = make_instance("thm11", 7, 0)
    check_thm11(inst.family, inst.cfg, inst.omega, inst.sigma)
    return inst.family


def _thm42():
    inst = make_instance("thm42", 7, 2)  # p > r: T and T*
    _, rep_tstar = verify_thm42(inst.family, inst.cfg, inst.omega, inst.sigma)
    assert rep_tstar is not None
    return inst.family


def _lsu():
    inst = make_instance("lemma34", 7, 2)
    op = PositiveDyadicOperator(inst.family, inst.extras["taus"])
    lsu_check(op, inst.extras["p"], inst.extras["q"], inst.omega, inst.sigma)
    return inst.family


@pytest.mark.parametrize("check", [_prop31, _thm11, _thm42, _lsu])
def test_each_check_builds_one_geometry(built, check):
    family = check()
    assert built == [family]


def test_equal_families_that_are_different_objects_build_two(built):
    a, b = chain_family(4), chain_family(4)
    assert a == b and a is not b
    geom = family_geometry(a)
    assert family_geometry(a) is geom
    assert family_geometry(b) is not geom
    assert built == [a, b]
    # one family is kept: going back to the first builds it again
    family_geometry(a)
    assert built == [a, b, a]


def test_shared_geometry_is_read_only():
    geom = family_geometry(chain_family(3))
    with pytest.raises(ValueError):
        geom.incidence[0, 0] = 1.0
    for name in ("incidence", "contains", "lengths", "ranges", "levels", "positions"):
        arr = getattr(geom, name)
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name


class _Scan(ast.NodeVisitor):
    """Qualified names of FamilyGeometry calls and of every function defined."""

    def __init__(self, module: str):
        self.scope = [module]
        self.builds = []
        self.defined = []

    def visit_FunctionDef(self, node):
        self.defined.append(node.name)
        self.visit_ClassDef(node)

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "FamilyGeometry":
            self.builds.append(".".join(self.scope))
        self.generic_visit(node)


def _scans():
    for info in pkgutil.iter_modules(sparselab.__path__):
        module = importlib.import_module(f"{sparselab.__name__}.{info.name}")
        scan = _Scan(info.name)
        scan.visit(ast.parse(inspect.getsource(module)))
        yield scan


def test_only_family_geometry_and_apply_sparse_build_geometries():
    # apply_sparse aligns the family with the partition of its argument
    builds = sorted(b for scan in _scans() for b in scan.builds)
    assert builds == ["dyadic.family_geometry", "sparse.apply_sparse"]


def test_no_geometry_passing_twins():
    twins = {"_estimate", "_testing_T", "_testing_Tstar", "_lsu_sums"}
    defined = {name for scan in _scans() for name in scan.defined}
    assert not twins & defined
