"""One family geometry per family object, reached through `family_geometry`.

Every check that reads a family's geometry on its own atoms calls the
public norm estimate and testing sums with the family, and those share one
geometry through `dyadic.family_geometry`, which rebuilds only when it is
handed a different family object. The source scan, in the style of
tests/test_solver_entry.py, keeps geometry-passing twins of the public
functions and private geometry builds from coming back. The mass work
guards count the weight kernels' calls: a geometry computes each weight
object's atom and member masses once, and keeps them as long as it lives.
"""

import ast
import gc
import importlib
import inspect
import pkgutil
import weakref

import numpy as np
import pytest

import sparselab
from sparselab import (
    DyadicInterval,
    ExponentConfig,
    FamilyGeometry,
    PiecewiseWeight,
    PositiveDyadicOperator,
    PowerWeight,
    SparseFamily,
    atoms_of,
    build_principal_cubes,
    chain_family,
    check_prop31,
    check_thm11,
    lsu_check,
    make_instance,
    principal_sum_bound,
    two_weight_char,
    verify_thm42,
)
from sparselab import dyadic
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


@pytest.fixture
def kernel_calls(monkeypatch):
    """One entry per `masses` kernel call of either weight class while the test runs."""
    calls = []
    for cls in (PiecewiseWeight, PowerWeight):
        kernel = cls.masses
        monkeypatch.setattr(
            cls, "masses",
            lambda self, *a, kernel=kernel: calls.append(self) or kernel(self, *a),
        )
    return calls


def test_thm42_with_tstar_makes_six_kernel_calls(kernel_calls):
    # atom and member masses of omega and sigma on the geometry, then one
    # subtree call per A_infty scan; the characteristic and both testing
    # sums read the geometry's masses
    inst = make_instance("thm42", 7, 2)
    _, rep_tstar = verify_thm42(inst.family, inst.cfg, inst.omega, inst.sigma)
    assert rep_tstar is not None
    assert len(kernel_calls) == 6


@pytest.mark.parametrize("index", [0, 2])  # a piecewise and a power density f
def test_principal_build_and_bound_make_four_kernel_calls(kernel_calls, index):
    # sigma's two arrays on the geometry and two for the product density, the
    # cell masses of f and of sigma (its node sums come from a tree, with no
    # weight built); the bound reads sigma's atom masses from the geometry
    inst = make_instance("principal", 7, index)
    f = inst.extras["f"]
    assert isinstance(f, PowerWeight) == (index == 2)
    stopping = build_principal_cubes(inst.family, f, inst.sigma)
    principal_sum_bound(stopping, f, inst.sigma, inst.extras["p"])
    assert len(kernel_calls) == 4


def test_geometry_masses_are_kept_per_weight_object(kernel_calls):
    geom = family_geometry(chain_family(4))
    w = PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])
    first = geom.masses(w)
    assert len(kernel_calls) == 2
    second = geom.masses(w)
    assert len(kernel_calls) == 2
    assert all(a is b and not a.flags.writeable for a, b in zip(first, second))
    # an equal weight that is another object gets its own entry
    twin = PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])
    again = geom.masses(twin)
    assert len(kernel_calls) == 4
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, again))


def test_characteristic_alone_builds_no_atoms(monkeypatch, kernel_calls):
    # the characteristic reads member masses only, so a family of 2047
    # members costs two kernel calls and no atoms, incidence or containment
    built = []
    monkeypatch.setattr(dyadic, "atoms_of", lambda *a: built.append(a) or atoms_of(*a))
    family = SparseFamily(tuple(DyadicInterval(k, m) for k in range(11) for m in range(1 << k)))
    omega, sigma = (PiecewiseWeight(6, np.linspace(1.0, 2.0, 64)) for _ in range(2))
    rep = two_weight_char(omega, sigma, ExponentConfig(2.0, 2.0, 1.0, 1.0), family)
    assert rep.value == pytest.approx(2.0, rel=1e-12)
    assert built == [] and len(kernel_calls) == 2
    geom = family_geometry(family)
    assert not {"part", "ranges", "incidence", "contains"} & set(vars(geom))


def test_masses_live_as_long_as_the_cached_geometry():
    family = chain_family(4)
    geom = family_geometry(family)
    w = PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])
    geom.masses(w)
    geom_ref, w_ref = weakref.ref(geom), weakref.ref(w)
    del geom, w
    gc.collect()
    assert geom_ref() is not None and w_ref() is not None  # held by the one-slot cache
    family_geometry(chain_family(4))  # another family object takes the slot
    gc.collect()
    assert geom_ref() is None and w_ref() is None


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


def test_only_family_geometry_builds_geometries():
    # apply_sparse aligns the family with its argument's partition through atom_ranges
    builds = sorted(b for scan in _scans() for b in scan.builds)
    assert builds == ["dyadic.family_geometry"]


def test_no_geometry_passing_twins():
    twins = {"_estimate", "_testing_T", "_testing_Tstar", "_lsu_sums"}
    defined = {name for scan in _scans() for name in scan.defined}
    assert not twins & defined
