import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparselab import (
    LEBESGUE,
    ROOT,
    AtomPartition,
    DyadicInterval,
    ParameterError,
    PiecewiseWeight,
    Relation,
    SparseFamily,
    ainfty,
    atoms_of,
    carleson_constant,
    chain_family,
    dyadic_maximal,
    make_instance,
    one_weight_apq,
    packing_certified,
    relate,
    subdivide,
    uniform_partition,
)
from sparselab.dyadic import interval_arrays

intervals = st.integers(min_value=0, max_value=7).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(
        lambda m: DyadicInterval(k, m)
    )
)


def brute_relate(a: DyadicInterval, b: DyadicInterval) -> Relation:
    """Oracle via endpoint arithmetic on exact dyadic rationals."""
    if a == b:
        return Relation.EQUAL
    if a.left >= b.left and a.right <= b.right:
        return Relation.INSIDE
    if b.left >= a.left and b.right <= a.right:
        return Relation.CONTAINS
    if a.right <= b.left or b.right <= a.left:
        return Relation.DISJOINT
    raise AssertionError("dyadic intervals must nest or be disjoint")


def test_relate_exhaustive_small_levels():
    all_intervals = [
        DyadicInterval(k, m) for k in range(5) for m in range(1 << k)
    ]
    for a in all_intervals:
        for b in all_intervals:
            assert relate(a, b) is brute_relate(a, b)


def test_interval_validation():
    with pytest.raises(ParameterError):
        DyadicInterval(2, 4)
    with pytest.raises(ParameterError):
        DyadicInterval(-1, 0)
    with pytest.raises(ParameterError):
        DyadicInterval(1, -1)
    # fields are integers and not bools; a float or a bool is rejected by name
    for level, position, name in (
        (2, 1.0, "position"), (2.0, 1, "level"), (True, 0, "level"), (1, False, "position"),
    ):
        with pytest.raises(ParameterError, match=f"interval {name} must be an integer"):
            DyadicInterval(level, position)


def test_interval_fields_are_python_ints():
    q = DyadicInterval(np.int64(3), np.int32(5))
    assert type(q.level) is int and type(q.position) is int
    assert q == DyadicInterval(3, 5) and hash(q) == hash(DyadicInterval(3, 5))
    assert repr(q) == "[5/2^3, 6/2^3)"
    # generated instances carry plain ints, so their members serialize
    members = make_instance("thm42", 7, 0).family.members
    assert all(type(m.level) is int and type(m.position) is int for m in members)
    assert json.loads(json.dumps([[m.level, m.position] for m in members]))


def test_interval_geometry():
    q = DyadicInterval(3, 5)
    assert q.length == 0.125
    assert q.left == 0.625
    assert q.right == 0.75
    assert q.parent() == DyadicInterval(2, 2)
    assert q.children() == (DyadicInterval(4, 10), DyadicInterval(4, 11))
    with pytest.raises(ParameterError):
        ROOT.parent()


@given(intervals, intervals)
def test_relate_symmetry(a, b):
    r = relate(a, b)
    s = relate(b, a)
    if r is Relation.INSIDE:
        assert s is Relation.CONTAINS
    elif r is Relation.CONTAINS:
        assert s is Relation.INSIDE
    else:
        assert s is r


@given(intervals, intervals)
def test_encloses_matches_relate(a, b):
    assert a.encloses(b) == (relate(a, b) in (Relation.EQUAL, Relation.CONTAINS))


@given(intervals)
def test_children_partition_parent(q):
    kids = q.children()
    assert math.isclose(sum(c.length for c in kids), q.length)
    assert all(relate(q, c) is Relation.CONTAINS for c in kids)
    assert relate(kids[0], kids[1]) is Relation.DISJOINT


def test_subdivide_counts():
    parts = subdivide(ROOT, 3)
    assert len(parts) == 8
    assert sorted(p.position for p in parts) == list(range(8))


def test_chain_family_and_carleson():
    # packed chain: sum of member lengths inside the root is 2 - 2^-K
    for K in (0, 1, 4, 9):
        fam = chain_family(K)
        assert len(fam) == K + 1
        assert math.isclose(carleson_constant(fam), 2.0 - 2.0**-K, rel_tol=1e-15)
    assert packing_certified(chain_family(4))
    overdeclared = SparseFamily(chain_family(4).members, eta=0.6)
    assert not packing_certified(overdeclared)


def test_levels_from_63_on_are_rejected():
    # a position at level 64 does not fit in int64; the level check comes first
    deep = SparseFamily((ROOT, DyadicInterval(64, (1 << 64) - 1)))
    for family in (chain_family(63), deep):
        for compute in (carleson_constant, atoms_of):
            with pytest.raises(ParameterError, match="level 63 or deeper"):
                compute(family)
    assert len(atoms_of(chain_family(62))) == 63
    # refinement past level 62 is rejected too; level-64 atoms came back with negative ticks
    for extra_depth in (3, 4):
        with pytest.raises(ParameterError, match="level 63 or deeper"):
            atoms_of(chain_family(60), extra_depth)
    assert atoms_of(chain_family(60), 2).finest_level == 62


def test_huge_level_is_checked_without_building_its_power():
    # the position bound must not build 2^level: at level 10^8 that is 12.5 MB
    tracemalloc.start()
    try:
        deep = DyadicInterval(10**8, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ParameterError, match="level 63 or deeper"):
        atoms_of(SparseFamily((ROOT, deep)))


_STEPS = PiecewiseWeight(2, [1.0, 2.0, 3.0, 4.0])

# every reader of the subtree layout, as a call at one depth below the root
_LAYOUT_READERS = {
    "uniform_partition": lambda d: uniform_partition(ROOT, d),
    "subdivide": lambda d: subdivide(ROOT, d),
    "power grid_masses": lambda d: LEBESGUE.grid_masses(ROOT, d),
    "piecewise grid_masses": lambda d: _STEPS.grid_masses(ROOT, d),
    "ainfty": lambda d: ainfty(_STEPS, depth=d),
    "dyadic_maximal": lambda d: dyadic_maximal(LEBESGUE, ROOT, d),
    "one_weight_apq": lambda d: one_weight_apq(_STEPS, 2.0, 2.0, depth=d),
}


@pytest.mark.parametrize(
    "depth, reason", [(63, "level 63 or deeper"), (64, "level 63 or deeper"), (-1, "lies above")]
)
@pytest.mark.parametrize("reader", list(_LAYOUT_READERS))
def test_depth_rule_raises_before_allocating(reader, depth, reason):
    # level 63 once died in np.repeat, or built 2^63 intervals until memory ran out
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=reason):
            _LAYOUT_READERS[reader](depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_uniform_partitions_build_no_intervals_until_atoms_is_read():
    part = uniform_partition(ROOT, 10)
    assert part.locate(DyadicInterval(12, 2049)) == 512
    assert "atoms" not in vars(part)
    assert part.atoms[512] == DyadicInterval(10, 512)


def test_depth_rule_counts_from_the_top_interval():
    top = DyadicInterval(60, 5)
    assert len(uniform_partition(top, 2)) == 4
    with pytest.raises(ParameterError, match="depth 63 puts intervals at level 63 or deeper"):
        uniform_partition(top, 3)
    with pytest.raises(ParameterError, match=r"depth 59 lies above \[5/2\^60"):
        ainfty(LEBESGUE, top, 59)
    with pytest.raises(ParameterError, match="depth must be an integer"):
        subdivide(ROOT, 1.5)


def test_extra_depth_must_be_an_integer():
    for extra_depth in (1.5, True, -1):
        with pytest.raises(ParameterError, match="extra_depth must"):
            atoms_of(chain_family(2), extra_depth)
    assert atoms_of(chain_family(2), np.int64(1)).atoms == atoms_of(chain_family(2), 1).atoms


def test_family_dedup_and_root():
    fam = SparseFamily(
        (DyadicInterval(1, 0), ROOT, DyadicInterval(1, 0)), eta=0.5
    )
    assert len(fam) == 2
    assert fam.root == ROOT
    assert fam.max_level == 1


def test_family_eta_validation():
    with pytest.raises(ParameterError):
        SparseFamily((ROOT,), eta=0.0)
    with pytest.raises(ParameterError):
        SparseFamily((ROOT,), eta=1.5)
    with pytest.raises(ParameterError):
        SparseFamily((), eta=0.5)


def test_atoms_of_partitions_root():
    fam = SparseFamily(
        (ROOT, DyadicInterval(2, 1), DyadicInterval(3, 6)), eta=0.5
    )
    part = atoms_of(fam)
    assert math.isclose(sum(a.length for a in part.atoms), 1.0)
    lefts = [a.left for a in part.atoms]
    assert lefts == sorted(lefts)
    # every member is a contiguous run of atoms
    for q in fam.members:
        i0, i1 = part.atom_range(q)
        assert math.isclose(
            sum(a.length for a in part.atoms[i0:i1]), q.length
        )
        assert all(q.encloses(a) for a in part.atoms[i0:i1])


def test_atom_range_rejects_unaligned():
    part = uniform_partition(ROOT, 2)
    with pytest.raises(ParameterError):
        part.atom_range(DyadicInterval(3, 1))


def test_locate_finds_containing_atom():
    fam = chain_family(2)
    part = atoms_of(fam)
    idx = part.locate(DyadicInterval(5, 0))
    assert part.atoms[idx].encloses(DyadicInterval(5, 0))


def test_atoms_extra_depth():
    part = atoms_of(chain_family(1), extra_depth=2)
    assert len(part) == 8


def _atoms_by_set_walk(family: SparseFamily, extra_depth: int = 0) -> list[DyadicInterval]:
    """Reference atoms: walk each member's ancestors through a set of split nodes."""
    root = family.root
    split = set()
    for m in family.members:
        for level in range(m.level - 1, root.level - 1, -1):
            node = (level, m.position >> (m.level - level))
            if node in split:
                break
            split.add(node)
    cells = {(lvl + 1, 2 * pos + b) for lvl, pos in split for b in (0, 1)} - split
    if not split:
        cells = {(root.level, root.position)}
    finest = max(lvl for lvl, _ in cells)
    leaves = [
        DyadicInterval(*c) for c in sorted(cells, key=lambda c: c[1] << (finest - c[0]))
    ]
    return [a for leaf in leaves for a in subdivide(leaf, extra_depth)]


# atoms stay below level 63 (int64 positions) after two extra levels
deep_intervals = st.integers(min_value=0, max_value=60).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(
        lambda m: DyadicInterval(k, m)
    )
)


@given(
    st.lists(st.one_of(intervals, deep_intervals), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2),
)
def test_atoms_of_matches_set_walk(members, extra_depth):
    family = SparseFamily(tuple(members), eta=0.5)
    ref = _atoms_by_set_walk(family, extra_depth)
    part = atoms_of(family, extra_depth)
    assert part.atoms == tuple(ref)
    assert part.levels.tolist() == [a.level for a in ref]
    assert part.positions.tolist() == [a.position for a in ref]
    assert part.root == family.root


# every level a member may have: heap codes fit in int64 below level 63
any_level_intervals = st.integers(min_value=0, max_value=62).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(
        lambda m: DyadicInterval(k, m)
    )
)


@given(st.lists(st.one_of(intervals, any_level_intervals), min_size=1, max_size=16))
def test_family_arrays_are_the_sorted_members(members):
    # duplicates and any order: the arrays follow the sorted, unique members
    members = members + members[: len(members) // 2]
    family = SparseFamily(tuple(reversed(members)), eta=0.5)
    levels, positions = interval_arrays(sorted(set(members)))
    for got, want in ((family.levels, levels), (family.positions, positions)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want.tolist()
    assert family.levels is family.levels  # built once
    assert family.max_level == max(m.level for m in members)


def test_deep_family_is_built_and_its_arrays_are_rejected():
    # the level check fires where the arrays are read, not at construction
    family = SparseFamily((ROOT, DyadicInterval(63, 5), DyadicInterval(70, 1)))
    assert family.max_level == 70
    for read in (lambda: family.levels, lambda: family.positions):
        with pytest.raises(ParameterError, match=r"\[5/2\^63, 6/2\^63\) is at level 63"):
            read()
