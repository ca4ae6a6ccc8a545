"""Dyadic interval geometry, sparse families, and atom partitions.

Everything lives inside the unit root interval [0, 1). A dyadic interval
at level k and position m denotes the half-open interval
[m 2^-k, (m+1) 2^-k). Any two dyadic intervals are nested or disjoint,
which is what makes exact evaluation on finite atom partitions possible.

A sparse family is its sorted, unique int64 level and position arrays
and its eta, built by `SparseFamily.from_arrays`, which holds every
family rule; interval objects for its members are made only on request.
Sparsity of a family is certified through the Carleson packing condition
sum_{Q' subset Q} |Q'| <= |Q| / eta rather than by constructing disjoint
major subsets; for the nested chain families used in the closed-form
experiments the two notions coincide with eta = 1/2.

`scan_layout` enumerates an interval's descendants and `grid_arrays` builds
its first block alone. Both raise ParameterError at a depth above the
interval or at level 63 or deeper, before allocating, and when their arrays
are too large to allocate, naming the depth and the bytes asked for.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .errors import ParameterError, integer


class Relation(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    INSIDE = "inside"      # first argument strictly inside the second
    CONTAINS = "contains"  # first argument strictly contains the second


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open interval [position * 2^-level, (position + 1) * 2^-level).

    Both fields are stored as Python ints; any other integer type is
    converted, and a non-integer or a bool raises ParameterError (`errors.integer`).
    """

    level: int
    position: int

    def __post_init__(self):
        if type(self.level) is not int or type(self.position) is not int:
            object.__setattr__(self, "level", integer(self.level, "interval level"))
            object.__setattr__(self, "position", integer(self.position, "interval position"))
        if self.level < 0:
            raise ParameterError(f"interval level must be >= 0, got {self.level}")
        # position < 2^level, tested without building 2^level (huge at a huge level)
        if self.position < 0 or self.position.bit_length() > self.level:
            raise ParameterError(
                f"position {self.position} outside the unit root at level {self.level}"
            )

    @property
    def length(self) -> float:
        return math.ldexp(1.0, -self.level)

    @property
    def left(self) -> float:
        return math.ldexp(float(self.position), -self.level)

    @property
    def right(self) -> float:
        return math.ldexp(float(self.position + 1), -self.level)

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ParameterError("the root interval has no parent")
        return DyadicInterval(self.level - 1, self.position >> 1)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.level + 1, 2 * self.position),
            DyadicInterval(self.level + 1, 2 * self.position + 1),
        )

    def encloses(self, other: "DyadicInterval") -> bool:
        """True when other is contained in self (equality included)."""
        return (
            other.level >= self.level
            and (other.position >> (other.level - self.level)) == self.position
        )

    def ticks(self, finest_level: int) -> tuple[int, int]:
        """Endpoints as integer multiples of 2^-finest_level."""
        shift = finest_level - self.level
        if shift < 0:
            raise ParameterError("finest_level coarser than the interval")
        return (self.position << shift, (self.position + 1) << shift)

    def __repr__(self) -> str:
        return f"[{self.position}/2^{self.level}, {self.position + 1}/2^{self.level})"


ROOT = DyadicInterval(0, 0)
DEFAULT_DEPTH_CAP = 14  # the deepest default A_infty scan; layouts to this depth stay cached


def relate(a: DyadicInterval, b: DyadicInterval) -> Relation:
    """Set relation of the denoted intervals: nested, equal, or disjoint."""
    if a == b:
        return Relation.EQUAL
    if b.encloses(a):
        return Relation.INSIDE
    return Relation.CONTAINS if a.encloses(b) else Relation.DISJOINT


def subdivide(interval: DyadicInterval, levels: int) -> list[DyadicInterval]:
    """All descendants of the interval exactly `levels` levels down, in order."""
    return list(uniform_partition(interval, levels).atoms)


def _scan_depth(top: DyadicInterval, depth) -> int:
    """The levels from top down to `depth`, after the depth rule of every scan and grid."""
    depth = integer(depth, "depth")
    if depth < top.level:
        raise ParameterError(f"depth {depth} lies above {top}")
    if depth >= 63:
        raise ParameterError(f"depth {depth} puts intervals at level 63 or deeper")
    return depth - top.level


@contextmanager
def _allocating(depth: int, nbytes: int):
    """Raises a MemoryError of the block as a ParameterError naming the depth and the bytes."""
    try:
        yield
    except MemoryError:
        raise ParameterError(
            f"a scan to depth {depth} needs {nbytes:,} bytes, more than can be allocated"
        ) from None


def scan_layout(top: DyadicInterval, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descendants of top down to level `depth`, deepest level first, left to right.

    Per entry: the levels k below top and the position j within that
    level, so the entry is (top.level + k, (top.position << k) + j), and
    the number 2^(depth - top.level - k) of level-`depth` intervals it
    covers. The arrays are read-only and cached when at most
    DEFAULT_DEPTH_CAP levels deep; deeper ones are freed with the scan.
    """
    down = _scan_depth(top, depth)
    if down <= DEFAULT_DEPTH_CAP:
        return _cached_layout(down)
    with _allocating(depth, 24 * ((2 << down) - 1)):
        return _layout(down)


def _layout(down: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.repeat(np.arange(down, -1, -1), 1 << np.arange(down, -1, -1))
    j = np.arange(len(k)) - ((2 << down) - (2 << k))
    return tuple(map(_read_only, (k, j, 1 << (down - k))))


_cached_layout = cache(_layout)


def grid_arrays(top: DyadicInterval, down: int) -> tuple[np.ndarray, np.ndarray]:
    """`scan_layout`'s first block, built alone: top's int64 descendants `down` levels below."""
    down = _scan_depth(top, top.level + integer(down, "depth"))
    n = 1 << down
    with _allocating(top.level + down, 16 * n):
        levels = np.full(n, top.level + down, dtype=np.int64)
        return levels, (top.position << down) + np.arange(n, dtype=np.int64)


@dataclass(frozen=True, init=False, eq=False)
class SparseFamily:
    """A finite family of dyadic intervals with a declared sparsity constant.

    The family is its read-only int64 `levels` and `positions`, sorted by
    (level, position) and unique, and its `eta`, all set by `from_arrays`,
    which `SparseFamily(members, eta)` wraps; `members` is built on first use.
    """

    levels: np.ndarray
    positions: np.ndarray
    eta: float

    def __init__(self, members, eta: float = 0.5):
        vars(self).update(vars(self.from_arrays(*interval_arrays(tuple(members)), eta)))

    @classmethod
    def from_arrays(cls, levels, positions, eta: float) -> "SparseFamily":
        """The family of the intervals (levels[i], positions[i]), in any order and with repeats."""
        family = object.__new__(cls)
        levels, positions = _family_arrays(levels, positions)
        vars(family).update(levels=levels, positions=positions, eta=_eta(eta))
        return family

    def _key(self) -> tuple:
        return self.levels.tobytes(), self.positions.tobytes(), self.eta

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, SparseFamily) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def members(self) -> tuple[DyadicInterval, ...]:
        return tuple(map(DyadicInterval, self.levels.tolist(), self.positions.tolist()))

    @cached_property
    def root(self) -> DyadicInterval:
        """The minimal dyadic interval containing every member, from its two outermost cells."""
        shift = self.max_level - self.levels
        left = int((self.positions << shift).min())
        up = (left ^ int((((self.positions + 1) << shift) - 1).max())).bit_length()
        return DyadicInterval(self.max_level - up, left >> up)

    @property
    def max_level(self) -> int:
        return int(self.levels[-1])  # sorted by level


def _eta(eta: float) -> float:
    """The declared sparsity constant, unchanged; ParameterError unless 0 < eta <= 1."""
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    return eta


def _family_arrays(levels, positions) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `_int64_arrays` of the distinct intervals, sorted; ParameterError if there is none.

    Heap codes 2^level + position sort in (level, position) order.
    """
    if len(levels) == 0:
        raise ParameterError("a sparse family needs at least one member")
    lv, pos = _int64_arrays(levels, positions)
    _, first = np.unique((1 << lv) + pos, return_index=True)
    return _read_only(lv[first]), _read_only(pos[first])


def chain_family(depth: int) -> SparseFamily:
    """The nested chain {[0, 2^-k): 0 <= k <= depth}, declared 1/2-sparse."""
    if integer(depth, "chain depth") < 0:
        raise ParameterError("chain depth must be >= 0")
    levels = np.arange(min(depth, 63) + 1)  # a deeper chain fails at its level-63 member
    return SparseFamily.from_arrays(levels, np.zeros_like(levels), 0.5)


def carleson_constant(family: SparseFamily) -> float:
    """max over R of sum_{Q subset R} |Q| / |R|, the packing certificate.

    The family is eta-sparse in the certified sense whenever the returned
    value is at most 1/eta.
    """
    return _packing(family.levels, family.positions)


def _packing(level: np.ndarray, pos: np.ndarray) -> float:
    """carleson_constant of the intervals with these sorted, unique arrays."""
    lengths = np.ldexp(1.0, -level)
    return float(np.max(_containment(level, pos) @ lengths / lengths))


def interval_arrays(intervals) -> tuple[np.ndarray, np.ndarray]:
    """The int64 level and position arrays of a sequence of dyadic intervals, in order."""
    return _int64_arrays([q.level for q in intervals], [q.position for q in intervals])


def _int64_arrays(levels, positions) -> tuple[np.ndarray, np.ndarray]:
    """Levels and positions as int64 arrays, after the interval rules.

    ParameterError names the first entry that is no interval (DyadicInterval's
    messages, `errors.integer`'s for an entry that is no integer) or lies at
    level 63 or deeper, where heap codes 2^level + position overflow int64.
    """
    lv, pos = _int64(levels, "interval level"), _int64(positions, "interval position")
    if pos.shape != lv.shape:
        raise ParameterError("interval levels and positions must have one length")
    bad = (lv < 0) | (lv >= 63)
    if not bad.any():
        bad = (pos < 0) | (pos >> lv != 0)
    if bad.any():
        k = int(np.argmax(bad))  # DyadicInterval raises unless its level is 63 or more
        raise ParameterError(f"{DyadicInterval(levels[k], positions[k])} is at level 63 or deeper")
    return lv, pos


def _int64(values, name: str) -> np.ndarray:
    """values as a 1-D int64 array, each entry under `errors.integer`, clipped to int64.

    The interval rules reject a clipped entry, and a uint64 one that wraps negative, alike.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return np.asarray(values, dtype=np.int64)
    ints = [integer(v, name) for v in values]
    try:
        return np.asarray(ints, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -(1 << 63)), (1 << 63) - 1) for v in ints], dtype=np.int64)


def _containment(level: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Boolean matrix whose [i, j] entry says interval i encloses interval j."""
    down = level - level[:, None]  # [i, j]: levels from member i down to member j
    return (down >= 0) & (pos >> np.maximum(down, 0) == pos[:, None])


def packing_certified(family: SparseFamily) -> bool:
    """Whether the family's Carleson constant is at most 1/eta, with slack 1e-12."""
    return carleson_constant(family) <= 1.0 / family.eta + 1e-12


class AtomPartition:
    """Ordered disjoint dyadic atoms covering a root interval, from int64 level and position arrays.

    The atoms are the leaves of a family's member closure (`atoms_of`) or a
    uniform grid (`uniform_partition`); their `atoms` tuple is built on first
    use. Because the atoms are dyadic and ordered, every aligned dyadic
    interval corresponds to a contiguous index range.
    """

    def __init__(self, root: DyadicInterval, levels: np.ndarray, positions: np.ndarray):
        self.root = root
        self.levels, self.positions = levels, positions
        self.finest_level = int(levels.max())

    # atom endpoints as integer multiples of 2^-finest_level
    @cached_property
    def left_ticks(self) -> np.ndarray:
        return self.positions << (self.finest_level - self.levels)

    @cached_property
    def right_ticks(self) -> np.ndarray:
        return (self.positions + 1) << (self.finest_level - self.levels)

    @cached_property
    def atoms(self) -> tuple[DyadicInterval, ...]:
        return tuple(
            DyadicInterval(lvl, pos)
            for lvl, pos in zip(self.levels.tolist(), self.positions.tolist())
        )

    def __len__(self) -> int:
        return len(self.levels)

    def atom_ranges(self, levels: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Half-open atom index ranges, one (i0, i1) row per dyadic interval.

        Raises ParameterError, naming the first offending interval, when an
        interval is not a union of atoms.
        """
        levels = np.asarray(levels, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        up = levels - self.root.level
        outside = (up < 0) | (positions >> np.maximum(up, 0) != self.root.position)
        finer = levels > self.finest_level
        shift = np.maximum(self.finest_level - levels, 0)
        lo, hi = positions << shift, (positions + 1) << shift
        i0 = np.searchsorted(self.left_ticks, lo)
        i1 = np.searchsorted(self.right_ticks, hi) + 1
        last = len(self.levels) - 1
        aligned = (self.left_ticks[np.minimum(i0, last)] == lo) & (
            self.right_ticks[np.minimum(i1, last + 1) - 1] == hi
        )
        for bad, why in (
            (outside, f"lies outside the partition root {self.root}"),
            (finer, "is finer than the partition atoms"),
            (~aligned, "is not aligned with the partition"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise ParameterError(f"{DyadicInterval(int(levels[k]), int(positions[k]))} {why}")
        return np.stack([i0, i1], axis=1)

    def atom_range(self, interval: DyadicInterval) -> tuple[int, int]:
        """Half-open atom index range whose union is `interval`.

        Raises ParameterError when the interval is not a union of atoms.
        """
        i0, i1 = self.atom_ranges(*interval_arrays([interval]))[0]
        return int(i0), int(i1)

    def locate(self, interval: DyadicInterval) -> int:
        """Index of the single atom containing `interval`."""
        if not self.root.encloses(interval):
            raise ParameterError(f"{interval} lies outside the partition root {self.root}")
        if interval.level <= self.finest_level:
            lo = interval.ticks(self.finest_level)[0]
        else:
            lo = interval.position >> (interval.level - self.finest_level)
        idx = int(np.searchsorted(self.left_ticks, lo, side="right")) - 1
        atom = DyadicInterval(int(self.levels[idx]), int(self.positions[idx]))
        if idx < 0 or not atom.encloses(interval):
            raise ParameterError(f"{interval} is not contained in a single atom")
        return idx


def atoms_of(family: SparseFamily) -> AtomPartition:
    """Partition of the family root induced by member boundaries.

    A dyadic node below the root is split exactly when a member lies
    strictly inside it, that is, when it is a strict ancestor of a member;
    the atoms are the children of split nodes that are not split
    themselves, or the root alone when nothing splits it. Nodes are heap
    codes 2^level + position, whose parent is the code shifted right by
    one: each member's walk upward adds its ancestors to a set of split
    nodes and stops at the first one already there, so every split node is
    visited once, and a depth-first walk of the split nodes, left child
    first, reads the atoms off left to right.
    """
    root = family.root
    floor = 1 << root.level  # codes below it lie above the root
    split: set[int] = set()
    for node in (((1 << family.levels) + family.positions) >> 1).tolist():
        while node >= floor and node not in split:
            split.add(node)
            node >>= 1
    stack, cells = [floor + root.position], []
    while stack:
        node = stack.pop()
        if node in split:
            stack += (2 * node + 1, 2 * node)
        else:
            cells.append(node)
    cell_level = np.array([c.bit_length() - 1 for c in cells], dtype=np.int64)
    return AtomPartition(root, cell_level, np.array(cells, dtype=np.int64) - (1 << cell_level))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class FamilyGeometry:
    """Which members nest and which atoms each member covers, computed once.

    Every member is a contiguous run of the family's atoms, so the (m, 2)
    array of member atom ranges gives the 0/1 member-by-atom incidence
    matrix. Every member is aligned with its own atoms by construction, and
    its range is found by looking up its two endpoints among the atoms'
    left endpoints. Containment comes from member levels and positions, the
    same matrix `carleson_constant` uses without building a partition. The
    member levels and positions are the family's own, the lengths are
    computed here, and the atoms, ranges, incidence and containment on
    first use, so a caller that reads member masses alone (the two-weight
    characteristic) costs O(m). Every array is read-only, since
    `family_geometry` hands one geometry to many callers. So are the
    weight masses, which are computed once per weight object and array and
    kept for as long as the geometry lives.
    """

    def __init__(self, family: SparseFamily):
        self.family = family
        self.levels, self.positions = family.levels, family.positions
        self.lengths = _read_only(np.ldexp(1.0, -self.levels))
        self._masses = {}  # (id(w), on atoms) -> (w, masses)

    @cached_property
    def part(self) -> AtomPartition:
        return atoms_of(self.family)

    @cached_property
    def ranges(self) -> np.ndarray:
        part = self.part
        shift = part.finest_level - self.levels
        return _read_only(np.stack([
            np.searchsorted(part.left_ticks, self.positions << shift),
            np.searchsorted(part.left_ticks, (self.positions + 1) << shift),
        ], axis=1))

    @cached_property
    def incidence(self) -> np.ndarray:
        """(m, n) 0/1 member-by-atom matrix."""
        atom = np.arange(len(self.part))
        lo, hi = self.ranges[:, :1], self.ranges[:, 1:]
        return _read_only(((atom >= lo) & (atom < hi)).astype(float))

    @cached_property
    def contains(self) -> np.ndarray:
        """[i, j]: member i encloses member j."""
        return _read_only(_containment(self.levels, self.positions))

    def length_powers(self, exponent: float) -> np.ndarray:
        """|Q|^exponent per member, by Python's float power.

        NumPy's vectorized power can round differently in the last bit;
        the scalar power keeps the cube coefficients, and with them the
        solver, bitwise reproducible.
        """
        return np.array([x**exponent for x in self.lengths.tolist()])

    def masses(self, w) -> tuple[np.ndarray, np.ndarray]:
        """(atom masses, member masses) of a weight, read-only."""
        return self._kernel(w, True), self._kernel(w, False)

    def member_masses(self, w) -> np.ndarray:
        """Member masses of a weight, read-only; the atoms are not built."""
        return self._kernel(w, False)

    def _kernel(self, w, on_atoms: bool) -> np.ndarray:
        """One `w.masses` call per weight object and array; later calls reuse it.

        The entry holds the weight itself, so its id cannot be reused while
        the entry lives.
        """
        key = (id(w), on_atoms)
        entry = self._masses.get(key)
        if entry is None:
            at = self.part if on_atoms else self
            entry = self._masses[key] = (w, _read_only(w.masses(at.levels, at.positions)))
        return entry[1]


_last_geometry = (None, None)  # (family, geometry), replaced by one assignment


def family_geometry(family: SparseFamily) -> FamilyGeometry:
    """The family's geometry on its own atoms, rebuilt only for another family object."""
    global _last_geometry
    last, geom = _last_geometry
    if last is not family:
        geom = FamilyGeometry(family)
        _last_geometry = (family, geom)
    return geom


def uniform_partition(interval: DyadicInterval, depth_below: int) -> AtomPartition:
    """Uniform partition of an interval into its depth-`depth_below` descendants, from arrays."""
    return AtomPartition(interval, *grid_arrays(interval, depth_below))
