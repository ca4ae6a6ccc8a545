"""Dyadic interval geometry, sparse families, and atom partitions.

Everything lives inside the unit root interval [0, 1). A dyadic interval
at level k and position m denotes the half-open interval
[m 2^-k, (m+1) 2^-k). Any two dyadic intervals are nested or disjoint,
which is what makes exact evaluation on finite atom partitions possible.

Sparsity of a family is certified through the Carleson packing condition
sum_{Q' subset Q} |Q'| <= |Q| / eta rather than by constructing disjoint
major subsets; for the nested chain families used in the closed-form
experiments the two notions coincide with eta = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError


class Relation(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    INSIDE = "inside"      # first argument strictly inside the second
    CONTAINS = "contains"  # first argument strictly contains the second


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open interval [position * 2^-level, (position + 1) * 2^-level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError(f"interval level must be >= 0, got {self.level}")
        if not 0 <= self.position < 2 ** self.level:
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


def relate(a: DyadicInterval, b: DyadicInterval) -> Relation:
    """Set relation of the denoted intervals: nested, equal, or disjoint."""
    if a.level == b.level:
        return Relation.EQUAL if a.position == b.position else Relation.DISJOINT
    if a.level > b.level:
        inside = (a.position >> (a.level - b.level)) == b.position
        return Relation.INSIDE if inside else Relation.DISJOINT
    contains = (b.position >> (b.level - a.level)) == a.position
    return Relation.CONTAINS if contains else Relation.DISJOINT


def subdivide(interval: DyadicInterval, levels: int) -> list[DyadicInterval]:
    """All descendants of the interval exactly `levels` levels down, in order."""
    if levels < 0:
        raise ParameterError("levels must be >= 0")
    lvl = interval.level + levels
    base = interval.position << levels
    return [DyadicInterval(lvl, base + j) for j in range(1 << levels)]


@dataclass(frozen=True)
class SparseFamily:
    """A finite family of dyadic intervals with a declared sparsity constant."""

    members: tuple[DyadicInterval, ...]
    eta: float = 0.5

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        if not members:
            raise ParameterError("a sparse family needs at least one member")
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def root(self) -> DyadicInterval:
        """Minimal dyadic interval containing every member."""
        cur = self.members[0]
        for m in self.members[1:]:
            while not cur.encloses(m):
                cur = cur.parent()
        return cur

    @property
    def max_level(self) -> int:
        return max(m.level for m in self.members)


def chain_family(depth: int) -> SparseFamily:
    """The nested chain {[0, 2^-k): 0 <= k <= depth}, declared 1/2-sparse."""
    if depth < 0:
        raise ParameterError("chain depth must be >= 0")
    return SparseFamily(tuple(DyadicInterval(k, 0) for k in range(depth + 1)), eta=0.5)


def carleson_constant(family: SparseFamily) -> float:
    """max over R of sum_{Q subset R} |Q| / |R|, the packing certificate.

    The family is eta-sparse in the certified sense whenever the returned
    value is at most 1/eta.
    """
    lengths = np.array([q.length for q in family.members])
    return float(np.max(_containment(family.members) @ lengths / lengths))


def _containment(members) -> np.ndarray:
    """Boolean matrix whose [i, j] entry says member i encloses member j."""
    level = np.array([q.level for q in members])
    pos = np.array([q.position for q in members])
    down = level - level[:, None]  # [i, j]: levels from member i down to member j
    return (down >= 0) & (pos >> np.maximum(down, 0) == pos[:, None])


def packing_certified(family: SparseFamily, slack: float = 1e-12) -> bool:
    return carleson_constant(family) <= 1.0 / family.eta + slack


class AtomPartition:
    """Ordered disjoint dyadic atoms covering a root interval.

    Atoms are the leaves of the member closure: the coarsest dyadic
    partition of the root refined by every family-member boundary,
    optionally refined a uniform number of extra levels. Because the atoms
    are dyadic and ordered, every aligned dyadic interval corresponds to a
    contiguous index range.
    """

    def __init__(self, root: DyadicInterval, atoms: list[DyadicInterval]):
        self.root = root
        self.atoms = tuple(atoms)
        self.finest_level = max(a.level for a in self.atoms)
        self._left_ticks = [a.ticks(self.finest_level)[0] for a in self.atoms]
        self._right_ticks = [a.ticks(self.finest_level)[1] for a in self.atoms]

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def lengths(self) -> list[float]:
        return [a.length for a in self.atoms]

    def atom_range(self, interval: DyadicInterval) -> tuple[int, int]:
        """Half-open atom index range whose union is `interval`.

        Raises ParameterError when the interval is not a union of atoms.
        """
        import bisect

        if not self.root.encloses(interval):
            raise ParameterError(f"{interval} lies outside the partition root {self.root}")
        if interval.level > self.finest_level:
            raise ParameterError(f"{interval} is finer than the partition atoms")
        lo, hi = interval.ticks(self.finest_level)
        i0 = bisect.bisect_left(self._left_ticks, lo)
        i1 = bisect.bisect_left(self._right_ticks, hi) + 1
        if (
            i0 >= len(self.atoms)
            or self._left_ticks[i0] != lo
            or self._right_ticks[i1 - 1] != hi
        ):
            raise ParameterError(f"{interval} is not aligned with the partition")
        return i0, i1

    def locate(self, interval: DyadicInterval) -> int:
        """Index of the single atom containing `interval`."""
        import bisect

        if not self.root.encloses(interval):
            raise ParameterError(f"{interval} lies outside the partition root {self.root}")
        if interval.level <= self.finest_level:
            lo = interval.ticks(self.finest_level)[0]
        else:
            lo = interval.position >> (interval.level - self.finest_level)
        idx = bisect.bisect_right(self._left_ticks, lo) - 1
        if idx < 0 or not self.atoms[idx].encloses(interval):
            raise ParameterError(f"{interval} is not contained in a single atom")
        return idx


def atoms_of(family: SparseFamily, extra_depth: int = 0) -> AtomPartition:
    """Partition of the family root induced by member boundaries.

    A dyadic node below the root is split exactly when a member lies
    strictly inside it, that is, when it is a strict ancestor of a member;
    the atoms are the children of split nodes that are not split
    themselves, or the root alone when nothing splits it. The result is
    then uniformly refined `extra_depth` more levels.
    """
    if extra_depth < 0:
        raise ParameterError("extra_depth must be >= 0")
    root = family.root
    split: set[tuple[int, int]] = set()
    for m in family.members:
        for level in range(m.level - 1, root.level - 1, -1):
            node = (level, m.position >> (m.level - level))
            if node in split:
                break
            split.add(node)
    cells = {(lvl + 1, 2 * pos + b) for lvl, pos in split for b in (0, 1)} - split
    leaves = [DyadicInterval(*c) for c in cells] if split else [root]
    if extra_depth:
        refined: list[DyadicInterval] = []
        for leaf in leaves:
            refined.extend(subdivide(leaf, extra_depth))
        leaves = refined
    finest = max(x.level for x in leaves)
    leaves.sort(key=lambda a: a.ticks(finest)[0])
    return AtomPartition(root, leaves)


class FamilyGeometry:
    """Which members nest and which atoms each member covers, computed once.

    Every member is a contiguous run of partition atoms, so the (m, 2)
    array of member atom ranges gives the 0/1 member-by-atom incidence
    matrix. Containment comes from member levels and positions, the same
    matrix `carleson_constant` uses without building a partition.
    """

    def __init__(self, family: SparseFamily, part: AtomPartition | None = None):
        self.family = family
        self.part = atoms_of(family) if part is None else part
        self.ranges = np.array(
            [self.part.atom_range(q) for q in family.members], dtype=np.int64
        )
        lo, hi = self.ranges[:, :1], self.ranges[:, 1:]
        atom = np.arange(len(self.part))
        self.incidence = ((atom >= lo) & (atom < hi)).astype(float)  # (m, n)
        self.contains = _containment(family.members)  # [i, j]: member i encloses j
        self.lengths = np.array([q.length for q in family.members])

    def length_powers(self, exponent: float) -> np.ndarray:
        """|Q|^exponent per member, by Python's float power.

        NumPy's vectorized power can round differently in the last bit;
        the scalar power keeps the cube coefficients, and with them the
        ascent, bitwise reproducible.
        """
        return np.array([x**exponent for x in self.lengths.tolist()])

    def masses(self, w) -> tuple[np.ndarray, np.ndarray]:
        """(atom masses, member masses) of a weight, each from `w.mass`."""
        return (
            np.array([w.mass(a) for a in self.part.atoms]),
            np.array([w.mass(q) for q in self.family.members]),
        )

    @property
    def candidates(self) -> np.ndarray:
        """The member indicators and the constant function, one row each."""
        return np.vstack([self.incidence, np.ones(len(self.part))])


def uniform_partition(interval: DyadicInterval, depth_below: int) -> AtomPartition:
    """Uniform partition of an interval into its depth-`depth_below` descendants."""
    return AtomPartition(interval, subdivide(interval, depth_below))
