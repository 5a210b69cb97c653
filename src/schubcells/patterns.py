"""Vanishing patterns as first-class objects: acceptability, generic
patterns, random acceptable vectors, restriction, the degeneration poset of
restricted patterns, and the certified realizable sets at small n, each
pattern realized by an integer flag whose minors ``flags.Flag`` computes.

A pattern is one int per level in the format of the orbit tables' interval
masks, so the generic pattern of w is the down-masks of the w omega_i.  Only
this module knows the flat layout, which ``VanishingPattern`` takes as input
and reads back out as ``bits``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache
from itertools import product

from .errors import UnacceptableInputError
from .plucker import (
    PluckerWeight,
    all_weights,
    ones,
    orbit_table,
    subset_of,
    weight_from_subset,
)
from .weyl import WeylElement, WeylGroup


class VanishingPattern:
    """One bit per Plucker weight, total over all levels of the group, held
    as ``levels``: bit k of ``levels[i - 1]`` is the bit of weight k of the
    level-i orbit table.  The constructor validates flat bits in
    ``all_weights`` order; ``from_levels`` takes the per-level ints."""

    __slots__ = ("group", "levels")

    def __init__(self, group: WeylGroup, bits):
        weights = all_weights(group)
        if len(bits) != len(weights):
            raise ValueError("pattern must assign a bit to every Plucker weight")
        levels = [0] * group.rank
        for pw, b in zip(weights, bits):
            if b:
                levels[pw.level - 1] |= 1 << pw.index
        self.group = group
        self.levels = tuple(levels)

    @classmethod
    def from_levels(cls, group: WeylGroup, levels) -> "VanishingPattern":
        """The pattern whose level-i 1-set is the int ``levels[i - 1]``."""
        levels = tuple(levels)
        if len(levels) != group.rank or any(
            not 0 <= m < 1 << len(orbit_table(group, i)) for i, m in enumerate(levels, 1)
        ):
            raise ValueError("pattern must hold one orbit mask per level")
        pattern = object.__new__(cls)
        pattern.group = group
        pattern.levels = levels
        return pattern

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits in ``all_weights`` order."""
        return tuple(self.bit(pw) for pw in all_weights(self.group))

    def bit(self, pw: PluckerWeight) -> int:
        return self.levels[pw.level - 1] >> pw.index & 1

    def as_dict(self) -> dict[PluckerWeight, int]:
        return dict(zip(all_weights(self.group), self.bits))

    def restrict(self, coords) -> tuple[int, ...]:
        return tuple(self.bit(pw) for pw in coords)

    def __le__(self, other: "VanishingPattern") -> bool:
        """Containment of the 1-sets, level by level."""
        return all(a & ~b == 0 for a, b in zip(self.levels, other.levels))

    def __eq__(self, other):
        return (
            isinstance(other, VanishingPattern)
            and (self.group is other.group or self.group.datum == other.group.datum)
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"VanishingPattern({''.join(map(str, self.bits))})"


@dataclass(frozen=True)
class AcceptabilityReport:
    accepted: bool
    per_level_max: dict[int, PluckerWeight | None]
    witness: WeylElement | None
    failure_reason: str | None  # empty_level | no_unique_max | no_common_w

    def require_witness(self) -> WeylElement:
        if not self.accepted or self.witness is None:
            raise UnacceptableInputError(f"pattern rejected: {self.failure_reason}")
        return self.witness


def check_acceptable(pattern: VanishingPattern) -> AcceptabilityReport:
    """Each level must carry a nonempty 1-set with a unique maximal element,
    and the per-level maxima must come from a single group element.  The
    table order extends the Bruhat order, so the highest index of a 1-set
    is maximal in it, and it is the only one iff the set is in its down-set."""
    group = pattern.group
    per_level: dict[int, PluckerWeight | None] = {}
    for i, m in enumerate(pattern.levels, 1):
        table = orbit_table(group, i)
        top = m.bit_length() - 1
        if top < 0 or m & ~table.down_masks()[top]:
            per_level[i] = None
            return AcceptabilityReport(False, per_level, None,
                                       "no_unique_max" if m else "empty_level")
        per_level[i] = table.weights[top]
    w = element_of_weights(group, per_level.values())
    if w is None:
        return AcceptabilityReport(False, per_level, None, "no_common_w")
    return AcceptabilityReport(True, per_level, w, None)


def element_of_weights(group: WeylGroup, weights) -> WeylElement | None:
    """The w with w omega_i = pw for the weight pw of each level i, or None:
    a descent walk on the summed labels, which are w rho, finds the one w."""
    total = tuple(map(sum, zip(*(pw.labels for pw in weights))))
    w = group.element_with_rho_labels(total)
    if w is None or any(
        orbit_table(group, pw.level).position(w) != pw.index for pw in weights
    ):
        return None
    return w


def generic_pattern(group: WeylGroup, w: WeylElement) -> VanishingPattern:
    """Bit 1 exactly on the weights below-or-equal w omega_i in orbit order:
    at each level, the down-set of w omega_i."""
    levels = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        levels.append(table.down_masks()[table.position(w)])
    return VanishingPattern.from_levels(group, levels)


def coordinate_flag_pattern(group: WeylGroup, w: WeylElement) -> VanishingPattern:
    """The pattern of the coordinate flag of w (type A): bit 1 exactly on the
    prefix subsets w([1, i]), which are the weights w omega_i."""
    if group.type_letter != "A":
        raise ValueError("coordinate flags exist in type A only")
    return VanishingPattern.from_levels(
        group, (1 << orbit_table(group, i).position(w) for i in range(1, group.rank + 1)))


def random_acceptable(group: WeylGroup, w: WeylElement, seed=None) -> VanishingPattern:
    """Acceptable vector with witness w: bit 1 at each w omega_i, 0 above it
    (and at everything not below it), random strictly below, drawn in
    ascending orbit order."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    levels = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        jw = table.position(w)
        m = 1 << jw
        for k in ones(table.down_masks()[jw] ^ m):
            if rng.randint(0, 1):
                m |= 1 << k
        levels.append(m)
    return VanishingPattern.from_levels(group, levels)


# ----- poset of restricted patterns ---------------------------------------------


@dataclass(frozen=True)
class PatternPoset:
    """Bitwise-dominance order on a set of restricted patterns; fewer ones is
    lower.  Edges are the Hasse covers within the set."""

    coords: tuple[PluckerWeight, ...]
    vertices: tuple[tuple[int, ...], ...]
    labels: dict[tuple[int, ...], tuple]
    covers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @staticmethod
    def dominated(u, v) -> bool:
        return all(a <= b for a, b in zip(u, v))

    def to_dot(self) -> str:
        def name(v):
            return '"' + "".join(map(str, v)) + '"'

        lines = ["digraph patterns {"]
        for v in self.vertices:
            label = "".join(map(str, v))
            cell = self.labels.get(v)
            if cell:
                label += "\\n" + ",".join(str(c) for c in cell)
            lines.append(f'  {name(v)} [label="{label}"];')
        for lo, hi in self.covers:
            lines.append(f"  {name(lo)} -> {name(hi)};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": [
                    {
                        "pattern": "".join(map(str, v)),
                        "cell": [str(c) for c in self.labels.get(v, ())],
                    }
                    for v in self.vertices
                ],
                "edges": [
                    ["".join(map(str, lo)), "".join(map(str, hi))]
                    for lo, hi in self.covers
                ],
            },
            sort_keys=True,
        )


def pattern_poset(coords, patterns: dict) -> PatternPoset:
    """Build the degeneration poset of restricted patterns.

    ``patterns`` maps restricted bit tuples to cell labels (any tuple).
    """
    coords = tuple(coords)
    verts = sorted(patterns, key=lambda v: (sum(v), v))
    covers = []
    vset = set(verts)
    for lo in verts:
        for hi in verts:
            if lo == hi or not PatternPoset.dominated(lo, hi):
                continue
            if any(
                z != lo and z != hi
                and PatternPoset.dominated(lo, z)
                and PatternPoset.dominated(z, hi)
                for z in vset
            ):
                continue
            covers.append((lo, hi))
    labels = {v: tuple(patterns[v]) for v in verts}
    return PatternPoset(coords, tuple(verts), labels, tuple(covers))


# ----- realizable patterns at small n (type A) -----------------------------------


@dataclass(frozen=True)
class RealizableSet:
    """Restricted patterns realized by actual flags, with cell labels.

    ``certified`` distinguishes the exactly-enumerated small cases from
    sampled lower-bound sets.
    """

    coords: tuple[PluckerWeight, ...]
    patterns: dict[tuple[int, ...], tuple]
    certified: bool


@cache
def realizable_full_patterns(n: int):
    """All vanishing patterns of flags in C^n for n <= 3, certified exact.

    Candidates are the acceptable bit vectors consistent with the three-term
    quadratic relation among the n=3 minors; each candidate is then realized
    by an integer flag whose pattern is read off ``Flag``'s minor table,
    which certifies the enumeration both ways.
    Returns a list of (VanishingPattern, witness, Flag).
    """
    from .flags import type_a_group

    if n not in (2, 3):
        raise ValueError("exact realizability enumeration is implemented for n <= 3")
    group = type_a_group(n)
    weights = all_weights(group)
    subsets = [subset_of(pw) for pw in weights]
    results = []
    for bits in product((0, 1), repeat=len(weights)):
        pat = VanishingPattern(group, bits)
        report = check_acceptable(pat)
        if not report.accepted:
            continue
        by_subset = dict(zip(subsets, bits))
        # p1 p23 - p2 p13 + p3 p12 = 0 cannot hold with one nonzero term
        if n == 3 and sum(by_subset[frozenset({j})] & by_subset[frozenset({1, 2, 3} - {j})]
                          for j in (1, 2, 3)) == 1:
            continue
        flag = _realize(n, by_subset)
        if flag is None:
            raise RuntimeError(
                f"candidate pattern {bits} passed the filters but was not realized"
            )
        results.append((pat, report.witness, flag))
    return results


def _realize(n: int, by_subset):
    """The first flag, in a fixed search order, whose pattern is
    ``by_subset``: column 1 holds the level-1 bits, each middle column ranges
    over [-2, 2]^n and the last column is a unit vector.  ``Flag`` decides
    singularity and every minor on its integer table."""
    from .flags import flag_from_columns, subset_pattern

    first = tuple(by_subset[frozenset({j})] for j in range(1, n + 1))
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for middle in product(product(range(-2, 3), repeat=n), repeat=n - 2):
        for last in units:
            try:
                flag = flag_from_columns((first, *middle, last))
            except ValueError:  # singular
                continue
            if subset_pattern(flag) == by_subset:
                return flag
    return None


def realizable_restricted_patterns(n: int, coords) -> RealizableSet:
    """Restrictions of flag vanishing patterns to the given coordinates.

    Exact (certified) for n <= 3.  For n = 4 the result combines coordinate
    flags and generic cell points only, so it is a sampled lower-bound set.
    """
    from .flags import type_a_group

    group = type_a_group(n)
    coords = tuple(
        pw if isinstance(pw, PluckerWeight) else weight_from_subset(group, pw)
        for pw in coords
    )
    found: dict[tuple[int, ...], set] = {}
    if n in (2, 3):
        for pat, witness, _flag in realizable_full_patterns(n):
            key = pat.restrict(coords)
            found.setdefault(key, set()).add(group.one_line(witness))
        certified = True
    elif n == 4:
        for w in group.elements():
            for pat in (generic_pattern(group, w), coordinate_flag_pattern(group, w)):
                key = pat.restrict(coords)
                found.setdefault(key, set()).add(group.one_line(w))
        certified = False
    else:
        raise ValueError("realizable pattern enumeration is implemented for n <= 4")
    patterns = {key: tuple(sorted(ws)) for key, ws in found.items()}
    return RealizableSet(coords, patterns, certified)
