"""Vanishing patterns as first-class objects: acceptability, generic
patterns, random acceptable vectors, restriction, and the degeneration poset
of restricted patterns.  Nothing here enumerates W.

A pattern is one int per level in the format of the orbit tables' interval
masks, so the generic pattern of w is the down-masks of the w omega_i.  It is
the one pattern format of the package: recognition, descriptions, decision
trees and the realizable sets of ``flags`` all read it.  Only this module
knows the flat layout, which ``VanishingPattern`` takes as input and reads
back out as ``bits``.
"""

from __future__ import annotations

import json
import random

from .plucker import PluckerWeight, all_weights, ones, orbit_table
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


class AcceptabilityReport:
    """``failure_reason`` is None, empty_level, no_unique_max or no_common_w."""

    __slots__ = ("accepted", "per_level_max", "witness", "failure_reason")

    def __init__(self, accepted: bool, per_level_max: dict[int, PluckerWeight | None],
                 witness: WeylElement | None, failure_reason: str | None):
        self.accepted, self.per_level_max = accepted, per_level_max
        self.witness, self.failure_reason = witness, failure_reason

    def __eq__(self, other):
        return isinstance(other, AcceptabilityReport) and (
            self.accepted, self.per_level_max, self.witness, self.failure_reason
        ) == (other.accepted, other.per_level_max, other.witness, other.failure_reason)


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
    """The w with w omega_i = pw for the weights pw, one per level in level
    order, or None: a descent walk on the summed labels, which are w rho,
    finds the one w, and w keeps the weights' orbit positions.

    No level needs a check.  Each omega_i - w^{-1} pw is a nonnegative sum of
    simple roots, since w^{-1} pw lies in W omega_i; these sum to
    rho - rho = 0, so each is 0 and pw = w omega_i."""
    total = tuple(map(sum, zip(*(pw.labels for pw in weights))))
    w = group.element_with_rho_labels(total)
    if w is not None:
        w.positions = [pw.index for pw in weights]
    return w


def generic_pattern(group: WeylGroup, w: WeylElement) -> VanishingPattern:
    """Bit 1 exactly on the weights below-or-equal w omega_i in orbit order:
    at each level, the down-set of w omega_i."""
    levels = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        levels.append(table.down_masks()[table.position(w)])
    return VanishingPattern.from_levels(group, levels)


def random_acceptable(group: WeylGroup, w: WeylElement, seed=None) -> VanishingPattern:
    """Acceptable vector with witness w: bit 1 at each w omega_i, 0 above it
    (and at everything not below it), random strictly below, drawn in
    ascending orbit order."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    getrandbits = rng.getrandbits
    levels = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        jw = table.position(w)
        m = 1 << jw
        for k in ones(table.down_masks()[jw] ^ m):
            bit = getrandbits(2)
            while bit >= 2:  # the draws of randint(0, 1), at less cost
                bit = getrandbits(2)
            if bit:
                m |= 1 << k
        levels.append(m)
    return VanishingPattern.from_levels(group, levels)


# ----- poset of restricted patterns ---------------------------------------------


class PatternPoset:
    """Bitwise-dominance order on a set of restricted patterns; fewer ones is
    lower.  Edges are the Hasse covers within the set."""

    __slots__ = ("coords", "vertices", "labels", "covers")

    def __init__(self, coords: tuple[PluckerWeight, ...], vertices: tuple[tuple[int, ...], ...],
                 labels: dict[tuple[int, ...], tuple],
                 covers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]):
        self.coords, self.vertices, self.labels, self.covers = coords, vertices, labels, covers

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
    Vertex k is bit k of an int: its down-set is the AND, over the
    coordinates where it is 0, of the vertices that are 0 there, and its
    covers are the vertices strictly below it and below no other of those.
    """
    coords = tuple(coords)
    verts = sorted(patterns, key=lambda v: (sum(v), v))
    zero = [sum(1 << k for k, bit in enumerate(col) if not bit) for col in zip(*verts)]
    strict, up = [], [0] * len(verts)  # strict down-sets; up[lo]: the vertices covering lo
    for hi, v in enumerate(verts):
        below = (1 << len(verts)) - 1
        for c, bit in enumerate(v):
            if not bit:
                below &= zero[c]
        below ^= 1 << hi
        strict.append(below)  # a vertex strictly below hi has a smaller weight, so a smaller index
        under = 0
        for z in ones(below):
            under |= strict[z]
        for lo in ones(below & ~under):
            up[lo] |= 1 << hi
    covers = tuple((verts[lo], verts[hi]) for lo in range(len(verts)) for hi in ones(up[lo]))
    labels = {v: tuple(patterns[v]) for v in verts}
    return PatternPoset(coords, tuple(verts), labels, covers)
