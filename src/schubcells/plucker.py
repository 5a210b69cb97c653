"""Plucker weights (orbits of fundamental weights), the Bruhat order on each
orbit, the R(i) root sets, and economical indices / orderings of the
fundamental weights.

Orbits are built by breadth-first search on Dynkin labels and materialized
in a canonical order (length of the minimal coset representative, then
shortlex word) so that every "pick a linear order compatible with the Bruhat
order" step downstream is deterministic.  Each orbit table stores the action
of every generator on orbit indices, so the index of w omega_i is w's word
folded through integer tables.  A weight is known by its Dynkin labels, which
are injective on an orbit, so s_alpha omega_i is found by ``by_labels``.
The tables are the one Bruhat engine.  A table holds the Bruhat intervals
below and above each entry as bitmasks over its indices (``down_masks``,
``up_masks``), the one format for a set of weights of a level: a vanishing
pattern is one such int per level.  The order on W is the intersection of
the orbit orders (``WeylGroup.bruhat_leq``), and the base of W is read off
their bases (``base.weyl_base``).
"""

from __future__ import annotations

from .weyl import Labels, Root, WeylElement, WeylGroup, along_tree, orbit_bfs, word_str


def ones(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class PluckerWeight:
    """A weight in the orbit W omega_i, with its minimal coset representative,
    its Dynkin labels, its index in the orbit table and, in type A, the row
    mask ``rows`` of the subset I with weight e_I (bit r - 1 for row r): the
    index of p_I in the minor table of ``flags.Flag``, which
    ``vanishing_pattern`` and ``FlagOracle`` read; ``subset_of`` gives I.

    Equality and hashing use (level, labels), injective on an orbit; the hash
    is precomputed.
    """

    __slots__ = ("level", "min_rep", "labels", "index", "rows", "_hash")

    def __init__(self, level: int, min_rep: WeylElement, labels: Labels, index: int,
                 rows: int | None = None):
        self.level, self.min_rep, self.labels = level, min_rep, labels
        self.index, self.rows = index, rows
        self._hash = hash((level, labels))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, PluckerWeight):
            return NotImplemented
        return self is other or (self.level == other.level and self.labels == other.labels)

    def __repr__(self):
        return f"PluckerWeight(level={self.level}, {word_str(self.min_rep.word)})"


class WeightOrdering:
    """A linear order on the fundamental weight indices 1..r."""

    __slots__ = ("order",)

    def __init__(self, order):
        order = tuple(order)  # a list cannot key a group's memo tables
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{len(order)}")
        self.order = order

    @property
    def rank(self) -> int:
        return len(self.order)

    def position(self, i: int) -> int:
        """0-based position of index i in the order."""
        return self.order.index(i)

    def tail(self, pos: int) -> frozenset[int]:
        """Indices at positions pos, pos+1, ... (0-based)."""
        return frozenset(self.order[pos:])

    def __iter__(self):
        return iter(self.order)


def standard_ordering(group: WeylGroup) -> WeightOrdering:
    """Bourbaki order for A/B/C/G2; for D the chain 1..r-3 followed by a leaf,
    the trivalent node, and the other leaf (the order minimizing the extra
    equations a type D cell description needs).  The group holds it, built
    on first use."""
    ordering = group.standard_ordering
    if ordering is None:
        r = group.rank
        if group.type_letter == "D":
            order = tuple(range(1, r - 2)) + (r - 1, r - 2, r)
        else:
            order = tuple(range(1, r + 1))
        ordering = group.standard_ordering = WeightOrdering(order)
    return ordering


def active_ordering(group: WeylGroup, ordering: WeightOrdering | None = None):
    """``ordering``, or the standard one when None; ValueError unless it has the group's rank."""
    if ordering is None:
        return standard_ordering(group)
    if ordering.rank != group.rank:
        raise ValueError("ordering rank does not match the group")
    return ordering


class OrbitTable:
    """Materialized orbit W omega_i with minimal coset representatives, the
    action of each generator on orbit indices, and its Bruhat order as
    interval bitmasks in both directions, each built on first use."""

    def __init__(self, group: WeylGroup, level: int):
        self.group = group
        self.level = level
        if not 1 <= level <= group.rank:
            raise ValueError(f"level {level} out of range 1..{group.rank}")
        omega = tuple(1 if j == level else 0 for j in range(1, group.rank + 1))  # labels of omega_i
        labels = orbit_bfs(omega, range(1, group.rank + 1), group.reflect_labels)[0]
        words = [tuple(group._descend(lab)[0]) for lab in labels]
        rho = group.identity.fingerprint
        reps = [WeylElement(word, group.fold(word, rho), group) for word in words]
        order = sorted(range(len(labels)), key=lambda k: (reps[k].length, reps[k].word))
        type_a = group.type_letter == "A"  # weights are indicator vectors e_I
        self.weights: tuple[PluckerWeight, ...] = tuple(
            PluckerWeight(level, reps[k], labels[k], pos,
                          sum(1 << r - 1 for r in group.one_line(reps[k])[:level])
                          if type_a else None)
            for pos, k in enumerate(order)
        )
        self.by_labels: dict[Labels, int] = {pw.labels: pw.index for pw in self.weights}
        # type A: the weight e_I by the row mask of I (empty in other types)
        self.by_rows: dict[int, PluckerWeight] = {pw.rows: pw for pw in self.weights if type_a}
        # gen[i - 1][k]: index of s_i applied to weights[k]
        self.gen: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.by_labels[group.reflect_labels(i, pw.labels)] for pw in self.weights)
            for i in range(1, group.rank + 1)
        )
        self._suborbits: dict[frozenset[int], tuple] = {}
        self._up_masks: list[int] | None = None
        self._down_masks: list[int] | None = None

    def __len__(self):
        return len(self.weights)

    def act(self, word, k: int) -> int:
        """Index of s_{i1} ... s_{ik} applied to weights[k]."""
        gen = self.gen
        for i in reversed(word):
            k = gen[i - 1][k]
        return k

    def position(self, w: WeylElement) -> int:
        """Index of w omega_i, kept in w's ``positions``, so each level folds
        w's word once.  An element of a group of another datum raises
        ValueError."""
        group = self.group
        if w.group is not group and w.group.datum != group.datum:
            raise ValueError(f"an element of {w.group.datum.name} is not in the "
                             f"Weyl group of {group.datum.name}")
        held = w.positions
        if held is None:
            held = w.positions = [None] * group.rank
        k = held[self.level - 1]
        if k is None:
            k = held[self.level - 1] = self.act(w.reduced, 0)
        return k

    def suborbit(self, J) -> tuple:
        """W_J omega_i as (indices, words): each index with a reduced word of
        its minimal representative in W_J."""
        J = frozenset(J)
        hit = self._suborbits.get(J)
        if hit is None:
            gen = self.gen
            idx, parent, via = orbit_bfs(0, sorted(J), lambda j, k: gen[j - 1][k])
            hit = (tuple(idx), tuple(along_tree(parent, via, (), lambda i, u: (i,) + u)))
            self._suborbits[J] = hit
        return hit

    def up_masks(self) -> list[int]:
        """up_masks()[j] has bit k set iff weights[j] <= weights[k]."""
        if self._up_masks is None:
            self._up_masks = _interval_masks(self.gen, 1)
        return self._up_masks

    def down_masks(self) -> list[int]:
        """down_masks()[k] has bit j set iff weights[j] <= weights[k]."""
        if self._down_masks is None:
            self._down_masks = _interval_masks(self.gen, -1)
        return self._down_masks

    def leq(self, a: PluckerWeight, b: PluckerWeight) -> bool:
        return bool(self.down_masks()[b.index] >> a.index & 1)


def _interval_masks(gens, sign: int) -> list[int]:
    """The up-sets (sign 1) or down-sets (sign -1) of all orbit entries, by
    the lifting property [BB05 2.2].  The table is sorted by length, so it
    extends the order and its ends are the maximum and the minimum.  From
    the far end inward: if s moves k toward that end (for up-sets, s raises
    k), the set of k is that of sk plus the images under s of its members
    that s moves the other way."""
    n = len(gens[0])
    movers = [sum(1 << j for j, i in enumerate(g) if (i - j) * sign < 0) for g in gens]
    masks = [0] * n
    for k in range(n - 1, -1, -1) if sign > 0 else range(n):
        s = next((s for s, g in enumerate(gens) if (g[k] - k) * sign > 0), None)
        if s is None:  # the far end itself
            masks[k] = 1 << k
            continue
        g = gens[s]
        m = u = masks[g[k]]
        for j in ones(u & movers[s]):
            m |= 1 << g[j]
        masks[k] = m
    return masks


def orbit(group: WeylGroup, level: int) -> tuple[PluckerWeight, ...]:
    """All Plucker weights of the given level, canonically ordered."""
    return orbit_table(group, level).weights


def orbit_table(group: WeylGroup, level: int) -> OrbitTable:
    """The orbit table of a level, built once per group and held by it."""
    table = group.orbit_tables.get(level)
    if table is None:
        table = group.orbit_tables[level] = OrbitTable(group, level)
    return table


def all_weights(group: WeylGroup) -> tuple[PluckerWeight, ...]:
    if group.all_weights is None:
        group.all_weights = tuple(pw for i in range(1, group.rank + 1) for pw in orbit(group, i))
    return group.all_weights


def weight_of(group: WeylGroup, w: WeylElement, level: int) -> PluckerWeight:
    """The Plucker weight w omega_i."""
    table = orbit_table(group, level)
    return table.weights[table.position(w)]


def orbit_bruhat_leq(group: WeylGroup, a: PluckerWeight, b: PluckerWeight) -> bool:
    """Bruhat order on W omega_i, that of W/W_{i-hat} on the minimal coset
    representatives."""
    if a.level != b.level:
        raise ValueError(f"cannot compare weights of levels {a.level} and {b.level}")
    return orbit_table(group, a.level).leq(a, b)


# ----- orbit sizes without group enumeration ---------------------------------

def orbit_size(group: WeylGroup, level: int, J=None) -> int:
    """|W_J omega_i| (|W omega_i| when J is None) as the index |W_J| / |W_{J - {i}}|,
    exact as the stabilizer of omega_i in W_J is W_{J - {i}} [Bou68 V §3.3]."""
    if not 1 <= level <= group.rank:
        raise ValueError(f"level {level} out of range 1..{group.rank}")
    J = group.check_parabolic(range(1, group.rank + 1) if J is None else J)
    return group.parabolic_order(J) // group.parabolic_order(J - {level})


# ----- R(i) and mu ------------------------------------------------------------

def roots_R(group: WeylGroup, i: int) -> tuple[Root, ...]:
    """Positive roots whose simple-root expansion involves alpha_i."""
    return tuple(rt for rt in group.positive_roots() if rt.expansion[i - 1] != 0)


def mu(group: WeylGroup, root: Root, ordering: WeightOrdering | None = None) -> int:
    """The earliest index (in the active ordering) whose simple root appears
    in the expansion of the given positive root."""
    ordering = active_ordering(group, ordering)
    if not root.is_positive:
        raise ValueError("mu expects a positive root")
    for i in ordering:
        if root.expansion[i - 1] != 0:
            return i
    raise ValueError("root has empty support")


# ----- economical indices and orderings ----------------------------------------

def is_economical_index(group: WeylGroup, i: int, J=None) -> bool:
    """Whether index i is economical for the parabolic subgroup W_J (W when J
    is None): whether 1 + |{alpha in R(i) : support(alpha) within J}| =
    |W_J omega_i|."""
    J = group.check_parabolic(range(1, group.rank + 1) if J is None else J)
    if i not in J:
        raise ValueError(f"index {i} not in parabolic subset {sorted(J)}")
    roots = sum(rt.support() <= J for rt in roots_R(group, i))
    return 1 + roots == orbit_size(group, i, J)


def is_economical_ordering(group: WeylGroup, ordering: WeightOrdering) -> bool:
    """Whether each index is economical for the parabolic generated by the
    indices from its position onward (held by the group per order)."""
    ordering = active_ordering(group, ordering)
    verdict = group.economical.get(ordering.order)
    if verdict is None:
        verdict = group.economical[ordering.order] = all(
            is_economical_index(group, i, ordering.tail(pos))
            for pos, i in enumerate(ordering)
        )
    return verdict


# ----- serialization ------------------------------------------------------------

def subset_of(pw: PluckerWeight) -> frozenset[int]:
    """The subset I of a type A Plucker weight e_I, read off its row mask."""
    if pw.rows is None:
        raise ValueError("weight is not a type A indicator vector")
    return frozenset(j + 1 for j in ones(pw.rows))


def weight_from_subset(group: WeylGroup, subset) -> PluckerWeight:
    """The type A weight e_I, read off the row mask of I.

    A repeated row, a subset of size 0 or n, or one reaching outside 1..n
    names no weight: ValueError names the row or the subset.
    """
    items = sorted(subset)
    subset = frozenset(items)
    if len(subset) != len(items):
        repeated = next(a for a, b in zip(items, items[1:]) if a == b)
        raise ValueError(f"row {repeated} repeated in {items}")
    if group.type_letter != "A":
        raise ValueError(f"{group.datum.name} has no weight e_I")
    if not 1 <= len(subset) <= group.rank:
        raise ValueError(f"subset {subset_str(subset)} is not of size 1..{group.rank}")
    rows = sum(1 << j - 1 for j in range(1, group.rank + 2) if j in subset)
    if rows.bit_count() != len(subset):
        raise ValueError(f"subset {subset_str(subset)} is not within 1..{group.rank + 1}")
    return orbit_table(group, len(subset)).by_rows[rows]


def subset_str(subset) -> str:
    items = sorted(subset)
    if items and items[-1] <= 9:
        return "".join(str(x) for x in items)
    return "{" + ",".join(str(x) for x in items) + "}"


def weight_label(group: WeylGroup, pw: PluckerWeight) -> str:
    """Human-readable label: p13 in type A, p(level:word) otherwise."""
    if group.type_letter == "A":
        return "p" + subset_str(subset_of(pw))
    return f"p({pw.level}:{word_str(pw.min_rep.word)})"


def weight_json(group: WeylGroup, pw: PluckerWeight):
    if group.type_letter == "A":
        return subset_str(subset_of(pw))
    return [pw.level, word_str(pw.min_rep.word)]
