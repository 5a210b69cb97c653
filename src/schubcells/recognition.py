"""Oracle-driven cell recognition and decision trees.

The general recognizer walks the levels in the active ordering, keeping the
surviving candidate set as a coset v W_J.  At each level it scans the coset
orbit downward along a Bruhat-compatible linear order and stops at the first
nonzero bit; under acceptability all 1-bits of the coset orbit sit below its
per-level maximum, so the first 1 found is that maximum.  When every element
above the bottom answered zero the bottom is forced and is not queried
(queries are what we count, and the forced bit carries no information).
``check_input=True`` queries forced bits anyway and raises on a violation.

The scan is read in place.  The group holds one plan per level: the suborbit
W_J omega_i in descending table order and whether it is a Bruhat chain.  The
coset orbit v W_J omega_i is its translate by v, found entry by entry as the
scan reaches it.  On a chain the translate keeps the order.  v is minimal in
v W_J, so l(vx) = l(v) + l(x) for x in W_J.  Let x < y be minimal
representatives of W_J / W_{J - i}.  A reduced word of v followed by one of
y is reduced for vy and holds v's word followed by a subword for x, so
vx < vy by the subword property [BB05 2.2].  Projecting to W / W_{S - i}
keeps the order [BB05 2.5], and x omega_i != y omega_i, so v x omega_i lies
strictly below v y omega_i and has the lower table index.  Translation can
reorder incomparable entries, so a level that is not a chain is translated
whole and sorted: in the standard orderings, the type D_r positions 0..r-4,
of which position 0 has v = e and translates nothing.  An economical
ordering must give chains; that is checked once per level.

Oracles memoize their answers, so no deterministic run ever pays for a
repeated question; the query log records first-time queries only.

The algorithm's worst-case query count is a sum of coset-orbit sizes
|W_J omega_i| read off parabolic orders, so it lists neither W nor a tree.
Its decision tree, the scans chained level by level with |W| leaves, is
built only for its DOT drawing.  Under an economical ordering that tree is
minimax-optimal, and "optimal" answers with it; under any other ordering
"optimal" raises.  Lower bound: let V_w be 1 exactly at each omega_i and
each w omega_i.  omega_i is index 0, below every entry, so V_w is
acceptable with witness w.  In a correct tree the path of V_e ends at the
leaf of e, and V_w leaves it only at a weight of F_w = {w omega_i !=
omega_i}, so the path queries a weight of each F_w, w != e.  Levels have
disjoint orbits and s_beta omega_i = omega_i - <omega_i, beta^v> beta, so
s_beta omega_i = s_gamma omega_j != omega_i forces i = j and beta = gamma:
the |Phi+| families F_{s_beta} are disjoint, and the depth is >= |Phi+|.
Upper bound: under an economical ordering level pos asks |W_J omega_i| - 1
= |{alpha in R(i) : supp alpha within J}|, the roots with mu(alpha) = i,
which sum to |Phi+|.  No ordering of type D is economical.
"""

from __future__ import annotations

from itertools import count

from .errors import UnacceptableInputError, UnsupportedGroupError
from .flags import Flag, check_flag_group, type_a_group
from .patterns import VanishingPattern
from .perms import one_line_str
from .plucker import (
    PluckerWeight,
    WeightOrdering,
    active_ordering,
    is_economical_ordering,
    orbit_size,
    orbit_table,
    weight_label,
)
from .weyl import WeylElement, WeylGroup, word_str

TREE_LEAF_CAP = 10 ** 6  # the drawn tree has |W| leaves


class QueryLog:
    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[PluckerWeight, int]] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def count(self) -> int:
        return len(self.entries)

    def weights(self) -> tuple[PluckerWeight, ...]:
        return tuple(pw for pw, _ in self.entries)


class PatternOracle:
    """Answers membership bits from a stored vanishing pattern."""

    def __init__(self, pattern: VanishingPattern):
        self.pattern = pattern

    def query(self, pw: PluckerWeight) -> int:
        return self.pattern.bit(pw)


class FlagOracle:
    """Reads a flag's exact minor at the weight's row mask (type A).  The
    group of a weight is checked when it differs from the last one that
    passed; groups are interned, so that is once per run."""

    def __init__(self, flag: Flag):
        self.flag = flag
        self._group = None

    def query(self, pw: PluckerWeight) -> int:
        group = pw.min_rep.group
        if group is not self._group:
            check_flag_group(self.flag.n, group)
            self._group = group
        return 1 if self.flag.nonzero_at(pw.rows) else 0


class CountingOracle:
    """Memoizing wrapper that records first-time queries."""

    def __init__(self, inner):
        self.inner = inner
        self.log = QueryLog()
        self._memo: dict[PluckerWeight, int] = {}

    def query(self, pw: PluckerWeight) -> int:
        bit = self._memo.get(pw)
        if bit is None:
            bit = 1 if self.inner.query(pw) else 0
            self._memo[pw] = bit
            self.log.entries.append((pw, bit))
        return bit


def _level_plan(group: WeylGroup, ordering: WeightOrdering, pos: int):
    """(table, entries, chain) of level ``pos``: the suborbit W_J omega_i,
    J = ``ordering.tail(pos)``, as (PluckerWeight, rep) pairs in descending
    table order, rep a reduced word of the minimal representative in W_J,
    and whether the entries form a Bruhat chain.  Held in the group's
    ``scan_plans``, one per (order, pos)."""
    key = (ordering.order, pos)
    plan = group.scan_plans.get(key)
    if plan is None:
        table = orbit_table(group, ordering.order[pos])
        indices, words = table.suborbit(ordering.tail(pos))
        entries = [(table.weights[k], rep) for k, rep in sorted(zip(indices, words), reverse=True)]
        chain = all(table.leq(b, a) for (a, _), (b, _) in zip(entries, entries[1:]))
        if not chain and is_economical_ordering(group, ordering):
            raise RuntimeError("economical ordering produced a non-linear scan set")
        plan = group.scan_plans[key] = (table, tuple(entries), chain)
    return plan


def _scan(plan, word):
    """The descending scan of v W_J omega_i for v of the given word, as
    (PluckerWeight, rep) pairs: a chain is translated entry by entry as it
    is read, any other level is translated whole and sorted."""
    table, entries, chain = plan
    if not word:
        return entries
    weights = table.weights
    translated = ((weights[table.act(word, pw.index)], rep) for pw, rep in entries)
    return translated if chain else sorted(translated, key=lambda e: e[0].index, reverse=True)


def recognize_general(
    oracle,
    group: WeylGroup,
    ordering: WeightOrdering | None = None,
    check_input: bool = False,
) -> tuple[WeylElement, QueryLog]:
    """Identify the witness of an acceptable bit vector behind an oracle."""
    ordering = active_ordering(group, ordering)
    counter = oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)
    fp = group.identity.fingerprint
    word: tuple[int, ...] = ()
    for pos in range(group.rank):
        plan = _level_plan(group, ordering, pos)
        last = len(plan[1]) - 1
        for t, (eta, rep) in enumerate(_scan(plan, word)):
            if t == last:
                # Forced: everything above answered zero.
                if check_input and counter.query(eta) == 0:
                    raise UnacceptableInputError(
                        f"all bits of a level-{eta.level} coset orbit are zero"
                    )
                break
            if counter.query(eta):
                break
        word += rep
        fp = group.fold(rep, fp)
    # reduced, as the lengths of the parabolic coset representatives add
    return WeylElement._of_reduced(word, fp, group), counter.log


def recognize_typeA(oracle, n: int, check_input: bool = False):
    """Recognize the cell of a complete flag in C^n, testing at most
    n(n-1)/2 bits.  Returns (one-line permutation, QueryLog)."""
    group = type_a_group(n)
    counter = oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)
    rows = 0  # the row mask of I = {w(1), ..., w(i - 1)}
    w = []
    for i in range(1, n):
        table = orbit_table(group, i).by_rows
        rest_min = (~rows & rows + 1).bit_length()
        k = n
        while k > rest_min and (rows >> k - 1 & 1 or counter.query(table[rows | 1 << k - 1]) == 0):
            k -= 1
        if check_input and k == rest_min and counter.query(table[rows | 1 << k - 1]) == 0:
            raise UnacceptableInputError(f"level-{i} scan found no nonzero bit")
        w.append(k)
        rows |= 1 << k - 1
    w.append((~rows & rows + 1).bit_length())  # the one row left
    return tuple(w), counter.log


# ----- decision trees --------------------------------------------------------------


class TreeLeaf:
    __slots__ = ("w",)

    def __init__(self, w: WeylElement):
        self.w = w


class TreeNode:
    """A query of ``weight``: ``low`` is the branch for bit 0, ``high`` for bit 1."""

    __slots__ = ("weight", "low", "high")

    def __init__(self, weight: PluckerWeight, low: TreeNode | TreeLeaf, high: TreeNode | TreeLeaf):
        self.weight, self.low, self.high = weight, low, high


class DecisionTree:
    __slots__ = ("group", "root")

    def __init__(self, group: WeylGroup, root: TreeNode | TreeLeaf):
        self.group, self.root = group, root

    @property
    def depth(self) -> int:
        def height(node) -> int:
            if isinstance(node, TreeLeaf):
                return 0
            return 1 + max(height(node.low), height(node.high))

        return height(self.root)

    def to_dot(self) -> str:
        lines = ["digraph recognition {"]
        ids = count()

        def emit(node) -> str:
            name = f"n{next(ids)}"
            if isinstance(node, TreeLeaf):
                label = _element_label(self.group, node.w)
                lines.append(f'  {name} [shape=box, label="{label}"];')
                return name
            label = weight_label(self.group, node.weight)
            lines.append(f'  {name} [label="{label}"];')
            for child, edge in ((node.low, "=0"), (node.high, "!=0")):
                lines.append(f'  {name} -> {emit(child)} [label="{edge}"];')
            return name

        emit(self.root)
        lines.append("}")
        return "\n".join(lines)


def _element_label(group: WeylGroup, w: WeylElement) -> str:
    if group.type_letter == "A":
        return one_line_str(group.one_line(w))
    return word_str(w.word)


def build_decision_tree(
    group: WeylGroup, strategy: str = "algorithmic", ordering: WeightOrdering | None = None
) -> DecisionTree:
    """The algorithm's tree, certified optimal for "optimal" (module docstring)."""
    return _algorithmic_tree(group, _certified_ordering(group, strategy, ordering))


def _certified_ordering(group, strategy, ordering) -> WeightOrdering:
    """The active ordering; ValueError on an unknown or uncertified strategy."""
    ordering = active_ordering(group, ordering)
    if strategy not in ("algorithmic", "optimal"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "optimal" and not is_economical_ordering(group, ordering):
        raise ValueError("no optimality certificate: the ordering is not economical")
    return ordering


def _algorithmic_tree(group, ordering) -> DecisionTree:
    """Every scan entry but the last is a query whose 1-branch fixes the
    coset and moves to the next level; the last entry is forced."""
    if group.order > TREE_LEAF_CAP:
        raise UnsupportedGroupError(
            f"|W| = {group.order} exceeds the enumeration cap {TREE_LEAF_CAP}")

    def level(pos, fp, word):
        if pos == group.rank:
            return TreeLeaf(group.by_fingerprint(fp))
        branches = [
            (eta, level(pos + 1, group.fold(rep, fp), word + rep))
            for eta, rep in _scan(_level_plan(group, ordering, pos), word)
        ]
        node = branches.pop()[1]
        for eta, high in reversed(branches):
            node = TreeNode(eta, node, high)
        return node

    return DecisionTree(group, level(0, group.identity.fingerprint, ()))


def worst_case_queries(
    group: WeylGroup, method: str = "algorithmic", ordering: WeightOrdering | None = None
) -> int:
    """Maximum query count over all acceptable inputs.  Level pos scans the
    |W_J omega_i| weights of v W_J omega_i, J = ``ordering.tail(pos)``, whatever
    v is, and the input whose 1-bit is last at every level is asked all but the
    forced last one: the algorithmic count is the sum of |W_J omega_i| - 1.
    Under an economical ordering it is |Phi+|, the optimal count."""
    ordering = _certified_ordering(group, method, ordering)
    return sum(orbit_size(group, i, ordering.tail(pos)) - 1 for pos, i in enumerate(ordering))
