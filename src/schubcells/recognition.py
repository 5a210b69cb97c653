"""Oracle-driven cell recognition and decision trees.

The general recognizer walks the levels in the active ordering, keeping the
surviving candidate set as a coset v W_J.  At each level it scans the coset
orbit downward along a Bruhat-compatible linear order and stops at the first
nonzero bit; under acceptability all 1-bits of the coset orbit sit below its
per-level maximum, so the first 1 found is that maximum.  When every element
above the bottom answered zero the bottom is forced and is not queried
(queries are what we count, and the forced bit carries no information).
``check_input=True`` queries forced bits anyway and raises on a violation.

Oracles memoize their answers, so no deterministic run ever pays for a
repeated question; the query log records first-time queries only.

The algorithm's decision tree is its scan plans chained level by level, with
|W| leaves and no input vectors; its depth is the worst-case query count.  The
optimal (minimax) tree searches every acceptable vector of a tiny group.
"""

from __future__ import annotations

from itertools import count, product

from .errors import UnacceptableInputError
from .flags import Flag, check_flag_group, type_a_group
from .patterns import VanishingPattern
from .perms import one_line_str
from .plucker import (
    PluckerWeight,
    WeightOrdering,
    all_weights,
    is_economical_ordering,
    ones,
    orbit_table,
    standard_ordering,
    weight_label,
)
from .weyl import WeylElement, WeylGroup, word_str


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
    """Reads a flag's exact minor at the weight's row mask (type A)."""

    def __init__(self, flag: Flag):
        self.flag = flag

    def query(self, pw: PluckerWeight) -> int:
        check_flag_group(self.flag.n, pw.min_rep.group)
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


def _scan_plan(group: WeylGroup, ordering: WeightOrdering, pos: int, fp, word):
    """Descending Bruhat-compatible scan of v W_J omega_i, with the coset
    updates attached: list of (PluckerWeight, word to append to v).  v is
    given by its fingerprint and any word for it; only the fingerprint is in
    the key of the group's ``scan_plans``."""
    key = (ordering.order, pos, fp)
    plan = group.scan_plans.get(key)
    if plan is not None:
        return plan
    table = orbit_table(group, ordering.order[pos])
    indices, words = table.suborbit(ordering.tail(pos))
    # Orbit-table order is (min-rep length, shortlex word), so sorting by
    # index gives the descending scan.
    scan = sorted(zip((table.act(word, k) for k in indices), words), reverse=True)
    entries = [(table.weights[k], rep) for k, rep in scan]
    if is_economical_ordering(group, ordering):
        for (a, _), (b, _) in zip(entries, entries[1:]):
            if not table.leq(b, a):
                raise RuntimeError(
                    "economical ordering produced a non-linear scan set"
                )
    group.scan_plans[key] = entries
    return entries


def recognize_general(
    oracle,
    group: WeylGroup,
    ordering: WeightOrdering | None = None,
    check_input: bool = False,
) -> tuple[WeylElement, QueryLog]:
    """Identify the witness of an acceptable bit vector behind an oracle."""
    if ordering is None:
        ordering = standard_ordering(group)
    counter = oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)
    fp = group.identity.fingerprint
    word: tuple[int, ...] = ()
    for pos in range(group.rank):
        plan = _scan_plan(group, ordering, pos, fp, word)
        if not plan:
            raise UnacceptableInputError("empty scan set")
        chosen = None
        for t, (eta, rep) in enumerate(plan):
            if t == len(plan) - 1:
                # Forced: everything above answered zero.
                if check_input and counter.query(eta) == 0:
                    raise UnacceptableInputError(
                        f"all bits of a level-{eta.level} coset orbit are zero"
                    )
                chosen = rep
                break
            if counter.query(eta):
                chosen = rep
                break
        word += chosen
        fp = group.fold(chosen, fp)
    return group.by_fingerprint(fp), counter.log


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

    @property
    def depth(self) -> int:
        return 0


class TreeNode:
    """A query of ``weight``: ``low`` is the branch for bit 0, ``high`` for bit 1."""

    __slots__ = ("weight", "low", "high")

    def __init__(self, weight: PluckerWeight, low: TreeNode | TreeLeaf, high: TreeNode | TreeLeaf):
        self.weight, self.low, self.high = weight, low, high

    @property
    def depth(self) -> int:
        return 1 + max(self.low.depth, self.high.depth)


class DecisionTree:
    __slots__ = ("group", "root", "strategy")

    def __init__(self, group: WeylGroup, root: TreeNode | TreeLeaf, strategy: str):
        self.group, self.root, self.strategy = group, root, strategy

    @property
    def depth(self) -> int:
        return self.root.depth

    def route(self, pattern: VanishingPattern) -> tuple[WeylElement, int]:
        node = self.root
        queries = 0
        while isinstance(node, TreeNode):
            queries += 1
            node = node.high if pattern.bit(node.weight) else node.low
        return node.w, queries

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


ACCEPTABLE_ENUMERATION_CAP = 200_000


def all_acceptable_patterns(group: WeylGroup):
    """Every acceptable vector, as (VanishingPattern, witness) pairs: per
    witness w, bit 1 at each w omega_i and any bits strictly below it."""
    total = 0
    per_w = []
    for w in group.elements():
        fixed, free = [], []
        for i in range(1, group.rank + 1):
            table = orbit_table(group, i)
            jw = table.position(w)
            fixed.append(1 << jw)
            free.extend((i - 1, 1 << k) for k in ones(table.down_masks()[jw] & ~(1 << jw)))
        total += 2 ** len(free)
        per_w.append((w, fixed, free))
        if total > ACCEPTABLE_ENUMERATION_CAP:
            raise ValueError(
                f"acceptable-vector enumeration exceeds cap {ACCEPTABLE_ENUMERATION_CAP}"
            )
    out = []
    for w, fixed, free in per_w:
        for choice in product((0, 1), repeat=len(free)):
            levels = list(fixed)
            for (i, bit), b in zip(free, choice):
                if b:
                    levels[i] |= bit
            out.append((VanishingPattern.from_levels(group, levels), w))
    return out


def build_decision_tree(
    group: WeylGroup,
    strategy: str = "algorithmic",
    ordering: WeightOrdering | None = None,
) -> DecisionTree:
    if strategy == "algorithmic":
        return _algorithmic_tree(group, ordering or standard_ordering(group))
    if strategy != "optimal":
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(group) > 1000:
        raise ValueError("optimal tree search is capped at |W| <= 1000")
    return _optimal_tree(group, all_acceptable_patterns(group))


def _algorithmic_tree(group, ordering) -> DecisionTree:
    """Every scan plan entry but the last is a query whose 1-branch fixes the
    coset and moves to the next level; the last entry is forced."""
    group.check_enumerable()

    def level(pos, fp, word):
        if pos == group.rank:
            return TreeLeaf(group.by_fingerprint(fp))
        branches = [
            (eta, level(pos + 1, group.fold(rep, fp), word + rep))
            for eta, rep in _scan_plan(group, ordering, pos, fp, word)
        ]
        node = branches.pop()[1]
        for eta, high in reversed(branches):
            node = TreeNode(eta, node, high)
        return node

    return DecisionTree(group, level(0, group.identity.fingerprint, ()), "algorithmic")


def _optimal_tree(group, vectors) -> DecisionTree:
    weights = all_weights(group)
    witnesses = [w for _pattern, w in vectors]
    columns = [[pattern.bit(pw) for pattern, _w in vectors] for pw in weights]
    memo: dict[frozenset, tuple[int, object]] = {}

    def lower_bound(ids) -> int:
        distinct = len({witnesses[t].fingerprint for t in ids})
        return (distinct - 1).bit_length()

    def solve(ids: frozenset):
        hit = memo.get(ids)
        if hit is not None:
            return hit
        first = witnesses[next(iter(ids))]
        if all(witnesses[t] == first for t in ids):
            result = (0, TreeLeaf(first))
            memo[ids] = result
            return result
        lb = lower_bound(ids)
        best = None
        for q, column in enumerate(columns):
            zero = frozenset(t for t in ids if column[t] == 0)
            if not zero or len(zero) == len(ids):
                continue
            one = ids - zero
            d0, t0 = solve(zero)
            d1, t1 = solve(one)
            cand = (1 + max(d0, d1), TreeNode(weights[q], t0, t1))
            if best is None or cand[0] < best[0]:
                best = cand
                if best[0] == lb:
                    break
        memo[ids] = best
        return best

    depth, root = solve(frozenset(range(len(vectors))))
    return DecisionTree(group, root, "optimal")


def worst_case_queries(
    group: WeylGroup, method: str = "algorithmic", ordering: WeightOrdering | None = None
) -> int:
    """Maximum query count over all acceptable inputs: the depth of the
    method's decision tree.  The adaptive algorithm's count depends only on
    the witness, so its depth is the worst case over W."""
    return build_decision_tree(group, method, ordering).depth
