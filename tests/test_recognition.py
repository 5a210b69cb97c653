"""Oracle recognition: correctness, traces, query bounds, agreement of the
type A specialization with the general algorithm, decision trees."""

import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest
from bruhat_oracle import all_elements
from pattern_oracle import all_acceptable_patterns
from tree_oracle import bitmask_optimal_tree, frozenset_optimal_tree, route

from schubcells import perms
from schubcells.cells import (
    cell_description_economical,
    cell_description_general,
    cell_description_typeA,
)
from schubcells.errors import UnacceptableInputError
from schubcells.flags import coordinate_flag, random_cell_point, type_a_group, vanishing_pattern
from schubcells.patterns import (
    VanishingPattern,
    check_acceptable,
    generic_pattern,
    random_acceptable,
)
from schubcells.plucker import (
    WeightOrdering,
    is_economical_ordering,
    orbit_table,
    standard_ordering,
    subset_of,
)
from schubcells.recognition import (
    CountingOracle,
    DecisionTree,
    FlagOracle,
    PatternOracle,
    TreeLeaf,
    TreeNode,
    build_decision_tree,
    recognize_general,
    recognize_typeA,
    worst_case_queries,
)
from schubcells.weyl import weyl_group


def query_multiset(log):
    return Counter((pw.level, pw.labels, bit) for pw, bit in log.entries)


def trace_subsets(log):
    return [(tuple(sorted(subset_of(pw))), bit) for pw, bit in log.entries]


# ----- correctness ---------------------------------------------------------------


@pytest.mark.parametrize("spec", ("A1", "A2", "A3", "B2", "B3", "G2", "D4"))
def test_recognize_general_generic_and_random(spec):
    g = weyl_group(spec)
    for w in all_elements(g):
        got, log = recognize_general(PatternOracle(generic_pattern(g, w)), g)
        assert got == w
        assert len({pw for pw, _ in log.entries}) == log.count  # no duplicates
        for seed in range(5):
            pat = random_acceptable(g, w, seed=seed)
            got, _ = recognize_general(PatternOracle(pat), g)
            assert got == w


def test_recognize_identity_pattern():
    g = weyl_group("A2")
    got, _ = recognize_general(PatternOracle(generic_pattern(g, g.identity)), g)
    assert got == g.identity


def test_recognize_312_trace():
    g = weyl_group("A2")
    pat = generic_pattern(g, g.from_one_line((3, 1, 2)))
    got, log = recognize_general(PatternOracle(pat), g)
    assert g.one_line(got) == (3, 1, 2)
    assert trace_subsets(log) == [((3,), 1), ((2, 3), 0)]
    assert log.count <= 3


def test_recognize_typeA_traces():
    got, log = recognize_typeA(FlagOracle(coordinate_flag((2, 3, 1))), 3)
    assert got == (2, 3, 1)
    assert trace_subsets(log) == [((3,), 0), ((2,), 1), ((2, 3), 1)]
    got, log = recognize_typeA(FlagOracle(coordinate_flag((1, 2, 3))), 3)
    assert got == (1, 2, 3)
    assert trace_subsets(log) == [((3,), 0), ((2,), 0), ((1, 3), 0)]
    assert log.count == 3
    x = random_cell_point((3, 1, 2), seed=3)
    got, log = recognize_typeA(FlagOracle(x), 3)
    assert got == (3, 1, 2)
    assert trace_subsets(log) == [((3,), 1), ((2, 3), 0)]
    assert log.count == 2


def test_query_bound_small_n():
    for n in (2, 3, 4, 5):
        g = type_a_group(n)
        cap = n * (n - 1) // 2
        for w in perms.all_perms(n):
            elem = g.from_one_line(w)
            for oracle in (
                PatternOracle(generic_pattern(g, elem)),
                FlagOracle(coordinate_flag(w)),
            ):
                got, log = recognize_typeA(oracle, n)
                assert got == w
                assert log.count <= cap


def test_typeA_agrees_with_general_exhaustive():
    for n in (2, 3, 4):
        g = type_a_group(n)
        for pat, w in all_acceptable_patterns(g):
            w1, log1 = recognize_general(PatternOracle(pat), g)
            w2, log2 = recognize_typeA(PatternOracle(pat), n)
            assert g.one_line(w1) == w2
            assert query_multiset(log1) == query_multiset(log2)


def test_typeA_agrees_with_general_n5_sampled():
    n = 5
    g = type_a_group(n)
    for w in all_elements(g):
        line = g.one_line(w)
        pats = [
            generic_pattern(g, w),
            vanishing_pattern(coordinate_flag(line), g),
            random_acceptable(g, w, seed=11),
        ]
        for pat in pats:
            w1, log1 = recognize_general(PatternOracle(pat), g)
            w2, log2 = recognize_typeA(PatternOracle(pat), n)
            assert g.one_line(w1) == w2 == line
            assert query_multiset(log1) == query_multiset(log2)


def subset_weight(group, subset):
    """Oracle: the weight e_I found by its labels [j in I] - [j+1 in I]."""
    table = orbit_table(group, len(subset))
    labels = tuple((j in subset) - (j + 1 in subset) for j in range(1, group.rank + 1))
    return table.weights[table.by_labels[labels]]


def subset_recognize_typeA(oracle, n, check_input=False):
    """Oracle: the type A scan over subsets, each query named by its labels."""
    group = type_a_group(n)
    counter = CountingOracle(oracle)
    I = set()
    w = []
    for i in range(1, n + 1):
        rest_min = min(x for x in range(1, n + 1) if x not in I)
        k = n
        while k > rest_min and (k in I or counter.query(subset_weight(group, I | {k})) == 0):
            k -= 1
        if check_input and k == rest_min and len(I) + 1 < n:
            if counter.query(subset_weight(group, I | {k})) == 0:
                raise UnacceptableInputError(f"level-{i} scan found no nonzero bit")
        w.append(k)
        I.add(k)
    return tuple(w), counter.log


def assert_same_scan(oracle, n):
    for check_input in (False, True):
        try:
            expected = subset_recognize_typeA(oracle, n, check_input)
        except UnacceptableInputError as err:
            with pytest.raises(UnacceptableInputError, match=str(err)):
                recognize_typeA(oracle, n, check_input)
            continue
        got, log = recognize_typeA(oracle, n, check_input)
        assert (got, log.entries) == (expected[0], expected[1].entries)
        assert all(a is b for (a, _), (b, _) in zip(log.entries, expected[1].entries))


def test_row_mask_scan_matches_the_subset_scan():
    rng = random.Random(16)
    for n in range(2, 7):
        g = type_a_group(n)
        for w in perms.all_perms(n):
            assert_same_scan(FlagOracle(coordinate_flag(w)), n)
            assert_same_scan(FlagOracle(random_cell_point(w, seed=hash(w) & 0xFFFF)), n)
            assert_same_scan(PatternOracle(random_acceptable(g, g.from_one_line(w), seed=n)), n)
    for n in (2, 3, 4):  # every acceptable vector, the forced bits of check_input too
        for pat, _ in all_acceptable_patterns(type_a_group(n)):
            assert_same_scan(PatternOracle(pat), n)
    for n in (7, 8, 9):
        for seed in range(10):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert_same_scan(FlagOracle(random_cell_point(w, seed=seed)), n)
    zero = VanishingPattern(type_a_group(3), (0,) * 6)
    assert_same_scan(PatternOracle(zero), 3)


# ----- unacceptable input ----------------------------------------------------------


def test_unacceptable_input_detection():
    g = weyl_group("A2")
    zero = VanishingPattern(g, (0,) * 6)
    with pytest.raises(UnacceptableInputError):
        recognize_general(PatternOracle(zero), g, check_input=True)
    with pytest.raises(UnacceptableInputError):
        recognize_typeA(PatternOracle(zero), 3, check_input=True)
    # checked mode agrees with the plain mode on honest inputs
    for w in all_elements(g):
        pat = generic_pattern(g, w)
        got, _ = recognize_general(PatternOracle(pat), g, check_input=True)
        assert got == w
        perm, _ = recognize_typeA(PatternOracle(pat), 3, check_input=True)
        assert perm == g.one_line(w)
    perm, _ = recognize_typeA(FlagOracle(coordinate_flag((1, 2, 3, 4))), 4, check_input=True)
    assert perm == (1, 2, 3, 4)


# ----- oracles ------------------------------------------------------------------------


def test_counting_oracle_memoizes():
    g = weyl_group("A2")
    pat = generic_pattern(g, g.longest_element())
    counter = CountingOracle(PatternOracle(pat))
    pw = next(iter(pat.as_dict()))
    a = counter.query(pw)
    b = counter.query(pw)
    assert a == b
    assert counter.log.count == 1


def test_flag_oracle_bits():
    x = coordinate_flag((2, 1, 3))
    g = type_a_group(3)
    oracle = FlagOracle(x)
    from schubcells.plucker import weight_from_subset

    assert oracle.query(weight_from_subset(g, {2})) == 1
    assert oracle.query(weight_from_subset(g, {3})) == 0


# ----- decision trees ---------------------------------------------------------------------


def test_trees_A2():
    g = weyl_group("A2")
    alg = build_decision_tree(g, "algorithmic")
    opt = build_decision_tree(g, "optimal")
    assert alg.depth == 3
    assert opt.depth == 3
    assert subset_of(alg.root.weight) == frozenset({3})
    for pat, w in all_acceptable_patterns(g):
        assert route(alg, pat)[0] == w
        assert route(opt, pat)[0] == w
    dot = alg.to_dot()
    assert dot.startswith("digraph") and "p3" in dot


def test_tree_A1():
    g = weyl_group("A1")
    opt = build_decision_tree(g, "optimal")
    assert opt.depth == 1
    # the root must query the weight below the top (the only informative bit)
    pw = opt.root.weight
    assert pw.min_rep.length == 1


def test_tree_paths_match_descriptions():
    # each algorithmic branch's constraints are exactly the type A description
    for n in (3, 4):
        g = type_a_group(n)
        for w in all_elements(g):
            pat = generic_pattern(g, w)
            _, log = recognize_general(PatternOracle(pat), g)
            d = cell_description_typeA(g, w)
            got_zero = {pw for pw, bit in log.entries if bit == 0}
            got_one = {pw for pw, bit in log.entries if bit == 1}
            assert got_zero == set(d.equalities)
            assert got_one == set(d.inequalities)


def test_worst_case_queries():
    g = weyl_group("A2")
    assert worst_case_queries(g, "algorithmic") == 3
    assert worst_case_queries(g, "optimal") == 3
    g3 = weyl_group("A3")
    assert worst_case_queries(g3, "algorithmic") == 6
    assert worst_case_queries(weyl_group("A4"), "algorithmic") == 10
    for spec in ("A1", "A2", "B2"):
        gg = weyl_group(spec)
        assert worst_case_queries(gg, "optimal") <= worst_case_queries(gg, "algorithmic")
    with pytest.raises(ValueError):
        worst_case_queries(g, "nonsense")


def test_optimal_answers_from_the_certificate():
    # A5 is past any exhaustive search; D4 has no economical ordering
    assert worst_case_queries(weyl_group("A5"), "optimal") == 15
    d4 = weyl_group("D4")
    for call in (lambda: worst_case_queries(d4, "optimal"),
                 lambda: build_decision_tree(d4, "optimal")):
        with pytest.raises(ValueError, match="no optimality certificate"):
            call()
    # under an ordering that is not economical, A3 has no certificate either
    a3, reverse = weyl_group("A3"), WeightOrdering((2, 1, 3))
    with pytest.raises(ValueError, match="not economical"):
        worst_case_queries(a3, "optimal", reverse)
    assert worst_case_queries(a3, "algorithmic", reverse) == 7


def test_an_ordering_may_be_a_list_or_a_generator():
    # the order keys the group's memo tables, so a list must not reach them,
    # and a generator is read once
    g = weyl_group("B3")
    w = g.element((1, 2, 3, 2))
    pattern = generic_pattern(g, w)

    def results(order):
        ordering = WeightOrdering(order)
        desc = cell_description_economical(g, w, ordering)
        got, log = recognize_general(PatternOracle(pattern), g, ordering)
        return (is_economical_ordering(g, ordering), got, log.weights(),
                build_decision_tree(g, ordering=ordering).to_dot(), desc, hash(desc))

    expected = results((1, 2, 3))
    assert expected[1] == w
    assert results([1, 2, 3]) == expected
    assert results(i for i in (1, 2, 3)) == expected


def trie_tree(group, ordering, vectors) -> DecisionTree:
    """Oracle for the algorithmic tree: run recognize_general on every
    acceptable vector and fold the query logs into a trie."""
    trie: dict = {}
    for pattern, witness in vectors:
        w, log = recognize_general(PatternOracle(pattern), group, ordering)
        assert w == witness
        node = trie
        for entry in log.entries:
            node = node.setdefault(entry, {})
        assert node.setdefault("leaf", w) == w

    def build(node):
        if set(node) == {"leaf"}:
            return TreeLeaf(node["leaf"])
        (pw,) = {entry[0] for entry in node}
        assert set(node) == {(pw, 0), (pw, 1)}, "a query with a single answer"
        return TreeNode(pw, build(node[(pw, 0)]), build(node[(pw, 1)]))

    return DecisionTree(group, build(trie), "algorithmic")


@pytest.mark.parametrize("spec", ("A1", "A2", "A3", "B2", "C2", "G2"))
def test_algorithmic_tree_matches_trie_oracle(spec):
    g = weyl_group(spec)
    vectors = all_acceptable_patterns(g)
    for order in permutations(range(1, g.rank + 1)):
        ordering = WeightOrdering(order)
        tree = build_decision_tree(g, "algorithmic", ordering)
        assert tree.to_dot() == trie_tree(g, ordering, vectors).to_dot()
        for pattern, w in vectors:
            assert route(tree, pattern)[0] == w


def generic_sweep(g) -> int:
    """The worst case as it was first computed: the longest query log over
    the generic patterns of all of W."""
    return max(
        recognize_general(PatternOracle(generic_pattern(g, w)), g)[1].count
        for w in all_elements(g)
    )


@pytest.mark.parametrize(
    "spec",
    ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2"),
)
def test_worst_case_queries_is_the_generic_sweep(spec):
    g = weyl_group(spec)
    assert worst_case_queries(g, "algorithmic") == generic_sweep(g)


def supported(max_rank):
    return [f"{letter}{r}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
            for r in range(low, max_rank + 1)] + ["G2"]


@pytest.mark.parametrize("spec", supported(4) + ["A5", "B5", "C5", "D5"])
def test_worst_case_queries_is_the_tree_depth(spec):
    # the orbit-size sum against the depth of the built tree: every ordering
    # up to rank 4, the standard one at rank 5
    g = weyl_group(spec)
    if g.rank <= 4:
        orderings = [WeightOrdering(order) for order in permutations(range(1, g.rank + 1))]
    else:
        orderings = [standard_ordering(g)]
    for ordering in orderings:
        depth = build_decision_tree(g, "algorithmic", ordering).depth
        assert worst_case_queries(g, "algorithmic", ordering) == depth


def test_standard_ordering_attains_the_least_sum():
    sums = {}
    for spec in supported(6):
        g = weyl_group(spec)
        least = min(worst_case_queries(g, "algorithmic", WeightOrdering(order))
                    for order in permutations(range(1, g.rank + 1)))
        sums[spec] = worst_case_queries(g, "algorithmic", standard_ordering(g))
        assert sums[spec] == least, spec
    # type D, with no economical ordering, asks more than |positive roots|
    for spec, got, roots in (("D4", 13, 12), ("D5", 22, 20), ("D6", 33, 30)):
        assert (sums[spec], len(weyl_group(spec).positive_roots())) == (got, roots)


@pytest.mark.parametrize("spec, depth", [("A1", 1), ("A2", 3), ("B2", 4), ("C2", 4), ("G2", 6)])
def test_optimal_depth_is_the_algorithmic_depth(spec, depth):
    g = weyl_group(spec)
    search = bitmask_optimal_tree(g, all_acceptable_patterns(g))
    assert search.depth == worst_case_queries(g, "optimal") == len(g.positive_roots()) == depth
    assert build_decision_tree(g, "optimal").depth == search.depth
    if spec == "G2":
        # the stdout of `tree --group G2 --optimal --format dot` when the
        # package searched, pinned as the search's DOT
        dot = search.to_dot() + "\n"
        assert dot.count("\n") == 255
        assert hashlib.sha256(dot.encode()).hexdigest() == (
            "ca14ef4616aefa09b3d4ad5f640a4c6823c1dbe621b61b048935329d4ee4c569"
        )


@pytest.mark.parametrize("spec", ("A1", "A2", "B2", "C2"))
def test_optimal_tree_matches_the_frozenset_search(spec):
    g = weyl_group(spec)
    vectors = all_acceptable_patterns(g)
    assert bitmask_optimal_tree(g, vectors).to_dot() == frozenset_optimal_tree(g, vectors).to_dot()


@pytest.mark.parametrize("spec", [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                         + [f"C{r}" for r in range(2, 9)] + ["G2"])
def test_the_optimality_certificate(spec):
    """The lower bound of the module docstring: V_w (1 at each omega_i and
    each w omega_i) is accepted with witness w, and the weights where
    V_{s_beta} differs from V_e are disjoint over the positive roots beta."""
    g = weyl_group(spec)
    tables = [orbit_table(g, i) for i in range(1, g.rank + 1)]
    seen = set()
    for root in g.positive_roots():
        s = g.reflection(root)
        at = [t.position(s) for t in tables]
        report = check_acceptable(VanishingPattern.from_levels(g, [1 | 1 << k for k in at]))
        assert report.accepted and report.witness == s
        family = {(i, k) for i, k in enumerate(at, 1) if k}
        assert family and not family & seen
        seen |= family
    assert worst_case_queries(g, "optimal") == len(g.positive_roots())


@pytest.mark.parametrize("order", [(1, 2), (1, 2, 3, 4)])
def test_ordering_of_the_wrong_rank_is_refused(order):
    g = weyl_group("A3")
    w = g.element((1, 2))
    ordering = WeightOrdering(order)
    for call in (
        lambda: recognize_general(PatternOracle(generic_pattern(g, w)), g, ordering),
        lambda: cell_description_general(g, w, ordering),
        lambda: worst_case_queries(g, "algorithmic", ordering),
        lambda: build_decision_tree(g, "algorithmic", ordering),
    ):
        with pytest.raises(ValueError, match="ordering rank does not match the group"):
            call()
