"""Plucker weights, orbit Bruhat order, R(i)/mu machinery, economical
indices and orderings."""

import random
import re
from itertools import combinations, permutations
from math import comb

import pytest
from ambient import ambient, closed_form_order
from bruhat_oracle import all_elements, subset_leq
from hypothesis import given, settings
from hypothesis import strategies as st
from proposition_checks import linear_order_check, reflection_weight_map

from schubcells.cartan import cartan_datum
from schubcells.perms import down_count
from schubcells.plucker import (
    WeightOrdering,
    active_ordering,
    is_economical_index,
    is_economical_index_parabolic,
    is_economical_ordering,
    mu,
    ones,
    orbit,
    orbit_bruhat_leq,
    orbit_size,
    orbit_table,
    roots_R,
    standard_ordering,
    subset_of,
    subset_str,
    weight_from_subset,
    weight_label,
    weight_of,
)
from schubcells.weyl import WeylGroup, orbit_bfs, weyl_group

SMALL_GROUPS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4")


# ----- orbits ------------------------------------------------------------------


def test_orbit_sizes_A2():
    g = weyl_group("A2")
    o1 = orbit(g, 1)
    o2 = orbit(g, 2)
    assert {frozenset(subset_of(pw)) for pw in o1} == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    }
    assert {frozenset(subset_of(pw)) for pw in o2} == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }


def test_orbit_sizes_B2():
    g = weyl_group("B2")
    assert len(orbit(g, 1)) == 4
    assert len(orbit(g, 1)) == len(all_elements(g)) // 2


def test_orbit_size_equals_coset_count():
    for spec in SMALL_GROUPS:
        g = weyl_group(spec)
        full = frozenset(range(1, g.rank + 1))
        for i in range(1, g.rank + 1):
            reps = {g.min_coset_rep(w, full - {i}) for w in all_elements(g)}
            table = orbit(g, i)
            assert len(table) == len(reps)
            assert {pw.min_rep for pw in table} == reps
            assert len({ambient(g).weight(pw) for pw in table}) == len(table)


def test_min_rep_invariant():
    for spec in ("A3", "B3", "G2"):
        g = weyl_group(spec)
        amb = ambient(g)
        full = frozenset(range(1, g.rank + 1))
        for i in range(1, g.rank + 1):
            for pw in orbit(g, i):
                assert amb.labels(amb.act(pw.min_rep, amb.fundamental_weights[i - 1])) == pw.labels
                assert g.min_coset_rep(pw.min_rep, full - {i}) == pw.min_rep


def test_orbits_disjoint():
    for spec in SMALL_GROUPS:
        g = weyl_group(spec)
        seen = set()
        for i in range(1, g.rank + 1):
            vecs = {ambient(g).weight(pw) for pw in orbit(g, i)}
            assert not (vecs & seen)
            seen |= vecs


SUPPORTED_GROUPS = (
    tuple(f"A{r}" for r in range(1, 9)) + tuple(f"B{r}" for r in range(2, 9))
    + tuple(f"C{r}" for r in range(2, 9)) + tuple(f"D{r}" for r in range(4, 9)) + ("G2",)
)


def fundamental_orbit_size(letter, n, i):
    """|W omega_i| in closed form: i-subsets of n + 1 in A_n, signed
    i-subsets of n in B_n and C_n (and in D_n below the spin nodes), half
    of all sign vectors at the two spin nodes of D_n."""
    if letter == "A":
        return comb(n + 1, i)
    if letter == "G":
        return 6
    if letter == "D" and i >= n - 1:
        return 2 ** (n - 1)
    return 2 ** i * comb(n, i)


@pytest.mark.parametrize("spec", SUPPORTED_GROUPS)
def test_orbit_sizes_in_closed_form(spec):
    g = weyl_group(spec)
    for i in range(1, g.rank + 1):
        assert orbit_size(g, i) == fundamental_orbit_size(g.type_letter, g.rank, i)


@pytest.mark.parametrize("spec", SUPPORTED_GROUPS)
def test_peeled_parabolic_order_of_all_of_w_is_its_order(spec):
    g = weyl_group(spec)
    expected = closed_form_order(g.type_letter, g.rank)
    assert g.parabolic_order(range(1, g.rank + 1)) == len(g) == expected


@pytest.mark.parametrize("spec", [s for s in SUPPORTED_GROUPS if int(s[1:]) <= 5])
def test_orbit_size_as_an_index_counts_the_listed_orbit(spec):
    # |W_J| / |W_{J - {i}}| against the BFS listing of W_J omega_i, every J
    g = weyl_group(spec)
    gens = range(1, g.rank + 1)
    for J in (J for k in range(g.rank + 1) for J in combinations(gens, k)):
        for i in gens:
            omega = tuple(int(j == i) for j in gens)
            assert orbit_size(g, i, J) == len(orbit_bfs(omega, J, g.reflect_labels)[0]), (i, J)


def test_parabolic_orders_are_held_by_the_group(monkeypatch):
    from schubcells import weyl

    g = WeylGroup(cartan_datum("B", 8))
    first = [orbit_size(g, i, range(i, 9)) for i in range(1, 9)]
    calls = []
    monkeypatch.setattr(weyl, "orbit_bfs", lambda *a: calls.append(a) or orbit_bfs(*a))
    assert [orbit_size(g, i, range(i, 9)) for i in range(1, 9)] == first
    assert calls == []
    assert g.parabolic_orders[frozenset(range(1, 9))] == len(g) == 2 ** 8 * 40320


def test_orbit_size_names_a_level_out_of_range():
    g = weyl_group("B3")
    for level in (0, 4):
        with pytest.raises(ValueError, match=f"level {level} out of range 1..3"):
            orbit_size(g, level)


ORACLE_GROUPS = (
    tuple(f"A{r}" for r in range(1, 7)) + tuple(f"B{r}" for r in range(2, 7))
    + tuple(f"C{r}" for r in range(2, 6)) + ("D4", "D5", "D6", "G2")
)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_orbit_tables_match_independent_oracles(spec):
    # tables are built from labels alone, canonical words from the descent
    # walk: check the words against the canonical form of the word, and the
    # vectors min_rep omega_i against the ambient Fraction BFS of the orbit
    g = weyl_group(spec)
    amb = ambient(g)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        for pw in table.weights:
            assert pw.min_rep.word == g.element(pw.min_rep.word).word
            if g.type_letter == "A":
                assert subset_of(pw) == {j for j, x in enumerate(amb.weight(pw), 1) if x}
        assert {amb.weight(pw) for pw in table.weights} == amb.orbit_vectors(i)


@pytest.mark.parametrize("spec", ("A3", "G2"))
def test_lookup_rejects_a_w_invariant_shift(spec):
    # the oracle's lookup by vector: the shift keeps every Dynkin label, so
    # only the vector tells it apart
    g = weyl_group(spec)
    amb = ambient(g)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        for pw in table.weights:
            v = amb.weight(pw)
            assert amb.lookup(table, v) is pw
            shifted = tuple(x + 1 for x in v)
            assert amb.labels(shifted) == pw.labels
            with pytest.raises(KeyError):
                amb.lookup(table, shifted)


# ----- orbit Bruhat order -------------------------------------------------------


def test_orbit_bruhat_typeA_subset_criterion():
    # n = 8 and 9 run on fresh groups.
    for n in (3, 4, 5, 8, 9):
        g = weyl_group("A", n - 1) if n <= 5 else WeylGroup(cartan_datum("A", n - 1))
        for i in range(1, n):
            table = orbit(g, i)
            for a in table:
                for b in table:
                    expect = subset_leq(subset_of(a), subset_of(b))
                    assert orbit_bruhat_leq(g, a, b) == expect


def test_down_rows_are_the_orbit_down_sets():
    # every entry of every level of A1..A8; ranks past 4 on fresh groups:
    # its down-mask names exactly the subsets below it, down_count of them
    for r in range(1, 9):
        g = weyl_group("A", r) if r <= 4 else WeylGroup(cartan_datum("A", r))
        for i in range(1, r + 1):
            table = orbit_table(g, i)
            for pw, down in zip(table.weights, table.down_masks()):
                P = subset_of(pw)
                below = {frozenset(I) for I in combinations(range(1, r + 2), i)
                         if subset_leq(I, P)}
                assert down_count(P) == down.bit_count() == len(below)
                assert {subset_of(table.weights[k]) for k in ones(down)} == below


def test_down_count_counts_the_down_rows():
    # every subset P of [n], n <= 8, against a brute count of the
    # |P|-subsets below P
    for n in range(1, 9):
        for k in range(n + 1):
            for P in combinations(range(1, n + 1), k):
                brute = sum(subset_leq(I, P) for I in combinations(range(1, n + 1), k))
                assert down_count(P) == brute


@pytest.mark.parametrize("n", (10, 11, 12))
def test_down_count_matches_the_sorted_subset_oracle(n):
    # past n = 9 no orbit table is built; the brute comparison decides
    rng = random.Random(n)
    for _ in range(4):
        w = rng.sample(range(1, n + 1), n)
        for i in range(1, n):
            expect = sum(subset_leq(I, w[:i]) for I in combinations(range(1, n + 1), i))
            assert down_count(w[:i]) == expect


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.lists(
    st.integers(1, n), unique=True, max_size=n)))
def test_down_count_property(P):
    # unsorted input, up to n = 14; a subset below P lies in [max P], and
    # there are at most C(14, 7) = 3432 to compare
    top = max(P, default=0)
    assert down_count(P) == sum(
        subset_leq(I, P) for I in combinations(range(1, top + 1), len(P)))


def test_orbit_bruhat_reflexive_and_level_mismatch():
    g = weyl_group("A2")
    a = orbit(g, 1)[0]
    b = orbit(g, 2)[0]
    assert orbit_bruhat_leq(g, a, a)
    with pytest.raises(ValueError):
        orbit_bruhat_leq(g, a, b)


def _nonneg_root_expansion(g, diff):
    """Coefficients of diff over the simple roots, or None if not nonnegative."""
    from fractions import Fraction

    roots = [list(map(Fraction, a)) for a in ambient(g).simple_roots]
    n = len(diff)
    r = len(roots)
    M = [[roots[j][k] for j in range(r)] + [Fraction(diff[k])] for k in range(n)]
    row = 0
    pivots = []
    for col in range(r):
        p = next((rr for rr in range(row, n) if M[rr][col] != 0), None)
        if p is None:
            continue
        M[row], M[p] = M[p], M[row]
        pv = M[row][col]
        M[row] = [x / pv for x in M[row]]
        for rr in range(n):
            if rr != row and M[rr][col] != 0:
                f = M[rr][col]
                M[rr] = [x - f * y for x, y in zip(M[rr], M[row])]
        pivots.append(col)
        row += 1
    if any(M[rr][r] != 0 for rr in range(row, n)):
        return None
    c = [Fraction(0)] * r
    for k, col in enumerate(pivots):
        c[col] = M[k][r]
    if all(x >= 0 for x in c) and any(c):
        return tuple(c)
    return None


def _root_positivity_counterexamples(spec):
    g = weyl_group(spec)
    amb = ambient(g)
    out = []
    for i in range(1, g.rank + 1):
        table = orbit(g, i)
        for a in table:
            for b in table:
                if a == b:
                    continue
                diff = tuple(x - y for x, y in zip(amb.weight(a), amb.weight(b)))
                if _nonneg_root_expansion(g, diff) is None:
                    continue
                if not orbit_bruhat_leq(g, a, b):
                    out.append((i, a, b))
    return out


def test_orbit_order_not_characterized_by_root_positivity():
    # Bruhat-below does imply the difference is a nonnegative combination of
    # simple roots, but the converse fails in type B (first at rank 4, in the
    # level-2 orbit); exhaustive scans locate the witnesses.
    for spec in ("B4", "C4", "D4"):
        failures = _root_positivity_counterexamples(spec)
        assert failures, spec
        assert {i for i, _a, _b in failures} == {2}
    # within the fundamental orbits of the rank <= 3 groups the converse
    # happens to hold (verified exhaustively, frozen here as an observation)
    for spec in ("A3", "B3", "C3", "G2"):
        assert not _root_positivity_counterexamples(spec)


def test_orbit_bruhat_implies_root_positive_difference():
    for spec in ("A3", "B3", "C3", "G2", "D4"):
        g = weyl_group(spec)
        amb = ambient(g)
        for i in range(1, g.rank + 1):
            table = orbit(g, i)
            for a in table:
                for b in table:
                    if a != b and orbit_bruhat_leq(g, a, b):
                        diff = tuple(x - y for x, y in zip(amb.weight(a), amb.weight(b)))
                        assert _nonneg_root_expansion(g, diff) is not None


# ----- R(i) and mu -----------------------------------------------------------------


def test_roots_R_A2():
    g = weyl_group("A2")
    r1 = roots_R(g, 1)
    assert {rt.expansion for rt in r1} == {(1, 0), (1, 1)}
    a2 = [rt for rt in g.positive_roots() if rt.expansion == (0, 1)][0]
    assert mu(g, a2) == 2


def test_roots_R_Br_first_index():
    for r in (2, 3, 4, 5, 6):
        g = weyl_group("B", r)
        assert len(roots_R(g, 1)) == 2 * r - 1


def test_mu_respects_ordering():
    g = weyl_group("A3")
    rev = WeightOrdering((3, 2, 1))
    for rt in g.positive_roots():
        i = mu(g, rt, rev)
        assert rt.expansion[i - 1] != 0
        for j in rev:
            if j == i:
                break
            assert rt.expansion[j - 1] == 0


# ----- reflection weight map ----------------------------------------------------------


def test_reflection_weight_map_A2():
    g = weyl_group("A2")
    m = reflection_weight_map(g, 1)
    images = {frozenset(subset_of(pw)) for pw in m.values()}
    assert images == {frozenset({2}), frozenset({3})}


def test_reflection_weight_map_injective():
    for spec in SMALL_GROUPS:
        g = weyl_group(spec)
        for i in range(1, g.rank + 1):
            m = reflection_weight_map(g, i)
            assert len(set(m.values())) == len(m) == len(roots_R(g, i))
            amb = ambient(g)
            omega = amb.fundamental_weights[i - 1]
            assert all(amb.weight(pw) != omega for pw in m.values())


def test_reflection_weight_map_not_onto_A3_level2():
    g = weyl_group("A3")
    assert len(roots_R(g, 2)) == 4
    assert len(orbit(g, 2)) - 1 == 5
    assert not is_economical_index(g, 2)


# ----- economical indices ---------------------------------------------------------------


def test_economical_rank_low():
    for spec in ("A1", "A2", "B2", "G2"):
        g = weyl_group(spec)
        for i in range(1, g.rank + 1):
            assert is_economical_index(g, i)


def test_economical_classification():
    assert [is_economical_index(weyl_group("A4"), i) for i in range(1, 5)] == [
        True,
        False,
        False,
        True,
    ]
    for r in (3, 4, 5, 6):
        gB = weyl_group("B", r)
        gC = weyl_group("C", r)
        assert [i for i in range(1, r + 1) if is_economical_index(gB, i)] == [1]
        assert [i for i in range(1, r + 1) if is_economical_index(gC, i)] == [1]
    for r in (4, 5, 6):
        gD = weyl_group("D", r)
        assert not any(is_economical_index(gD, i) for i in range(1, r + 1))


def test_the_group_holds_its_standard_ordering():
    # built once on first use and handed out as the same object
    for letter, rank, order in (("A", 3, (1, 2, 3)), ("D", 5, (1, 2, 4, 3, 5))):
        g = WeylGroup(cartan_datum(letter, rank))
        assert g.standard_ordering is None
        std = standard_ordering(g)
        assert std.order == order
        assert g.standard_ordering is std is standard_ordering(g) is active_ordering(g, None)
        other = WeightOrdering(order)
        assert active_ordering(g, other) is other


def test_economical_ordering_standard():
    for spec in ("A2", "A3", "A4", "B2", "B3", "C3", "G2"):
        g = weyl_group(spec)
        assert is_economical_ordering(g, standard_ordering(g))
    # reversed order for A3 is economical too
    g = weyl_group("A3")
    assert is_economical_ordering(g, WeightOrdering((3, 2, 1)))
    # but the middle-first order is not
    assert not is_economical_ordering(g, WeightOrdering((2, 1, 3)))


def test_economical_ordering_none_is_the_standard_one_on_a_fresh_group():
    g = WeylGroup(cartan_datum("B", 3))
    assert is_economical_ordering(g, None)
    assert g.economical == {(1, 2, 3): True}
    assert not is_economical_ordering(WeylGroup(cartan_datum("D", 4)), None)


def test_D4_has_no_economical_ordering():
    g = weyl_group("D4")
    for order in permutations(range(1, 5)):
        assert not is_economical_ordering(g, WeightOrdering(order))


def test_economical_ordering_bijection_restatement():
    # Under an economical ordering, for each i the map alpha -> s_alpha w_i on
    # {mu(alpha) = i} is a bijection onto the tail-parabolic orbit minus w_i.
    for spec in ("A3", "B3", "C3", "G2", "A4"):
        g = weyl_group(spec)
        amb = ambient(g)
        ordering = standard_ordering(g)
        assert is_economical_ordering(g, ordering)
        for pos in range(g.rank):
            i = ordering.order[pos]
            J = ordering.tail(pos)
            roots_at_i = [
                rt for rt in g.positive_roots() if mu(g, rt, ordering) == i
            ]
            omega = amb.fundamental_weights[i - 1]
            images = {amb.reflect_by_root(amb.root(rt), omega) for rt in roots_at_i}
            target = amb.orbit_vectors(i, J) - {omega}
            assert len(images) == len(roots_at_i)
            assert images == target


def test_weight_ordering_validation():
    with pytest.raises(ValueError):
        WeightOrdering((1, 1, 2))
    with pytest.raises(ValueError):
        is_economical_ordering(weyl_group("A2"), WeightOrdering((1, 2, 3)))


# ----- linearity --------------------------------------------------------------------------


def pairwise_comparable(table) -> bool:
    """Oracle for linear_order_check: every pair compared on the up-masks."""
    ups = table.up_masks()
    return all(ups[a] >> b & 1 or ups[b] >> a & 1 for a in range(len(ups)) for b in range(a))


def test_linear_order_check():
    g3 = weyl_group("A3")
    assert not linear_order_check(g3, 2)
    for n in (2, 3, 4, 5):
        assert linear_order_check(weyl_group("A", n - 1), 1)
    for spec in SMALL_GROUPS + ("A4", "B4"):
        g = weyl_group(spec)
        for i in range(1, g.rank + 1):
            assert linear_order_check(g, i) == pairwise_comparable(orbit_table(g, i))
            if is_economical_index(g, i):
                assert linear_order_check(g, i)


def test_linearity_converse_observed():
    # orbit linearity occurs exactly at economical indices: an observed
    # coincidence, verified rather than assumed
    for spec in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"):
        g = weyl_group(spec)
        for i in range(1, g.rank + 1):
            assert linear_order_check(g, i) == is_economical_index(g, i), (spec, i)


# ----- parabolic economical helper ----------------------------------------------------------


def test_parabolic_economical_matches_subgroup():
    # tail {2,3} of B3 is a B2; index 2 plays its long-root first node
    g = weyl_group("B3")
    assert is_economical_index_parabolic(g, 2, {2, 3})
    assert is_economical_index_parabolic(g, 3, {3})
    with pytest.raises(ValueError):
        is_economical_index_parabolic(g, 1, {2, 3})


@pytest.mark.parametrize("spec", [s for s in SUPPORTED_GROUPS if int(s[1:]) <= 6])
def test_parabolic_economical_index_against_the_root_scan(spec):
    # oracle: every positive root scanned for alpha_i in its support and the
    # support within J, and W_J omega_i listed by BFS; every i in J, every J
    g = weyl_group(spec)
    gens = range(1, g.rank + 1)
    for J in (frozenset(J) for k in range(1, g.rank + 1) for J in combinations(gens, k)):
        for i in J:
            count = sum(1 for rt in g.positive_roots() if i in rt.support() and rt.support() <= J)
            omega = tuple(int(j == i) for j in gens)
            size = len(orbit_bfs(omega, sorted(J), g.reflect_labels)[0])
            assert is_economical_index_parabolic(g, i, J) == (1 + count == size), (i, J)
        if len(J) == g.rank:
            assert [is_economical_index(g, i) for i in J] == [
                is_economical_index_parabolic(g, i, J) for i in J]


# ----- serialization -----------------------------------------------------------------------


def test_serialization():
    g = weyl_group("A2")
    pw = weight_from_subset(g, {1, 3})
    assert subset_of(pw) == frozenset({1, 3})
    assert weight_label(g, pw) == "p13"
    assert subset_str({1, 3}) == "13"
    assert subset_str({2, 10}) == "{2,10}"
    b = weyl_group("B2")
    pw = weight_of(b, b.identity, 2)
    assert weight_label(b, pw) == "p(2:e)"
    with pytest.raises(ValueError):
        subset_of(weight_of(b, b.identity, 1))  # e_1, an indicator vector of type B


@pytest.mark.parametrize("subset", [set(), {1, 2, 3}, {1, 2, 3, 4}])
def test_weight_from_subset_names_a_subset_of_the_wrong_size(subset):
    with pytest.raises(ValueError, match=f"subset {subset_str(subset)} is not of size"):
        weight_from_subset(weyl_group("A2"), subset)


@pytest.mark.parametrize("subset", [{0, 1}, {3, 4}, {1, 4}, {2, 0.5}])
def test_weight_from_subset_names_a_subset_outside_the_rows(subset):
    with pytest.raises(ValueError, match=f"subset {subset_str(subset)} is not within 1..3"):
        weight_from_subset(weyl_group("A2"), subset)


@pytest.mark.parametrize("subset, row", [([1, 1], 1), ([1, 1, 2], 1), ((3, 2, 3), 3)])
def test_weight_from_subset_names_a_repeated_row(subset, row):
    # a set of rows would drop the repeat and answer p1 for [1, 1]
    with pytest.raises(ValueError, match=re.escape(f"row {row} repeated in {sorted(subset)}")):
        weight_from_subset(weyl_group("A2"), subset)


def test_weight_from_subset_reads_the_row_mask_table():
    g = weyl_group("A3")
    for i in (1, 2, 3):
        table = orbit_table(g, i)
        for pw in table.weights:
            assert weight_from_subset(g, subset_of(pw)) is pw is table.by_rows[pw.rows]
    with pytest.raises(ValueError, match="B2 has no weight e_I"):
        weight_from_subset(weyl_group("B2"), {1})
    assert orbit_table(weyl_group("B2"), 1).by_rows == {}


# ----- memoized tables ------------------------------------------------------------


def test_each_orbit_table_is_built_once_per_group(monkeypatch):
    from schubcells import plucker
    from schubcells.cells import cell_description_economical
    from schubcells.patterns import generic_pattern, random_acceptable
    from schubcells.recognition import PatternOracle, recognize_general

    built = []
    init = plucker.OrbitTable.__init__

    def counting_init(self, group, level):
        built.append((group, level))
        init(self, group, level)

    monkeypatch.setattr(plucker.OrbitTable, "__init__", counting_init)
    g = WeylGroup(cartan_datum("B", 3))
    w = g.element((1, 2, 3, 2))
    cell_description_economical(g, w)
    pattern = generic_pattern(g, w)
    random_acceptable(g, w, seed=1)
    assert recognize_general(PatternOracle(pattern), g)[0] == w
    assert g.bruhat_leq(g.identity, w) and not g.bruhat_leq(w, g.identity)
    assert sorted(level for _, level in built) == [1, 2, 3]
    assert all(group is g for group, _ in built)


def test_fresh_group_gets_its_own_tables():
    from schubcells.base import weyl_base
    from schubcells.patterns import generic_pattern
    from schubcells.plucker import all_weights, orbit_table
    from schubcells.recognition import PatternOracle, recognize_general

    interned = weyl_group("B3")
    w = interned.element((1, 2, 3, 2))
    recognize_general(PatternOracle(generic_pattern(interned, w)), interned)
    tables = [orbit_table(interned, i) for i in (1, 2, 3)]
    weights = all_weights(interned)
    base = weyl_base(interned)

    fresh = WeylGroup(cartan_datum("B", 3))
    own = [orbit_table(fresh, i) for i in (1, 2, 3)]
    assert all(t.group is fresh and t not in tables for t in own)
    assert all(pw.min_rep.group is fresh for pw in all_weights(fresh))
    assert all(b.element.group is fresh for b in weyl_base(fresh))
    _, log = recognize_general(PatternOracle(generic_pattern(fresh, w)), fresh)
    assert log.count and all(pw.min_rep.group is fresh for pw in log.weights())

    assert all(orbit_table(interned, i) is t for i, t in zip((1, 2, 3), tables))
    assert all_weights(interned) is weights and weyl_base(interned) is base
    assert all(pw.min_rep.group is interned for pw in weights)


def test_orbit_table_keyword_call_reads_the_same_table():
    g = WeylGroup(cartan_datum("B", 3))
    assert orbit_table(g, level=2) is orbit_table(g, 2)
    assert orbit_table(group=g, level=3) is orbit_table(g, 3)


def test_fresh_group_is_freed_with_its_tables():
    import gc
    import weakref

    from schubcells.base import weyl_base
    from schubcells.cells import cell_description_economical
    from schubcells.patterns import VanishingPattern, generic_pattern
    from schubcells.recognition import PatternOracle, build_decision_tree, recognize_general

    def touch_every_table():
        g = WeylGroup(cartan_datum("B", 3))
        w = g.element((1, 2, 3, 2))
        pattern = generic_pattern(g, w)
        assert recognize_general(PatternOracle(pattern), g)[0] == w
        assert VanishingPattern(g, pattern.bits) == pattern  # reads all_weights
        cell_description_economical(g, w)
        assert build_decision_tree(g).depth == 9
        assert len(weyl_base(g)) == 19
        tables = (g.orbit_tables, g.all_weights, g.economical,
                  g.root_plans, g.scan_plans, g.base)
        assert all(t is not None and len(t) for t in tables)
        return weakref.ref(g)

    ref = touch_every_table()
    gc.collect()
    assert ref() is None
