"""Poset bases, Weyl group bases, bigrassmannian permutations, and
feedback-free generic recognition."""

import random
from itertools import combinations
from math import comb

import pytest
from ambient import closed_form_order
from bruhat_oracle import (
    FinitePoset,
    bruhat_poset,
    poset_base,
    prefix_set,
    supremum,
    supremum_idx,
)
from proposition_checks import embedding_minimality_check, minimality_check

from schubcells.base import (
    BaseElement,
    base_weights,
    bigrassmannian_typeA,
    generic_recognize_from_base,
    poset_base_indices,
    weyl_base,
)
from schubcells.cartan import cartan_datum
from schubcells.patterns import generic_pattern
from schubcells.plucker import orbit_table, subset_of
from schubcells.weyl import WeylGroup, weyl_group

RANK4_GROUPS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "G2", "D4")
ORACLE_GROUPS = tuple(
    f"{t}{r}" for t, ranks in (("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
                               ("D", range(4, 9)), ("G", (2,)))
    for r in ranks if closed_form_order(t, r) <= 4000
)


def chain_poset(k):
    return FinitePoset.from_leq(list(range(k)), lambda a, b: a <= b)


def boolean_lattice(m):
    elems = [frozenset(s) for r in range(m + 1) for s in combinations(range(m), r)]
    return FinitePoset.from_leq(elems, lambda a, b: a <= b)


def brute_force_base(P):
    """Independent oracle: literal definition, searching all subsets of the
    strict lower set of each element."""
    n = len(P)
    out = []
    for a in range(n):
        lower = [x for x in range(n) if x != a and P.leq_idx(x, a)]
        expressible = False
        for r in range(len(lower) + 1):
            for Q in combinations(lower, r):
                if supremum_idx(P, Q) == a:
                    expressible = True
                    break
            if expressible:
                break
        if not expressible:
            out.append(a)
    return out


# ----- FinitePoset ----------------------------------------------------------------


def test_poset_validation():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [0b11, 0b11])  # antisymmetry violated
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [0b01, 0b10])  # antichain: two minima
    with pytest.raises(ValueError):
        FinitePoset.from_leq([0, 1], lambda a, b: a == b)  # two minima
    with pytest.raises(ValueError):
        # 0 < 1 < 2 without 0 < 2: not transitive
        FinitePoset([0, 1, 2], [0b011, 0b110, 0b100])


def test_supremum():
    P = boolean_lattice(2)
    atoms = [x for x in P.elements if len(x) == 1]
    assert supremum(P, atoms) == frozenset({0, 1})
    assert supremum(P, [atoms[0]]) == atoms[0]
    assert supremum(P, []) == frozenset()
    g = weyl_group("A2")
    B = bruhat_poset(g)
    assert supremum(B, []) == g.identity
    assert supremum(B, [g.simple(1), g.simple(2)]) is None


def test_poset_base_chains_and_lattices():
    for k in (2, 3, 5, 7):
        P = chain_poset(k)
        assert poset_base(P) == list(range(1, k))
        assert poset_base_indices(P.up, P.down) == brute_force_base(P)
    for m in (2, 3):
        P = boolean_lattice(m)
        got = poset_base(P)
        assert sorted(map(sorted, got)) == [[i] for i in range(m)]
        assert poset_base_indices(P.up, P.down) == brute_force_base(P)


def test_poset_base_small_weyl_vs_brute_force():
    for spec in ("A2", "B2"):
        g = weyl_group(spec)
        P = bruhat_poset(g)
        assert poset_base_indices(P.up, P.down) == brute_force_base(P)


def test_poset_base_S3():
    g = weyl_group("A2")
    got = {g.one_line(b.element) for b in weyl_base(g)}
    assert got == {(2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2)}


def test_base_embedding_property():
    # a <= b iff base-lower-set(a) is contained in base-lower-set(b)
    posets = [chain_poset(6), boolean_lattice(3)]
    posets += [bruhat_poset(weyl_group(s)) for s in ("A2", "A3", "B2", "B3", "G2", "D4")]
    for P in posets:
        base = poset_base_indices(P.up, P.down)
        sigs = []
        for x in range(len(P)):
            sigs.append(frozenset(b for b in base if P.leq_idx(b, x)))
        for a in range(len(P)):
            for b in range(len(P)):
                assert P.leq_idx(a, b) == (sigs[a] <= sigs[b])


# ----- Weyl bases --------------------------------------------------------------------


def test_weyl_base_counts_typeA():
    for n in (3, 4, 5):
        g = weyl_group("A", n - 1)
        assert len(weyl_base(g)) == comb(n + 1, 3)


def test_weyl_base_frozen_sizes():
    # frozen outputs of the definitional computation
    assert len(weyl_base(weyl_group("B2"))) == 6
    assert len(weyl_base(weyl_group("B3"))) == 19
    assert len(weyl_base(weyl_group("G2"))) == 10
    assert len(weyl_base(weyl_group("D4"))) == 29


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_weyl_base_is_the_base_of_the_bruhat_poset(spec):
    # the union of the orbit-poset bases against the base of the order on W
    g = WeylGroup(cartan_datum(spec[0], int(spec[1:])))
    P = bruhat_poset(g)
    expect = tuple(
        BaseElement(w, min(g.left_descents(w)), min(g.right_descents(w)))
        for w in (P.elements[k] for k in poset_base_indices(P.up, P.down))
    )
    assert [b.element.word for b in expect] == sorted(
        (b.element.word for b in expect), key=lambda word: (len(word), word)
    )
    assert weyl_base(g) == expect


def orbit_closure_up_masks(group, table):
    """Independent oracle for the order on an orbit W omega_i: the
    transitive closure of lambda < s_beta lambda over positive roots beta
    with <lambda, beta^vee> > 0, computed from labels and roots only."""
    succ = [
        {table.by_labels[group.reflect_root(rt, pw.labels)] for rt in group.positive_roots()
         if sum(x * f for x, f in zip(pw.labels, rt.coroot)) > 0}
        for pw in table.weights
    ]
    up = [0] * len(table)
    for k in reversed(range(len(table))):
        assert all(j > k for j in succ[k])  # the table's order extends the relation
        up[k] = 1 << k
        for j in succ[k]:
            up[k] |= up[j]
    return up


def transpose(masks):
    return [sum(1 << j for j, m in enumerate(masks) if m >> k & 1) for k in range(len(masks))]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_orbit_down_masks_are_the_transposed_up_masks(spec):
    g = WeylGroup(cartan_datum(spec[0], int(spec[1:])))
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        down = table.down_masks()
        assert down == transpose(table.up_masks()), (spec, i)
        assert down == transpose(orbit_closure_up_masks(g, table)), (spec, i)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_orbit_masks_form_a_valid_poset(spec):
    # weyl_base takes the engine's masks without validation; FinitePoset
    # validates them here: reflexive, antisymmetric, transitive, bounded
    g = WeylGroup(cartan_datum(spec[0], int(spec[1:])))
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        P = FinitePoset(table.weights, table.up_masks())
        assert P.down == table.down_masks(), (spec, i)
        assert (P.minimum, P.maximum) == (0, len(table) - 1)


@pytest.mark.parametrize("spec, size", [("B8", 344), ("D8", 315), ("A6", comb(8, 3)),
                                        ("A7", comb(9, 3)), ("A8", comb(10, 3))])
def test_weyl_base_never_enumerates_the_group(spec, size):
    g = WeylGroup(cartan_datum(spec[0], int(spec[1:])))
    assert len(weyl_base(g)) == len(set(base_weights(g))) == size
    assert g._elements is None


def test_generic_recognize_from_base_without_enumeration():
    g = WeylGroup(cartan_datum("B", 6))
    bw = base_weights(g)
    rng = random.Random(13)
    for _ in range(20):
        w = g.element(tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 40))))
        pat = generic_pattern(g, w)
        assert generic_recognize_from_base(g, {pw: pat.bit(pw) for pw in bw}) == w
    assert g._elements is None


@pytest.mark.parametrize("spec", RANK4_GROUPS)
def test_weyl_base_unique_descents(spec):
    g = weyl_group(spec)
    for b in weyl_base(g):
        assert g.left_descents(b.element) == frozenset({b.left_descent})
        assert g.right_descents(b.element) == frozenset({b.right_descent})


def test_bigrassmannian_typeA():
    rows = bigrassmannian_typeA(3)
    assert len(rows) == comb(4, 3) == 4
    by_triple = {t: (p, s) for t, p, s in rows}
    assert by_triple[(0, 1, 2)] == ((2, 1, 3), frozenset({2}))
    assert {s for _, _, s in rows} == {
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    for n in (2, 3, 4, 5, 6):
        g = weyl_group("A", n - 1)
        got = {g.one_line(b.element) for b in weyl_base(g)}
        assert got == {p for _, p, s in bigrassmannian_typeA(n)}
        # the coordinate subset is the prefix at the unique descent
        for t, p, s in bigrassmannian_typeA(n):
            d = [i for i in range(1, n) if p[i - 1] > p[i]]
            assert len(d) == 1
            assert prefix_set(p, d[0]) == s


def test_base_weights():
    g = weyl_group("A2")
    got = {frozenset(subset_of(pw)) for pw in base_weights(g)}
    assert got == {
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    for spec in ("A3", "B3", "G2"):
        gg = weyl_group(spec)
        weights = base_weights(gg)
        assert len(set(weights)) == len(weyl_base(gg))
    assert len(base_weights(weyl_group("A3"))) == 10


# ----- generic recognition from the base ------------------------------------------------


@pytest.mark.parametrize("spec", ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4"))
def test_generic_recognize_from_base_inverts(spec):
    g = weyl_group(spec)
    bw = base_weights(g)
    for w in g.elements():
        pat = generic_pattern(g, w)
        bits = {pw: pat.bit(pw) for pw in bw}
        assert generic_recognize_from_base(g, bits) == w


def test_generic_recognize_all_ones_and_none():
    g = weyl_group("A2")
    bw = base_weights(g)
    assert generic_recognize_from_base(g, {pw: 1 for pw in bw}) == g.longest_element()
    by_subset = {frozenset(subset_of(pw)): pw for pw in bw}
    bits = {
        by_subset[frozenset({2})]: 1,
        by_subset[frozenset({3})]: 0,
        by_subset[frozenset({1, 3})]: 1,
        by_subset[frozenset({2, 3})]: 0,
    }
    assert generic_recognize_from_base(g, bits) is None
    with pytest.raises(ValueError):
        generic_recognize_from_base(g, {})


def test_minimality():
    assert minimality_check(weyl_group("A1"))
    assert minimality_check(weyl_group("A2"))
    assert minimality_check(weyl_group("A3"))
    # mere separation survives a deletion already in B2; the order-embedding
    # property is what the base is minimal for
    assert not minimality_check(weyl_group("B2"))
    for spec in ("A2", "A3", "B2", "B3", "G2", "D4"):
        assert embedding_minimality_check(weyl_group(spec))
