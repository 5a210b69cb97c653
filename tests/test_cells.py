"""Cell and variety descriptions: frozen small cases, count identities,
soundness and completeness over acceptable vectors."""

import pytest

from schubcells.cells import (
    CellDescription,
    cell_description_economical,
    cell_description_general,
    cell_description_typeA,
    cell_description_typeD,
    variety_equations,
    verify_description,
)
from schubcells.patterns import generic_pattern, random_acceptable
from schubcells.plucker import (
    WeightOrdering,
    orbit_table,
    standard_ordering,
    subset_of,
    weight_from_subset,
    weight_label,
)
from schubcells.weyl import weyl_group

ECON_GROUPS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


def subsets_of(pws):
    return {frozenset(subset_of(pw)) for pw in pws}


# ----- variety equations ----------------------------------------------------------


def test_variety_equations_examples():
    g = weyl_group("A2")
    assert variety_equations(g, g.longest_element()).equalities == ()
    d = variety_equations(g, g.from_one_line((2, 1, 3)))
    assert subsets_of(d.equalities) == {
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    d = variety_equations(g, g.identity)
    assert subsets_of(d.equalities) == {
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }


def test_variety_equations_cut_out_the_order_ideal():
    for spec in ("A3", "B3", "G2"):
        g = weyl_group(spec)
        for w in g.elements():
            d = variety_equations(g, w)
            for v in g.elements():
                ok = verify_description(d, generic_pattern(g, v))
                assert ok == g.bruhat_leq(v, w)


def oracle_variety_equations(g, w):
    """The per-level loop that ``variety_equations`` replaced: each orbit
    weight whose up-mask misses w omega_i, level by level."""
    eqs = []
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        jw = table.position(w)
        ups = table.up_masks()
        eqs.extend(pw for k, pw in enumerate(table.weights) if not ups[k] >> jw & 1)
    return tuple(eqs)


@pytest.mark.parametrize(
    "spec", ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
)
def test_variety_equations_match_the_per_level_oracle(spec):
    g = weyl_group(spec)
    for w in g.elements():
        assert variety_equations(g, w).equalities == oracle_variety_equations(g, w)


# ----- general description -----------------------------------------------------------


def test_general_description_A2():
    g = weyl_group("A2")
    d = cell_description_general(g, g.identity)
    assert subsets_of(d.equalities) == {
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
    }
    assert subsets_of(d.inequalities) == {frozenset({1}), frozenset({1, 2})}
    d = cell_description_general(g, g.longest_element())
    assert d.equalities == ()
    assert subsets_of(d.inequalities) == {frozenset({3}), frozenset({2, 3})}


def test_general_description_order_is_pinned():
    # level by level in the ordering, orbit-table order within a level
    g = weyl_group("A3")
    d = cell_description_general(g, g.identity)
    assert [weight_label(g, pw) for pw in d.equalities] == [
        "p2", "p3", "p4", "p13", "p14", "p124",
    ]
    d = cell_description_general(g, g.from_one_line((2, 1, 4, 3)))
    assert [weight_label(g, pw) for pw in d.equalities] == ["p3", "p4", "p23", "p24"]
    g = weyl_group("B3")
    d = cell_description_general(g, g.element((2,)))
    assert [weight_label(g, pw) for pw in d.equalities] == [
        "p(1:s1)", "p(1:s2.s1)", "p(1:s3.s2.s1)", "p(1:s2.s3.s2.s1)",
        "p(1:s1.s2.s3.s2.s1)", "p(2:s3.s2)", "p(2:s2.s3.s2)", "p(3:s2.s3)",
    ]
    for spec in ("B3", "D4", "G2"):
        g = weyl_group(spec)
        ordering = standard_ordering(g)
        for w in g.elements():
            eqs = cell_description_general(g, w).equalities
            keys = [(ordering.position(pw.level), pw.index) for pw in eqs]
            assert keys == sorted(set(keys))


def test_general_description_identifies_cells():
    for spec in ("A2", "A3", "B2", "B3", "G2", "D4"):
        g = weyl_group(spec)
        for w in g.elements():
            d = cell_description_general(g, w)
            assert len(d.inequalities) == g.rank
            for v in g.elements():
                assert verify_description(d, generic_pattern(g, v)) == (v == w)


# ----- economical description -----------------------------------------------------------


def test_economical_A2_rows():
    g = weyl_group("A2")
    d = cell_description_economical(g, g.from_one_line((2, 1, 3)))
    assert subsets_of(d.equalities) == {frozenset({3}), frozenset({2, 3})}
    assert subsets_of(d.inequalities) == {frozenset({2})}
    d = cell_description_economical(g, g.longest_element())
    assert d.equalities == ()
    assert subsets_of(d.inequalities) == {frozenset({3}), frozenset({2, 3})}


def test_economical_counts():
    for spec in ECON_GROUPS:
        g = weyl_group(spec)
        R = len(g.positive_roots())
        for w in g.elements():
            d = cell_description_economical(g, w)
            assert len(d.equalities) == R - w.length
            assert len(d.inequalities) <= min(g.rank, w.length)
            assert len(set(d.equalities)) == len(d.equalities)


def test_economical_requires_economical_ordering():
    g = weyl_group("D4")
    with pytest.raises(ValueError):
        cell_description_economical(g, g.identity)
    g3 = weyl_group("A3")
    with pytest.raises(ValueError):
        cell_description_economical(g3, g3.identity, WeightOrdering((2, 1, 3)))


def test_economical_soundness_completeness_acceptable():
    for spec in ("A2", "A3", "B2", "B3", "C3", "G2"):
        g = weyl_group(spec)
        descriptions = {w: cell_description_economical(g, w) for w in g.elements()}
        for v in g.elements():
            pats = [generic_pattern(g, v)] + [
                random_acceptable(g, v, seed=s) for s in range(3)
            ]
            for pat in pats:
                for w, d in descriptions.items():
                    assert verify_description(d, pat) == (v == w)


# ----- type A description ------------------------------------------------------------------


def test_typeA_rows():
    g = weyl_group("A2")
    d = cell_description_typeA(g, (1, 3, 2))
    assert subsets_of(d.equalities) == {frozenset({2}), frozenset({3})}
    assert subsets_of(d.inequalities) == {frozenset({1, 3})}
    d = cell_description_typeA(g, (3, 1, 2))
    assert subsets_of(d.equalities) == {frozenset({2, 3})}
    assert subsets_of(d.inequalities) == {frozenset({3})}


def test_typeA_matches_economical():
    for n in (2, 3, 4, 5):
        g = weyl_group("A", n - 1)
        for w in g.elements():
            da = cell_description_typeA(g, w)
            de = cell_description_economical(g, w)
            assert set(da.equalities) == set(de.equalities)
            assert set(da.inequalities) == set(de.inequalities)
            assert da.size <= n * (n - 1) // 2


def test_typeA_wrong_group():
    with pytest.raises(ValueError):
        cell_description_typeA(weyl_group("B2"), (1, 2))


# ----- type D description ------------------------------------------------------------------


def test_typeD_counts_and_membership():
    g = weyl_group("D4")
    R = len(g.positive_roots())
    extras = 0
    flagged = 0
    for w in g.elements():
        d = cell_description_typeD(g, w)
        base = R - w.length
        assert base <= len(d.equalities) <= base + g.rank - 3
        extras += len(d.equalities) - base
        assert len(d.inequalities) <= min(g.rank, w.length)
        flagged += len(d.incomparable)
        for cand, top in d.incomparable:
            assert cand.level == top.level
    assert extras == 72  # the sign-flip equations fire on 72 elements of D4
    assert flagged == 48  # and are undecided (incomparable) on 48
    # exhaustive soundness/completeness on generic patterns
    for w in g.elements():
        d = cell_description_typeD(g, w)
        for v in g.elements():
            assert verify_description(d, generic_pattern(g, v)) == (v == w)


def test_typeD_acceptable_vectors():
    g = weyl_group("D4")
    descriptions = {w: cell_description_typeD(g, w) for w in g.elements()}
    for v in g.elements():
        for seed in (0, 1):
            pat = random_acceptable(g, v, seed=seed)
            for w, d in descriptions.items():
                assert verify_description(d, pat) == (v == w)


def test_typeD_wrong_type():
    with pytest.raises(ValueError):
        cell_description_typeD(weyl_group("A3"), weyl_group("A3").identity)


# ----- invariants of the description record ----------------------------------------------------


def test_description_invariants():
    g = weyl_group("A2")
    w = g.from_one_line((2, 1, 3))
    pw2 = weight_from_subset(g, {2})
    pw3 = weight_from_subset(g, {3})
    with pytest.raises(ValueError):
        CellDescription(w, (pw3,), (pw3,), standard_ordering(g))
    with pytest.raises(ValueError):
        CellDescription(w, (pw2,), (), standard_ordering(g))  # w omega_1 = {2}


def test_verify_description_on_sampled_flags():
    from schubcells.flags import random_cell_point, vanishing_pattern

    g = weyl_group("A3")
    for w in g.elements():
        line = g.one_line(w)
        d = cell_description_typeA(g, w)
        pat = vanishing_pattern(random_cell_point(line, seed=17), g)
        assert verify_description(d, pat)


def test_typeA_description_on_all_coordinate_flags():
    # a coordinate flag satisfies the description of w iff it lies in that cell
    from schubcells.flags import coordinate_flag, vanishing_pattern

    for n in (2, 3, 4, 5):
        g = weyl_group("A", n - 1)
        descs = {w: cell_description_typeA(g, w) for w in g.elements()}
        for v in g.elements():
            pat = vanishing_pattern(coordinate_flag(g.one_line(v)), g)
            for w, d in descs.items():
                assert verify_description(d, pat) == (v == w)
