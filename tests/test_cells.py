"""Cell and variety descriptions: frozen small cases, count identities,
soundness and completeness over acceptable vectors."""

import random

import pytest
from bruhat_oracle import all_elements

from schubcells.cells import (
    CellDescription,
    _economical_style_sets,
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
    weight_of,
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
        for w in all_elements(g):
            d = variety_equations(g, w)
            for v in all_elements(g):
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
    for w in all_elements(g):
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
        for w in all_elements(g):
            eqs = cell_description_general(g, w).equalities
            keys = [(ordering.position(pw.level), pw.index) for pw in eqs]
            assert keys == sorted(set(keys))


def test_general_description_identifies_cells():
    for spec in ("A2", "A3", "B2", "B3", "G2", "D4"):
        g = weyl_group(spec)
        for w in all_elements(g):
            d = cell_description_general(g, w)
            assert len(d.inequalities) == g.rank
            for v in all_elements(g):
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
        for w in all_elements(g):
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
        descriptions = {w: cell_description_economical(g, w) for w in all_elements(g)}
        for v in all_elements(g):
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


def oracle_typeA_description(g, perm):
    """The explicit loop that ``cell_description_typeA`` replaced:
    p_{w([1,i-1] + {j})} = 0 for i < j with w(i) < w(j), in (i, j) order, and
    p_{w([1,i])} != 0 when some later value drops below w(i)."""
    n = g.rank + 1
    eqs = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if perm[i - 1] < perm[j - 1]:
                I = frozenset(perm[: i - 1]) | {perm[j - 1]}
                eqs.append(weight_from_subset(g, I))
    ineqs = []
    for i in range(1, n):
        if any(perm[j - 1] < perm[i - 1] for j in range(i + 1, n + 1)):
            ineqs.append(weight_from_subset(g, frozenset(perm[:i])))
    return CellDescription(
        g.from_one_line(perm), tuple(eqs), tuple(ineqs), standard_ordering(g)
    )


def test_typeA_matches_the_explicit_loop_in_order():
    for n in range(2, 8):
        g = weyl_group("A", n - 1)
        for w in all_elements(g):
            perm = g.one_line(w)
            expected = oracle_typeA_description(g, perm)
            assert cell_description_typeA(g, w) == expected
            assert cell_description_typeA(g, perm) == expected


def test_typeA_matches_economical():
    for n in (2, 3, 4, 5):
        g = weyl_group("A", n - 1)
        for w in all_elements(g):
            da = cell_description_typeA(g, w)
            de = cell_description_economical(g, w)
            assert set(da.equalities) == set(de.equalities)
            assert set(da.inequalities) == set(de.inequalities)
            assert da.size <= n * (n - 1) // 2


def test_typeA_wrong_group():
    with pytest.raises(ValueError):
        cell_description_typeA(weyl_group("B2"), (1, 2))


# ----- type D description ------------------------------------------------------------------


def oracle_typeD_description(g, w):
    """The type D description with the bookkeeping the `cells` docstring proves
    idle: a ``seen`` set, a ``candidate != top`` test, and the candidates
    neither above nor below w omega_i kept as ``incomparable``.  Returns the
    description, the incomparable pairs and the number of times ``seen`` or
    ``candidate == top`` fired."""
    ordering = standard_ordering(g)
    eqs, ineqs = _economical_style_sets(g, w, ordering)
    r = g.rank
    seen = set(eqs)
    incomparable = []
    fired = 0
    for i in range(1, r - 2):
        table = orbit_table(g, i)
        flipped = tuple(2 if j == i - 1 else -1 if j == i else 0 for j in range(1, r + 1))
        candidate = table.weights[table.act(w.reduced, table.by_labels[flipped])]
        top = weight_of(g, w, i)
        fired += (candidate == top) + (candidate in seen)
        above = table.leq(top, candidate) and candidate != top
        below = table.leq(candidate, top)
        if above:
            if candidate not in seen:
                eqs.append(candidate)
                seen.add(candidate)
        elif not below and candidate != top:
            incomparable.append((candidate, top))
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering), incomparable, fired


def _typeD_cases():
    for spec in ("D4", "D5"):
        g = weyl_group(spec)
        yield from ((g, w) for w in all_elements(g))
    for spec in ("D6", "D7", "D8"):
        g = weyl_group(spec)
        rng = random.Random(spec)
        npos = len(g.positive_roots())
        for _ in range(2000):
            yield g, g.element([rng.randint(1, g.rank) for _ in range(rng.randint(0, 3 * npos))])


def test_typeD_matches_the_oracle_in_order():
    flagged = 0
    for g, w in _typeD_cases():
        expected, incomparable, fired = oracle_typeD_description(g, w)
        assert cell_description_typeD(g, w) == expected
        assert fired == 0
        if g.datum.name == "D4":
            flagged += len(incomparable)
    assert flagged == 48  # candidates neither above nor below w omega_i in D4


def test_typeD_counts_and_membership():
    g = weyl_group("D4")
    R = len(g.positive_roots())
    extras = 0
    for w in all_elements(g):
        d = cell_description_typeD(g, w)
        base = R - w.length
        assert base <= len(d.equalities) <= base + g.rank - 3
        extras += len(d.equalities) - base
        assert len(d.inequalities) <= min(g.rank, w.length)
    assert extras == 72  # the sign-flip equations fire on 72 elements of D4
    # exhaustive soundness/completeness on generic patterns
    for w in all_elements(g):
        d = cell_description_typeD(g, w)
        for v in all_elements(g):
            assert verify_description(d, generic_pattern(g, v)) == (v == w)


def test_typeD_acceptable_vectors():
    g = weyl_group("D4")
    descriptions = {w: cell_description_typeD(g, w) for w in all_elements(g)}
    for v in all_elements(g):
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
    for w in all_elements(g):
        line = g.one_line(w)
        d = cell_description_typeA(g, w)
        pat = vanishing_pattern(random_cell_point(line, seed=17))
        assert verify_description(d, pat)


def test_typeA_description_on_all_coordinate_flags():
    # a coordinate flag satisfies the description of w iff it lies in that cell
    from schubcells.flags import coordinate_flag, vanishing_pattern

    for n in (2, 3, 4, 5):
        g = weyl_group("A", n - 1)
        descs = {w: cell_description_typeA(g, w) for w in all_elements(g)}
        for v in all_elements(g):
            pat = vanishing_pattern(coordinate_flag(g.one_line(v)))
            for w, d in descs.items():
                assert verify_description(d, pat) == (v == w)
