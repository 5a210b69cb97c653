"""Acceptability, generic patterns, random acceptable vectors, the
degeneration poset, and the certified realizable sets."""

from fractions import Fraction
from itertools import product

import pytest
from ambient import ambient
from bruhat_oracle import all_elements, prefix_set, subset_leq
from pattern_oracle import realizable_full_patterns as oracle_realizable_full_patterns
from pattern_oracle import all_acceptable_patterns, realize, subset_pattern

from schubcells import cli, flags
from schubcells.base import base_weights
from schubcells.flags import (
    coordinate_flag,
    flag_from_columns,
    flag_relations,
    realizable_full_patterns,
    realizable_restricted_patterns,
    type_a_group,
    vanishing_pattern,
)
from schubcells.patterns import (
    VanishingPattern,
    check_acceptable,
    element_of_weights,
    generic_pattern,
    pattern_poset,
    random_acceptable,
)
from schubcells.plucker import all_weights, orbit_table, subset_of, weight_from_subset
from schubcells.weyl import weyl_group

GROUPS_RANK3 = ("A1", "A2", "A3", "B2", "B3", "G2")


def pattern_by_subsets(g, ones):
    ones = {frozenset(s) for s in ones}
    bits = tuple(
        1 if frozenset(subset_of(pw)) in ones else 0 for pw in all_weights(g)
    )
    return VanishingPattern(g, bits)


def generic_pattern_bit(w, I) -> int:
    """Type A oracle: the generic bit of the cell of w at I is 1 iff sorted(I)
    lies below sorted(w([1, |I|])) componentwise."""
    return int(subset_leq(I, prefix_set(w, len(I))))


def test_pattern_totality():
    g = weyl_group("A2")
    with pytest.raises(ValueError):
        VanishingPattern(g, (1, 0, 0))


def test_check_acceptable_generic():
    for spec in GROUPS_RANK3 + ("D4",):
        g = weyl_group(spec)
        for w in all_elements(g):
            report = check_acceptable(generic_pattern(g, w))
            assert report.accepted
            assert report.witness == w
            assert report.failure_reason is None


def test_check_acceptable_all_zero():
    g = weyl_group("A2")
    report = check_acceptable(VanishingPattern(g, (0,) * 6))
    assert not report.accepted
    assert report.failure_reason == "empty_level"
    assert report.witness is None


def test_check_acceptable_no_common_w():
    # level-1 max {2} and level-2 max {1,3} admit no common permutation
    g = weyl_group("A2")
    pat = pattern_by_subsets(g, [{2}, {1, 2}, {1, 3}])
    report = check_acceptable(pat)
    assert not report.accepted
    assert report.failure_reason == "no_common_w"


def test_check_acceptable_no_unique_max():
    # {1,4} and {2,3} are incomparable in the level-2 orbit of A3
    g = weyl_group("A3")
    pat = pattern_by_subsets(g, [{1}, {1, 4}, {2, 3}, {1, 2, 3}])
    report = check_acceptable(pat)
    assert not report.accepted
    assert report.failure_reason == "no_unique_max"


@pytest.mark.parametrize("spec", ("A3", "B3", "C3", "D4", "G2"))
def test_element_of_weights_needs_no_per_level_check(spec):
    """Of all choices of one weight per level, exactly |W| give an element,
    and that element sends each omega_i to the chosen weight (checked in the
    ambient realization), so no level can miss."""
    g = weyl_group(spec)
    amb = ambient(g)
    tables = [orbit_table(g, i) for i in range(1, g.rank + 1)]
    found = []
    for choice in product(*(table.weights for table in tables)):
        w = element_of_weights(g, choice)
        if w is None:
            continue
        found.append(w.fingerprint)
        omega = amb.fundamental_weights
        assert [amb.lookup(t, amb.act(w, omega[t.level - 1])) for t in tables] == list(choice)
        assert w.positions == [pw.index for pw in choice]
    assert len(found) == len(set(found)) == len(g)


def test_generic_pattern_extremes():
    for spec in ("A2", "B2"):
        g = weyl_group(spec)
        pat_e = generic_pattern(g, g.identity)
        for i in range(1, g.rank + 1):
            level_bits = [
                pat_e.bit(pw) for pw in all_weights(g) if pw.level == i
            ]
            assert sum(level_bits) == 1
        pat_top = generic_pattern(g, g.longest_element())
        assert all(b == 1 for b in pat_top.bits)


def test_generic_pattern_231():
    g = weyl_group("A2")
    pat = generic_pattern(g, g.from_one_line((2, 3, 1)))
    got = {frozenset(subset_of(pw)): b for pw, b in pat.as_dict().items()}
    assert got == {
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({3}): 0,
        frozenset({1, 2}): 1,
        frozenset({1, 3}): 1,
        frozenset({2, 3}): 1,
    }


def test_generic_pattern_matches_subset_criterion():
    for n in (3, 4, 5):
        g = weyl_group("A", n - 1)
        for w in all_elements(g):
            line = g.one_line(w)
            pat = generic_pattern(g, w)
            for pw in all_weights(g):
                assert pat.bit(pw) == generic_pattern_bit(line, subset_of(pw))


def test_generic_pattern_injective():
    for spec in GROUPS_RANK3 + ("D4",):
        g = weyl_group(spec)
        seen = {generic_pattern(g, w).bits for w in all_elements(g)}
        assert len(seen) == len(all_elements(g))


def test_random_acceptable():
    for spec in ("A2", "B2", "A3"):
        g = weyl_group(spec)
        for w in all_elements(g):
            for seed in range(3):
                pat = random_acceptable(g, w, seed=seed)
                report = check_acceptable(pat)
                assert report.accepted and report.witness == w
                # never exceeds the generic support
                gen = generic_pattern(g, w)
                assert all(b <= gb for b, gb in zip(pat.bits, gen.bits))


def coordinate_flag_pattern(g, w):
    """The pattern of the coordinate flag of w, read off its exact minors."""
    return vanishing_pattern(coordinate_flag(g.one_line(w)))


def test_coordinate_flag_pattern_is_the_orbit_position_pattern():
    # bit 1 exactly at each w omega_i, by orbit-table position, on S_2..S_6
    for n in range(2, 7):
        g = type_a_group(n)
        for w in all_elements(g):
            levels = (1 << orbit_table(g, i).position(w) for i in range(1, n))
            assert coordinate_flag_pattern(g, w) == VanishingPattern.from_levels(g, levels)


def test_coordinate_flag_pattern_is_extreme_acceptable():
    # all-below-zero acceptable vector = the coordinate-flag pattern
    g = weyl_group("A2")
    for w in all_elements(g):
        pat = coordinate_flag_pattern(g, w)
        report = check_acceptable(pat)
        assert report.accepted and report.witness == w
        line = g.one_line(w)
        for pw in all_weights(g):
            assert pat.bit(pw) == (prefix_set(line, pw.level) == subset_of(pw))


# ----- realizable sets ------------------------------------------------------------


def test_realizable_full_counts():
    assert len(realizable_full_patterns(2)) == 3
    assert len(realizable_full_patterns(3)) == 22
    assert len(realizable_full_patterns(4)) == 406
    for n in (2, 3, 4):
        for pat, witness, _flag in realizable_full_patterns(n):
            rep = check_acceptable(pat)
            assert rep.accepted and rep.witness == witness
    for n in (1, 5):
        with pytest.raises(ValueError, match="2..4"):
            realizable_full_patterns(n)


def test_flag_relations_are_generated_from_i_and_j():
    # (k, l) = (1, 2) at n = 3 is p1 p23 - p2 p13 + p3 p12 = 0
    assert [len(flag_relations(n)) for n in (2, 3, 4)] == [0, 1, 13]
    three_term = {
        frozenset(map(frozenset, ({j}, {1, 2, 3} - {j}))) for j in (1, 2, 3)
    }
    assert any(
        {frozenset((subset_of(a), subset_of(b))) for a, b in terms} == three_term
        for terms in flag_relations(3)
    )
    for n in (2, 3, 4):
        seen = set()
        for terms in flag_relations(n):
            # I is what the first factors share and J the union of the second
            firsts = [subset_of(a) for a, _b in terms]
            seconds = [subset_of(b) for _a, b in terms]
            I, J = frozenset.intersection(*firsts), frozenset.union(*seconds)
            assert len(terms) >= 2 and len(I) + 2 <= len(J)
            # k = l with I within J would be p_a p_b - p_b p_a
            assert not (len(I) + 2 == len(J) and I < J)
            assert sorted(map(sorted, zip(firsts, seconds))) == sorted(
                sorted((I | {j}, J - {j})) for j in J - I
            )
            assert (I, J) not in seen
            seen.add((I, J))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_every_certificate_realizes_its_pattern(n):
    """Each certificate's minors vanish exactly where its pattern is 0, read
    both through ``vanishing_pattern`` and off the minor table by subset."""
    found = realizable_full_patterns(n)
    assert len({pat for pat, _w, _flag in found}) == len(found)
    for pat, _witness, flag in found:
        assert vanishing_pattern(flag) == pat
        assert subset_pattern(flag) == {subset_of(pw): bit for pw, bit in pat.as_dict().items()}
        assert {type(e) for row in flag.matrix for e in row} <= {int}


def test_generic_and_coordinate_patterns_of_s4_are_realizable():
    g = type_a_group(4)
    found = {pat for pat, _w, _flag in realizable_full_patterns(4)}
    for w in all_elements(g):
        assert generic_pattern(g, w) in found
        assert coordinate_flag_pattern(g, w) in found


def test_certification_fails_loudly_when_the_draw_budget_runs_out(monkeypatch):
    realizable_full_patterns.cache_clear()
    monkeypatch.setattr(flags, "MAX_CERTIFY_DRAWS", 5)
    try:
        with pytest.raises(RuntimeError, match=r"unrealized after 5 draws"):
            realizable_full_patterns(3)
    finally:
        realizable_full_patterns.cache_clear()


def test_certification_fails_loudly_on_a_pattern_outside_the_candidates(monkeypatch):
    # a one-term relation p3 p12 = 0 drops the open cell's patterns, so a
    # draw meets one of them before the rest are certified
    g = type_a_group(3)
    extra = ((weight_from_subset(g, {3}), weight_from_subset(g, {1, 2})),)
    every = flags.flag_relations

    def with_one_more(n):
        return every(n) + (extra,) if n == 3 else every(n)

    realizable_full_patterns.cache_clear()
    monkeypatch.setattr(flags, "flag_relations", with_one_more)
    try:
        with pytest.raises(RuntimeError, match=r"which is no candidate"):
            realizable_full_patterns(3)
    finally:
        realizable_full_patterns.cache_clear()


@pytest.mark.parametrize("n", (2, 3, 4))
def test_realizable_candidates_match_the_acceptable_vector_filter(n):
    """The level-by-level search finds, in the same order, the acceptable
    vectors of the W enumeration on which no relation has one nonzero term."""
    relations = flag_relations(n)
    expected = [
        (pat, w) for pat, w in all_acceptable_patterns(type_a_group(n))
        if all(sum(pat.bit(a) & pat.bit(b) for a, b in terms) != 1 for terms in relations)
    ]
    assert [(pat, w) for pat, w, _flag in realizable_full_patterns(n)] == expected


def oracle_realize(n, by_subset):
    """A hand-rolled [-2, 2]^n search for a realizing flag: Fraction columns,
    level-2 minors and the determinant expanded by hand."""
    c1 = tuple(Fraction(by_subset[frozenset({j})]) for j in range(1, n + 1))
    if n == 2:
        for c2 in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
            if c1[0] * c2[1] - c1[1] * c2[0] != 0:
                return flag_from_columns((c1, c2))
        return None
    level2 = [I for I in by_subset if len(I) == 2]
    for c2 in product(range(-2, 3), repeat=3):
        if not any(c2):
            continue
        c2f = tuple(Fraction(x) for x in c2)
        ok = True
        for I in level2:
            a, b = sorted(I)
            m = c1[a - 1] * c2f[b - 1] - c1[b - 1] * c2f[a - 1]
            if (m != 0) != bool(by_subset[I]):
                ok = False
                break
        if not ok:
            continue
        for k in range(3):
            c3 = tuple(Fraction(1 if j == k else 0) for j in range(3))
            det = (
                c1[0] * (c2f[1] * c3[2] - c2f[2] * c3[1])
                - c1[1] * (c2f[0] * c3[2] - c2f[2] * c3[0])
                + c1[2] * (c2f[0] * c3[1] - c2f[1] * c3[0])
            )
            if det != 0:
                return flag_from_columns((c1, c2f, c3))
    return None


@pytest.mark.parametrize("n", (2, 3))
def test_realize_matches_the_hand_rolled_oracle(n):
    """On every bit vector, the two hand-rolled searches find the same flag
    (or both none), and they find one exactly when the vector is in the
    certified set; the certificate's subset pattern is the vector."""
    def matrix(flag):
        return None if flag is None else flag.matrix

    g = type_a_group(n)
    certified = {pat: flag for pat, _witness, flag in realizable_full_patterns(n)}
    subsets = [subset_of(pw) for pw in all_weights(g)]
    for bits in product((0, 1), repeat=len(subsets)):
        by_subset = dict(zip(subsets, bits))
        oracle = oracle_realize(n, by_subset)
        assert matrix(realize(n, by_subset)) == matrix(oracle)
        certificate = certified.get(VanishingPattern(g, bits))
        assert (oracle is None) == (certificate is None)
        if certificate is not None:
            assert subset_pattern(certificate) == subset_pattern(oracle) == by_subset


@pytest.mark.parametrize("n", (2, 3))
def test_realizable_full_patterns_match_the_flat_vector_filter(n):
    """The generated relations keep the same (pattern, witness) pairs as
    filtering all 2^N flat bit vectors by the hand-written three-term
    relation and realizing each survivor by search."""
    def pairs(found):
        return {(pat.levels, witness) for pat, witness, _flag in found}

    found = realizable_full_patterns(n)
    assert len(pairs(found)) == len(found)
    assert pairs(found) == pairs(oracle_realizable_full_patterns(n))


def test_realizable_restricted_eleven():
    g = type_a_group(3)
    coords = [weight_from_subset(g, s) for s in ({2}, {3}, {1, 3}, {2, 3})]
    rs = realizable_restricted_patterns(3, coords)
    assert len(rs) == 11
    groups = {}
    for key, ws in rs.items():
        assert len(ws) == 1
        groups[ws[0]] = groups.get(ws[0], 0) + 1
    assert groups == {
        (1, 2, 3): 1,
        (2, 1, 3): 1,
        (1, 3, 2): 1,
        (2, 3, 1): 2,
        (3, 1, 2): 2,
        (3, 2, 1): 4,
    }
    # restriction of the 213 coordinate flag is 1000
    pi = coordinate_flag_pattern(g, g.from_one_line((2, 1, 3)))
    assert pi.restrict(coords) == (1, 0, 0, 0)
    assert (1, 1, 1, 1) in rs
    # the two patterns sharing the 231 cell are 1001 and 1011
    assert rs[(1, 0, 0, 1)] == ((2, 3, 1),)
    assert rs[(1, 0, 1, 1)] == ((2, 3, 1),)


def test_realizable_restricted_n4():
    g = type_a_group(4)
    coords = base_weights(g)
    rs = realizable_restricted_patterns(4, coords)
    assert len(rs) == 230
    # the set the package once sampled, the generic and coordinate-flag
    # patterns of S_4, lies inside the exact one, with its cells among the labels
    sampled: dict = {}
    for w in all_elements(g):
        for pat in (generic_pattern(g, w), coordinate_flag_pattern(g, w)):
            sampled.setdefault(pat.restrict(coords), set()).add(g.one_line(w))
    assert len(sampled) == 42
    for key, ws in sampled.items():
        assert ws <= set(rs[key])
    two = [weight_from_subset(g, {2}), weight_from_subset(g, {3, 4})]
    assert set(realizable_restricted_patterns(4, two)) == set(product((0, 1), repeat=2))
    with pytest.raises(ValueError):
        realizable_restricted_patterns(5, two)


def test_pattern_poset_structure():
    g = type_a_group(3)
    coords = [weight_from_subset(g, s) for s in ({2}, {3}, {1, 3}, {2, 3})]
    rs = realizable_restricted_patterns(3, coords)
    labels = {k: tuple("".join(map(str, w)) for w in ws) for k, ws in rs.items()}
    poset = pattern_poset(labels)
    assert len(poset.vertices) == 11
    assert poset.vertices[0] == (0, 0, 0, 0)
    assert poset.vertices[-1] == (1, 1, 1, 1)
    assert poset.labels[(0, 0, 0, 0)] == ("123",)
    assert poset.labels[(1, 1, 1, 1)] == ("321",)
    # covers go strictly upward in weight and never skip a middle vertex
    def dominated(u, v):
        return all(a <= b for a, b in zip(u, v))

    vset = set(poset.vertices)
    for lo, hi in poset.covers:
        assert dominated(lo, hi) and lo != hi
        assert not any(
            z != lo and z != hi and dominated(lo, z) and dominated(z, hi)
            for z in vset
        )
    dot = poset.to_dot()
    assert dot.startswith("digraph") and '"0000"' in dot
    # the JSON payload of the CLI command over the same coordinates
    payload, _ = cli._cmd_patterns_poset(cli.make_parser().parse_args(
        ["patterns-poset", "--group", "A2", "--coords", "p2,p3,p13,p23", "--format", "json"]))
    assert len(payload["vertices"]) == 11
    assert len(payload["edges"]) == len(poset.covers)
    assert payload["vertices"][0] == {"pattern": "0000", "cell": ["123"]}
