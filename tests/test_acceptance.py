"""Acceptance suite: ten end-to-end criteria, each timed against its stated
budget and reported with one pass line.

Frozen expectations: the six A2 cell descriptions (both the formula outputs
and the equivalent hand-minimized variants), the 0/1/* grid over the six A2
coordinates, the realizable pattern counts and groupings, and the small
bound values.  Where a criterion admits two readings (see the project notes)
the stronger testable rendering is used: exact frozen sets plus semantic
equivalence over the certified realizable patterns.
"""

import time
from fractions import Fraction
from math import comb

from bruhat_oracle import all_elements, ehresmann_leq
from proposition_checks import chain_corollary, minimality_check
from witness_oracle import witness_case_count, witness_prefix_counts

from schubcells.base import (
    base_weights,
    bigrassmannian_typeA,
    generic_recognize_from_base,
    weyl_base,
)
from schubcells.bounds import (
    construct_witness_family,
    feedback_free_min_set,
    minimum_defining_hitting_set,
    variety_equation_count,
)
from schubcells.cells import (
    cell_description_economical,
    cell_description_typeA,
    cell_description_typeD,
    verify_description,
)
from schubcells.flags import (
    coordinate_flag,
    random_cell_point,
    realizable_full_patterns,
    realizable_restricted_patterns,
    type_a_group,
    vanishing_pattern,
)
from schubcells.patterns import generic_pattern, random_acceptable
from schubcells.plucker import (
    is_economical_index,
    subset_of,
    weight_from_subset,
)
from schubcells.recognition import (
    FlagOracle,
    PatternOracle,
    build_decision_tree,
    recognize_general,
    recognize_typeA,
)
from schubcells.weyl import weyl_group


def _report(number, budget, started, detail):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {budget}s) {detail}")


A2_CELLS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1))

# formula outputs of the explicit type A description
A2_FORMULA = {
    (1, 2, 3): ({"2", "3", "13"}, set()),
    (2, 1, 3): ({"3", "23"}, {"2"}),
    (1, 3, 2): ({"2", "3"}, {"13"}),
    (2, 3, 1): ({"3"}, {"2", "23"}),
    (3, 1, 2): ({"23"}, {"3"}),
    (3, 2, 1): (set(), {"3", "23"}),
}

# equivalent hand-minimized descriptions (minimal variety equations plus
# the cutting inequalities)
A2_TABLE = {
    (1, 2, 3): ({"2", "3", "13"}, set()),
    (2, 1, 3): ({"13", "23"}, {"2"}),
    (1, 3, 2): ({"2", "3"}, {"13"}),
    (2, 3, 1): ({"3"}, {"23"}),
    (3, 1, 2): ({"23"}, {"3"}),
    (3, 2, 1): (set(), {"3", "23"}),
}

# 0/1/* grid over (p1, p2, p3, p12, p13, p23)
A2_GRID = {
    (1, 2, 3): "100100",
    (2, 1, 3): "*10100",
    (1, 3, 2): "100*10",
    (2, 3, 1): "*10**1",
    (3, 1, 2): "**1*10",
    (3, 2, 1): "**1**1",
}

A2_COORD_ORDER = ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3})


def _names(g, pws):
    from schubcells.plucker import subset_str

    return {subset_str(subset_of(pw)) for pw in pws}


def test_criterion_1_a2_cell_descriptions():
    started = time.monotonic()
    g = type_a_group(3)
    coords = [weight_from_subset(g, s) for s in A2_COORD_ORDER]
    realizable = realizable_full_patterns(3)
    for line in A2_CELLS:
        w = g.from_one_line(line)
        desc = cell_description_typeA(g, line)
        zeros, nonzeros = _names(g, desc.equalities), _names(g, desc.inequalities)
        assert (zeros, nonzeros) == A2_FORMULA[line]
        assert desc.size <= 3
        table_zero, table_nonzero = A2_TABLE[line]
        assert len(table_zero) + len(table_nonzero) <= 3
        # the formula description and the table description agree with the
        # cell decomposition on every realizable pattern
        tz = [weight_from_subset(g, frozenset(map(int, s))) for s in table_zero]
        tn = [weight_from_subset(g, frozenset(map(int, s))) for s in table_nonzero]
        for pat, witness, _flag in realizable:
            in_cell = witness == w
            assert verify_description(desc, pat) == in_cell
            table_ok = all(pat.bit(p) == 0 for p in tz) and all(
                pat.bit(p) == 1 for p in tn
            )
            assert table_ok == in_cell
        # 0/1/* semantics on 100 random cell points plus the coordinate flag
        samples = [
            vanishing_pattern(random_cell_point(line, seed=s)) for s in range(100)
        ]
        pi = vanishing_pattern(coordinate_flag(line))
        for pw, mark in zip(coords, A2_GRID[line]):
            bits = {pat.bit(pw) for pat in samples}
            if mark == "0":
                assert bits == {0} and pi.bit(pw) == 0
            elif mark == "1":
                assert bits == {1} and pi.bit(pw) == 1
            else:
                assert 1 in bits and pi.bit(pw) == 0
    _report(1, 1.0, started, "six A2 cells, <=3 constraints, 0/1/* on 600 samples")


def test_criterion_2_pattern_poset():
    started = time.monotonic()
    g = type_a_group(3)
    coords = [weight_from_subset(g, s) for s in ({2}, {3}, {1, 3}, {2, 3})]
    rs = realizable_restricted_patterns(3, coords)
    assert len(rs) == 11
    groups: dict = {}
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
    _report(2, 10.0, started, "11 patterns, groups (1,1,1,2,2,4)")


def test_criterion_3_decision_tree():
    started = time.monotonic()
    g = weyl_group("A2")
    optimal = build_decision_tree(g, "optimal")
    assert optimal.depth == 3
    algorithmic = build_decision_tree(g, "algorithmic")
    assert subset_of(algorithmic.root.weight) == frozenset({3})
    _report(3, 5.0, started, "optimal depth 3, algorithmic root p3")


def test_criterion_4_query_bound():
    started = time.monotonic()
    for n in range(2, 7):
        g = type_a_group(n)
        cap = comb(n, 2)
        for w in all_elements(g):
            line = g.one_line(w)
            for oracle in (
                PatternOracle(generic_pattern(g, w)),
                FlagOracle(coordinate_flag(line)),
            ):
                got, log = recognize_typeA(oracle, n)
                assert got == line
                assert log.count <= cap
    _report(4, 60.0, started, "<= C(n,2) queries on 2 x n! oracles, n <= 6")


def test_criterion_5_economical_classification():
    started = time.monotonic()

    def expected(letter, rank, i):
        if rank <= 2:
            return True
        if letter == "A":
            return i in (1, rank)
        if letter in ("B", "C"):
            return i == 1
        return False  # D

    checked = 0
    for letter, ranks in (
        ("A", range(1, 7)),
        ("B", range(2, 7)),
        ("C", range(2, 7)),
        ("D", range(4, 7)),
        ("G", (2,)),
    ):
        for rank in ranks:
            g = weyl_group(letter, rank)
            for i in range(1, rank + 1):
                assert is_economical_index(g, i) == expected(letter, rank, i)
                checked += 1
    gB = weyl_group("B", 5)
    assert [i for i in range(1, 6) if is_economical_index(gB, i)] == [1]
    _report(5, 30.0, started, f"classification verified at {checked} indices")


def test_criterion_6_description_sizes():
    started = time.monotonic()
    for spec in ("A4", "B3", "C3", "G2"):
        g = weyl_group(spec)
        R = len(g.positive_roots())
        for w in all_elements(g):
            d = cell_description_economical(g, w)
            assert len(d.equalities) == R - w.length
            assert len(d.inequalities) <= min(g.rank, w.length)
    g = weyl_group("D4")
    R = len(g.positive_roots())
    for w in all_elements(g):
        d = cell_description_typeD(g, w)
        assert len(d.equalities) <= R - w.length + g.rank - 3
        assert len(d.inequalities) <= min(g.rank, w.length)
    _report(6, 60.0, started, "counts exact on A4, B3, C3, G2; bounded on D4")


RANK4_ALL = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")


def test_criterion_7_recognition_correctness():
    started = time.monotonic()
    total = 0
    for spec in RANK4_ALL:
        g = weyl_group(spec)
        for w in all_elements(g):
            got, _ = recognize_general(PatternOracle(generic_pattern(g, w)), g)
            assert got == w
            for seed in range(100):
                pat = random_acceptable(g, w, seed=seed)
                got, _ = recognize_general(PatternOracle(pat), g)
                assert got == w
            total += 101
    _report(7, 120.0, started, f"{total} oracles across rank <= 4, zero failures")


def test_criterion_8_base_results():
    started = time.monotonic()
    for n in (3, 4, 5):
        g = weyl_group("A", n - 1)
        assert len(weyl_base(g)) == comb(n + 1, 3)
        assert {g.one_line(b.element) for b in weyl_base(g)} == {
            p for _t, p, _s in bigrassmannian_typeA(n)
        }
    for spec in RANK4_ALL:
        g = weyl_group(spec)
        for b in weyl_base(g):  # raises internally if descents are not unique
            assert g.left_descents(b.element) == frozenset({b.left_descent})
            assert g.right_descents(b.element) == frozenset({b.right_descent})
        bw = base_weights(g)
        assert len(set(bw)) == len(weyl_base(g))
        for w in all_elements(g):
            pat = generic_pattern(g, w)
            assert generic_recognize_from_base(g, {pw: pat.bit(pw) for pw in bw}) == w
    assert minimality_check(weyl_group("A2"))
    assert minimality_check(weyl_group("A3"))
    _report(8, 120.0, started, "counts, unique descents, inversion, minimality")


def test_criterion_9_lower_bounds():
    started = time.monotonic()
    fam1 = construct_witness_family(1)
    fam2 = construct_witness_family(2)
    assert fam1.size == 4 and fam1.lower_bound == 2
    assert fam2.size == 36 and fam2.lower_bound == 6
    for fam in (fam1, fam2):
        k = fam.k
        for u in fam.members:
            assert not ehresmann_leq(u, fam.w)
            assert frozenset(u[:k]) | frozenset(u[2 * k : 3 * k]) == frozenset(
                range(1, 2 * k + 1)
            )
        for I, count in witness_prefix_counts(fam).items():
            assert count <= comb(2 * k, k)
            assert count == witness_case_count(fam, I)
    assert minimum_defining_hitting_set(fam1.w, 4)[0] >= fam1.lower_bound
    assert variety_equation_count(fam1.w, 4) >= minimum_defining_hitting_set(fam1.w, 4)[0]
    res = feedback_free_min_set(3)
    assert res.size == 4 and res.unique
    assert set(res.subsets) == {
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert res.size >= Fraction(3 - 1, 3 + 1) * (2 ** 3 - 1)
    chain, per_step_bound = chain_corollary(1)
    assert len(chain) - 1 == 4 and per_step_bound == Fraction(1, 2)
    _report(9, 60.0, started, "witness families k=1,2; unique 4-set at n=3")


def test_criterion_10_cross_oracle_coherence():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        g = type_a_group(n)
        for w in all_elements(g):
            line = g.one_line(w)
            x = random_cell_point(line, seed=1000 + n)
            pat = vanishing_pattern(x)
            gen = generic_pattern(g, w)
            assert pat == gen
            w1, log1 = recognize_typeA(FlagOracle(x), n)
            w2, log2 = recognize_typeA(PatternOracle(gen), n)
            assert w1 == w2 == line
            assert [(pw, b) for pw, b in log1.entries] == [
                (pw, b) for pw, b in log2.entries
            ]
    _report(10, 60.0, started, "flag and pattern oracles agree, n <= 5")
