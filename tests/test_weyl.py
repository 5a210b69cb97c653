"""Weyl group core: enumeration, canonical forms, descents, Bruhat order,
parabolic machinery, roots and reflections.

Expected values tagged as derived below were computed by the independent
oracles in this file (transitive closure of reflection relations, explicit
coset enumeration, brute-force word searches) and then frozen.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from ambient import ambient, dot
from hypothesis import given, settings
from hypothesis import strategies as st
from bruhat_oracle import bruhat_poset, ehresmann_leq

from schubcells import perms
from schubcells.cartan import cartan_datum, parse_group_spec
from schubcells.errors import UnsupportedGroupError
from schubcells.patterns import generic_pattern
from schubcells.plucker import orbit_table
from schubcells.recognition import PatternOracle, recognize_general
from schubcells.weyl import WeylGroup, orbit_bfs, weyl_group

SMALL_GROUPS = ("A1", "A2", "A3", "B2", "B3", "G2")
RANK4_GROUPS = ("A4", "B4", "C4", "D4")


def bruhat_closure_oracle(group):
    """Independent oracle: transitive closure of w < wt for reflections t
    with l(w) < l(wt), computed from scratch with multiply and length only."""
    els = group.elements()
    n = len(els)
    idx = {w.fingerprint: k for k, w in enumerate(els)}
    succ = [set() for _ in range(n)]
    for k, w in enumerate(els):
        for t in group.reflections():
            wt = group.multiply(w, t)
            if wt.length > w.length:
                succ[k].add(idx[wt.fingerprint])
    reach = []
    for k in range(n):
        seen = {k}
        stack = [k]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)
    return els, idx, reach


# ----- construction and enumeration -------------------------------------------------


def test_group_orders():
    assert len(weyl_group("A2").elements()) == 6
    assert len(weyl_group("A1").elements()) == 2
    # the parabolic order against the 2^r r! formula and exhaustive generation
    assert len(weyl_group("B3")) == 2 ** 3 * math.factorial(3) == 48
    assert len(weyl_group("B3").elements()) == 48
    assert len(weyl_group("G2").elements()) == 12
    assert len(weyl_group("D4").elements()) == 192


def test_unsupported_groups():
    for spec in ("E6", "F4", "D3", "D2", "G3", "A0", "B1", "A9", "H3"):
        with pytest.raises(UnsupportedGroupError):
            parse_group_spec(spec)
    with pytest.raises(UnsupportedGroupError):
        weyl_group("E", 8)


def test_enumeration_cap():
    g = weyl_group("B8")  # datum is fine, |W| = 10321920 > 10^6
    with pytest.raises(UnsupportedGroupError):
        g.elements()


def test_cartan_data_invariants():
    for spec in SMALL_GROUPS + RANK4_GROUPS + ("C3", "B6", "D6"):
        datum = cartan_datum(*parse_group_spec(spec))
        r = datum.rank
        for i in range(r):
            assert datum.cartan_matrix[i][i] == 2
            for j in range(r):
                if i != j:
                    assert datum.cartan_matrix[i][j] <= 0


def test_canonical_words_are_shortlex_minimal():
    for spec in ("A2", "B2", "A3"):
        g = weyl_group(spec)
        for w in g.elements():
            k = w.length
            best = None
            for word in product(range(1, g.rank + 1), repeat=k):
                if g.element(word) == w and (best is None or word < best):
                    best = word
            assert w.word == best


def _check_words(g, fresh, w, rng):
    """By fingerprint, by a long random word and by recognition, a fresh
    group gives w with the enumerated shortlex word and a reduced word."""
    noise = [rng.randint(1, g.rank) for _ in range(2 * len(g.positive_roots()))]
    pattern = PatternOracle(generic_pattern(fresh, fresh.element(w.word)))
    for got in (fresh.by_fingerprint(w.fingerprint),
                fresh.element(tuple(noise) + tuple(reversed(noise)) + w.word),
                recognize_general(pattern, fresh)[0]):
        assert got == w
        assert len(got.reduced) == got.length == w.length
        assert fresh.element(got.reduced).fingerprint == w.fingerprint
        assert got.word == w.word
        assert got.length == len(got.word)


@pytest.mark.parametrize("spec", ("A3", "B3", "D4", "G2"))
def test_lazy_words_match_the_enumerated_shortlex_words(spec):
    g = weyl_group(spec)
    fresh = WeylGroup(cartan_datum(g.type_letter, g.rank))
    rng = random.Random(spec)
    for w in g.elements():
        _check_words(g, fresh, w, rng)
    assert fresh._elements is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("B5", "D5")), st.lists(st.integers(1, 5), max_size=60), st.randoms())
def test_lazy_words_property(spec, word, rng):
    g = weyl_group(spec)
    canonical = {w.fingerprint: w for w in g.elements()}
    w = canonical[g.fold(word, g.identity.fingerprint)]
    assert g.element(word) == w
    _check_words(g, WeylGroup(cartan_datum(g.type_letter, g.rank)), w, rng)


# ----- multiplication -----------------------------------------------------------------


def test_multiply_examples():
    g = weyl_group("A2")
    s1 = g.simple(1)
    assert g.multiply(s1, s1) == g.identity
    for w in g.elements():
        assert g.multiply(g.identity, w) == w
        assert g.multiply(w, g.identity) == w
        assert g.multiply(w, g.inverse(w)) == g.identity
    assert g.element((1, 2, 1)) == g.element((2, 1, 2))


def test_multiply_associative():
    g = weyl_group("B2")
    els = g.elements()
    for u in els:
        for v in els:
            for w in els:
                assert g.multiply(g.multiply(u, v), w) == g.multiply(u, g.multiply(v, w))


def test_one_line_round_trip():
    for n in (2, 3, 4):
        g = weyl_group("A", n - 1)
        for w in g.elements():
            assert g.from_one_line(g.one_line(w)) == w
        for p in perms.all_perms(n):
            assert g.one_line(g.from_one_line(p)) == p


def oracle_from_one_line(g, perm):
    """The bubble-sort parser that ``from_one_line`` replaced: the recorded
    swaps, read right to left, are a reduced word of the permutation."""
    word, work = [], list(perm)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                word.append(i + 1)
                changed = True
    return g.element(tuple(reversed(word)))


def _assert_parses_like_oracle(g, perm):
    got, want = g.from_one_line(perm), oracle_from_one_line(g, perm)
    assert (got.word, got.fingerprint) == (want.word, want.fingerprint)


@pytest.mark.parametrize("n", range(2, 8))
def test_from_one_line_matches_bubble_sort_oracle_on_all_of_sn(n):
    g = weyl_group("A", n - 1)
    for p in perms.all_perms(n):
        _assert_parses_like_oracle(g, p)


@pytest.mark.parametrize("n", (8, 9))
def test_from_one_line_matches_bubble_sort_oracle_on_sampled_sn(n):
    g = weyl_group("A", n - 1)
    rng = random.Random(n)
    for _ in range(2000):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        _assert_parses_like_oracle(g, tuple(p))


# ----- length and descents -------------------------------------------------------------


def test_length_and_descents():
    g = weyl_group("A2")
    assert g.identity.length == 0
    w0 = g.longest_element()
    assert w0.length == 3
    # both w0 s_i are shorter (brute force)
    expected = frozenset(
        i for i in (1, 2) if g.multiply(w0, g.simple(i)).length < w0.length
    )
    assert expected == frozenset({1, 2})
    assert g.right_descents(w0) == frozenset({1, 2})
    assert g.left_descents(w0) == frozenset({1, 2})


def test_descents_match_length_drop():
    for spec in ("A3", "B2", "G2"):
        g = weyl_group(spec)
        for w in g.elements():
            rd = {
                i
                for i in range(1, g.rank + 1)
                if g.multiply(w, g.simple(i)).length < w.length
            }
            ld = {
                i
                for i in range(1, g.rank + 1)
                if g.multiply(g.simple(i), w).length < w.length
            }
            assert g.right_descents(w) == frozenset(rd)
            assert g.left_descents(w) == frozenset(ld)


# ----- Bruhat order -----------------------------------------------------------------------


def test_bruhat_examples():
    g = weyl_group("A2")
    w0 = g.longest_element()
    for w in g.elements():
        assert g.bruhat_leq(g.identity, w)
    u = g.from_one_line((2, 1, 3))
    v = g.from_one_line((2, 3, 1))
    assert g.bruhat_leq(u, v)
    assert not g.bruhat_leq(g.from_one_line((2, 3, 1)), g.from_one_line((3, 1, 2)))
    assert g.bruhat_leq(w0, w0)


@pytest.mark.parametrize("spec", SMALL_GROUPS + ("D4", "A4", "B4", "C4"))
def test_bruhat_matches_transitive_closure(spec):
    g = weyl_group(spec)
    els, idx, reach = bruhat_closure_oracle(g)
    for a, u in enumerate(els):
        for b, v in enumerate(els):
            assert g.bruhat_leq(u, v) == (b in reach[a])


def test_bruhat_matches_ehresmann_small():
    for n in (2, 3, 4, 5):
        g = weyl_group("A", n - 1)
        els = g.elements()
        lines = [g.one_line(w) for w in els]
        for a in range(len(els)):
            for b in range(len(els)):
                assert g.bruhat_leq(els[a], els[b]) == ehresmann_leq(
                    lines[a], lines[b]
                )


@pytest.mark.parametrize(
    "spec",
    ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"),
)
def test_orbit_up_masks_match_closure_oracle(spec):
    # Each orbit order is the closure oracle's order on W restricted to the
    # minimal coset representatives of W / W_{i-hat}.
    g = weyl_group(spec)
    _els, idx, reach = bruhat_closure_oracle(g)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        reps = [idx[pw.min_rep.fingerprint] for pw in table.weights]
        expect = [
            sum(1 << k for k, b in enumerate(reps) if b in reach[a]) for a in reps
        ]
        assert table.up_masks() == expect, (spec, i)


def test_bruhat_matches_ehresmann_s6_via_poset():
    # At n = 6 the poset is compared against the subset criterion for all
    # pairs, and bruhat_leq on a deterministic sample.
    g = weyl_group("A5")
    P = bruhat_poset(g)
    els = P.elements
    lines = [g.one_line(w) for w in els]
    for a in range(len(els)):
        up = P.up[a]
        for b in range(len(els)):
            assert bool(up >> b & 1) == ehresmann_leq(lines[a], lines[b])
    for a in range(0, len(els), 71):
        for b in range(0, len(els), 37):
            assert g.bruhat_leq(els[a], els[b]) == P.leq_idx(a, b)


@pytest.mark.parametrize("spec", ("A3", "A4", "B3", "C3", "G2", "D4"))
def test_deodhar_quotient_criterion(spec):
    g = weyl_group(spec)
    els = g.elements()
    full = frozenset(range(1, g.rank + 1))
    quotient_reps = []
    for w in els:
        quotient_reps.append(
            [g.min_coset_rep(w, full - {i}) for i in range(1, g.rank + 1)]
        )
    for a, u in enumerate(els):
        for b, v in enumerate(els):
            expect = all(
                g.bruhat_leq(quotient_reps[a][i], quotient_reps[b][i])
                for i in range(g.rank)
            )
            assert g.bruhat_leq(u, v) == expect


# ----- parabolic machinery -------------------------------------------------------------------


def test_min_coset_rep_examples():
    g = weyl_group("A2")
    w0 = g.longest_element()
    for J in ({1}, {2}, {1, 2}, set()):
        assert g.min_coset_rep(g.identity, J) == g.identity
    assert g.min_coset_rep(w0, set()) == w0
    # oracle: enumerate the coset w0 W_{2} and take the shortest element
    coset = {g.multiply(w0, g.identity), g.multiply(w0, g.simple(2))}
    shortest = min(coset, key=lambda w: w.length)
    assert shortest.word == (2, 1)
    assert g.min_coset_rep(w0, {2}) == shortest
    # idempotent
    for w in g.elements():
        for J in ({1}, {2}, {1, 2}):
            rep = g.min_coset_rep(w, J)
            assert g.min_coset_rep(rep, J) == rep


def test_min_coset_rep_is_coset_minimum():
    for spec in ("A3", "B2", "G2"):
        g = weyl_group(spec)
        full = list(range(1, g.rank + 1))
        for w in g.elements():
            for J in (set(full[:1]), set(full[1:]), set(full)):
                members = set()
                frontier = {w}
                while frontier:
                    cur = frontier.pop()
                    if cur in members:
                        continue
                    members.add(cur)
                    for j in J:
                        frontier.add(g.multiply(cur, g.simple(j)))
                oracle = min(members, key=lambda x: x.length)
                assert g.min_coset_rep(w, J) == oracle


def test_parabolic_intersection_law():
    # Membership in the intersection of the maximal parabolics over j < i
    # equals membership in the tail parabolic, with subgroup membership
    # decided by an independent closure computation.
    for spec in ("A3", "B3", "D4"):
        g = weyl_group(spec)
        r = g.rank
        full = frozenset(range(1, r + 1))

        def subgroup(J):
            members = {g.identity}
            frontier = [g.identity]
            while frontier:
                cur = frontier.pop()
                for j in J:
                    nxt = g.multiply(cur, g.simple(j))
                    if nxt not in members:
                        members.add(nxt)
                        frontier.append(nxt)
            return members

        hats = {j: subgroup(full - {j}) for j in range(1, r + 1)}
        for i in range(2, r + 1):
            tail = subgroup(frozenset(range(i, r + 1)))
            for w in g.elements():
                in_all = all(w in hats[j] for j in range(1, i))
                assert in_all == (w in tail)
                assert in_all == (set(w.word) <= set(range(i, r + 1)))


def test_longest_element():
    for spec in SMALL_GROUPS:
        g = weyl_group(spec)
        w0 = g.longest_element()
        assert w0.length == len(g.positive_roots())
        assert w0.length == max(w.length for w in g.elements())
        assert g.right_descents(w0) == frozenset(range(1, g.rank + 1))
    g = weyl_group("A3")
    wJ = g.longest_element({1, 2})
    assert g.one_line(wJ) == (3, 2, 1, 4)
    assert g.right_descents(wJ) >= {1, 2}


# ----- action on weights ------------------------------------------------------------------------


def test_act_examples():
    g = weyl_group("A2")
    amb = ambient(g)
    w1, w2 = amb.fundamental_weights
    a1, a2 = amb.simple_roots
    # stabilizer
    assert amb.act(g.simple(2), w1) == w1
    assert amb.act(g.simple(1), w2) == w2
    # s_1 w_1 = w_1 - a_1, from the pairing formula applied directly
    coroot = tuple(2 * x / dot(a1, a1) for x in a1)
    expected = tuple(x - dot(w1, coroot) * y for x, y in zip(w1, a1))
    assert amb.act(g.simple(1), w1) == expected
    # longest element, applied stepwise
    v = w1
    for i in (1, 2, 1):
        v = amb.reflect(i, v)
    assert amb.act(g.longest_element(), w1) == v
    # equals -w_2 up to the W-invariant vector (1,1,1) (the weights here are
    # partial sums of basis vectors, not their trace-zero projections)
    diff = {a + b for a, b in zip(v, w2)}
    assert len(diff) == 1


def test_act_is_a_homomorphism_and_isometry():
    g = weyl_group("B2")
    amb = ambient(g)
    vecs = [
        (Fraction(3), Fraction(-1)),
        (Fraction(1, 2), Fraction(5, 2)),
        (Fraction(0), Fraction(7)),
    ]
    for u in g.elements():
        for v in g.elements():
            uv = g.multiply(u, v)
            for x in vecs:
                left = amb.act(uv, x)
                right = amb.act(u, amb.act(v, x))
                assert left == right
                assert dot(left, left) == dot(x, x)
        assert amb.act(g.identity, vecs[0]) == vecs[0]


# ----- roots and reflections -----------------------------------------------------------------------


SUPPORTED_GROUPS = (
    tuple(f"A{r}" for r in range(1, 9)) + tuple(f"B{r}" for r in range(2, 9))
    + tuple(f"C{r}" for r in range(2, 9)) + tuple(f"D{r}" for r in range(4, 9)) + ("G2",)
)


def positive_roots_by_orbits(g):
    """Oracle: the W-orbits of the (alpha_j, alpha_j^vee) pairs, one BFS over
    all of +-Phi per simple root, keeping the positive pairs, sorted by
    height, then expansion."""
    r, m = g.rank, g.datum.cartan_matrix

    def step(i, pair):
        e, f = pair
        c = sum(m[i - 1][j] * e[j] for j in range(r))  # <alpha, alpha_i^vee>
        d = sum(m[j][i - 1] * f[j] for j in range(r))  # <alpha_i, alpha^vee>
        return (e[: i - 1] + (e[i - 1] - c,) + e[i:],
                f[: i - 1] + (f[i - 1] - d,) + f[i:])

    pairs = set()
    for j in range(r):
        unit = tuple(int(k == j) for k in range(r))
        pairs.update(orbit_bfs((unit, unit), range(1, r + 1), step)[0])
    return sorted((p for p in pairs if min(p[0]) >= 0), key=lambda p: (sum(p[0]), p[0]))


@pytest.mark.parametrize("spec", SUPPORTED_GROUPS)
def test_upward_root_sweep_matches_the_orbit_oracle(spec):
    # the same roots and coroots in the same order, so the cells root plans
    # and reflections() keep their indexing
    g = weyl_group(spec)
    assert [(rt.expansion, rt.coroot) for rt in g.positive_roots()] == positive_roots_by_orbits(g)


def test_positive_roots():
    assert len(weyl_group("B2").positive_roots()) == 4
    assert len(weyl_group("A2").positive_roots()) == 3
    assert len(weyl_group("G2").positive_roots()) == 6
    assert len(weyl_group("D4").positive_roots()) == 12
    for spec in SMALL_GROUPS:
        g = weyl_group(spec)
        roots = g.positive_roots()
        assert len(roots) == g.longest_element().length
        amb = ambient(g)
        assert {amb.root(rt) for rt in roots} == amb.positive_roots()
        for rt in roots:
            assert all(c >= 0 for c in rt.expansion)
            assert all(c >= 0 for c in rt.coroot)


def test_reflections():
    for spec in ("A2", "B2", "G2"):
        g = weyl_group(spec)
        for rt in g.positive_roots():
            s = g.reflection(rt)
            assert g.multiply(s, s) == g.identity
            if sum(rt.expansion) == 1:
                assert s == g.simple(rt.expansion.index(1) + 1)
