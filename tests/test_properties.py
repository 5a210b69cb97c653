"""Property tests: random groups of rank <= 5, random words, random seeds."""

import random
from functools import cache

from ambient import ambient
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_oracle import route

from schubcells.patterns import (
    AcceptabilityReport,
    VanishingPattern,
    check_acceptable,
    element_of_weights,
    random_acceptable,
)
from schubcells.plucker import orbit_table
from schubcells.recognition import PatternOracle, build_decision_tree, recognize_general
from schubcells.weyl import weyl_group

GROUPS = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5",
    "G2",
)
RANK_AT_MOST_4 = tuple(spec for spec in GROUPS if int(spec[1:]) <= 4)


@st.composite
def group_and_words(draw, count=1, groups=GROUPS):
    g = weyl_group(draw(st.sampled_from(groups)))
    bound = 3 * len(g.positive_roots())
    words = st.lists(st.integers(1, g.rank), max_size=bound)
    return (g,) + tuple(g.element(draw(words)) for _ in range(count))


@settings(max_examples=150, deadline=None)
@given(group_and_words(), st.integers(0, 2 ** 32 - 1))
def test_random_acceptable_is_accepted_and_recognized(gw, seed):
    g, w = gw
    pattern = random_acceptable(g, w, seed=seed)
    report = check_acceptable(pattern)
    assert report.accepted and report.witness == w
    got, _log = recognize_general(PatternOracle(pattern), g)
    assert got == w


@cache
def algorithmic_tree(g):
    return build_decision_tree(g)


@settings(max_examples=150, deadline=None)
@given(group_and_words(groups=RANK_AT_MOST_4), st.integers(0, 2 ** 32 - 1))
def test_decision_tree_routes_as_recognize_general(gw, seed):
    g, w = gw
    pattern = random_acceptable(g, w, seed=seed)
    got, log = recognize_general(PatternOracle(pattern), g)
    assert got == w
    assert route(algorithmic_tree(g), pattern) == (got, log.count)


@settings(max_examples=150, deadline=None)
@given(group_and_words(count=2))
def test_group_axioms_through_fingerprints(guv):
    g, u, v = guv
    uv = g.multiply(u, v)
    # the product acts as the composition of the ambient actions
    amb = ambient(g)
    assert amb.act(uv, amb.rho) == amb.act(u, amb.act(v, amb.rho))
    assert g.multiply(uv, g.inverse(v)) == u
    assert g.multiply(g.inverse(u), u) == g.identity
    assert uv.length <= u.length + v.length


@settings(max_examples=150, deadline=None)
@given(group_and_words(), st.data())
def test_reflect_root_is_right_multiplication_by_the_reflection(gw, data):
    # f(w s_alpha) = s_alpha f(w) on fingerprints, through fold and the
    # descent walk, with no ambient vector involved
    g, w = gw
    rt = data.draw(st.sampled_from(g.positive_roots()))
    s = g.reflection(rt)
    assert g.multiply(w, s).fingerprint == g.reflect_root(rt, w.fingerprint)
    assert g.reflect_root(rt, g.reflect_root(rt, w.fingerprint)) == w.fingerprint
    assert s.length % 2 == 1


# ----- the flat-bit rules that per-level down-masks replaced, kept as oracles -----


def check_acceptable_by_maximal_elements(pattern) -> AcceptabilityReport:
    """Each level's 1-set must have exactly one maximal element, found by
    testing every 1 against the up-masks."""
    g = pattern.group
    per_level, maxima = {}, []
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        ones = [k for k, pw in enumerate(table.weights) if pattern.bit(pw)]
        if not ones:
            per_level[i] = None
            return AcceptabilityReport(False, per_level, None, "empty_level")
        mask = sum(1 << k for k in ones)
        ups = table.up_masks()
        maximal = [k for k in ones if ups[k] & mask == 1 << k]
        if len(maximal) != 1:
            per_level[i] = None
            return AcceptabilityReport(False, per_level, None, "no_unique_max")
        per_level[i] = table.weights[maximal[0]]
        maxima.append(per_level[i])
    w = element_of_weights(g, maxima)
    if w is None:
        return AcceptabilityReport(False, per_level, None, "no_common_w")
    return AcceptabilityReport(True, per_level, w, None)


def random_acceptable_flat(g, w, seed) -> VanishingPattern:
    """One draw per weight strictly below w omega_i, in all_weights order,
    read off the up-masks."""
    rng = random.Random(seed)
    bits = []
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        jw = table.position(w)
        ups = table.up_masks()
        for k in range(len(table)):
            if k == jw:
                bits.append(1)
            elif ups[k] >> jw & 1:
                bits.append(rng.randint(0, 1))
            else:
                bits.append(0)
    return VanishingPattern(g, tuple(bits))


@settings(max_examples=150, deadline=None)
@given(group_and_words(), st.integers(0, 2 ** 32 - 1))
def test_random_acceptable_matches_flat_oracle(gw, seed):
    g, w = gw
    got = random_acceptable(g, w, seed=seed)
    expect = random_acceptable_flat(g, w, seed)
    assert got == expect and got.bits == expect.bits
    assert VanishingPattern(g, got.bits) == got


@settings(max_examples=300, deadline=None)
@given(group_and_words(), st.integers(0, 2 ** 32 - 1), st.data())
def test_check_acceptable_matches_maximal_element_oracle(gw, seed, data):
    # acceptable vectors, the same with a few bits flipped (mostly not
    # acceptable any more), and uniformly random bits
    g, w = gw
    bits = list(random_acceptable(g, w, seed=seed).bits)
    mode = data.draw(st.sampled_from(("acceptable", "perturbed", "random")))
    if mode == "perturbed":
        for k in data.draw(st.lists(st.integers(0, len(bits) - 1), min_size=1, max_size=4)):
            bits[k] ^= 1
    elif mode == "random":
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits)))
    pattern = VanishingPattern(g, bits)
    assert check_acceptable(pattern) == check_acceptable_by_maximal_elements(pattern)
