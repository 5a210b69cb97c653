"""Property tests: random groups of rank <= 5, random words, random seeds."""

from functools import cache

from ambient import ambient
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcells.patterns import check_acceptable, random_acceptable
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
    assert algorithmic_tree(g).route(pattern) == (got, log.count)


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
