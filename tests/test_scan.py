"""The in-place recognition scan against the per-coset oracle of
``scan_oracle``, the bound on the group's scan plans, and the orbit
positions an element keeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_oracle import coset_recognize, coset_scan

from schubcells import plucker, recognition
from schubcells.cartan import cartan_datum
from schubcells.cells import cell_description_economical
from schubcells.errors import UnacceptableInputError
from schubcells.patterns import (
    VanishingPattern,
    check_acceptable,
    generic_pattern,
    random_acceptable,
)
from schubcells.plucker import WeightOrdering, orbit_table, standard_ordering
from schubcells.recognition import (
    CountingOracle,
    PatternOracle,
    _level_plan,
    _scan,
    recognize_general,
)
from schubcells.weyl import WeylGroup, weyl_group


def in_place_scan(g, ordering, pos, word):
    return list(_scan(_level_plan(g, ordering, pos), word))


def reached(g, ordering, pos=0, word=()):
    """Every (pos, word of v) the recognizer can reach, depth first."""
    if pos == g.rank:
        return
    yield pos, word
    for _eta, rep in coset_scan(g, ordering, pos, word):
        yield from reached(g, ordering, pos + 1, word + rep)


def orderings(g):
    """The standard ordering and its reverse, which is not economical in
    most types, so its plans have levels that are not chains."""
    std = standard_ordering(g)
    return std, WeightOrdering(std.order[::-1])


@pytest.mark.parametrize("spec", ("A3", "B3", "C3", "D4", "G2", "A4", "B4"))
def test_in_place_scan_is_the_coset_scan_at_every_reached_coset(spec):
    g = weyl_group(spec)
    for ordering in orderings(g):
        seen = 0
        for pos, word in reached(g, ordering):
            assert in_place_scan(g, ordering, pos, word) == coset_scan(g, ordering, pos, word)
            seen += 1
        assert seen > len(g) // 2


@pytest.mark.parametrize("spec", ("B6", "D5", "D6", "D7"))
def test_in_place_scan_is_the_coset_scan_on_seeded_cosets(spec):
    g = weyl_group(spec)
    rng = random.Random(spec)
    ordering = standard_ordering(g)
    for _ in range(40):
        word = ()
        for pos in range(g.rank):
            expected = coset_scan(g, ordering, pos, word)
            assert in_place_scan(g, ordering, pos, word) == expected
            word += rng.choice(expected)[1]


@pytest.mark.parametrize("spec", ("A5", "B6", "C4", "G2", "D4", "D5", "D6", "D7"))
def test_only_type_d_levels_below_the_fork_are_not_chains(spec):
    g = weyl_group(spec)
    ordering = standard_ordering(g)
    unsorted = {pos for pos in range(g.rank) if not _level_plan(g, ordering, pos)[2]}
    # position 0 scans W omega_1 itself, untranslated
    assert unsorted == (set(range(g.rank - 3)) if g.type_letter == "D" else set())


def test_an_economical_ordering_must_scan_chains(monkeypatch):
    g = WeylGroup(cartan_datum("D", 5))
    monkeypatch.setattr(recognition, "is_economical_ordering", lambda group, ordering: True)
    pattern = random_acceptable(g, g.element((1, 2, 3)), 1)
    with pytest.raises(RuntimeError, match="non-linear scan set"):
        recognize_general(PatternOracle(pattern), g)
    assert not g.scan_plans  # W omega_1 of D5, at position 0, is no chain


def random_pattern(g, rng):
    return VanishingPattern.from_levels(
        g, [rng.getrandbits(len(orbit_table(g, i))) for i in range(1, g.rank + 1)])


def outcome(recognize, pattern, g, check_input):
    counter = CountingOracle(PatternOracle(pattern))
    try:
        w = recognize(counter, g, check_input=check_input)[0]
    except UnacceptableInputError:
        w = None
    return w, counter.log.entries


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("B5", "D5", "D6")), st.randoms(use_true_random=False), st.booleans())
def test_recognition_asks_what_the_coset_scan_asks(spec, rng, check_input):
    g = weyl_group(spec)
    w = g.element(rng.choices(range(1, g.rank + 1), k=rng.randrange(40)))
    pattern = random_acceptable(g, w, rng)
    got = outcome(recognize_general, pattern, g, check_input)
    assert got[0] == w
    assert got == outcome(coset_recognize, pattern, g, check_input)
    # unacceptable input: the same queries, and the same forced-bit verdict
    pattern = random_pattern(g, rng)
    assert outcome(recognize_general, pattern, g, check_input) == outcome(
        coset_recognize, pattern, g, check_input)


def test_scan_plans_are_bounded_by_the_levels():
    g = WeylGroup(cartan_datum("B", 6))
    rng = random.Random(6)
    for _ in range(500):
        w = g.element(rng.choices(range(1, 7), k=rng.randrange(50)))
        pattern = random_acceptable(g, w, rng)
        assert recognize_general(PatternOracle(pattern), g)[0] == w
    assert 0 < len(g.scan_plans) <= 6


def count_act_from_zero(monkeypatch):
    calls = []
    act = plucker.OrbitTable.act

    def counting_act(self, word, k):
        if k == 0:
            calls.append((self.level, tuple(word)))
        return act(self, word, k)

    monkeypatch.setattr(plucker.OrbitTable, "act", counting_act)
    return calls


def test_an_element_folds_its_word_once_per_level(monkeypatch):
    g = weyl_group("B5")
    w = g.element((1, 2, 3, 4, 5, 4, 3, 2, 1, 5, 4))
    assert w.reduced != w.word  # so the witness's calls are told apart by word
    calls = count_act_from_zero(monkeypatch)
    pattern = random_acceptable(g, w, 5)
    assert sorted(calls) == [(i, w.reduced) for i in range(1, 6)]
    calls.clear()
    report = check_acceptable(pattern)
    witness = report.witness
    assert witness == w
    # the witness folds no word: it keeps the positions of the per-level maxima
    assert calls == []
    assert witness.positions == w.positions
    calls.clear()
    description = cell_description_economical(g, w)
    assert description.inequalities and calls == []


def test_a_table_reads_the_positions_only_of_its_own_datum():
    b = weyl_group("B3")
    fresh = WeylGroup(cartan_datum("B", 3))  # the same datum shares the slot
    u = b.element((3, 2, 3, 1))
    assert [orbit_table(fresh, i).position(u) for i in (1, 2, 3)] == u.positions
    assert u.positions == [orbit_table(b, i).act(u.reduced, 0) for i in (1, 2, 3)]


@pytest.mark.parametrize("call", [
    lambda a, w: generic_pattern(a, w),
    lambda a, w: random_acceptable(a, w, seed=0),
    lambda a, w: a.bruhat_leq(w, a.identity),
    lambda a, w: a.bruhat_leq(a.identity, w),
])
def test_a_table_refuses_an_element_of_another_coxeter_group(call):
    # A3 and B3 share a rank, not a Coxeter matrix; B3 and C3 share a Coxeter
    # matrix, not a datum, and are refused alike
    for spec, other in (("A3", "B3"), ("B3", "C3"), ("C3", "B3")):
        a, w = weyl_group(spec), weyl_group(other).element((3, 2, 3, 1))
        with pytest.raises(ValueError,
                           match=f"^an element of {other} is not in the Weyl group of {spec}$"):
            call(a, w)


def test_a_table_refuses_an_element_of_another_rank():
    w = weyl_group("A2").element((1, 2))
    for spec in ("A1", "A3"):
        with pytest.raises(ValueError, match=f"^an element of A2 is not in the Weyl group of {spec}$"):
            orbit_table(weyl_group(spec), 1).position(w)
