"""Differential tests of the integral Weyl core against the ambient action.

The oracle is the exact Fraction action in ambient coordinates (``act``,
``act_inv``, ``reflect``, ``root_sign``), which no hot path uses any more.
Every element of every supported group of rank <= 4 is checked, plus 300
seeded elements each of A5, B5 and D5.
"""

import random

import pytest

from schubcells.cartan import cartan_datum, dot
from schubcells.cells import cell_description_economical, cell_description_typeD
from schubcells.plucker import mu, orbit_table, standard_ordering
from schubcells.weyl import WeylGroup, weyl_group

RANK4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
SAMPLED = ("A5", "B5", "D5")
SAMPLES = 300


def _ambient_labels(g, v):
    """<v, alpha_i^vee> by direct pairing with the ambient coroots."""
    out = []
    for c in g.coroots:
        x = dot(v, c)
        assert x == int(x)
        out.append(int(x))
    return tuple(out)


def _fresh(g):
    """A second, never enumerated instance of the same group, so that
    elements come from the descent walk rather than the enumeration index."""
    return WeylGroup(cartan_datum(g.type_letter, g.rank))


def _old_descriptions(g, w, ordering):
    """The economical-style sets built the ambient way: act on each root,
    take its sign, reflect omega_mu and look the image up by its vector."""
    eqs, levels = [], set()
    for rt in g.positive_roots():
        level = mu(g, rt, ordering)
        if g.root_sign(g.act(w, rt.coords)) > 0:
            moved = g.reflect_by_root(rt, g.fundamental_weights[level - 1])
            eqs.append(orbit_table(g, level).lookup(g.act(w, moved)))
        else:
            levels.add(level)
    ineqs = [
        orbit_table(g, i).lookup(g.act(w, g.fundamental_weights[i - 1]))
        for i in ordering
        if i in levels
    ]
    if g.type_letter == "D":
        for i in range(1, g.rank - 2):
            table = orbit_table(g, i)
            flipped = list(g.fundamental_weights[i - 1])
            flipped[i - 1] = -flipped[i - 1]
            cand = table.lookup(g.act(w, tuple(flipped)))
            top = table.lookup(g.act(w, g.fundamental_weights[i - 1]))
            if cand != top and table.leq(top, cand) and cand not in eqs:
                eqs.append(cand)
    return eqs, ineqs


def _check_element(g, fresh, w):
    rho = g.rho()
    simple = g.simple_roots
    # fingerprint = labels of w^{-1} rho; the walk rebuilds the same word
    assert w.fingerprint == _ambient_labels(g, g.act_inv(w, rho))
    assert fresh.by_fingerprint(w.fingerprint).word == w.word
    assert fresh.element(w.word).word == w.word
    # reduced: the length is the number of positive roots w makes negative
    signs = tuple(g.root_sign(g.act(w, rt.coords)) for rt in g.positive_roots())
    assert g.root_signs(w) == signs
    assert signs.count(-1) == w.length
    # descents by the root-sign definition
    assert g.right_descents(w) == {
        i for i in range(1, g.rank + 1) if g.root_sign(g.act(w, simple[i - 1])) < 0
    }
    assert g.left_descents(w) == {
        i for i in range(1, g.rank + 1) if g.root_sign(g.act_inv(w, simple[i - 1])) < 0
    }
    # orbit positions
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        assert table.position(w) == table.lookup(g.act(w, g.fundamental_weights[i - 1])).index
    # rho images: regular ones find w, others find nothing
    image = g.act(w, rho)
    assert g.element_with_rho_image(image) == w
    assert g.element_with_rho_labels(_ambient_labels(g, image)) == w
    singular = g.act(w, tuple(a - b for a, b in zip(rho, g.fundamental_weights[0])))
    assert g.element_with_rho_image(singular) is None
    other = g.act(w, tuple(a + b for a, b in zip(rho, g.fundamental_weights[0])))
    assert g.element_with_rho_image(other) is None
    # a W-invariant shift keeps the labels but leaves the orbit (types A, G2)
    if g.type_letter in ("A", "G"):
        assert g.element_with_rho_image(tuple(x + 1 for x in image)) is None
    # descriptions
    ordering = standard_ordering(g)
    eqs, ineqs = _old_descriptions(g, w, ordering)
    if g.type_letter == "D":
        desc = cell_description_typeD(g, w)
    else:
        desc = cell_description_economical(g, w)
    assert list(desc.equalities) == eqs
    assert list(desc.inequalities) == ineqs


@pytest.mark.parametrize("spec", RANK4)
def test_integral_core_exhaustive(spec):
    g = weyl_group(spec)
    fresh = _fresh(g)
    for w in g.elements():
        _check_element(g, fresh, w)
    assert fresh._elements is None


@pytest.mark.parametrize("spec", SAMPLED)
def test_integral_core_sampled(spec):
    g = weyl_group(spec)
    fresh = _fresh(g)
    rng = random.Random(spec)
    npos = len(g.positive_roots())
    for _ in range(SAMPLES):
        word = [rng.randint(1, g.rank) for _ in range(rng.randint(0, 3 * npos))]
        w = g.element(word)
        assert fresh.element(word) == w
        _check_element(g, fresh, w)
    assert fresh._elements is None


@pytest.mark.parametrize("spec", RANK4 + SAMPLED)
def test_generator_tables_match_ambient_reflections(spec):
    g = weyl_group(spec)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        for pw in table.weights:
            assert pw.labels == _ambient_labels(g, pw.weight)
            for j in range(1, g.rank + 1):
                image = table.lookup(g.reflect(j, pw.weight)).index
                assert table.gen[j - 1][pw.index] == image

