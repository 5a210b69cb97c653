"""Differential tests of the integral Weyl core against the ambient oracle.

The package computes on Dynkin labels only; ``ambient`` realizes the same
root systems in Bourbaki epsilon coordinates with exact Fraction arithmetic
(``act``, ``act_inv``, ``reflect``, ``root_sign``, lookup by vector) and
shares no code with it; it is the oracle for the sign of w alpha, which the
package reads off the orbit order.  Every element of every supported group
of rank <= 4 is checked, plus 300 seeded elements each of A5, B5 and D5; the
Cartan matrices, roots and coroots of all 28 supported groups are pinned.
"""

import random

import pytest
from ambient import Ambient, ambient
from bruhat_oracle import all_elements
from proposition_checks import reflection_weight_map

from schubcells.cartan import cartan_datum
from schubcells.cells import _root_plan, cell_description_economical, cell_description_typeD
from schubcells.plucker import mu, orbit_table, standard_ordering
from schubcells.weyl import WeylGroup, weyl_group

RANK4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
SAMPLED = ("A5", "B5", "D5")
SAMPLES = 300
ALL_GROUPS = (
    tuple(f"A{r}" for r in range(1, 9)) + tuple(f"B{r}" for r in range(2, 9))
    + tuple(f"C{r}" for r in range(2, 9)) + tuple(f"D{r}" for r in range(4, 9)) + ("G2",)
)


def _fresh(g):
    """A second, never enumerated instance of the same group, so that
    elements come from the descent walk rather than the enumeration index."""
    return WeylGroup(cartan_datum(g.type_letter, g.rank))


def _old_descriptions(g, w, ordering):
    """The economical-style sets built the ambient way: act on each root,
    take its sign, reflect omega_mu and look the image up by its vector."""
    amb = ambient(g)
    omega = amb.fundamental_weights
    eqs, levels = [], set()
    for rt in g.positive_roots():
        level = mu(g, rt, ordering)
        alpha = amb.root(rt)
        if amb.root_sign(amb.act(w, alpha)) > 0:
            moved = amb.reflect_by_root(alpha, omega[level - 1])
            eqs.append(amb.lookup(orbit_table(g, level), amb.act(w, moved)))
        else:
            levels.add(level)
    ineqs = [
        amb.lookup(orbit_table(g, i), amb.act(w, omega[i - 1]))
        for i in ordering
        if i in levels
    ]
    if g.type_letter == "D":
        for i in range(1, g.rank - 2):
            table = orbit_table(g, i)
            flipped = list(omega[i - 1])
            flipped[i - 1] = -flipped[i - 1]
            cand = amb.lookup(table, amb.act(w, tuple(flipped)))
            top = amb.lookup(table, amb.act(w, omega[i - 1]))
            if cand != top and table.leq(top, cand) and cand not in eqs:
                eqs.append(cand)
    return eqs, ineqs


def _check_element(g, fresh, w):
    amb = ambient(g)
    rho, simple, omega = amb.rho, amb.simple_roots, amb.fundamental_weights
    ordering = standard_ordering(g)
    # fingerprint = labels of w^{-1} rho; the walk rebuilds the same word
    assert w.fingerprint == amb.labels(amb.act_inv(w, rho))
    assert fresh.by_fingerprint(w.fingerprint).word == w.word
    assert fresh.element(w.word).word == w.word
    # reduced: the length is the number of positive roots w makes negative
    signs = tuple(amb.root_sign(amb.act(w, amb.root(rt))) for rt in g.positive_roots())
    assert signs.count(-1) == w.length
    # the sign of w alpha read off the orbit order: w s_alpha omega_mu lies
    # above w omega_mu in the orbit table iff w alpha > 0
    for rt, (table, k), sign in zip(g.positive_roots(), _root_plan(g, ordering), signs):
        level = mu(g, rt, ordering)
        assert table.level == level
        moved = amb.reflect_by_root(amb.root(rt), omega[level - 1])
        assert k == amb.lookup(table, moved).index
        assert (table.act(w.reduced, k) > table.position(w)) == (sign > 0)
    # descents by the root-sign definition
    assert g.right_descents(w) == {
        i for i in range(1, g.rank + 1) if amb.root_sign(amb.act(w, simple[i - 1])) < 0
    }
    assert g.left_descents(w) == {
        i for i in range(1, g.rank + 1) if amb.root_sign(amb.act_inv(w, simple[i - 1])) < 0
    }
    # orbit positions
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        assert table.position(w) == amb.lookup(table, amb.act(w, omega[i - 1])).index
    # rho images: regular ones find w, singular and shifted ones find nothing
    assert g.element_with_rho_labels(amb.labels(amb.act(w, rho))) == w
    for shifted in (tuple(a - b for a, b in zip(rho, omega[0])),
                    tuple(a + b for a, b in zip(rho, omega[0]))):
        assert g.element_with_rho_labels(amb.labels(amb.act(w, shifted))) is None
    # descriptions
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
    for w in all_elements(g):
        _check_element(g, fresh, w)


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


@pytest.mark.parametrize("spec", RANK4 + SAMPLED)
def test_generator_tables_match_ambient_reflections(spec):
    g = weyl_group(spec)
    amb = ambient(g)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        for pw in table.weights:
            v = amb.weight(pw)
            assert pw.labels == amb.labels(v)
            for j in range(1, g.rank + 1):
                image = amb.lookup(table, amb.reflect(j, v)).index
                assert table.gen[j - 1][pw.index] == image


@pytest.mark.parametrize("spec", ALL_GROUPS)
def test_cartan_matrix_roots_and_coroots_match_ambient(spec):
    letter, rank = spec[0], int(spec[1:])
    amb = Ambient(letter, rank)
    # m[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i), read off the diagram
    assert cartan_datum(letter, rank).cartan_matrix == amb.cartan_matrix()
    # <omega_i, alpha_j^vee> = delta_ij
    for i, omega in enumerate(amb.fundamental_weights):
        assert amb.labels(omega) == tuple(int(i == j) for j in range(rank))
    # the integer BFS finds every positive root once, with its coroot
    g = weyl_group(spec)
    roots = g.positive_roots()
    assert len({amb.root(rt) for rt in roots}) == len(roots)
    assert {amb.root(rt) for rt in roots} == amb.positive_roots()
    for rt in roots:
        assert amb.combination(rt.coroot, amb.coroots) == amb.coroot(amb.root(rt))


@pytest.mark.parametrize("spec", RANK4 + SAMPLED)
def test_reflect_root_matches_ambient_reflection(spec):
    # s_alpha on labels against s_alpha on vectors, on every orbit entry and
    # on the images of rho, which are regular
    g = weyl_group(spec)
    amb = ambient(g)
    for i in range(1, g.rank + 1):
        table = orbit_table(g, i)
        for pw in table.weights:
            v = amb.weight(pw)
            for rt in g.positive_roots():
                moved = amb.reflect_by_root(amb.root(rt), v)
                assert g.reflect_root(rt, pw.labels) == amb.labels(moved)
        omega = amb.fundamental_weights[i - 1]
        for rt, pw in reflection_weight_map(g, i).items():
            assert amb.weight(pw) == amb.reflect_by_root(amb.root(rt), omega)
    for rt in g.positive_roots():
        image = amb.reflect_by_root(amb.root(rt), amb.rho)
        assert g.reflection(rt).fingerprint == amb.labels(image)
