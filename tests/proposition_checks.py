"""Checks of propositions of [FZ98] that answer no user question, so the
package does not carry them: the minimality of the Bruhat base, the
constant-weight-code count behind ``code_excludable_bound``, the
codimension-one chain corollary, the embedding of R(i) into
W omega_i - {omega_i}, and the linear orbit orders.  The first and the
chain enumerate W.  ``feedback_free_certificate`` builds the flag pairs of
the lower bound of ``bounds.feedback_free_min_set``, for the tests to check.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from bruhat_oracle import all_elements

from schubcells.base import base_weights, weyl_base
from schubcells.bounds import _block_reversal
from schubcells.flags import coordinate_flag, flag_from_columns, type_a_group
from schubcells.patterns import generic_pattern
from schubcells.plucker import orbit_table, roots_R


def _generic_masks(group):
    """Per element of W, its generic pattern and that pattern's restriction
    to the base weights as a bitmask.  u <= v iff the pattern of u is
    contained in that of v (Deodhar's criterion)."""
    weights = base_weights(group)
    pats = [generic_pattern(group, w) for w in all_elements(group)]
    return [(p, sum(p.bit(c) << j for j, c in enumerate(weights))) for p in pats]


def _deletion_minimal(group, holds) -> bool:
    """holds(kept) for the mask of all base weights, and for no mask that
    drops a single one."""
    keep = (1 << len(weyl_base(group))) - 1
    return holds(keep) and not any(holds(keep & ~(1 << j)) for j in range(keep.bit_length()))


def minimality_check(group) -> bool:
    """The base weights separate all generic patterns, and no single deletion
    still does.

    Separation is strictly weaker than the order-embedding property (see
    embedding_minimality_check); deletion-minimality under mere separation is
    a type A phenomenon and fails already for B2.
    """
    restricted = [r for _, r in _generic_masks(group)]
    return _deletion_minimal(
        group, lambda kept: len({r & kept for r in restricted}) == len(restricted)
    )


def embedding_minimality_check(group) -> bool:
    """The base weights embed the group order into the Boolean lattice, and
    no single deletion preserves the embedding."""
    masks = _generic_masks(group)
    pairs = [(ru, rv, pu <= pv) for pu, ru in masks for pv, rv in masks]
    return _deletion_minimal(group, lambda kept: all(
        (ru & ~rv & kept == 0) == below for ru, rv, below in pairs
    ))


def code_excludable_bound(n: int) -> int:
    """Upper bound, from the single-error-detecting code inequality, on how
    many coordinates a feedback-free solution can omit."""
    return sum(comb(n, i - 1) // i for i in range(1, n))


def code_bound_check(n: int, i: int, subsets) -> bool:
    """|subsets| <= C(n, i-1)/i for i-subsets of [1, n] no two of which
    differ by a single exchange, asserted together with the counting
    argument behind it: the (i-1)-subsets of the members are pairwise
    distinct."""
    assert all(len(I) == i and I <= set(range(1, n + 1)) for I in subsets)
    assert all(len(I ^ J) != 2 for I, J in combinations(subsets, 2)), "a single exchange"
    faces = [I - {x} for I in subsets for x in I]
    assert len(set(faces)) == len(faces), "counting argument violated"
    return len(subsets) * i <= comb(n, i - 1)


def chain_corollary(k: int):
    """The saturated chain, as one-line permutations, from the witness-family
    target of S_4k up to the top element, each step the least cover w t (by
    one-line order) over the reflections t; and the per-step bound
    C(2k, k) / steps on the equations one codimension-one step adds."""
    g = type_a_group(4 * k)
    cur, top = g.from_one_line(_block_reversal(k)), g.longest_element()
    chain = [cur]
    while cur != top:
        covers = (g.multiply(cur, t) for t in g.reflections())
        cur = min((v for v in covers if v.length == cur.length + 1), key=g.one_line)
        chain.append(cur)
    return [g.one_line(v) for v in chain], Fraction(comb(2 * k, k), len(chain) - 1)


def reflection_weight_map(group, i: int) -> dict:
    """alpha -> s_alpha omega_i on R(i): an embedding of R(i) into the orbit
    minus omega_i."""
    table = orbit_table(group, i)
    omega = table.weights[0].labels
    return {rt: table.weights[table.by_labels[group.reflect_root(rt, omega)]]
            for rt in roots_R(group, i)}


def linear_order_check(group, i: int) -> bool:
    """Whether the Bruhat order on W omega_i is a total order.  The table
    order extends it, so it is total iff it is the table order, i.e. iff
    every down-set is a prefix of the table."""
    return all(m == (2 << k) - 1 for k, m in enumerate(orbit_table(group, i).down_masks()))


def feedback_free_certificate(n: int, I):
    """(u, x, v, y) for a subset I != [1, |I|] of [1, n], i = |I|: with
    a = max I and b = max([1, a] - I), u lists I - {a}, a, b, then the rest
    ascending; x is the coordinate flag of u plus e_b in column i, and y is
    the coordinate flag of v = u s_i.  Their patterns should differ exactly
    at p_I, with witnesses u and v."""
    i, a = len(I), max(I)
    b = max(set(range(1, a)) - set(I))
    u = (*sorted(set(I) - {a}), a, b, *sorted(set(range(1, n + 1)) - set(I) - {b}))
    cols = [[int(r == x) for r in range(1, n + 1)] for x in u]
    cols[i - 1][b - 1] = 1
    v = u[:i - 1] + (b, a) + u[i + 1:]
    return u, flag_from_columns(cols), v, coordinate_flag(v)
