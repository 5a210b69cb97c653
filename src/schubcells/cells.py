"""Set-theoretic descriptions of Schubert varieties and cells.

  variety_equations          the universal defining set {gamma : gamma !<= w omega_i}
  cell_description_general   r inequalities plus the coset weights above w omega_i
  cell_description_economical  one equation per root kept positive by w, one
                               inequality per level hit by a flipped root
                               (requires an economical ordering)
  cell_description_typeA     the economical sets for permutations, in level order
  cell_description_typeD     economical-style sets under the dedicated D
                               ordering plus the sign-flip equations

The economical description uses exactly #positive-roots - length(w) equations
and at most min(rank, length(w)) inequalities.

w alpha > 0 iff w s_alpha omega_mu (mu = mu(alpha)) has a larger orbit-table
index than w omega_mu: it is s_{w alpha}(w omega_mu), and <w omega_mu,
(w alpha)^vee> = <omega_mu, alpha^vee> > 0, so it is strictly above w omega_mu
in Bruhat order iff w alpha > 0, and table indices extend that order.

Type A in level order is the explicit (i, j) order.  ``positive_roots`` comes
by height and the equalities are appended in that order.  In A_{n-1} the root
e_a - e_b (a < b) has mu = a under the standard ordering and height b - a,
and its equality p_{w([1,a-1] + {b})} is coordinate (i, j) = (a, b); so
within a level the equalities already run by j, and a stable sort by level
gives the (i, j) order.

Type D: the candidate w(e_1+...+e_{i-1}-e_i) is an equation exactly when it
lies above w omega_i.  Its weight minus omega_i is -2e_i, while s_alpha
omega_i = omega_i - <omega_i, alpha^vee> alpha and every root of D has two
nonzero epsilon-coordinates, so no root gives it: the candidate is never an
economical equality of its level, nor w omega_i, as w is injective on the
orbit.  Distinct i give distinct levels, so no two candidates coincide.
"""

from __future__ import annotations

from .patterns import generic_pattern
from .plucker import (
    PluckerWeight,
    WeightOrdering,
    active_ordering,
    all_weights,
    is_economical_ordering,
    mu,
    orbit_table,
    standard_ordering,
    weight_of,
)
from .weyl import WeylElement, WeylGroup


class CellDescription:
    """Equalities and inequalities cutting out the cell of w; descriptions
    with the same data under the same order of levels are equal."""

    __slots__ = ("w", "equalities", "inequalities", "ordering")

    def __init__(self, w: WeylElement, equalities: tuple[PluckerWeight, ...],
                 inequalities: tuple[PluckerWeight, ...], ordering: WeightOrdering):
        eq = set(equalities)
        if eq & set(inequalities):
            raise ValueError("a weight cannot be both an equality and an inequality")
        group = w.group
        for i in range(1, group.rank + 1):
            if weight_of(group, w, i) in eq:
                raise ValueError("w omega_i can never be required to vanish")
        self.w, self.equalities, self.inequalities = w, equalities, inequalities
        self.ordering = ordering

    def _key(self):
        return self.w, self.equalities, self.inequalities, self.ordering.order

    def __eq__(self, other):
        return isinstance(other, CellDescription) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def size(self) -> int:
        return len(self.equalities) + len(self.inequalities)


class VarietyDescription:
    __slots__ = ("w", "equalities")

    def __init__(self, w: WeylElement, equalities: tuple[PluckerWeight, ...]):
        self.w = w
        self.equalities = equalities

    @property
    def inequalities(self) -> tuple[PluckerWeight, ...]:
        return ()


def variety_equations(group: WeylGroup, w: WeylElement) -> VarietyDescription:
    """All Plucker weights not below the per-level maxima of w: the zeros of
    the generic pattern of w, in ``all_weights`` order."""
    pattern = generic_pattern(group, w)
    return VarietyDescription(w, tuple(pw for pw in all_weights(group) if not pattern.bit(pw)))


def cell_description_general(
    group: WeylGroup, w: WeylElement, ordering: WeightOrdering | None = None
) -> CellDescription:
    """All r inequalities p_{w omega_i} != 0 plus, per level, the coset-orbit
    weights w W_J omega_i strictly above w omega_i, in orbit-table order."""
    ordering = active_ordering(group, ordering)
    ineqs = [weight_of(group, w, i) for i in ordering]
    eqs = []
    for pos in range(group.rank):
        table = orbit_table(group, ordering.order[pos])
        top = table.position(w)
        down = table.down_masks()
        indices, _words = table.suborbit(ordering.tail(pos))
        coset = {table.act(w.reduced, k) for k in indices}
        eqs.extend(table.weights[k] for k in sorted(coset) if k != top and down[k] >> top & 1)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def _root_plan(group: WeylGroup, ordering: WeightOrdering):
    """Per positive root alpha: (table of mu(alpha), index of s_alpha omega_mu(alpha))."""
    plan = group.root_plans.get(ordering.order)
    if plan is None:
        plan = []
        for rt in group.positive_roots():
            table = orbit_table(group, mu(group, rt, ordering))
            plan.append((table, table.by_labels[group.reflect_root(rt, table.weights[0].labels)]))
        plan = group.root_plans[ordering.order] = tuple(plan)
    return plan


def _economical_style_sets(group: WeylGroup, w: WeylElement, ordering: WeightOrdering):
    """Equalities {w s_alpha omega_{mu(alpha)} : w alpha > 0} and inequalities
    {w omega_i : some alpha with mu(alpha) = i has w alpha < 0}.  The
    equalities are #positive-roots - length(w) distinct weights for any
    ordering, D's included: length(w) counts the alpha > 0 with w alpha < 0,
    and s_alpha omega_i = omega_i - <omega_i, alpha^vee> alpha with a
    positive pairing, so s_alpha omega_i = s_beta omega_i forces alpha = beta
    (``test_economical_counts``, ``test_typeD_counts_and_membership``)."""
    tops = {i: orbit_table(group, i).position(w) for i in ordering}  # w omega_i
    eqs: list[PluckerWeight] = []
    ineq_levels: set[int] = set()
    for table, k in _root_plan(group, ordering):
        j = table.act(w.reduced, k)
        if j > tops[table.level]:
            eqs.append(table.weights[j])
        else:
            ineq_levels.add(table.level)
    ineqs = [orbit_table(group, i).weights[tops[i]] for i in ordering if i in ineq_levels]
    return eqs, ineqs


def cell_description_economical(
    group: WeylGroup, w: WeylElement, ordering: WeightOrdering | None = None
) -> CellDescription:
    ordering = active_ordering(group, ordering)
    if not is_economical_ordering(group, ordering):
        raise ValueError(
            f"ordering {ordering.order} is not economical for {group.datum.name}"
        )
    eqs, ineqs = _economical_style_sets(group, w, ordering)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def cell_description_typeA(group: WeylGroup, w) -> CellDescription:
    """The economical sets of the standard ordering in level order, which is
    the order of the explicit form for permutations: p_{w([1,i-1] + {j})} = 0
    for i < j with w(i) < w(j), by (i, j), and p_{w([1,i])} != 0 when some
    later value drops below w(i), by i.  ``w`` may be one-line."""
    if group.type_letter != "A":
        raise ValueError("type A description requires a type A group")
    if not isinstance(w, WeylElement):
        w = group.from_one_line(tuple(w))
    ordering = standard_ordering(group)
    eqs, ineqs = _economical_style_sets(group, w, ordering)
    eqs.sort(key=lambda pw: pw.level)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def cell_description_typeD(group: WeylGroup, w: WeylElement) -> CellDescription:
    """Economical-style sets under the dedicated D ordering, extended by the
    equations p_{w(e_1+...+e_{i-1}-e_i)} = 0 whenever that weight lies above
    w(e_1+...+e_i), for i <= r-3 (module docstring)."""
    if group.type_letter != "D":
        raise ValueError("type D description requires a type D group")
    ordering = standard_ordering(group)
    eqs, ineqs = _economical_style_sets(group, w, ordering)
    r = group.rank
    for i in range(1, r - 2):
        table = orbit_table(group, i)
        # e_1 + ... + e_{i-1} - e_i has labels 2 at i - 1 and -1 at i
        flipped = tuple(2 if j == i - 1 else -1 if j == i else 0 for j in range(1, r + 1))
        candidate = table.weights[table.act(w.reduced, table.by_labels[flipped])]
        if table.leq(weight_of(group, w, i), candidate):
            eqs.append(candidate)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def verify_description(description, pattern) -> bool:
    """Whether a vanishing pattern satisfies all equalities (bit 0) and all
    inequalities (bit 1) of a cell or variety description."""
    return all(pattern.bit(pw) == 0 for pw in description.equalities) and all(
        pattern.bit(pw) == 1 for pw in description.inequalities
    )
