"""Set-theoretic descriptions of Schubert varieties and cells.

  variety_equations          the universal defining set {gamma : gamma !<= w omega_i}
  cell_description_general   r inequalities plus the coset weights above w omega_i
  cell_description_economical  one equation per root kept positive by w, one
                               inequality per level hit by a flipped root
                               (requires an economical ordering)
  cell_description_typeA     the economical sets for permutations, in the
                               (i, j) order of the explicit subset form
  cell_description_typeD     economical-style sets under the dedicated D
                               ordering plus the sign-flip equations

The economical description uses exactly #positive-roots - length(w) equations
and at most min(rank, length(w)) inequalities; the equation count is
checked, not assumed.
"""

from __future__ import annotations

from .patterns import generic_pattern
from .plucker import (
    PluckerWeight,
    WeightOrdering,
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
    with the same data under the same order of levels are equal.
    ``incomparable`` (type D only) holds the candidate pairs the Bruhat
    comparison left undecided."""

    __slots__ = ("w", "equalities", "inequalities", "ordering", "incomparable")

    def __init__(self, w: WeylElement, equalities: tuple[PluckerWeight, ...],
                 inequalities: tuple[PluckerWeight, ...], ordering: WeightOrdering,
                 incomparable: tuple[tuple[PluckerWeight, PluckerWeight], ...] = ()):
        eq = set(equalities)
        if eq & set(inequalities):
            raise ValueError("a weight cannot be both an equality and an inequality")
        group = w.group
        for i in range(1, group.rank + 1):
            if weight_of(group, w, i) in eq:
                raise ValueError("w omega_i can never be required to vanish")
        self.w, self.equalities, self.inequalities = w, equalities, inequalities
        self.ordering, self.incomparable = ordering, incomparable

    def _key(self):
        return self.w, self.equalities, self.inequalities, self.ordering.order, self.incomparable

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
    if ordering is None:
        ordering = standard_ordering(group)
    ineqs = [weight_of(group, w, i) for i in ordering]
    eqs = []
    for pos in range(group.rank):
        table = orbit_table(group, ordering.order[pos])
        top = table.position(w)
        down = table.down_masks()
        indices, _words = table.suborbit(ordering.tail(pos))
        coset = {table.act(w.word, k) for k in indices}
        eqs.extend(table.weights[k] for k in sorted(coset) if k != top and down[k] >> top & 1)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def _root_plan(group: WeylGroup, ordering: WeightOrdering):
    """Per positive root alpha: (mu(alpha), index of s_alpha omega_mu(alpha))."""
    plan = group.root_plans.get(ordering.order)
    if plan is None:
        plan = []
        for rt in group.positive_roots():
            level = mu(group, rt, ordering)
            table = orbit_table(group, level)
            plan.append((level, table.by_labels[group.reflect_root(rt, table.weights[0].labels)]))
        plan = group.root_plans[ordering.order] = tuple(plan)
    return plan


def _economical_style_sets(group: WeylGroup, w: WeylElement, ordering: WeightOrdering):
    """Equalities {w s_alpha omega_{mu(alpha)} : w alpha > 0} and inequalities
    {w omega_i : some alpha with mu(alpha) = i has w alpha < 0}.  RuntimeError
    unless the equalities are #positive-roots - length(w) distinct weights."""
    eqs: list[PluckerWeight] = []
    ineq_levels: set[int] = set()
    for (level, k), sign in zip(_root_plan(group, ordering), group.root_signs(w)):
        if sign > 0:
            table = orbit_table(group, level)
            eqs.append(table.weights[table.act(w.word, k)])
        else:
            ineq_levels.add(level)
    if len(set(eqs)) != len(eqs):
        raise RuntimeError("economical equalities unexpectedly collided")
    expected = len(group.positive_roots()) - w.length
    if len(eqs) != expected:
        raise RuntimeError(f"expected {expected} equations, generated {len(eqs)}")
    ineqs = [weight_of(group, w, i) for i in ordering if i in ineq_levels]
    return eqs, ineqs


def cell_description_economical(
    group: WeylGroup, w: WeylElement, ordering: WeightOrdering | None = None
) -> CellDescription:
    if ordering is None:
        ordering = standard_ordering(group)
    if not is_economical_ordering(group, ordering):
        raise ValueError(
            f"ordering {ordering.order} is not economical for {group.datum.name}"
        )
    eqs, ineqs = _economical_style_sets(group, w, ordering)
    return CellDescription(w, tuple(eqs), tuple(ineqs), ordering)


def cell_description_typeA(group: WeylGroup, w) -> CellDescription:
    """The economical sets of the standard ordering in the order of the
    explicit form for permutations: p_{w([1,i-1] + {j})} = 0 for i < j with
    w(i) < w(j), by (i, j), and p_{w([1,i])} != 0 when some later value drops
    below w(i), by i."""
    if group.type_letter != "A":
        raise ValueError("type A description requires a type A group")
    if isinstance(w, WeylElement):
        perm = group.one_line(w)
        elem = w
    else:
        perm = tuple(w)
        elem = group.from_one_line(perm)
    ordering = standard_ordering(group)
    eqs, ineqs = _economical_style_sets(group, elem, ordering)
    # an equality of level i has rows w([1,i-1]) + {w(j)}; rank it by (i, j)
    prefix, position = [0], {}
    for j, v in enumerate(perm):
        prefix.append(prefix[-1] | 1 << v - 1)
        position[v] = j
    eqs.sort(key=lambda pw: (pw.level, position[(pw.rows ^ prefix[pw.level - 1]).bit_length()]))
    return CellDescription(elem, tuple(eqs), tuple(ineqs), ordering)


def cell_description_typeD(group: WeylGroup, w: WeylElement) -> CellDescription:
    """Economical-style sets under the dedicated D ordering, extended by the
    equations p_{w(e_1+...+e_{i-1}-e_i)} = 0 whenever that weight lies
    strictly above w(e_1+...+e_i), for i <= r-3.

    Candidate pairs on which the Bruhat comparison is undecided are not
    turned into equations; they are reported in ``incomparable``.
    """
    if group.type_letter != "D":
        raise ValueError("type D description requires a type D group")
    ordering = standard_ordering(group)
    eqs, ineqs = _economical_style_sets(group, w, ordering)
    r = group.rank
    seen = set(eqs)
    incomparable = []
    for i in range(1, r - 2):
        table = orbit_table(group, i)
        # e_1 + ... + e_{i-1} - e_i has labels 2 at i - 1 and -1 at i
        flipped = tuple(2 if j == i - 1 else -1 if j == i else 0 for j in range(1, r + 1))
        candidate = table.weights[table.act(w.word, table.by_labels[flipped])]
        top = weight_of(group, w, i)
        above = table.leq(top, candidate) and candidate != top
        below = table.leq(candidate, top)
        if above:
            if candidate not in seen:
                eqs.append(candidate)
                seen.add(candidate)
        elif not below and candidate != top:
            incomparable.append((candidate, top))
    return CellDescription(
        w, tuple(eqs), tuple(ineqs), ordering, incomparable=tuple(incomparable)
    )


def verify_description(description, pattern) -> bool:
    """Whether a vanishing pattern satisfies all equalities (bit 0) and all
    inequalities (bit 1) of a cell or variety description."""
    return all(pattern.bit(pw) == 0 for pw in description.equalities) and all(
        pattern.bit(pw) == 1 for pw in description.inequalities
    )
