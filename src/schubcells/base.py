"""Bases of Weyl groups and of the orbit posets they are read from,
bigrassmannian permutations, and feedback-free recognition of generic
patterns.

The base of a poset is the set of elements that cannot be written as the
supremum of other elements; mapping each element to the base elements below
it embeds the poset into a Boolean lattice, and the base is the smallest
subset with that property.  For a Weyl group under Bruhat order every base
element has a unique left and a unique right descent; attaching to each base
element u (with right descent i) the weight u omega_i yields the minimal set
of Plucker coordinates whose generic vanishing pattern identifies a cell.
They are the bases of the orbit posets W omega_i (see weyl_base), so no
poset on W is built: each orbit poset is its table's up- and down-masks,
whose base poset_base_indices takes, and a generic pattern is one down-mask
per level.
"""

from __future__ import annotations

from .patterns import VanishingPattern, element_of_weights, generic_pattern
from .plucker import PluckerWeight, orbit_table, weight_of
from .weyl import WeylElement, WeylGroup


def poset_base_indices(up: list[int], down: list[int]) -> list[int]:
    """Indices of the elements not expressible as a supremum of others, in a
    poset given by its up-set and down-set bitmasks.

    ``a`` is such a supremum iff sup(strict lower set of a) = a, which holds
    iff the upper bounds of that lower set are exactly the up-set of a.  An
    element's upper bounds include those of every element it is above, so
    each pick drops its own lower set; picking the highest index first takes
    only the lower covers when indices extend the order.
    """
    n = len(up)
    out = []
    for a in range(n):
        ub, rest = (1 << n) - 1, down[a] & ~(1 << a)
        while rest:
            k = rest.bit_length() - 1
            ub &= up[k]
            rest &= ~down[k]
        if ub != up[a]:
            out.append(a)
    return out


class BaseElement:
    __slots__ = ("element", "left_descent", "right_descent")

    def __init__(self, element: WeylElement, left_descent: int, right_descent: int):
        self.element, self.left_descent, self.right_descent = element, left_descent, right_descent

    def __eq__(self, other):
        return isinstance(other, BaseElement) and (
            self.element, self.left_descent, self.right_descent
        ) == (other.element, other.left_descent, other.right_descent)

    def __hash__(self):
        return hash((self.element, self.left_descent, self.right_descent))


def weyl_base(group: WeylGroup) -> tuple[BaseElement, ...]:
    """The base of the Bruhat order, with the (unique) descent data, in
    (length, word) order, read off the orbit tables without enumerating W.

    Every base element b is bigrassmannian [LS96, GK97].  With right descent
    i it is the minimal representative of its coset in W/W_J, J = S - {i},
    so z >= b iff z omega_i >= b omega_i.  An upper bound of everything below
    b that is not above b may be replaced by the top of its J-coset (lifting
    property), and coset tops compare as their orbit entries.  So b is in the
    base of W iff b omega_i is in the base of the orbit poset W omega_i.
    The tables' masks are not re-validated: the tests pin them to an oracle.
    """
    if group.base is not None:
        return group.base
    members = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        for k in poset_base_indices(table.up_masks(), table.down_masks()):
            w = table.weights[k].min_rep  # its right descent is i
            left = group.left_descents(w)
            if len(left) != 1:
                raise RuntimeError(f"base element {w.word} has left descents {sorted(left)}")
            members.append(BaseElement(w, min(left), i))
    members.sort(key=lambda b: (b.element.length, b.element.word))
    group.base = tuple(members)
    return group.base


def base_weights(group: WeylGroup) -> tuple[PluckerWeight, ...]:
    """One Plucker weight per base element, through its right descent."""
    return tuple(weight_of(group, b.element, b.right_descent) for b in weyl_base(group))


def bigrassmannian_typeA(n: int):
    """All (a, b, c) block-exchange permutations of S_n with their coordinate
    subsets [1,a] + [b+1,c]; one triple per 0 <= a < b < c <= n."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    for a in range(0, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                perm = (
                    tuple(range(1, a + 1))
                    + tuple(range(b + 1, c + 1))
                    + tuple(range(a + 1, b + 1))
                    + tuple(range(c + 1, n + 1))
                )
                subset = frozenset(range(1, a + 1)) | frozenset(range(b + 1, c + 1))
                out.append(((a, b, c), perm, subset))
    return out


def generic_recognize_from_base(group: WeylGroup, bits) -> WeylElement | None:
    """Invert a restriction of a generic pattern to the base weights.

    ``bits`` maps each base weight to 0/1.  The base weights of level i
    separate the orbit W omega_i, so ANDing their up-sets (1-bits) and the
    complements (0-bits) leaves at most one entry, w omega_i; w is read off
    the picked weights.  Returns None when no element matches.
    """
    weights = base_weights(group)
    missing = [pw for pw in weights if pw not in bits]
    if missing:
        raise ValueError(f"bits missing for {len(missing)} base weights")
    picked = []
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        ups = table.up_masks()
        candidates = (1 << len(table)) - 1
        for pw in weights:
            if pw.level == i:
                candidates &= ups[pw.index] if bits[pw] else ~ups[pw.index]
        if candidates & (candidates - 1):
            raise RuntimeError("base lower-sets failed to separate orbit entries")
        if not candidates:
            return None
        picked.append(table.weights[candidates.bit_length() - 1])
    return element_of_weights(group, picked)


def _generic_masks(group: WeylGroup) -> list[tuple[VanishingPattern, int]]:
    """Per element of W, its generic pattern and that pattern's restriction
    to the base weights as a bitmask.  u <= v iff the pattern of u is
    contained in that of v (Deodhar's criterion)."""
    weights = base_weights(group)
    pats = [generic_pattern(group, w) for w in group.elements()]
    return [(p, sum(p.bit(c) << j for j, c in enumerate(weights))) for p in pats]


def _deletion_minimal(group: WeylGroup, holds) -> bool:
    """holds(kept) for the mask of all base weights, and for no mask that
    drops a single one."""
    keep = (1 << len(weyl_base(group))) - 1
    return holds(keep) and not any(holds(keep & ~(1 << j)) for j in range(keep.bit_length()))


def minimality_check(group: WeylGroup) -> bool:
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


def embedding_minimality_check(group: WeylGroup) -> bool:
    """The base weights embed the group order into the Boolean lattice, and
    no single deletion preserves the embedding."""
    masks = _generic_masks(group)
    pairs = [(ru, rv, pu <= pv) for pu, ru in masks for pv, rv in masks]
    return _deletion_minimal(group, lambda kept: all(
        (ru & ~rv & kept == 0) == below for ru, rv, below in pairs
    ))
