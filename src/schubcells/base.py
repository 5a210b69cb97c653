"""Bases of finite posets and of Weyl groups, bigrassmannian permutations,
and feedback-free recognition of generic patterns.

The base of a poset is the set of elements that cannot be written as the
supremum of other elements; mapping each element to the base elements below
it embeds the poset into a Boolean lattice, and the base is the smallest
subset with that property.  For a Weyl group under Bruhat order every base
element has a unique left and a unique right descent; attaching to each base
element u (with right descent i) the weight u omega_i yields the minimal set
of Plucker coordinates whose generic vanishing pattern identifies a cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plucker import PluckerWeight, ones, orbit_table, weight_of
from .weyl import WeylElement, WeylGroup


class FinitePoset:
    """A finite poset with unique minimum and maximum, stored as up-set
    bitmasks over an indexed element list."""

    def __init__(self, elements, up_masks: list[int]):
        self.elements = list(elements)
        self.up = list(up_masks)
        n = len(self.elements)
        if len(self.up) != n:
            raise ValueError("one up-mask per element required")
        for j in range(n):
            if not self.up[j] >> j & 1:
                raise ValueError("order must be reflexive")
        self.down = [0] * n
        for j in range(n):
            acc = 0
            for k in ones(self.up[j]):
                if j != k and self.up[k] >> j & 1:
                    raise ValueError("order must be antisymmetric")
                self.down[k] |= 1 << j
                acc |= self.up[k]
            if acc != self.up[j]:
                raise ValueError("order must be transitive")
        mins = [j for j in range(n) if self.down[j] == 1 << j]
        maxs = [j for j in range(n) if self.up[j] == 1 << j]
        if len(mins) != 1 or len(maxs) != 1:
            raise ValueError("poset must have a unique minimum and maximum")
        self.minimum = mins[0]
        self.maximum = maxs[0]

    @classmethod
    def from_leq(cls, elements, leq) -> "FinitePoset":
        elements = list(elements)
        masks = []
        for a in elements:
            m = 0
            for k, b in enumerate(elements):
                if leq(a, b):
                    m |= 1 << k
            masks.append(m)
        return cls(elements, masks)

    def __len__(self):
        return len(self.elements)

    def index(self, x) -> int:
        return self.elements.index(x)

    def leq_idx(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def leq(self, x, y) -> bool:
        return self.leq_idx(self.index(x), self.index(y))


def supremum_idx(P: FinitePoset, Q) -> int | None:
    """Least upper bound of the index set Q, or None when it does not exist."""
    ub = (1 << len(P)) - 1
    for q in Q:
        ub &= P.up[q]
    if ub == 0:
        return None
    return next((k for k in ones(ub) if ub & ~P.up[k] == 0), None)


def supremum(P: FinitePoset, Q):
    """Least upper bound of a subset of elements, or None."""
    idx = supremum_idx(P, [P.index(q) for q in Q])
    return None if idx is None else P.elements[idx]


def poset_base_indices(P: FinitePoset) -> list[int]:
    """Indices of the elements not expressible as a supremum of others.

    ``a`` is such a supremum iff sup(strict lower set of a) = a, which holds
    iff the upper bounds of that lower set are exactly the up-set of a.
    """
    n = len(P)
    full = (1 << n) - 1
    out = []
    for a in range(n):
        ub = full
        for k in ones(P.down[a] & ~(1 << a)):
            ub &= P.up[k]
        if ub != P.up[a]:
            out.append(a)
    return out


def poset_base(P: FinitePoset) -> list:
    return [P.elements[a] for a in poset_base_indices(P)]


@dataclass(frozen=True)
class BaseElement:
    element: WeylElement
    left_descent: int
    right_descent: int


def bruhat_poset(group: WeylGroup) -> FinitePoset:
    """Bruhat order on the enumerated group by Deodhar's criterion [BB05 2.6]:
    u <= v iff u omega_i <= v omega_i for every level i.  Each orbit up-set
    is pulled back to W through the fibres of w -> w omega_i."""
    if group.poset is not None:
        return group.poset
    elems = group.elements()
    up = [(1 << len(elems)) - 1] * len(elems)
    for i in range(1, group.rank + 1):
        table = orbit_table(group, i)
        pos = [table.position(w) for w in elems]
        fibre = [0] * len(table)
        for j, k in enumerate(pos):
            fibre[k] |= 1 << j
        # fibres are disjoint, so their sum is their union
        pulled = [sum(fibre[k] for k in ones(m)) for m in table.up_masks()]
        up = [u & pulled[k] for u, k in zip(up, pos)]
    group.poset = FinitePoset(elems, up)
    return group.poset


def weyl_base(group: WeylGroup) -> tuple[BaseElement, ...]:
    """The base of the Bruhat order, with the (unique) descent data."""
    if group.base is not None:
        return group.base
    P = bruhat_poset(group)
    members = []
    for idx in poset_base_indices(P):
        w = P.elements[idx]
        left = group.left_descents(w)
        right = group.right_descents(w)
        if len(left) != 1 or len(right) != 1:
            raise RuntimeError(
                f"base element {w.word} has descents L={sorted(left)} R={sorted(right)}"
            )
        members.append(BaseElement(w, min(left), min(right)))
    group.base = tuple(members)
    return group.base


def base_weights(group: WeylGroup) -> tuple[PluckerWeight, ...]:
    """One Plucker weight per base element, through its right descent."""
    return tuple(
        weight_of(group, b.element, b.right_descent) for b in weyl_base(group)
    )


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

    ``bits`` maps each base weight to 0/1.  Returns the unique w whose base
    lower set matches the 1-bits, or None when no element matches.
    """
    weights = base_weights(group)
    base = weyl_base(group)
    missing = [pw for pw in weights if pw not in bits]
    if missing:
        raise ValueError(f"bits missing for {len(missing)} base weights")
    P = bruhat_poset(group)
    n = len(P)
    candidates = (1 << n) - 1
    for b, pw in zip(base, weights):
        mask = P.up[P.index(b.element)]
        candidates &= mask if bits[pw] else ~mask
    matches = [P.elements[k] for k in ones(candidates)]
    if len(matches) > 1:
        raise RuntimeError("base lower-sets failed to separate group elements")
    return matches[0] if matches else None


def _base_signatures(group: WeylGroup, skip: int | None = None):
    P = bruhat_poset(group)
    base = weyl_base(group)
    masks = [
        P.up[P.index(b.element)] for i, b in enumerate(base) if i != skip
    ]
    return P, [
        tuple(1 if m >> k & 1 else 0 for m in masks) for k in range(len(P))
    ]


def minimality_check(group: WeylGroup) -> bool:
    """The base weights separate all generic patterns, and no single deletion
    still does.

    Separation is strictly weaker than the order-embedding property (see
    embedding_minimality_check); deletion-minimality under mere separation is
    a type A phenomenon and fails already for B2.
    """
    _, signatures = _base_signatures(group)
    n = len(signatures)
    if len(set(signatures)) != n:
        return False
    for drop in range(len(weyl_base(group))):
        _, reduced = _base_signatures(group, skip=drop)
        if len(set(reduced)) == n:
            return False
    return True


def _is_order_embedding(P: FinitePoset, signatures) -> bool:
    sets = [frozenset(j for j, b in enumerate(sig) if b) for sig in signatures]
    n = len(P)
    for a in range(n):
        for b in range(n):
            if P.leq_idx(a, b) != (sets[a] <= sets[b]):
                return False
    return True


def embedding_minimality_check(group: WeylGroup) -> bool:
    """The base weights embed the group order into the Boolean lattice, and
    no single deletion preserves the embedding."""
    P, signatures = _base_signatures(group)
    if not _is_order_embedding(P, signatures):
        return False
    for drop in range(len(weyl_base(group))):
        _, reduced = _base_signatures(group, skip=drop)
        if _is_order_embedding(P, reduced):
            return False
    return True
