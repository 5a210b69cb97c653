"""Test oracle: finite posets with suprema, and the Bruhat order as a poset
on all of W.

The package never builds a poset on W; its base is read off the orbit posets
W omega_i.  This oracle enumerates W and pulls each orbit order back to it,
so the base of W can be taken by definition and compared.  ``FinitePoset``
validates a mask table (reflexive, antisymmetric, transitive, bounded), and
``supremum`` lets a base be checked against its literal definition.

In type A, Ehresmann's criterion compares permutations directly: u <= v iff
sorted(u([1, i])) <= sorted(v([1, i])) componentwise for every i.
``ehresmann_leq`` and ``subset_leq`` are that oracle, with the inversion
count ``length`` and the transposition ``right_mult_transposition``.
"""

from schubcells.base import poset_base_indices
from schubcells.plucker import ones, orbit_table


def length(w) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def prefix_set(w, i) -> frozenset[int]:
    """w([1, i])."""
    return frozenset(w[:i])


def subset_leq(J, K) -> bool:
    """Componentwise comparison of the sorted i-subsets J and K."""
    sj, sk = sorted(J), sorted(K)
    if len(sj) != len(sk):
        raise ValueError("subset comparison requires equal cardinalities")
    return all(a <= b for a, b in zip(sj, sk))


def ehresmann_leq(u, v) -> bool:
    """u <= v in Bruhat order via the prefix-subset criterion."""
    n = len(u)
    return all(subset_leq(u[:i], v[:i]) for i in range(1, n))


def right_mult_transposition(w, a, b):
    """w * t_{a,b}: swap the values in positions a and b (1-based)."""
    out = list(w)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


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

    def leq_idx(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)


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
    idx = supremum_idx(P, [P.elements.index(q) for q in Q])
    return None if idx is None else P.elements[idx]


def poset_base(P: FinitePoset) -> list:
    return [P.elements[a] for a in poset_base_indices(P.up, P.down)]


def bruhat_poset(group) -> FinitePoset:
    """Bruhat order on the enumerated group by Deodhar's criterion [BB05 2.6]:
    u <= v iff u omega_i <= v omega_i for every level i.  Each orbit up-set
    is pulled back to W through the fibres of w -> w omega_i."""
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
    return FinitePoset(elems, up)
