"""Test oracle: the Bruhat order as a poset on all of W.

The package never builds a poset on W; its base is read off the orbit posets
W omega_i.  This oracle enumerates W and pulls each orbit order back to it,
so the base of W can be taken by definition and compared.
"""

from schubcells.base import FinitePoset
from schubcells.plucker import ones, orbit_table


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
