"""Quantitative negative results at desk scale: the exponential witness
family for defining one Schubert variety, the exact minimal defining set (a
lower bound over coordinate-flag witnesses) from the hitting-set engine
``_min_hitting_set``, and the minimal feedback-free set of C^n, listed from
its proof with no search.

The witness family is listed as raw one-line permutations, up to S_12,
where no orbit table is built; it does not check itself, as the tests
certify its defining properties for every k it accepts.  The defining-set
search reads u <= w off the package's one Bruhat engine, the down-masks of
the A_{n-1} orbit tables: u <= w exactly when every prefix set u([1, i])
lies in the down-set of w omega_i [FZ98 §1]; the universal count counts
the down-sets, by ``perms.down_count``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import perms
from .flags import type_a_group
from .plucker import ones, orbit_table, subset_of


# ----- witness family ---------------------------------------------------------


class WitnessFamily:
    __slots__ = ("k", "n", "w", "members", "lower_bound", "codimension")

    def __init__(self, k: int, n: int, w: tuple[int, ...], members: tuple[tuple[int, ...], ...],
                 lower_bound: int, codimension: int):
        self.k, self.n, self.w = k, n, w
        self.members, self.lower_bound, self.codimension = members, lower_bound, codimension

    @property
    def size(self) -> int:
        return len(self.members)


def construct_witness_family(k: int) -> WitnessFamily:
    """The C(2k,k)^2 permutations of S_{4k} witnessing that the variety of the
    longest element of S_{2k} x S_{2k} needs at least C(2k,k) equations.

    Each member sends [1,k] + [2k+1,3k] onto [1,2k] and increases on each of
    the four blocks.  Only k = 1, 2, 3 are accepted, and on each of them
    ``test_witness_properties_direct`` checks against the sorted-subset
    oracle that no member is below w, the block condition, the increasing
    blocks, the size and that at most C(2k,k) members share a prefix set
    that is not below w.
    """
    if not 1 <= k <= 3:
        raise ValueError(f"witness families are listed for k in 1..3, not {k}")
    n = 4 * k
    low, high = range(1, 2 * k + 1), range(2 * k + 1, n + 1)
    members = tuple(
        A + B + tuple(x for x in low if x not in A) + tuple(x for x in high if x not in B)
        for A in combinations(low, k) for B in combinations(high, k))
    return WitnessFamily(k=k, n=n, w=_block_reversal(k), members=members,
                         lower_bound=comb(2 * k, k), codimension=(n // 2) ** 2)


def _block_reversal(k: int) -> tuple[int, ...]:
    """(2k, ..., 1, 4k, ..., 2k + 1): the longest element of S_2k x S_2k in S_4k."""
    return tuple(range(2 * k, 0, -1)) + tuple(range(4 * k, 2 * k, -1))


# ----- exact minimal defining sets (hitting set over coordinate flags) -----------


def _constraint_families(w, n: int) -> tuple[list[frozenset[int]], list[int]]:
    """The coordinates I !<= w([1,|I|]), the universal defining set, in
    (|I|, sorted I) order, and per u !<= w, in ``perms.all_perms`` order,
    its family {u([1,i]) : u([1,i]) !<= w([1,i])} as an int, bit k for the
    k-th coordinate.  A level's coordinates are the entries outside the
    down-mask of w omega_i in the A_{n-1} orbit table; u <= w exactly when
    its family is 0.  Each coordinate I is an option of every u with I as a
    prefix set, so the numbering has no unused bit."""
    coords: list[frozenset[int]] = []
    bits: list[dict[int, int]] = []  # per level: row mask of I -> its bit
    prefix = 0
    for i, r in enumerate(w[:-1], 1):
        table = orbit_table(type_a_group(n), i)  # S_1 has no level, and no A0
        prefix |= 1 << r - 1
        down = table.down_masks()[table.by_rows[prefix].index]
        above = sorted((pw for pw in table.weights if not down >> pw.index & 1),
                       key=lambda pw: sorted(subset_of(pw)))
        bits.append({pw.rows: 1 << k for k, pw in enumerate(above, len(coords))})
        coords += map(subset_of, above)
    families = []
    for u in perms.all_perms(n):
        family = prefix = 0
        for r, level in zip(u, bits):
            prefix |= 1 << r - 1
            family |= level.get(prefix, 0)
        if family:
            families.append(family)
    return coords, families


def _min_hitting_set(masks) -> tuple[int, int]:
    """Exact minimum hitting set of int bitmasks as (size, chosen bits); the
    size is len(masks) + 1 when a mask is 0.  Branch and bound: masks go
    shortest first, the search branches on the bits of the first unhit mask
    in bit order and cuts when its size plus a greedy packing of disjoint
    unhit masks, a lower bound, reaches the best size, so it returns the
    first optimal leaf in DFS order."""
    masks = sorted(masks, key=int.bit_count)
    count = len(masks)
    best = [count + 1, 0]

    def search(chosen: int, size: int, idx: int):
        while idx < count and masks[idx] & chosen:
            idx += 1
        if idx == count:
            if size < best[0]:
                best[:] = [size, chosen]
            return
        packed, used = 0, chosen
        for m in masks[idx:]:
            if not m & used:
                used |= m
                packed += 1
        if size + packed >= best[0]:
            return
        for k in ones(masks[idx]):
            search(chosen | 1 << k, size + 1, idx + 1)

    search(0, 0, 0)
    return tuple(best)


def minimum_defining_hitting_set(w, n: int) -> tuple[int, tuple[frozenset[int], ...]]:
    """Exact minimum hitting set: a set of coordinates killing the coordinate
    flag of every u !<= w.  Valid as a lower bound on the number of equations
    defining the variety of w.

    The families are ints over the coordinates of ``_constraint_families``;
    ``_min_hitting_set`` returns the first optimal leaf of its DFS, the
    certificate."""
    w = perms.check_permutation(w, n)
    if n > 7:
        raise ValueError("exact hitting-set search is capped at n = 7")
    coords, families = _constraint_families(w, n)
    size, chosen = _min_hitting_set(families)
    return size, tuple(coords[k] for k in ones(chosen))


def variety_equation_count(w, n: int) -> int:
    """Size of the universal defining set {I : I !<= w([1,|I|])}."""
    w = perms.check_permutation(w, n)
    return sum(comb(n, i) - perms.down_count(w[:i]) for i in range(1, n))


# ----- feedback-free recognition ---------------------------------------------------


class FeedbackFreeResult:
    """A smallest feedback-free set of C^n; ``unique``: no other set of its
    size separates the cells, True at every n by ``feedback_free_min_set``."""

    __slots__ = ("n", "size", "subsets", "unique")

    def __init__(self, n: int, size: int, subsets: tuple[frozenset[int], ...], unique: bool):
        self.n, self.size, self.subsets, self.unique = n, size, subsets, unique


def feedback_free_min_set(n: int) -> FeedbackFreeResult:
    """The one smallest set of Plucker coordinates of C^n whose vanishing
    pattern names the cell of every flag: every p_I but the p_[1,i], in
    (|I|, sorted I) order, 2^n - n - 1 of them.  Listed for n in 2..16
    (65,519 at n = 16); any other n raises ValueError.

    Enough: omega_i = p_[1,i] is index 0, below every level-i entry.  So the
    level-i maximum of an acceptable vector is read off the other bits, and
    it is omega_i exactly when they are all 0.

    Needed: take I != [1,i] with |I| = i, a = max I, b = max([1,a] - I) and
    u = (I - {a}, a, b, the rest ascending).  The coordinate flag of u plus
    e_b in column i and the coordinate flag of u s_i span the same first j
    columns for j != i, and at level i the first has the nonzero minors I
    and I - a + b, the second I - a + b only.  So they differ exactly at
    p_I, in the cells u and u s_i: every separating set holds p_I.
    """
    if not 2 <= n <= 16:
        raise ValueError(f"the feedback-free set is listed for n in 2..16, not {n}")
    subsets = tuple(frozenset(I) for i in range(1, n) for I in combinations(range(1, n + 1), i)
                    if I[-1] != i)
    return FeedbackFreeResult(n=n, size=len(subsets), subsets=subsets, unique=True)
