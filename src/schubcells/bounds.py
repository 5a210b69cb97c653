"""Quantitative negative results at desk scale: the exponential witness
family for defining one Schubert variety, and two exact questions answered
by one hitting-set engine, ``_min_hitting_set``: the minimal defining set
(a lower bound over coordinate-flag witnesses) and the minimal
feedback-free recognition set for n <= 4.

Everything here but the feedback-free search works on raw one-line
permutations, up to S_12 for the witness family, where no orbit table is
built.  u <= w in Bruhat order exactly when every prefix set u([1, i]) lies
in the down-set of w([1, i]), read as row masks from ``perms.down_rows``;
``_violations`` lists the prefixes that do not, and the defining sets and
witness checks are read off it; the equation counts only count the
down-sets, by ``perms.down_count``.  The feedback-free search reads the
exact realizable patterns of ``flags.realizable_full_patterns``, so its
answer is exact for every n in 2..4.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import perms
from .flags import realizable_full_patterns, type_a_group
from .plucker import all_weights, ones, subset_of


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
    the four blocks; all three defining properties are verified.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 4 * k
    if n > 12:
        raise ValueError("witness construction is verified exhaustively only up to n = 12")
    w = _block_reversal(k)
    first_blocks = list(combinations(range(1, 2 * k + 1), k))
    second_blocks = list(combinations(range(2 * k + 1, 4 * k + 1), k))
    members = []
    for A in first_blocks:
        restA = sorted(set(range(1, 2 * k + 1)) - set(A))
        for Bv in second_blocks:
            restB = sorted(set(range(2 * k + 1, 4 * k + 1)) - set(Bv))
            u = tuple(sorted(A)) + tuple(sorted(Bv)) + tuple(restA) + tuple(restB)
            members.append(u)
    fam = WitnessFamily(
        k=k,
        n=n,
        w=w,
        members=tuple(members),
        lower_bound=comb(2 * k, k),
        codimension=(n // 2) ** 2,
    )
    _verify_witness_family(fam)
    return fam


def _block_reversal(k: int) -> tuple[int, ...]:
    """(2k, ..., 1, 4k, ..., 2k + 1): the longest element of S_2k x S_2k in S_4k."""
    return tuple(range(2 * k, 0, -1)) + tuple(range(4 * k, 2 * k, -1))


def _below(w) -> list[set[int]]:
    """Per level i = 1..n-1, the row masks of the down-set of w([1, i])."""
    return [set(perms.down_rows(w[:i])) for i in range(1, len(w))]


def _violations(u, below) -> list[frozenset[int]]:
    """The prefix sets u([1, i]) whose row mask is not in below[i - 1]; with
    below = _below(w), u <= w in Bruhat order exactly when there are none."""
    out, mask = [], 0
    for i, (r, down) in enumerate(zip(u, below), 1):
        mask |= 1 << r - 1
        if mask not in down:
            out.append(frozenset(u[:i]))
    return out


def _verify_witness_family(fam: WitnessFamily):
    k, n, w = fam.k, fam.n, fam.w
    target = frozenset(range(1, 2 * k + 1))
    below = _below(w)
    for u in fam.members:
        if not _violations(u, below):
            raise RuntimeError(f"witness {u} is below {w}")
        if frozenset(u[: k]) | frozenset(u[2 * k : 3 * k]) != target:
            raise RuntimeError(f"witness {u} misses the block condition")
        for lo, hi in ((0, k), (k, 2 * k), (2 * k, 3 * k), (3 * k, n)):
            block = u[lo:hi]
            if list(block) != sorted(block):
                raise RuntimeError(f"witness {u} is not increasing on a block")
    if fam.size != comb(2 * k, k) ** 2:
        raise RuntimeError("wrong family size")
    for count in witness_prefix_counts(fam).values():
        if count > comb(2 * k, k):
            raise RuntimeError("per-subset witness count exceeds the bound")


def witness_prefix_counts(fam: WitnessFamily) -> dict[frozenset[int], int]:
    """For each I with I !<= w([1,|I|]): how many members have I as a prefix set."""
    counts: dict[frozenset[int], int] = {}
    below = _below(fam.w)
    for u in fam.members:
        for I in _violations(u, below):
            counts[I] = counts.get(I, 0) + 1
    return counts


# ----- exact minimal defining sets (hitting set over coordinate flags) -----------


def _constraint_families(w, n: int):
    """For each u !<= w, the subsets I = u([1,i]) with I !<= w([1,i]); the
    permutations below w are the ones with no options."""
    below = _below(w)
    violated = (_violations(u, below) for u in perms.all_perms(n))
    return [frozenset(opts) for opts in violated if opts]


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

    Coordinate I is bit k when I is the k-th coordinate in (|I|, sorted I)
    order, and a family is the OR of its options; ``_min_hitting_set``
    returns the first optimal leaf of its DFS, the certificate."""
    w = perms.check_permutation(w, n)
    if n > 7:
        raise ValueError("exact hitting-set search is capped at n = 7")
    families = _constraint_families(w, n)
    coords = sorted({I for f in families for I in f}, key=lambda s: (len(s), sorted(s)))
    bit = {I: 1 << k for k, I in enumerate(coords)}
    size, chosen = _min_hitting_set([sum(bit[I] for I in f) for f in families])
    return size, tuple(I for I in coords if bit[I] & chosen)


def variety_equation_count(w, n: int) -> int:
    """Size of the universal defining set {I : I !<= w([1,|I|])}."""
    w = perms.check_permutation(w, n)
    return sum(comb(n, i) - perms.down_count(w[:i]) for i in range(1, n))


# ----- feedback-free recognition ---------------------------------------------------


class FeedbackFreeResult:
    __slots__ = ("n", "size", "subsets", "unique")

    def __init__(self, n: int, size: int, subsets: tuple[frozenset[int], ...], unique: bool):
        self.n, self.size, self.subsets, self.unique = n, size, subsets, unique


def feedback_free_min_set(n: int) -> FeedbackFreeResult:
    """Smallest set of Plucker coordinates whose vanishing pattern determines
    the cell, exact for n in 2..4: a hitting set of the minimal masks of
    coordinates on which two realizable patterns of different cells differ.
    Two distinct full patterns always differ, so no mask is 0.  The answer
    is unique when dropping any one of its coordinates from every mask
    leaves no hitting set as small.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"feedback-free search supports n in 2..4, got n = {n}")
    universe = sorted(all_weights(type_a_group(n)),
                      key=lambda pw: (pw.level, sorted(subset_of(pw))))
    packed = [(sum(b << k for k, b in enumerate(pat.restrict(universe))), w.fingerprint)
              for pat, w, _flag in realizable_full_patterns(n)]
    masks: list[int] = []
    for m in sorted({a ^ b for (a, u), (b, v) in combinations(packed, 2) if u != v},
                    key=int.bit_count):
        if not any(k & m == k for k in masks):
            masks.append(m)
    size, chosen = _min_hitting_set(masks)
    bits = list(ones(chosen))
    return FeedbackFreeResult(
        n=n,
        size=size,
        subsets=tuple(subset_of(universe[k]) for k in bits),
        unique=all(_min_hitting_set([m & ~(1 << k) for m in masks])[0] > size for k in bits),
    )
