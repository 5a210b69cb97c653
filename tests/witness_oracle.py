"""Test helper: the prefix-set counts of the lower-bound witness family,
taken member by member with the sorted-subset comparison of
``bruhat_oracle``, and the exact counts by the two-case split of the
prefix subsets, against which they are checked."""

from math import comb

from bruhat_oracle import prefix_set, subset_leq

from schubcells.bounds import WitnessFamily


def witness_prefix_counts(fam: WitnessFamily) -> dict[frozenset[int], int]:
    """For each I with I !<= w([1,|I|]): how many members have I as a prefix set."""
    counts: dict[frozenset[int], int] = {}
    for u in fam.members:
        for i in range(1, fam.n):
            I = prefix_set(u, i)
            if not subset_leq(I, prefix_set(fam.w, i)):
                counts[I] = counts.get(I, 0) + 1
    return counts


def witness_case_count(fam: WitnessFamily, I) -> int:
    """Exact member count for a mid-size prefix subset, by the two-case split
    (|I| = k + l: choices of the upper block tail; |I| = 2k + l: choices of
    the first-block subset)."""
    k, n = fam.k, fam.n
    I = frozenset(I)
    size = len(I)
    low = I & frozenset(range(1, 2 * k + 1))
    high = I & frozenset(range(2 * k + 1, n + 1))
    if k < size < 2 * k:
        l = size - k
        if len(low) != k or len(high) != l:
            return 0
        return comb(n - max(I), k - l)
    if 2 * k < size < 3 * k:
        l = size - 2 * k
        if len(high) != k or len(low) != k + l:
            return 0
        m = min(set(range(1, 2 * k + 1)) - low)
        required = {x for x in low if x > m}
        if len(required) > k:
            return 0
        return comb(len(low) - len(required), k - len(required))
    return sum(1 for u in fam.members if prefix_set(u, size) == I)
