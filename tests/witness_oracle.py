"""Test helper: exact witness counts of the lower-bound family, by the
two-case split of its prefix subsets, against which the counts that
``bounds.witness_prefix_counts`` takes member by member are checked."""

from math import comb

from bruhat_oracle import prefix_set

from schubcells.bounds import WitnessFamily


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
