"""Test helper: the frozenset-keyed vanishing patterns that the package once
used beside ``VanishingPattern``, kept as oracles.
``all_acceptable_patterns`` lists every acceptable vector of a small group by
enumerating W, the listing that the realizable candidates were once filtered
from.  ``subset_pattern`` keys a flag's pattern by its proper subsets;
``realizable_full_patterns`` filters all 2^N flat bit vectors through
``check_acceptable`` and the hand-written three-term relation and realizes
each survivor by the [-2, 2]^n search the package once ran (n <= 3);
``feedback_free_min_set`` separates labelled subset patterns on subset
tuples."""

from itertools import combinations, product

from bruhat_oracle import all_elements
from proposition_checks import code_excludable_bound

from schubcells import flags
from schubcells.bounds import FeedbackFreeResult
from schubcells.flags import flag_from_columns, type_a_group
from schubcells.patterns import VanishingPattern, check_acceptable
from schubcells.plucker import all_weights, ones, orbit_table, subset_of
from schubcells.weyl import WeylGroup


ACCEPTABLE_ENUMERATION_CAP = 200_000


def all_acceptable_patterns(group: WeylGroup):
    """Every acceptable vector, as (VanishingPattern, witness) pairs: per
    witness w, bit 1 at each w omega_i and any bits strictly below it."""
    total = 0
    per_w = []
    for w in all_elements(group):
        fixed, free = [], []
        for i in range(1, group.rank + 1):
            table = orbit_table(group, i)
            jw = table.position(w)
            fixed.append(1 << jw)
            free.extend((i - 1, 1 << k) for k in ones(table.down_masks()[jw] & ~(1 << jw)))
        total += 2 ** len(free)
        per_w.append((w, fixed, free))
        if total > ACCEPTABLE_ENUMERATION_CAP:
            raise ValueError(
                f"acceptable-vector enumeration exceeds cap {ACCEPTABLE_ENUMERATION_CAP}"
            )
    out = []
    for w, fixed, free in per_w:
        for choice in product((0, 1), repeat=len(free)):
            levels = list(fixed)
            for (i, bit), b in zip(free, choice):
                if b:
                    levels[i] |= bit
            out.append((VanishingPattern.from_levels(group, levels), w))
    return out


def subset_pattern(x) -> dict[frozenset[int], int]:
    """Raw vanishing pattern keyed by the proper subsets, read off every
    mask of the minor table but the empty and the full one."""
    return {frozenset(r + 1 for r in ones(m)): int(c != 0)
            for m, c in enumerate(x._minors[1:-1], 1)}


def realize(n, by_subset):
    """The first flag whose subset pattern is ``by_subset``: column 1 holds
    the level-1 bits, each middle column ranges over [-2, 2]^n and the last
    column is a unit vector."""
    first = tuple(by_subset[frozenset({j})] for j in range(1, n + 1))
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for middle in product(product(range(-2, 3), repeat=n), repeat=n - 2):
        for last in units:
            try:
                flag = flag_from_columns((first, *middle, last))
            except ValueError:  # singular
                continue
            if subset_pattern(flag) == by_subset:
                return flag
    return None


def realizable_full_patterns(n):
    """(VanishingPattern, witness, Flag) for every flag pattern in C^n, n <= 3:
    every acceptable flat bit vector that the three-term relation allows."""
    group = type_a_group(n)
    weights = all_weights(group)
    subsets = [subset_of(pw) for pw in weights]
    results = []
    for bits in product((0, 1), repeat=len(weights)):
        pat = VanishingPattern(group, bits)
        report = check_acceptable(pat)
        if not report.accepted:
            continue
        by_subset = dict(zip(subsets, bits))
        # p1 p23 - p2 p13 + p3 p12 = 0 cannot hold with one nonzero term
        if n == 3 and sum(by_subset[frozenset({j})] & by_subset[frozenset({1, 2, 3} - {j})]
                          for j in (1, 2, 3)) == 1:
            continue
        flag = realize(n, by_subset)
        if flag is None:
            raise RuntimeError(f"candidate pattern {bits} passed the filters but was not realized")
        results.append((pat, report.witness, flag))
    return results


def _separates(coords, labelled_patterns) -> bool:
    seen = {}
    for bits, label in labelled_patterns:
        key = tuple(bits[I] for I in coords)
        prior = seen.get(key)
        if prior is None:
            seen[key] = label
        elif prior != label:
            return False
    return True


def feedback_free_min_set(n):
    """The smallest separating coordinate set, searched over frozenset-keyed
    subset patterns of the flags that realize each pattern: this module's
    searched flags for n <= 3, the package's certificate flags for n = 4."""
    found = realizable_full_patterns(n) if n <= 3 else flags.realizable_full_patterns(n)
    labelled = [
        (subset_pattern(flag), pat.group.one_line(witness)) for pat, witness, flag in found
    ]
    universe = sorted(
        {I for bits, _ in labelled for I in bits}, key=lambda s: (len(s), sorted(s))
    )
    start = max(0, len(universe) - code_excludable_bound(n))
    for size in range(start, len(universe) + 1):
        winners = [cand for cand in combinations(universe, size) if _separates(cand, labelled)]
        if winners:
            return FeedbackFreeResult(n=n, size=size, subsets=tuple(winners[0]),
                                      unique=len(winners) == 1)
    raise RuntimeError("even the full coordinate set failed to separate")
