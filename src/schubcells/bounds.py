"""Quantitative negative results at desk scale: the exponential witness
family for defining one Schubert variety, exact minimal-defining-set search
(a hitting-set lower bound over coordinate-flag witnesses), the feedback-free
recognition problem with its constant-weight-code inequality, and the
codimension-one chain corollary.

Everything here works on raw one-line permutations; the subset criterion for
Bruhat comparisons is the type A specialization and is cross-checked against
the general implementation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import perms


# ----- witness family ---------------------------------------------------------


@dataclass(frozen=True)
class WitnessFamily:
    k: int
    n: int
    w: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    lower_bound: int
    codimension: int

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
    w = perms.longest_in_parabolic(n, set(range(1, n)) - {2 * k})
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


def _verify_witness_family(fam: WitnessFamily):
    k, n, w = fam.k, fam.n, fam.w
    target = frozenset(range(1, 2 * k + 1))
    for u in fam.members:
        if perms.ehresmann_leq(u, w):
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
    for u in fam.members:
        for i in range(1, fam.n):
            I = perms.prefix_set(u, i)
            if not perms.subset_leq(I, perms.prefix_set(fam.w, i)):
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
    return sum(1 for u in fam.members if perms.prefix_set(u, size) == I)


# ----- exact minimal defining sets (hitting set over coordinate flags) -----------


def _constraint_families(w, n: int):
    """For each u !<= w, the subsets I = u([1,i]) with I !<= w([1,i]).

    By the prefix-subset criterion u <= w exactly when no prefix is violated,
    so the permutations below w are the ones with no options."""
    w_prefixes = [sorted(w[:i]) for i in range(1, n)]
    out = []
    for u in perms.all_perms(n):
        opts = frozenset(
            frozenset(u[:i])
            for i, wp in enumerate(w_prefixes, 1)
            if any(a > b for a, b in zip(sorted(u[:i]), wp))
        )
        if opts:
            out.append(opts)
    return out


def minimum_defining_hitting_set(w, n: int) -> tuple[int, tuple[frozenset[int], ...]]:
    """Exact minimum hitting set: a set of coordinates killing the coordinate
    flag of every u !<= w.  Valid as a lower bound on the number of equations
    defining the variety of w.

    Branch and bound on int bitmasks: coordinate I is bit k when I is the k-th
    coordinate in (|I|, sorted I) order, a family is the OR of its options and
    the chosen set one int.  The search branches on the first unhit family
    (families shortest first), trying its options in bit order, and cuts a
    branch when its size plus a greedy packing of pairwise-disjoint unhit
    families reaches the best size found.  The packing is a lower bound, so
    the result is the first optimal leaf in DFS order."""
    w = perms.check_permutation(w, n)
    if n > 7:
        raise ValueError("exact hitting-set search is capped at n = 7")
    families = _constraint_families(w, n)
    families.sort(key=len)
    coords = sorted({I for f in families for I in f}, key=lambda s: (len(s), sorted(s)))
    bit = {I: 1 << k for k, I in enumerate(coords)}
    masks = [sum(bit[I] for I in f) for f in families]
    options = [sorted(bit[I] for I in f) for f in families]
    count = len(masks)
    best = [len(coords) + 1, 0]

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
        for b in options[idx]:
            search(chosen | b, size + 1, idx + 1)

    search(0, 0, 0)
    size, chosen = best
    return size, tuple(I for I in coords if bit[I] & chosen)


def defining_set_lower_bound(w, n: int) -> int:
    return minimum_defining_hitting_set(w, n)[0]


def variety_equation_count(w, n: int) -> int:
    """Size of the universal defining set {I : I !<= w([1,|I|])}."""
    w = perms.check_permutation(w, n)
    count = 0
    for i in range(1, n):
        for I in combinations(range(1, n + 1), i):
            if not perms.subset_leq(I, perms.prefix_set(w, i)):
                count += 1
    return count


# ----- feedback-free recognition ---------------------------------------------------


@dataclass(frozen=True)
class FeedbackFreeResult:
    n: int
    size: int
    subsets: tuple[frozenset[int], ...]
    unique: bool
    certified: bool


def _separates(coords, labelled_patterns) -> bool:
    seen: dict[tuple[int, ...], tuple] = {}
    for bits, label in labelled_patterns:
        key = tuple(bits[I] for I in coords)
        prior = seen.get(key)
        if prior is None:
            seen[key] = label
        elif prior != label:
            return False
    return True


def code_excludable_bound(n: int) -> int:
    """Upper bound, from the single-error-detecting code inequality, on how
    many coordinates a feedback-free solution can omit."""
    return sum(comb(n, i - 1) // i for i in range(1, n))


def feedback_free_min_set(n: int) -> FeedbackFreeResult:
    """Smallest set of Plucker coordinates whose vanishing pattern determines
    the cell.

    For n <= 3 the criterion runs over the certified set of all realizable
    patterns (the full problem); for n = 4 it runs over coordinate-flag
    patterns only, which yields a valid lower-bound set.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"feedback-free search supports n in 2..4, got n = {n}")
    from .flags import coordinate_flag, subset_pattern
    from .patterns import realizable_full_patterns

    if n <= 3:
        labelled = [
            (subset_pattern(flag), pat.group.one_line(witness))
            for pat, witness, flag in realizable_full_patterns(n)
        ]
    else:
        labelled = [(subset_pattern(coordinate_flag(u)), u) for u in perms.all_perms(n)]
    certified = n <= 3
    universe = sorted(
        {I for bits, _ in labelled for I in bits}, key=lambda s: (len(s), sorted(s))
    )
    start = max(0, len(universe) - code_excludable_bound(n))
    for size in range(start, len(universe) + 1):
        winners = [
            cand
            for cand in combinations(universe, size)
            if _separates(cand, labelled)
        ]
        if winners:
            return FeedbackFreeResult(
                n=n,
                size=size,
                subsets=tuple(winners[0]),
                unique=len(winners) == 1,
                certified=certified,
            )
    raise RuntimeError("even the full coordinate set failed to separate")


# ----- constant-weight codes ----------------------------------------------------------


@dataclass(frozen=True)
class CodeFamily:
    n: int
    i: int
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for I in self.subsets:
            if len(I) != self.i or not I <= set(range(1, self.n + 1)):
                raise ValueError(f"{sorted(I)} is not an i-subset of [1, n]")
        for I, J in combinations(self.subsets, 2):
            if len(I ^ J) == 2:
                raise ValueError(
                    f"{sorted(I)} and {sorted(J)} differ by a single exchange"
                )


def code_bound_check(fam: CodeFamily) -> bool:
    """|family| <= C(n, i-1)/i, verified together with the counting argument
    behind it: the (i-1)-subsets of the members are pairwise distinct."""
    seen = set()
    for I in fam.subsets:
        for x in I:
            sub = I - {x}
            if sub in seen:
                raise RuntimeError("counting argument violated: duplicate subset")
            seen.add(sub)
    return len(fam.subsets) <= Fraction(comb(fam.n, fam.i - 1), fam.i)


# ----- chain corollary -----------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    k: int
    chain: tuple[tuple[int, ...], ...]
    steps: int
    per_step_bound: Fraction
    implied_min_equations: int


def chain_corollary_check(k: int) -> ChainReport:
    """Build a saturated chain from the witness-family target up to the top
    element and derive the per-step lower bound C(2k,k)/(4 k^2)."""
    if k != 1:
        raise ValueError("the chain check is implemented for k = 1 (n = 4)")
    n = 4 * k
    w = perms.longest_in_parabolic(n, set(range(1, n)) - {2 * k})
    chain = perms.saturated_chain_to_top(w)
    steps = len(chain) - 1
    if steps != 4 * k * k:
        raise RuntimeError(f"chain has {steps} steps, expected {4 * k * k}")
    for a, b in zip(chain, chain[1:]):
        if perms.length(b) != perms.length(a) + 1:
            raise RuntimeError("chain is not saturated")
    bound = Fraction(comb(2 * k, k), 4 * k * k)
    implied = int(bound) if bound.denominator == 1 else int(bound) + 1
    return ChainReport(
        k=k,
        chain=tuple(chain),
        steps=steps,
        per_step_bound=bound,
        implied_min_equations=implied,
    )
