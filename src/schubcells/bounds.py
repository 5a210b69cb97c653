"""Quantitative negative results at desk scale: the exponential witness
family for defining one Schubert variety, exact minimal-defining-set search
(a hitting-set lower bound over coordinate-flag witnesses), the feedback-free
recognition problem with its constant-weight-code inequality, and the
codimension-one chain corollary.

Everything here works on raw one-line permutations, up to S_12 for the
witness family, where no orbit table is built.  u <= w in Bruhat order
exactly when every prefix set u([1, i]) lies in the down-set of w([1, i]),
read as row masks from ``perms.down_rows``; ``_violations`` lists the
prefixes that do not, and the defining sets, witness checks and equation
counts are all read off it.  The chain corollary walks covers in the type A
Weyl group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from . import perms
from .flags import coordinate_flag, subset_pattern, type_a_group


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


def variety_equation_count(w, n: int) -> int:
    """Size of the universal defining set {I : I !<= w([1,|I|])}."""
    w = perms.check_permutation(w, n)
    return sum(comb(n, i) - len(perms.down_rows(w[:i])) for i in range(1, n))


# ----- feedback-free recognition ---------------------------------------------------


class FeedbackFreeResult:
    __slots__ = ("n", "size", "subsets", "unique", "certified")

    def __init__(self, n: int, size: int, subsets: tuple[frozenset[int], ...], unique: bool,
                 certified: bool):
        self.n, self.size, self.subsets = n, size, subsets
        self.unique, self.certified = unique, certified


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


class CodeFamily:
    __slots__ = ("n", "i", "subsets")

    def __init__(self, n: int, i: int, subsets: tuple[frozenset[int], ...]):
        for I in subsets:
            if len(I) != i or not I <= set(range(1, n + 1)):
                raise ValueError(f"{sorted(I)} is not an i-subset of [1, n]")
        for I, J in combinations(subsets, 2):
            if len(I ^ J) == 2:
                raise ValueError(
                    f"{sorted(I)} and {sorted(J)} differ by a single exchange"
                )
        self.n, self.i, self.subsets = n, i, subsets


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
    return len(fam.subsets) * fam.i <= comb(fam.n, fam.i - 1)


# ----- chain corollary -----------------------------------------------------------------


class ChainReport:
    __slots__ = ("k", "chain", "steps", "per_step_bound", "implied_min_equations")

    def __init__(self, k: int, chain: tuple[tuple[int, ...], ...], steps: int,
                 per_step_bound: Fraction, implied_min_equations: int):
        self.k, self.chain, self.steps = k, chain, steps
        self.per_step_bound, self.implied_min_equations = per_step_bound, implied_min_equations


def chain_corollary_check(k: int) -> ChainReport:
    """Build a saturated chain from the witness-family target up to the top
    element, each step the least cover w t (by one-line order) over the
    reflections t, and derive the per-step lower bound C(2k,k)/(4 k^2)."""
    if k != 1:
        raise ValueError("the chain check is implemented for k = 1 (n = 4)")
    g = type_a_group(4 * k)
    cur, top = g.from_one_line(_block_reversal(k)), g.longest_element()
    chain = [cur]
    while cur != top:
        covers = (g.multiply(cur, t) for t in g.reflections())
        cur = min((v for v in covers if v.length == cur.length + 1), key=g.one_line)
        chain.append(cur)
    chain = [g.one_line(v) for v in chain]
    steps = len(chain) - 1
    if steps != 4 * k * k:
        raise RuntimeError(f"chain has {steps} steps, expected {4 * k * k}")
    bound = Fraction(comb(2 * k, k), 4 * k * k)
    implied = int(bound) if bound.denominator == 1 else int(bound) + 1
    return ChainReport(
        k=k,
        chain=tuple(chain),
        steps=steps,
        per_step_bound=bound,
        implied_min_equations=implied,
    )
