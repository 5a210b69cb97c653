"""One-line permutations and the type A down-sets that need no orbit table.

Permutations are tuples (w(1), ..., w(n)) of 1-based values.  In type A,
p_I vanishes on the Schubert variety of w exactly when sorted(I) is not
componentwise <= sorted(w([1, |I|])) [FZ98 §1]; ``down_rows`` lists the
subsets that pass, as the row masks (bit r - 1 for row r) that Plucker
weights carry as ``rows`` and that index ``flags.Flag``'s minor table.  It
is the one subset comparison of the package outside the orbit tables; the
tests check it against those tables and against a sorted-subset oracle.
``down_count`` is its length, counted without listing, for callers that
need only how many coordinates can be nonzero.
"""

from __future__ import annotations

from itertools import accumulate
from itertools import permutations as _permutations


def all_perms(n: int):
    return [tuple(p) for p in _permutations(range(1, n + 1))]

def check_permutation(w, n: int) -> tuple[int, ...]:
    """w as a tuple; ValueError unless it is a permutation of 1..n."""
    w = tuple(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{n}")
    return w


def one_line_str(w) -> str:
    """w(1)...w(n) as digits; past 9 the entries are comma-separated, as in
    ``plucker.subset_str``, so that the string reads back unambiguously."""
    sep = "" if len(w) <= 9 else ","
    return sep.join(map(str, w))


def down_rows(P) -> list[int]:
    """Row masks of the |P|-subsets I with sorted(I) <= sorted(P)
    componentwise: each next row lies above the previous one and at or below
    the matching entry of sorted(P)."""
    grown = [(0, 0)]  # (mask, its highest row)
    for p in sorted(P):
        grown = [(m | 1 << r - 1, r) for m, top in grown for r in range(top + 1, p + 1)]
    return [m for m, _ in grown]


def down_count(P) -> int:
    """``len(down_rows(P))``, counted rather than listed: c[r] is the number
    of chains so far whose highest row is r; a next row r <= p extends every
    chain topped below r, so the new c[r] is the sum of c[0..r-1]."""
    c = [1]
    for p in sorted(P):
        c = [0, *accumulate(c)]
        c += [c[-1]] * (p + 1 - len(c))
    return sum(c)
