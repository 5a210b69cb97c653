"""One-line permutations and the type A down-set count that needs no
orbit table.

Permutations are tuples (w(1), ..., w(n)) of 1-based values.  In type A,
p_I vanishes on the Schubert variety of w exactly when sorted(I) is not
componentwise <= sorted(w([1, |I|])) [FZ98 §1].  The orbit tables'
down-masks list the subsets that pass; ``down_count`` counts them at any n
without a table or a list, for callers that need only how many coordinates
can be nonzero.  The tests check it against the tables' popcounts and,
past n = 9, against a sorted-subset count.
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


def down_count(P) -> int:
    """The number of |P|-subsets I with sorted(I) <= sorted(P) componentwise,
    counted as increasing chains of rows, each at or below the matching
    entry of sorted(P): c[r] is the number of chains so far whose highest
    row is r; a next row r <= p extends every chain topped below r, so the
    new c[r] is the sum of c[0..r-1]."""
    c = [1]
    for p in sorted(P):
        c = [0, *accumulate(c)]
        c += [c[-1]] * (p + 1 - len(c))
    return sum(c)
