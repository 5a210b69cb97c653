"""One-line permutation utilities for the type A fast paths.

Permutations are tuples (w(1), ..., w(n)) of 1-based values.  The subset
criterion implemented here (componentwise comparison of sorted prefixes) is
the classical characterization of Bruhat order on the symmetric group; tests
cross-check it against the generic descent-recursion implementation.
"""

from __future__ import annotations

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


def length(w) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def prefix_set(w, i) -> frozenset[int]:
    """w([1, i])."""
    return frozenset(w[:i])


def subset_leq(J, K) -> bool:
    """Componentwise comparison of the sorted i-subsets J and K."""
    sj, sk = sorted(J), sorted(K)
    if len(sj) != len(sk):
        raise ValueError("subset comparison requires equal cardinalities")
    return all(a <= b for a, b in zip(sj, sk))


def ehresmann_leq(u, v) -> bool:
    """u <= v in Bruhat order via the prefix-subset criterion."""
    n = len(u)
    return all(subset_leq(u[:i], v[:i]) for i in range(1, n))


def right_mult_transposition(w, a, b):
    """w * t_{a,b}: swap the values in positions a and b (1-based)."""
    out = list(w)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


def bruhat_covers_up(w):
    """All v = w t with l(v) = l(w) + 1."""
    n = len(w)
    base = length(w)
    out = []
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            v = right_mult_transposition(w, a, b)
            if length(v) == base + 1:
                out.append(v)
    return out


def saturated_chain_to_top(w):
    """A saturated Bruhat chain from w up to the reversal n...1."""
    n = len(w)
    top = tuple(range(n, 0, -1))
    chain = [w]
    cur = w
    while cur != top:
        ups = bruhat_covers_up(cur)
        if not ups:
            raise RuntimeError("no cover found below the top element")
        cur = min(ups)
        chain.append(cur)
    return chain


def longest_in_parabolic(n: int, J) -> tuple[int, ...]:
    """Longest element of the parabolic subgroup of S_n generated by {s_j : j in J}.

    It reverses each maximal run of consecutive generator indices.
    """
    J = set(J)
    out = list(range(1, n + 1))
    start = 1
    while start <= n:
        end = start
        while end < n and end in J:
            end += 1
        out[start - 1:end] = reversed(out[start - 1:end])
        start = end + 1
    return tuple(out)

