"""Test oracles for decision trees: routing a pattern down a tree, and two
exhaustive minimax searches over every acceptable vector of a tiny group.

The package answers ``build_decision_tree(g, "optimal")`` from a certificate
(the proof is in the ``recognition`` module docstring): under an economical
ordering the algorithm's own tree is optimal, with depth |Phi+|.  The
searches check that claim where they can finish (A1, A2, B2, C2, G2).  The
frozenset search is the minimax search as first written; the bitmask search
holds the same vector ids as int bitmasks, in the same candidate order and
with the same tie-breaking, so the two must return the same tree, which
``to_dot`` compares node by node.
"""

from schubcells.plucker import all_weights
from schubcells.recognition import DecisionTree, TreeLeaf, TreeNode


def route(tree: DecisionTree, pattern):
    """(leaf witness, queries asked) for a vanishing pattern."""
    node = tree.root
    queries = 0
    while isinstance(node, TreeNode):
        queries += 1
        node = node.high if pattern.bit(node.weight) else node.low
    return node.w, queries


def frozenset_optimal_tree(group, vectors) -> DecisionTree:
    """Minimax tree over (pattern, witness) pairs, memoised on frozensets."""
    weights = all_weights(group)
    witnesses = [w for _pattern, w in vectors]
    columns = [[pattern.bit(pw) for pattern, _w in vectors] for pw in weights]
    memo: dict[frozenset, tuple[int, object]] = {}

    def lower_bound(ids) -> int:
        distinct = len({witnesses[t].fingerprint for t in ids})
        return (distinct - 1).bit_length()

    def solve(ids: frozenset):
        hit = memo.get(ids)
        if hit is not None:
            return hit
        first = witnesses[next(iter(ids))]
        if all(witnesses[t] == first for t in ids):
            result = (0, TreeLeaf(first))
            memo[ids] = result
            return result
        lb = lower_bound(ids)
        best = None
        for q, column in enumerate(columns):
            zero = frozenset(t for t in ids if column[t] == 0)
            if not zero or len(zero) == len(ids):
                continue
            one = ids - zero
            d0, t0 = solve(zero)
            d1, t1 = solve(one)
            cand = (1 + max(d0, d1), TreeNode(weights[q], t0, t1))
            if best is None or cand[0] < best[0]:
                best = cand
                if best[0] == lb:
                    break
        memo[ids] = best
        return best

    _depth, root = solve(frozenset(range(len(vectors))))
    return DecisionTree(group, root)


def bitmask_optimal_tree(group, vectors) -> DecisionTree:
    """Minimax search over sets of vector ids held as int bitmasks: the zero
    branch of query q is ``ids & zeros[q]``, and ``by_witness`` holds the ids
    of each witness, for the leaf test and the ceil(log2) lower bound."""
    weights = all_weights(group)
    zeros = [sum(1 << t for t, (pattern, _w) in enumerate(vectors) if not pattern.bit(pw))
             for pw in weights]
    by_witness: dict = {}
    for t, (_pattern, w) in enumerate(vectors):
        by_witness[w.fingerprint] = by_witness.get(w.fingerprint, 0) | 1 << t
    memo: dict[int, tuple[int, object]] = {}

    def solve(ids: int):
        hit = memo.get(ids)
        if hit is not None:
            return hit
        first = vectors[(ids & -ids).bit_length() - 1][1]
        if not ids & ~by_witness[first.fingerprint]:
            result = memo[ids] = (0, TreeLeaf(first))
            return result
        lb = (sum(1 for m in by_witness.values() if ids & m) - 1).bit_length()
        best = None
        for q, column in enumerate(zeros):
            zero = ids & column
            if not zero or zero == ids:
                continue
            d0, t0 = solve(zero)
            d1, t1 = solve(ids ^ zero)
            cand = (1 + max(d0, d1), TreeNode(weights[q], t0, t1))
            if best is None or cand[0] < best[0]:
                best = cand
                if best[0] == lb:
                    break
        memo[ids] = best
        return best

    return DecisionTree(group, solve((1 << len(vectors)) - 1)[1])
