"""Test oracles for decision trees: routing a pattern down a tree, and the
minimax search as first written, over frozensets of vector ids.

The package searches on int bitmasks of the same ids, in the same candidate
order and with the same tie-breaking, so the two searches must return the
same tree; ``to_dot`` compares them node by node.
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
    return DecisionTree(group, root, "optimal")
