"""Test oracle for the recognition scan: the coset orbit v W_J omega_i built
per coset, as first written.  Every entry of the suborbit W_J omega_i is
translated by v's word and the translates are sorted by table index,
descending, with no memo.  The package reads the suborbit in place and
translates a chain entry by entry, so the two scans must list the same
entries in the same order, and recognition driven by either must ask the
same queries."""

from schubcells.errors import UnacceptableInputError
from schubcells.plucker import active_ordering, is_economical_ordering, orbit_table
from schubcells.recognition import CountingOracle


def coset_scan(group, ordering, pos, word):
    """(PluckerWeight, rep) pairs of v W_J omega_i in descending table order,
    v of the given word, J = ``ordering.tail(pos)``."""
    table = orbit_table(group, ordering.order[pos])
    indices, words = table.suborbit(ordering.tail(pos))
    scan = sorted(zip((table.act(word, k) for k in indices), words), reverse=True)
    entries = [(table.weights[k], rep) for k, rep in scan]
    if is_economical_ordering(group, ordering):
        for (a, _), (b, _) in zip(entries, entries[1:]):
            if not table.leq(b, a):
                raise RuntimeError("economical ordering produced a non-linear scan set")
    return entries


def coset_recognize(oracle, group, ordering=None, check_input=False):
    """Recognition driven by ``coset_scan``: (element, QueryLog)."""
    ordering = active_ordering(group, ordering)
    counter = oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)
    word = ()
    for pos in range(group.rank):
        scan = coset_scan(group, ordering, pos, word)
        for t, (eta, rep) in enumerate(scan):
            if t == len(scan) - 1:
                if check_input and counter.query(eta) == 0:
                    raise UnacceptableInputError("forced bit is zero")
                break
            if counter.query(eta):
                break
        word += rep
    return group.element(word), counter.log
