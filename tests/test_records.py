"""The record classes: constructor parameters, validation and the equality
each record keeps."""

import inspect
from fractions import Fraction

import pytest

from schubcells import base, bounds, cartan, cells, flags, patterns, plucker, recognition, weyl

EMPTY = inspect.Parameter.empty

# (class, [(parameter, default or EMPTY), ...]) for every record
SIGNATURES = [
    (weyl.WeylElement, [("word", EMPTY), ("fingerprint", EMPTY), ("group", EMPTY)]),
    (weyl.Root, [("expansion", EMPTY), ("coroot", EMPTY)]),
    (cartan.CartanDatum, [("type_letter", EMPTY), ("rank", EMPTY), ("cartan_matrix", EMPTY)]),
    (plucker.PluckerWeight,
     [("level", EMPTY), ("min_rep", EMPTY), ("labels", EMPTY), ("index", EMPTY), ("rows", None)]),
    (plucker.WeightOrdering, [("order", EMPTY)]),
    (patterns.AcceptabilityReport,
     [("accepted", EMPTY), ("per_level_max", EMPTY), ("witness", EMPTY),
      ("failure_reason", EMPTY)]),
    (patterns.PatternPoset,
     [("coords", EMPTY), ("vertices", EMPTY), ("labels", EMPTY), ("covers", EMPTY)]),
    (patterns.RealizableSet, [("coords", EMPTY), ("patterns", EMPTY), ("certified", EMPTY)]),
    (cells.CellDescription,
     [("w", EMPTY), ("equalities", EMPTY), ("inequalities", EMPTY), ("ordering", EMPTY),
      ("incomparable", ())]),
    (cells.VarietyDescription, [("w", EMPTY), ("equalities", EMPTY)]),
    (flags.Flag, [("matrix", EMPTY)]),
    (base.BaseElement, [("element", EMPTY), ("left_descent", EMPTY), ("right_descent", EMPTY)]),
    (bounds.WitnessFamily,
     [("k", EMPTY), ("n", EMPTY), ("w", EMPTY), ("members", EMPTY), ("lower_bound", EMPTY),
      ("codimension", EMPTY)]),
    (bounds.FeedbackFreeResult,
     [("n", EMPTY), ("size", EMPTY), ("subsets", EMPTY), ("unique", EMPTY),
      ("certified", EMPTY)]),
    (bounds.CodeFamily, [("n", EMPTY), ("i", EMPTY), ("subsets", EMPTY)]),
    (bounds.ChainReport,
     [("k", EMPTY), ("chain", EMPTY), ("steps", EMPTY), ("per_step_bound", EMPTY),
      ("implied_min_equations", EMPTY)]),
    # None stands for a fresh empty list per log
    (recognition.QueryLog, [("entries", None)]),
    (recognition.TreeLeaf, [("w", EMPTY)]),
    (recognition.TreeNode, [("weight", EMPTY), ("low", EMPTY), ("high", EMPTY)]),
    (recognition.DecisionTree, [("group", EMPTY), ("root", EMPTY), ("strategy", EMPTY)]),
]


@pytest.mark.parametrize("cls, params", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_record_constructor_parameters_are_pinned(cls, params):
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    assert all(
        p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for p in inspect.signature(cls).parameters.values()
    )


def test_cartan_datum_validates_the_matrix():
    assert cartan.CartanDatum("A", 2, ((2, -1), (-1, 2))).name == "A2"
    with pytest.raises(ValueError, match="diagonal must be 2"):
        cartan.CartanDatum("A", 2, ((2, -1), (-1, 1)))
    with pytest.raises(ValueError, match="off-diagonal must be <= 0"):
        cartan.CartanDatum("A", 2, ((2, 1), (-1, 2)))


def test_records_that_compare_by_value():
    assert cartan.cartan_datum("B", 3) == cartan.cartan_datum("B", 3) != cartan.cartan_datum("C", 3)
    assert hash(cartan.cartan_datum("B", 3)) == hash(cartan.cartan_datum("B", 3))
    m = ((1, 0), (Fraction(1, 2), 1))
    assert flags.Flag(m) == flags.Flag(m) and hash(flags.Flag(m)) == hash(flags.Flag(m))
    assert flags.Flag(m) != flags.Flag(((1, 0), (0, 1)))
    g = weyl.weyl_group("A2")
    w = g.from_one_line((2, 1, 3))
    assert base.BaseElement(w, 1, 1) == base.BaseElement(w, 1, 1) != base.BaseElement(w, 1, 2)
    a = cells.cell_description_general(g, w)
    b = cells.cell_description_general(g, w)
    assert a is not b and a.ordering is not b.ordering and a == b and hash(a) == hash(b)
    report = patterns.check_acceptable(patterns.generic_pattern(g, w))
    assert report == patterns.check_acceptable(patterns.generic_pattern(g, w))


def test_flag_takes_its_matrix_only():
    with pytest.raises(TypeError):
        flags.Flag(((1,),), _minors=[1, 1])


def test_query_logs_do_not_share_entries():
    a, b = recognition.QueryLog(), recognition.QueryLog()
    a.entries.append(("p1", 1))
    assert a.count == 1 and b.entries == []
