"""The record classes: constructor parameters, validation, the equality and
representation each record keeps, and the typed errors of the input checks."""

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
    (patterns.PatternPoset, [("vertices", EMPTY), ("labels", EMPTY), ("covers", EMPTY)]),
    (cells.CellDescription,
     [("w", EMPTY), ("equalities", EMPTY), ("inequalities", EMPTY), ("ordering", EMPTY)]),
    (cells.VarietyDescription, [("w", EMPTY), ("equalities", EMPTY)]),
    (flags.Flag, [("matrix", EMPTY)]),
    (base.BaseElement, [("element", EMPTY), ("left_descent", EMPTY), ("right_descent", EMPTY)]),
    (bounds.WitnessFamily,
     [("k", EMPTY), ("n", EMPTY), ("w", EMPTY), ("members", EMPTY), ("lower_bound", EMPTY),
      ("codimension", EMPTY)]),
    (bounds.FeedbackFreeResult,
     [("n", EMPTY), ("size", EMPTY), ("subsets", EMPTY), ("unique", EMPTY)]),
    # None stands for a fresh empty list per log
    (recognition.QueryLog, [("entries", None)]),
    (recognition.TreeLeaf, [("w", EMPTY)]),
    (recognition.TreeNode, [("weight", EMPTY), ("low", EMPTY), ("high", EMPTY)]),
    (recognition.DecisionTree, [("group", EMPTY), ("root", EMPTY)]),
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
    assert hash(base.BaseElement(w, 1, 1)) == hash(base.BaseElement(g.element((1,)), 1, 1))
    a = cells.cell_description_general(g, w)
    b = cells.cell_description_general(g, w)
    assert a is not b and a == b and hash(a) == hash(b)
    # the group holds one standard ordering; a fresh equal one compares equal
    assert a.ordering is b.ordering
    c = cells.CellDescription(w, a.equalities, a.inequalities,
                              plucker.WeightOrdering(a.ordering.order))
    assert c.ordering is not a.ordering and c == a and hash(c) == hash(a)
    report = patterns.check_acceptable(patterns.generic_pattern(g, w))
    assert report == patterns.check_acceptable(patterns.generic_pattern(g, w))


def test_flag_takes_its_matrix_only():
    with pytest.raises(TypeError):
        flags.Flag(((1,),), _minors=[1, 1])


def test_query_logs_do_not_share_entries():
    a, b = recognition.QueryLog(), recognition.QueryLog()
    a.entries.append(("p1", 1))
    assert a.count == 1 and b.entries == []


def test_element_group_and_weight_dunders():
    a3, b3 = weyl.weyl_group("A3"), weyl.weyl_group("B3")
    w = a3.element((1, 2))
    assert (repr(w), repr(a3.element(())), repr(a3)) == (
        "WeylElement(s1.s2)", "WeylElement(e)", "WeylGroup(A3)")
    assert w.__eq__("s1.s2") is NotImplemented and w != "s1.s2"
    # equal words in groups of equal rank but other data are other elements
    assert a3.simple(1) != b3.simple(1)
    pw = plucker.orbit_table(a3, 2).weights[3]
    assert repr(pw) == "PluckerWeight(level=2, s3.s2)"
    assert pw.__eq__((2, pw.labels)) is NotImplemented and pw != (2, pw.labels)


def _negative_root():
    return weyl.Root((-1, 0, 0), (-1, 0, 0))


TYPED_INPUT_ERRORS = [
    pytest.param(lambda: weyl.weyl_group("A3").by_fingerprint((0, 0, 0)),
                 r"^\(0, 0, 0\) is not a fingerprint of A3$", id="by_fingerprint"),
    pytest.param(lambda: weyl.weyl_group("A3").simple(0),
                 r"^generator index 0 out of range$", id="simple"),
    pytest.param(lambda: weyl.weyl_group("A3").element((4,)),
                 r"^word \(4,\) uses a generator outside 1\.\.3$", id="element"),
    pytest.param(lambda: weyl.weyl_group("A3").check_parabolic({5}),
                 r"^parabolic subset \[5\] not within \[1, 3\]$", id="check_parabolic"),
    pytest.param(lambda: weyl.weyl_group("A3").reflection(_negative_root()),
                 r"^reflection expects a positive root$", id="reflection"),
    pytest.param(lambda: weyl.weyl_group("B2").one_line(weyl.weyl_group("B2").simple(1)),
                 r"^one-line notation is a type A concept$", id="one_line"),
    pytest.param(lambda: weyl.weyl_group("B2").from_one_line((1, 2, 3)),
                 r"^one-line notation is a type A concept$", id="from_one_line"),
    pytest.param(lambda: patterns.VanishingPattern.from_levels(weyl.weyl_group("A3"), (1,)),
                 r"^pattern must hold one orbit mask per level$", id="from_levels"),
    pytest.param(lambda: plucker.orbit_table(weyl.weyl_group("A2"), 3),
                 r"^level 3 out of range 1\.\.2$", id="orbit_table"),
    pytest.param(lambda: plucker.mu(weyl.weyl_group("A3"), _negative_root()),
                 r"^mu expects a positive root$", id="mu-negative"),
    pytest.param(lambda: plucker.mu(weyl.weyl_group("A3"), weyl.Root((0, 0, 0), (0, 0, 0))),
                 r"^root has empty support$", id="mu-empty-support"),
    pytest.param(lambda: base.bigrassmannian_typeA(1), r"^need n >= 2$",
                 id="bigrassmannian_typeA"),
]


@pytest.mark.parametrize("call, message", TYPED_INPUT_ERRORS)
def test_typed_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
