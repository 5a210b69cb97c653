"""Exact flags: minors, coordinate flags, generic cell points, pattern
extraction, parsing."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from bruhat_oracle import prefix_set
from hypothesis import given, settings
from hypothesis import strategies as st
from pattern_oracle import subset_pattern

from schubcells import flags, perms, recognition
from schubcells.cartan import cartan_datum
from schubcells.flags import (
    Flag,
    MAX_SAMPLE_RETRIES,
    flag_from_columns,
    coordinate_flag,
    load_flag,
    load_flag_rows,
    parse_flag_csv,
    parse_flag_json,
    plucker_coordinate,
    random_cell_point,
    type_a_group,
    vanishing_pattern,
)
from schubcells.patterns import VanishingPattern, check_acceptable, generic_pattern
from schubcells.plucker import orbit, subset_of
from schubcells.recognition import FlagOracle, recognize_typeA
from schubcells.weyl import WeylGroup, weyl_group


def proper_subsets(n):
    return [frozenset(I) for k in range(1, n) for I in combinations(range(1, n + 1), k)]


def brute_minor(rows, I):
    """Independent oracle: cofactor-expansion determinant of the submatrix."""
    I = sorted(I)
    k = len(I)
    sub = [[rows[r - 1][c] for c in range(k)] for r in I]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(sub)


def random_rational_matrix(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return Flag(rows)
        except ValueError:
            continue


def sympy_minor(rows, I):
    """Second oracle: sympy's exact determinant of the same submatrix."""
    I = sorted(I)
    sub = sympy.Matrix(
        [[sympy.Rational(rows[r - 1][c].numerator, rows[r - 1][c].denominator)
          for c in range(len(I))] for r in I]
    )
    det = sub.det()
    return Fraction(int(det.p), int(det.q))


def wide_rational_matrix(rng, n):
    """Signed entries over denominators from 1 up to a 61-bit prime, with
    zeros and large numerators mixed in."""
    denominators = (1, 2, 3, 7, 12, 10**9 + 7, 2**61 - 1)
    while True:
        rows = [
            [
                Fraction(0) if rng.random() < 0.2
                else Fraction(rng.randint(-10**12, 10**12), rng.choice(denominators))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        try:
            return Flag(rows)
        except ValueError:
            continue


def test_integer_table_matches_cofactor_and_sympy_oracles():
    rng = random.Random(2024)
    for n in range(2, 8):
        cases = [
            wide_rational_matrix(rng, n),
            random_rational_matrix(rng, n),
            coordinate_flag(tuple(rng.sample(range(1, n + 1), n))),
            random_cell_point(tuple(rng.sample(range(1, n + 1), n)), seed=n),
        ]
        for x in cases:
            for I in proper_subsets(n):
                expected = brute_minor(x.matrix, I)
                assert x.minor(I) == expected
                assert x.nonzero(I) == (expected != 0)
                assert sympy_minor(x.matrix, I) == expected


def laplace_minors(matrix):
    """Oracle: the minor table built one row mask at a time, in increasing
    mask order, by Laplace expansion along column |I| of the column-scaled
    integer matrix, walking every row of the mask."""
    n = len(matrix)
    cols = []
    for j in range(n):
        col = [Fraction(row[j]) for row in matrix]
        d = math.lcm(*(e.denominator for e in col))
        cols.append([int(e * d) for e in col])
    minors = [1] * (1 << n)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        col = cols[k - 1]
        sign = 1 if k & 1 else -1  # the lowest row's cofactor sign along column k
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            entry = col[low.bit_length() - 1]
            if entry:
                total += sign * entry * minors[mask ^ low]
            sign = -sign
            rest ^= low
        minors[mask] = total
    return minors


@st.composite
def plan_matrices(draw):
    """Square matrices of n = 1..9: int, Fraction, zero-heavy, mixed, or
    singular (one column a combination of the earlier ones)."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["int", "fraction", "zero-heavy", "mixed", "singular"]))
    entry = {
        "int": st.integers(-10**6, 10**6),
        "fraction": st.fractions(min_value=-50, max_value=50, max_denominator=12),
        "zero-heavy": st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2]),
    }.get(kind, st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular":
        j = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
        for row in rows:
            row[j] = sum(c * row[i] for i, c in enumerate(coeffs))
    return rows


@settings(max_examples=150, deadline=None)
@given(plan_matrices())
def test_plan_table_matches_the_laplace_oracle(rows):
    expected = laplace_minors(rows)
    if expected[-1] == 0:
        with pytest.raises(ValueError, match="singular"):
            Flag(rows)
        return
    x = Flag(rows)
    assert x._minors == expected
    assert all(type(m) is int for m in x._minors)


def test_plan_table_matches_the_laplace_oracle_on_cell_points_and_dense_matrices():
    rng = random.Random(16)
    for n in range(6, 10):
        for seed in range(4):
            x = random_cell_point(tuple(rng.sample(range(1, n + 1), n)), seed=seed)
            assert x._minors == laplace_minors(x.matrix)
            y = Flag([[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)])
            assert y._minors == laplace_minors(y.matrix)


def test_int_entries_stay_ints():
    for w, seed in (((2, 3, 1), 0), ((4, 6, 1, 3, 5, 2), 3), ((8, 6, 7, 2, 4, 1, 5, 3), 2026)):
        x = random_cell_point(w, seed=seed)
        assert all(type(e) is int for row in x.matrix for e in row)
        assert x._scales == [1] * (len(w) + 1)
        y = Flag(tuple(tuple(Fraction(e) for e in row) for row in x.matrix))
        assert y._minors == x._minors and y._scales == x._scales and y == x
        for I in proper_subsets(len(w)):
            assert y.minor(I) == x.minor(I)
    assert all(type(e) is int for row in coordinate_flag((3, 1, 2)).matrix for e in row)
    mixed = parse_flag_json('[[1, "1/2"], ["3/4", 2]]').matrix
    assert [[type(e) for e in row] for row in mixed] == [[int, Fraction], [Fraction, int]]


def test_singular_prefixes_scaled_columns():
    # column 2 is 1/3 of column 1 on rows 1, 2, so p_12 vanishes; the column
    # denominators 3 and 7 are scaled away and back exactly
    x = Flag([
        [Fraction(3, 7), Fraction(1, 7), Fraction(0)],
        [Fraction(6, 7), Fraction(2, 7), Fraction(5)],
        [Fraction(0), Fraction(1, 3), Fraction(1, 2)],
    ])
    assert x.minor({1, 2}) == 0 and not x.nonzero({1, 2})
    assert x.minor({1, 3}) == Fraction(1, 7)
    assert x.minor({2, 3}) == Fraction(2, 7)
    assert x.minor({1}) == Fraction(3, 7)
    assert x.minor({1, 2, 3}) == sympy_minor(x.matrix, {1, 2, 3})


_entries = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_integer_table_property(rows):
    n = len(rows)
    det = brute_minor(rows, range(1, n + 1))
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            Flag(rows)
        return
    x = Flag(rows)
    assert x.minor(range(1, n + 1)) == det
    for I in proper_subsets(n):
        expected = brute_minor(rows, I)
        assert x.minor(I) == expected
        assert x.nonzero(I) == (expected != 0)


def test_minor_rejects_rows_outside_range():
    x = coordinate_flag((2, 1, 3))
    for rows in ({0}, {4}, {1, 4}, {-1, 2}):
        with pytest.raises(ValueError, match="not within"):
            x.minor(frozenset(rows))
        with pytest.raises(ValueError, match="not within"):
            x.nonzero(frozenset(rows))


def test_minor_rejects_repeated_rows():
    # a minor on rows (1, 1) has two equal rows, so it is 0; the de-duplicated
    # row set {1} would have answered 1
    x = Flag([[1, 2, 0], [3, 4, 0], [0, 0, 1]])
    for rows in ([1, 1], [2, 2], [1, 3, 1]):
        with pytest.raises(ValueError, match=f"row {rows[-1]} repeated"):
            x.minor(rows)
        with pytest.raises(ValueError, match=f"row {rows[-1]} repeated"):
            x.nonzero(rows)
    with pytest.raises(ValueError, match="row 1 repeated"):
        plucker_coordinate(x, [1, 1])
    assert x.minor([2, 1]) == -2 and x.nonzero([1, 2])


def test_minor_table_is_not_a_constructor_argument():
    m = coordinate_flag((1, 2)).matrix
    with pytest.raises(TypeError):
        Flag(m, _minors=[1, 0, 0, 0])
    assert Flag(m) == coordinate_flag((1, 2))


# u . P_w for a few (w, seed) pairs, captured from the Fraction implementation
# of random_cell_point; any change in the order of the RNG draws moves them.
CELL_POINT_PINS = [
    ((2, 3, 1), 0, [[729, -212, 1], [1, 552, 0], [0, 1, 0]]),
    ((3, 1, 4, 2), 7,
     [[941, 1, -692, -337], [-192, 0, 333, 1], [1, 0, -902, 0], [0, 0, 1, 0]]),
    ((2, 5, 1, 4, 3), 11,
     [[-74, 754, 1, 146, 773], [1, -47, 0, 599, 892], [0, 40, 0, -75, 1],
      [0, 751, 0, 1, 0], [0, 1, 0, 0, 0]]),
    ((4, 6, 1, 3, 5, 2), 3,
     [[114, -243, 1, 213, -733, -513], [236, 281, 0, 875, -30, 1],
      [189, 240, 0, 1, -866, 0], [1, 861, 0, 0, -974, 0],
      [0, 715, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0]]),
    ((7, 1, 5, 3, 6, 2, 4), 42,
     [[-499, 1, 518, -772, -437, 309, -949], [385, 0, 508, -543, -791, 1, -715],
      [-822, 0, 827, 1, 116, 0, 516], [-935, 0, 209, 0, -136, 0, 1],
      [-809, 0, 1, 0, -939, 0, 0], [-553, 0, 0, 0, 1, 0, 0],
      [1, 0, 0, 0, 0, 0, 0]]),
    ((8, 6, 7, 2, 4, 1, 5, 3), 2026,
     [[761, 48, 325, -757, 29, 1, 948, -346], [230, -543, 832, 1, -790, 0, 810, 951],
      [172, -139, 604, 0, 272, 0, 139, 1], [590, 725, 496, 0, 1, 0, 121, 0],
      [538, 573, 5, 0, 0, 0, 1, 0], [201, 1, 583, 0, 0, 0, 0, 0],
      [-97, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]]),
    ((1, 2, 3, 4, 5, 6, 7, 8), 5,
     [[1, 275, -477, 519, -266, 628, 414, 930], [0, 1, 723, 515, 335, 888, 85, -941],
      [0, 0, 1, 721, -47, 589, 931, -490], [0, 0, 0, 1, 329, -894, 845, -679],
      [0, 0, 0, 0, 1, -769, -239, -40], [0, 0, 0, 0, 0, 1, 778, -496],
      [0, 0, 0, 0, 0, 0, 1, -221], [0, 0, 0, 0, 0, 0, 0, 1]]),
    ((8, 7, 6, 5, 4, 3, 2, 1), 1,
     [[-478, -871, 564, 643, 735, 165, -725, 1], [334, -33, -80, 558, 14, -759, 1, 0],
      [-1, -808, -571, 615, -223, 1, 0, 0], [-202, 711, 829, -942, 1, 0, 0, 0],
      [561, 244, -114, 1, 0, 0, 0, 0], [-996, 571, 1, 0, 0, 0, 0, 0],
      [425, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]]),
]


@pytest.mark.parametrize("w, seed, rows", CELL_POINT_PINS)
def test_random_cell_point_draws_are_pinned(w, seed, rows):
    assert random_cell_point(w, seed=seed).matrix == Flag(rows).matrix


def test_random_cell_point_gives_up_after_retries(monkeypatch):
    # if every draw looks degenerate, all retries are spent and RuntimeError
    # is raised
    draws = []
    identity = coordinate_flag((1, 2, 3))  # p_2 = 0: not generic for 213

    def counting_flag(rows):
        draws.append(rows)
        return identity

    monkeypatch.setattr(flags, "Flag", counting_flag)
    with pytest.raises(RuntimeError, match="failed to sample"):
        random_cell_point((2, 1, 3), seed=0)
    assert len(draws) == MAX_SAMPLE_RETRIES


def test_random_cell_point_rejects_non_permutation():
    for w in ((1, 1, 2), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            random_cell_point(w, seed=0)


def test_identity_minors():
    for n in (2, 3, 4, 5):
        x = coordinate_flag(tuple(range(1, n + 1)))
        for i in range(1, n):
            assert plucker_coordinate(x, range(1, i + 1)) == 1


def test_minor_against_cofactor_oracle():
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        x = random_rational_matrix(rng, n)
        for I in proper_subsets(n):
            assert x.minor(I) == brute_minor(x.matrix, I)


def test_coordinate_flag_structure():
    assert coordinate_flag((1, 2, 3)).matrix == Flag(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ).matrix
    x = coordinate_flag((3, 2, 1))
    cols = [tuple(row[j] for row in x.matrix) for j in range(3)]
    assert cols == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_permutation_support_lemma():
    # p_I does not vanish at the coordinate flag of w iff I = w([1, |I|])
    for n in range(2, 7):
        for w in perms.all_perms(n):
            x = coordinate_flag(w)
            for I in proper_subsets(n):
                assert (x.minor(I) != 0) == (I == prefix_set(w, len(I)))


def test_pattern_of_pi_213():
    x = coordinate_flag((2, 1, 3))
    pat = subset_pattern(x)
    nonzero = {I for I, b in pat.items() if b}
    assert nonzero == {frozenset({2}), frozenset({1, 2})}


def test_three_term_relation():
    rng = random.Random(7)
    for _ in range(25):
        x = random_rational_matrix(rng, 3)
        p = lambda I: x.minor(frozenset(I))
        assert p({1}) * p({2, 3}) - p({2}) * p({1, 3}) + p({3}) * p({1, 2}) == 0


def test_nondegeneracy_and_acceptability_random_flags():
    rng = random.Random(99)
    for n in (2, 3, 4, 5, 6):
        for _ in range(4):
            x = random_rational_matrix(rng, n)
            pat = subset_pattern(x)
            for i in range(1, n):
                assert any(pat[frozenset(I)] for I in combinations(range(1, n + 1), i))
            report = check_acceptable(vanishing_pattern(x))
            assert report.accepted


def test_acceptability_all_pi_flags():
    for n in (2, 3, 4, 5):
        g = type_a_group(n)
        for w in perms.all_perms(n):
            report = check_acceptable(vanishing_pattern(coordinate_flag(w), g))
            assert report.accepted
            assert g.one_line(report.witness) == w


def test_random_cell_point_pattern_is_generic():
    for n in (2, 3, 4):
        g = type_a_group(n)
        for w in perms.all_perms(n):
            x = random_cell_point(w, seed=hash(w) & 0xFFFF)
            assert vanishing_pattern(x, g) == generic_pattern(g, g.from_one_line(w))


def test_random_cell_point_identity():
    x = random_cell_point((1, 2, 3), seed=0)
    pat = subset_pattern(x)
    for I, bit in pat.items():
        assert bit == (1 if sorted(I) == list(range(1, len(I) + 1)) else 0)


def test_random_cell_point_deterministic():
    a = random_cell_point((2, 3, 1), seed=5)
    b = random_cell_point((2, 3, 1), seed=5)
    assert a.matrix == b.matrix


def test_explicit_small_flag_is_acceptable():
    # columns (1,1,0), (0,0,1), (1,0,0): exact minors give an acceptable
    # pattern with witness 231
    x = flag_from_columns([(1, 1, 0), (0, 0, 1), (1, 0, 0)])
    pat = subset_pattern(x)
    assert pat == {
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({3}): 0,
        frozenset({1, 2}): 0,
        frozenset({1, 3}): 1,
        frozenset({2, 3}): 1,
    }
    report = check_acceptable(vanishing_pattern(x))
    assert report.accepted
    assert type_a_group(3).one_line(report.witness) == (2, 3, 1)


def test_flag_validation():
    with pytest.raises(ValueError):
        Flag([[1, 0], [2, 0]])
    with pytest.raises(ValueError):
        Flag([[1, 0, 0], [0, 1, 0]])
    x = coordinate_flag((1, 2, 3))
    with pytest.raises(ValueError):
        plucker_coordinate(x, {1, 2, 3})
    with pytest.raises(ValueError):
        plucker_coordinate(x, {0})
    with pytest.raises(ValueError):
        plucker_coordinate(x, set())
    # entries are exact: a float, or a bool posing as an int, is refused
    with pytest.raises(ValueError, match="flag entry 1.5 is not an int or Fraction"):
        Flag(((1.5, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="flag entry True"):
        Flag(((True, 0), (0, 1)))


@pytest.mark.parametrize("matrix, message", [
    ([[True, 0], [0]], "square"),
    ([["1", 0, 0], [0, 1]], "square"),
    ((), "square"),
    (((True, 0), (0, 0)), "flag entry True is not"),
    (((0, "1"), (0, 0)), "flag entry '1' is not"),
    (((1.5, 0.0), (0.0, 0.0)), "flag entry 1.5 is not"),
    (((Fraction(1, 2), 2.5), (0, 0)), "flag entry 2.5 is not"),
    (((1, 2), (2, 4)), "singular"),
    (((Fraction(1, 2), 1), (1, 2)), "singular"),
], ids=["ragged-bool", "ragged-str", "empty", "bool", "str", "float", "fraction-float",
        "singular-int", "singular-fraction"])
def test_flag_errors_keep_their_precedence(matrix, message):
    # square, then a bad entry, then singular, whatever the entry types
    with pytest.raises(ValueError, match=message):
        Flag(matrix)


# A flag in the cell of 4312, written in decimals; tests/test_cli.py reads the
# same entries from JSON and CSV files.
DECIMAL_ROWS = [["0.7", "0", "0.6", "0.3"], ["0.6", "0", "0.9", "0.2"],
                ["0", "0.1", "0", "0.7"], ["0.2", "0.2", "0.3", "0.1"]]


def test_every_builder_refuses_float_entries():
    exact = [[Fraction(e) for e in row] for row in DECIMAL_ROWS]
    assert recognize_typeA(FlagOracle(Flag(exact)), 4)[0] == (4, 3, 1, 2)
    # the binary fractions of the floats would put the flag in another cell
    rows = [[float(e) for e in row] for row in DECIMAL_ROWS]
    binary = [[Fraction(e) for e in row] for row in rows]
    assert recognize_typeA(FlagOracle(Flag(binary)), 4)[0] == (4, 3, 2, 1)
    with pytest.raises(ValueError, match="flag entry 0.7 is not an int or Fraction"):
        Flag(rows)
    with pytest.raises(ValueError, match="flag entry 0.7 is not an int or Fraction"):
        flag_from_columns(list(zip(*rows)))


@pytest.mark.parametrize("entry", [True, "1/0", None], ids=["bool", "zero-denominator", "none"])
def test_every_builder_refuses_a_non_number_with_the_typed_error(entry):
    message = f"flag entry {re.escape(repr(entry))} is not an int or Fraction"
    with pytest.raises(ValueError, match=message):
        Flag(((entry, 0), (0, 1)))
    with pytest.raises(ValueError, match=message):
        flag_from_columns(((entry, 0), (0, 1)))


@pytest.mark.parametrize("cols", [[(1, 0, 5), (0, 1)], [(1, 0), (0, 1, 7)]],
                         ids=["first-longer", "last-longer"])
def test_ragged_columns_are_refused(cols):
    with pytest.raises(ValueError, match="shorter|longer"):
        flag_from_columns(cols)


def test_flags_from_lists_are_equal_and_hashable():
    rows = [[1, 0], [0, 1]]
    x = Flag(rows)
    assert x == coordinate_flag((1, 2)) and hash(x) == hash(coordinate_flag((1, 2)))
    assert x.matrix == ((1, 0), (0, 1))
    rows[0][1] = 5  # the flag keeps its own copy
    assert x.matrix == ((1, 0), (0, 1))
    assert len({x, Flag(((1, 0), (0, 1))), parse_flag_json('[[1, 0], ["0", 1]]')}) == 1
    assert parse_flag_json('[[1, "1/2"], [0, 1]]') != x


def test_parsing_round_trip(tmp_path):
    x = parse_flag_json('[["1/2", 1, 0], [0, "3", 1], [1, 0, "2/5"]]')
    assert x.matrix[0][0] == Fraction(1, 2)
    assert x.matrix[2][2] == Fraction(2, 5)
    y = parse_flag_csv("1/2,1,0\n0,3,1\n1,0,2/5\n")
    assert x.matrix == y.matrix
    p = tmp_path / "flag.json"
    p.write_text('[["1","0"],["0","1"]]')
    z = load_flag(str(p))
    assert z.n == 2
    c = tmp_path / "flag.csv"
    c.write_text("1,0\n0,1\n")
    assert load_flag(str(c)).matrix == z.matrix
    assert subset_pattern(z) == {frozenset({1}): 1, frozenset({2}): 0}


def test_json_decimals_are_read_exactly(tmp_path):
    # 0.1 * 2.1 - 0.7 * 0.3 = 0 exactly; as binary floats p_12 would be
    # 3/2^56 and the vanishing would be missed
    text = "[[0.1, 0.7, 0], [0.3, 2.1, 1], [1, 0, 0]]"
    x = parse_flag_json(text)
    assert x.matrix[0][0] == Fraction(1, 10)
    assert x.minor({1, 2}) == 0 and not x.nonzero({1, 2})
    assert x.matrix == parse_flag_csv("0.1,0.7,0\n0.3,2.1,1\n1,0,0\n").matrix
    p = tmp_path / "flag.json"
    p.write_text(text)
    assert subset_pattern(load_flag(str(p)))[frozenset({1, 2})] == 0


def test_integral_file_entries_are_ints(tmp_path):
    p = tmp_path / "flag.json"
    p.write_text('[[1, 2], [3, 4]]')
    c = tmp_path / "flag.csv"
    c.write_text("1,2\n3,4\n")
    t = tmp_path / "flag.txt"  # not JSON, so read as CSV
    t.write_text("1,2\n3,4\n")
    for path in (p, c, t):
        rows = load_flag_rows(str(path))
        assert rows == [[1, 2], [3, 4]]
        assert all(type(e) is int for row in rows for e in row)
    # integral rationals and decimals are ints too; the others stay Fractions
    p.write_text('[["1/2", 0.5, "6/3"], [2.0, "7", 1], [0, 1, "-4/2"]]')
    c.write_text("1/2,0.5,6/3\n2.0,7,1\n0,1,-4/2\n")
    t.write_text("1/2,0.5,6/3\n2.0,7,1\n0,1,-4/2\n")
    for path in (p, c, t):
        rows = load_flag_rows(str(path))
        assert rows == [[Fraction(1, 2), Fraction(1, 2), 2], [2, 7, 1], [0, 1, -2]]
        assert [[type(e) for e in row] for row in rows] == [
            [Fraction, Fraction, int], [int, int, int], [int, int, int]
        ]


def test_loaded_int_rows_give_the_table_of_their_fraction_copies(tmp_path):
    c = tmp_path / "flag.csv"
    c.write_text("0,1,2,0\n1,0,3,0\n0,0,1,1\n2,0,0,5\n")
    x = load_flag(str(c))
    y = Flag(tuple(tuple(Fraction(e) for e in row) for row in x.matrix))
    assert x._minors == y._minors and x._scales == y._scales


@pytest.mark.parametrize("parse, text", [
    (parse_flag_csv, "1/0,0\n0,1\n"),
    (parse_flag_json, '[["1/0", 0], [0, 1]]'),
])
def test_a_zero_denominator_is_a_value_error_naming_the_entry(parse, text):
    with pytest.raises(ValueError, match="flag entry '1/0'"):
        parse(text)


@pytest.mark.parametrize(
    "text", ["5", "[1, 2]", '{"a": [1]}', "[[null]]", "[[[1]]]", "[[true, 0], [0, 1]]"]
)
def test_json_that_is_not_a_list_of_rows_is_refused(text):
    with pytest.raises(ValueError, match="JSON flag|flag entry"):
        parse_flag_json(text)


# ----- row-mask read-off against the per-subset oracles ----------------------------

def subset_vanishing_pattern(x, group):
    """Oracle: the pattern asked one validated subset at a time."""
    return VanishingPattern.from_levels(group, (
        sum(1 << pw.index for pw in orbit(group, i) if x.nonzero(subset_of(pw)))
        for i in range(1, group.rank + 1)
    ))


def has_generic_pattern(x, w):
    """Oracle: whether p_I(x) != 0 exactly when sorted(I) <= sorted(w([1, |I|]))
    componentwise: every mask of ``down_rows`` is nonzero, and no other
    proper minor is (the count of nonzero proper minors is their total)."""
    minors = x._minors
    below = 0
    for k in range(1, len(w)):
        rows = perms.down_rows(w[:k])
        if not all(minors[m] for m in rows):
            return False
        below += len(rows)
    return len(minors) - 2 - minors.count(0) == below


def counted_verdict(x, w):
    """The certificate of ``random_cell_point``: the nonzero proper minors
    number the down-sets of w.  Exact only for x = u . P_w."""
    generic = sum(perms.down_count(w[:k]) for k in range(1, len(w)))
    return len(x._minors) - 2 - x._minors.count(0) == generic


def cell_point_rows(u, w):
    """The rows of u . P_w: column j is column w(j) of u."""
    return [[row[v - 1] for v in w] for row in u]


def subset_has_generic_pattern(x, w):
    """Oracle: the generic test asked one validated subset at a time."""
    n = len(w)
    for k in range(1, n):
        prefix = sorted(w[:k])
        for I in combinations(range(1, n + 1), k):
            if x.nonzero(I) != all(a <= b for a, b in zip(I, prefix)):
                return False
    return True


def assert_mask_reads_agree(x, ws):
    g = type_a_group(x.n)
    assert vanishing_pattern(x) == subset_vanishing_pattern(x, g)
    for w in ws:
        assert has_generic_pattern(x, w) == subset_has_generic_pattern(x, w)


def adjacent_swaps(w):
    return [w[:j] + (w[j + 1], w[j]) + w[j + 2:] for j in range(len(w) - 1)]


def test_mask_reads_agree_on_every_coordinate_flag():
    # a coordinate flag is generic only for the identity, so the generic test
    # mostly rejects, at different subsets
    rng = random.Random(3)
    for n in range(3, 7):
        everything = list(perms.all_perms(n))
        for u in everything:
            ws = [u, tuple(range(1, n + 1)), *rng.sample(everything, 2)]
            assert_mask_reads_agree(coordinate_flag(u), ws)


def test_mask_reads_agree_on_seeded_cell_points():
    # each point is generic for w; against the neighbours w s_j and another
    # random w' the test rejects, often deep into the subsets
    rng = random.Random(8)
    accepted = rejected = 0
    for n in (6, 7, 8):
        for seed in range(12):
            w = tuple(rng.sample(range(1, n + 1), n))
            x = random_cell_point(w, seed=seed)
            ws = [w, *adjacent_swaps(w), tuple(rng.sample(range(1, n + 1), n))]
            assert_mask_reads_agree(x, ws)
            verdicts = [has_generic_pattern(x, v) for v in ws]
            assert verdicts[0]
            accepted += sum(verdicts)
            rejected += len(verdicts) - sum(verdicts)
    assert accepted >= 36 and rejected > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    st.permutations(range(1, n + 1)),
)))
def test_mask_reads_property(case):
    rows, w = case
    try:
        x = Flag(rows)
    except ValueError:  # singular
        return
    n = x.n
    witness, _ = recognize_typeA(FlagOracle(x), n)
    assert_mask_reads_agree(x, [tuple(w), witness])


@pytest.mark.parametrize("spec", ["A1", "A3", "B2"])
def test_vanishing_pattern_refuses_a_group_of_another_size(spec):
    with pytest.raises(ValueError, match=f"flag in C\\^3 needs the group A2, not {spec}"):
        vanishing_pattern(coordinate_flag((2, 3, 1)), weyl_group(spec))


@pytest.mark.parametrize("n", [3, 5])
def test_flag_oracle_refuses_weights_of_another_size(n):
    x = random_cell_point((3, 1, 4, 2), seed=1)
    with pytest.raises(ValueError, match=f"flag in C\\^4 needs the group A3, not A{n - 1}"):
        recognize_typeA(FlagOracle(x), n)


def test_flag_oracle_checks_each_change_of_group(monkeypatch):
    # the group is checked when it changes: a refused group stays refused
    # when asked twice and after a query of the right one, and a
    # recognition checks once
    x = random_cell_point((3, 1, 4, 2), seed=1)
    oracle = FlagOracle(x)
    right = orbit(weyl_group("A3"), 2)[1]
    bit = int(x.nonzero_at(right.rows))
    for spec in ("A3", "A4", "A4", "A2", "A3", "A4"):
        if spec == "A3":
            assert oracle.query(right) == bit
            continue
        with pytest.raises(ValueError, match=f"flag in C\\^4 needs the group A3, not {spec}"):
            oracle.query(orbit(weyl_group(spec), 2)[1])
    assert oracle.query(orbit(WeylGroup(cartan_datum("A", 3)), 2)[1]) == bit  # not interned
    checks = []
    monkeypatch.setattr(recognition, "check_flag_group",
                        lambda n, group: checks.append(group) or flags.check_flag_group(n, group))
    witness, log = recognize_typeA(FlagOracle(x), 4)
    assert witness == (3, 1, 4, 2) and log.count > 1 and checks == [weyl_group("A3")]


def test_mask_reader_checks_its_range():
    x = coordinate_flag((2, 1, 3))
    assert x.nonzero_at(0b10) and not x.nonzero_at(0b100)
    for mask in (-1, 0b1000):
        with pytest.raises(ValueError, match="not within"):
            x.nonzero_at(mask)


def test_random_cell_point_past_n9_builds_no_orbit_table(monkeypatch):
    from schubcells import plucker

    def boom(self, group, level):
        raise AssertionError("orbit table built")

    monkeypatch.setattr(plucker.OrbitTable, "__init__", boom)
    w = (3, 10, 1, 7, 2, 9, 4, 8, 6, 5)
    x = random_cell_point(w, seed=10)
    assert x.n == 10 and has_generic_pattern(x, w) and counted_verdict(x, w)
    assert subset_has_generic_pattern(x, w)


# ----- the draws and the counted certificate of random_cell_point -----------------

def reference_cell_draws(w, seed):
    """Oracle: the u of each successive draw of ``random_cell_point``, every
    entry above the diagonal randrange(2001) - 1000, redrawn at 0."""
    n = len(w)
    rng = random.Random(seed)
    while True:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                val = 0
                while val == 0:
                    val = rng.randrange(2001) - 1000
                u[i][j] = val
        yield u


def test_cell_point_draws_are_the_randrange_stream(monkeypatch):
    # random_cell_point draws with getrandbits; a CPython whose randrange
    # reads the stream otherwise fails here, not only in CELL_POINT_PINS
    draws = []
    def recording_flag(rows):
        draws.append(rows)
        return Flag(rows)

    monkeypatch.setattr(flags, "Flag", recording_flag)
    rng = random.Random(25)
    for n in range(2, 10):
        for seed in range(200):
            w = tuple(rng.sample(range(1, n + 1), n))
            draws.clear()
            x = random_cell_point(w, seed=seed)
            assert x.matrix == tuple(map(tuple, draws[-1]))
            for rows, u in zip(draws, reference_cell_draws(w, seed)):
                assert rows == cell_point_rows(u, w)


def test_memoized_prefix_count_is_the_down_count():
    for mask in range(1 << 8):
        rows = [r for r in range(1, 9) if mask >> r - 1 & 1]
        count = flags._down_count_at(mask)
        assert count == perms.down_count(rows) == len(perms.down_rows(rows))


def test_prefix_count_memo_holds_one_entry_per_row_mask():
    # every w of S_n at n <= 6, then 300 draws at n = 10: far more prefixes
    # w([1, k]) than the 2^n row masks that bound the memo
    memo = flags._down_count_at
    memo.cache_clear()
    rng = random.Random(10)
    for n in range(2, 11):
        ws = perms.all_perms(n) if n <= 6 else [
            tuple(rng.sample(range(1, n + 1), n)) for _ in range(300 if n == 10 else 20)]
        for seed, w in enumerate(ws):
            random_cell_point(w, seed=seed)
        assert memo.cache_info().currsize <= 2 ** n
    assert memo.cache_info().currsize > 2 ** 9  # the n = 10 draws did add masks


def test_a_cancelling_draw_is_rejected_and_the_next_returned(monkeypatch):
    # w = 321: p_12 of u . P_w is u13 - u12 u23, so u13 = u12 u23 cancels it
    w = (3, 2, 1)
    cancelling = Flag(cell_point_rows([[1, 2, 6], [0, 1, 3], [0, 0, 1]], w))
    generic = Flag(cell_point_rows([[1, 2, 5], [0, 1, 3], [0, 0, 1]], w))
    assert cancelling.minor({1, 2}) == 0 and generic.minor({1, 2}) == -1
    script = [cancelling, generic, cancelling]
    draws = []

    def scripted_flag(rows):
        draws.append(rows)
        return script[len(draws) - 1]

    monkeypatch.setattr(flags, "Flag", scripted_flag)
    assert random_cell_point(w, seed=0) is generic
    assert len(draws) == 2


def test_counted_verdict_agrees_with_the_oracle_on_seeded_draws(monkeypatch):
    # every draw passes through the hook, the rejected ones too
    draws = []
    def recording_flag(rows):
        draws.append(Flag(rows))
        return draws[-1]

    monkeypatch.setattr(flags, "Flag", recording_flag)
    rng = random.Random(22)
    for n in (6, 7, 8):
        for seed in range(10):
            w = tuple(rng.sample(range(1, n + 1), n))
            draws.clear()
            x = random_cell_point(w, seed=seed)
            verdicts = [has_generic_pattern(d, w) for d in draws]
            assert [counted_verdict(d, w) for d in draws] == verdicts
            assert x is draws[verdicts.index(True)]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
)))
def test_counted_verdict_property(case):
    # small entries, zeros among them, cancel often; on u . P_w the count
    # decides exactly what the per-mask oracle decides
    w, entries = case
    n = len(w)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    above = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            u[i][j] = next(above)
    x = Flag(cell_point_rows(u, tuple(w)))
    assert counted_verdict(x, tuple(w)) == has_generic_pattern(x, tuple(w))
