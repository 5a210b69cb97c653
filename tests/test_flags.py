"""Exact flags: minors, coordinate flags, generic cell points, pattern
extraction, parsing."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcells import flags, perms
from schubcells.flags import (
    Flag,
    MAX_SAMPLE_RETRIES,
    flag_from_columns,
    coordinate_flag,
    flag_from_rows,
    load_flag,
    load_flag_rows,
    parse_flag_csv,
    parse_flag_json,
    pattern_json,
    plucker_coordinate,
    random_cell_point,
    subset_pattern,
    type_a_group,
    vanishing_pattern,
)
from schubcells.patterns import VanishingPattern, check_acceptable, generic_pattern
from schubcells.plucker import orbit, subset_of
from schubcells.recognition import FlagOracle, recognize_typeA
from schubcells.weyl import weyl_group


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
            return flag_from_rows(rows)
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
            return flag_from_rows(rows)
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
            flag_from_rows(rows)
        return
    x = flag_from_rows(rows)
    assert x._minors == expected
    assert all(type(m) is int for m in x._minors)


def test_plan_table_matches_the_laplace_oracle_on_cell_points_and_dense_matrices():
    rng = random.Random(16)
    for n in range(6, 10):
        for seed in range(4):
            x = random_cell_point(tuple(rng.sample(range(1, n + 1), n)), seed=seed)
            assert x._minors == laplace_minors(x.matrix)
            y = flag_from_rows([[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)])
            assert y._minors == laplace_minors(y.matrix)


def test_int_entries_stay_ints():
    for w, seed in (((2, 3, 1), 0), ((4, 6, 1, 3, 5, 2), 3), ((8, 6, 7, 2, 4, 1, 5, 3), 2026)):
        x = random_cell_point(w, seed=seed)
        assert all(type(e) is int for row in x.matrix for e in row)
        y = Flag(tuple(tuple(Fraction(e) for e in row) for row in x.matrix))
        assert y._minors == x._minors and y._scales == x._scales
        for I in proper_subsets(len(w)):
            assert y.minor(I) == x.minor(I)
    assert all(type(e) is int for row in coordinate_flag((3, 1, 2)).matrix for e in row)
    mixed = flag_from_rows([[1, Fraction(1, 2)], ["3/4", 2]]).matrix
    assert [[type(e) for e in row] for row in mixed] == [[int, Fraction], [Fraction, int]]


def test_singular_prefixes_scaled_columns():
    # column 2 is 1/3 of column 1 on rows 1, 2, so p_12 vanishes; the column
    # denominators 3 and 7 are scaled away and back exactly
    x = flag_from_rows([
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
            flag_from_rows(rows)
        return
    x = flag_from_rows(rows)
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
    x = flag_from_rows([[1, 2, 0], [3, 4, 0], [0, 0, 1]])
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
    assert random_cell_point(w, seed=seed).matrix == flag_from_rows(rows).matrix


def test_random_cell_point_gives_up_after_retries(monkeypatch):
    # if every draw looks degenerate, all retries are spent and RuntimeError
    # is raised
    draws = []
    identity = coordinate_flag((1, 2, 3))  # p_2 = 0: not generic for 213

    def counting_flag_from_rows(rows):
        draws.append(rows)
        return identity

    monkeypatch.setattr(flags, "flag_from_rows", counting_flag_from_rows)
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
    assert coordinate_flag((1, 2, 3)).matrix == flag_from_rows(
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
                assert (x.minor(I) != 0) == (I == perms.prefix_set(w, len(I)))


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
        flag_from_rows([[1, 0], [2, 0]])
    with pytest.raises(ValueError):
        flag_from_rows([[1, 0, 0], [0, 1, 0]])
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
    data = json.loads(pattern_json(z))
    assert data == {"1": 1, "2": 0}


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
    assert json.loads(pattern_json(load_flag(str(p))))["12"] == 0


def test_integral_file_entries_are_ints(tmp_path):
    p = tmp_path / "flag.json"
    p.write_text('[[1, 2], [3, 4]]')
    c = tmp_path / "flag.csv"
    c.write_text("1,2\n3,4\n")
    for path in (p, c):
        rows = load_flag_rows(str(path))
        assert rows == [[1, 2], [3, 4]]
        assert all(type(e) is int for row in rows for e in row)
    # integral rationals and decimals are ints too; the others stay Fractions
    p.write_text('[["1/2", 0.5, "6/3"], [2.0, "7", 1], [0, 1, "-4/2"]]')
    c.write_text("1/2,0.5,6/3\n2.0,7,1\n0,1,-4/2\n")
    for path in (p, c):
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
        assert flags._has_generic_pattern(x, w) == subset_has_generic_pattern(x, w)


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
            verdicts = [flags._has_generic_pattern(x, v) for v in ws]
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
        x = flag_from_rows(rows)
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
    assert x.n == 10 and flags._has_generic_pattern(x, w)
    assert subset_has_generic_pattern(x, w)
