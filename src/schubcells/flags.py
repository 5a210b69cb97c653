"""Complete flags in C^n over exact rationals (type A only): Plucker
coordinates as minors, coordinate flags of permutations, and generic cell
points.

Vanishing is decided exactly, never in floating point.  ``Flag`` is the one
builder, and it refuses any entry that is not an int or a Fraction (a float
or a bool too).  Int entries stay ints; a matrix of ints only is read as it
is, and otherwise a column with a Fraction is scaled by d_j, the lcm of its
denominators, so the minors are Python ints.  One table holds the minor of
every column prefix [1, |I|] on every row set I, indexed by the row mask of
I (bit r - 1 for row r), and is built level by level by Laplace expansion
along column |I|: a cached per-n expansion plan lists, for each row r and
level k, the masks that contain r by the sign of r's cofactor, so each
nonzero entry of column k is added into the minors that use it and zero
entries cost nothing.  The row mask is the one format of a type A subset:
Plucker weights carry it as ``rows``, so ``vanishing_pattern`` and
``FlagOracle`` index the table by it.  ``random_cell_point`` certifies a
draw u . P_w by a count alone: its nonzero proper minors all lie in the
down-sets of w([1, k]), so it is generic when they number the sum of
``perms.down_count`` over k, and neither an orbit table nor a mask list is
built.  That count is memoized per row mask of w([1, k]), at most 2^n ints
once points of C^n are drawn.  Each entry of u is drawn from
``getrandbits(11)`` as CPython's ``randrange(2001) - 1000``, redrawn at 0,
so a seed gives the same points as that loop.  ``nonzero`` and ``minor``
validate row lists for outside callers; ``minor`` divides by d_1 ... d_|I|
for the exact Fraction.

Realizability lives beside the flags that certify it: at n <= 3 every
acceptable vector that the three-term relation allows is realized by an
integer flag whose ``vanishing_pattern`` is that vector.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import cache
from itertools import product

from .patterns import (
    VanishingPattern,
    all_acceptable_patterns,
    coordinate_flag_pattern,
    generic_pattern,
)
from .perms import check_permutation, down_count
from .plucker import PluckerWeight, orbit, weight_from_subset
from .weyl import WeylGroup, weyl_group

def type_a_group(n: int) -> WeylGroup:
    """The (cached) Weyl group acting on flags in C^n."""
    return weyl_group("A", n - 1)


def check_flag_group(n: int, group: WeylGroup) -> None:
    """Refuse a group whose weights are not row masks of a flag in C^n."""
    if group.type_letter != "A" or group.rank != n - 1:
        raise ValueError(f"a flag in C^{n} needs the group A{n - 1}, not {group.datum.name}")


@cache
def expansion_plan(n: int) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]:
    """Per level k = 1..n and row r (bit r), the row masks m of popcount k
    that contain r, as (plus, minus) by the sign (-1)^(rows of m above r) of
    r's cofactor along column k: minors[m] is the signed sum of
    col_k[r] * minors[m ^ 1 << r] over the rows r of m."""
    levels = [[([], []) for _ in range(n)] for _ in range(n)]
    for m in range(1, 1 << n):
        level = levels[m.bit_count() - 1]
        rest, odd = m, 0
        while rest:  # rows from the top down
            r = rest.bit_length() - 1
            level[r][odd].append(m)
            odd ^= 1
            rest ^= 1 << r
    return tuple(tuple((tuple(plus), tuple(minus)) for plus, minus in level) for level in levels)


class Flag:
    """A complete flag: column i of a nonsingular matrix spans F_i together
    with columns 1..i-1.  Flags with equal matrices are equal.

    ``_minors[mask]`` is the minor of the column-scaled integer matrix on the
    rows in mask and the first popcount(mask) columns; ``_scales[k]`` is
    d_1 ... d_k, by which the minors on k columns were multiplied.
    """

    __slots__ = ("matrix", "_minors", "_scales")

    def __init__(self, matrix: tuple[tuple[int | Fraction, ...], ...]):
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValueError("flag matrix must be square and nonempty")
        cols = list(zip(*matrix))
        scales = [1] * (n + 1)
        if {type(e) for col in cols for e in col} != {int}:
            bad = [e for row in matrix for e in row if type(e) not in (int, Fraction)]
            if bad:
                raise ValueError(f"flag entry {bad[0]!r} is not an int or Fraction")  # nor a bool
            for j, col in enumerate(cols):
                d = 1
                if Fraction in map(type, col):
                    d = math.lcm(*(e.denominator for e in col))
                    cols[j] = [e.numerator * (d // e.denominator) for e in col]
                scales[j + 1] = scales[j] * d
        minors = [0] * (1 << n)
        minors[0] = 1
        for col, level in zip(cols, expansion_plan(n)):
            for r, c in enumerate(col):
                if c:
                    bit = 1 << r
                    plus, minus = level[r]
                    for m in plus:
                        minors[m] += c * minors[m ^ bit]
                    for m in minus:
                        minors[m] -= c * minors[m ^ bit]
        if minors[-1] == 0:
            raise ValueError("flag matrix is singular")
        self.matrix = tuple(map(tuple, matrix))
        self._minors = minors
        self._scales = scales

    def __eq__(self, other):
        return isinstance(other, Flag) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def _mask(self, rows) -> int:
        n = len(self.matrix)
        mask = 0
        for r in rows:
            if not 1 <= r <= n:
                raise ValueError(f"subset {sorted(rows)} not within [1, {n}]")
            mask |= 1 << (r - 1)
        if mask.bit_count() != len(rows):
            rows = sorted(rows)
            repeated = next(a for a, b in zip(rows, rows[1:]) if a == b)
            raise ValueError(f"row {repeated} repeated in {rows}")
        return mask

    def nonzero(self, rows) -> bool:
        """Whether the minor on the distinct rows ``rows`` (1-based) and
        columns [1, |rows|] is nonzero, read off the integer table."""
        return self.nonzero_at(self._mask(rows))

    def nonzero_at(self, mask: int) -> bool:
        """``nonzero`` for the rows of ``mask`` (bit r - 1 for row r)."""
        if not 0 <= mask < len(self._minors):
            raise ValueError(f"row mask {mask:#b} not within [1, {self.n}]")
        return self._minors[mask] != 0

    def minor(self, rows) -> Fraction:
        """Minor on the distinct rows ``rows`` and columns [1, |rows|], 1-based."""
        mask = self._mask(rows)
        return Fraction(self._minors[mask], self._scales[mask.bit_count()])


def flag_from_columns(cols) -> Flag:
    """The flag whose column i is cols[i]; ragged columns raise ValueError."""
    return Flag(list(zip(*cols, strict=True)))


def plucker_coordinate(x: Flag, I) -> Fraction:
    """Exact value of p_I: the minor with row set I and column set [1, |I|]."""
    I = tuple(I)  # a set would hide a repeated row from Flag.minor
    if not 1 <= len(I) <= x.n - 1:
        raise ValueError(f"subset size {len(I)} out of range 1..{x.n - 1}")
    return x.minor(I)


def coordinate_flag(w) -> Flag:
    """The flag of coordinate subspaces spanned by e_{w(1)}, ..., e_{w(i)}."""
    w = tuple(w)
    n = len(w)
    rows = [[0] * n for _ in range(n)]
    for i, target in enumerate(w):
        rows[target - 1][i] = 1
    return Flag(rows)


def vanishing_pattern(x: Flag, group: WeylGroup | None = None) -> VanishingPattern:
    """The vanishing pattern of a flag over the Plucker weights of its type A
    group, read off the minor table at each weight's row mask."""
    if group is None:
        group = type_a_group(x.n)
    check_flag_group(x.n, group)
    minors = x._minors
    return VanishingPattern.from_levels(group, (
        sum(1 << pw.index for pw in orbit(group, i) if minors[pw.rows])
        for i in range(1, group.rank + 1)
    ))


MAX_SAMPLE_RETRIES = 64


@cache
def _down_count_at(mask: int) -> int:
    """``perms.down_count`` of the rows of ``mask`` (bit r - 1 for row r),
    memoized per mask, so at most 2^n entries once points of C^n are drawn."""
    return down_count([r + 1 for r in range(mask.bit_length()) if mask >> r & 1])


def random_cell_point(w, seed=None) -> Flag:
    """A flag in the open cell of w whose vanishing pattern is the generic one.

    Draws x = u . P_w with u upper unitriangular and nonzero integer entries
    in [-1000, 1000], row by row: each is ``randrange(2001) - 1000`` of
    ``random.Random(seed)``, redrawn at 0, read straight off
    ``getrandbits(11)``.  The pattern is verified by a count against the
    generic count, memoized per prefix row mask (at most 2^n entries), and
    the draw is repeated on failure (which happens only on a proper
    subvariety of the cell).
    """
    w = tuple(w)
    n = len(w)
    check_permutation(w, n)
    # P_w has its ones at (w(j), j), so column j of x = u . P_w is column
    # w(j) of u and is zero below row w(j): a term of the minor on rows I and
    # columns [1, k] can be nonzero only if sorted(I) <= sorted(w([1, k]))
    # componentwise (Hall's condition).  Every nonzero proper minor of x thus
    # lies in the down-sets, so all of those are nonzero, and the pattern is
    # generic, exactly when the nonzero proper minors number their total.
    generic = prefix = 0
    for v in w[:-1]:
        prefix |= 1 << v - 1
        generic += _down_count_at(prefix)
    getrandbits = random.Random(seed).getrandbits
    for _ in range(MAX_SAMPLE_RETRIES):
        u = [[0] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = 1
            for j in range(i + 1, n):
                # randrange(2001) draws 11 bits until they are below 2001
                val = getrandbits(11)
                while val >= 2001 or val == 1000:
                    val = getrandbits(11)
                u[i][j] = val - 1000
        x = Flag([[row[v - 1] for v in w] for row in u])
        minors = x._minors
        if len(minors) - 2 - minors.count(0) == generic:
            return x
    raise RuntimeError(f"failed to sample a generic point of the cell of {w}")


# ----- realizable patterns at small n --------------------------------------------


class RealizableSet:
    """Restricted patterns realized by actual flags, with cell labels.

    ``certified`` distinguishes the exactly-enumerated small cases from
    sampled lower-bound sets.
    """

    __slots__ = ("coords", "patterns", "certified")

    def __init__(self, coords: tuple[PluckerWeight, ...],
                 patterns: dict[tuple[int, ...], tuple], certified: bool):
        self.coords, self.patterns, self.certified = coords, patterns, certified


@cache
def realizable_full_patterns(n: int):
    """All vanishing patterns of flags in C^n for n <= 3, certified exact.

    Candidates are the acceptable vectors consistent with the three-term
    quadratic relation among the n=3 minors; each candidate is then realized
    by an integer flag whose ``vanishing_pattern`` is the candidate, which
    certifies the enumeration both ways.
    Returns a list of (VanishingPattern, witness, Flag).
    """
    if n not in (2, 3):
        raise ValueError("exact realizability enumeration is implemented for n <= 3")
    group = type_a_group(n)
    # p1 p23 - p2 p13 + p3 p12 = 0 cannot hold with one nonzero term
    terms = [(weight_from_subset(group, {j}), weight_from_subset(group, {1, 2, 3} - {j}))
             for j in (1, 2, 3)] if n == 3 else []
    results = []
    for pat, witness in all_acceptable_patterns(group):
        if sum(pat.bit(a) & pat.bit(b) for a, b in terms) == 1:
            continue
        flag = _realize(n, pat)
        if flag is None:
            raise RuntimeError(
                f"candidate pattern {pat.bits} passed the filters but was not realized"
            )
        results.append((pat, witness, flag))
    return results


def _realize(n: int, pattern: VanishingPattern) -> Flag | None:
    """The first flag, in a fixed search order, whose vanishing pattern is
    ``pattern``: column 1 holds the level-1 bits, each middle column ranges
    over [-2, 2]^n and the last column is a unit vector.  ``Flag`` decides
    singularity and every minor on its integer table."""
    group = pattern.group
    first = tuple(pattern.bit(weight_from_subset(group, {j})) for j in range(1, n + 1))
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for middle in product(product(range(-2, 3), repeat=n), repeat=n - 2):
        for last in units:
            try:
                flag = flag_from_columns((first, *middle, last))
            except ValueError:  # singular
                continue
            if vanishing_pattern(flag, group) == pattern:
                return flag
    return None


def realizable_restricted_patterns(n: int, coords) -> RealizableSet:
    """Restrictions of flag vanishing patterns to the given coordinates.

    Exact (certified) for n <= 3.  For n = 4 the result combines coordinate
    flags and generic cell points only, so it is a sampled lower-bound set.
    """
    group = type_a_group(n)
    coords = tuple(
        pw if isinstance(pw, PluckerWeight) else weight_from_subset(group, pw)
        for pw in coords
    )
    found: dict[tuple[int, ...], set] = {}
    if n in (2, 3):
        for pat, witness, _flag in realizable_full_patterns(n):
            key = pat.restrict(coords)
            found.setdefault(key, set()).add(group.one_line(witness))
        certified = True
    elif n == 4:
        for w in group.elements():
            for pat in (generic_pattern(group, w), coordinate_flag_pattern(group, w)):
                key = pat.restrict(coords)
                found.setdefault(key, set()).add(group.one_line(w))
        certified = False
    else:
        raise ValueError("realizable pattern enumeration is implemented for n <= 4")
    patterns = {key: tuple(sorted(ws)) for key, ws in found.items()}
    return RealizableSet(coords, patterns, certified)


# ----- parsing ------------------------------------------------------------------

def _parse_entry(e) -> int | Fraction:
    """An entry as an int when it is integral, else as a Fraction."""
    if isinstance(e, bool) or not isinstance(e, (str, int, Fraction)):
        raise ValueError(f"flag entry {e!r} is not a number")
    try:
        x = Fraction(e)
    except ZeroDivisionError:
        raise ValueError(f"flag entry {e!r} divides by zero") from None
    return x.numerator if x.denominator == 1 else x


def _json_rows(text: str) -> list[list[int | Fraction]]:
    data = json.loads(text, parse_float=Fraction)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("a JSON flag must be a list of rows")
    return [[_parse_entry(e) for e in row] for row in data]


def _csv_rows(text: str) -> list[list[int | Fraction]]:
    return [[_parse_entry(e) for e in row] for row in csv.reader(io.StringIO(text)) if row]


def parse_flag_json(text: str) -> Flag:
    return Flag(_json_rows(text))


def parse_flag_csv(text: str) -> Flag:
    return Flag(_csv_rows(text))


def load_flag_rows(path: str) -> list[list[int | Fraction]]:
    """The rows of a JSON or CSV matrix file, read without building the
    flag, so that a caller can check the size before paying 2^n minors."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return _csv_rows(text)
    try:
        return _json_rows(text)
    except json.JSONDecodeError:
        return _csv_rows(text)


def load_flag(path: str) -> Flag:
    return Flag(load_flag_rows(path))
