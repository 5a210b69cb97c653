"""Complete flags in C^n over exact rationals (type A only): Plucker
coordinates as minors, coordinate flags of permutations, and generic cell
points.

Vanishing is decided exactly, never in floating point.  Entries are ints or
Fractions, and int entries stay ints; a column with a Fraction is scaled by
d_j, the lcm of its denominators, so the minors are Python ints.  One table
holds the minor of every column prefix [1, |I|] on every row set I, indexed
by the row mask of I (bit r - 1 for row r), and is built level by level by
Laplace expansion along column |I|: a cached per-n expansion plan lists, for
each row r and level k, the masks that contain r by the sign of r's
cofactor, so each nonzero entry of column k is added into the minors that
use it and zero entries cost nothing.  The row mask is the one format of a
type A subset: Plucker weights carry it as ``rows``, so
``vanishing_pattern`` and ``FlagOracle`` index the table by it;
``random_cell_point`` checks a draw against the masks of
``perms.down_rows``, which needs no orbit table, and ``subset_pattern``
reads every mask of the table back as a subset.  ``nonzero`` and ``minor``
validate row lists for outside callers; ``minor`` divides by
d_1 ... d_|I| for the exact Fraction.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import cache

from .perms import check_permutation, down_rows
from .plucker import ones, orbit, subset_str
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
        bad = [e for row in matrix for e in row if type(e) not in (int, Fraction)]
        if bad:
            raise ValueError(f"flag entry {bad[0]!r} is not an int or Fraction")  # nor a bool
        cols, scales = [], [1]
        for j in range(n):
            col = [row[j] for row in matrix]
            d = 1
            if Fraction in map(type, col):
                d = math.lcm(*(e.denominator for e in col))
                col = [e.numerator * (d // e.denominator) for e in col]
            cols.append(col)
            scales.append(scales[-1] * d)
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
        self.matrix = matrix
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


def flag_from_rows(rows) -> Flag:
    """The flag of a matrix given by rows; int entries stay ints, the others
    become Fractions."""
    return Flag(tuple(tuple(x if type(x) is int else Fraction(x) for x in row) for row in rows))


def flag_from_columns(cols) -> Flag:
    n = len(cols)
    return flag_from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


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
    return flag_from_rows(rows)


def subset_pattern(x: Flag) -> dict[frozenset[int], int]:
    """Raw vanishing pattern keyed by the proper subsets, read off every
    mask of the minor table but the empty and the full one."""
    return {frozenset(r + 1 for r in ones(m)): int(c != 0)
            for m, c in enumerate(x._minors[1:-1], 1)}


def vanishing_pattern(x: Flag, group: WeylGroup | None = None):
    """The vanishing pattern of a flag over the Plucker weights of its type A
    group, read off the minor table at each weight's row mask."""
    from .patterns import VanishingPattern

    if group is None:
        group = type_a_group(x.n)
    check_flag_group(x.n, group)
    minors = x._minors
    return VanishingPattern.from_levels(group, (
        sum(1 << pw.index for pw in orbit(group, i) if minors[pw.rows])
        for i in range(1, group.rank + 1)
    ))


MAX_SAMPLE_RETRIES = 64


def _has_generic_pattern(x: Flag, w: tuple[int, ...]) -> bool:
    """Whether p_I(x) != 0 exactly when sorted(I) <= sorted(w([1, |I|]))
    componentwise: every mask of ``down_rows`` is nonzero, and no other
    proper minor is (the count of nonzero proper minors is their total)."""
    minors = x._minors
    below = 0
    for k in range(1, len(w)):
        rows = down_rows(w[:k])
        if not all(minors[m] for m in rows):
            return False
        below += len(rows)
    return len(minors) - 2 - minors.count(0) == below


def random_cell_point(w, seed=None) -> Flag:
    """A flag in the open cell of w whose vanishing pattern is the generic one.

    Draws x = u . P_w with u upper unitriangular and nonzero integer entries
    in [-1000, 1000]; the pattern is verified against the generic pattern and
    the draw is repeated on failure (which happens only on a proper
    subvariety of the cell).
    """
    w = tuple(w)
    n = len(w)
    check_permutation(w, n)
    rng = random.Random(seed)
    for _ in range(MAX_SAMPLE_RETRIES):
        u = [[0] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = 1
            for j in range(i + 1, n):
                val = 0
                while val == 0:
                    val = rng.randint(-1000, 1000)
                u[i][j] = val
        # P_w has its ones at (w(j), j), so column j of u . P_w is column w(j) of u
        x = flag_from_rows([[row[v - 1] for v in w] for row in u])
        if _has_generic_pattern(x, w):
            return x
    raise RuntimeError(f"failed to sample a generic point of the cell of {w}")


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
    return flag_from_rows(_json_rows(text))


def parse_flag_csv(text: str) -> Flag:
    return flag_from_rows(_csv_rows(text))


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
    return flag_from_rows(load_flag_rows(path))


def pattern_json(x: Flag) -> str:
    return json.dumps({subset_str(I): b for I, b in subset_pattern(x).items()}, sort_keys=True)
