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
so a seed gives the same points as that loop.  The table has two readers:
``minor`` takes a row list, checks it and divides by d_1 ... d_|I| for the
exact Fraction, and ``nonzero_at`` takes a row mask.  A flag file is read by
``load_flag_rows`` and built by ``Flag``, so a caller can check the size
before paying 2^n minors.

Realizability lives beside the flags that certify it.  For 2 <= n <= 4,
``realizable_full_patterns`` is the one owner of the set of patterns that
flags in C^n realize: the acceptable patterns that the generated flag
Plucker relations allow, grown level by level from those relations with no
enumeration of W, each certified by a seeded integer flag whose
``vanishing_pattern`` is that pattern, and a drawn pattern outside them is
an error.  The restricted sets and the degeneration posets read it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from .patterns import VanishingPattern, check_acceptable
from .perms import check_permutation, down_count
from .plucker import PluckerWeight, orbit, orbit_table, weight_from_subset
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

    def nonzero_at(self, mask: int) -> bool:
        """Whether the minor on the rows of ``mask`` (bit r - 1 for row r)
        and columns [1, popcount(mask)] is nonzero, read off the integer table."""
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


def coordinate_flag(w) -> Flag:
    """The flag of coordinate subspaces spanned by e_{w(1)}, ..., e_{w(i)}."""
    w = tuple(w)
    n = len(w)
    rows = [[0] * n for _ in range(n)]
    for i, target in enumerate(w):
        rows[target - 1][i] = 1
    return Flag(rows)


def vanishing_pattern(x: Flag) -> VanishingPattern:
    """The vanishing pattern of a flag over the Plucker weights of its type A
    group, read off the minor table at each weight's row mask."""
    group = type_a_group(x.n)
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


@cache
def flag_relations(n: int) -> tuple[tuple[tuple[PluckerWeight, PluckerWeight], ...], ...]:
    """The flag Plucker relations of C^n [F97, ch. 9] with two or more terms,
    one per (I, J) with |I| = k - 1, |J| = l + 1 and k <= l: the terms
    (p_{I+j}, p_{J-j}) for j in J - I.  Signs are dropped, since a relation
    only forbids exactly one nonzero term.  k = l with I within J is skipped:
    its two terms are one product, p_a p_b and p_b p_a."""
    group = type_a_group(n)
    relations = []
    for k in range(1, n):
        for size in range(k + 1, n + 1):  # size = |J| = l + 1
            for I in combinations(range(1, n + 1), k - 1):
                for J in combinations(range(1, n + 1), size):
                    terms = tuple((weight_from_subset(group, (*I, j)),
                                   weight_from_subset(group, set(J) - {j}))
                                  for j in J if j not in I)
                    if len(terms) >= 2 and not (size == k + 1 and set(I) < set(J)):
                        relations.append(terms)
    return tuple(relations)


CERTIFY_ENTRIES = (-2, -1, 0, 0, 0, 1, 2)
MAX_CERTIFY_DRAWS = 50_000


@cache
def realizable_full_patterns(n: int):
    """Every vanishing pattern of a flag in C^n, 2 <= n <= 4, exact.

    The candidates are the acceptable patterns on which no relation of
    ``flag_relations`` has exactly one nonzero term, so no other pattern is
    realizable.  A relation pairs level-k with level-l weights, k <= l, so
    the search grows tuples of nonempty orbit masks level by level, checks
    each against the relations of its new level l, and keeps the survivors
    that ``check_acceptable`` accepts, with their witnesses; no acceptable
    vector is listed.  A fixed-seed loop draws integer flags with entries
    from CERTIFY_ENTRIES and keeps the first flag of each candidate, whose
    ``vanishing_pattern`` is that candidate; a drawn pattern that is no
    candidate, or MAX_CERTIFY_DRAWS draws that leave a candidate
    unrealized, raise RuntimeError.  Returns (VanishingPattern, witness,
    Flag) triples sorted by the witness's length and word, then the bits.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"realizable pattern enumeration is implemented for n in 2..4, not {n}")
    group = type_a_group(n)
    by_level = [[] for _ in range(n)]
    for terms in flag_relations(n):
        by_level[terms[0][1].level].append(
            tuple((a.level - 1, 1 << a.index, b.level - 1, 1 << b.index) for a, b in terms))
    prefixes = [()]
    for level in range(1, n):
        masks = range(1, 1 << len(orbit_table(group, level)))
        prefixes = [lv for prefix in prefixes for lv in ((*prefix, m) for m in masks)
                    if all(sum(1 for i, a, j, b in terms if lv[i] & a and lv[j] & b) != 1
                           for terms in by_level[level])]
    found = []
    for levels in prefixes:
        pat = VanishingPattern.from_levels(group, levels)
        report = check_acceptable(pat)
        if report.accepted:
            found.append((pat, report.witness))
    found.sort(key=lambda c: (c[1].length, c[1].word, c[0].bits))
    candidates = dict(found)
    certificates: dict[VanishingPattern, Flag] = {}
    choices = random.Random(0).choices
    for _ in range(MAX_CERTIFY_DRAWS):
        entries = choices(CERTIFY_ENTRIES, k=n * n)
        try:
            flag = Flag([entries[r:r + n] for r in range(0, n * n, n)])
        except ValueError:  # singular
            continue
        pat = vanishing_pattern(flag)
        if pat not in candidates:
            raise RuntimeError(f"the flag {flag.matrix} realizes {pat}, which is no candidate")
        certificates.setdefault(pat, flag)
        if len(certificates) == len(candidates):
            return [(pat, witness, certificates[pat]) for pat, witness in candidates.items()]
    raise RuntimeError(
        f"{len(candidates) - len(certificates)} of {len(candidates)} candidate patterns "
        f"in C^{n} unrealized after {MAX_CERTIFY_DRAWS} draws"
    )


def realizable_restricted_patterns(n: int, coords) -> dict[tuple[int, ...], tuple]:
    """The patterns of ``realizable_full_patterns(n)`` restricted to the
    given Plucker weights, each mapped to the sorted cells that realize it;
    exact."""
    full = realizable_full_patterns(n)
    group = type_a_group(n)
    coords = tuple(coords)
    found: dict[tuple[int, ...], set] = {}
    for pat, witness, _flag in full:
        found.setdefault(pat.restrict(coords), set()).add(group.one_line(witness))
    return {key: tuple(sorted(ws)) for key, ws in found.items()}


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
