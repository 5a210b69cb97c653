"""Complete flags in C^n over exact rationals (type A only): Plucker
coordinates as minors, coordinate flags of permutations, and generic cell
points.

Vanishing must be decided exactly, so all arithmetic is over Fraction; there
is no floating point anywhere.  Minors of the column prefix [1, i] with row
set I are computed by Laplace expansion along column i, memoized on I, which
reuses every nested sub-minor across queries.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import perms
from .plucker import all_weights, subset_of, subset_str
from .weyl import WeylGroup, weyl_group

def type_a_group(n: int) -> WeylGroup:
    """The (cached) Weyl group acting on flags in C^n."""
    return weyl_group("A", n - 1)


@dataclass(frozen=True)
class Flag:
    """A complete flag: column i of a nonsingular matrix spans F_i together
    with columns 1..i-1."""

    matrix: tuple[tuple[Fraction, ...], ...]
    _minors: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("flag matrix must be square")
        if self.minor(frozenset(range(1, n + 1))) == 0:
            raise ValueError("flag matrix is singular")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def minor(self, rows: frozenset[int]) -> Fraction:
        """Minor on row set ``rows`` and columns [1, |rows|] (1-based)."""
        memo = self._minors
        val = memo.get(rows)
        if val is not None:
            return val
        k = len(rows)
        if k == 1:
            (r,) = rows
            val = self.matrix[r - 1][0]
        else:
            val = Fraction(0)
            sign = 1 if k % 2 == 1 else -1
            for r in sorted(rows):
                entry = self.matrix[r - 1][k - 1]
                if entry:
                    val += sign * entry * self.minor(rows - {r})
                sign = -sign
        memo[rows] = val
        return val


def flag_from_rows(rows) -> Flag:
    return Flag(tuple(tuple(Fraction(x) for x in row) for row in rows))


def flag_from_columns(cols) -> Flag:
    n = len(cols)
    return flag_from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def plucker_coordinate(x: Flag, I) -> Fraction:
    """Exact value of p_I: the minor with row set I and column set [1, |I|]."""
    I = frozenset(I)
    if not 1 <= len(I) <= x.n - 1:
        raise ValueError(f"subset size {len(I)} out of range 1..{x.n - 1}")
    if not I <= set(range(1, x.n + 1)):
        raise ValueError(f"subset {sorted(I)} not within [1, {x.n}]")
    return x.minor(I)


def coordinate_flag(w) -> Flag:
    """The flag of coordinate subspaces spanned by e_{w(1)}, ..., e_{w(i)}."""
    w = tuple(w)
    n = len(w)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, target in enumerate(w):
        rows[target - 1][i] = Fraction(1)
    return flag_from_rows(rows)


def proper_subsets(n: int):
    for i in range(1, n):
        for I in combinations(range(1, n + 1), i):
            yield frozenset(I)


def subset_pattern(x: Flag) -> dict[frozenset[int], int]:
    """Raw vanishing pattern keyed by subsets."""
    return {I: (1 if x.minor(I) != 0 else 0) for I in proper_subsets(x.n)}


def vanishing_pattern(x: Flag, group: WeylGroup | None = None):
    """The vanishing pattern of a flag as a VanishingPattern over the Plucker
    weights of the corresponding type A group."""
    from .patterns import VanishingPattern

    if group is None:
        group = type_a_group(x.n)
    bits = {}
    for pw in all_weights(group):
        bits[pw] = 1 if x.minor(subset_of(pw)) != 0 else 0
    return VanishingPattern.from_dict(group, bits)


MAX_SAMPLE_RETRIES = 64


def random_cell_point(w, seed=None) -> Flag:
    """A flag in the open cell of w whose vanishing pattern is the generic one.

    Draws x = u . P_w with u upper unitriangular and nonzero integer entries
    in [-1000, 1000]; the pattern is verified against the generic pattern and
    the draw is repeated on failure (which happens only on a proper
    subvariety of the cell).
    """
    w = tuple(w)
    n = len(w)
    rng = random.Random(seed)
    pw_matrix = coordinate_flag(w).matrix
    for _ in range(MAX_SAMPLE_RETRIES):
        u = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = Fraction(1)
            for j in range(i + 1, n):
                val = 0
                while val == 0:
                    val = rng.randint(-1000, 1000)
                u[i][j] = Fraction(val)
        prod = [
            [sum(u[i][k] * pw_matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        x = flag_from_rows(prod)
        ok = all(
            (x.minor(I) != 0) == bool(perms.generic_pattern_bit(w, I))
            for I in proper_subsets(n)
        )
        if ok:
            return x
    raise RuntimeError(f"failed to sample a generic point of the cell of {w}")


# ----- parsing ------------------------------------------------------------------

def _parse_entry(e) -> Fraction:
    if isinstance(e, str):
        return Fraction(e.strip())
    return Fraction(e)


def parse_flag_json(text: str) -> Flag:
    data = json.loads(text)
    return flag_from_rows([[_parse_entry(e) for e in row] for row in data])


def parse_flag_csv(text: str) -> Flag:
    rows = []
    for row in csv.reader(io.StringIO(text)):
        if row:
            rows.append([_parse_entry(e) for e in row])
    return flag_from_rows(rows)


def load_flag(path: str) -> Flag:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return parse_flag_csv(text)
    try:
        return parse_flag_json(text)
    except json.JSONDecodeError:
        return parse_flag_csv(text)


def pattern_json(x: Flag) -> str:
    out = {
        subset_str(I): (1 if x.minor(I) != 0 else 0) for I in proper_subsets(x.n)
    }
    return json.dumps(out, sort_keys=True)
