"""Cartan data for the finite types A, B, C, D and G2.

Everything lives in an ambient rational coordinate (epsilon) basis following
the usual Bourbaki conventions:

  A_r  in R^{r+1}:  alpha_i = e_i - e_{i+1}
  B_r  in R^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = e_r
  C_r  in R^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = 2 e_r
  D_r  in R^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = e_{r-1} + e_r
  G_2  in R^3:      alpha_1 = e_1 - e_2,  alpha_2 = -2 e_1 + e_2 + e_3

For type A the fundamental weights are taken as e_1 + ... + e_i rather than
their trace-zero projections; the difference is W-invariant, so orbits,
pairings with coroots, and everything downstream are unaffected, and orbit
elements become literal 0/1 indicator vectors of subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedGroupError

Vector = tuple[Fraction, ...]

SUPPORTED_TYPES = ("A", "B", "C", "D", "G")
MAX_RANK = 8


def _vec(entries) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _unit(dim: int, j: int, value=1) -> list[Fraction]:
    v = [Fraction(0)] * dim
    v[j] = Fraction(value)
    return v


def dot(u: Vector, v: Vector) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class CartanDatum:
    type_letter: str
    rank: int
    ambient_dim: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    simple_roots: tuple[Vector, ...]
    fundamental_weights: tuple[Vector, ...]

    def __post_init__(self):
        r = self.rank
        for i in range(r):
            if self.cartan_matrix[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(r):
                if i != j and self.cartan_matrix[i][j] > 0:
                    raise ValueError("Cartan matrix off-diagonal must be <= 0")
        for i, w in enumerate(self.fundamental_weights):
            for j, a in enumerate(self.simple_roots):
                coroot = tuple(2 * x / dot(a, a) for x in a)
                expected = 1 if i == j else 0
                if dot(w, coroot) != expected:
                    raise ValueError("fundamental weight pairing violated")

    @property
    def name(self) -> str:
        return f"{self.type_letter}{self.rank}"


def weyl_order(letter: str, rank: int) -> int:
    """|W| by the standard product formulas."""
    if letter == "A":
        return math.factorial(rank + 1)
    if letter in ("B", "C"):
        return (2 ** rank) * math.factorial(rank)
    if letter == "D":
        return (2 ** (rank - 1)) * math.factorial(rank)
    if letter == "G":
        return 12
    raise UnsupportedGroupError(f"unsupported type {letter!r}")


def _check_supported(letter: str, rank: int):
    if letter not in SUPPORTED_TYPES:
        raise UnsupportedGroupError(f"unsupported type {letter!r} (E and F are not implemented)")
    if rank < 1 or rank > MAX_RANK:
        raise UnsupportedGroupError(f"rank {rank} outside implemented range 1..{MAX_RANK}")
    if letter in ("B", "C") and rank < 2:
        raise UnsupportedGroupError(f"{letter}{rank} is not supported (rank >= 2 required)")
    if letter == "D" and rank < 4:
        raise UnsupportedGroupError(f"D{rank} is not supported (rank >= 4 required)")
    if letter == "G" and rank != 2:
        raise UnsupportedGroupError("type G exists only at rank 2")


def cartan_datum(letter: str, rank: int) -> CartanDatum:
    """Build the Cartan datum for one of the supported type/rank combinations."""
    letter = letter.upper()
    _check_supported(letter, rank)
    r = rank
    if letter == "A":
        dim = r + 1
        roots = [
            _vec([0] * i + [1, -1] + [0] * (dim - i - 2))
            for i in range(r)
        ]
        weights = [_vec([1] * (i + 1) + [0] * (dim - i - 1)) for i in range(r)]
    elif letter in ("B", "C", "D"):
        dim = r
        roots = [
            _vec([0] * i + [1, -1] + [0] * (dim - i - 2))
            for i in range(r - 1)
        ]
        if letter == "B":
            roots.append(_vec(_unit(dim, r - 1)))
        elif letter == "C":
            roots.append(_vec(_unit(dim, r - 1, 2)))
        else:
            last = [Fraction(0)] * dim
            last[r - 2] = Fraction(1)
            last[r - 1] = Fraction(1)
            roots.append(tuple(last))
        weights = []
        for i in range(1, r + 1):
            w = [Fraction(1)] * i + [Fraction(0)] * (dim - i)
            weights.append(tuple(w))
        if letter == "B":
            weights[r - 1] = tuple(Fraction(1, 2) for _ in range(dim))
        elif letter == "D":
            half = [Fraction(1, 2)] * dim
            minus = list(half)
            minus[r - 1] = Fraction(-1, 2)
            weights[r - 2] = tuple(minus)
            weights[r - 1] = tuple(half)
    else:  # G2
        dim = 3
        roots = [_vec([1, -1, 0]), _vec([-2, 1, 1])]
        weights = [_vec([0, -1, 1]), _vec([-1, -1, 2])]
    matrix = tuple(
        tuple(int(2 * dot(a, b) / dot(a, a)) for b in roots) for a in roots
    )
    return CartanDatum(
        type_letter=letter,
        rank=r,
        ambient_dim=dim,
        cartan_matrix=matrix,
        simple_roots=tuple(roots),
        fundamental_weights=tuple(weights),
    )


def parse_group_spec(spec: str) -> tuple[str, int]:
    """Parse a group spec string like "A3", "B2", "D4", "G2"."""
    spec = spec.strip()
    if len(spec) < 2 or not spec[0].isalpha():
        raise UnsupportedGroupError(f"cannot parse group spec {spec!r}")
    letter = spec[0].upper()
    try:
        rank = int(spec[1:])
    except ValueError:
        raise UnsupportedGroupError(f"cannot parse group spec {spec!r}") from None
    _check_supported(letter, rank)
    return letter, rank
