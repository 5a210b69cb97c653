"""Cartan data for the finite types A, B, C, D and G2.

A datum is the integer Cartan matrix m[i][j] = <alpha_j, alpha_i^vee>, read
off the Dynkin diagram in Bourbaki numbering: the chain 1 - 2 - ... - r,
with alpha_r short in B_r (m[r-1][r-2] = -2), alpha_r long in C_r
(m[r-2][r-1] = -2), alpha_r joined to alpha_{r-2} instead of alpha_{r-1} in
D_r, and alpha_1 short in G_2 (m[0][1] = -3).  Column j holds the Dynkin
labels of alpha_j, which is all the Weyl-group code needs.
"""

from __future__ import annotations

from .errors import UnsupportedGroupError

SUPPORTED_TYPES = ("A", "B", "C", "D", "G")
MAX_RANK = 8


class CartanDatum:
    """A type letter, a rank and the Cartan matrix; equal data are equal."""

    __slots__ = ("type_letter", "rank", "cartan_matrix")

    def __init__(self, type_letter: str, rank: int, cartan_matrix: tuple[tuple[int, ...], ...]):
        for i in range(rank):
            if cartan_matrix[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(rank):
                if i != j and cartan_matrix[i][j] > 0:
                    raise ValueError("Cartan matrix off-diagonal must be <= 0")
        self.type_letter, self.rank, self.cartan_matrix = type_letter, rank, cartan_matrix

    def __eq__(self, other):
        return isinstance(other, CartanDatum) and (
            self.type_letter, self.rank, self.cartan_matrix
        ) == (other.type_letter, other.rank, other.cartan_matrix)

    def __hash__(self):
        return hash((self.type_letter, self.rank, self.cartan_matrix))

    @property
    def name(self) -> str:
        return f"{self.type_letter}{self.rank}"


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
    m = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)] for i in range(r)]
    if letter == "B":
        m[r - 1][r - 2] = -2
    elif letter == "C":
        m[r - 2][r - 1] = -2
    elif letter == "D":
        m[r - 1][r - 2] = m[r - 2][r - 1] = 0
        m[r - 1][r - 3] = m[r - 3][r - 1] = -1
    elif letter == "G":
        m[0][1] = -3
    return CartanDatum(letter, r, tuple(map(tuple, m)))


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
