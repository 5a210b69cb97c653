"""The ambient Bourbaki realization of the root systems A, B, C, D and G2: the
test oracle of the integral Weyl core.

The package computes on Dynkin labels only.  This module realizes the same
root systems in rational epsilon coordinates, written out here and sharing no
code with the package: from a group it reads only the type and rank, and from
an element only its word.

  A_r  in Q^{r+1}:  alpha_i = e_i - e_{i+1}
  B_r  in Q^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = e_r
  C_r  in Q^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = 2 e_r
  D_r  in Q^r:      alpha_i = e_i - e_{i+1} (i<r),  alpha_r = e_{r-1} + e_r
  G_2  in Q^3:      alpha_1 = e_1 - e_2,  alpha_2 = -2 e_1 + e_2 + e_3

For type A the fundamental weights are taken as e_1 + ... + e_i rather than
their trace-zero projections; the difference is W-invariant, so orbits and
pairings with coroots are unaffected, and orbit elements become literal 0/1
indicator vectors of subsets.  In types A and G2 a W-invariant shift keeps
every Dynkin label, so the vector lookup here compares vectors, not labels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

Vector = tuple[Fraction, ...]


def dot(u: Vector, v: Vector) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def _vec(entries) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _basis_roots(letter: str, r: int) -> tuple[list[Vector], list[Vector]]:
    """(simple roots, fundamental weights) in the Bourbaki epsilon basis."""
    if letter == "G":
        return [_vec([1, -1, 0]), _vec([-2, 1, 1])], [_vec([0, -1, 1]), _vec([-1, -1, 2])]
    dim = r + 1 if letter == "A" else r
    chain = [_vec([0] * i + [1, -1] + [0] * (dim - i - 2)) for i in range(r if letter == "A" else r - 1)]
    weights = [_vec([1] * i + [0] * (dim - i)) for i in range(1, r + 1)]
    half = Fraction(1, 2)
    if letter == "B":
        chain.append(_vec([0] * (r - 1) + [1]))
        weights[r - 1] = (half,) * r
    elif letter == "C":
        chain.append(_vec([0] * (r - 1) + [2]))
    elif letter == "D":
        chain.append(_vec([0] * (r - 2) + [1, 1]))
        weights[r - 2] = (half,) * (r - 1) + (-half,)
        weights[r - 1] = (half,) * r
    return chain, weights


class Ambient:
    """The Weyl group of one type and rank acting on Q^n by reflections."""

    def __init__(self, letter: str, rank: int):
        self.simple_roots, self.fundamental_weights = _basis_roots(letter, rank)
        self.rank = rank
        # alpha^vee = 2 alpha / (alpha, alpha)
        self.coroots = [self.coroot(a) for a in self.simple_roots]
        self.rho = tuple(map(sum, zip(*self.fundamental_weights)))
        self._by_vector: dict[int, dict[Vector, int]] = {}

    @staticmethod
    def coroot(v: Vector) -> Vector:
        n = dot(v, v)
        return tuple(2 * x / n for x in v)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """2 (alpha_i, alpha_j) / (alpha_i, alpha_i), checked to be integral."""
        out = []
        for a in self.simple_roots:
            row = [2 * dot(a, b) / dot(a, a) for b in self.simple_roots]
            assert all(x.denominator == 1 for x in row)
            out.append(tuple(int(x) for x in row))
        return tuple(out)

    def reflect(self, i: int, v: Vector) -> Vector:
        """The simple reflection s_i."""
        c = sum(x * y for x, y in zip(v, self.coroots[i - 1]) if y)
        if not c:
            return v
        return tuple(x - c * y if y else x for x, y in zip(v, self.simple_roots[i - 1]))

    def reflect_by_root(self, a: Vector, v: Vector) -> Vector:
        """s_alpha v = v - <v, alpha^vee> alpha for a root vector alpha."""
        c = 2 * dot(v, a) / dot(a, a)
        return tuple(x - c * y for x, y in zip(v, a))

    def act(self, w, v: Vector) -> Vector:
        """w = s_{i1} ... s_{ik} applied to v (s_{ik} first)."""
        for i in reversed(w.word):
            v = self.reflect(i, v)
        return v

    def act_inv(self, w, v: Vector) -> Vector:
        for i in w.word:
            v = self.reflect(i, v)
        return v

    def labels(self, v: Vector) -> tuple[int, ...]:
        """Dynkin labels <v, alpha_i^vee>, checked to be integral."""
        out = [sum(x * y for x, y in zip(v, c) if y) for c in self.coroots]
        assert all(Fraction(x).denominator == 1 for x in out), v
        return tuple(int(x) for x in out)

    def combination(self, coefficients, basis) -> Vector:
        """sum_j coefficients[j] basis[j]."""
        return tuple(sum(c * b[k] for c, b in zip(coefficients, basis)) for k in range(len(basis[0])))

    @cache
    def root(self, rt) -> Vector:
        """The vector of a root given by its simple-root expansion."""
        return self.combination(rt.expansion, self.simple_roots)

    @cache
    def root_signs(self) -> dict[Vector, int]:
        """Every root, found as an orbit of a simple root, with its sign: that
        of (rho, alpha), as rho pairs positively with every positive coroot."""
        roots = frozenset().union(*(self.orbit(a) for a in self.simple_roots))
        return {a: 1 if dot(self.rho, a) > 0 else -1 for a in roots}

    def positive_roots(self) -> frozenset[Vector]:
        return frozenset(a for a, sign in self.root_signs().items() if sign > 0)

    def root_sign(self, v: Vector) -> int:
        """+1 for a positive root, -1 for a negative one; KeyError otherwise."""
        return self.root_signs()[v]

    def orbit(self, v: Vector, gens=None) -> frozenset[Vector]:
        """The orbit of v under the simple reflections in gens (all of them
        when gens is None), by breadth-first search on vectors."""
        gens = range(1, self.rank + 1) if gens is None else sorted(gens)
        seen, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for i in gens:
                y = self.reflect(i, x)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    def orbit_vectors(self, level: int, J=None) -> frozenset[Vector]:
        """W_J omega_i (W omega_i when J is None)."""
        return self.orbit(self.fundamental_weights[level - 1], J)

    def weight(self, pw) -> Vector:
        """The vector of an orbit entry: its minimal representative applied
        to omega_level."""
        return self.act(pw.min_rep, self.fundamental_weights[pw.level - 1])

    def lookup(self, table, v: Vector):
        """The entry of an orbit table whose vector is v; KeyError otherwise."""
        index = self._by_vector.get(table.level)
        if index is None:
            index = {self.weight(pw): pw.index for pw in table.weights}
            self._by_vector[table.level] = index
        return table.weights[index[tuple(v)]]


def closed_form_order(letter: str, rank: int) -> int:
    """|W| by the standard product formulas: (r+1)! in A_r, 2^r r! in B_r and
    C_r, 2^(r-1) r! in D_r, 12 in G_2."""
    if letter == "A":
        return math.factorial(rank + 1)
    if letter in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if letter == "G":
        return 12
    raise ValueError(f"no closed form for type {letter!r}")


@cache
def ambient(group) -> Ambient:
    """The realization of a group's type and rank, one per group."""
    return Ambient(group.type_letter, group.rank)
