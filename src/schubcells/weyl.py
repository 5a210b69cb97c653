"""Weyl groups of types A, B, C, D, G2: elements, length, descents, Bruhat
order, parabolic quotients, roots and reflections.

The core is integral [C94]: weights are Dynkin labels (fundamental-weight
coordinates), where s_i(lambda) = lambda - lambda_i alpha_i and the labels of
alpha_i are a column of the Cartan matrix.  An element is its fingerprint,
the labels of w^{-1} rho, plus some reduced word; fingerprints are injective,
and their negative labels are the right descents.  One descent walk on labels
turns a fingerprint into a reduced word, so elements never require
enumerating the group.  The canonical (shortlex-minimal) word is built by two
more walks when it is first read.  A root is its simple-root
expansion together with its coroot's, and s_alpha acts on labels as
lambda - <lambda, alpha^vee> alpha.  Dynkin labels are the only weight
coordinates: the tests check them against an ambient Bourbaki realization
of their own.

Bruhat order has one engine, the orbit tables of ``plucker``: u <= v iff
u omega_i <= v omega_i on every orbit W omega_i (Deodhar's criterion
[BB05 2.6]), so comparing two elements never enumerates W.

No value is changed after construction.  The only internal mutation is
memoization: an element's canonical word and its orbit positions (the index
of w omega_i, filled level by level on first read), and each table derived
from a group, a field of the group filled by its builder on first use.  These
writes are atomic under CPython and idempotent, so groups can be shared across
threads.
"""

from __future__ import annotations

from .cartan import CartanDatum, cartan_datum, parse_group_spec
from .errors import UnsupportedGroupError
from .perms import check_permutation

ENUMERATION_CAP = 10 ** 6

Labels = tuple[int, ...]


class WeylElement:
    """A group element: ``fingerprint``, the Dynkin labels of w^{-1} rho, and
    ``reduced``, some reduced word of w, which actions, products and length
    read.  ``word``, the shortlex-minimal reduced word, is built on first read
    unless the constructor was given it.  ``positions`` holds the orbit-table
    index of w omega_i at entry i - 1, filled level by level when
    ``OrbitTable.position`` first reads it (None until then)."""

    __slots__ = ("reduced", "fingerprint", "group", "_word", "positions")

    def __init__(self, word: tuple[int, ...], fingerprint: Labels, group: WeylGroup):
        self.reduced = self._word = word
        self.fingerprint, self.group = fingerprint, group
        self.positions: list[int | None] | None = None

    @classmethod
    def _of_reduced(cls, reduced: tuple[int, ...], fingerprint: Labels, group: WeylGroup):
        """The element of a reduced word that need not be shortlex-minimal."""
        w = cls.__new__(cls)
        w.reduced, w.fingerprint, w.group, w._word = reduced, fingerprint, group, None
        w.positions = None
        return w

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:  # the descent walk from w rho spells it
            self._word = tuple(self.group._descend(self.group.rho_image(self))[0])
        return self._word

    @property
    def length(self) -> int:
        return len(self.reduced)

    def __hash__(self):
        return hash(self.fingerprint)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.group is not other.group and self.group.datum != other.group.datum:
            return False
        return self.fingerprint == other.fingerprint

    def __repr__(self):
        return f"WeylElement({word_str(self.word)})"


class Root:
    """A root alpha by its simple-root expansion, with the simple-coroot
    expansion of alpha^vee (so <lambda, alpha^vee> = sum lambda_j coroot_j)."""

    __slots__ = ("expansion", "coroot")

    def __init__(self, expansion: tuple[int, ...], coroot: tuple[int, ...]):
        self.expansion = expansion
        self.coroot = coroot

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.expansion)

    def support(self) -> frozenset[int]:
        """Indices i with alpha_i appearing in the expansion (1-based)."""
        return frozenset(i + 1 for i, c in enumerate(self.expansion) if c != 0)


def orbit_bfs(start, gens, step):
    """Breadth-first orbit of ``start`` under ``step(i, x)`` for i in gens.

    Returns (states, parent, via): states[k] for k > 0 was first reached as
    step(via[k], states[parent[k]]), so its BFS depth is the minimal length
    of a word carrying ``start`` to it.
    """
    seen = {start}
    states, parent, via = [start], [-1], [0]
    for k, x in enumerate(states):  # the list grows while it is read
        for i in gens:
            y = step(i, x)
            if y not in seen:
                seen.add(y)
                states.append(y)
                parent.append(k)
                via.append(i)
    return states, parent, via


def along_tree(parent, via, root, step) -> list:
    """Carry ``root`` along an orbit_bfs tree: entry k is
    step(via[k], entry parent[k])."""
    out = [root]
    for k in range(1, len(parent)):
        out.append(step(via[k], out[parent[k]]))
    return out


def word_str(word: tuple[int, ...]) -> str:
    return ".".join(f"s{i}" for i in word) if word else "e"


def parse_word(text: str) -> tuple[int, ...]:
    """"s1.s3.s2" (or "1.3.2") as (1, 3, 2); "" and "e" are the identity."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    out = []
    for p in text.split("."):
        p = p.strip()
        digits = p[1:] if p.startswith("s") else p
        if not digits.isdecimal():
            raise ValueError(f"cannot parse word {text!r}: {p!r} is not a generator s<k>")
        out.append(int(digits))
    return tuple(out)


class WeylGroup:
    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.type_letter = datum.type_letter
        # Dynkin labels of alpha_i are column i of the Cartan matrix: 2 at i
        # and, off the diagonal, the nonzero entries (k, m[k][i]) kept here.
        m = datum.cartan_matrix
        self._links = tuple(
            tuple((k, m[k][i]) for k in range(self.rank) if k != i and m[k][i])
            for i in range(self.rank)
        )
        self._rho = (1,) * self.rank
        self.parabolic_orders: dict[frozenset[int], int] = {frozenset(): 1}  # K -> |W_K|
        self.order = self.parabolic_order(range(1, self.rank + 1))
        self.identity = WeylElement((), self._rho, self)
        self._elements: tuple[WeylElement, ...] | None = None
        self._roots: tuple[Root, ...] | None = None
        # Tables derived from the group, each filled by its builder on first use.
        self.orbit_tables: dict = {}  # level -> plucker.OrbitTable
        self.all_weights: tuple | None = None  # plucker.all_weights
        self.standard_ordering = None  # plucker.standard_ordering, a WeightOrdering
        self.economical: dict[tuple[int, ...], bool] = {}  # plucker: order -> verdict
        self.root_plans: dict[tuple[int, ...], tuple] = {}  # cells: order -> root plan
        self.scan_plans: dict[tuple, tuple] = {}  # recognition: (order, pos) -> level plan
        self.base: tuple | None = None  # base.weyl_base

    # ----- action on Dynkin labels -------------------------------------------

    def reflect_labels(self, i: int, lab: Labels) -> Labels:
        """s_i on Dynkin labels: lambda - lambda_i alpha_i."""
        return self.fold((i,), lab) if lab[i - 1] else lab

    def fold(self, word, lab: Labels) -> Labels:
        """Apply s_{i1} first, then s_{i2}, ...: (s_{i1} ... s_{ik})^{-1} lab.
        fold(w.word, rho) is the fingerprint w^{-1} rho."""
        lab = list(lab)
        links = self._links
        for i in word:
            i -= 1
            c = lab[i]
            if c:
                lab[i] = -c
                for k, a in links[i]:
                    lab[k] -= c * a
        return tuple(lab)

    def _descend(self, lab: Labels) -> tuple[list[int], Labels]:
        """Reflect at the smallest negative label until none is left.

        Started at w rho this lists the smallest left descent at each step,
        i.e. the shortlex-minimal reduced word of w [C94]; started at
        w^{-1} rho, it spells a reduced word of w backwards."""
        lab = list(lab)
        links = self._links
        word = []
        while True:
            for i, c in enumerate(lab):
                if c < 0:
                    break
            else:
                return word, tuple(lab)
            word.append(i + 1)
            lab[i] = -c
            for k, a in links[i]:
                lab[k] -= c * a

    # ----- enumeration -----------------------------------------------------

    def check_enumerable(self):
        if self.order > ENUMERATION_CAP:
            raise UnsupportedGroupError(
                f"|W| = {self.order} exceeds the enumeration cap {ENUMERATION_CAP}"
            )

    def elements(self) -> tuple[WeylElement, ...]:
        if self._elements is None:
            self.check_enumerable()
            # W is the orbit of rho under right multiplication, f(w s_i) = s_i f(w).
            # Parents in shortlex order and ascending generators discover each
            # element first through its shortlex-minimal word.  rho is regular,
            # so |W rho| = |W| = parabolic_order(S) (test_group_orders).
            fps, parent, via = orbit_bfs(self._rho, range(1, self.rank + 1), self.reflect_labels)
            words = along_tree(parent, via, (), lambda i, u: u + (i,))
            self._elements = tuple(WeylElement(word, fp, self) for word, fp in zip(words, fps))
        return self._elements

    def __len__(self):
        return self.order

    def by_fingerprint(self, fp: Labels) -> WeylElement:
        """The element w with w^{-1} rho = fp (Dynkin labels)."""
        inv_word, top = self._descend(fp)
        if top != self._rho:
            raise ValueError(f"{fp} is not a fingerprint of {self.datum.name}")
        return WeylElement._of_reduced(tuple(reversed(inv_word)), fp, self)

    # ----- group structure ---------------------------------------------------

    def simple(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range")
        return self.element((i,))

    def element(self, word) -> WeylElement:
        """The element of an arbitrary word over the generators."""
        word = tuple(word)
        if word and not (1 <= min(word) and max(word) <= self.rank):
            raise ValueError(f"word {word} uses a generator outside 1..{self.rank}")
        return self.by_fingerprint(self.fold(word, self._rho))

    def multiply(self, u: WeylElement, v: WeylElement) -> WeylElement:
        # f(uv) = v^{-1}(f(u)): fold v's word forward over u's fingerprint.
        return self.by_fingerprint(self.fold(v.reduced, u.fingerprint))

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.by_fingerprint(self.rho_image(w))

    def rho_image(self, w: WeylElement) -> Labels:
        """Dynkin labels of w rho."""
        return self.fold(reversed(w.reduced), self._rho)

    # ----- roots -------------------------------------------------------------

    def positive_roots(self) -> tuple[Root, ...]:
        """Positive roots by height, then expansion, swept up from the simple
        roots: if c = <beta, alpha_i^vee> < 0, s_i beta = beta - c alpha_i is a
        higher root [Bou68 VI §1.6].  s_i acts on root expansions through the
        Cartan matrix and on coroot expansions through its transpose."""
        if self._roots is None:
            r, m = self.rank, self.datum.cartan_matrix

            def step(i, pair):
                if pair is None:  # the sweep's root, whose children are the simple roots
                    return (unit := tuple(int(k == i - 1) for k in range(r))), unit
                e, f = pair
                c = sum(m[i - 1][j] * e[j] for j in range(r))  # <beta, alpha_i^vee>
                d = sum(m[j][i - 1] * f[j] for j in range(r))  # <alpha_i, beta^vee>
                # s_i raises beta iff c < 0; otherwise orbit_bfs has seen beta
                return pair if c >= 0 else (e[: i - 1] + (e[i - 1] - c,) + e[i:],
                                            f[: i - 1] + (f[i - 1] - d,) + f[i:])

            pairs = orbit_bfs(None, range(1, r + 1), step)[0][1:]
            self._roots = tuple(Root(*p) for p in sorted(pairs, key=lambda p: (sum(p[0]), p[0])))
        return self._roots

    def reflect_root(self, root: Root, lab: Labels) -> Labels:
        """s_alpha on Dynkin labels: lambda - <lambda, alpha^vee> alpha, where
        the labels of alpha are the Cartan matrix times its expansion."""
        c = sum(x * f for x, f in zip(lab, root.coroot))
        if not c:
            return lab
        return tuple(
            x - c * sum(a * e for a, e in zip(row, root.expansion))
            for x, row in zip(lab, self.datum.cartan_matrix)
        )

    # ----- descents ----------------------------------------------------------

    def right_descents(self, w: WeylElement) -> frozenset[int]:
        """{i : l(w s_i) < l(w)}: the negative labels of w^{-1} rho."""
        return frozenset(i + 1 for i, x in enumerate(w.fingerprint) if x < 0)

    def left_descents(self, w: WeylElement) -> frozenset[int]:
        """{i : l(s_i w) < l(w)}: the negative labels of w rho."""
        return frozenset(i + 1 for i, x in enumerate(self.rho_image(w)) if x < 0)

    # ----- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, u: WeylElement, v: WeylElement) -> bool:
        """u <= v in Bruhat order: u omega_i <= v omega_i on every orbit."""
        from .plucker import orbit_table

        for i in range(1, self.rank + 1):
            table = orbit_table(self, i)
            if not table.down_masks()[table.position(v)] >> table.position(u) & 1:
                return False
        return True

    # ----- parabolic machinery -------------------------------------------------

    def check_parabolic(self, J) -> frozenset[int]:
        J = frozenset(J)
        if not J <= set(range(1, self.rank + 1)):
            raise ValueError(f"parabolic subset {sorted(J)} not within [1, {self.rank}]")
        return J

    def parabolic_order(self, K) -> int:
        """|W_K| = |W_K omega_k| |W_{K - {k}}| for the lowest k in K, as the
        stabilizer of omega_k in W_K is W_{K - {k}} [Bou68 V §3.3]; held in
        ``parabolic_orders``."""
        K = self.check_parabolic(K)
        order = self.parabolic_orders.get(K)
        if order is None:
            k = min(K)
            omega = tuple(int(j == k) for j in range(1, self.rank + 1))
            order = len(orbit_bfs(omega, sorted(K), self.reflect_labels)[0])
            order = self.parabolic_orders[K] = order * self.parabolic_order(K - {k})
        return order

    def min_coset_rep(self, w: WeylElement, J) -> WeylElement:
        """The minimal-length representative of the coset w W_J."""
        return self._climb(w.fingerprint, J, -1)

    def longest_element(self, J=None) -> WeylElement:
        """Longest element of W_J (of W when J is omitted), by greedy ascent."""
        if J is None:
            J = range(1, self.rank + 1)
        return self._climb(self._rho, J, 1)

    def _climb(self, fp: Labels, J, sign: int) -> WeylElement:
        """Multiply on the right by s_j, j in J, while the j-th label of the
        fingerprint has the given sign (-1: descend, +1: ascend)."""
        J = sorted(self.check_parabolic(J))
        while True:
            for j in J:
                if fp[j - 1] * sign > 0:
                    fp = self.reflect_labels(j, fp)
                    break
            else:
                return self.by_fingerprint(fp)

    def reflection(self, root: Root) -> WeylElement:
        """The reflection s_alpha as a group element."""
        if not root.is_positive:
            raise ValueError("reflection expects a positive root")
        # s_alpha is an involution, so its fingerprint is s_alpha(rho).
        return self.by_fingerprint(self.reflect_root(root, self._rho))

    def reflections(self) -> tuple[WeylElement, ...]:
        return tuple(self.reflection(rt) for rt in self.positive_roots())

    # ----- witness lookup ------------------------------------------------------

    def element_with_rho_labels(self, lab: Labels) -> WeylElement | None:
        """The unique w with w rho = lab (Dynkin labels), by a descent walk;
        None when lab is not in the orbit of rho."""
        word, top = self._descend(lab)
        if top != self._rho:
            return None
        return WeylElement(tuple(word), self.fold(word, self._rho), self)

    # ----- type A helpers --------------------------------------------------------

    def one_line(self, w: WeylElement) -> tuple[int, ...]:
        """One-line notation for type A: (w(1), ..., w(n))."""
        if self.type_letter != "A":
            raise ValueError("one-line notation is a type A concept")
        # Right multiplication by s_i swaps the entries in positions i, i+1.
        out = list(range(1, self.rank + 2))
        for i in w.reduced:
            out[i - 1], out[i] = out[i], out[i - 1]
        return tuple(out)

    def from_one_line(self, perm) -> WeylElement:
        """The element with one-line notation ``perm``, found by the descent
        walk from the labels of w rho, which are w^{-1}(j+1) - w^{-1}(j)."""
        if self.type_letter != "A":
            raise ValueError("one-line notation is a type A concept")
        perm = check_permutation(perm, self.rank + 1)
        inv = {v: i for i, v in enumerate(perm, 1)}
        labels = tuple(inv[j + 1] - inv[j] for j in range(1, len(perm)))
        return self.element_with_rho_labels(labels)

    def __repr__(self):
        return f"WeylGroup({self.datum.name})"


_GROUPS: dict[tuple[str, int], WeylGroup] = {}


def weyl_group(spec_or_letter, rank: int | None = None) -> WeylGroup:
    """The Weyl group for a spec string ("B3") or a (letter, rank) pair.

    Instances are interned, so callers share each group's memoized tables.
    """
    if rank is None:
        letter, rank = parse_group_spec(spec_or_letter)
    else:
        letter = spec_or_letter.upper()
    key = (letter, rank)
    g = _GROUPS.get(key)
    if g is None:
        g = WeylGroup(cartan_datum(letter, rank))
        _GROUPS[key] = g
    return g
