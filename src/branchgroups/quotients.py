"""Finite level quotients as permutation groups on lexicographic level vertices.

Permutations are one-line images over the d^n level-n vertices in
lexicographic order.  Up to BYTE_POINTS = 256 points every point index
fits in a byte, and a permutation is `bytes`: `compose` is one
`bytes.translate` through the left factor padded to a 256-byte table, and
`perm_inverse` one `bytes.maketrans`.  Past 256 points an index no longer
fits, so a permutation is a tuple and `compose` an `itemgetter` gather,
which builds the tuple itself on a one-point domain.  On a 2-vCPU VM with
Python 3.11, a translate on 64 points takes about 0.26 us against 1.2 us
for the gather, on 256 points 0.63 us against 4.7 us.  The point count
picks the representation: the generator-image memo and `LayeredGroup`
work on it, while `word_perm`, a group's `gens` and `identity`, and
`StabChain`, which no p-preset builds, stay on tuples.  `word_perm`
composes generator images, raising a letter's image to its exponent by
`words.power`; each generator's level-n image is built once from the
wreath recursion and memoized on the preset.

Every subgroup of a level quotient is built by `image_subgroup`.  For a
p-preset (prime degree p, every generator moving the root's children by
x -> x + c) each quotient is a p-group whose layer St(k)/St(k+1) is an
F_p-space with one digit per level-k vertex; the subgroup is a
`LayeredGroup`, an echelon basis of digits per layer closed under p-th
powers, commutators and conjugation (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 8), which also gives the order of every
lower level image.  Any other preset gets a `StabChain`, built by
incremental Schreier-Sims: each level keeps its orbit and the coset
representatives with their inverses, so a sift costs one gather per
level, and a new generator sifts only the Schreier generators of its new
(point, generator) pairs.  Both are deterministic, and both build the
normal closure under given conjugators.

Level-transitivity is one orbit walk from the vertex 0...0, with no group.
Every quotient level, word image level and depth of a fixed-tree walk is
checked against the fixed LEVEL_CAP before any work, so none runs past
that level whoever calls it; a whole level image is refused, also
before any work, past POINT_CAP level vertices.
"""

from __future__ import annotations

import math
from bisect import insort
from functools import cache, reduce
from itertools import islice, repeat
from operator import eq, floordiv, itemgetter, sub

from .presets import Factors, GroupPreset, _is_prime
from .tree import Vertex
from .words import Word, power

Perm = tuple[int, ...] | bytes  # bytes up to BYTE_POINTS points
BYTE_POINTS = 256  # a point index fits in one byte up to here
_IDENTITY_BYTES = bytes(range(BYTE_POINTS))

LEVEL_CAP = 10
POINT_CAP = 5**5  # admits Gupta-Sidki level 7 (2,187 points) and GGS degree 5 at level 5


class LevelCapExceeded(ValueError):
    """A level past LEVEL_CAP, or a whole level image past POINT_CAP vertices: could exhaust memory."""


def _check_level(preset: GroupPreset, n: int):
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > LEVEL_CAP and preset.degree > 1:
        raise LevelCapExceeded(f"level {n} exceeds cap {LEVEL_CAP} for degree {preset.degree}")


def _perm_type(npoints: int) -> type:
    """The working representation of a permutation on npoints points:
    bytes while every point index fits in a byte, else a tuple."""
    return bytes if npoints <= BYTE_POINTS else tuple


@cache
def _byte_table(mul: int, div: int, mod: int) -> bytes:
    """The translate table y -> y * mul // div % mod, built on first use."""
    return bytes(y * mul // div % mod for y in range(BYTE_POINTS))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation of 'apply q, then p': the gather of p at q's images,
    a translate through p as a byte table when q is bytes."""
    if isinstance(q, bytes):
        return q.translate(p.ljust(BYTE_POINTS, b"\0"))
    if len(q) == 1:
        return (p[q[0]],)  # itemgetter with one index returns an item, not a tuple
    return itemgetter(*q)(p)


def perm_inverse(p: Perm) -> Perm:
    if isinstance(p, bytes):
        return bytes.maketrans(p, _IDENTITY_BYTES[: len(p)])[: len(p)]  # the table sends p[i] to i
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _generator_perm(preset: GroupPreset, name: str, inverse: bool, n: int) -> Perm:
    """Level-n image of a generator or its inverse, memoized on the preset.

    Wreath recursion: the vertex x v goes to root(x) g|_x(v), so the block
    of x is the level-(n-1) image of the section, shifted to block root(x).
    """
    key = (name, inverse, n)
    cache = preset._perm_cache
    got = cache.get(key)
    if got is None:
        if inverse:
            got = perm_inverse(_generator_perm(preset, name, False, n))
        else:
            gen = preset.gen_map[name]
            block = preset.degree ** (n - 1)
            out: list[int] = []
            for x, section in enumerate(gen.sections):
                off = gen.root_perm[x] * block
                out.extend([off + y for y in _factors_perm(preset, section, n - 1)])
            got = _perm_type(len(out))(out)
        cache[key] = got
    return got


def _factors_perm(preset: GroupPreset, factors: Factors, n: int) -> Perm:
    if n == 0 or not factors:  # at n = 0 the root is fixed; the wreath recursion ends here
        npoints = preset.degree**n
        return _perm_type(npoints)(range(npoints))
    return reduce(compose, [power(_generator_perm(preset, g, e < 0, n), abs(e), compose) for g, e in factors])


def word_perm(w: Word, n: int) -> tuple[int, ...]:
    """Image of a word on the lexicographic level-n vertices."""
    _check_level(w.preset, n)
    return tuple(_factors_perm(w.preset, w.factors, n))


class _Orbit:
    """Orbit of beta under generators added one at a time.

    `reps[u]` maps beta to u and `invs[u]` is its inverse; both are None
    off the orbit.  Representatives, once chosen, never change.
    """

    __slots__ = ("beta", "gens", "gen_invs", "points", "reps", "invs")

    def __init__(self, beta: int, npoints: int):
        identity = tuple(range(npoints))
        self.beta = beta
        self.gens: list[Perm] = []
        self.gen_invs: list[Perm] = []
        self.points = [beta]
        self.reps: list[Perm | None] = [None] * npoints
        self.invs: list[Perm | None] = [None] * npoints
        self.reps[beta] = self.invs[beta] = identity

    def add_generator(self, g: Perm):
        """Add g and extend the orbit; returns an iterator over the
        nontrivial Schreier generators of the new (point, generator) pairs."""
        gens, gen_invs, points, reps, invs = (
            self.gens, self.gen_invs, self.points, self.reps, self.invs
        )
        gens.append(g)
        gen_invs.append(perm_inverse(g))
        old = len(points)
        # Pairs whose image point got its representative through them have
        # the identity as Schreier generator.
        tree: set[tuple[int, int]] = set()
        last = len(gens) - 1
        for i, u in enumerate(points):
            for j in (last,) if i < old else range(last + 1):
                s = gens[j]
                v = s[u]
                if reps[v] is None:
                    reps[v] = compose(s, reps[u])
                    invs[v] = compose(invs[u], gen_invs[j])
                    points.append(v)
                    tree.add((u, j))
        return self._schreier_generators(old, len(points), last, tree)

    def _schreier_generators(self, old: int, end: int, last: int, tree):
        gens, reps, invs = self.gens, self.reps, self.invs
        identity = reps[self.beta]
        for i, u in enumerate(self.points[:end]):
            rep = reps[u]
            for j in (last,) if i < old else range(last + 1):
                if (u, j) in tree:
                    continue
                s = gens[j]
                schreier = compose(invs[s[u]], compose(s, rep))
                if schreier != identity:
                    yield schreier


class StabChain:
    """A subgroup of a level quotient: a deterministic stabilizer chain
    with exact order and membership sifting.

    `gens` lists the generators that enlarged the group, in the order they
    arrived; given conjugators, the group is the normal closure of `gens`
    under them.  Level i holds the orbit of its base point under its own
    generators; the group at level i + 1 is the stabilizer of that point in
    the group at level i.
    """

    def __init__(self, npoints: int, gens, conjugators=(), degree: int | None = None):
        self.npoints, self.degree = npoints, degree
        self.identity = tuple(range(npoints))
        self.gens: list[Perm] = []
        self.levels: list[_Orbit] = []
        for g in gens:
            self.add(g)
        conjugators = [(s, perm_inverse(s)) for s in conjugators]
        for g in self.gens:  # grows while it is walked: the normal closure
            for s, s_inv in conjugators:
                self.add(compose(s, compose(g, s_inv)))

    def add(self, g) -> bool:
        """Extend the group by g; False if g was already a member.

        New Schreier generators are worked off depth first on an explicit
        stack, so each is sifted only through levels that are complete.
        """
        g = tuple(g)
        stack: list = []
        if not self._absorb(g, 0, stack):
            return False
        self.gens.append(g)
        while stack:
            i, pending = stack[-1]
            s = next(pending, None)
            if s is None:
                stack.pop()
            else:
                self._absorb(s, i + 1, stack)
        return True

    def _absorb(self, p: Perm, i: int, stack: list) -> bool:
        """Sift p from level i; a nontrivial residue becomes a generator there."""
        p = self._sift(p, i)
        if p == self.identity:
            return False
        if i == len(self.levels):
            beta = next(u for u, x in enumerate(p) if x != u)  # the smallest moved point
            self.levels.append(_Orbit(beta, self.npoints))
        stack.append((i, self.levels[i].add_generator(p)))
        return True

    def _sift(self, p: Perm, start: int) -> Perm:
        """Strip p through levels start..; returns the residue."""
        for lvl in self.levels[start:]:
            u = p[lvl.beta]
            if u != lvl.beta:
                inv = lvl.invs[u]
                if inv is None:
                    return p
                p = compose(inv, p)
        return p

    def order(self, level: int | None = None) -> int:
        """|H|, or at a level j the order of H's level-j image (needs the degree)."""
        if level is not None and self.degree**level < self.npoints:
            block = self.npoints // self.degree**level  # the leaves below one level-j vertex
            images = [tuple(y // block for y in g[::block]) for g in self.gens]
            return StabChain(self.degree**level, images).order()
        return math.prod(len(lvl.points) for lvl in self.levels)

    def contains(self, p: Perm) -> bool:
        return self._sift(tuple(p), 0) == self.identity

    def base(self) -> list[int]:
        return [lvl.beta for lvl in self.levels]

    def equals(self, other: "StabChain") -> bool:
        return self.order() == other.order() and all(self.contains(g) for g in other.gens)


class LayeredGroup:
    """A subgroup of G/St(n) for a p-preset, as echelon bases of layer digits.

    An element of St(k) has layer-k digit c at the level-k vertex v when it
    sends the first leaf below v into child c.  Layer k < n-1 keeps basis
    elements [x, x^-1, ..., x^-(p-1)] by pivot, the first nonzero digit, 1;
    layer n-1, where conjugation only permutes digits, keeps the multiples
    of digit vectors packed a byte per vertex in an int.  A new basis
    element queues its p-th power, its commutators within its layer and its
    conjugates by the conjugators: the generators that enlarged the group,
    or for a normal closure the ambient group's generators.  On bytes, the
    layer check, the last-layer digits and the row multiples are each one
    translate, through tables built on first use and shared by every group.
    """

    def __init__(self, p: int, n: int, gens, conjugators=None):
        self.p, self.n, self.gens = p, n, []
        self.identity = tuple(range(p**n))
        self._perm = _perm_type(p**n)
        self._one = self._perm(self.identity)
        small = self._perm is bytes
        # Per permutation layer: digit place b, block b p, digit-0 first-leaf images over b,
        # for bytes the table y -> y // b, basis.
        self._layers = [(p ** (n - k - 1), p ** (n - k), self._perm(range(0, p ** (k + 1), p)),
                         _byte_table(1, p ** (n - k - 1), BYTE_POINTS) if small else None, [])
                        for k in range(n - 1)]
        self._mod = _byte_table(1, 1, p) if small else None  # last-layer digits of a bytes permutation
        self._vectors: dict[int, list[int]] = {}  # last layer: pivot -> multiples
        self._width = p ** (n - 1) if n else 0
        self._bias, self._guard = (int.from_bytes(bytes([c]) * self._width, "little")
                                   for c in (128 - p, 128))
        self._normal = conjugators is not None
        self._conj = [self._conjugator(s) for s in conjugators or ()]
        for g in gens:
            self.add(g)

    def _conjugator(self, s):
        s = self._perm(s)
        s_inv = perm_inverse(s)
        return s, s_inv, _perm_type(self._width)(y // self.p for y in s_inv[:: self.p])  # s^-1 on level n-1

    def add(self, g) -> bool:
        """Extend the group by g and close it; False if g was already a member."""
        g = self._perm(g)
        k, x = self._sift(0, g)
        if k == self.n:
            return False
        self.gens.append(tuple(g))
        work: list = []
        if not self._normal:  # the basis so far meets a new conjugator
            self._conj.append(self._conjugator(g))
            old = [(j, row[0]) for j, (*_, rows) in enumerate(self._layers) if j for _, row in rows]
            for j, y in old + [(self.n - 1, row[1]) for row in self._vectors.values()]:
                work += self._conjugates(j, y, self._conj[-1:])
        self._insert(k, x, work)
        while work:
            k, x = self._sift(*work.pop())
            if k < self.n:
                self._insert(k, x, work)
        return True

    def _sift(self, k: int, x, exact: bool = False):
        """(n, None) for a member, else the layer where x's digits stop reducing
        and the residue; `exact` refuses a residue that is no last-layer rotation."""
        p = self.p
        for b, big, tops, div, basis in self._layers[k:]:
            for j, powers in basis:
                a = x[j * big] // b % p
                if a:
                    x = compose(powers[a], x)
            if div:
                if x[::big].translate(div) != tops:
                    return k, x
            elif not all(map(eq, map(floordiv, islice(x, 0, None, big), repeat(b)), tops)):
                return k, x
            k += 1
        if self.n == 0:
            return 0, None
        if not isinstance(x, int):
            if exact and not all(y == i - i % p + (i + x[i - i % p]) % p for i, y in enumerate(x)):
                return -1, x
            digits = x[::p].translate(self._mod) if self._mod else bytes(map(sub, x[::p], self.identity[::p]))
            x = int.from_bytes(digits, "little")
        while x:
            j = ((x & -x).bit_length() - 1) >> 3
            row = self._vectors.get(j)
            if row is None:
                return k, x
            x += row[p - (x >> 8 * j & 255)]
            x -= ((x + self._bias & self._guard) >> 7) * p  # bytes at p or above lose p
        return self.n, None

    def _conjugates(self, k: int, x, conj) -> list:
        """(k, s x s^-1) for the conjugators s that move x; on the last layer a digit gather."""
        if k < self.n - 1:
            ys = [compose(s, compose(x, s_inv)) for s, s_inv, _ in conj]
        else:
            digits = x.to_bytes(self._width, "little")
            ys = [int.from_bytes(compose(digits, top), "little") for *_, top in conj]
        return [(k, y) for y in ys if y != x]

    def _insert(self, k: int, x, work: list):
        """Make the residue x a basis element of layer k and queue its closure."""
        p = self.p
        if k == self.n - 1:
            j = ((x & -x).bit_length() - 1) >> 3
            digits = x.to_bytes(self._width, "little")
            inv = pow(digits[j], -1, p)
            self._vectors[j] = row = [int.from_bytes(digits.translate(_byte_table(m * inv % p, 1, p)), "little")
                                      for m in range(p)]
            work += self._conjugates(k, row[1], self._conj)
            return
        b, big, tops, _, basis = self._layers[k]
        j = next(i for i, (y, t) in enumerate(zip(x[::big], tops)) if y // b != t)
        x = power(x, pow(x[j * big] // b % p, -1, p), compose)
        powers = [x, *(perm_inverse(power(x, a, compose)) for a in range(1, p))]
        new = [compose(compose(x, y), compose(powers[1], y_inv)) for _, (y, y_inv, *_) in basis]
        work += [(k + 1, y) for y in [power(x, p, compose), *new] if y != self._one]
        if k or self._normal:  # a subgroup normalizes itself: layer 0 needs no conjugates
            work += self._conjugates(k, x, self._conj)
        insort(basis, (j, powers))

    def order(self, level: int | None = None) -> int:
        """|H|, or at a level j the order of H's level-j image: p^(ranks below j)."""
        ranks = [len(basis) for *_, basis in self._layers] + [len(self._vectors)]
        return self.p ** sum(ranks[:level])

    def contains(self, g) -> bool:
        return self._sift(0, self._perm(g), exact=True)[0] == self.n

    def equals(self, other) -> bool:
        return self.order() == other.order() and all(self.contains(g) for g in other.gens)


def image_subgroup(words, n: int, conjugators=None):
    """Level-n image subgroup generated by the given words, or their normal
    closure under the conjugators (level-n permutations).  A p-preset whose
    prime degree is below 64, so that a sum of two digits fits a byte, gets
    a LayeredGroup, any other preset a StabChain."""
    words = list(words)
    if not words:
        raise ValueError("image_subgroup needs at least one word (may be identity)")
    preset, p = words[0].preset, words[0].preset.degree
    _check_level(preset, n)
    perms = [word_perm(w, n) for w in words]
    rotations = {tuple((x + c) % p for x in range(p)) for c in range(p)}
    if p < 64 and _is_prime(p) and all(g.root_perm in rotations for g in preset.generators):
        return LayeredGroup(p, n, perms, conjugators)
    return StabChain(p**n, perms, conjugators or (), p)


def _check_points(preset: GroupPreset, n: int):
    _check_level(preset, n)
    if preset.degree**n > POINT_CAP:
        raise LevelCapExceeded(f"level {n} has {preset.degree**n} vertices, over the cap of {POINT_CAP}")


def full_level_group(preset: GroupPreset, n: int):
    _check_points(preset, n)
    return image_subgroup([Word.generator(preset, g) for g in preset.gen_names], n)


def quotient_order(preset: GroupPreset, n: int) -> int:
    """|G / Stab_G(n)|: the order of the level-n image."""
    return full_level_group(preset, n).order()


def is_level_transitive(preset: GroupPreset, n: int) -> bool:
    """True iff the level-n vertices form one orbit: one orbit walk."""
    _check_level(preset, n)
    return len(orbit_transversal(preset, (0,) * n)) == preset.degree ** n


def subgroup_index_in_quotient(words, n: int) -> int:
    """Index of the words' image inside the full level-n quotient."""
    words = list(words)
    if not words:
        raise ValueError("need a preset context; pass the identity word for the trivial subgroup")
    preset = words[0].preset
    full = quotient_order(preset, n)
    sub = image_subgroup(words, n).order()
    q, r = divmod(full, sub)
    if r:
        raise AssertionError("subgroup order does not divide group order")
    return q


def orbit_transversal(
    preset: GroupPreset, v: Vertex, until: Vertex | None = None
) -> dict[Vertex, Word]:
    """Coset representative words over the level orbit of v: reps[u](v) = u.

    Breadth first over the generators in declared order, each orbit vertex
    keeping the first word that reaches it; the dict lists the orbit in
    discovery order.  The walk stops once `until` is reached, whose word is
    then the same as in the full walk.
    """
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    reps: dict[Vertex, Word] = {v: Word.identity(preset)}
    queue = [v]
    for u in queue:  # grows while it is walked: breadth first
        if u == until:
            break
        for g in gens:
            w = g.apply(u)
            if w not in reps:
                reps[w] = g * reps[u]
                queue.append(w)
    return reps


def point_stabilizer_words(preset: GroupPreset, v: Vertex) -> list[Word]:
    """Schreier generators (as words) of the stabilizer of v at its level.

    Coset representative words are built by deterministic BFS over the
    level-|v| orbit of v; the returned words generate a subgroup whose
    level-|v| image is exactly the point stabilizer of v.
    """
    _check_level(preset, len(v))
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    if not v:
        return gens
    reps = orbit_transversal(preset, v)
    invs = {u: rep.inverse() for u, rep in reps.items()}
    out: list[Word] = []
    seen = set()
    for u in sorted(reps):
        for g in gens:
            word = invs[g.apply(u)] * g * reps[u]
            if word.factors and word.factors not in seen:
                seen.add(word.factors)
                out.append(word)
    return out
