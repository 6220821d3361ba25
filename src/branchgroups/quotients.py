"""Finite level quotients as permutation groups on lexicographic level vertices.

Permutations are one-line images over the d^n level-n vertices in
lexicographic order, and the point count picks their representation.  Up
to BYTE_POINTS = 256 points every point index fits in a byte, and a
permutation is `bytes`: `compose` is one `bytes.translate` through the
left factor padded to a 256-byte table, and `perm_inverse` one
`bytes.maketrans`.  Past 256 points a permutation is a tuple and `compose`
an `itemgetter` gather, which builds the tuple itself on a one-point
domain.  On a 2-vCPU VM with Python 3.11, a translate on 64 points takes
about 0.26 us against 1.2 us for the gather, on 256 points 0.63 us
against 4.7 us.  The letter tables and both engines work in that
representation; `word_perm` and a group's `gens` and `identity` are
tuples, converted where they enter an engine.  A preset keeps one table
per level of the images of g and g^-1, and a word's image folds its
entries by `compose`, raising each to its exponent by `words.power`.

Every subgroup of a level quotient is built from level permutations by
`_level_image`, fed by `image_subgroup` (each word folded on the letter
table), `full_level_group` (the table's generator images, as they are)
and `conjugate_images` (a kept image's generators, conjugated).
The engine is chosen once per preset, by `GroupPreset.is_p_preset`.  For
a p-preset (prime degree p, every generator moving the root's children by
x -> x + c) each quotient is a p-group whose layer St(k)/St(k+1) is an
F_p-space with one digit per level-k vertex; the subgroup is a
`LayeredGroup`, an echelon basis of digits per layer closed under p-th
powers, commutators and conjugation (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 8), which also gives the order of every
lower level image.  Any other preset gets a `StabChain`, built by
incremental Schreier-Sims (ibid., ch. 4): each level keeps its orbit and
the coset representatives with their inverses, so a sift costs one
product per level, and a new generator sifts only the Schreier generators
of its new (point, generator) pairs.  Both are deterministic.

One breadth-first walk, `conjugate_images`, visits the distinct
conjugates of a level image, conjugated by permutations, not words;
escaping conjugators and the conjugate count read it, so results replay
exactly and a budget counts conjugates visited.

Level-transitivity is one orbit walk from the vertex 0...0, with no group.
Every quotient level, word image level and depth of a fixed-tree walk is
checked against the fixed `tree.LEVEL_CAP` before any work, so none runs past
that level whoever calls it; a whole level image is refused, also
before any work, past POINT_CAP level vertices.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from functools import cache, reduce
from itertools import accumulate, islice, product, repeat
from operator import eq, floordiv, itemgetter, sub

from .presets import Factors, GroupPreset
from .tree import LEVEL_CAP, LevelCapExceeded, Vertex, _check_level  # noqa: F401
from .words import DEFAULT_SEARCH_BUDGET, Word, power

Perm = tuple[int, ...] | bytes  # bytes up to BYTE_POINTS points
BYTE_POINTS = 256  # a point index fits in one byte up to here
_IDENTITY_BYTES = bytes(range(BYTE_POINTS))

POINT_CAP = 5**5  # admits Gupta-Sidki level 7 (2,187 points) and GGS degree 5 at level 5


def _perm_type(npoints: int) -> type:
    """The working representation of a permutation on npoints points:
    bytes while every point index fits in a byte, else a tuple."""
    return bytes if npoints <= BYTE_POINTS else tuple


@cache
def _byte_table(mul: int, div: int, mod: int, add: int = 0) -> bytes:
    """The translate table y -> (y * mul // div + add) % mod, built on first use."""
    return bytes((y * mul // div + add) % mod for y in range(BYTE_POINTS))


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


def _letters(preset: GroupPreset, n: int) -> "_Letters":
    """The level-n letter table, kept on the preset; its generator images are
    built on first read by the wreath recursion: the vertex x v goes to
    root(x) g|_x(v), so the block of x is the section's level-(n-1) image
    (a one-letter section's is its letter's entry) moved to block
    root(x), by a shift-table translate, past BYTE_POINTS points by offsets."""
    tables = preset._perm_cache
    if n in tables:
        return tables[n]
    table = _Letters()
    if not n:
        table.update(((g, 1), bytes(1)) for g in preset.gen_names)  # the root, fixed
    else:
        below, block = _letters(preset, n - 1), preset.degree ** (n - 1)
        for gen in preset.generators:
            blocks = [(gen.root_perm[x] * block, below[s[0]] if len(s) == 1 and abs(s[0][1]) == 1
                       else _factors_perm(below, s, block)) for x, s in enumerate(gen.sections)]
            if _perm_type(block * preset.degree) is bytes:
                img = b"".join([q.translate(_byte_table(1, 1, BYTE_POINTS, off)) for off, q in blocks])
            else:
                img = tuple([off + y for off, q in blocks for y in q])
            table[gen.name, 1] = img
    tables[n] = table  # kept only once whole
    return table


class _Letters(dict):
    """(g, 1) -> the level image of g, and (g, -1) -> its inverse, built on first read."""

    def __missing__(self, letter):
        self[letter] = inv = perm_inverse(self[letter[0], 1])
        return inv


def _factors_perm(letters: dict, factors: Factors, npoints: int) -> Perm:
    """Image of (name, exponent) factors on a level's npoints points: its
    letter entries, raised and folded."""
    perms = [power(letters[g, 1 if e > 0 else -1], abs(e), compose) for g, e in factors if e]
    return reduce(compose, perms) if perms else _perm_type(npoints)(range(npoints))


def word_perm(w: Word, n: int) -> tuple[int, ...]:
    """Image of a word on the lexicographic level-n vertices."""
    _check_level(w.preset, n)
    return tuple(_factors_perm(_letters(w.preset, n), w.preset.decode(w.factors), w.preset.degree**n))


class _Orbit:
    """Orbit of beta under generators added one at a time.

    `reps[u]` maps beta to u and `invs[u]` is its inverse; both are None
    off the orbit.  Representatives, once chosen, never change.
    """

    __slots__ = ("beta", "gens", "gen_invs", "points", "reps", "invs")

    def __init__(self, beta: int, one: Perm):
        self.beta = beta
        self.gens: list[Perm] = []
        self.gen_invs: list[Perm] = []
        self.points = [beta]
        self.reps: list[Perm | None] = [None] * len(one)
        self.invs: list[Perm | None] = [None] * len(one)
        self.reps[beta] = self.invs[beta] = one

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

    `gens` lists, as tuples, the generators that enlarged the group, in the
    order they arrived.  Level i holds the orbit of its base point under
    its own generators; the group at level i + 1 is the stabilizer of that
    point in the group at level i.
    """

    def __init__(self, npoints: int, gens, degree: int | None = None):
        self.npoints, self.degree = npoints, degree
        self.identity, self._perm = tuple(range(npoints)), _perm_type(npoints)
        self._one = self._perm(self.identity)
        self.gens: list[tuple[int, ...]] = []
        self.levels: list[_Orbit] = []
        for g in gens:
            self.add(g)

    def add(self, g) -> bool:
        """Extend the group by g; False if g was already a member.

        New Schreier generators are worked off depth first on an explicit
        stack, so each is sifted only through levels that are complete.
        """
        g = self._perm(g)
        stack: list = []
        if not self._absorb(g, 0, stack):
            return False
        self.gens.append(tuple(g))
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
        if p == self._one:
            return False
        if i == len(self.levels):
            beta = next(u for u, x in enumerate(p) if x != u)  # the smallest moved point
            self.levels.append(_Orbit(beta, self._one))
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

    def contains(self, p) -> bool:
        return self._sift(self._perm(p), 0) == self._one

    def base(self) -> list[int]:
        return [lvl.beta for lvl in self.levels]

    def equals(self, other: "StabChain") -> bool:
        return self.order() == other.order() and all(self.contains(g) for g in other.gens)


@cache
def _layout(p: int, n: int) -> tuple:
    """What every LayeredGroup on p^n points shares: the identity as a tuple
    and as a working permutation, the working type, the level-(n-1) width;
    per permutation layer the digit place b, block b p, digit-0 first-leaf
    images over b and for bytes y -> y // b; y -> y // p; the rotations
    y -> y - y % p + (y + r) % p, r = 1..p-1; for bytes y -> y % p; the bias
    and guard of bytewise sums mod p."""
    perm, width, points = _perm_type(p**n), p ** (n - 1) if n else 0, range(p**n)
    small = perm is bytes
    layers = tuple((p ** (n - k - 1), p ** (n - k), perm(range(0, p ** (k + 1), p)),
                    _byte_table(1, p ** (n - k - 1), BYTE_POINTS) if small else None) for k in range(n - 1))
    return (tuple(points), perm(points), perm, width, layers, perm(y // p for y in points),
            tuple(perm(y - y % p + (y + r) % p for y in points) for r in range(1, p)),
            _byte_table(1, 1, p) if small else None,
            *(int.from_bytes(bytes([c]) * width, "little") for c in (128 - p, 128)))


class LayeredGroup:
    """A subgroup of G/St(n) for a p-preset, as echelon bases of layer digits.

    An element of St(k) has layer-k digit c at the level-k vertex v when it
    sends the first leaf below v into child c.  Layer k < n-1 keeps basis
    elements [x, x^-1, ..., x^-(p-1)] by pivot, the first nonzero digit, 1;
    layer n-1, where conjugation only permutes digits, keeps the multiples
    of digit vectors packed a byte per vertex in an int.  A new basis
    element queues its p-th power, its commutators within its layer and its
    conjugates by the generators that enlarged the group.  On bytes, the
    layer check, the last-layer digits and the row multiples are each one
    translate, through tables built on first use and shared by every group.
    """

    def __init__(self, p: int, n: int, gens):
        self.p, self.n, self.gens = p, n, []
        (self.identity, self._one, self._perm, self._width, layers, self._div, self._rotations, self._mod,
         self._bias, self._guard) = _layout(p, n)
        self._layers = [(*layer, []) for layer in layers]  # each layer's basis joins its tables
        self._vectors: dict[int, list[int]] = {}  # last layer: pivot -> multiples
        self._conj: list[list] = []  # the generators that enlarged the group, as conjugators
        for g in gens:
            self.add(g)

    def add(self, g) -> bool:
        """Extend the group by g and close it; False if g was already a member."""
        g = self._perm(g)
        k, x = self._sift(0, g)
        if k == self.n:
            return False
        self.gens.append(tuple(g))
        work: list = []
        self._conj.append([g])  # the basis so far meets a new conjugator
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
            heads = x[::p]  # each last-layer block must turn in itself
            if exact and (compose(self._div, heads) != self._one[: self._width]
                          or any(x[r::p] != compose(rot, heads) for r, rot in enumerate(self._rotations, 1))):
                return -1, x
            digits = heads.translate(self._mod) if self._mod else bytes(map(sub, heads, self.identity[::p]))
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
        """(k, s x s^-1) for the conjugators s that move x; on the last layer a digit gather.
        A conjugator [s] gains s^-1 and s^-1 on level n-1 when first read here."""
        for c in conj:
            if len(c) == 1:
                s_inv = perm_inverse(c[0])
                c += s_inv, _perm_type(self._width)(compose(self._div, s_inv[:: self.p]))
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
        powers = [x, *accumulate(repeat(perm_inverse(x), p - 1), compose)]
        new = [compose(compose(x, y), compose(powers[1], y_inv)) for _, (y, y_inv, *_) in basis]
        work += [(k + 1, y) for y in [power(x, p, compose), *new] if y != self._one]
        if k:  # a subgroup normalizes itself: layer 0 needs no conjugates
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


def _level_image(preset: GroupPreset, n: int, perms):
    """The level-n subgroup generated by the permutations.  A p-preset whose
    prime degree is below 64, so that a sum of two digits fits a byte, gets
    a LayeredGroup, any other preset a StabChain."""
    p = preset.degree
    if p < 64 and preset.is_p_preset:
        return LayeredGroup(p, n, perms)
    return StabChain(p**n, perms, p)


def image_subgroup(words, n: int):
    """Level-n image subgroup generated by the given words."""
    words = list(words)
    if not words:
        raise ValueError("image_subgroup needs at least one word (may be identity)")
    preset = words[0].preset
    _check_level(preset, n)
    letters, npoints = _letters(preset, n), preset.degree**n
    return _level_image(preset, n, [_factors_perm(letters, preset.decode(w.factors), npoints) for w in words])


def _orbit_key(img) -> tuple[int, ...]:
    """Each point's least orbit-mate under the generators of an image built
    without conjugators, which generate it, so equal images have equal keys."""
    least = [-1] * len(img.identity)
    for x in range(len(least)):
        orbit = [x] if least[x] < 0 else []
        for y in orbit:  # grows while it is walked
            if least[y] < 0:
                least[y] = x
                for g in img.gens:
                    orbit.append(g[y])
    return tuple(least)


def conjugate_images(words, n: int, budget: int = DEFAULT_SEARCH_BUDGET):
    """Yield (c, level-n image of c H c^-1) for at most `budget` distinct
    level-n conjugates of the image of H, the subgroup the words generate,
    breadth first from c = 1 by the generators in declared order, each
    keeping the first c that reaches it (the quotient is finite, so
    positive letters reach the whole orbit).  The count of conjugators
    yielded is a lower bound on the number of conjugates of H in G.

    Each conjugator's level permutation s travels with its word; the
    candidate's generators are H's image's conjugated by s, and its orbit
    key is H's mapped through s.  A candidate is new when it equals no kept
    image with its key (images with other keys are unequal): an exact
    level-n refutation, so the images belong to pairwise distinct conjugates
    of H.  Conjugates have one order, so a kept image equals the candidate
    iff it holds the candidate's generators; only a new one is built."""
    base = image_subgroup(words, n)
    preset = words[0].preset
    perm = _perm_type(len(base.identity))
    one, base_gens, base_key = perm(base.identity), [perm(g) for g in base.gens], perm(_orbit_key(base))
    letters = _letters(preset, n)
    gens = [(Word.generator(preset, g), letters[g, 1], letters[g, -1]) for g in preset.gen_names]
    kept: dict = {}  # orbit key -> the images kept with it
    start = (Word.identity(preset), one, one)
    queue = deque([(start, start)])  # (generator, conjugator it extends), multiplied when reached
    while queue:  # breadth first; a walked entry is dropped with its permutations
        (w, t, t_inv), (c, s, s_inv) = queue.popleft()
        if budget < 1:
            return
        c, s, s_inv = w * c, compose(t, s), compose(s_inv, t_inv)
        labels = compose(base_key, s_inv)  # each point's base orbit, by its least point
        least = dict(zip(reversed(labels), reversed(range(len(labels)))))
        twins = kept.setdefault(tuple(map(least.__getitem__, labels)), [])
        conj = [compose(s, compose(g, s_inv)) for g in base_gens]
        if not any(all(map(other.contains, conj)) for other in twins):
            img = _level_image(preset, n, conj)
            twins.append(img)
            budget -= 1
            queue += [(g, (c, s, s_inv)) for g in gens]
            yield c, img


def _check_points(preset: GroupPreset, n: int):
    _check_level(preset, n)
    if preset.degree**n > POINT_CAP:
        raise LevelCapExceeded(f"level {n} has {preset.degree**n} vertices, over the cap of {POINT_CAP}")


def full_level_group(preset: GroupPreset, n: int):
    _check_points(preset, n)
    return _level_image(preset, n, [_letters(preset, n)[g, 1] for g in preset.gen_names])


def quotient_order(preset: GroupPreset, n: int) -> int:
    """|G / Stab_G(n)|: the order of the level-n image, above level m on a
    preset with branch data by the recursion from |G_m| (`branching`)."""
    if preset.branch_key:
        from .branching import BRANCH_DATA
        data = BRANCH_DATA[preset.branch_key]
        if n > data.m:
            _check_level(preset, n)
            return data.order(preset.degree, quotient_order(preset, data.m), n)
    return full_level_group(preset, n).order()


def is_level_transitive(preset: GroupPreset, n: int) -> bool:
    """True iff the level-n vertices form one orbit: one orbit walk."""
    _check_level(preset, n)
    return len(_orbit_walk(preset, (0,) * n)) == preset.degree ** n


def subgroup_index_in_quotient(words, n: int) -> int:
    """Index of the words' image inside the full level-n quotient."""
    words = list(words)
    if not words:
        raise ValueError("need a preset context; pass the identity word for the trivial subgroup")
    q, r = divmod(quotient_order(words[0].preset, n), image_subgroup(words, n).order())
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
    reps: dict[Vertex, Word] = {}
    for w, edge in _orbit_walk(preset, v, until).items():
        reps[w] = gens[edge[1]] * reps[edge[0]] if edge else Word.identity(preset)
    return reps


def _orbit_walk(preset: GroupPreset, v: Vertex, until: Vertex | None = None):
    """The breadth-first tree of `orbit_transversal`'s walk: each orbit
    vertex in discovery order, with the edge (u, j) by which generator j
    first reached it, None for v.  No word is built."""
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    tree: dict[Vertex, tuple[Vertex, int] | None] = {v: None}
    queue = [v]
    for u in queue:  # grows while it is walked: breadth first
        if u == until:
            break
        for j, g in enumerate(gens):
            w = g.apply(u)
            if w not in tree:
                tree[w] = u, j
                queue.append(w)
    return tree


def point_stabilizer_words(preset: GroupPreset, v: Vertex) -> list[Word]:
    """Schreier generators (as words) of the stabilizer of v at its level.

    Coset representative words are built by deterministic BFS over the
    level-|v| orbit of v; the returned words generate a subgroup whose
    level-|v| image is exactly the point stabilizer of v.  Inverses are
    built along the walk's tree as invs[u] * g^-1, which is rep.inverse()
    under confluent rules, as every shipped preset and fixture has.
    """
    _check_level(preset, len(v))
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    if not v:
        return gens
    tree = _orbit_walk(preset, v)
    reps, invs = {}, {}
    for w, edge in tree.items():  # discovery order: u's words are built first
        if edge:
            u, j = edge
            reps[w], invs[w] = gens[j] * reps[u], invs[u] * gens[j].inverse()
        else:
            reps[w] = invs[w] = Word.identity(preset)
    out: list[Word] = []
    seen = set()
    for u, j in sorted(set(product(reps, range(len(gens)))) - set(tree.values())):  # tree edges give 1
        word = invs[gens[j].apply(u)] * (gens[j] * reps[u])
        if word.factors and word.factors not in seen:
            seen.add(word.factors)
            out.append(word)
    return out
