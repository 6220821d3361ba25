"""Finite level quotients as permutation groups on lexicographic level vertices.

Permutations are one-line image tuples over the d^n level-n vertices in
lexicographic order.  `word_perm` composes generator images, raising a
letter's image to its exponent by repeated squaring; each generator's
level-n image is built once from the wreath recursion and memoized on the
preset, like the other memo tables.

Every composition, in word images and in the stabilizer chain alike,
goes through `compose`, an `itemgetter` gather that runs in C; on a
one-point domain, where the gather would return a bare item, it builds the
tuple itself.

Every subgroup of a level quotient is a `StabChain`, built by incremental
Schreier-Sims.  Every level keeps its orbit as a list, a coset
representative for each orbit point and the representative's inverse, so a
sift costs one gather per level.  A new generator extends the orbit in
place, and only the Schreier generators of the new (point, generator)
pairs are sifted into the level below: old representatives never change
and lower levels only grow, so the old pairs stay sifted.  Base points are
the smallest point moved by the residue that opens a level, and generators
and pairs are processed in a fixed order, so the chain is deterministic.
The base order follows the order in which generators arrive; orders and
membership do not depend on it, and no output shows it.

Level-transitivity is one orbit walk from the vertex 0...0, with no chain.
Every quotient level, word image level and depth of a fixed-tree walk is
checked against the fixed LEVEL_CAP before any work, so none runs past
that level whoever calls it.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .presets import Factors, GroupPreset
from .tree import Vertex
from .words import Word

Perm = tuple[int, ...]

LEVEL_CAP = 10


class LevelCapExceeded(ValueError):
    """A level beyond LEVEL_CAP: its quotient or tree walk could exhaust memory."""


def _check_level(preset: GroupPreset, n: int):
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > LEVEL_CAP and preset.degree > 1:
        raise LevelCapExceeded(f"level {n} exceeds cap {LEVEL_CAP} for degree {preset.degree}")


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation of 'apply q, then p': the gather of p at q's images."""
    if len(q) == 1:
        return (p[q[0]],)  # itemgetter with one index returns an item, not a tuple
    return itemgetter(*q)(p)


def perm_inverse(p: Perm) -> Perm:
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
            got = tuple(out)
        cache[key] = got
    return got


def _factors_perm(preset: GroupPreset, factors: Factors, n: int) -> Perm:
    perm = tuple(range(preset.degree ** n))
    if n == 0:
        return perm  # the root is fixed; the wreath recursion ends here
    for g, e in factors:
        perm = compose(perm, _perm_power(_generator_perm(preset, g, e < 0, n), abs(e)))
    return perm


def _perm_power(p: Perm, m: int) -> Perm:
    """p^m for m >= 1 by repeated squaring; p itself when m = 1."""
    out = None
    while True:
        if m & 1:
            out = p if out is None else compose(out, p)
        m >>= 1
        if not m:
            return out
        p = compose(p, p)


def word_perm(w: Word, n: int) -> Perm:
    """Image of a word on the lexicographic level-n vertices."""
    _check_level(w.preset, n)
    return _factors_perm(w.preset, w.factors, n)


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


def _min_moved(p: Perm) -> int:
    for i, x in enumerate(p):
        if x != i:
            return i
    raise ValueError("identity has no moved point")


class StabChain:
    """A subgroup of a level quotient: a deterministic stabilizer chain
    with exact order and membership sifting.

    `gens` lists the generators that enlarged the group, in the order they
    arrived.  Level i holds the orbit of its base point under its own
    generators; the group at level i + 1 is the stabilizer of that point in
    the group at level i.
    """

    def __init__(self, npoints: int, gens):
        self.npoints = npoints
        self.identity = tuple(range(npoints))
        self.gens: list[Perm] = []
        self.levels: list[_Orbit] = []
        for g in gens:
            self.add(g)

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
            self.levels.append(_Orbit(_min_moved(p), self.npoints))
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

    def order(self) -> int:
        return math.prod(len(lvl.points) for lvl in self.levels)

    def contains(self, p: Perm) -> bool:
        return self._sift(tuple(p), 0) == self.identity

    def base(self) -> list[int]:
        return [lvl.beta for lvl in self.levels]

    def equals(self, other: "StabChain") -> bool:
        return self.order() == other.order() and all(self.contains(g) for g in other.gens)


def image_subgroup(words, n: int) -> StabChain:
    """Level-n image subgroup generated by the given words."""
    words = list(words)
    if not words:
        raise ValueError("image_subgroup needs at least one word (may be identity)")
    preset = words[0].preset
    _check_level(preset, n)
    return StabChain(preset.degree ** n, [word_perm(w, n) for w in words])


def full_level_group(preset: GroupPreset, n: int) -> StabChain:
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    return image_subgroup(gens, n)


def quotient_order(preset: GroupPreset, n: int) -> int:
    """|G / Stab_G(n)| via the stabilizer chain of the level image."""
    if n == 0:
        return 1
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
