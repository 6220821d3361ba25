"""Finitely generated subgroup diagnostics: fixed trees, sections, rigid
stabilizers, index evidence and escaping conjugates.

Membership in an abstractly defined subgroup is always answered inside a
finite level quotient: non-membership at any level is exact, membership at
the tested level is only evidence.  A handle that knows it is a vertex
stabilizer is decided at its own level by its predicate, w(x) = x.  Any
other handle first refutes by a moved common fixed point of its
generators, and only then sifts through a stabilizer chain of its image.
Searches are iterative-deepening over reduced words with lexicographic
tie-breaking, so results replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .presets import GroupPreset
from .quotients import (
    PermSubgroup,
    common_fixed_points,
    image_subgroup,
    subgroup_index_in_quotient,
    word_perm,
)
from .tree import Vertex, format_vertex, level_vertices, vertex_leq
from .words import Word


class NotInLevelStabilizerError(ValueError):
    """Raised when a section tuple is requested for a non-stabilizing word."""


@dataclass
class SubgroupHandle:
    """A finitely generated subgroup with an optional membership level.

    `vertex`, when set, is a vertex x whose level-|x| stabilizer the
    generators generate exactly at level |x|, as `parabolic_approximation`
    builds them.  It is not serialized: a handle read from a file is
    checked through its generators alone.
    """

    generators: tuple[Word, ...]
    membership_level: int | None = None
    label: str = ""
    vertex: Vertex | None = field(default=None, compare=False)
    _images: dict = field(default_factory=dict, repr=False, compare=False)
    _fixed: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.generators = tuple(self.generators)

    @property
    def preset(self) -> GroupPreset:
        if not self.generators:
            raise ValueError("trivial handle has no preset context")
        return self.generators[0].preset

    @classmethod
    def from_strings(cls, preset: GroupPreset, texts, **kw) -> "SubgroupHandle":
        return cls(tuple(Word.from_str(preset, t) for t in texts), **kw)

    def image(self, n: int, level_cap: int | None = None) -> PermSubgroup:
        got = self._images.get(n)
        if got is None:
            gens = self.generators or (Word.identity(self.preset),)
            got = image_subgroup(gens, n, level_cap)
            self._images[n] = got
        return got

    def fixed_points(self, n: int) -> list[int]:
        """Level-n points fixed by every generator, hence by the subgroup."""
        got = self._fixed.get(n)
        if got is None:
            gens = self.generators or (Word.identity(self.preset),)
            got = self._fixed[n] = common_fixed_points(gens, n)
        return got

    def contains_at_level(self, w: Word, n: int | None = None) -> bool:
        """Quotient membership: exact as a refutation, evidence as a yes.

        At the level of `vertex` the answer is w(x) = x, exact both ways.
        Otherwise w is refuted if it moves a point that every generator
        fixes; failing that, its image is sifted through the chain of the
        subgroup's level-n image.
        """
        if n is None:
            n = self.membership_level
        if n is None:
            raise ValueError("handle has no membership level")
        x = self.vertex
        if x is not None and len(x) == n:
            return w.apply(x) == x
        fixed = self.fixed_points(n)
        p = word_perm(w, n)
        if any(p[i] != i for i in fixed):
            return False
        return self.image(n).contains(p)

    def conjugated(self, g: Word) -> "SubgroupHandle":
        return SubgroupHandle(
            tuple(w.conjugate_by(g) for w in self.generators),
            membership_level=self.membership_level,
            label=f"({self.label})^conj" if self.label else "",
            vertex=None if self.vertex is None else g.apply(self.vertex),
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "generators": [str(w) for w in self.generators],
            "membership_level": self.membership_level,
        }


@dataclass(frozen=True)
class FixedTree:
    """Prefix-closed fixed vertices of a subgroup, truncated at a depth."""

    depth: int
    vertices: frozenset
    deepest_path: Vertex

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "fixed": sorted(format_vertex(v) for v in self.vertices),
            "deepest_path": format_vertex(self.deepest_path),
        }


def fixed_vertices(h: SubgroupHandle, n: int) -> set[Vertex]:
    """Level-n vertices fixed by every generator, hence by the subgroup."""
    d = h.preset.degree
    return {
        v
        for v in level_vertices(d, n)
        if all(g.apply(v) == v for g in h.generators)
    }


def fixed_tree(h: SubgroupHandle, depth: int) -> FixedTree:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    d = h.preset.degree
    fixed: set[Vertex] = {()}
    frontier: list[Vertex] = [()]
    deepest: Vertex = ()
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for x in range(d):
                w = v + (x,)
                if all(g.apply(w) == w for g in h.generators):
                    fixed.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
        deepest = frontier[0]
    return FixedTree(depth=depth, vertices=frozenset(fixed), deepest_path=deepest)


def minimal_non_fixing_level(h: SubgroupHandle, max_level: int) -> int | None:
    """Least level with no fixed vertex, or None up to max_level."""
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    d = h.preset.degree
    frontier: list[Vertex] = [()]
    for l in range(1, max_level + 1):
        nxt = []
        for v in frontier:
            for x in range(d):
                w = v + (x,)
                if all(g.apply(w) == w for g in h.generators):
                    nxt.append(w)
        if not nxt:
            return l
        frontier = nxt
    return None


def psi_sections(g: Word, k: int) -> list[Word]:
    """Section tuple over the lexicographic level-k vertices.

    Requires g to fix level k exactly; otherwise the tuple would not be a
    well-defined image under the level-k embedding.
    """
    d = g.preset.degree
    verts = level_vertices(d, k)
    for v in verts:
        if g.apply(v) != v:
            raise NotInLevelStabilizerError(
                f"word moves level-{k} vertex {format_vertex(v)}"
            )
    return [g.section(v) for v in verts]


def in_rigid_stabilizer(g: Word, v: Vertex) -> bool:
    """True iff g fixes level |v| and acts trivially outside the subtree at v."""
    k = len(v)
    if not g.fixes_level(k):
        return False
    d = g.preset.degree
    for u in level_vertices(d, k):
        if u != v and not g.section(u).is_identity():
            return False
    return True


def index_growth_profile(
    h: SubgroupHandle, n_max: int, level_cap: int | None = None
) -> list[int]:
    """Indices of the image subgroup in the level quotient, levels 1..n_max.

    A strictly increasing tail is evidence of infinite index; a constant
    tail is evidence of finite index.  Neither is a proof.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    gens = h.generators or (Word.identity(h.preset),)
    return [subgroup_index_in_quotient(gens, n, level_cap) for n in range(1, n_max + 1)]


def enumerate_reduced_words(preset: GroupPreset, max_length: int | None = None):
    """Yield canonical reduced words in (length, lexicographic) order.

    Walks the Cayley ball breadth-first over generator letters in their
    declared order; inverse letters are included only for generators
    without a declared finite order (otherwise inverses are powers and
    already enumerated).  Deterministic.
    """
    letters = []
    for name in preset.gen_names:
        letters.append((name, 1))
        if name not in preset.gen_order:
            letters.append((name, -1))
    seen = {()}
    frontier = [()]
    yield Word.identity(preset)
    length = 0
    while frontier and (max_length is None or length < max_length):
        length += 1
        nxt = []
        for f in frontier:
            for let in letters:
                g = preset.reduce(f + (let,))
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    yield Word(preset, g, reduced=True)
        frontier = nxt


def conjugate_escaping(
    h: SubgroupHandle, gamma: Word, n: int, budget: int = 2000
) -> Word | None:
    """A word f with the level-n image of f gamma f^-1 outside h's image.

    Level-n non-membership is exact, so a returned conjugator certifies
    that the conjugate is not in the subgroup.  Returns None when the
    budget is exhausted; that is no conclusion.
    """
    if gamma.is_identity():
        raise ValueError("gamma must be nontrivial")
    if h.membership_level is not None and h.membership_level > n:
        raise ValueError("membership level exceeds the check level")
    img = h.image(n)
    tried = 0
    for f in enumerate_reduced_words(gamma.preset):
        if tried >= budget:
            return None
        tried += 1
        if not img.contains(word_perm(gamma.conjugate_by(f), n)):
            return f
    return None
