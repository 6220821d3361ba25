"""Finitely generated subgroup diagnostics: fixed trees, sections, rigid
stabilizers, index evidence and escaping conjugates.

Which vertices a list of words fixes is answered by one walk,
`fixed_levels`, which descends from the root through fixed vertices only.

Membership in an abstractly defined subgroup is always answered inside a
finite level quotient: non-membership at any level is exact, membership at
the tested level is only evidence.  A handle that knows it is a vertex
stabilizer is decided at its own level by its predicate, w(x) = x.  Any
other handle first refutes by a moved common fixed vertex of its
generators, and only then sifts through a stabilizer chain of its image.
Searches are iterative-deepening over reduced words with lexicographic
tie-breaking, so results replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .presets import GroupPreset
from .quotients import (
    StabChain,
    _check_level,
    image_subgroup,
    subgroup_index_in_quotient,
    word_perm,
)
from .tree import Vertex, format_vertex, level_vertices
from .words import DEFAULT_SEARCH_BUDGET, Word, expand_factors


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

    @property
    def words(self) -> tuple[Word, ...]:
        """The generators, or the identity word for the trivial handle."""
        return self.generators or (Word.identity(self.preset),)

    @classmethod
    def from_strings(cls, preset: GroupPreset, texts, **kw) -> "SubgroupHandle":
        return cls(tuple(Word.from_str(preset, t) for t in texts), **kw)

    def image(self, n: int) -> StabChain:
        got = self._images.get(n)
        if got is None:
            got = self._images[n] = image_subgroup(self.words, n)
        return got

    def fixed_points(self, n: int) -> list[Vertex]:
        """Level-n vertices fixed by every generator, hence by the subgroup,
        in lexicographic order."""
        got = self._fixed.get(n)
        if got is None:
            *_, got = fixed_levels(self.words, n)
            self._fixed[n] = got
        return got

    def contains_at_level(self, w: Word) -> bool:
        """Membership in the image at the membership level n: exact as a
        refutation, evidence as a yes.

        At the level of `vertex` the answer is w(x) = x, exact both ways.
        Otherwise w is refuted if it moves a vertex that every generator
        fixes; failing that, its image is sifted through the chain of the
        subgroup's level-n image.
        """
        n = self.membership_level
        if n is None:
            raise ValueError("handle has no membership level")
        x = self.vertex
        if x is not None and len(x) == n:
            return w.apply(x) == x
        if any(w.apply(v) != v for v in self.fixed_points(n)):
            return False
        return self.image(n).contains(word_perm(w, n))

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


def fixed_levels(words, depth: int):
    """Yield the lexicographic level-t vertices that every word fixes, for
    t = 0..depth, stopping after the first empty level.

    The walk descends through fixed vertices only: child x of a fixed vertex
    is fixed iff every word's section there fixes x at the root.  Each vertex
    carries the distinct nontrivial sections, read from the cached tables.
    The depth is checked against the level cap before the first level.
    """
    preset = words[0].preset
    _check_level(preset, depth)
    level = [((), tuple(dict.fromkeys(w.factors for w in words if w.factors)))]
    yield [()]
    for _ in range(depth):
        nxt = []
        for v, sections in level:
            records = [expand_factors(preset, f) for f in sections]
            for x in range(preset.degree):
                if all(perm[x] == x for perm, _ in records):
                    below = dict.fromkeys(secs[x] for _, secs in records)
                    below.pop((), None)
                    nxt.append((v + (x,), tuple(below)))
        level = nxt
        yield [v for v, _ in level]
        if not level:
            return


def first_moved_vertex(words, n: int, tops=((),)) -> Vertex | None:
    """The first level-n vertex below `tops`, taken in order and then
    lexicographically, that some word moves; None if every one is fixed."""
    *_, last = fixed_levels(words, n)
    fixed = set(last)
    d = words[0].preset.degree
    below = (u + x for u in tops for x in level_vertices(d, n - len(u)))
    return next((v for v in below if v not in fixed), None)


def fixed_vertices(h: SubgroupHandle, n: int) -> set[Vertex]:
    """Level-n vertices fixed by every generator, hence by the subgroup."""
    *_, last = fixed_levels(h.words, n)
    return set(last)


def fixed_tree(h: SubgroupHandle, depth: int) -> FixedTree:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    levels = [lvl for lvl in fixed_levels(h.words, depth) if lvl]
    vertices = frozenset(v for lvl in levels for v in lvl)
    return FixedTree(depth=depth, vertices=vertices, deepest_path=levels[-1][0])


def minimal_non_fixing_level(h: SubgroupHandle, max_level: int) -> int | None:
    """Least level with no fixed vertex, or None up to max_level."""
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    for t, fixed in enumerate(fixed_levels(h.words, max_level)):
        if not fixed:
            return t
    return None


def psi_sections(g: Word, k: int) -> list[Word]:
    """Section tuple over the lexicographic level-k vertices.

    Requires g to fix level k exactly; otherwise the tuple would not be a
    well-defined image under the level-k embedding.
    """
    verts = level_vertices(g.preset.degree, k)
    moved = first_moved_vertex((g,), k)
    if moved is not None:
        raise NotInLevelStabilizerError(
            f"word moves level-{k} vertex {format_vertex(moved)}"
        )
    return [g.section(v) for v in verts]


def _nontrivial_sections(g: Word, k: int, skip: Vertex | None = None):
    """Lexicographic level-k vertices but `skip` where g's section is
    nontrivial, lazily.  g must fix level k."""
    verts = level_vertices(g.preset.degree, k)
    return (u for u in verts if u != skip and not g.section(u).is_identity())


def in_rigid_stabilizer(g: Word, v: Vertex) -> bool:
    """True iff g fixes level |v| and acts trivially outside the subtree at v."""
    k = len(v)
    return g.fixes_level(k) and next(_nontrivial_sections(g, k, v), None) is None


def rist_support(g: Word, k: int) -> Vertex | None:
    """The level-k vertex v with g in Rist(v) and g|_v nontrivial, if any.
    The scan stops at a second nontrivial section."""
    if not g.fixes_level(k):
        return None
    scan = _nontrivial_sections(g, k)
    support = next(scan, None)
    return support if next(scan, None) is None else None


def index_growth_profile(h: SubgroupHandle, n_max: int) -> list[int]:
    """Indices of the image subgroup in the level quotient, levels 1..n_max.

    A strictly increasing tail is evidence of infinite index; a constant
    tail is evidence of finite index.  Neither is a proof.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return [subgroup_index_in_quotient(h.words, n) for n in range(1, n_max + 1)]


def enumerate_reduced_words(preset: GroupPreset):
    """Yield canonical reduced words in (length, lexicographic) order.

    Walks the Cayley ball breadth-first over generator letters in their
    declared order; inverse letters are included only for generators
    without a declared finite order (otherwise inverses are powers and
    already enumerated).  Deterministic and unbounded: callers stop it.
    """
    letters = []
    for name in preset.gen_names:
        letters.append((name, 1))
        if name not in preset.gen_order:
            letters.append((name, -1))
    seen = {()}
    frontier = [()]
    yield Word.identity(preset)
    while frontier:
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
    h: SubgroupHandle, gamma: Word, n: int, budget: int = DEFAULT_SEARCH_BUDGET
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
    for f in islice(enumerate_reduced_words(gamma.preset), budget):
        if not img.contains(word_perm(gamma.conjugate_by(f), n)):
            return f
    return None
