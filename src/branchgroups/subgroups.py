"""Finitely generated subgroup diagnostics: fixed trees, sections, rigid
stabilizers, index evidence and escaping conjugates.

Which vertices a list of words fixes is answered by one uncached walk,
`fixed_levels`, which descends from the root through fixed vertices only.
Where the fixed tree ends, or that it never does, is answered with no depth
given by a depth-first walk over the section states of fixed vertices,
`minimal_non_fixing_level`.
One word's section tuple and rigid stabilizers read `Word.level_sections`.

Membership in an abstractly defined subgroup is always answered inside a
finite level quotient: non-membership at any level is exact, membership at
the tested level is only evidence.  A handle that knows it is a vertex
stabilizer is decided at its own level by its predicate, w(x) = x.  Any
other handle first refutes by a moved common fixed vertex of its
generators, and only then sifts through its level image.
One breadth-first walk, `conjugate_images`, visits the distinct
conjugates of a level image; escaping conjugators and the conjugate count
read it, so results replay exactly and a budget counts conjugates visited.
"""

from __future__ import annotations

from .presets import GroupPreset
from .quotients import LEVEL_CAP, _check_level, full_level_group, image_subgroup, word_perm
from .tree import Vertex, format_vertex, level_vertices
from .words import DEFAULT_SEARCH_BUDGET, BudgetExhausted, Word, expand_factors, is_identity_factors


class NotInLevelStabilizerError(ValueError):
    """Raised when a section tuple is requested for a non-stabilizing word."""


class SubgroupHandle:
    """A finitely generated subgroup with an optional membership level.

    `vertex`, when set, is a vertex x whose level-|x| stabilizer the
    generators generate exactly at level |x|, as `parabolic_approximation`
    builds them.  It is not serialized: a handle read from a file is
    checked through its generators alone.
    """

    def __init__(
        self,
        generators,
        membership_level: int | None = None,
        label: str = "",
        vertex: Vertex | None = None,
    ):
        self.generators = tuple(generators)
        self.membership_level = membership_level
        self.label = label
        self.vertex = vertex
        self._images = {}

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

    def image(self, n: int):
        got = self._images.get(n)
        if got is None:
            got = self._images[n] = image_subgroup(self.words, n)
        return got

    def fixed_points(self, n: int) -> list[Vertex]:
        """Level-n vertices fixed by every generator, hence by the subgroup,
        in lexicographic order."""
        *_, got = fixed_levels(self.words, n)
        return got

    def contains_at_level(self, w: Word) -> bool:
        """Membership in the image at the membership level n: exact as a
        refutation, evidence as a yes.

        At the level of `vertex` the answer is w(x) = x, exact both ways.
        Otherwise w is refuted if it moves a vertex that every generator
        fixes; failing that, its image is sifted through the subgroup's
        level-n image.
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


class FixedTree:
    """Prefix-closed fixed vertices of a subgroup, truncated at a depth."""

    def __init__(self, depth: int, vertices: frozenset, deepest_path: Vertex):
        self.depth = depth
        self.vertices = vertices
        self.deepest_path = deepest_path

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "fixed": sorted(format_vertex(v) for v in self.vertices),
            "deepest_path": format_vertex(self.deepest_path),
        }


def _fixed_children(preset: GroupPreset, sections):
    """(x, the distinct nontrivial sections at x) for each child x that
    every given section fixes at the root, read from the cached tables."""
    records = [expand_factors(preset, f) for f in sections]
    for x in range(preset.degree):
        if all(perm[x] == x for perm, _ in records):
            yield x, frozenset(secs[x] for _, secs in records) - {()}


def fixed_levels(words, depth: int):
    """Yield the lexicographic level-t vertices that every word fixes, for
    t = 0..depth, stopping after the first empty level.

    The walk descends through fixed vertices only: child x of a fixed vertex
    is fixed iff every word's section there fixes x at the root.  Each vertex
    carries the distinct nontrivial sections.  The depth is checked against
    the level cap before the first level.
    """
    preset = words[0].preset
    _check_level(preset, depth)
    level = [((), frozenset(w.factors for w in words) - {()})]
    yield [()]
    for _ in range(depth):
        level = [(v + (x,), s) for v, secs in level for x, s in _fixed_children(preset, secs)]
        yield [v for v, _ in level]
        if not level:
            return


def first_moved_vertex(words, n: int) -> Vertex | None:
    """The lexicographically first level-n vertex that some word moves;
    None if every one is fixed.

    A moved level-n vertex lies below a moved child u of a fixed vertex,
    and the least level-n vertex below u is u 0...0; the answer is the
    least such padded child over the levels of the fixed-tree walk.
    """
    d, best, parents = words[0].preset.degree, None, None
    for t, level in enumerate(fixed_levels(words, n)):
        if parents:
            fixed = set(level)
            u = next((v + (x,) for v in parents for x in range(d) if v + (x,) not in fixed), None)
            if u is not None and (best is None or u + (0,) * (n - t) < best):
                best = u + (0,) * (n - t)
        parents = level
    return best


def fixed_tree(h: SubgroupHandle, depth: int) -> FixedTree:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    levels = [lvl for lvl in fixed_levels(h.words, depth) if lvl]
    vertices = frozenset(v for lvl in levels for v in lvl)
    return FixedTree(depth=depth, vertices=vertices, deepest_path=levels[-1][0])


def minimal_non_fixing_level(h: SubgroupHandle) -> int | None:
    """Least level with no fixed vertex, or None when the subgroup fixes a
    ray.  Depth first over the states of fixed vertices, a state being the
    set of the generators' distinct nontrivial sections there.  The fixed
    tree below a vertex depends only on its state, so each state's end
    level below it is memoized; a state met again on its own path repeats
    along it forever, so a ray is fixed.  A fixed vertex at LEVEL_CAP with
    neither answer raises BudgetExhausted, so every answer is at most
    LEVEL_CAP."""
    ends, path = {}, set()

    def end(state, t):
        """Levels below a level-t vertex with this state down to the first
        with no fixed vertex, or None for a ray."""
        if state in path:
            return None
        r = ends.get(state)
        if r is None and t < LEVEL_CAP:
            path.add(state)
            r = 1
            for _, below in _fixed_children(h.preset, state):
                s = end(below, t + 1)
                if s is None:
                    return None
                r = max(r, s + 1)
            path.remove(state)
            ends[state] = r
        if r is None or t + r > LEVEL_CAP:
            raise BudgetExhausted("fixed-tree walk over levels", LEVEL_CAP)
        return r

    return end(frozenset(w.factors for w in h.words) - {()}, 0)


def psi_sections(g: Word, k: int) -> list[Word]:
    """Section tuple over the lexicographic level-k vertices.

    Requires g to fix level k exactly; otherwise the tuple would not be a
    well-defined image under the level-k embedding.
    """
    _check_level(g.preset, k)  # the tuple has d^k entries
    sections = g.level_sections(k)
    if sections is None:
        moved = first_moved_vertex((g,), k)
        raise NotInLevelStabilizerError(
            f"word moves level-{k} vertex {format_vertex(moved)}"
        )
    verts = level_vertices(g.preset.degree, k)
    return [Word(g.preset, sections.get(v, ()), True) for v in verts]


def in_rigid_stabilizer(g: Word, v: Vertex) -> bool:
    """True iff g fixes level |v| and acts trivially outside the subtree at v."""
    sections = g.level_sections(len(v))
    return sections is not None and all(
        is_identity_factors(g.preset, f) for u, f in sections.items() if u != v
    )


def rist_support(g: Word, k: int) -> Vertex | None:
    """The level-k vertex v with g in Rist(v) and g|_v nontrivial, if any.
    The scan stops at a second nontrivial section."""
    sections = g.level_sections(k)
    if sections is None:
        return None
    scan = (u for u, f in sections.items() if not is_identity_factors(g.preset, f))
    support = next(scan, None)
    return support if next(scan, None) is None else None


def index_growth_profile(h: SubgroupHandle, n_max: int) -> list[int]:
    """Indices of the image subgroup in the level quotient, levels 1..n_max.

    A strictly increasing tail is evidence of infinite index; a constant
    tail is evidence of finite index.  Neither is a proof.  For a p-preset
    every level is read off one run of G and one of H at n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    full, sub = full_level_group(h.preset, n_max), h.image(n_max)
    return [full.order(n) // sub.order(n) for n in range(1, n_max + 1)]


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


def conjugate_images(h: SubgroupHandle, n: int, budget: int = DEFAULT_SEARCH_BUDGET):
    """Yield (c, level-n image of c H c^-1) for at most `budget` distinct
    level-n conjugates of h's image, breadth first from c = 1 by the
    generators in declared order, each keeping the first c that reaches it
    (the quotient is finite, so positive letters reach the whole orbit).
    A candidate is new when `equals` fails against every kept image with
    its orbit key (images with other keys are unequal): an exact level-n
    refutation, so the images belong to pairwise distinct conjugates of H."""
    gens = [Word.generator(h.preset, g) for g in h.preset.gen_names]
    kept: dict = {}  # orbit key -> the images kept with it
    queue = [Word.identity(h.preset)]
    for c in queue:  # grows while it is walked: breadth first
        if budget < 1:
            return
        img = h.conjugated(c).image(n)
        twins = kept.setdefault(_orbit_key(img), [])
        if not any(img.equals(other) for other in twins):
            twins.append(img)
            budget -= 1
            queue += [s * c for s in gens]
            yield c, img


def conjugate_escaping(
    h: SubgroupHandle, gamma: Word, n: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[Word | None, int]:
    """(f, visited): f = c^-1 for the first conjugate c H c^-1 of
    `conjugate_images` whose level-n image misses gamma, so f gamma f^-1 is
    outside h's image, and the number of conjugates visited.

    Level-n non-membership is exact, so a returned f certifies that the
    conjugate is not in the subgroup.  f is None when every conjugate
    visited contains gamma, which is no conclusion; fewer visited than the
    budget means that every level-n conjugate contains gamma.  A gamma that
    acts trivially on level n lies in all of them and is refused.
    """
    if h.membership_level is not None and h.membership_level > n:
        raise ValueError("membership level exceeds the check level")
    g = word_perm(gamma, n)
    if g == tuple(range(len(g))):
        raise ValueError(f"gamma acts trivially on level {n}")
    visited = 0
    for c, img in conjugate_images(h, n, budget):
        visited += 1
        if not img.contains(g):
            return c.inverse(), visited
    return None, visited
