"""Exact arithmetic on tree automorphisms represented as reduced words.

The composition convention is leftmost-last: (gh)(w) = g(h(w)), with the
section rule (gh)_v = g_{h(v)} h_v.  Under this convention the Grigorchuk
recursion reads b = (a, c), c = (a, d), d = (1, b) exactly as constructed
by the preset.

Every walk over the tree, the image of a vertex included, reads the
first-level expansion of a reduced word, its root permutation and its d
reduced first-level sections.  A per-letter table on the preset holds each
letter's expansion; a word's expansion is one right-to-left pass over its
letters, cached as one record per word.

The word problem is solved by closing a word's set of iterated sections:
an element is trivial iff every word in the closure has a trivial root
permutation.  A node budget applies on every preset, DEFAULT_IDENTITY_BUDGET
when none is given: a preset's claim to be contracting is recorded, not
trusted, and exhaustion raises BudgetExhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .presets import Factors, GroupPreset
from .tree import Vertex, format_vertex

DEFAULT_IDENTITY_BUDGET = 200_000
DEFAULT_ORDER_BUDGET = 100_000
DEFAULT_SEARCH_BUDGET = 2000  # candidates tried by every search in the library and CLI


class BudgetExhausted(Exception):
    """A bounded computation ran out of budget without an answer."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what}: budget {budget} exhausted")
        self.what = what
        self.budget = budget


class InfiniteOrder(ArithmeticError):
    """The element was proved to have infinite order."""


def _invert_factors(factors: Factors) -> Factors:
    return tuple((g, -e) for g, e in reversed(factors))


def _letter(preset: GroupPreset, factor) -> tuple[tuple[int, ...], tuple[Factors, ...]]:
    """Fill the letter table for factor = (g, e): the root permutation of
    g^e and, at each first-level vertex, its reduced section reversed, so
    that it goes onto a pending stack as it is.  g^e is built by repeated
    squaring of g or g^-1 with the section rule (uv)_x = u_{v(x)} v_x."""
    g, e = factor
    gen = preset.gen_map[g]
    d = preset.degree
    if e > 0:
        p, secs = gen.root_perm, [preset.reduce(s) for s in gen.sections]
    else:
        p = preset.inverse_perms[g]
        secs = [preset.reduce(_invert_factors(gen.sections[p[x]])) for x in range(d)]

    def times(p, s, q, t):
        return tuple(p[y] for y in q), [preset.product(s[q[x]], t[x]) for x in range(d)]

    perm, sections = tuple(range(d)), [()] * d
    m = abs(e)
    while m:
        if m & 1:
            perm, sections = times(p, secs, perm, sections)
        m >>= 1
        if m:
            p, secs = times(p, secs, p, secs)
    entry = (perm, tuple(s[::-1] for s in sections))
    preset._letter_cache[factor] = entry
    return entry


def root_perm_of(preset: GroupPreset, factors: Factors) -> tuple[int, ...]:
    """The permutation induced on the first level (leftmost factor last)."""
    perm = tuple(range(preset.degree))
    if preset.degree == 1:
        return perm  # itemgetter with one index returns an item, not a tuple
    letters = preset._letter_cache
    for f in factors:
        try:
            p = letters[f][0]
        except KeyError:
            p = _letter(preset, f)[0]
        perm = itemgetter(*p)(perm)
    return perm


def apply_factors(preset: GroupPreset, factors: Factors, v: Vertex) -> Vertex:
    """Image of vertex v under the word: for each letter x of v, the image
    of x under the word's root permutation, then on to its section at x."""
    out = []
    for x in v:
        perm, sections = expand_factors(preset, factors)
        out.append(perm[x])
        factors = sections[x]
    return tuple(out)


def expand_factors(
    preset: GroupPreset, factors: Factors
) -> tuple[tuple[int, ...], tuple[Factors, ...]]:
    """The first-level expansion of a reduced word: its root permutation and
    its d reduced first-level sections, from one right-to-left pass over the
    letters that follows all d start points at once.  Cached per word."""
    cache = preset._section_cache
    got = cache.get(factors)
    if got is not None:
        return got
    letters = preset._letter_cache
    starts = range(preset.degree)
    points = list(starts)
    stacks = [[] for _ in starts]
    for f in reversed(factors):
        try:
            perm, sections = letters[f]
        except KeyError:
            perm, sections = _letter(preset, f)
        for x in starts:
            y = points[x]
            stacks[x] += sections[y]
            points[x] = perm[y]
    entry = (tuple(points), tuple(preset._rewrite([], pending, ()) for pending in stacks))
    cache[factors] = entry
    return entry


def section1(preset: GroupPreset, factors: Factors, x: int) -> Factors:
    """Section of a reduced word at first-level child x, reduced."""
    return expand_factors(preset, factors)[1][x]


def section_factors(preset: GroupPreset, factors: Factors, v: Vertex) -> Factors:
    """Section at an arbitrary vertex: iterated first-level sections."""
    for x in v:
        factors = section1(preset, factors, x)
    return factors


def is_identity_factors(
    preset: GroupPreset, factors: Factors, budget: int | None = None
) -> bool:
    """True iff the word acts trivially on the whole tree.

    Closes the word under first-level sections; triviality holds iff every
    member of the closure has a trivial root permutation.  The budget bounds
    the distinct sections in the closure; None means DEFAULT_IDENTITY_BUDGET.
    """
    cache = preset._identity_cache
    known = cache.get(factors)
    if known is not None:
        return known
    if budget is None:
        budget = DEFAULT_IDENTITY_BUDGET
    trivial_perm = tuple(range(preset.degree))
    seen = {factors}
    stack = [factors]
    while stack:
        f = stack.pop()
        cached = cache.get(f)
        if cached is True:
            continue
        if cached is False or root_perm_of(preset, f) != trivial_perm:
            cache[f] = False
            cache[factors] = False
            return False
        for s in expand_factors(preset, f)[1]:
            if s and s not in seen:
                seen.add(s)
                stack.append(s)
                if len(seen) > budget:
                    raise BudgetExhausted("is_identity", budget)
    for f in seen:
        cache[f] = True
    return True


def _power_factors(preset: GroupPreset, factors: Factors, m: int) -> Factors:
    """The m-th power of a reduced word, reduced."""
    if m < 0:
        factors, m = preset.reduce(_invert_factors(factors)), -m
    out: Factors = ()
    piece = factors
    while m:
        if m & 1:
            out = preset.product(out, piece)
        m >>= 1
        if m:
            piece = preset.product(piece, piece)
    return out


def order_factors(
    preset: GroupPreset, factors: Factors, budget: int | None = DEFAULT_ORDER_BUDGET
) -> int:
    """Order of a reduced word: least m >= 1 with the m-th power trivial;
    arbitrary precision.

    Recursion over the cycles of the root permutation pi: for a cycle C of
    length c with least point x, g^c fixes x and its section there is
    h_C = g_{pi^(c-1) x} ... g_{pi x} g_x.  The sections of g^c at the other
    points of C are conjugates of h_C, and g acts on the subtrees below
    different cycles independently, so ord(g) = lcm over C of c * ord(h_C).
    A budget bounds the total number of recursion nodes; exhaustion (in
    particular on a non-torsion element whose recursion does not close)
    raises BudgetExhausted.

    Each step to h_C multiplies the path's multiplier by c, because
    c * ord(h_C) divides ord(g).  A word met again on its own recursion path
    with a larger multiplier k * m would need k * ord(g) to divide ord(g)
    with k > 1, so it is proved non-torsion and raises InfiniteOrder.  With
    an equal multiplier (every cycle on the way has length 1) the constraint
    repeats the ancestor's and adds nothing.
    """
    return _order_rec(preset, factors, 1, {}, budget, [0])[0]


_NO_BACKEDGE = 1 << 60


def _order_rec(
    preset: GroupPreset,
    f: Factors,
    mult: int,
    path: dict[Factors, tuple[int, int]],
    budget: int | None,
    nodes: list[int],
) -> tuple[int, int]:
    """One node of order_factors: returns (order contribution, shallowest
    back-edge depth).  path maps each word on the current recursion path to
    its (depth, multiplier); nodes counts the nodes visited.  A value whose
    subtree reached back to a strict ancestor is exact only as a
    contribution to that ancestor's lcm and is not memoized."""
    if not f:
        return 1, _NO_BACKEDGE
    cache = preset._order_cache
    got = cache.get(f)
    if got is not None:
        return got, _NO_BACKEDGE
    nodes[0] += 1
    if budget is not None and nodes[0] > budget:
        raise BudgetExhausted("element_order", budget)
    hit = path.get(f)
    if hit is not None:
        depth, entry_mult = hit
        if mult == entry_mult:
            return 1, depth
        raise InfiniteOrder(f"{preset.format_factors(f)} re-enters its order recursion")
    my_depth = len(path)
    path[f] = (my_depth, mult)
    perm, sections = expand_factors(preset, f)
    result, lowest = 1, _NO_BACKEDGE
    seen = [False] * len(perm)
    try:
        for x in range(len(perm)):
            if seen[x]:
                continue
            # x is the least point of its cycle; fold h_C along the cycle.
            h = sections[x]
            c, y = 1, perm[x]
            while y != x:
                seen[y] = True
                h = preset.product(sections[y], h)
                c += 1
                y = perm[y]
            val, low = _order_rec(preset, h, mult * c, path, budget, nodes)
            result = math.lcm(result, c * val)
            lowest = min(lowest, low)
    finally:
        del path[f]
    if lowest >= my_depth:
        # No dependence on a strict ancestor: the fixpoint is exact here.
        cache[f] = result
        return result, _NO_BACKEDGE
    return result, lowest


@dataclass(frozen=True)
class Portrait:
    """Depth-n truncation of an automorphism: root permutations of all
    sections at levels < n."""

    depth: int
    decorations: dict

    def is_trivial(self) -> bool:
        identity = tuple(range(len(self.decorations.get((), ()))))
        return all(p == identity for p in self.decorations.values())

    def walk(self, v: Vertex) -> Vertex:
        """Image of a vertex of level <= depth read off the decorations."""
        out = []
        prefix: Vertex = ()
        for x in v:
            out.append(self.decorations[prefix][x])
            prefix = prefix + (x,)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "decorations": {
                format_vertex(v): list(p) for v, p in sorted(self.decorations.items())
            },
        }


def portrait_factors(preset: GroupPreset, factors: Factors, n: int) -> Portrait:
    """Depth-n portrait, one level at a time from the expansions of the
    level's section words; vertices come in lexicographic order."""
    if n < 0:
        raise ValueError(f"portrait depth must be >= 0, got {n}")
    children = range(preset.degree)
    cached = preset._section_cache.get
    decorations = {}
    vertices, words = [()], [factors]
    for _ in range(n):
        # A hit skips the call: a depth-12 portrait reads 4,095 records.
        records = [cached(f) or expand_factors(preset, f) for f in words]
        decorations.update(zip(vertices, [perm for perm, _ in records]))
        vertices = [v + (x,) for v in vertices for x in children]
        words = [s for _, sections in records for s in sections]
    return Portrait(depth=n, decorations=decorations)


class Word:
    """A group element: a reduced word in the preset's generators."""

    __slots__ = ("preset", "factors")

    def __init__(self, preset: GroupPreset, factors=(), reduced: bool = False):
        self.preset = preset
        self.factors = tuple(factors) if reduced else preset.reduce(factors)

    @classmethod
    def identity(cls, preset: GroupPreset) -> "Word":
        return cls(preset, (), reduced=True)

    @classmethod
    def from_str(cls, preset: GroupPreset, text: str) -> "Word":
        return cls(preset, preset.parse_word(text), reduced=True)

    @classmethod
    def generator(cls, preset: GroupPreset, name: str) -> "Word":
        return cls(preset, ((name, 1),))

    def __mul__(self, other: "Word") -> "Word":
        if self.preset is not other.preset:
            raise ValueError("cannot multiply words over different presets")
        return Word(self.preset, self.preset.product(self.factors, other.factors), True)

    def inverse(self) -> "Word":
        return Word(self.preset, _invert_factors(self.factors))

    def __pow__(self, m: int) -> "Word":
        return Word(self.preset, _power_factors(self.preset, self.factors, m), True)

    def conjugate_by(self, f: "Word") -> "Word":
        """f * self * f^-1."""
        return f * self * f.inverse()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.preset is other.preset
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"Word({self.preset.format_factors(self.factors)!r})"

    def __str__(self) -> str:
        return self.preset.format_factors(self.factors)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.factors)

    # -- group action ------------------------------------------------------

    def apply(self, v: Vertex) -> Vertex:
        return apply_factors(self.preset, self.factors, v)

    def section(self, v: Vertex) -> "Word":
        return Word(self.preset, section_factors(self.preset, self.factors, v), True)

    def root_perm(self) -> tuple[int, ...]:
        return root_perm_of(self.preset, self.factors)

    def is_identity(self, budget: int | None = None) -> bool:
        return is_identity_factors(self.preset, self.factors, budget)

    def fixes_level(self, n: int) -> bool:
        """True iff every level-n vertex is fixed, that is, iff every section
        above level n has a trivial root permutation.  Walks the distinct
        section words level by level, so nothing of size d^n is built.  The
        frontier is an insertion-ordered dict, not a set, so the walk and its
        work do not depend on string hashing."""
        preset = self.preset
        trivial = tuple(range(preset.degree))
        frontier = {self.factors: None}
        for _ in range(n):
            frontier.pop((), None)
            if any(root_perm_of(preset, f) != trivial for f in frontier):
                return False
            frontier = dict.fromkeys(s for f in frontier for s in expand_factors(preset, f)[1])
        return True

    def portrait(self, n: int) -> Portrait:
        return portrait_factors(self.preset, self.factors, n)

    def order(self, budget: int | None = DEFAULT_ORDER_BUDGET) -> int:
        return order_factors(self.preset, self.factors, budget)
