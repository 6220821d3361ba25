"""Exact arithmetic on tree automorphisms represented as reduced words.

The composition convention is leftmost-last: (gh)(w) = g(h(w)), with the
section rule (gh)_v = g_{h(v)} h_v.  Under this convention the Grigorchuk
recursion reads b = (a, c), c = (a, d), d = (1, b) exactly as constructed
by the preset.

The sections of a word form a graph, held by the preset's node table: one
`Node` per expanded reduced word, with its root permutation, d reduced
section words and child nodes.  Expanding a word looks its letters up once
in a per-letter table, right to left, then walks each start point through
those records on its own.  Walks step from node to child by reference and
key their dicts by node.  Level-n sections are read by `Word.level_sections`.

The word problem and level stabilizers share one depth-first walk over a
word's distinct iterated sections, `is_identity_factors`: an element is
trivial iff every section met has a trivial root permutation, and it fixes
level n iff every one met above level n does.  On the whole tree a node
budget applies on every preset, DEFAULT_IDENTITY_BUDGET when none is
given: a preset's claim to be contracting is recorded, not trusted, and
exhaustion raises BudgetExhausted.  A walk to a level is bounded by the
level.  No answer is memoized, so the outcome depends only on the preset,
the word and the budget.  Element orders are bounded the same way, by
DEFAULT_ORDER_BUDGET nodes by default, and an order memo hit charges its cost.

Letters, word powers and level permutations are raised to a power by one
repeated-squaring loop, `power`.
"""

from __future__ import annotations

import math

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


def power(x, m: int, mul):
    """x^m for m >= 1 by repeated squaring; x itself when m = 1.  The
    power so far is multiplied by a square as mul(power, square), so mul
    fixes the order of the factors."""
    if m < 1:
        raise ValueError(f"power needs an exponent >= 1, got {m}")
    out = None
    while True:
        if m & 1:
            out = x if out is None else mul(out, x)
        m >>= 1
        if not m:
            return out
        x = mul(x, x)


def _letter(preset: GroupPreset, factor) -> tuple[tuple[int, ...], tuple[Factors, ...]]:
    """Fill the letter table for factor = (g, e): the root permutation of
    g^e and, at each first-level vertex, its reduced section reversed, so
    that it goes onto a pending stack as it is.  g^e is a power of g or
    g^-1 under the section rule (uv)_x = u_{v(x)} v_x."""
    g, e = factor
    gen = preset.gen_map[g]
    d = preset.degree
    if e > 0:
        x = gen.root_perm, [preset.reduce(s) for s in gen.sections]
    else:
        p = preset.inverse_perms[g]
        x = p, [preset.reduce(_invert_factors(gen.sections[p[y]])) for y in range(d)]

    def times(v, u):  # u v: power's mul(out, x) puts x on the left of out
        (p, s), (q, t) = u, v
        return tuple(p[y] for y in q), [preset.product(s[q[y]], t[y]) for y in range(d)]

    perm, sections = power(x, abs(e), times) if e else (tuple(range(d)), [()] * d)
    entry = (tuple(perm), tuple(s[::-1] for s in sections))
    preset._letter_cache[factor] = entry
    return entry


class Node:
    """One entry of the node table: an expanded reduced word, its root
    permutation, its d reduced first-level section words, and its child
    nodes, each None until a walk first steps there.  Hashed by identity."""

    __slots__ = ("word", "perm", "sections", "children")

    def __init__(self, word: Factors, perm: tuple[int, ...], sections: tuple[Factors, ...]):
        self.word, self.perm, self.sections, self.children = word, perm, sections, [None] * len(perm)


def node_of(preset: GroupPreset, factors: Factors) -> Node:
    """The node of a reduced word: a table hit, or else its expansion."""
    return preset._section_cache.get(factors) or expand_factors(preset, factors)


def _child(preset: GroupPreset, node: Node, x: int) -> Node:
    """Fill node's child slot x from the table; walks read the slot first."""
    child = node.children[x] = node_of(preset, node.sections[x])
    return child


def root_perm_of(preset: GroupPreset, factors: Factors) -> tuple[int, ...]:
    """The permutation induced on the first level (leftmost factor last)."""
    return node_of(preset, factors).perm


def apply_factors(preset: GroupPreset, factors: Factors, v: Vertex) -> Vertex:
    """Image of vertex v under the word: for each letter x of v, the image
    of x under the node's root permutation, then on to its child at x."""
    if not v:
        return ()
    node = node_of(preset, factors)
    out = [node.perm[v[0]]]
    for x, y in zip(v, v[1:]):
        node = node.children[x] or _child(preset, node, x)
        out.append(node.perm[y])
    return tuple(out)


def expand_factors(preset: GroupPreset, factors: Factors) -> Node:
    """Expand a reduced word into its node: its root permutation and its d
    reduced first-level sections.  The word's letter records are looked up
    once, right to left; then each start point x is walked through them on
    its own, pushing the letter's reversed section at x onto x's stack and
    moving x to its image.  Returns the table's node for the word, adding
    this one if it has none; walks call it only on a table miss."""
    letters = preset._letter_cache
    records = [letters.get(f) or _letter(preset, f) for f in reversed(factors)]
    rewrite = preset._rewrite
    points, sections = [], []
    for x in range(preset.degree):
        stack = []
        for perm, secs in records:
            stack += secs[x]
            x = perm[x]
        points.append(x)
        sections.append(rewrite([], stack, ()))
    return preset._section_cache.setdefault(factors, Node(factors, tuple(points), tuple(sections)))


def section1(preset: GroupPreset, factors: Factors, x: int) -> Factors:
    """Section of a reduced word at first-level child x, reduced."""
    return node_of(preset, factors).sections[x]


def section_factors(preset: GroupPreset, factors: Factors, v: Vertex) -> Factors:
    """Section at an arbitrary vertex, stepping from node to child along v."""
    if not v:
        return factors
    node = node_of(preset, factors)
    for x in v[:-1]:
        node = node.children[x] or _child(preset, node, x)
    return node.sections[v[-1]]


def is_identity_factors(
    preset: GroupPreset, factors: Factors, budget: int | None = None, level: int | None = None
) -> bool:
    """True iff the word acts trivially on the whole tree or, given a level
    n, fixes level n.

    Depth first over the word's distinct iterated sections, stopping at the
    first nontrivial root permutation; a section is walked again only when
    met with more levels to go.  On the whole tree the budget bounds the
    distinct sections walked, None meaning DEFAULT_IDENTITY_BUDGET; a walk
    to a level takes no budget, and looks no section at level n up.
    """
    if level is None:
        level = math.inf
        if budget is None:
            budget = DEFAULT_IDENTITY_BUDGET
    else:
        budget = math.inf
    trivial_perm = tuple(range(preset.degree))
    stack = [(node_of(preset, factors), level)] if level > 0 else []
    seen = dict(stack)
    while stack:
        node, togo = stack.pop()
        if node.perm != trivial_perm:
            return False
        togo -= 1
        for x, s in enumerate(node.sections):
            if s and togo:
                child = node.children[x] or _child(preset, node, x)
                if seen.get(child, 0) < togo:
                    seen[child] = togo
                    stack.append((child, togo))
                    if len(seen) > budget:
                        raise BudgetExhausted("is_identity", budget)
    return True


def _power_factors(preset: GroupPreset, factors: Factors, m: int) -> Factors:
    """The m-th power of a reduced word, reduced."""
    if m < 0:
        factors, m = preset.reduce(_invert_factors(factors)), -m
    return power(factors, m, preset.product) if m else ()


def order_factors(preset: GroupPreset, factors: Factors, budget: int | None = None) -> int:
    """Order of a reduced word: least m >= 1 with the m-th power trivial;
    arbitrary precision.

    Recursion over the cycles of the root permutation pi: for a cycle C of
    length c with least point x, g^c fixes x and its section there is
    h_C = g_{pi^(c-1) x} ... g_{pi x} g_x.  The sections of g^c at the other
    points of C are conjugates of h_C, and g acts on the subtrees below
    different cycles independently, so ord(g) = lcm over C of c * ord(h_C).
    A budget bounds the total number of recursion nodes, None meaning
    DEFAULT_ORDER_BUDGET; exhaustion (in particular on a non-torsion element
    whose recursion does not close) raises BudgetExhausted, and so does a
    recursion deeper than the interpreter's stack allows.

    Each step to h_C multiplies the path's multiplier by c, because
    c * ord(h_C) divides ord(g).  A word met again on its own recursion path
    with a larger multiplier k * m would need k * ord(g) to divide ord(g)
    with k > 1, so it is proved non-torsion and raises InfiniteOrder.  With
    an equal multiplier (every cycle on the way has length 1) the constraint
    repeats the ancestor's and adds nothing.
    """
    if budget is None:
        budget = DEFAULT_ORDER_BUDGET
    try:
        return _order_rec(preset, node_of(preset, factors), 1, {}, budget, [0])[0]
    except RecursionError:
        raise BudgetExhausted("element_order", budget) from None


_NO_BACKEDGE = 1 << 60


def _order_rec(
    preset: GroupPreset,
    node: Node,
    mult: int,
    path: dict[Node, tuple[int, int]],
    budget: int,
    nodes: list[int],
) -> tuple[int, int]:
    """One node of order_factors: returns (order contribution, shallowest
    back-edge depth).  path maps each node on the current recursion path to
    its (depth, multiplier); nodes counts the nodes visited.  A value whose
    subtree reached back to a strict ancestor is exact only as a
    contribution to that ancestor's lcm and is not memoized.  A memoized
    value keeps the nodes its subtree was charged, and a hit charges them
    again, so the outcome does not depend on what the memo holds."""
    if not node.word:
        return 1, _NO_BACKEDGE
    cache, start = preset._order_cache, nodes[0]
    got, cost = cache.get(node, (None, 1))
    nodes[0] += cost
    if nodes[0] > budget:
        raise BudgetExhausted("element_order", budget)
    if got is not None:
        return got, _NO_BACKEDGE
    hit = path.get(node)
    if hit is not None:
        depth, entry_mult = hit
        if mult == entry_mult:
            return 1, depth
        raise InfiniteOrder(f"{preset.format_factors(node.word)} re-enters its order recursion")
    my_depth = len(path)
    path[node] = (my_depth, mult)
    perm, sections, children = node.perm, node.sections, node.children
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
            # A cycle of length 1 steps straight to the child node.
            child = (children[x] or _child(preset, node, x)) if c == 1 else node_of(preset, h)
            val, low = _order_rec(preset, child, mult * c, path, budget, nodes)
            result = math.lcm(result, c * val)
            lowest = min(lowest, low)
    finally:
        del path[node]
    if lowest >= my_depth:
        # No dependence on a strict ancestor: the fixpoint is exact here.
        cache[node] = result, nodes[0] - start
        return result, _NO_BACKEDGE
    return result, lowest


class Portrait:
    """Depth-n truncation of an automorphism: root permutations of all
    sections at levels < n."""

    def __init__(self, depth: int, decorations: dict):
        self.depth = depth
        self.decorations = decorations

    def is_trivial(self) -> bool:
        identity = tuple(range(len(self.decorations.get((), ()))))
        return all(p == identity for p in self.decorations.values())

    def walk(self, v: Vertex) -> Vertex:
        """Image of a vertex of level <= depth read off the decorations;
        ValueError for a deeper vertex or a letter outside the tree."""
        if len(v) > self.depth:
            raise ValueError(f"vertex of level {len(v)} is below the portrait's depth {self.depth}")
        d = len(self.decorations.get((), ()))
        if any(not 0 <= x < d for x in v):
            raise ValueError(f"vertex {v} has a letter outside 0..{d - 1} (degree {d})")
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
    """Depth-n portrait, one level at a time: level k + 1's nodes are read
    from level k's child slots, starting from the word's node, and the
    deepest level's children are never fetched.  Each level's root
    permutations go onto the preset's shared vertex tuples of that level,
    which come in lexicographic order and are built once per preset."""
    if n < 0:
        raise ValueError(f"portrait depth must be >= 0, got {n}")
    children = range(preset.degree)
    levels = preset._level_vertices
    while len(levels) < n:
        levels.append([v + (x,) for v in levels[-1] for x in children] if levels else [()])
    decorations = {}
    nodes = [node_of(preset, factors)] if n else []
    for k in range(n):
        decorations.update(zip(levels[k], [node.perm for node in nodes]))
        if k < n - 1:
            nodes = [node.children[x] or _child(preset, node, x) for node in nodes for x in children]
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

    def level_sections(self, n: int) -> dict[Vertex, Factors] | None:
        """The nonempty reduced sections at level n, keyed by vertex in
        lexicographic order, or None if the word moves a vertex of level
        <= n, that is, if some section above level n has a nontrivial root
        permutation.  Only vertices with a nonempty section are walked, so
        the work follows the word's length, not d^n."""
        preset = self.preset
        trivial = tuple(range(preset.degree))
        level = {(): self.factors} if self.factors else {}
        nodes = {(): node_of(preset, self.factors)} if level and n else {}
        for k in range(1, n + 1):
            level, below = {}, {}
            for v, node in nodes.items():
                if node.perm != trivial:
                    return None
                for x, s in enumerate(node.sections):
                    if s:
                        level[v + (x,)] = s
                        if k < n:
                            below[v + (x,)] = node.children[x] or _child(preset, node, x)
            nodes = below
        return level

    def fixes_level(self, n: int) -> bool:
        """True iff every level-n vertex is fixed: `is_identity_factors`
        walked to level n."""
        return is_identity_factors(self.preset, self.factors, level=n)

    def portrait(self, n: int) -> Portrait:
        return portrait_factors(self.preset, self.factors, n)

    def order(self, budget: int | None = None) -> int:
        return order_factors(self.preset, self.factors, budget)
