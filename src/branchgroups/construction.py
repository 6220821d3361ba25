"""Finite-stage constructions: rigid-stabilizer elements, level traps,
staged certificates and fixed-tree separation.

Every search here is deterministic: candidates are generated breadth-first
from the preset's branching generators by iterated commutators with
generator letters, and all budgets are explicit, default to
DEFAULT_SEARCH_BUDGET as on the command line, and are recorded in the
results, so a certificate replays to the byte.  The level trap's base word
comes from at most `budget` words of the Cayley ball.

A certificate is built from Q and seed vertices alone: the avoided
subgroups are the stabilizers of the seeds' rays, every stage's level and
vertices follow from Q and those rays before any search, and each stage
searches the one vertex its avoided ray forces.  An avoid subgroup's label
names its seed, and building and validating decide it by one predicate,
whether w moves the seed padded with zeros.  A stage's level is the
length of its vertex; reading a file refuses a stage whose k or u disagrees.

Certificate soundness discipline: every clause of a certificate is
decided exactly, on vertices and sections, and none in a level quotient;
normal-closure equality follows from two exact clauses by Dedekind's law.
"""

from __future__ import annotations

import json
from itertools import islice

from .presets import GroupPreset
from .quotients import (
    _check_points,
    image_subgroup,
    orbit_transversal,
    point_stabilizer_words,
    quotient_order,
    word_perm,
)
from .subgroups import (
    SubgroupHandle,
    enumerate_reduced_words,
    first_moved_vertex,
    in_rigid_stabilizer,
    minimal_non_fixing_level,
    rist_support,
)
from .tree import LEVEL_CAP, Vertex, _check_level, format_vertex, level_vertices
from .tree import parse_vertex, vertex_leq
from .words import DEFAULT_SEARCH_BUDGET, BudgetExhausted, Word, root_perm_of


class CertificateBuildError(ValueError):
    """A stage of the certificate construction could not be completed: a
    ValueError, a precondition the inputs fail, unless it is also the
    BudgetExhausted `RistSearchExhausted`."""

    def __init__(self, stage: int, reason: str):
        super().__init__(f"stage {stage}: {reason}")


class RistSearchExhausted(CertificateBuildError, BudgetExhausted):
    """A stage's rigid-stabilizer candidates ran out: undecided, not a refutation."""


# -- transporters ---------------------------------------------------------


def transporter_word(preset: GroupPreset, u: Vertex, v: Vertex) -> Word | None:
    """A word m with m(u) = v, by BFS over the level orbit; None if absent."""
    if len(u) != len(v):
        raise ValueError("transporter endpoints must share a level")
    return orbit_transversal(preset, u, until=v).get(v)


# -- rigid-stabilizer element search --------------------------------------


def _generator_letters(preset: GroupPreset) -> list[Word]:
    letters = []
    for name in preset.gen_names:
        order = preset.gen_order.get(name)
        letters += [Word(preset, ((name, e),)) for e in (range(1, order) if order else (1, -1))]
    return [w for w in letters if w.factors]


# Per-source caps within the overall budget; the commutator tower is the
# cheap primary source, the scan and descent kick in only when it yields
# nothing at all.
_TOWER_CAP = 400
_DESCEND_FRONTIER_CAP = 200
_DESCEND_FIXER_CAP = 400


def _tower_segment(preset: GroupPreset, k: int, budget: int):
    """Classified iterated commutators of the branching generators.

    The tower [..[[t, s1], s2].., sj] over generator letters reproduces the
    standard descent of branching elements into deeper rigid stabilizers.
    """
    letters = _generator_letters(preset)
    frontier = [Word(preset, f) for f in preset.branching_generators]
    seen = {w.factors for w in frontier}
    produced = 0
    cap = min(budget, _TOWER_CAP)
    while frontier and produced < cap:
        for w in frontier:
            produced += 1
            support = rist_support(w, k)
            if support is not None:
                yield w, support
            if produced >= cap:
                return
        nxt = []
        for w in frontier:
            w_inv = w.inverse()
            for s in letters:
                cand = w * s * w_inv * s.inverse()
                if cand.factors and cand.factors not in seen:
                    seen.add(cand.factors)
                    nxt.append(cand)
        frontier = nxt


def _scan_segment(preset: GroupPreset, budget: int):
    """Fallback level-1 source: scan the Cayley ball for level-1 stabilizers
    whose action is carried by a single subtree."""
    for w in islice(enumerate_reduced_words(preset), budget):
        if not w.factors:
            continue
        support = rist_support(w, 1)
        if support is not None:
            yield w, support


def _descend_segment(preset: GroupPreset, k: int, budget: int):
    """Fallback deepening source: expand inside a level-(k-1) element's
    rigid stabilizer by conjugation and commutation with support-fixing
    words, keeping candidates whose section at the support is itself
    carried by a single subtree.

    Conjugation by a v-fixing word and commutation with it both stay inside
    Rist(v) and act on the section by conjugation and commutation with the
    word's own section, so the search walks the section's normal closure.
    """
    parents = list(islice(_rist_stream(preset, k - 1, budget), preset.degree))
    tested = 0
    for g, v in parents:
        ball = islice(enumerate_reduced_words(preset), _DESCEND_FIXER_CAP)
        fixers = [h for h in ball if h.factors and h.apply(v) == v]
        seen = {g.factors}
        frontier = [g]
        while frontier and tested < budget:
            nxt = []
            for w in frontier:
                w_inv = w.inverse()
                for h in fixers:
                    for cand in (w.conjugate_by(h), w * h * w_inv * h.inverse()):
                        if not cand.factors or cand.factors in seen:
                            continue
                        seen.add(cand.factors)
                        tested += 1
                        s = rist_support(cand.section(v), 1)
                        if s is not None:
                            yield cand, v + s
                        else:
                            nxt.append(cand)
                        if tested >= budget:
                            return
            frontier = nxt[:_DESCEND_FRONTIER_CAP]


def _rist_stream(preset: GroupPreset, k: int, budget: int):
    """Classified rigid-stabilizer elements at level k: the commutator tower,
    then, only when it yields nothing, the scan (k = 1) or the descent."""
    found = False
    for pair in _tower_segment(preset, k, budget):
        found = True
        yield pair
    if not found:
        yield from (
            _scan_segment(preset, budget) if k == 1 else _descend_segment(preset, k, budget)
        )


def iter_rist_elements(v: Vertex, preset: GroupPreset, budget: int = DEFAULT_SEARCH_BUDGET):
    """Yield verified elements of Rist(v), deterministically.

    Candidates found at other level-|v| vertices are transported by
    conjugation with a BFS transporter word.  Every yielded element passes
    the exact rigid-stabilizer predicate at v.
    """
    k = len(v)
    if k == 0:
        raise ValueError("rigid stabilizer search needs a non-root vertex")
    emitted = set()
    for base, support in _rist_stream(preset, k, budget):
        if support == v:
            g = base
        else:
            m = transporter_word(preset, support, v)
            if m is None:
                continue
            g = base.conjugate_by(m)
        if g.factors not in emitted and in_rigid_stabilizer(g, v):
            emitted.add(g.factors)
            yield g


# -- level trap -----------------------------------------------------------


class TrapReport:
    """A level trap check, decided by its witnesses: a generator that moves
    level k, and a fixed vertex at level k + 1, each None when there is none."""

    def __init__(self, k: int, moving_witness: str | None, fixed_witness: str | None):
        self.k = k
        self.moving_witness = moving_witness
        self.fixed_witness = fixed_witness
        self.stabilizes_level = moving_witness is None
        self.no_fixed_vertex = fixed_witness is None

    @property
    def passed(self) -> bool:
        return self.stabilizes_level and self.no_fixed_vertex

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "stabilizes_level_k": self.stabilizes_level,
            "moving_witness": self.moving_witness,
            "no_fixed_vertex_at_k_plus_1": self.no_fixed_vertex,
            "fixed_witness": self.fixed_witness,
            "passed": self.passed,
        }


def level_trap_check(h: SubgroupHandle, k: int) -> TrapReport:
    """Exact check: generators fix level k; no fixed vertex at level k+1."""
    g = next((g for g in h.generators if not g.fixes_level(k)), None)
    moving = None if g is None else f"{g} moves {format_vertex(first_moved_vertex((g,), k))}"
    fixed = h.fixed_points(k + 1)
    return TrapReport(k, moving, format_vertex(fixed[0]) if fixed else None)


def trap_subgroup(
    preset: GroupPreset, k: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> SubgroupHandle:
    """Build a Stab(k)-subgroup with no fixed vertex at level k+1.

    The base word is w^m for the first of at most `budget` reduced words w
    whose level-(k+1) image outgrows its level-k image, of order m: w^m
    fixes level k exactly and moves level k+1, at a vertex below some
    level-k vertex u.  Its conjugates by the `orbit_transversal` of u, one
    per level-k vertex, move a child of every level-k vertex, so the fixed
    set at level k+1 is demonstrably empty.  Membership is checked at
    level k + 2.

    Such a word exists iff |G/St(k+1)| > |G/St(k)|.  The caps on that
    whole level image are checked first, the orders (`quotient_order`) once
    the search is spent: CertificateBuildError if equal, else BudgetExhausted.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_points(preset, k + 1)
    for w in islice(enumerate_reduced_words(preset), budget):
        h = image_subgroup([w], k + 1)
        m = h.order(k)
        if h.order() > m:
            base = w**m
            break
    else:
        if quotient_order(preset, k + 1) == quotient_order(preset, k):
            raise CertificateBuildError(0, f"no level-{k} stabilizer moves level {k + 1}")
        raise BudgetExhausted("trap base search", budget)

    trivial = tuple(range(preset.degree))
    sections = base.level_sections(k)
    base_support = next(u for u, f in sections.items() if root_perm_of(preset, f) != trivial)
    transporters = orbit_transversal(preset, base_support)
    gens = []
    for v in level_vertices(preset.degree, k):
        t = transporters.get(v)
        if t is None:
            raise CertificateBuildError(0, f"level {k} is not transitive; cannot cover {v}")
        gens.append(base.conjugate_by(t))
    return SubgroupHandle(tuple(gens), membership_level=k + 2, label=f"trap-k{k}")


# -- finite subgroups and certificates ------------------------------------


# Elements are bucketed by their image at this level before the word
# problem decides equality within a bucket; a closure past the cap is
# taken for an infinite subgroup.
_CLOSURE_LEVEL = 4
_CLOSURE_CAP = 256


def finite_subgroup_elements(q: SubgroupHandle) -> list[Word]:
    """All elements of a finite subgroup, one word each, sorted by factors.

    Closes the generating set under multiplication breadth first.  Reduced
    words are not a normal form, so a product is new only if the word
    problem separates it from every known element with the same level
    image; the first word found for an element is kept.  Raises ValueError
    if the closure exceeds `_CLOSURE_CAP` elements (infinite subgroup).
    """
    preset = q.preset
    identity = Word.identity(preset)
    buckets = {word_perm(identity, _CLOSURE_LEVEL): [identity]}
    elems = [identity]
    frontier = [identity]
    gens = [w for w in q.generators] + [w.inverse() for w in q.generators]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = e * g
                bucket = buckets.setdefault(word_perm(p, _CLOSURE_LEVEL), [])
                if any((u.inverse() * p).is_identity() for u in bucket):
                    continue
                if len(elems) >= _CLOSURE_CAP:
                    raise ValueError(f"subgroup closure exceeds cap {_CLOSURE_CAP}; not finite?")
                bucket.append(p)
                elems.append(p)
                nxt.append(p)
        frontier = nxt
    return sorted(elems, key=lambda w: preset.decode(w.factors))


def _orbit_vertices(q_elems: list[Word], v: Vertex) -> set[Vertex]:
    return {q.apply(v) for q in q_elems}


class CertificateStage:
    def __init__(self, v: Vertex, w: Word, u: Vertex):
        self.v = v
        self.w = w
        self.u = u

    @property
    def k(self) -> int:
        return len(self.v)


class WMCertificate:
    """Staged construction data, replayable by validate_certificate.

    The v1 format still carries a `seed` key for byte compatibility: it is
    written as 0 and ignored on read, since no computation reads it.
    """

    def __init__(
        self,
        preset_fingerprint: str,
        q_generators: tuple[Word, ...],
        stages: tuple[CertificateStage, ...],
        avoid: tuple[SubgroupHandle, ...],
        verification_level: int,
        budgets: dict,
    ):
        self.preset_fingerprint = preset_fingerprint
        self.q_generators = q_generators
        self.stages = stages
        self.avoid = avoid
        self.verification_level = verification_level
        self.budgets = budgets

    def to_dict(self) -> dict:
        return {
            "format": "wm-certificate-v1",
            "preset_fingerprint": self.preset_fingerprint,
            "q_generators": [str(w) for w in self.q_generators],
            "stages": [
                {"k": s.k, "v": format_vertex(s.v), "w": str(s.w), "u": format_vertex(s.u)}
                for s in self.stages
            ],
            "avoid": [h.to_dict() for h in self.avoid],
            "verification_level": self.verification_level,
            "budgets": dict(self.budgets),
            "seed": 0,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict, preset: GroupPreset) -> "WMCertificate":
        """Read a certificate; a file of the wrong shape raises ValueError."""
        try:
            stages = tuple(
                CertificateStage(
                    v=parse_vertex(s["v"], preset.degree),
                    w=Word.from_str(preset, s["w"]),
                    u=parse_vertex(s["u"], preset.degree),
                )
                for s in data["stages"]
            )
            for i, (s, stage) in enumerate(zip(data["stages"], stages), start=1):
                if int(s["k"]) != stage.k or len(stage.u) != stage.k:
                    raise ValueError(
                        f"stage {i}: k = {s['k']}, v = {s['v']!r} and u = {s['u']!r}"
                        " are not all at one level"
                    )
            avoid = tuple(
                SubgroupHandle(
                    tuple(Word.from_str(preset, t) for t in h["generators"]),
                    membership_level=int(h["membership_level"]),
                    label=h.get("label", ""),
                )
                for h in data["avoid"]
            )
            return cls(
                preset_fingerprint=data["preset_fingerprint"],
                q_generators=tuple(Word.from_str(preset, t) for t in data["q_generators"]),
                stages=stages,
                avoid=avoid,
                verification_level=int(data["verification_level"]),
                budgets=dict(data.get("budgets", {})),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str, preset: GroupPreset) -> "WMCertificate":
        return cls.from_dict(json.loads(text), preset)


def parabolic_approximation(
    preset: GroupPreset, v: Vertex, membership_level: int
) -> SubgroupHandle:
    """Vertex-stabilizer approximation of the parabolic subgroup along the
    leftmost ray through v: the stabilizer of v extended by zeros.

    The label `stab-<v>` names v, which `_avoided_vertex` reads back; the
    generators are the Schreier words of `point_stabilizer_words`, which
    generate exactly that stabilizer at the membership level.
    """
    if membership_level < len(v):
        raise ValueError("membership level must be at least the vertex level")
    gens = point_stabilizer_words(preset, v + (0,) * (membership_level - len(v)))
    label = f"stab-{format_vertex(v)}"
    return SubgroupHandle(tuple(gens), membership_level=membership_level, label=label)


def _avoided_vertex(h: SubgroupHandle, degree: int) -> Vertex:
    """x: the vertex that an avoid subgroup's label `stab-<seed>` names,
    padded with zeros to its membership level.  W is the stabilizer of x,
    so w lies outside W iff w(x) != x.  ValueError for any other label."""
    seed = h.label.removeprefix("stab-")
    n = h.membership_level
    if seed == h.label or len(seed) > n:
        raise ValueError(f"avoid subgroup label {h.label!r} names no vertex of level <= {n}")
    return parse_vertex(seed, degree) + (0,) * (n - len(seed))


# Rist candidates tested against an avoid subgroup at a stage vertex.
_CANDIDATES_PER_VERTEX = 4


def _splits(q_elems: list[Word], verts: list[Vertex]) -> bool:
    """Whether Q is not transitive on verts: the orbit of the first misses one."""
    return len(_orbit_vertices(q_elems, verts[0]) & set(verts)) < len(verts)


def _stage_skeleton(q_elems: list[Word], seeds: list[Vertex]) -> list[tuple[Vertex, Vertex]]:
    """The (v_i, u_i) of every stage, from Q and the seed vertices alone.

    A stage at level k needs a verification level above k and at most
    LEVEL_CAP, so no stage lies deeper than LEVEL_CAP - 1.  k_1 is the least
    level where Q meets the level stabilizer trivially and is not
    transitive; each later k_i is the least deeper level where Q does not
    act transitively on the vertices below Q(u_{i-1}).  v_i is the level-k_i
    prefix of seed i extended by zeros, and u_i the least level-k_i vertex
    below Q(u_{i-1}) and outside Q(v_i).
    """

    def below(level: int, tops) -> list[Vertex]:
        verts = level_vertices(q_elems[0].preset.degree, level)
        return verts if tops is None else [x for x in verts if any(vertex_leq(x, t) for t in tops)]

    nontrivial = [q for q in q_elems if q.factors]
    trivial_meet = (k for k in range(1, LEVEL_CAP) if not any(q.fixes_level(k) for q in nontrivial))
    k1 = next((k for k in trivial_meet if _splits(q_elems, below(k, None))), None)
    if not nontrivial or k1 is None:
        raise CertificateBuildError(
            0, "Q is trivial or never satisfies the level-selection conditions"
        )

    skeleton: list[tuple[Vertex, Vertex]] = []
    tops = None  # Q(u_{i-1}); nothing restricts stage 1
    for i, seed in enumerate(seeds, start=1):
        k = k1
        if tops is not None:
            deeper = range(len(skeleton[-1][0]) + 1, LEVEL_CAP)
            k = next((lvl for lvl in deeper if _splits(q_elems, below(lvl, tops))), None)
            if k is None:
                raise CertificateBuildError(i, "no suitable next level found")
        v = (seed + (0,) * k)[:k]
        v_orbit = _orbit_vertices(q_elems, v)
        candidates_u = [x for x in below(k, tops) if x not in v_orbit]
        if not candidates_u:
            raise CertificateBuildError(i, "no admissible nested vertex u_i")
        skeleton.append((v, candidates_u[0]))
        tops = _orbit_vertices(q_elems, candidates_u[0])
    return skeleton


def build_certificate(
    q: SubgroupHandle,
    seeds: list[Vertex],
    rist_budget: int = DEFAULT_SEARCH_BUDGET,
    verification_level: int | None = None,
) -> WMCertificate:
    """Run the staged construction for Q against the rays through the seeds.

    The stage levels and vertices come first, from `_stage_skeleton`.  The
    level n, unless given, is two under the deepest stage but at most
    LEVEL_CAP, at least 4 and at least the longest seed; W_i is the level-n
    stabilizer of seed i extended by zeros, x_i, as `parabolic_approximation`
    builds it.  An element of Rist(v) fixes every vertex outside the subtree
    at v, so only v_i, the level-k_i prefix of x_i, can carry an element
    escaping W_i: stage i tries the first `_CANDIDATES_PER_VERTEX` elements
    of Rist(v_i) and keeps the first that moves x_i (an exact refutation).
    A certificate needs a stage, so no seed is a ValueError.
    """
    if not seeds:
        raise ValueError("a certificate needs at least one seed vertex")
    skeleton = _stage_skeleton(finite_subgroup_elements(q), seeds)
    if verification_level is None:
        stage_levels = [min(len(v) + 2, LEVEL_CAP) for v, _ in skeleton]
        verification_level = max([4] + stage_levels + [len(s) for s in seeds])
    avoid = [parabolic_approximation(q.preset, s, verification_level) for s in seeds]
    stages: list[CertificateStage] = []
    for i, ((v, u), w_avoid) in enumerate(zip(skeleton, avoid), start=1):
        if verification_level <= len(v):
            raise CertificateBuildError(
                i, f"avoid subgroup {i} membership level must exceed stage level {len(v)}"
            )
        x = _avoided_vertex(w_avoid, q.preset.degree)
        candidates = islice(iter_rist_elements(v, q.preset, rist_budget), _CANDIDATES_PER_VERTEX)
        w = next((g for g in candidates if g.apply(x) != x), None)
        if w is None:
            raise RistSearchExhausted(
                i, f"no rigid-stabilizer element escaping avoid subgroup {i} at level {len(v)}"
            )
        stages.append(CertificateStage(v=v, w=w, u=u))
    return WMCertificate(
        preset_fingerprint=q.preset.fingerprint(),
        q_generators=q.generators,
        stages=tuple(stages),
        avoid=tuple(avoid),
        verification_level=verification_level,
        budgets={"rist_budget": rist_budget, "candidates_per_vertex": _CANDIDATES_PER_VERTEX},
    )


# -- certificate validation -----------------------------------------------


class ClauseResult:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CertificateReport:
    def __init__(self, clauses: list[ClauseResult], verification_level: int):
        self.clauses = clauses
        self.verification_level = verification_level

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "verification_level": self.verification_level,
            "clauses": [c.to_dict() for c in self.clauses],
        }


def validate_certificate(cert: WMCertificate, preset: GroupPreset) -> CertificateReport:
    """Independent replay of every certificate clause.

    Clause 1 (avoidance) and the rigid-stabilizer predicates are exact.
    W_i is the stabilizer of the vertex x_i its label names: the listed
    generators must fix x_i and w_i must move it.
    Clause 2 (normal-closure equality: H meet Stab(k1) = N, the normal
    closure of the w_i in H = <Q, w_1, ..., w_s>) is exact.  H = NQ, and
    N <= Stab(k1) when every w_i fixes level k1, as Stab(k1) is normal in
    G; Dedekind's law then gives H meet Stab(k1) = N(Q meet Stab(k1)),
    which is N when Q meets Stab(k1) trivially.  The clause passes iff
    both hold, and otherwise names the first w_i that moves level k1 or an
    element of Q that fixes it.
    Clause 3 (nesting and subtree fixing) is exact: g acts trivially on the
    subtree at x iff g(x) = x and g|_x = 1, a word problem whose spent
    budget raises BudgetExhausted.  A verification level past the level cap
    raises LevelCapExceeded before any clause.  Levels must increase
    strictly from a first stage: a certificate with no stage fails.
    """
    clauses: list[ClauseResult] = []
    n = cert.verification_level
    _check_level(preset, n)

    def add(name, passed, detail=""):
        clauses.append(ClauseResult(name=name, passed=passed, detail=detail))

    if cert.preset_fingerprint != preset.fingerprint():
        add("preset-fingerprint", False, "certificate was built for a different preset")
        return CertificateReport(clauses=clauses, verification_level=n)
    add("preset-fingerprint", True, preset.fingerprint())

    ks = [s.k for s in cert.stages]
    add("levels-increase", ks != [] and ks == sorted(set(ks)), f"k = {ks}")
    add(
        "one-avoid-per-stage",
        len(cert.avoid) == len(cert.stages),
        f"{len(cert.avoid)} avoid subgroups, {len(cert.stages)} stages",
    )

    q_handle = SubgroupHandle(cert.q_generators or (Word.identity(preset),))
    try:
        q_elems = finite_subgroup_elements(q_handle)
    except ValueError as exc:
        add("q-finite", False, str(exc))
        return CertificateReport(clauses=clauses, verification_level=n)
    add("q-finite", True, f"|Q| = {len(q_elems)}")

    if cert.stages:
        k1 = cert.stages[0].k
        meet = next((q for q in q_elems if q.factors and q.fixes_level(k1)), None)
        add("q-meets-stabilizer-trivially", meet is None, f"checked at k1 = {k1}")

    for i, s in enumerate(cert.stages, start=1):
        add(
            f"stage-{i}-rigid-stabilizer",
            in_rigid_stabilizer(s.w, s.v),
            f"w_{i} in Rist({format_vertex(s.v)})",
        )

    for i, (s, w_avoid) in enumerate(zip(cert.stages, cert.avoid), start=1):
        lvl, x = w_avoid.membership_level, _avoided_vertex(w_avoid, preset.degree)
        mover = next((g for g in w_avoid.generators if g.apply(x) != x), None)
        escaped = mover is None and s.w.apply(x) != x
        add(
            f"stage-{i}-avoidance",
            escaped,
            f"W_{i} generator {mover} moves {format_vertex(x)}" if mover is not None
            else f"w_{i} image not in W_{i} at level {lvl} (exact refutation)" if escaped
            else f"w_{i} image lies in W_{i} at level {lvl}",
        )

    # Clause (3): nesting of the u_i, each outside Q(v_i) and below Q(u_{i-1})
    # (the root for u_1), and exact subtree fixing.
    for i, s in enumerate(cert.stages, start=1):
        tops = [()] if i == 1 else _orbit_vertices(q_elems, cert.stages[i - 2].u)
        nested = s.u not in _orbit_vertices(q_elems, s.v) and any(vertex_leq(s.u, t) for t in tops)
        name = "stage-1-u-outside-Qv" if i == 1 else f"stage-{i}-u-nested"
        add(name, nested, f"u_{i} = {format_vertex(s.u)}")
    closure_gens: list[Word] = []  # the Q-conjugates of w_1..w_i
    for i, s in enumerate(cert.stages, start=1):
        closure_gens += [qe * s.w * qe.inverse() for qe in q_elems]
        orbit = sorted(_orbit_vertices(q_elems, s.u))
        failure = next((
            f"{g} moves {format_vertex(x)}" if g.apply(x) != x
            else f"{g} acts nontrivially below {format_vertex(x)}"
            for x in orbit for g in closure_gens
            if g.apply(x) != x or not g.section(x).is_identity()
        ), None)
        trivial = f"Q-conjugates of w_1..w_{i} act trivially on the subtrees at Q(u_{i})"
        add(f"stage-{i}-subtrees-fixed", failure is None, failure or trivial)

    # Clause (2): normal-closure equality, from w_i in Stab(k1) and the trivial meet above.
    if cert.stages:
        mover = next((i for i, s in enumerate(cert.stages, start=1) if not s.w.fixes_level(k1)), None)
        dedekind = f"H meet Stab({k1}) = ncl (Q meet Stab({k1}))"
        if mover is not None:
            detail = f"w_{mover} moves level {k1}, so ncl is not inside Stab({k1})"
        elif meet is not None:
            detail = f"Q meets Stab({k1}) in {meet}, so {dedekind} may exceed ncl"
        else:
            detail = (f"w_1..w_{len(cert.stages)} fix level {k1} and Q meets Stab({k1}) trivially,"
                      f" so {dedekind} = ncl by Dedekind's law")
        add("normal-closure-equality", mover is None and meet is None, detail)
    return CertificateReport(clauses=clauses, verification_level=n)


# -- non-conjugacy --------------------------------------------------------


def fix_separation_witness(h_i: SubgroupHandle, h_j: SubgroupHandle) -> int | None:
    """A level t where exactly one subgroup has a fixed vertex.

    Conjugation maps level-t fixed sets bijectively, so such a level
    certifies non-conjugacy.  None means inconclusive: the fixed trees
    have the same depth, or both are infinite.  BudgetExhausted only when
    a walk passes LEVEL_CAP and the other tree does not end.
    """
    levels, spent = set(), None
    for h in (h_i, h_j):
        try:
            levels.add(minimal_non_fixing_level(h))
        except BudgetExhausted as e:  # every level up to LEVEL_CAP is nonempty
            levels.add(None)
            spent = e
    if len(levels) < 2 and spent:
        raise spent
    return min(levels - {None}) if len(levels) == 2 else None
