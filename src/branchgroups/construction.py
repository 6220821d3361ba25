"""Finite-stage constructions: rigid-stabilizer elements, pullback subgroups,
level traps, staged certificates and conjugate-count bounds.

Every search here is deterministic: candidates are generated breadth-first
from the preset's branching generators by iterated commutators with
generator letters, and all budgets are explicit, default to
DEFAULT_SEARCH_BUDGET as on the command line, and are recorded in the
results, so a certificate replays to the byte.

A certificate is built from Q and seed vertices alone: the avoided
subgroups are the stabilizers of the seeds' rays, every stage's level and
vertices follow from Q and those rays before any search, and each stage
searches the one vertex its avoided ray forces.

Certificate soundness discipline: non-membership demonstrated in a level
quotient is unconditional; equalities checked inside a quotient are
stamped with their verification level and are evidence, not proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

from .presets import GroupPreset
from .quotients import (
    Perm,
    StabChain,
    _check_level,
    compose,
    image_subgroup,
    orbit_transversal,
    perm_inverse,
    point_stabilizer_words,
    quotient_order,
    word_perm,
)
from .subgroups import (
    SubgroupHandle,
    conjugate_escaping,
    enumerate_reduced_words,
    first_moved_vertex,
    fixed_levels,
    fixed_vertices,
    in_rigid_stabilizer,
    rist_support,
)
from .tree import Vertex, format_vertex, level_vertices, parse_vertex, vertex_leq
from .words import DEFAULT_SEARCH_BUDGET, BudgetExhausted, InfiniteOrder, Word


class CertificateBuildError(RuntimeError):
    """A stage of the certificate construction could not be completed."""

    def __init__(self, stage: int, reason: str):
        super().__init__(f"stage {stage}: {reason}")
        self.stage = stage
        self.reason = reason


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
        exps = range(1, order) if order else (1, -1)
        for e in exps:
            letters.append(Word(preset, ((name, e),)))
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


# -- pullback of a subgroup through the first-section projection ----------


_PULLBACK_GENERATORS = 8  # the pullback stops after this many generators


@dataclass
class PullbackResult:
    """Finitely generated under-approximation of a first-section preimage."""

    handle: SubgroupHandle
    level: int
    words_tested: int
    exhausted: bool

    def to_dict(self) -> dict:
        return {
            "handle": self.handle.to_dict(),
            "level": self.level,
            "words_tested": self.words_tested,
            "exhausted": self.exhausted,
            "under_approximation": True,
        }


def pullback_subgroup(
    delta: SubgroupHandle,
    k: int,
    n: int,
    preset: GroupPreset,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PullbackResult:
    """Words of Stab(k) whose first section's image lies in delta's image.

    Level-k stabilization is checked exactly; the first-section condition is
    checked at delta's membership level.  The result under-approximates the
    true preimage by construction.
    """
    if n <= k:
        raise ValueError(f"verification level {n} must exceed k={k}")
    if delta.membership_level is None:
        raise ValueError("delta needs a membership level")
    first = tuple([0] * k)
    found: list[Word] = []
    tested = 0
    exhausted = True
    for tested, w in enumerate(islice(enumerate_reduced_words(preset), budget), start=1):
        if not w.factors or not w.fixes_level(k):
            continue
        if delta.contains_at_level(w.section(first)):
            found.append(w)
            if len(found) >= _PULLBACK_GENERATORS:
                exhausted = False
                break
    handle = SubgroupHandle(tuple(found), membership_level=n, label=f"pullback-k{k}")
    return PullbackResult(handle=handle, level=n, words_tested=tested, exhausted=exhausted)


# -- level trap -----------------------------------------------------------


@dataclass
class TrapReport:
    k: int
    l: int
    stabilizes_level: bool
    moving_witness: str | None
    no_fixed_vertex: bool
    fixed_witness: str | None

    @property
    def passed(self) -> bool:
        return self.stabilizes_level and self.no_fixed_vertex

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "stabilizes_level_k": self.stabilizes_level,
            "moving_witness": self.moving_witness,
            "no_fixed_vertex_at_k_plus_l": self.no_fixed_vertex,
            "fixed_witness": self.fixed_witness,
            "passed": self.passed,
        }


def level_trap_check(h: SubgroupHandle, k: int, l: int) -> TrapReport:
    """Exact check: generators fix level k; no fixed vertex at level k+l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    moving = None
    for g in h.generators:
        v = first_moved_vertex((g,), k)
        if v is not None:
            moving = f"{g} moves {format_vertex(v)}"
            break
    fixed = fixed_vertices(h, k + l)
    return TrapReport(
        k=k,
        l=l,
        stabilizes_level=moving is None,
        moving_witness=moving,
        no_fixed_vertex=not fixed,
        fixed_witness=format_vertex(min(fixed)) if fixed else None,
    )


def trap_subgroup(
    q: SubgroupHandle,
    k: int,
    preset: GroupPreset,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SubgroupHandle:
    """Build a Stab(k)-subgroup with no fixed vertex at level k+1.

    Realization of the pullback construction at finite truncation: harvest
    level-k stabilizing words whose first section lies in the image of a
    subgroup containing q, then enrich with conjugates of a stabilizing
    word that carries a child-moving section, one per level-k vertex, so
    the fixed set at level k+1 is demonstrably empty.  Membership is
    checked at level k + 2.

    Such a word exists iff |G/St(k+1)| > |G/St(k)|, which is checked first,
    so the unbounded ball search below always ends.
    """
    if quotient_order(preset, k + 1) == quotient_order(preset, k):
        raise CertificateBuildError(0, f"no level-{k} stabilizer moves level {k + 1}")
    n = k + 2
    delta = SubgroupHandle(q.generators, membership_level=n, label="delta")
    pulled = pullback_subgroup(delta, k, n, preset, budget=budget)
    gens = list(pulled.handle.generators)

    for w in enumerate_reduced_words(preset):
        if w.factors and w.fixes_level(k):
            moved = first_moved_vertex((w,), k + 1)
            if moved is not None:
                base, base_support = w, moved[:-1]
                break
    transporters = orbit_transversal(preset, base_support)
    for v in level_vertices(preset.degree, k):
        m = transporters.get(v)
        if m is None:
            raise CertificateBuildError(0, f"level {k} is not transitive; cannot cover {v}")
        gens.append(base.conjugate_by(m))
    return SubgroupHandle(tuple(gens), membership_level=n, label=f"trap-k{k}")


# -- finite subgroups and certificates ------------------------------------


# Elements are bucketed by their image at this level before the word
# problem decides equality within a bucket.
_CLOSURE_LEVEL = 4


def finite_subgroup_elements(q: SubgroupHandle, cap: int = 256) -> list[Word]:
    """All elements of a finite subgroup, one word each, sorted by factors.

    Closes the generating set under multiplication breadth first.  Reduced
    words are not a normal form, so a product is new only if the word
    problem separates it from every known element with the same level
    image; the first word found for an element is kept.  Raises if the
    closure exceeds the cap (infinite subgroup).
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
                if len(elems) >= cap:
                    raise ValueError(f"subgroup closure exceeds cap {cap}; not finite?")
                bucket.append(p)
                elems.append(p)
                nxt.append(p)
        frontier = nxt
    return sorted(elems, key=lambda w: w.factors)


def _orbit_vertices(q_elems: list[Word], v: Vertex) -> set[Vertex]:
    return {q.apply(v) for q in q_elems}


@dataclass(frozen=True)
class CertificateStage:
    k: int
    v: Vertex
    w: Word
    u: Vertex


@dataclass
class WMCertificate:
    """Staged construction data, replayable by validate_certificate.

    The v1 format still carries a `seed` key for byte compatibility: it is
    written as 0 and ignored on read, since no computation reads it.
    """

    preset_fingerprint: str
    q_generators: tuple[Word, ...]
    stages: tuple[CertificateStage, ...]
    avoid: tuple[SubgroupHandle, ...]
    verification_level: int
    budgets: dict

    def to_dict(self) -> dict:
        return {
            "format": "wm-certificate-v1",
            "preset_fingerprint": self.preset_fingerprint,
            "q_generators": [str(w) for w in self.q_generators],
            "stages": [
                {
                    "k": s.k,
                    "v": format_vertex(s.v),
                    "w": str(s.w),
                    "u": format_vertex(s.u),
                }
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
        stages = tuple(
            CertificateStage(
                k=int(s["k"]),
                v=parse_vertex(s["v"], preset.degree),
                w=Word.from_str(preset, s["w"]),
                u=parse_vertex(s["u"], preset.degree),
            )
            for s in data["stages"]
        )
        avoid = tuple(
            SubgroupHandle(
                tuple(Word.from_str(preset, t) for t in h["generators"]),
                membership_level=h["membership_level"],
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

    @classmethod
    def from_json(cls, text: str, preset: GroupPreset) -> "WMCertificate":
        return cls.from_dict(json.loads(text), preset)


def parabolic_approximation(
    preset: GroupPreset, v: Vertex, membership_level: int
) -> SubgroupHandle:
    """Vertex-stabilizer approximation of the parabolic subgroup along the
    leftmost ray through v: the stabilizer of v extended by zeros.

    The handle records that vertex, so membership at its level is decided
    by the predicate w(x) = x; its generators are the Schreier words of
    `point_stabilizer_words`, which generate exactly that stabilizer there.
    """
    if membership_level < len(v):
        raise ValueError("membership level must be at least the vertex level")
    extended = v + (0,) * (membership_level - len(v))
    gens = point_stabilizer_words(extended, membership_level, preset)
    return SubgroupHandle(
        tuple(gens),
        membership_level=membership_level,
        label=f"stab-{format_vertex(v)}",
        vertex=extended,
    )


# The deepest level tried for k1, and for a later stage's level.
_MAX_K1 = 8
_MAX_STAGE_LEVEL = 10
# Rist candidates tested against an avoid subgroup at a stage vertex.
_CANDIDATES_PER_VERTEX = 4


def _splits(q_elems: list[Word], verts: list[Vertex]) -> bool:
    """Whether Q is not transitive on verts: the orbit of the first misses one."""
    return len(_orbit_vertices(q_elems, verts[0]) & set(verts)) < len(verts)


def _choose_k1(q_elems: list[Word], preset: GroupPreset) -> int | None:
    """Least level where Q meets the level stabilizer trivially and is not
    transitive."""
    nontrivial = [q for q in q_elems if q.factors]
    if not nontrivial:
        return None
    for k in range(1, _MAX_K1 + 1):
        if not any(q.fixes_level(k) for q in nontrivial):
            if _splits(q_elems, level_vertices(preset.degree, k)):
                return k
    return None


def _stage_skeleton(
    q_elems: list[Word], seeds: list[Vertex], preset: GroupPreset
) -> list[tuple[int, Vertex, Vertex]]:
    """The (k_i, v_i, u_i) of every stage, from Q and the seed vertices alone.

    k_1 is `_choose_k1`; each later k_i is the least deeper level where Q
    does not act transitively on the vertices below Q(u_{i-1}).  v_i is the
    level-k_i prefix of seed i extended by zeros, and u_i the least level-k_i
    vertex below Q(u_{i-1}) and outside Q(v_i).
    """
    k1 = _choose_k1(q_elems, preset)
    if k1 is None:
        raise CertificateBuildError(
            0, "Q is trivial or never satisfies the level-selection conditions"
        )

    def below(level: int, tops) -> list[Vertex]:
        verts = level_vertices(preset.degree, level)
        return verts if tops is None else [x for x in verts if any(vertex_leq(x, t) for t in tops)]

    skeleton: list[tuple[int, Vertex, Vertex]] = []
    tops = None  # Q(u_{i-1}); nothing restricts stage 1
    for i, seed in enumerate(seeds, start=1):
        k = k1
        if tops is not None:
            deeper = range(skeleton[-1][0] + 1, _MAX_STAGE_LEVEL + 1)
            k = next((lvl for lvl in deeper if _splits(q_elems, below(lvl, tops))), None)
            if k is None:
                raise CertificateBuildError(i, "no suitable next level found")
        v = (seed + (0,) * k)[:k]
        v_orbit = _orbit_vertices(q_elems, v)
        candidates_u = [x for x in below(k, tops) if x not in v_orbit]
        if not candidates_u:
            raise CertificateBuildError(i, "no admissible nested vertex u_i")
        skeleton.append((k, v, candidates_u[0]))
        tops = _orbit_vertices(q_elems, candidates_u[0])
    return skeleton


def build_certificate(
    q: SubgroupHandle,
    seeds: list[Vertex],
    preset: GroupPreset,
    rist_budget: int = DEFAULT_SEARCH_BUDGET,
    verification_level: int | None = None,
) -> WMCertificate:
    """Run the staged construction for Q against the rays through the seeds.

    The stage levels and vertices come first, from `_stage_skeleton`.  The
    level n, unless given, is two under the deepest stage, at least 4 and at
    least the longest seed; W_i is the level-n stabilizer of seed i extended
    by zeros, x_i, as `parabolic_approximation` builds it.  An element of
    Rist(v) fixes every vertex outside the subtree at v, so only v_i, the
    level-k_i prefix of x_i, can carry an element escaping W_i: stage i
    tries the first `_CANDIDATES_PER_VERTEX` elements of Rist(v_i) and keeps
    the first that moves x_i (an exact refutation).
    """
    skeleton = _stage_skeleton(finite_subgroup_elements(q), seeds, preset)
    if verification_level is None:
        verification_level = max([4] + [k + 2 for k, _, _ in skeleton] + [len(s) for s in seeds])
    avoid = [parabolic_approximation(preset, s, verification_level) for s in seeds]
    stages: list[CertificateStage] = []
    for i, ((k, v, u), w_avoid) in enumerate(zip(skeleton, avoid), start=1):
        if verification_level <= k:
            raise CertificateBuildError(
                i, f"avoid subgroup {i} membership level must exceed stage level {k}"
            )
        candidates = islice(iter_rist_elements(v, preset, rist_budget), _CANDIDATES_PER_VERTEX)
        w = next((g for g in candidates if not w_avoid.contains_at_level(g)), None)
        if w is None:
            raise CertificateBuildError(
                i, f"no rigid-stabilizer element escaping avoid subgroup {i} at level {k}"
            )
        stages.append(CertificateStage(k=k, v=v, w=w, u=u))
    return WMCertificate(
        preset_fingerprint=preset.fingerprint(),
        q_generators=q.generators,
        stages=tuple(stages),
        avoid=tuple(avoid),
        verification_level=verification_level,
        budgets={
            "rist_budget": rist_budget,
            "candidates_per_vertex": _CANDIDATES_PER_VERTEX,
        },
    )


# -- certificate validation -----------------------------------------------


def _normal_closure(seed: list[Perm], group_gens: list[Perm], npoints: int) -> StabChain:
    """The normal closure of seed inside <group_gens>."""
    ncl = StabChain(npoints, seed)
    frontier = list(ncl.gens)
    conjugators = [(h, perm_inverse(h)) for h in group_gens]
    while frontier:
        nxt = []
        for h, h_inv in conjugators:
            for g in frontier:
                c = compose(h, compose(g, h_inv))
                if ncl.add(c):
                    nxt.append(c)
        frontier = nxt
    return ncl


@dataclass
class ClauseResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class CertificateReport:
    clauses: list[ClauseResult]
    verification_level: int

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
    Clause 2 (normal-closure equality) is checked inside the level-m
    quotient, m = max(n, k1) for the verification level n, and is stamped
    with n.  The order of H meet Stab(k1) there is |H_m| / |H_k1|, two image
    orders; the normal closure lies inside it iff every w_i fixes level k1,
    which is checked exactly, so equal orders mean equal groups.
    Clause 3 (nesting and subtree fixing) is exact to the verification depth;
    the subtree check reads one fixed-tree walk per stage.  A verification
    level past the level cap raises LevelCapExceeded before any clause.
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
    add("levels-increase", ks == sorted(ks) and len(set(ks)) == len(ks), f"k = {ks}")
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
        nontrivial = [q for q in q_elems if q.factors]
        add(
            "q-meets-stabilizer-trivially",
            all(not q.fixes_level(k1) for q in nontrivial),
            f"checked at k1 = {k1}",
        )

    for i, s in enumerate(cert.stages, start=1):
        add(
            f"stage-{i}-rigid-stabilizer",
            in_rigid_stabilizer(s.w, s.v),
            f"w_{i} in Rist({format_vertex(s.v)})",
        )

    for i, (s, w_avoid) in enumerate(zip(cert.stages, cert.avoid), start=1):
        lvl = w_avoid.membership_level
        escaped = not w_avoid.contains_at_level(s.w)
        add(
            f"stage-{i}-avoidance",
            escaped,
            f"w_{i} image not in W_{i} at level {lvl} (exact refutation)"
            if escaped
            else f"w_{i} image lies in W_{i} at level {lvl}",
        )

    # Clause (3): nesting of the u_i and exact subtree fixing to depth n.
    for i, s in enumerate(cert.stages, start=1):
        if i == 1:
            add(
                "stage-1-u-outside-Qv",
                s.u not in _orbit_vertices(q_elems, s.v),
                f"u_1 = {format_vertex(s.u)}",
            )
            continue
        prev = cert.stages[i - 2]
        nested = any(
            vertex_leq(s.u, qu) for qu in _orbit_vertices(q_elems, prev.u)
        ) and s.u not in _orbit_vertices(q_elems, s.v)
        add(f"stage-{i}-u-nested", nested, f"u_{i} = {format_vertex(s.u)}")
    for i, s in enumerate(cert.stages, start=1):
        closure_gens = [
            qe * cert.stages[j].w * qe.inverse()
            for j in range(i)
            for qe in q_elems
        ]
        depth = max(n - len(s.u), 1)
        orbit = sorted(_orbit_vertices(q_elems, s.u))
        moved = first_moved_vertex(closure_gens, len(s.u) + depth, orbit)
        detail = f"Q-conjugates of w_1..w_{i} fix below Q({format_vertex(s.u)}) to depth {n}"
        if moved is not None:
            g = next(g for g in closure_gens if g.apply(moved) != moved)
            detail = f"{g} moves {format_vertex(moved)}"
        add(f"stage-{i}-subtrees-fixed", moved is None, detail)

    # Clause (2): normal-closure equality inside the level-m quotient.
    if cert.stages:
        k1 = cert.stages[0].k
        m = max(n, k1)
        h_words = list(cert.q_generators) + [s.w for s in cert.stages]
        h_m = image_subgroup(h_words, m)
        kernel_order = h_m.order() // image_subgroup(h_words, k1).order()
        w_perms = [word_perm(s.w, m) for s in cert.stages]
        ncl_group = _normal_closure(w_perms, h_m.gens, preset.degree**m)
        inside = all(s.w.fixes_level(k1) for s in cert.stages)
        add(
            "normal-closure-equality",
            inside and ncl_group.order() == kernel_order,
            f"verified at level {n}: |ncl| = {ncl_group.order()}, "
            f"|H meet Stab({k1})| = {kernel_order}",
        )
    return CertificateReport(clauses=clauses, verification_level=n)


# -- non-conjugacy and conjugate counting ---------------------------------


def fix_separation_witness(
    h_i: SubgroupHandle, h_j: SubgroupHandle, depth: int
) -> int | None:
    """A level t <= depth where exactly one subgroup has a fixed vertex.

    Conjugation maps level-t fixed sets bijectively, so such a level
    certifies non-conjugacy.  None means inconclusive.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    walks = zip(fixed_levels(h_i.words, depth), fixed_levels(h_j.words, depth))
    for t, (fixed_i, fixed_j) in enumerate(walks):
        if bool(fixed_i) != bool(fixed_j):
            return t
    return None


@dataclass
class ConjugateBound:
    count: int
    gamma: Word | None
    conjugator: Word | None
    witness_orders: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "gamma": str(self.gamma) if self.gamma else None,
            "conjugator": str(self.conjugator) if self.conjugator is not None else None,
            "witness_orders": [int(x) for x in self.witness_orders],
        }


def _prime_power(m: int) -> tuple[int, int] | None:
    if m < 2:
        return None
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (m, 1)


_CONJBOUND_ORDER_BUDGET = 20000  # order recursion nodes per candidate gamma


def conjugate_count_lower_bound(
    h: SubgroupHandle, n: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> ConjugateBound:
    """Count distinct level-n conjugates of h's image by powers of an
    escaping prime-power element.

    Searches words gamma of prime-power order whose conjugate (by an
    escaping conjugator where necessary) lies outside h's image, then
    compares the images of f gamma^i f^-1 . h . f gamma^-i f^-1 pairwise.
    Budget exhaustion returns the trivial bound 1.
    """
    preset = h.preset
    base_img = h.image(n)
    gammas = (g for g in enumerate_reduced_words(preset) if g.factors)
    for gamma in islice(gammas, budget):
        try:
            m = gamma.order(_CONJBOUND_ORDER_BUDGET)
        except (BudgetExhausted, InfiniteOrder):
            continue
        pp = _prime_power(m)
        if pp is None:
            continue
        if base_img.contains(word_perm(gamma, n)):
            f = conjugate_escaping(h, gamma, n, budget=200)
            if f is None:
                continue
        else:
            f = Word.identity(preset)
        g = gamma.conjugate_by(f)
        images: list[StabChain] = []
        for i in range(m):
            conj = h.conjugated(g**i)
            img = conj.image(n)
            if not any(img.equals(other) for other in images):
                images.append(img)
        if len(images) >= 2:
            return ConjugateBound(
                count=len(images),
                gamma=gamma,
                conjugator=f,
                witness_orders=[int(im.order()) for im in images],
            )
    return ConjugateBound(count=1, gamma=None, conjugator=None)
