"""Finite-stage constructions: rigid-stabilizer elements, pullback subgroups,
level traps, staged certificates and conjugate-count bounds.

Every search here is deterministic: candidates are generated breadth-first
from the preset's branching generators by iterated commutators with
generator letters, vertices are scanned lexicographically, and all budgets
are explicit and recorded in the results, so a certificate replays to the
byte.

Certificate soundness discipline: non-membership demonstrated in a level
quotient is unconditional; equalities checked inside a quotient are
stamped with their verification level and are evidence, not proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .presets import GroupPreset
from .quotients import (
    PermSubgroup,
    Perm,
    compose,
    image_subgroup,
    orbit_transversal,
    perm_inverse,
    point_stabilizer_words,
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
from .words import BudgetExhausted, InfiniteOrder, Word


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
    for n, w in enumerate(enumerate_reduced_words(preset)):
        if n >= budget:
            return
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
    parents = []
    for pair in _rist_stream(preset, k - 1, budget):
        parents.append(pair)
        if len(parents) >= preset.degree:
            break
    tested = 0
    for g, v in parents:
        fixers = []
        for n, h in enumerate(enumerate_reduced_words(preset)):
            if n >= _DESCEND_FIXER_CAP:
                break
            if h.factors and h.apply(v) == v:
                fixers.append(h)
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
    """Classified rigid-stabilizer elements at level k, lazily and cached.

    Results already discovered are replayed from the preset's cache;
    computation resumes exactly where the previous consumer stopped, so
    different callers see the same deterministic sequence.  The cache is
    keyed by (k, budget): the sequence is a function of both, and a stream
    grown under a larger budget may hold elements a smaller one never
    reaches.
    """
    key = (k, budget)
    state = preset._rist_cache.get(key)
    if state is None:

        def source():
            found = False
            for pair in _tower_segment(preset, k, budget):
                found = True
                yield pair
            if not found:
                fallback = (
                    _scan_segment(preset, budget)
                    if k == 1
                    else _descend_segment(preset, k, budget)
                )
                for pair in fallback:
                    yield pair

        state = {"found": [], "iter": source()}
        preset._rist_cache[key] = state
    i = 0
    while True:
        while i < len(state["found"]):
            yield state["found"][i]
            i += 1
        it = state["iter"]
        if it is None:
            return
        try:
            pair = next(it)
        except StopIteration:
            state["iter"] = None
            return
        state["found"].append(pair)


def iter_rist_elements(v: Vertex, preset: GroupPreset, budget: int = 2000):
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


def rist_element_search(v: Vertex, preset: GroupPreset, budget: int = 2000) -> Word | None:
    """First nontrivial element of Rist(v) found within budget, or None."""
    for g in iter_rist_elements(v, preset, budget):
        return g
    return None


# -- pullback of a subgroup through the first-section projection ----------


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
    budget: int = 3000,
    max_generators: int = 8,
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
    for w in enumerate_reduced_words(preset):
        if tested >= budget:
            break
        tested += 1
        if not w.factors or not w.fixes_level(k):
            continue
        if delta.contains_at_level(w.section(first)):
            found.append(w)
            if len(found) >= max_generators:
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
    n: int | None = None,
    budget: int = 3000,
) -> SubgroupHandle:
    """Build a Stab(k)-subgroup with no fixed vertex at level k+1.

    Realization of the pullback construction at finite truncation: harvest
    level-k stabilizing words whose first section lies in the image of a
    subgroup containing q, then enrich with conjugates of a stabilizing
    word that carries a child-moving section, one per level-k vertex, so
    the fixed set at level k+1 is demonstrably empty.
    """
    if n is None:
        n = k + 2
    delta = SubgroupHandle(q.generators, membership_level=n, label="delta")
    pulled = pullback_subgroup(delta, k, n, preset, budget=budget)
    gens = list(pulled.handle.generators)

    base = None
    for w in enumerate_reduced_words(preset):
        if w.factors and w.fixes_level(k):
            moved = first_moved_vertex((w,), k + 1)
            if moved is not None:
                base, base_support = w, moved[:-1]
                break
    if base is None:
        raise CertificateBuildError(0, f"no level-{k} stabilizer with a moving section found")
    for v in level_vertices(preset.degree, k):
        m = transporter_word(preset, base_support, v)
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
    """Staged construction data, replayable by validate_certificate."""

    preset_fingerprint: str
    q_generators: tuple[Word, ...]
    stages: tuple[CertificateStage, ...]
    avoid: tuple[SubgroupHandle, ...]
    verification_level: int
    budgets: dict
    seed: int = 0

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
            "seed": self.seed,
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
            seed=int(data.get("seed", 0)),
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


def _choose_k1(q_elems: list[Word], preset: GroupPreset, max_level: int = 8) -> int | None:
    """Least level where Q meets the level stabilizer trivially and is not
    transitive."""
    nontrivial = [q for q in q_elems if q.factors]
    if not nontrivial:
        return None
    for k in range(1, max_level + 1):
        if any(q.fixes_level(k) for q in nontrivial):
            continue
        verts = level_vertices(preset.degree, k)
        orbit = _orbit_vertices(q_elems, verts[0])
        if len(orbit) < len(verts):
            return k
    return None


def default_level(q: SubgroupHandle, seeds: list[Vertex], preset: GroupPreset) -> int:
    """Membership and verification level for an avoid list of seed vertices.

    Stage levels start at k1 (or at the longest seed) and rise by at least
    one per stage; the deepest escape motion sits two levels under the
    deepest stage.
    """
    k1 = _choose_k1(finite_subgroup_elements(q), preset) or 0
    return max(4, max([k1] + [len(s) for s in seeds]) + len(seeds) + 1)


def build_certificate(
    q: SubgroupHandle,
    avoid: list[SubgroupHandle],
    preset: GroupPreset,
    rist_budget: int = 4000,
    candidates_per_vertex: int = 4,
    verification_level: int | None = None,
    seed: int = 0,
    max_level: int = 10,
) -> WMCertificate:
    """Run the staged construction against the avoid list.

    Stage i picks the lexicographically least vertex v_i of level k_i that
    admits a rigid-stabilizer element whose image escapes W_i at W_i's
    membership level (an exact refutation), then the least vertex u_i below
    the Q-orbit of u_{i-1} and outside the Q-orbit of v_i.
    """
    q_elems = finite_subgroup_elements(q)
    k1 = _choose_k1(q_elems, preset)
    if k1 is None:
        raise CertificateBuildError(
            0, "Q is trivial or never satisfies the level-selection conditions"
        )
    stages: list[CertificateStage] = []
    u_prev: Vertex | None = None
    k_prev = None
    for i, w_avoid in enumerate(avoid, start=1):
        if w_avoid.membership_level is None:
            raise CertificateBuildError(i, f"avoid subgroup {i} has no membership level")
        u_prev_orbit = () if u_prev is None else _orbit_vertices(q_elems, u_prev)
        if i == 1:
            k = k1
        else:
            k = None
            for cand_k in range(k_prev + 1, max_level + 1):
                slice_verts = [
                    x
                    for x in level_vertices(preset.degree, cand_k)
                    if any(vertex_leq(x, qu) for qu in u_prev_orbit)
                ]
                orbit = _orbit_vertices(q_elems, slice_verts[0])
                if len(orbit & set(slice_verts)) < len(slice_verts):
                    k = cand_k
                    break
            if k is None:
                raise CertificateBuildError(i, "no suitable next level found")
        if w_avoid.membership_level <= k:
            raise CertificateBuildError(
                i, f"avoid subgroup {i} membership level must exceed stage level {k}"
            )
        found = None
        for v in level_vertices(preset.degree, k):
            tried = 0
            for cand in iter_rist_elements(v, preset, rist_budget):
                if not w_avoid.contains_at_level(cand):
                    found = (v, cand)
                    break
                tried += 1
                if tried >= candidates_per_vertex:
                    break
            if found:
                break
        if not found:
            raise CertificateBuildError(
                i, f"no rigid-stabilizer element escaping avoid subgroup {i} at level {k}"
            )
        v_i, w_i = found
        v_orbit = _orbit_vertices(q_elems, v_i)
        candidates_u = [
            x
            for x in level_vertices(preset.degree, k)
            if x not in v_orbit
            and (u_prev is None or any(vertex_leq(x, qu) for qu in u_prev_orbit))
        ]
        if not candidates_u:
            raise CertificateBuildError(i, "no admissible nested vertex u_i")
        u_i = min(candidates_u)
        stages.append(CertificateStage(k=k, v=v_i, w=w_i, u=u_i))
        u_prev, k_prev = u_i, k
    if verification_level is None:
        verification_level = max([4] + [s.k + 2 for s in stages])
    return WMCertificate(
        preset_fingerprint=preset.fingerprint(),
        q_generators=q.generators,
        stages=tuple(stages),
        avoid=tuple(avoid),
        verification_level=verification_level,
        budgets={
            "rist_budget": rist_budget,
            "candidates_per_vertex": candidates_per_vertex,
        },
        seed=seed,
    )


# -- certificate validation -----------------------------------------------


def _normal_closure(
    seed: list[Perm], group_gens: list[Perm], level: int, npoints: int
) -> PermSubgroup:
    """The normal closure of seed inside <group_gens>."""
    identity = tuple(range(npoints))
    ncl = PermSubgroup(level, [g for g in seed if g != identity] or [identity], npoints)
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
    the subtree check reads one fixed-tree walk per stage.
    """
    clauses: list[ClauseResult] = []
    n = cert.verification_level

    def add(name, passed, detail=""):
        clauses.append(ClauseResult(name=name, passed=passed, detail=detail))

    if cert.preset_fingerprint != preset.fingerprint():
        add("preset-fingerprint", False, "certificate was built for a different preset")
        return CertificateReport(clauses=clauses, verification_level=n)
    add("preset-fingerprint", True, preset.fingerprint())

    ks = [s.k for s in cert.stages]
    add("levels-increase", ks == sorted(ks) and len(set(ks)) == len(ks), f"k = {ks}")

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
        # The certificate sets its own level; the default cap does not apply.
        h_m = image_subgroup(h_words, m, level_cap=m)
        kernel_order = h_m.order() // image_subgroup(h_words, k1, level_cap=m).order()
        w_perms = [word_perm(s.w, m) for s in cert.stages]
        ncl_group = _normal_closure(w_perms, h_m.gens, m, preset.degree**m)
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


def conjugate_count_lower_bound(
    h: SubgroupHandle, n: int, budget: int = 300, order_budget: int = 20000
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
    tried = 0
    for gamma in enumerate_reduced_words(preset):
        if tried >= budget:
            break
        if not gamma.factors:
            continue
        tried += 1
        try:
            m = gamma.order(order_budget)
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
        images: list[PermSubgroup] = []
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
