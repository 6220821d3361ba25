import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups import subgroups
from branchgroups.construction import _avoided_vertex, parabolic_approximation
from branchgroups.presets import (
    builtin_preset, ggs_preset, grigorchuk_preset, gupta_sidki_preset, preset_from_dict,
)
from branchgroups.quotients import LEVEL_CAP, LevelCapExceeded, conjugate_images, word_perm
from branchgroups.subgroups import (
    NotInLevelStabilizerError,
    SubgroupHandle,
    conjugate_escaping,
    enumerate_reduced_words,
    fixed_levels,
    fixed_tree,
    in_rigid_stabilizer,
    index_growth_profile,
    minimal_non_fixing_level,
    psi_sections,
    rist_support,
)
from branchgroups.tree import level_vertices
from branchgroups.words import BudgetExhausted, Word

from conftest import RANDOM_DEGREE_3, random_word


def H(preset, texts, level=None):
    return SubgroupHandle.from_strings(preset, texts, membership_level=level)


def test_fixed_vertices_match_generators(grig, rng):
    for _ in range(10):
        gens = [random_word(grig, rng, 8) for _ in range(2)]
        h = SubgroupHandle(tuple(gens))
        for n in (1, 2, 3):
            expect = {
                v
                for v in level_vertices(2, n)
                if all(g.apply(v) == v for g in gens)
            }
            assert set(h.fixed_points(n)) == expect


def test_fixed_tree_prefix_closed(grig):
    ft = fixed_tree(H(grig, ["d"]), 3)
    assert () in ft.vertices
    for v in ft.vertices:
        if v:
            assert v[:-1] in ft.vertices
    # d fixes everything under 0 and the vertex 1 itself
    assert (0, 0, 0) in ft.vertices
    assert (1,) in ft.vertices
    assert (1, 1, 0) in ft.vertices


def test_minimal_non_fixing_level(grig):
    assert minimal_non_fixing_level(H(grig, ["a"])) == 1
    assert minimal_non_fixing_level(H(grig, ["d"])) is None
    assert minimal_non_fixing_level(H(grig, ["b", "c", "d"])) is None


@pytest.mark.parametrize(
    "name, gens, level",
    [
        ("grig", ["a", "c"], 1),
        ("grig", ["a", "d"], 1),
        ("grig", ["a b a b"], 2),
        ("gs", ["a"], 1),
        ("gs", ["b", "a^2 b a"], 2),
        ("grig", ["b", "c"], None),
        ("gs", ["b"], None),
        ("hanoi", ["a"], None),
    ],
)
def test_minimal_non_fixing_level_pinned(request, name, gens, level):
    assert minimal_non_fixing_level(H(request.getfixturevalue(name), gens)) == level


# Fixed rays past the cap: <c^-1 a b c b a>'s whole levels first repeat
# their set of states at level 12, but vertex 11011 already has the state of
# its ancestor 11; <a c b^3> fixes the ray 20 21 21 ...; <b^3 a b> has a
# child that repeats a state on its path, seen before the walk descends.
@pytest.mark.parametrize("gens", [["c^-1 a b c b a"], ["a c b^3"], ["b^3 a b"]])
def test_minimal_non_fixing_level_finds_a_repeated_state_on_a_path(gens):
    assert minimal_non_fixing_level(H(preset_from_dict(RANDOM_DEGREE_3), gens)) is None


# The state walk against the vertex walk: each decided answer leaves the
# fixed tree nonempty exactly below it, to the oracle depth.  Only the
# non-contracting RANDOM_DEGREE_3 may stay undecided, and only with every
# level to the cap nonempty: there a path's sections can grow past the cap
# without repeating a state.
ORACLE_PRESETS = ("grigorchuk", "gupta-sidki", "ggs:3:1,0", "ggs:4:1,0,0", "ggs:5:1,0,0,1")


def test_minimal_non_fixing_level_matches_fixed_levels(hanoi):
    presets = [(builtin_preset(name), False) for name in ORACLE_PRESETS]
    presets += [(hanoi, False), (preset_from_dict(RANDOM_DEGREE_3), True)]
    rng = random.Random(20261019)
    for preset, may_stay_undecided in presets:
        depth = 7 if preset.degree <= 3 else 5
        letters = [(g, e) for g in preset.gen_names for e in (1, -1)]
        for _ in range(150):
            gens = [
                Word(preset, [rng.choice(letters) for _ in range(rng.randint(1, 8))])
                for _ in range(rng.randint(1, 3))
            ]
            try:
                t = minimal_non_fixing_level(SubgroupHandle(tuple(gens)))
            except BudgetExhausted:
                assert may_stay_undecided and all(fixed_levels(gens, LEVEL_CAP)), gens
                continue
            nonempty = [bool(level) for level in fixed_levels(gens, depth)]
            nonempty += [False] * (depth + 1 - len(nonempty))
            assert nonempty == [t is None or s < t for s in range(depth + 1)], (preset, gens)


def test_psi_sections(grig):
    secs = psi_sections(Word.from_str(grig, "b"), 1)
    assert [str(s) for s in secs] == ["a", "c"]
    secs = psi_sections(Word.from_str(grig, "abab"), 1)
    assert [str(s) for s in secs] == ["c a", "a c"]
    with pytest.raises(NotInLevelStabilizerError):
        psi_sections(Word.from_str(grig, "a"), 1)


def test_psi_sections_deeper(grig):
    secs = psi_sections(Word.from_str(grig, "d"), 2)
    assert [str(s) for s in secs] == ["1", "1", "a", "c"]


def test_first_moved_vertex_matches_the_definition(grig, gs, hanoi, rng, monkeypatch):
    # Squares and commutators fix the top levels, so the first moved vertex
    # often lies deep and to the right of an early moved one; a Hanoi
    # transposition fixes child 0 and moves the others.
    lists = [[Word.from_str(hanoi, "c")]]
    for preset in (grig, gs, hanoi):
        for _ in range(12):
            w, s = random_word(preset, rng, 6), Word.generator(preset, rng.choice(preset.gen_names))
            lists.append([w, w * w, w * s * w.inverse() * s.inverse()][rng.randrange(3):][:2])
    cases = []
    for words, n in itertools.product(lists, range(5)):
        verts = level_vertices(words[0].preset.degree, n)
        cases.append((words, n, next((v for v in verts if any(g.apply(v) != v for g in words)), None)))

    def no_listing(*args):
        raise AssertionError("first_moved_vertex listed a whole level")

    monkeypatch.setattr(subgroups, "level_vertices", no_listing)
    assert [subgroups.first_moved_vertex(words, n) for words, n, _ in cases] == [v for *_, v in cases]
    assert any(v is not None and v[-1] for *_, v in cases)  # not only padded children
    assert any(v is not None and v[0] for *_, v in cases)
    with pytest.raises(NotInLevelStabilizerError, match="vertex 00000000"):
        psi_sections(Word.from_str(ggs_preset(5, (1, 2, 0, 0)), "a"), 8)


def test_in_rigid_stabilizer(grig):
    d = Word.from_str(grig, "d")
    assert in_rigid_stabilizer(d, (1,))
    assert not in_rigid_stabilizer(d, (0,))
    assert not in_rigid_stabilizer(Word.from_str(grig, "a"), (0,))
    assert not in_rigid_stabilizer(Word.from_str(grig, "b"), (1,))
    # identity is in every rigid stabilizer by the predicate
    assert in_rigid_stabilizer(Word.identity(grig), (0, 1))


def test_rigid_stabilizer_predicates_enumerate_no_level(grig, monkeypatch):
    # Both read the word's nonempty sections, never the d^k level vertices.
    def no_enumeration(d, n):
        raise AssertionError(f"level {n} enumerated")

    monkeypatch.setattr(subgroups, "level_vertices", no_enumeration)
    deep = (0,) * 30
    trivial, d = Word.from_str(grig, "a a"), Word.from_str(grig, "d")
    assert in_rigid_stabilizer(trivial, deep)
    assert rist_support(trivial, 30) is None
    assert not in_rigid_stabilizer(d, deep)
    assert rist_support(d, 30) is None
    assert in_rigid_stabilizer(d, (1,))
    assert rist_support(d, 1) == (1,)


def test_index_growth_profile(grig):
    # [DERIVED] oracle: full quotient orders over <a>-image orders
    assert index_growth_profile(H(grig, ["a"]), 3) == [1, 4, 64]
    assert index_growth_profile(H(grig, [g for g in "abcd"]), 4) == [1, 1, 1, 1]


def test_contains_at_level(grig):
    h = H(grig, ["b", "c", "d"], level=3)
    assert h.contains_at_level(Word.from_str(grig, "b c"))
    assert not h.contains_at_level(Word.from_str(grig, "a"))


def test_conjugated_handle(grig):
    h = H(grig, ["b"], level=3)
    g = Word.from_str(grig, "a")
    hc = h.conjugated(g)
    assert [str(w) for w in hc.generators] == ["a b a"]
    assert hc.membership_level == 3


def test_enumerate_reduced_words_deterministic(grig, gs):
    first = [str(w) for w in _take(enumerate_reduced_words(grig), 10)]
    again = [str(w) for w in _take(enumerate_reduced_words(grig), 10)]
    assert first == again
    assert first[0] == "1"
    assert set(first[1:5]) == {"a", "b", "c", "d"}
    gs_first = [str(w) for w in _take(enumerate_reduced_words(gs), 6)]
    assert gs_first[0] == "1"
    assert "a" in gs_first and "b" in gs_first


def test_enumerate_reduced_words_canonical_and_distinct(grig):
    words = _take(enumerate_reduced_words(grig), 200)
    forms = [w.factors for w in words]
    assert len(set(forms)) == len(forms)
    for w in words:
        assert grig.reduce(w.factors) == w.factors


def _take(it, n):
    out = []
    for w in it:
        out.append(w)
        if len(out) >= n:
            break
    return out


def test_conjugate_escaping_parabolic(grig):
    words = _parabolic_words(grig, "0", 3)
    h = SubgroupHandle(tuple(words), membership_level=3)
    gamma = Word.from_str(grig, "a")
    f, _ = conjugate_escaping(h, gamma, 3)
    assert f is not None
    conj = gamma.conjugate_by(f)
    assert not h.image(3).contains(word_perm(conj, 3))


def test_conjugate_escaping_full_group_exhausts(grig):
    h = H(grig, [g for g in "abcd"], level=2)
    assert conjugate_escaping(h, Word.from_str(grig, "a"), 2, budget=50) == (None, 1)


def test_conjugate_escaping_refuses_before_the_walk(grig, monkeypatch):
    # A membership level above the check level, and a gamma in every
    # level-n conjugate: d = (1, b) fixes level 2, as b fixes level 1.
    monkeypatch.setattr(subgroups, "conjugate_images", lambda *args: pytest.fail("walked"))
    deep = SubgroupHandle.from_strings(grig, ["a"], membership_level=4)
    with pytest.raises(ValueError, match="membership level exceeds the check level"):
        conjugate_escaping(deep, Word.from_str(grig, "b"), 3)
    with pytest.raises(ValueError, match="gamma acts trivially on level 2"):
        conjugate_escaping(H(grig, ["a"]), Word.from_str(grig, "d"), 2)


@pytest.mark.parametrize(
    "make, gens, n",
    [
        (grigorchuk_preset, ["a"], 4),
        (grigorchuk_preset, ["b", "a c a"], 3),
        (gupta_sidki_preset, ["a"], 3),
        (lambda: preset_from_dict(RANDOM_DEGREE_3), ["a"], 2),
    ],
)
def test_conjugate_images_closed_under_generators(make, gens, n):
    # A walk that stops short of its budget has met every conjugate again.
    preset = make()
    h = H(preset, gens)
    walked = list(conjugate_images(h.words, n, budget=500))
    assert 1 < len(walked) < 500
    images = [img for _, img in walked]
    for c, _ in walked:
        for g in preset.gen_names:
            img = h.conjugated(Word.generator(preset, g) * c).image(n)
            assert any(img.equals(other) for other in images)


def test_conjugate_images_stop_at_the_budget(grig):
    walked = list(conjugate_images(H(grig, ["a"]).words, 4, budget=5))
    assert [str(c) or "1" for c, _ in walked] == ["1", "b", "c", "d", "a b"]


def _parabolic_words(preset, vstr, n):
    from branchgroups.quotients import point_stabilizer_words

    v = tuple(int(c) for c in vstr) + (0,) * (n - len(vstr))
    return point_stabilizer_words(preset, v)


# -- membership by vertex predicate and by fixed points ---------------------


def _parabolic_handles():
    grig, gs = grigorchuk_preset(), gupta_sidki_preset()
    return [
        parabolic_approximation(grig, (0, 1), 4),
        parabolic_approximation(grig, (1,), 5),
        parabolic_approximation(gs, (2,), 3),
    ]


PARABOLIC_HANDLES = _parabolic_handles()


@st.composite
def handle_and_word(draw, handles):
    """A handle and a word: a random word, or a random product of the
    handle's generators times a random word of at most `tail` letters."""
    h = draw(st.sampled_from(handles))
    preset = h.preset
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-2, 2))
    w = Word(preset, draw(st.lists(factor, max_size=draw(st.sampled_from((0, 1, 12))))))
    for i in draw(st.lists(st.integers(0, len(h.generators) - 1), max_size=4)):
        w = h.generators[i] * w
    return h, w


@settings(max_examples=200, deadline=None)
@given(handle_and_word(PARABOLIC_HANDLES))
def test_vertex_predicate_matches_chain(case):
    # The predicate w(x) = x agrees with the generic sift: the Schreier
    # listing generates the whole level-n stabilizer of x.
    h, w = case
    n = h.membership_level
    x = _avoided_vertex(h, h.preset.degree)
    assert len(x) == n
    expected = h.image(n).contains(word_perm(w, n))
    assert h.contains_at_level(w) == expected
    assert (w.apply(x) == x) == expected


def test_conjugated_handle_maps_its_vertex(grig, rng):
    # The conjugate by g of the stabilizer of x is the stabilizer of g(x).
    h = parabolic_approximation(grig, (0, 1), 3)
    x = _avoided_vertex(h, 2)
    for _ in range(5):
        g = random_word(grig, rng, 6)
        conj, gx = h.conjugated(g), g.apply(x)
        for _ in range(10):
            w = random_word(grig, rng, 10)
            assert conj.contains_at_level(w) == (w.apply(gx) == gx)


def _random_generated_handles():
    rng = random.Random(4)
    handles = []
    for preset in (grigorchuk_preset(), gupta_sidki_preset()):
        for n in (1, 2, 3, 4):
            for count in (1, 2, 3):
                gens = tuple(random_word(preset, rng, 10) for _ in range(count))
                handles.append(SubgroupHandle(gens, membership_level=n))
    return handles


GENERATED_HANDLES = _random_generated_handles()


@settings(max_examples=300, deadline=None)
@given(handle_and_word(GENERATED_HANDLES))
def test_fixed_point_refutation_never_refutes_a_member(case):
    h, w = case
    n = h.membership_level
    perm = word_perm(w, n)
    member = h.image(n).contains(perm)
    if member:
        assert all(w.apply(v) == v for v in h.fixed_points(n))
    assert h.contains_at_level(w) == member


def test_contains_at_level_caps_the_level_before_walking(grig):
    h = H(grig, ["a"], level=11)
    with pytest.raises(LevelCapExceeded):
        h.contains_at_level(Word.from_str(grig, "b"))


# -- the fixed-tree walk ---------------------------------------------------


WALK_PRESETS = (grigorchuk_preset(), gupta_sidki_preset(), ggs_preset(5, (1, 0, 0, 1)))


@st.composite
def walk_handle(draw):
    """Generators over a shipped preset, often level stabilizers (squares
    and commutators of letters), so that deep levels keep fixed vertices."""
    preset = draw(st.sampled_from(WALK_PRESETS))
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-2, 2))
    words = []
    for _ in range(draw(st.integers(1, 3))):
        w = Word(preset, draw(st.lists(factor, max_size=8)))
        shape = draw(st.sampled_from(("plain", "square", "commutator")))
        if shape == "square":
            w = w * w
        elif shape == "commutator":
            s = Word.generator(preset, draw(st.sampled_from(preset.gen_names)))
            w = w * s * w.inverse() * s.inverse()
        words.append(w)
    return SubgroupHandle(tuple(words))


@settings(max_examples=150, deadline=None)
@given(walk_handle())
def test_fixed_levels_match_vertex_action(h):
    d = h.preset.degree
    levels = list(fixed_levels(h.generators, 4))
    for t in range(5):
        expected = [
            v for v in level_vertices(d, t) if all(g.apply(v) == v for g in h.generators)
        ]
        got = levels[t] if t < len(levels) else []
        assert got == expected
    # The walk stops right after its first empty level.
    assert all(levels[:-1]) and (len(levels) == 5 or not levels[-1])
    assert h.fixed_points(4) == (levels[4] if len(levels) == 5 else [])


def test_conjugate_images_conjugate_permutations_not_words(grig, gs, monkeypatch):
    # Each candidate is h's level image conjugated by the conjugator's
    # permutation; no handle of conjugated words is built.
    calls = []
    monkeypatch.setattr(SubgroupHandle, "conjugated", lambda *args: calls.append(args))
    for preset, gens, n in ((grig, ["a"], 4), (gs, ["a"], 3), (preset_from_dict(RANDOM_DEGREE_3), ["a"], 2)):
        assert sum(1 for _ in conjugate_images(H(preset, gens).words, n, budget=20)) > 1
    assert conjugate_escaping(H(grig, ["b", "a"]), Word.from_str(grig, "b"), 4)[1] == 3
    assert calls == []
