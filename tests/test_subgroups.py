import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.construction import parabolic_approximation
from branchgroups.presets import ggs_preset, grigorchuk_preset, gupta_sidki_preset
from branchgroups.quotients import LevelCapExceeded, word_perm
from branchgroups.subgroups import (
    NotInLevelStabilizerError,
    SubgroupHandle,
    conjugate_escaping,
    enumerate_reduced_words,
    fixed_levels,
    fixed_tree,
    fixed_vertices,
    in_rigid_stabilizer,
    index_growth_profile,
    minimal_non_fixing_level,
    psi_sections,
)
from branchgroups.tree import level_vertices
from branchgroups.words import Word

from conftest import random_word


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
            assert fixed_vertices(h, n) == expect


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
    assert minimal_non_fixing_level(H(grig, ["a"]), 5) == 1
    assert minimal_non_fixing_level(H(grig, ["d"]), 6) is None
    assert minimal_non_fixing_level(H(grig, ["b", "c", "d"]), 6) is None


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


def test_in_rigid_stabilizer(grig):
    d = Word.from_str(grig, "d")
    assert in_rigid_stabilizer(d, (1,))
    assert not in_rigid_stabilizer(d, (0,))
    assert not in_rigid_stabilizer(Word.from_str(grig, "a"), (0,))
    assert not in_rigid_stabilizer(Word.from_str(grig, "b"), (1,))
    # identity is in every rigid stabilizer by the predicate
    assert in_rigid_stabilizer(Word.identity(grig), (0, 1))


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
    f = conjugate_escaping(h, gamma, 3)
    assert f is not None
    conj = gamma.conjugate_by(f)
    assert not h.image(3).contains(word_perm(conj, 3))


def test_conjugate_escaping_full_group_exhausts(grig):
    h = H(grig, [g for g in "abcd"], level=2)
    assert conjugate_escaping(h, Word.from_str(grig, "a"), 2, budget=50) is None


def _parabolic_words(preset, vstr, n):
    from branchgroups.quotients import point_stabilizer_words

    v = tuple(int(c) for c in vstr) + (0,) * (n - len(vstr))
    return point_stabilizer_words(v, n, preset)


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
    h, w = case
    n = h.membership_level
    assert h.vertex is not None and len(h.vertex) == n
    expected = h.image(n).contains(word_perm(w, n))
    assert h.contains_at_level(w) == expected
    assert (w.apply(h.vertex) == h.vertex) == expected


def test_conjugated_handle_maps_its_vertex(grig, rng):
    h = parabolic_approximation(grig, (0, 1), 3)
    for _ in range(5):
        g = random_word(grig, rng, 6)
        conj = h.conjugated(g)
        assert conj.vertex == g.apply(h.vertex)
        for _ in range(10):
            w = random_word(grig, rng, 10)
            assert conj.contains_at_level(w) == conj.image(3).contains(word_perm(w, 3))


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
    h = H(grig, ["a"])
    with pytest.raises(LevelCapExceeded):
        h.contains_at_level(Word.from_str(grig, "b"), 11)
    assert 11 not in h._fixed


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
