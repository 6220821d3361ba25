import functools
import gc
import hashlib
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import branchgroups
from branchgroups.presets import (
    GeneratorRecursion,
    GroupPreset,
    builtin_preset,
    ggs_preset,
    grigorchuk_preset,
    gupta_sidki_preset,
    preset_from_dict,
)
from branchgroups.quotients import compose, word_perm
from branchgroups.tree import level_vertices
from branchgroups.words import (
    BudgetExhausted,
    InfiniteOrder,
    Word,
    _power_factors,
    apply_factors,
    expand_factors,
    order_factors,
    power,
    root_perm_of,
    section1,
)

from conftest import ADDING_MACHINE, CHAIN, HANOI, RANDOM_DEGREE_3, random_word


def W(preset, text):
    return Word.from_str(preset, text)


def _invert_factors(factors):
    return tuple((g, -e) for g, e in reversed(factors))


def is_code_word(preset, word):
    """Whether word is a reduced word in the preset's container whose codes
    decode to canonical letters: decoding and encoding again gives it back."""
    return preset.reduce(preset.decode(word)) == word


def unreduced(preset, factors):
    """The code word of each factor's canonical letter, concatenated without
    reduction (a trivial factor gives no letter)."""
    return functools.reduce(operator.add, (preset.reduce([f]) for f in factors), preset.reduce(()))


# -- actions on vertices ---------------------------------------------------


def test_generator_actions(grig):
    a = W(grig, "a")
    assert a.apply((0,)) == (1,)
    assert a.apply((1, 0, 1)) == (0, 0, 1)
    b = W(grig, "b")
    # b = (a, c): swaps below 0 via a, recurses below 1 via c
    assert b.apply((0, 0)) == (0, 1)
    assert b.apply((1, 0)) == (1, 0)
    # b|_11 = d, which fixes the left child
    assert b.apply((1, 1, 0)) == (1, 1, 0)
    d = W(grig, "d")
    assert d.apply((0, 1, 1)) == (0, 1, 1)
    assert d.apply((1, 1, 0, 0)) == (1, 1, 0, 1)


def test_composition_convention(grig, rng):
    # (gh)(w) = g(h(w))
    for _ in range(50):
        g = random_word(grig, rng, 8)
        h = random_word(grig, rng, 8)
        for v in level_vertices(2, 4):
            assert (g * h).apply(v) == g.apply(h.apply(v))


def test_section_rule(grig, rng):
    # (gh)_v = g_{h(v)} h_v
    for _ in range(30):
        g = random_word(grig, rng, 6)
        h = random_word(grig, rng, 6)
        for v in level_vertices(2, 2):
            lhs = (g * h).section(v)
            rhs = g.section(h.apply(v)) * h.section(v)
            assert lhs.portrait(4).to_dict() == rhs.portrait(4).to_dict()


def test_known_sections(grig):
    b = W(grig, "b")
    assert str(b.section((0,))) == "a"
    assert str(b.section((1,))) == "c"
    assert str(b.section((1, 1))) == "d"
    t = W(grig, "abab")
    assert str(t.section((0,))) == "c a"
    assert str(t.section((1,))) == "a c"


def test_inverse_and_identity(grig, rng):
    for _ in range(40):
        g = random_word(grig, rng, 12)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_word_problem_known_relations(grig):
    assert W(grig, "a a").is_identity()
    assert W(grig, "b c d").is_identity()
    assert not W(grig, "a b").is_identity()
    assert not W(grig, "b").is_identity()
    assert W(grig, "abab abab abab abab abab abab abab abab "
                   "abab abab abab abab abab abab abab abab").is_identity()


# -- orders ----------------------------------------------------------------


def test_generator_orders_frozen(grig):
    for name in "abcd":
        assert W(grig, name).order() == 2


def test_product_orders_frozen(grig):
    assert W(grig, "a b").order() == 16
    assert W(grig, "a c").order() == 8
    assert W(grig, "a d").order() == 4


def test_identity_order(grig):
    assert Word.identity(grig).order() == 1


def test_order_against_power_oracle(grig, rng):
    # ord(g) is the least m with g^m trivial; cross-check by direct powering
    for _ in range(15):
        g = random_word(grig, rng, 10)
        m = g.order()
        assert (g**m).is_identity()
        for p in (2, 3, 5, 7):
            if m % p == 0:
                assert not (g ** (m // p)).is_identity()


def test_orders_are_powers_of_two(grig, rng):
    for _ in range(30):
        g = random_word(grig, rng, 20)
        m = g.order()
        assert m & (m - 1) == 0


def test_nontorsion_raises_budget():
    # GGS with all-nonzero vector of even weight on d=3: contains elements
    # of infinite order is not guaranteed, so use a known non-contracting
    # style check: tiny budget on a deep element must raise, never hang.
    p = ggs_preset(3, (1, 1))
    with pytest.raises(BudgetExhausted):
        Word.from_str(p, "a b").order(budget=3)


def test_order_without_a_budget_reads_the_default_when_it_runs(monkeypatch):
    import branchgroups.words as words

    monkeypatch.setattr(words, "DEFAULT_ORDER_BUDGET", 3)
    with pytest.raises(BudgetExhausted) as exc:
        Word.from_str(grigorchuk_preset(), "a b").order()
    assert exc.value.budget == 3


def test_proved_infinite_order_is_not_budget_exhaustion():
    p = ggs_preset(3, (1, 0))
    with pytest.raises(InfiniteOrder):
        W(p, "a b").order(budget=None)
    with pytest.raises(InfiniteOrder):
        W(p, "a b").order()
    assert branchgroups.InfiniteOrder is InfiniteOrder


def test_order_leaves_no_reference_cycle():
    # The recursion must not keep its preset and memo tables alive as
    # cyclic garbage until a full collection runs, nor must the action rows
    # that a tuple preset (the adding machine) fills as it reduces.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        preset = grigorchuk_preset()
        ref = weakref.ref(preset)
        m = Word.from_str(preset, "a b").order()
        del preset
        assert m == 16
        assert ref() is None
        preset = preset_from_dict(ADDING_MACHINE)
        ref = weakref.ref(preset)
        text = str(Word.from_str(preset, "a^3 a^-1") * Word.from_str(preset, "a^-2 a"))
        del preset
        assert text == "a"
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_order_factors_of_reduced_words(grig):
    # a b c d reduces to a, since b c d = 1.
    w = W(grig, "a b c d")
    assert grig.decode(w.factors) == (("a", 1),)
    assert order_factors(grig, w.factors) == 2
    assert order_factors(grig, W(grig, "a b").factors) == 16


def power_then_sections_order(preset, factors, budget):
    """The order recursion before it followed root cycles: with r the order
    of the root permutation, ord(g) = r * lcm of the orders of the
    first-level sections of g^r, with its own memo table."""
    memo, path, nodes = {}, {}, [0]

    def rec(f, mult):
        if not f:
            return 1, math.inf
        if f in memo:
            return memo[f], math.inf
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExhausted("element_order", budget)
        if f in path:
            depth, entry_mult = path[f]
            if mult == entry_mult:
                return 1, depth
            raise InfiniteOrder(preset.format_factors(preset.decode(f)))
        my_depth = len(path)
        path[f] = (my_depth, mult)
        try:
            r = _perm_order(root_perm_of(preset, f))
            h = _power_factors(preset, f, r)
            result, lowest = r, math.inf
            for x in range(preset.degree if h else 0):
                val, low = rec(section1(preset, h, x), mult * r)
                result = math.lcm(result, r * val)
                lowest = min(lowest, low)
        finally:
            del path[f]
        if lowest >= my_depth:
            memo[f] = result
            return result, math.inf
        return result, lowest

    return rec(factors, 1)[0]


def order_outcome(compute):
    try:
        return compute()
    except InfiniteOrder:
        return "infinite"
    except BudgetExhausted:
        return "undecided"


ORDER_PRESETS = {
    "grigorchuk": grigorchuk_preset,
    "gupta-sidki": gupta_sidki_preset,
    "ggs5": lambda: ggs_preset(5, (1, 0, 0, 1)),
    "ggs3": lambda: ggs_preset(3, (1, 0)),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(ORDER_PRESETS)), st.data())
def test_cycle_recursion_matches_power_recursion(name, data):
    # A fresh preset per example: both recursions start from an empty order
    # memo, since a bounded outcome can depend on what is already cached.
    preset = ORDER_PRESETS[name]()
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-2, 2))
    w = Word(preset, data.draw(st.lists(factor, max_size=30)))
    budget = 20_000
    old = order_outcome(lambda: power_then_sections_order(preset, w.factors, budget))
    assert order_outcome(lambda: w.order(budget)) == old


def mixed_cycles_preset():
    """Degree 4: a swaps 0 and 1, r cycles 0 -> 1 -> 2, and both fix 3;
    b, c, d form a Klein group directed along the ray 333...  Every root
    permutation fixes 3, so root cycles of lengths 1, 2 and 3 meet in one
    node, and the b -> c -> d -> b sections close a cycle of fixed points."""
    return preset_from_dict(
        {
            "name": "mixed-cycles",
            "degree": 4,
            "generators": [
                {"name": "a", "root_perm": [1, 0, 2, 3], "sections": ["1", "1", "1", "1"]},
                {"name": "r", "root_perm": [1, 2, 0, 3], "sections": ["1", "1", "1", "1"]},
                {"name": "b", "root_perm": [0, 1, 2, 3], "sections": ["a", "a", "1", "c"]},
                {"name": "c", "root_perm": [0, 1, 2, 3], "sections": ["a", "1", "a", "d"]},
                {"name": "d", "root_perm": [0, 1, 2, 3], "sections": ["1", "a", "a", "b"]},
            ],
            "rules": [
                {"lhs": "a^2", "rhs": "1"},
                {"lhs": "r^3", "rhs": "1"},
                {"lhs": "b^2", "rhs": "1"},
                {"lhs": "c^2", "rhs": "1"},
                {"lhs": "d^2", "rhs": "1"},
                {"lhs": "b c", "rhs": "d"},
                {"lhs": "c b", "rhs": "d"},
                {"lhs": "b d", "rhs": "c"},
                {"lhs": "d b", "rhs": "c"},
                {"lhs": "c d", "rhs": "b"},
                {"lhs": "d c", "rhs": "b"},
            ],
        }
    )


def test_orders_with_mixed_root_cycles(rng):
    p = mixed_cycles_preset()
    # r b: the 3-cycle folds to b_2 b_1 b_0 = 1, the fixed point 3 gives c.
    assert W(p, "r b").order() == 6
    # a b: the 2-cycle folds to b_1 b_0 = a a = 1, the fixed points give 1 and c.
    assert W(p, "a b").order() == 2
    letters = [(g, e) for g in p.gen_names for e in (1, -1)]
    seen = set()
    for _ in range(60):
        w = Word(p, [rng.choice(letters) for _ in range(rng.randrange(1, 16))])
        m = w.order()
        seen.add(m)
        assert (w**m).is_identity()
        for q in (2, 3, 5, 7):
            if m % q == 0:
                assert not (w ** (m // q)).is_identity()
    assert {2, 3, 4, 6} <= seen


# -- portraits -------------------------------------------------------------


def test_portrait_matches_action(grig, rng):
    for _ in range(20):
        g = random_word(grig, rng, 10)
        port = g.portrait(5)
        for v in level_vertices(2, 5):
            assert port.walk(v) == g.apply(v)


@pytest.mark.parametrize("v, what", [((0, 1, 1), "depth 2"), ((0, 2), "degree 2"), ((-1,), "degree 2")])
def test_portrait_walk_refuses_a_vertex_past_its_depth_or_degree(grig, v, what):
    with pytest.raises(ValueError, match=what):
        W(grig, "a b").portrait(2).walk(v)


@pytest.mark.parametrize("name", ["gupta-sidki", "ggs:5:1,0,0,1"])
def test_portraits_share_the_presets_level_vertices(name, rng):
    preset = builtin_preset(name)
    table = preset._level_vertices
    assert table == []
    u, w = (Word(preset, random_factors(preset, rng, rng.randrange(1, 12))) for _ in range(2))
    u.portrait(0)
    assert table == []
    portraits = [u.portrait(3), w.portrait(2)]
    assert table == [level_vertices(preset.degree, k) for k in range(3)]
    for port in portraits:
        # the same tuple objects, level by level, as the table's
        shared = [v for level in table[: port.depth] for v in level]
        assert len(port.decorations) == len(shared)
        assert all(a is b for a, b in zip(port.decorations, shared))
    w.portrait(4)
    assert table == [level_vertices(preset.degree, k) for k in range(4)]
    assert builtin_preset(name)._level_vertices == []


@pytest.mark.parametrize("fixture", ["grig", "gs", "ggs5", "hanoi"])
def test_portrait_decorations_are_the_section_root_perms(fixture, request, rng):
    # level by level, each level's vertices in lexicographic order
    preset = request.getfixturevalue(fixture)
    for n in range(6):
        vertices = [v for t in range(n) for v in level_vertices(preset.degree, t)]
        for _ in range(3):
            w = Word(preset, random_factors(preset, rng, rng.randrange(12)))
            decorations = w.portrait(n).decorations
            assert list(decorations) == vertices
            assert all(decorations[v] == w.section(v).root_perm() for v in vertices)


@pytest.mark.parametrize("name", ["grigorchuk", "gupta-sidki", "ggs:5:1,0,0,1"])
def test_portrait_expands_each_section_word_above_its_depth_once(name, rng, monkeypatch):
    calls = []

    def counted(preset, factors):
        calls.append(factors)
        return expand_factors(preset, factors)

    monkeypatch.setattr(branchgroups.words, "expand_factors", counted)
    for n in range(5):
        preset = builtin_preset(name)
        w = Word(preset, random_factors(preset, rng, rng.randrange(1, 30)))
        calls.clear()
        w.portrait(n)
        expanded, held = list(calls), set(preset._section_cache)
        above = {w.section(v).factors for t in range(n) for v in level_vertices(preset.degree, t)}
        # each distinct word above level n once, none at depth 0, and the
        # node table holds just those words: the level vertices stay apart
        assert len(expanded) == len(above) and set(expanded) == above == held
        assert len(preset._level_vertices) == n


def test_portrait_trivial_iff_identity(grig, gs):
    assert Word.identity(grig).portrait(4).is_trivial()
    assert W(grig, "b c d").portrait(6).is_trivial()
    assert not W(grig, "d").portrait(4).is_trivial()
    # d moves nothing above level 2; a depth-0 portrait has no decorations
    assert W(grig, "d").portrait(2).is_trivial()
    assert W(grig, "a").portrait(0).is_trivial()
    assert W(gs, "b").portrait(1).is_trivial()
    assert not W(gs, "b").portrait(2).is_trivial()


def test_portrait_serialization(grig):
    data = W(grig, "a").portrait(1).to_dict()
    assert data == {"depth": 1, "decorations": {"": [1, 0]}}


# -- algebra helpers -------------------------------------------------------


def test_powers(grig):
    g = W(grig, "a b")
    assert (g**0).is_identity()
    assert (g**16).is_identity()
    assert not (g**8).is_identity()
    assert ((g**-1) * g).is_identity()


def test_conjugate_by(grig):
    g = W(grig, "b")
    f = W(grig, "a")
    conj = g.conjugate_by(f)
    assert str(conj) == "a b a"
    for v in level_vertices(2, 3):
        assert conj.apply(v) == f.apply(g.apply(f.inverse().apply(v)))


def test_equality_and_hash(grig):
    assert W(grig, "b c") == W(grig, "d")
    assert hash(W(grig, "b c")) == hash(W(grig, "d"))
    assert W(grig, "a") != W(grig, "b")


def test_fixes_level(grig):
    assert W(grig, "b").fixes_level(1)
    assert not W(grig, "a").fixes_level(1)
    assert W(grig, "abab").fixes_level(1)
    assert not W(grig, "abab").fixes_level(2)


def test_mixed_preset_multiplication_rejected(grig, gs):
    with pytest.raises(ValueError):
        Word.generator(grig, "a") * Word.generator(gs, "a")


# -- GGS engine ------------------------------------------------------------


def test_gs_orders(gs):
    assert W(gs, "a").order() == 3
    assert W(gs, "b").order() == 3
    assert W(gs, "a b").order() == 9


def test_gs_actions(gs):
    a = W(gs, "a")
    assert a.apply((0,)) == (1,)
    assert a.apply((2,)) == (0,)
    b = W(gs, "b")
    assert b.apply((0, 0)) == (0, 1)
    assert b.apply((1, 0)) == (1, 2)
    assert str(b.section((2,))) == "b"


def test_gs_word_problem(gs, rng):
    for _ in range(20):
        g = random_word(gs, rng, 10)
        assert (g * g.inverse()).is_identity()
        m = g.order()
        assert m in (1, 3, 9, 27, 81)


# -- letter table ----------------------------------------------------------


def random_factors(preset, rng, length):
    """An unreduced factor sequence with inverse letters and powers."""
    exps = (-3, -2, -1, 1, 2, 3)
    return tuple((rng.choice(preset.gen_names), rng.choice(exps)) for _ in range(length))


@pytest.mark.parametrize("fixture", ["grig", "gs", "ggs5"])
def test_root_perm_agrees_with_level_one_action(fixture, request, rng):
    preset = request.getfixturevalue(fixture)
    for _ in range(40):
        factors = random_factors(preset, rng, rng.randrange(12))
        w = Word(preset, factors)
        expected = tuple(w.apply((x,))[0] for x in range(preset.degree))
        assert root_perm_of(preset, w.factors) == expected
        assert root_perm_of(preset, unreduced(preset, factors)) == expected


@pytest.mark.parametrize("fixture", ["grig", "gs", "ggs5"])
def test_first_level_sections_act_below_their_vertex(fixture, request, rng):
    # w(x u) = w(x) s(u) with s the section of w at x
    preset = request.getfixturevalue(fixture)
    for _ in range(15):
        w = Word(preset, random_factors(preset, rng, rng.randrange(10)))
        for x in range(preset.degree):
            s = Word(preset, section1(preset, w.factors, x), reduced=True)
            for u in level_vertices(preset.degree, 2):
                assert w.apply((x,) + u) == w.apply((x,)) + s.apply(u)


def _units(factors):
    """A word as unit letters (g, 1) and (g, -1)."""
    return [(g, 1 if e > 0 else -1) for g, e in factors for _ in range(abs(e))]


def _unit_apply(preset, units, v):
    """Image of v under unit letters, rightmost first, one wreath-recursion
    step per letter: g(x u) = g(x) g_x(u), g^-1(x u) = y g_y^-1(u), g(y) = x."""
    for g, s in reversed(units):
        if not v:
            return v
        gen = preset.gen_map[g]
        if s > 0:
            sec = _units(gen.sections[v[0]])
            v = (gen.root_perm[v[0]],) + _unit_apply(preset, sec, v[1:])
        else:
            y = gen.root_perm.index(v[0])
            sec = _units(_invert_factors(gen.sections[y]))
            v = (y,) + _unit_apply(preset, sec, v[1:])
    return v


def _unit_section(preset, units, x):
    """Unreduced section at x of unit letters by the rule (uv)_x = u_{v(x)} v_x."""
    parts = []
    for g, s in reversed(units):
        gen = preset.gen_map[g]
        if s > 0:
            parts.append(gen.sections[x])
            x = gen.root_perm[x]
        else:
            x = gen.root_perm.index(x)
            parts.append(_invert_factors(gen.sections[x]))
    return tuple(f for part in reversed(parts) for f in part)


@pytest.mark.parametrize(
    "fixture, depth", [("grig", 6), ("gs", 4), ("ggs5", 3), ("adding_machine", 6)]
)
def test_letter_powers_match_unit_steps(fixture, depth, request):
    # The letter table builds g^e by squaring; e runs past every declared order.
    preset = request.getfixturevalue(fixture)
    vertices = level_vertices(preset.degree, depth)
    for g in preset.gen_names:
        for e in range(-7, 8):
            letter, units = preset.reduce([(g, e)]), [(g, 1 if e > 0 else -1)] * abs(e)
            assert root_perm_of(preset, letter) == tuple(
                _unit_apply(preset, units, (x,))[0] for x in range(preset.degree)
            )
            for x in range(preset.degree):
                s = section1(preset, letter, x)
                assert s == preset.reduce(_unit_section(preset, units, x))
                assert is_code_word(preset, s)
            for v in vertices:
                assert apply_factors(preset, letter, v) == _unit_apply(preset, units, v)


@pytest.mark.parametrize("n", [10**6, -(10**6) - 1])
def test_adding_machine_huge_power(adding_machine, n):
    # a^n adds n: digit x goes to (x + n) mod 2 with carry a^((x + n) // 2).
    w = Word(adding_machine, [("a", n)])
    v = (1, 0, 1) * 6 + (1, 1)
    value = sum(x << i for i, x in enumerate(v))
    image = (value + n) % 2 ** len(v)
    assert w.apply(v) == tuple(image >> i & 1 for i in range(len(v)))
    assert w.root_perm() == ((n % 2), (1 + n) % 2)
    assert [str(w.section((x,))) for x in (0, 1)] == [f"a^{n // 2}", f"a^{(1 + n) // 2}"]
    m = n
    for x in (0, 1, 1):
        m = (x + m) // 2
    assert adding_machine.decode(w.section((0, 1, 1)).factors) == (("a", m),)


@pytest.mark.parametrize("name", ["grigorchuk", "gupta-sidki", "ggs:5:1,0,0,1"])
def test_memo_tables_hold_canonical_letters(name, rng):
    # Every cached word shares the preset's letter objects; none holds a copy.
    preset = builtin_preset(name)
    for _ in range(30):
        w = Word(preset, random_factors(preset, rng, rng.randrange(40)))
        w.is_identity()
        try:
            w.order(budget=2000)
        except (BudgetExhausted, InfiniteOrder):
            pass
    # The node table maps each expanded word to its node; the order memo
    # is keyed by nodes of that table.
    nodes = list(preset._section_cache.values())
    sections = [s for node in nodes for s in node.sections]
    words = [*sections, *preset._section_cache, *(node.word for node in nodes)]
    assert len(sections) > 30
    assert preset._order_cache.keys() <= set(nodes)
    assert all(type(word) is bytes and is_code_word(preset, word) for word in words)


def test_bounded_identity_replays_whatever_ran_before(grig):
    # (a c)^8 is trivial but not emptied by reduction; at budgets 1 and 2 its
    # section closure does not fit, whether or not it was decided before.
    def outcome(preset, budget):
        try:
            return (W(preset, "a c") ** 8).is_identity(budget)
        except BudgetExhausted:
            return "undecided"

    assert (W(grig, "a c") ** 8).factors
    assert (W(grig, "a c") ** 8).is_identity()
    for budget in range(1, 6):
        assert outcome(grig, budget) == outcome(grigorchuk_preset(), budget)
    assert [outcome(grig, b) for b in (1, 2, 3)] == ["undecided", "undecided", True]


def test_bounded_order_replays_whatever_ran_before():
    # A memo hit charges the nodes its entry cost, so "c a d a" is decided
    # at the same budgets on a fresh preset and on one whose memo holds it.
    def outcome(preset, budget):
        try:
            return W(preset, "c a d a").order(budget)
        except BudgetExhausted:
            return "undecided"

    warm = grigorchuk_preset()
    assert W(warm, "c a d a").order() == 16
    fresh = [outcome(grigorchuk_preset(), b) for b in range(1, 51)]
    assert [outcome(warm, b) for b in range(1, 51)] == fresh
    assert fresh.index(16) == 16 and set(fresh[16:]) == {16}


def test_bounded_identity_outcomes_are_pinned(grig, gs):
    # True, False or undecided for seeded words and their powers that fix
    # level 3, at every budget from 1 to 30.  The order the walk visits
    # sections in decides where a budget runs out, so it must not change.
    rng, out = random.Random(25), []
    for preset in (grig, gs, preset_from_dict(RANDOM_DEGREE_3)):
        for _ in range(100):
            u = random_word(preset, rng, 10)
            for w in (u, u ** _perm_order(word_perm(u, 3))):
                for budget in range(1, 31):
                    try:
                        out.append("01"[w.is_identity(budget)])
                    except BudgetExhausted:
                        out.append("x")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "fc50a90f1b4a862e2a1bce977f7feb2d4eed02d3df7b118ac5288973112d4e8d"
    )


def test_fixes_level_takes_no_budget(adding_machine, monkeypatch):
    # Every level-k section of a^16 is a^(16 / 2^k): four distinct sections
    # above level 4, more than the whole-tree walk may visit here.
    monkeypatch.setattr(branchgroups.words, "DEFAULT_IDENTITY_BUDGET", 1)
    w = Word(adding_machine, [("a", 16)])
    with pytest.raises(BudgetExhausted):
        w.is_identity()
    assert w.fixes_level(4) and not w.fixes_level(5)


def test_power_matches_unit_steps(grig, gs, hanoi, rng):
    for npoints, kinds in ((9, (bytes, tuple)), (300, (tuple,))):
        for kind in kinds:
            p = list(range(npoints))
            rng.shuffle(p)
            p = step = kind(p)
            for m in range(1, 20):
                assert power(p, m, compose) == step
                step = compose(step, p)
    for preset in (grig, gs, hanoi):
        for _ in range(10):
            f = step = random_word(preset, rng, 8).factors
            for m in range(1, 12):
                assert power(f, m, preset.product) == step
                step = preset.product(step, f)


@pytest.mark.parametrize("m", [0, -1])
def test_power_refuses_exponents_below_one(m):
    with pytest.raises(ValueError):
        power((1, 0), m, compose)


def degree_one_preset():
    return GroupPreset(
        degree=1,
        generators=(GeneratorRecursion("x", (0,), (((("x", 1),)),)),),
        reduction_rules=(),
        branching_generators=(),
    )


def test_root_perm_on_degree_one():
    preset = degree_one_preset()
    assert root_perm_of(preset, preset.reduce([("x", 2), ("x", -1)])) == (0,)


# -- first-level expansion -------------------------------------------------


EXPANSION_PRESETS = {
    "grigorchuk": grigorchuk_preset(),
    "gupta-sidki": gupta_sidki_preset(),
    "ggs:5:1,0,0,1": ggs_preset(5, (1, 0, 0, 1)),
    "degree-1": degree_one_preset(),
}
EXPANSION_PORTRAIT_DEPTH = {1: 5, 2: 5, 3: 3, 5: 3}


@st.composite
def expansion_words(draw):
    """A reduced word with exponents up to 4 in absolute value."""
    preset = EXPANSION_PRESETS[draw(st.sampled_from(sorted(EXPANSION_PRESETS)))]
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-4, 4))
    return Word(preset, draw(st.lists(factor, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(expansion_words())
def test_expansion_matches_root_perm_action_and_sections(w):
    preset, d = w.preset, w.preset.degree
    node = expand_factors(preset, w.factors)
    perm, sections = node.perm, node.sections
    assert perm == root_perm_of(preset, w.factors)
    assert len(sections) == d
    for x, y in itertools.product(range(d), repeat=2):
        assert w.apply((x, y)) == (perm[x],) + apply_factors(preset, sections[x], (y,))
    n = EXPANSION_PORTRAIT_DEPTH[d]
    reference = {
        v: w.section(v).root_perm()
        for t in range(n)
        for v in itertools.product(range(d), repeat=t)
    }
    decorations = w.portrait(n).decorations
    assert decorations == reference
    assert list(decorations) == list(reference)


def oracle_expansion(preset, factors):
    """Root permutation and reduced first-level sections of a word, from the
    generator records alone: g^e as |e| letters g or g^-1, with
    g^-1 = (g_{g^-1(x)})^-1 at x, then the section rule
    (uv)_x = u_{v(x)} v_x letter by letter, and `preset.reduce`."""
    d = preset.degree
    units = {}
    for gen in preset.generators:
        inv = [0] * d
        for x, y in enumerate(gen.root_perm):
            inv[y] = x
        units[gen.name, 1] = gen.root_perm, gen.sections
        units[gen.name, -1] = inv, [_invert_factors(gen.sections[inv[x]]) for x in range(d)]
    word = [units[g, 1 if e > 0 else -1] for g, e in preset.decode(factors) for _ in range(abs(e))]
    perm, sections = [], []
    for x in range(d):
        parts = []
        for p, secs in reversed(word):
            parts.append(secs[x])
            x = p[x]
        perm.append(x)
        sections.append(preset.reduce([f for part in reversed(parts) for f in part]))
    return tuple(perm), tuple(sections)


# Confluent rule sets, so that reducing the whole section gives the one
# reduced word expand_factors builds from the letter records.  Hanoi and
# RANDOM_DEGREE_3 have root groups that are not rotations.
ORACLE_EXPANSION_PRESETS = {
    "grigorchuk": grigorchuk_preset(),
    "gupta-sidki": gupta_sidki_preset(),
    "ggs5": ggs_preset(5, (1, 0, 0, 1)),
    "adding-machine": preset_from_dict(ADDING_MACHINE),
    "hanoi": preset_from_dict(HANOI),
    "random-degree-3": preset_from_dict(RANDOM_DEGREE_3),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_expansion_matches_section_rule_oracle(data):
    preset = ORACLE_EXPANSION_PRESETS[data.draw(st.sampled_from(sorted(ORACLE_EXPANSION_PRESETS)))]
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-4, 4))
    w = Word(preset, data.draw(st.lists(factor, max_size=12)))
    node = expand_factors(preset, w.factors)
    assert (node.perm, node.sections) == oracle_expansion(preset, w.factors)


# -- level stabilizers by section walks ------------------------------------


SECTION_WALK_PRESETS = {
    "grigorchuk": grigorchuk_preset(),
    "gupta-sidki": gupta_sidki_preset(),
    "ggs5": ggs_preset(5, (1, 0, 0, 1)),
}


def _perm_order(p):
    q, m = p, 1
    while q != tuple(range(len(p))):
        q, m = tuple(p[x] for x in q), m + 1
    return m


@st.composite
def words_fixing_some_levels(draw):
    """A random word, raised to the order of its level-j image for
    j = 1..depth, so that it fixes the first `depth` levels."""
    preset = SECTION_WALK_PRESETS[draw(st.sampled_from(sorted(SECTION_WALK_PRESETS)))]
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-2, 2))
    w = Word(preset, draw(st.lists(factor, max_size=8)))
    for j in range(1, draw(st.integers(0, 3)) + 1):
        w = w ** _perm_order(word_perm(w, j))
    assume(not w.is_identity())
    return w


@settings(max_examples=150, deadline=None)
@given(words_fixing_some_levels(), st.integers(0, 5))
def test_fixes_level_matches_vertex_action(w, n):
    expected = all(w.apply(v) == v for v in level_vertices(w.preset.degree, n))
    assert w.fixes_level(n) == expected


@settings(max_examples=150, deadline=None)
@given(words_fixing_some_levels(), st.integers(0, 5))
def test_level_sections_match_sections_and_action(w, n):
    vertices = level_vertices(w.preset.degree, n)
    if any(w.apply(v) != v for v in vertices):
        assert w.level_sections(n) is None
    else:
        expected = {v: w.section(v).factors for v in vertices if w.section(v).factors}
        assert w.level_sections(n) == expected
        assert list(w.level_sections(n)) == list(expected)


FIXES_LEVEL_WORK = """
import random
import branchgroups.words as words
from branchgroups.presets import grigorchuk_preset

calls = [0]
expand_factors = words.expand_factors

def counted(*args):
    calls[0] += 1
    return expand_factors(*args)

words.expand_factors = counted
G, rng = grigorchuk_preset(), random.Random(3)
for _ in range(300):
    w = words.Word(G, [(rng.choice("abcd"), 1) for _ in range(rng.randrange(30))])
    w.fixes_level(rng.randrange(1, 6))
# Expansions read, and expansions computed: one table entry per miss.
print(calls[0], len(G._section_cache))
"""


@pytest.mark.parametrize("n", [1, 4, 16])
def test_fixes_level_expands_each_distinct_section_once(adding_machine, n, monkeypatch):
    # Every level-k section of a^(2^n) is a^(2^(n-k)) or 1: one distinct
    # word per level, although 2^k vertices carry it.
    calls = []

    def counted(preset, factors):
        calls.append(factors)
        return expand_factors(preset, factors)

    monkeypatch.setattr(branchgroups.words, "expand_factors", counted)
    w = Word(adding_machine, [("a", 2**n)])
    assert w.fixes_level(n)
    assert len(calls) <= n + 1
    calls.clear()
    assert not w.fixes_level(n + 1)
    assert len(calls) <= n + 2


def test_fixes_level_work_does_not_depend_on_string_hashing():
    # fixes_level stops at the first nontrivial root permutation, so the
    # order it walks a level in decides how many it computes.
    src = os.path.dirname(os.path.dirname(branchgroups.__file__))
    counts = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", FIXES_LEVEL_WORK],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        counts.add(tuple(map(int, run.stdout.split())))
    assert len(counts) == 1
    (reads, expansions), = counts
    assert reads >= expansions > 0


# is_identity, then order, on seeded random words and relator conjugates:
# the answers, the expansions computed and the table sizes.
WALK_WORK = """
import random
import branchgroups.words as words
from branchgroups.presets import grigorchuk_preset, gupta_sidki_preset

calls = [0]
expand_factors = words.expand_factors

def counted(*args):
    calls[0] += 1
    return expand_factors(*args)

words.expand_factors = counted
rng = random.Random(7)
for preset, relator in ((grigorchuk_preset(), [("a", 1), ("d", 1)] * 4),
                        (gupta_sidki_preset(), [("a", 1), ("b", 1)] * 9)):
    r = words.Word(preset, relator)
    answers = []
    for _ in range(60):
        u = words.Word(preset, [(rng.choice(preset.gen_names), rng.choice((1, -1)))
                                for _ in range(rng.randrange(80))])
        for w in (u, u * r * u.inverse()):
            answer = [w.is_identity()]
            try:
                answer.append(w.order(budget=5000))
            except (words.BudgetExhausted, words.InfiniteOrder) as exc:
                answer.append(type(exc).__name__)
            answers.append(answer)
    print(answers, calls[0], len(preset._section_cache), len(preset._order_cache))
"""


def test_walk_work_does_not_depend_on_hashing():
    # Walks key their dicts by node, hashed by identity; only insertion
    # order and vertex order may decide what they expand, and in what order.
    src = os.path.dirname(os.path.dirname(branchgroups.__file__))
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", WALK_WORK],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    (out,) = outputs
    assert "True" in out and "False" in out


@pytest.mark.parametrize("name", ["grigorchuk", "gupta-sidki", "ggs:5:1,0,0,1"])
def test_identity_then_order_expands_each_word_once(name, rng, monkeypatch):
    preset = builtin_preset(name)
    calls = []

    def counted(preset, factors):
        calls.append(factors)
        return expand_factors(preset, factors)

    monkeypatch.setattr(branchgroups.words, "expand_factors", counted)
    for _ in range(30):
        w = Word(preset, random_factors(preset, rng, rng.randrange(60)))
        w.is_identity()
        try:
            w.order(budget=2000)
        except (BudgetExhausted, InfiniteOrder):
            pass
    assert len(calls) > 30
    assert len(set(calls)) == len(calls)


def test_order_budget_is_charged_before_a_child_is_expanded():
    # On RANDOM_DEGREE_3 the words of b's order walk grow about twentyfold
    # per node; once the budget is spent the walk refuses the next nonempty
    # child instead of expanding it first.
    preset = preset_from_dict(RANDOM_DEGREE_3)
    with pytest.raises(BudgetExhausted):
        W(preset, "b").order(budget=20)
    nodes = preset._section_cache.values()
    assert (len(nodes), sum(len(node.word) for node in nodes)) == (20, 77_518)


def test_more_than_255_letters_reduce_expand_and_answer():
    preset = preset_from_dict(CHAIN)
    v = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    value = sum(x << i for i, x in enumerate(v[:9]))
    words = {k: Word(preset, [("g1", k)]) for k in range(-600, 601)}
    assert len({w.factors for w in words.values()}) == 512
    for k, w in words.items():
        image = (value + k) % 512
        assert w.apply(v) == tuple(image >> i & 1 for i in range(9)) + v[9:]
        assert str(w) == ("1" if k % 512 == 0 else "g1" if k % 512 == 1 else f"g1^{k % 512}")
    assert [words[k].order() for k in (1, 2, 96, 256, 512)] == [512, 256, 16, 2, 1]
    assert (words[300] * words[-300]).is_identity() and not (words[300] * words[-299]).is_identity()
    assert preset.decode(words[300].section((1,)).factors) == (("g2", 150),)
