import random

import pytest

from branchgroups.quotients import (
    LevelCapExceeded,
    StabChain,
    compose,
    full_level_group,
    image_subgroup,
    is_level_transitive,
    orbit_transversal,
    perm_inverse,
    point_stabilizer_words,
    quotient_order,
    subgroup_index_in_quotient,
    word_perm,
)
from branchgroups.presets import preset_from_dict
from branchgroups.words import Word

from conftest import random_word

# [DERIVED] closure oracle over generator images, frozen before the build
GRIG_ORDERS = {1: 2, 2: 8, 3: 128, 4: 4096, 5: 2**22, 6: 2**42}
GS_ORDERS = {1: 3, 2: 27, 3: 2187, 4: 3**19}


def brute_closure(gens, npoints):
    identity = tuple(range(npoints))
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def brute_closure_order(preset, n):
    gens = {word_perm(Word.generator(preset, g), n) for g in preset.gen_names}
    return len(brute_closure(gens, preset.degree**n))


def test_perm_helpers():
    p = (1, 2, 0)
    assert compose(p, perm_inverse(p)) == (0, 1, 2)
    assert perm_inverse((0, 1, 2)) == (0, 1, 2)


def test_one_point_domain(grig):
    # A gather over one index yields the bare item, not a 1-tuple.
    assert compose((0,), (0,)) == (0,)
    assert StabChain(1, [(0,)]).order() == 1
    grp = image_subgroup([Word.generator(grig, g) for g in grig.gen_names], 0)
    assert grp.order() == 1
    assert grp.contains((0,))


def test_word_perm_matches_action(grig, rng):
    from branchgroups.tree import level_vertices

    verts = level_vertices(2, 3)
    for _ in range(20):
        g = random_word(grig, rng, 8)
        perm = word_perm(g, 3)
        for i, v in enumerate(verts):
            assert verts[perm[i]] == g.apply(v)


def test_quotient_orders_match_closure_oracle(grig, gs):
    for n in (1, 2, 3):
        assert quotient_order(grig, n) == brute_closure_order(grig, n)
    assert quotient_order(gs, 1) == brute_closure_order(gs, 1)
    assert quotient_order(gs, 2) == brute_closure_order(gs, 2)


def test_quotient_orders_frozen(grig):
    for n, expected in GRIG_ORDERS.items():
        assert quotient_order(grig, n) == expected


def test_gs_quotient_orders_frozen(gs):
    for n, expected in GS_ORDERS.items():
        assert quotient_order(gs, n) == expected


def test_quotient_level_zero(grig):
    assert quotient_order(grig, 0) == 1


# Every root permutation is trivial, so no level past the root is one orbit.
FIXED_ROOT = {
    "degree": 2,
    "generators": [{"name": "a", "root_perm": [0, 1], "sections": ["a", ""]}],
}


def test_level_transitivity(grig, gs):
    for n in range(1, 7):
        assert is_level_transitive(grig, n)
    for n in range(1, 5):
        assert is_level_transitive(gs, n)
    fixed = preset_from_dict(FIXED_ROOT)
    assert is_level_transitive(fixed, 0)
    assert not any(is_level_transitive(fixed, n) for n in range(1, 4))


def test_level_cap(grig):
    with pytest.raises(LevelCapExceeded):
        quotient_order(grig, 11)


def test_level_action_shape(grig):
    images = {g: word_perm(Word.generator(grig, g), 2) for g in "abd"}
    assert images["a"] == (2, 3, 0, 1)
    assert images["b"] == (1, 0, 2, 3)
    assert images["d"] == (0, 1, 2, 3)


def test_stab_chain_against_closure(grig):
    for n in (2, 3):
        gens = [word_perm(Word.generator(grig, g), n) for g in grig.gen_names]
        chain = StabChain(2**n, gens)
        assert chain.order() == brute_closure_order(grig, n)


def test_chain_membership(grig, rng):
    n = 4
    grp = full_level_group(grig, n)
    for _ in range(20):
        g = random_word(grig, rng, 12)
        assert grp.contains(word_perm(g, n))
    # a 3-cycle of leaves has order 3; the image is a 2-group, so it is out
    cyc = list(range(2**n))
    cyc[0], cyc[1], cyc[2] = cyc[1], cyc[2], cyc[0]
    assert not grp.contains(tuple(cyc))


def test_subgroup_index(grig):
    a = [Word.generator(grig, "a")]
    assert subgroup_index_in_quotient(a, 1) == 1
    assert subgroup_index_in_quotient(a, 2) == 4
    assert subgroup_index_in_quotient(a, 3) == 64
    full = [Word.generator(grig, g) for g in grig.gen_names]
    assert subgroup_index_in_quotient(full, 4) == 1


def test_image_subgroup_orbits(grig):
    # c acts on level 2 as b does, so only b enlarges the group; its orbits
    # are {00, 01}, {10} and {11}.
    sub = image_subgroup([Word.from_str(grig, "b"), Word.from_str(grig, "c")], 2)
    assert sub.gens == [(1, 0, 2, 3)]
    assert sub.order() == 2


def test_point_stabilizer_is_exact(grig):
    for vstr in ("0", "01", "110"):
        v = tuple(int(c) for c in vstr)
        n = len(v)
        words = point_stabilizer_words(v, n, grig)
        stab_img = image_subgroup(words, n)
        full = full_level_group(grig, n)
        # orbit-stabilizer: index equals the (transitive) orbit size
        assert full.order() == stab_img.order() * 2**n
        idx = _vertex_index(grig, v, n)
        assert all(word_perm(w, n)[idx] == idx for w in words)


def _vertex_index(preset, v, n):
    from branchgroups.tree import level_vertices

    return level_vertices(preset.degree, n).index(v)


def test_determinism_of_chain(grig):
    g1 = full_level_group(grig, 4)
    g2 = full_level_group(grig, 4)
    assert g1.base() == g2.base()


def test_closed_form_orders_at_deeper_levels(grig, gs):
    # |G/St(n)| = 2^(5*2^(n-3)+2) for Grigorchuk, 3^(2*3^(n-2)+1) for Gupta-Sidki
    assert quotient_order(grig, 7) == 2**82
    assert quotient_order(grig, 8) == 2**162
    assert quotient_order(gs, 5) == 3**55


def _random_letters_word(preset, rng, max_len):
    """Random word with inverse letters and exponents up to 3, unreduced input."""
    factors = [
        (rng.choice(preset.gen_names), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(preset, factors)


@pytest.mark.parametrize("name", ["grig", "gs"])
def test_word_perm_matches_vertex_action(name, request):
    from branchgroups.tree import level_vertices

    preset = request.getfixturevalue(name)
    rng = random.Random(61)
    for n in range(1, 7):
        verts = level_vertices(preset.degree, n)
        index = {v: i for i, v in enumerate(verts)}
        for _ in range(6):
            w = _random_letters_word(preset, rng, 10)
            assert word_perm(w, n) == tuple(index[w.apply(v)] for v in verts)


def _level_gens(preset, n, texts):
    return [word_perm(Word.from_str(preset, t), n) for t in texts]


def test_stab_chain_order_independent_of_generator_order(grig, gs):
    rng = random.Random(5)
    for preset, n, texts in (
        (grig, 4, ["a", "b", "c", "d", "abab", "adad"]),
        (gs, 3, ["a", "b", "a b a^-1", "b^2 a"]),
    ):
        gens = _level_gens(preset, n, texts)
        expected = StabChain(preset.degree**n, gens).order()
        for _ in range(5):
            rng.shuffle(gens)
            assert StabChain(preset.degree**n, gens).order() == expected


def test_stab_chain_membership_matches_closure(grig):
    rng = random.Random(9)
    n, npoints = 3, 8
    for texts in (["a", "b", "c", "d"], ["b", "c"], ["a", "d"], ["abab"]):
        gens = _level_gens(grig, n, texts)
        closure = brute_closure(gens, npoints)
        chain = StabChain(npoints, gens)
        assert chain.order() == len(closure)
        assert all(chain.contains(p) for p in closure)
        for _ in range(200):
            p = list(range(npoints))
            rng.shuffle(p)
            assert chain.contains(tuple(p)) == (tuple(p) in closure)


def test_stab_chain_grown_by_add_matches_one_call(grig, rng):
    n, npoints = 4, 16
    gens = _level_gens(grig, n, ["b", "a d a", "c", "a b a c", "a"])
    grown = StabChain(npoints, [])
    assert grown.order() == 1
    assert grown.add(gens[0])
    assert not grown.add(gens[0])
    for g in gens[1:]:
        grown.add(g)
    whole = StabChain(npoints, gens)
    assert grown.order() == whole.order() == 2**12
    for _ in range(30):
        p = word_perm(random_word(grig, rng, 12), n)
        assert grown.contains(p) and whole.contains(p)
    for _ in range(30):
        p = list(range(npoints))
        rng.shuffle(p)
        assert grown.contains(tuple(p)) == whole.contains(tuple(p))


def test_word_perm_on_a_single_point(grig):
    from branchgroups.presets import GeneratorRecursion, GroupPreset

    one = GroupPreset(
        degree=1,
        generators=(GeneratorRecursion("x", (0,), (((("x", 1),)),)),),
        reduction_rules=(),
        branching_generators=(),
    )
    assert word_perm(Word(one, (("x", 2), ("x", -1))), 3) == (0,)
    assert word_perm(Word.from_str(grig, "a b"), 0) == (0,)


def test_orbit_transversal_reaches_every_orbit_vertex(grig, gs):
    for preset, v in ((grig, (0, 1, 1)), (gs, (2, 0))):
        reps = orbit_transversal(preset, v)
        assert len(reps) == preset.degree ** len(v)
        assert list(reps)[0] == v
        assert all(w.apply(v) == u for u, w in reps.items())
        u = list(reps)[-1]
        assert orbit_transversal(preset, v, until=u)[u] == reps[u]
