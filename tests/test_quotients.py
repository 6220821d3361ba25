import random
import time

import pytest

from branchgroups import quotients
from branchgroups.branching import BRANCH_DATA, check
from branchgroups.quotients import (
    LayeredGroup,
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
from branchgroups.presets import builtin_preset, preset_from_dict
from branchgroups.tree import level_vertices
from branchgroups.words import Word

from conftest import ADDING_MACHINE, HANOI, RANDOM_DEGREE_3, random_word

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
        words = point_stabilizer_words(grig, v)
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
    # Grigorchuk's level images are LayeredGroups, which have no base, so
    # the chain is built from the generator images directly.
    gens = [word_perm(Word.generator(grig, g), 4) for g in grig.gen_names]
    assert StabChain(16, gens).base() == StabChain(16, gens).base()
    g1, g2 = full_level_group(grig, 4), full_level_group(grig, 4)
    assert g1.gens == g2.gens
    assert [g1.order(j) for j in range(5)] == [g2.order(j) for j in range(5)]


def test_closed_form_orders_at_deeper_levels(grig, gs):
    # |G/St(n)| = 2^(5*2^(n-3)+2) for Grigorchuk, 3^(2*3^(n-2)+1) for Gupta-Sidki
    assert quotient_order(grig, 7) == 2**82
    assert quotient_order(grig, 8) == 2**162
    assert quotient_order(grig, 9) == 2**322
    assert quotient_order(grig, 10) == 2**642
    assert quotient_order(gs, 5) == 3**55
    assert quotient_order(gs, 6) == 3**163


def _ggs_3_1_0_order(n):
    # |G_n| = |G_(n-1)|^3 / 9 from |G_2| = 3^4
    return 3**4 if n == 2 else _ggs_3_1_0_order(n - 1) ** 3 // 9


CLOSED_FORMS = {
    "grigorchuk": lambda n: 2 ** (5 * 2 ** (n - 3) + 2),
    "gupta-sidki": lambda n: 3 ** (2 * 3 ** (n - 2) + 1),
    "ggs:3:1,0": _ggs_3_1_0_order,
}


@pytest.mark.parametrize("name, levels", [("grigorchuk", range(4, 9)), ("gupta-sidki", range(3, 7)),
                                          ("ggs:3:1,0", range(3, 6))])
def test_the_engine_and_the_branch_recursion_agree_at_deep_levels(name, levels):
    for n in levels:
        preset = builtin_preset(name)
        assert quotient_order(preset, n) == CLOSED_FORMS[name](n)
        # the recursion built no letter table past level m
        assert max(preset._perm_cache) == BRANCH_DATA[preset.branch_key].m < n
        assert full_level_group(preset, n).order() == CLOSED_FORMS[name](n)


def test_the_branch_recursion_answers_up_to_the_level_cap_only():
    for name in ("gupta-sidki", "ggs:3:1,0"):
        # 3^10 points, past the point cap, which bounds the engine path only
        assert quotient_order(builtin_preset(name), 10) == CLOSED_FORMS[name](10)
        with pytest.raises(LevelCapExceeded):
            quotient_order(builtin_preset(name), 11)
    start = time.perf_counter()
    assert quotient_order(builtin_preset("grigorchuk"), 10) == 2**642
    assert time.perf_counter() - start < 0.05


def test_branch_data_of_every_shipped_preset_checks():
    # m, |G:K'| and |K':L| re-derived, every lift entry checked by the word problem
    start = time.perf_counter()
    summaries = {name: check(builtin_preset(name)) for name in BRANCH_DATA}
    assert summaries == {
        "grigorchuk": ({"m": 3, "index": 16, "lift_index": 4, "entries": 20}, []),
        "gupta-sidki": ({"m": 2, "index": 9, "lift_index": 9, "entries": 18}, []),
        "ggs:3:1,0": ({"m": 2, "index": 9, "lift_index": 9, "entries": 18}, []),
    }
    assert time.perf_counter() - start < 3
    assert builtin_preset("ggs:3:1,2").branch_key == "gupta-sidki"
    for name in ("ggs:3:1,1", "ggs:3:2,1", "ggs:5:1,2,0,0"):
        assert builtin_preset(name).branch_key is None


def test_a_preset_read_from_a_definition_has_no_branch_data():
    for name in BRANCH_DATA:
        assert preset_from_dict(builtin_preset(name).to_dict()).branch_key is None


def test_hanoi_quotient_orders_match_closed_form(hanoi):
    # |H/St(n)| = 2^(3^(n-1)) 3^((3^n - 1)/2) for the Hanoi towers group
    # (Grigorchuk and Sunic 2006): its root group S3 is not a p-group, so
    # these orders come from the stabilizer chain.
    assert isinstance(full_level_group(hanoi, 1), StabChain)
    for n in range(1, 6):
        assert quotient_order(hanoi, n) == 2 ** 3 ** (n - 1) * 3 ** ((3**n - 1) // 2)


def _rank_mod_p(rows, p):
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows[rank:] if r[col] % p), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], -1, p)
        pivot = [x * inv % p for x in pivot]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, pivot)] for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


@pytest.mark.parametrize(
    "name, levels",
    [
        ("gupta-sidki", (2, 3, 4, 5, 6)),
        ("ggs:3:1,0", (2, 3, 4, 5, 6)),
        ("ggs:5:1,0,0,1", (2, 3, 4)),
        ("ggs:5:1,2,0,0", (2, 3, 4, 5)),  # 5^5 points: the largest level the point cap admits
    ],
)
def test_ggs_quotient_orders_match_closed_form(name, levels):
    # Fernandez-Alcober and Zugadi-Reizabal (2014): for the GGS group with
    # defining vector e over F_p, log_p |G : St(n)| = t p^(n-2) + 1
    # - delta (p^(n-2) - 1)/(p - 1) for n >= 2, where t is the rank of the
    # circulant matrix of (e_1, ..., e_(p-1), 0) and delta = 1 iff e is
    # symmetric.  e is read off b = (a^e_1, ..., a^e_(p-1), b).
    preset = builtin_preset(name)
    p = preset.degree
    e = tuple(sum(k for _, k in s) % p for s in preset.gen_map["b"].sections[:-1])
    row = (*e, 0)
    t = _rank_mod_p([row[-i:] + row[:-i] for i in range(p)], p)
    delta = int(e == e[::-1])
    for n in levels:
        exponent = t * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1)
        assert quotient_order(preset, n) == p**exponent


def _random_letters_word(preset, rng, max_len):
    """Random word with inverse letters and exponents up to 3, unreduced input."""
    factors = [
        (rng.choice(preset.gen_names), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(preset, factors)


# Grigorchuk level 8 and Gupta-Sidki level 5 are the last with at most 256
# points, where the engine works on bytes; the next levels are on tuples.
@pytest.mark.parametrize(
    "name, levels",
    [pytest.param("grig", (1, 2, 3, 4, 5, 6, 8, 9), id="grig"), pytest.param("gs", range(1, 7), id="gs")],
)
def test_word_perm_matches_vertex_action(name, levels, request):
    from branchgroups.tree import level_vertices

    preset = request.getfixturevalue(name)
    rng = random.Random(61)
    for n in levels:
        verts = level_vertices(preset.degree, n)
        index = {v: i for i, v in enumerate(verts)}
        assert all(type(g) is tuple for g in full_level_group(preset, n).gens)
        for _ in range(6):
            w = _random_letters_word(preset, rng, 10)
            perm = word_perm(w, n)
            assert type(perm) is tuple and perm == tuple(index[w.apply(v)] for v in verts)


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


def test_word_perm_raises_a_letter_power_by_squaring(adding_machine, monkeypatch):
    # a^(10^6) on level 10 of the adding machine adds 10^6 mod 2^10; the
    # image costs about 20 products, not one per unit of the exponent.
    from branchgroups import quotients

    calls = []
    monkeypatch.setattr(quotients, "compose", lambda p, q: calls.append(1) or compose(p, q))
    w = Word(adding_machine, (("a", 10**6),))
    p = word_perm(w, 10)
    assert len(calls) < 100
    verts = level_vertices(2, 10)
    index = {v: i for i, v in enumerate(verts)}
    assert all(p[i] == index[w.apply(v)] for i, v in enumerate(verts))


def test_word_perm_checks_its_level(grig):
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        word_perm(Word.from_str(grig, "a"), -1)
    with pytest.raises(LevelCapExceeded):
        word_perm(Word.from_str(grig, "a"), 11)


def test_orbit_transversal_reaches_every_orbit_vertex(grig, gs):
    for preset, v in ((grig, (0, 1, 1)), (gs, (2, 0))):
        reps = orbit_transversal(preset, v)
        assert len(reps) == preset.degree ** len(v)
        assert list(reps)[0] == v
        assert all(w.apply(v) == u for u, w in reps.items())
        u = list(reps)[-1]
        assert orbit_transversal(preset, v, until=u)[u] == reps[u]


P_PRESETS = [
    ("grigorchuk", 5),
    ("gupta-sidki", 3),
    ("ggs:3:1,0", 3),
    ("ggs:5:1,2,0,0", 2),
    ("ggs:5:1,0,0,1", 2),
]


@pytest.mark.parametrize("name, top", P_PRESETS)
def test_layered_group_agrees_with_the_chain(name, top):
    preset = builtin_preset(name)
    p = preset.degree
    rng = random.Random(17)
    for n in range(1, top + 1):
        npoints = p**n
        assert isinstance(full_level_group(preset, n), LayeredGroup)
        for _ in range(10):
            words = [_random_letters_word(preset, rng, 6) for _ in range(rng.randrange(1, 4))]
            perms = [word_perm(w, n) for w in words]
            chain, layered = StabChain(npoints, perms), image_subgroup(words, n)
            assert isinstance(layered, LayeredGroup)
            assert layered.order() == chain.order()
            assert [layered.order(j) for j in range(n + 1)] == [
                image_subgroup(words, j).order() for j in range(n + 1)
            ]
            for _ in range(8):
                x = word_perm(_random_letters_word(preset, rng, 10), n)
                assert layered.contains(x) == chain.contains(x)
            for _ in range(4):
                # a random permutation is no tree automorphism; the chain
                # decides whether it lies in the image
                x = list(range(npoints))
                rng.shuffle(x)
                assert layered.contains(x) == chain.contains(tuple(x))


@pytest.mark.parametrize(
    "n, texts, order",
    [
        (3, ["b^2 a b^2", "a^2", "a"], 3**7),
        (3, ["a^2 b^2 a^2 b^2 a b^2 a^2", "b a^2"], 3**7),
        (4, ["b a^2 b^2", "a b"], 3**19),
    ],
)
def test_layered_group_closes_layers_under_commutators(gs, n, texts, order):
    # Each of these generates Gupta-Sidki's full level quotient, and an
    # engine that skips the commutators within a layer comes out 3 short.
    words = [Word.from_str(gs, t) for t in texts]
    assert image_subgroup(words, n).order() == order
    assert StabChain(3**n, [word_perm(w, n) for w in words]).order() == order


def test_layered_group_refuses_non_automorphisms(grig, gs):
    # Swapping two leaves under different parents is no tree automorphism;
    # swapping two leaves under one Gupta-Sidki parent is one, but it does
    # not rotate the three children, so no word's image does it.
    for preset, n in ((grig, 4), (grig, 8), (grig, 9), (gs, 3)):
        full = full_level_group(preset, n)
        swap = list(range(preset.degree**n))
        swap[1], swap[preset.degree] = swap[preset.degree], swap[1]
        assert not full.contains(swap)
        assert full.contains(range(preset.degree**n))
    flip = list(range(27))
    flip[0], flip[1] = flip[1], flip[0]
    assert not full_level_group(gs, 3).contains(flip)


# Degree 3, but b transposes two children of the root.
TRANSPOSITION = {
    "degree": 3,
    "generators": [
        {"name": "a", "root_perm": [1, 2, 0], "sections": ["", "", ""]},
        {"name": "b", "root_perm": [1, 0, 2], "sections": ["a", "b", ""]},
    ],
}


@pytest.mark.parametrize(
    "preset, orders, profile",
    [
        (
            builtin_preset("ggs:4:1,0,0"),  # degree 4 is not prime
            [1, 4, 4**5, 4**17, 4**65],
            [1, 4**4, 4**16, 4**64],
        ),
        (
            preset_from_dict(TRANSPOSITION),
            [1, 6, 648, 816293376, 1631774235698698006327984128],
            [2, 216, 272097792, 543924745232899335442661376],
        ),
    ],
)
def test_presets_outside_the_engine_keep_the_chain(preset, orders, profile):
    # Orders and profile as the chain gave them before the layered engine.
    from branchgroups.subgroups import SubgroupHandle, index_growth_profile

    for n in range(1, 4):
        grp = full_level_group(preset, n)
        assert isinstance(grp, StabChain)
        assert grp.base() == full_level_group(preset, n).base()
    assert [quotient_order(preset, n) for n in range(5)] == orders
    assert index_growth_profile(SubgroupHandle.from_strings(preset, ["a"]), 4) == profile
    words = [Word.from_str(preset, "a")]
    assert image_subgroup(words, 4).order(2) == image_subgroup(words, 2).order()


def test_stab_chain_on_tuples_agrees_with_the_layered_engine(grig):
    # Grigorchuk level 9 has 512 points, past BYTE_POINTS: the chain works on
    # tuples.  Each subgroup is generated by two or three random conjugates
    # of b, c or d.
    rng = random.Random(40)
    n, npoints = 9, 2**9

    def conjugate():
        u = random_word(grig, rng, 8)
        return u * Word.from_str(grig, rng.choice("bcd")) * u.inverse()

    for words in [[conjugate() for _ in range(k)] for k in (2, 2, 3, 3)]:
        chain, layered = StabChain(npoints, [word_perm(w, n) for w in words]), image_subgroup(words, n)
        assert type(chain._one) is tuple
        assert chain.order() == layered.order()
        for _ in range(6):
            member = Word(grig, [f for _ in range(5) for f in grig.decode(rng.choice(words).factors)])
            assert chain.contains(word_perm(member, n)) and layered.contains(word_perm(member, n))
            x = word_perm(random_word(grig, rng, 12), n)
            assert chain.contains(x) == layered.contains(x)
        x = list(range(npoints))
        rng.shuffle(x)
        assert not chain.contains(x) and not layered.contains(x)


@pytest.mark.parametrize("spec", [HANOI, RANDOM_DEGREE_3], ids=["hanoi", "random-degree-3"])
def test_stab_chain_on_bytes_matches_closure(spec):
    # Level 2 has 9 points: the chain works on bytes, and the closure of the
    # generator images is the oracle, for the whole quotient and for
    # subgroups of two random words.
    preset = preset_from_dict(spec)
    rng = random.Random(41)
    n, npoints = 2, 9
    groups = [(full_level_group(preset, n), [word_perm(Word.generator(preset, g), n) for g in preset.gen_names])]
    for _ in range(4):
        words = [_random_letters_word(preset, rng, 5) for _ in range(2)]
        groups.append((image_subgroup(words, n), [word_perm(w, n) for w in words]))
    for chain, gens in groups:
        assert isinstance(chain, StabChain) and type(chain._one) is bytes
        closure = brute_closure(gens, npoints)
        assert chain.order() == len(closure)
        assert all(chain.contains(x) for x in closure)
        for _ in range(100):
            x = list(range(npoints))
            rng.shuffle(x)
            assert chain.contains(x) == (tuple(x) in closure)


@pytest.mark.parametrize("spec", ["grigorchuk", "gupta-sidki", "ggs:4:1,0,0", HANOI],
                         ids=["grig", "gs", "ggs4", "hanoi"])
def test_the_engine_is_chosen_once_per_preset(monkeypatch, spec):
    # The engine fact lives on the preset: computed on the first image, read
    # by every later one, and dropped with the preset.
    import gc
    import weakref

    from branchgroups import presets

    checked = []
    fact = vars(presets.GroupPreset)["is_p_preset"]
    monkeypatch.setattr(fact, "func", lambda preset, func=fact.func: checked.append(preset.degree) or func(preset))
    preset = builtin_preset(spec) if isinstance(spec, str) else preset_from_dict(spec)
    rng = random.Random(42)
    for _ in range(30):
        words = [_random_letters_word(preset, rng, 6) for _ in range(rng.randrange(1, 3))]
        image_subgroup(words, rng.randrange(4))
    assert checked == [preset.degree]
    assert all(isinstance(key, int) for key in preset._perm_cache)
    dropped = weakref.ref(preset)
    del preset, words
    gc.collect()
    assert dropped() is None


def test_quotient_order_takes_the_generator_images_as_they_are(monkeypatch):
    # The level-n generator images are permutations already: a quotient
    # order builds no word and no word image, on the layered engine and on
    # the stabilizer chain (Hanoi).
    cases = [(builtin_preset(name), n, orders.get(n, 1))
             for name, orders in (("grigorchuk", GRIG_ORDERS), ("gupta-sidki", GS_ORDERS)) for n in (0, 2, 4)]
    cases.append((preset_from_dict(HANOI), 2, 2**3 * 3**4))
    calls = {"Word": 0, "word_perm": 0}
    word_init = Word.__init__

    def counted_init(self, *args, **kw):
        calls["Word"] += 1
        word_init(self, *args, **kw)

    def counted_word_perm(*args):
        calls["word_perm"] += 1
        return word_perm(*args)

    monkeypatch.setattr(Word, "__init__", counted_init)
    monkeypatch.setattr(quotients, "word_perm", counted_word_perm)
    assert [quotient_order(preset, n) for preset, n, _ in cases] == [order for *_, order in cases]
    assert calls == {"Word": 0, "word_perm": 0}


def _last_layer_candidates(members, p, rng, count):
    """Members of St(n-1) changed in at most one place: a last-layer block's
    second and third leaves swapped (its first leaf, which gives its digit,
    stays), two sibling blocks traded, or a block turned."""
    out = []
    for _ in range(count):
        x = list(rng.choice(members))
        i = rng.randrange(len(x) // p**2) * p**2  # the first leaf below a level-(n-2) vertex
        j, k = rng.sample(range(i, i + p * p, p), 2)  # two of its blocks
        kind = rng.randrange(4)
        if kind == 1:
            x[j + 1], x[j + 2] = x[j + 2], x[j + 1]
        elif kind == 2:
            x[j : j + p], x[k : k + p] = x[k : k + p], x[j : j + p]
        elif kind == 3:
            x[j : j + p] = x[j + 1 : j + p] + x[j : j + 1]
        out.append(tuple(x))
    return out


def test_layered_membership_of_last_layer_residues_matches_closure(gs):
    # `contains` refuses a residue that no last-layer rotation gives; the
    # closure of the generator images is the oracle.
    rng = random.Random(26)
    for n in (2, 3):
        group = full_level_group(gs, n)
        closure = brute_closure([tuple(g) for g in group.gens], 3**n)
        fixing = [x for x in closure if all(y // 3 == i // 3 for i, y in enumerate(x))]
        candidates = _last_layer_candidates(fixing, 3, rng, 300)
        assert any(x in closure for x in candidates) and not all(x in closure for x in candidates)
        assert [group.contains(x) for x in candidates] == [x in closure for x in candidates]


def test_layered_membership_refuses_non_rotations_on_tuples(gs):
    # Past 256 points: two leaves of one last-layer block swapped, or two
    # blocks traded, is no element of G.
    rng = random.Random(27)
    group = full_level_group(gs, 6)
    identity = tuple(range(3**6))
    for x in _last_layer_candidates([identity], 3, rng, 60):
        moved = [i for i in range(len(x)) if x[i] != i]
        if not moved:
            assert group.contains(x)
        elif len(moved) == 2 or any(x[i] // 3 != i // 3 for i in moved):
            assert not group.contains(x)


# Fresh presets, so that every letter table is built here.  Grigorchuk
# level 9 and Gupta-Sidki level 6 are past 256 points, on tuples.
LETTER_TABLE_CASES = [
    ("grigorchuk", 9), ("gupta-sidki", 6), ("ggs:5:1,0,0,1", 3),
    (HANOI, 4), (RANDOM_DEGREE_3, 4), (ADDING_MACHINE, 4),
]


@pytest.mark.parametrize(
    "spec, top", LETTER_TABLE_CASES,
    ids=["grig", "gs", "ggs5", "hanoi", "random-degree-3", "adding-machine"],
)
def test_letter_tables_match_the_vertex_action(spec, top):
    preset = builtin_preset(spec) if isinstance(spec, str) else preset_from_dict(spec)
    for n in range(top + 1):
        verts = level_vertices(preset.degree, n)
        index = {v: i for i, v in enumerate(verts)}
        letters = quotients._letters(preset, n)
        for g in preset.gen_names:
            for e in (1, -1):
                img, w = letters[g, e], Word(preset, ((g, e),))
                assert type(img) is (bytes if len(verts) <= 256 else tuple)
                assert list(img) == [index[w.apply(v)] for v in verts]


@pytest.mark.parametrize("spec, text", [("grigorchuk", "a b a c a d"), ("gupta-sidki", "a b^2 a^2 b")])
def test_letter_tables_build_each_entry_once(monkeypatch, spec, text):
    # A level's generator images are built when it is first read, an inverse
    # when it is; every later read returns the same object.
    preset = builtin_preset(spec)
    quotient_order(preset, 6)
    first = {n: dict(quotients._letters(preset, n)) for n in range(7)}
    assert all(set(first[n]) == {(g, 1) for g in preset.gen_names} for n in range(7))
    assert set(preset._perm_cache) == set(range(7))
    inverses = []
    perm_inverse = quotients.perm_inverse
    monkeypatch.setattr(quotients, "perm_inverse", lambda p: inverses.append(p) or perm_inverse(p))
    w = Word.from_str(preset, text)
    for n in range(7):
        word_perm(w, n)
        table = quotients._letters(preset, n)
        assert all(table[k] is img for k, img in first[n].items())
        for g in preset.gen_names * 2:
            assert list(compose(table[g, -1], table[g, 1])) == list(range(preset.degree**n))
    assert len(inverses) == 7 * len(preset.gen_names)  # one per letter and level


def _naive_stabilizer_words(preset, v):
    # Every Schreier word in full: each inverse from rep.inverse(), tree edges included.
    gens = [Word.generator(preset, g) for g in preset.gen_names]
    reps = orbit_transversal(preset, v)
    invs = {u: rep.inverse() for u, rep in reps.items()}
    out, seen = [], set()
    for u in sorted(reps):
        for g in gens:
            word = invs[g.apply(u)] * g * reps[u]
            if word.factors and word.factors not in seen:
                seen.add(word.factors)
                out.append(word)
    return out


@pytest.mark.parametrize("spec, v", [
    ("grigorchuk", (0, 1, 1, 0, 1, 1)), ("gupta-sidki", (2, 0, 1, 1)), ("ggs:5:1,0,0,1", (3, 1)),
    (HANOI, (1, 2, 0)), (RANDOM_DEGREE_3, (2, 1, 1)),
], ids=["grig", "gs", "ggs5", "hanoi", "random-degree-3"])
def test_point_stabilizer_words_match_the_full_products(spec, v):
    preset = builtin_preset(spec) if isinstance(spec, str) else preset_from_dict(spec)
    assert [w.factors for w in point_stabilizer_words(preset, v)] == [
        w.factors for w in _naive_stabilizer_words(preset, v)
    ]


@pytest.mark.parametrize("change, issue", [
    (dict(lift_index=2), "bad-branch-index at |G:K'| and |K':L|: shipped 16 and 2, derived 16 and 4"),
    (dict(drop="a b a b"), "bad-lift-table at lift table: the keys are not the Schreier generators"),
    (dict(swap="c a b a d"),
     "bad-lift at lift entry 0 of c a b a d: b a b a d a b a c: its section at 0 is not c a b a d"),
])
def test_branch_data_check_names_what_is_wrong(monkeypatch, change, issue):
    from branchgroups import branching

    data = branching.BRANCH_DATA["grigorchuk"]
    lifts = {k: v for k, v in data.lifts.items() if k != change.get("drop")}
    if "swap" in change:
        lifts[change["swap"]] = lifts[change["swap"]][::-1]
    corrupted = branching.BranchData(data.m, data.index, change.get("lift_index", data.lift_index), lifts)
    monkeypatch.setattr(branching, "BRANCH_DATA", dict(branching.BRANCH_DATA, grigorchuk=corrupted))
    _, [found] = check(builtin_preset("grigorchuk"))
    assert f"{found.code} at {found.location}: {found.message}".startswith(issue)
