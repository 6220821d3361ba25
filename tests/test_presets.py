import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.presets import (
    GeneratorRecursion,
    GroupPreset,
    PresetError,
    builtin_preset,
    ggs_preset,
    grigorchuk_preset,
    gupta_sidki_preset,
    load_preset,
    preset_from_dict,
    save_preset,
    validate_preset,
)
from branchgroups.words import expand_factors

from conftest import HANOI, RANDOM_DEGREE_3


def test_grigorchuk_shape(grig):
    assert grig.degree == 2
    assert grig.gen_names == ("a", "b", "c", "d")
    assert grig.gen_order == {"a": 2, "b": 2, "c": 2, "d": 2}
    assert grig.contracting_certified
    assert validate_preset(grig) == []


def test_reduction_involutions(grig):
    assert grig.reduce([("a", 1), ("a", 1)]) == ()
    assert grig.reduce([("a", 3)]) == (("a", 1),)
    assert grig.reduce([("b", -1)]) == (("b", 1),)


def test_reduction_klein_table(grig):
    # bc = cb = d, bd = db = c, cd = dc = b
    assert grig.reduce([("b", 1), ("c", 1)]) == (("d", 1),)
    assert grig.reduce([("c", 1), ("b", 1)]) == (("d", 1),)
    assert grig.reduce([("b", 1), ("d", 1)]) == (("c", 1),)
    assert grig.reduce([("c", 1), ("d", 1)]) == (("b", 1),)
    # cascades: b c d -> d d -> 1
    assert grig.reduce([("b", 1), ("c", 1), ("d", 1)]) == ()


def test_parse_word_forms(grig):
    assert grig.parse_word("a b a") == (("a", 1), ("b", 1), ("a", 1))
    assert grig.parse_word("abab") == (("a", 1), ("b", 1), ("a", 1), ("b", 1))
    assert grig.parse_word("a^2") == ()
    assert grig.parse_word("a^-1") == (("a", 1),)
    assert grig.parse_word("1") == ()
    assert grig.parse_word("") == ()
    with pytest.raises(PresetError):
        grig.parse_word("x")
    with pytest.raises(PresetError):
        grig.parse_word("a^q")


def test_format_factors(grig):
    assert grig.format_factors(()) == "1"
    assert grig.format_factors((("a", 1), ("b", -2))) == "a b^-2"


def test_serialization_round_trip(grig, tmp_path):
    path = tmp_path / "grig.json"
    save_preset(grig, path)
    loaded = load_preset(path)
    assert loaded.fingerprint() == grig.fingerprint()
    assert loaded.to_dict() == grig.to_dict()


def test_fingerprint_sensitivity(grig):
    other = gupta_sidki_preset()
    assert grig.fingerprint() != other.fingerprint()
    assert len(grig.fingerprint()) == 16


def test_builtin_lookup():
    assert builtin_preset("grigorchuk").name == "grigorchuk"
    assert builtin_preset("gupta-sidki").degree == 3
    p = builtin_preset("ggs:5:1,0,0,1")
    assert p.degree == 5
    with pytest.raises(PresetError):
        builtin_preset("nope")
    with pytest.raises(PresetError):
        builtin_preset("ggs:3:1")


def test_ggs_structure(gs):
    assert gs.degree == 3
    a, b = gs.generators
    assert a.root_perm == (1, 2, 0)
    assert b.root_perm == (0, 1, 2)
    # E = (1, -1): sections a, a^2, b
    assert b.sections == ((("a", 1),), (("a", 2),), (("b", 1),))
    assert gs.gen_order == {"a": 3, "b": 3}
    assert validate_preset(gs) == []


def test_ggs_degree_five(ggs5):
    assert ggs5.degree == 5
    # Every GGS group is a bounded automaton group, so contracting.
    assert ggs5.contracting_certified and ggs_preset(5, (1, 2, 3, 4)).contracting_certified
    assert validate_preset(ggs5) == []
    b = ggs5.gen_map["b"]
    assert b.sections == ((("a", 1),), (), (), (("a", 1),), (("b", 1),))


def test_ggs_rejects_bad_vector():
    with pytest.raises(PresetError):
        ggs_preset(3, (1,))
    with pytest.raises(PresetError):
        ggs_preset(1, ())


def test_validate_preset_reports_issues():
    bad = GroupPreset(
        degree=2,
        generators=(
            GeneratorRecursion("a", (0, 0), ((), ())),
            GeneratorRecursion("a", (0, 1), ((),)),
        ),
        reduction_rules=(((("z", 1),), ()), ((("a", 1),), (("a", 1), ("a", 1)))),
        branching_generators=((("q", 1),),),
    )
    codes = {i.code for i in validate_preset(bad)}
    assert "duplicate-name" in codes
    assert "not-a-permutation" in codes
    assert "wrong-section-count" in codes
    assert "unknown-symbol" in codes
    assert "length-increasing-rule" in codes


def test_preset_from_dict_rejects_garbage():
    with pytest.raises(PresetError):
        preset_from_dict({"generators": []})


def test_preset_from_dict_lists_every_issue(grig):
    data = grig.to_dict()
    data["generators"][0]["root_perm"] = [0, 0]
    data["generators"][1]["sections"] = ["a"]
    with pytest.raises(PresetError) as exc:
        preset_from_dict(data)
    assert str(exc.value) == (
        "invalid preset: not-a-permutation at generator a: root_perm (0, 0) is not a"
        " bijection of 0..1; wrong-section-count at generator b: expected 2 sections, got 1"
    )


def test_definition_file_round_trip_computes(tmp_path, grig):
    # a preset loaded from its file computes identically
    path = tmp_path / "g.json"
    save_preset(grig, path)
    loaded = load_preset(path)
    from branchgroups.words import Word

    assert Word.from_str(loaded, "a b").order() == 16


# -- one-pass reduction against the multi-pass reducer ---------------------


def multipass_reduce(preset, factors):
    """The reducer as it was before the one-pass rewrite: merge adjacent
    factors mod the declared orders, then rewrite non-overlapping pairs left
    to right, and repeat until a pass changes nothing."""
    syl = [(g, e) for g, e in factors if e != 0]
    orders, table = preset.gen_order, preset.pair_table
    while True:
        changed = False
        merged = []
        for g, e in syl:
            if merged and merged[-1][0] == g:
                e += merged.pop()[1]
                changed = True
            o = orders.get(g)
            if o is not None and e % o != e:
                e %= o
                changed = True
            if e:
                merged.append((g, e))
            else:
                changed = True
        rewritten, i = [], 0
        while i < len(merged):
            if i + 1 < len(merged) and (merged[i], merged[i + 1]) in table:
                rewritten.extend(table[(merged[i], merged[i + 1])])
                i += 2
                changed = True
            else:
                rewritten.append(merged[i])
                i += 1
        syl = rewritten
        if not changed:
            return tuple(syl)


# Hanoi has only order rules and RANDOM_DEGREE_3 no rules at all.
ORACLE_PRESETS = {
    "grigorchuk": grigorchuk_preset(),
    "gupta-sidki": gupta_sidki_preset(),
    "ggs5": ggs_preset(5, (1, 0, 0, 1)),
    "hanoi": preset_from_dict(HANOI),
    "random-degree-3": preset_from_dict(RANDOM_DEGREE_3),
}


def merging_rules_preset():
    """A rule set, not a group: generators of order 3 whose pair rule fires
    only after two factors merge, and a right-hand side of two factors."""
    return preset_from_dict(
        {
            "degree": 2,
            "generators": [
                {"name": "x", "root_perm": [0, 1], "sections": ["1", "1"]},
                {"name": "y", "root_perm": [0, 1], "sections": ["1", "1"]},
            ],
            "rules": [
                {"lhs": "x^3", "rhs": "1"},
                {"lhs": "y^3", "rhs": "1"},
                {"lhs": "x^2 y", "rhs": "y x"},
            ],
        }
    )


def factor_lists(preset, max_size=60):
    factor = st.tuples(st.sampled_from(preset.gen_names), st.integers(-4, 4))
    return st.lists(factor, max_size=max_size)


@st.composite
def preset_and_factors(draw, presets, count=1):
    preset = presets[draw(st.sampled_from(sorted(presets)))]
    return (preset, *(draw(factor_lists(preset)) for _ in range(count)))


def test_rule_right_hand_side_keeps_its_order():
    p = merging_rules_preset()
    assert p.reduce([("x", 2), ("y", 1)]) == (("y", 1), ("x", 1))
    assert p.reduce([("x", 1), ("x", 1), ("y", 1)]) == (("y", 1), ("x", 1))
    assert p.product((("x", 1),), (("x", 1), ("y", 1))) == (("y", 1), ("x", 1))


# Expansions on merging_rules_preset's rules, with sections that feed them.
# The rules hold in no group, so the result depends on the order the
# rewrite loop applies them in and no section oracle can check it: these
# pin that order.
MERGING_EXPANSIONS = [
    ("x", "x", (0, 1), ["x", "x y"]),
    ("y", "y", (1, 0), ["x^2", "y x"]),
    ("x^2", "x^2", (0, 1), ["x^2", "x y x y"]),
    ("y^2", "y^2", (0, 1), ["y", "y x^2"]),
    ("x y", "x y", (1, 0), ["x y x^2", "x y x"]),
    ("y x", "y x", (1, 0), ["1", "y^2 x"]),
    ("x^2 y", "y x", (1, 0), ["1", "y^2 x"]),
    ("y^2 x", "y^2 x", (0, 1), ["y x", "y^2"]),
    ("x y x y", "x y x y", (0, 1), ["x y^2", "x y^2 x"]),
    ("y x^2 y", "y^2 x", (0, 1), ["y x", "y^2"]),
    ("x^-1 y^-1 x y", "x^2 y^2 x y", (1, 0), ["x y", "y^2 x^2"]),
    ("x y^2 x^2 y", "x^2", (0, 1), ["x^2", "x y x y"]),
    ("y x^2 y x^2", "y^2", (0, 1), ["y", "y x^2"]),
    ("x^2 y x^2 y x^2 y", "x", (0, 1), ["x", "x y"]),
    ("y^2 x y^2 x y^2 x", "y^2 x y^2 x y^2 x", (0, 1), ["y x y x y x", "1"]),
]


def test_expansions_under_merging_rules_are_pinned():
    data = merging_rules_preset().to_dict()
    data["generators"] = [
        {"name": "x", "root_perm": [0, 1], "sections": ["x", "x y"]},
        {"name": "y", "root_perm": [1, 0], "sections": ["x^2", "y x"]},
    ]
    p = preset_from_dict(data)
    for text, reduced, perm, sections in MERGING_EXPANSIONS:
        factors = p.parse_word(text)
        assert p.format_factors(factors) == reduced
        got_perm, got_sections = expand_factors(p, factors)
        assert (got_perm, [p.format_factors(s) for s in got_sections]) == (perm, sections)


@settings(max_examples=300, deadline=None)
@given(preset_and_factors(ORACLE_PRESETS))
def test_reduce_matches_multipass_oracle(case):
    preset, factors = case
    reduced = preset.reduce(factors)
    assert reduced == multipass_reduce(preset, factors)
    assert all(preset.letters[f] is f for f in reduced)


@settings(max_examples=300, deadline=None)
@given(preset_and_factors({**ORACLE_PRESETS, "merging": merging_rules_preset()}, count=2))
def test_product_matches_reduce_of_concatenation(case):
    # Both push u unchanged and then v; product skips the part of v that
    # reduce would push unchanged, so they agree on any rule set.
    preset, f, g = case
    u, v = preset.reduce(f), preset.reduce(g)
    uv = preset.product(u, v)
    assert uv == preset.reduce(u + v)
    assert all(preset.letters[x] is x for x in uv)
    assert preset.product(u, ()) == u and preset.product((), v) == v
    if preset.name:
        # a shipped group: u·u⁻¹ cancels completely
        u_inv = preset.reduce(tuple((x, -e) for x, e in reversed(u)))
        assert preset.product(u, u_inv) == ()


def test_reduce_rejects_unknown_generator_only_when_it_acts(grig):
    assert grig.reduce([("a", 1), ("z", 0)]) == (("a", 1),)
    with pytest.raises(PresetError, match="unknown generator"):
        grig.reduce([("a", 1), ("z", 2)])


def cycling_preset():
    return preset_from_dict(
        {
            "degree": 2,
            "generators": [
                {"name": "x", "root_perm": [1, 0], "sections": ["1", "1"]},
                {"name": "y", "root_perm": [0, 1], "sections": ["1", "1"]},
            ],
            "rules": [{"lhs": "x y", "rhs": "y x"}, {"lhs": "y x", "rhs": "x y"}],
        }
    )


def test_cycling_rules_raise_instead_of_hanging():
    p = cycling_preset()
    with pytest.raises(PresetError, match="did not terminate"):
        p.reduce([("x", 1), ("y", 1)])
    with pytest.raises(PresetError, match="did not terminate"):
        p.product((("y", 1),), (("x", 1),))
    with pytest.raises(PresetError, match="did not terminate"):
        p.parse_word("x y")


def test_bad_exponent_raises_preset_error_in_both_parsers(grig):
    with pytest.raises(PresetError, match="bad exponent"):
        grig.parse_word("a^x")
    data = grig.to_dict()
    data["branching"] = ["a b^x"]
    with pytest.raises(PresetError, match="bad exponent"):
        preset_from_dict(data)

