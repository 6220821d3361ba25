import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups import presets
from branchgroups.presets import (
    GeneratorRecursion,
    GroupPreset,
    PresetError,
    _preset_from_dict,
    builtin_preset,
    ggs_preset,
    grigorchuk_preset,
    gupta_sidki_preset,
    load_preset,
    preset_from_dict,
    save_preset,
    validate_preset,
)
from branchgroups.subgroups import enumerate_reduced_words
from branchgroups.words import Word, expand_factors

from conftest import ADDING_MACHINE, CHAIN, DOUBLING, HANOI, RANDOM_DEGREE_3


def test_grigorchuk_shape(grig):
    assert grig.degree == 2
    assert grig.gen_names == ("a", "b", "c", "d")
    assert grig.gen_order == {"a": 2, "b": 2, "c": 2, "d": 2}
    assert grig.contracting_certified
    assert validate_preset(grig) == []


def reduced_letters(preset, factors):
    """The (name, exponent) letters of the reduced form of factors."""
    return preset.decode(preset.reduce(factors))


def test_reduction_involutions(grig):
    assert reduced_letters(grig, [("a", 1), ("a", 1)]) == ()
    assert reduced_letters(grig, [("a", 3)]) == (("a", 1),)
    assert reduced_letters(grig, [("b", -1)]) == (("b", 1),)


def test_reduction_klein_table(grig):
    # bc = cb = d, bd = db = c, cd = dc = b
    assert reduced_letters(grig, [("b", 1), ("c", 1)]) == (("d", 1),)
    assert reduced_letters(grig, [("c", 1), ("b", 1)]) == (("d", 1),)
    assert reduced_letters(grig, [("b", 1), ("d", 1)]) == (("c", 1),)
    assert reduced_letters(grig, [("c", 1), ("d", 1)]) == (("b", 1),)
    # cascades: b c d -> d d -> 1
    assert reduced_letters(grig, [("b", 1), ("c", 1), ("d", 1)]) == ()


def test_parse_word_forms(grig):
    def parsed(text):
        return grig.decode(grig.parse_word(text))

    assert parsed("a b a") == (("a", 1), ("b", 1), ("a", 1))
    assert parsed("abab") == (("a", 1), ("b", 1), ("a", 1), ("b", 1))
    assert parsed("a^2") == ()
    assert parsed("a^-1") == (("a", 1),)
    assert parsed("1") == ()
    assert parsed("") == ()
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


def test_degree_above_ten_is_refused():
    # vertices are written one digit per letter, so letter 10 has no name
    with pytest.raises(PresetError, match=r"GGS degree must be in 2\.\.10, got 11"):
        ggs_preset(11, (1,) + (0,) * 9)
    assert validate_preset(ggs_preset(10, (1,) + (0,) * 8)) == []
    cycle = tuple((x + 1) % 11 for x in range(11))
    wide = GroupPreset(11, (GeneratorRecursion("a", cycle, ((),) * 11),), (), ())
    assert [i.code for i in validate_preset(wide)] == ["unsupported-degree"]


def test_degree_below_two_is_the_only_issue():
    # Nothing else is checked on a tree with no branching.
    line = GroupPreset(1, (GeneratorRecursion("a", (1,), ((),)),), (), ())
    assert [(i.code, i.location, i.message) for i in validate_preset(line)] == [
        ("invalid-degree", "degree", "degree 1 < 2")
    ]


# A degree-2 definition with a of order 2 and a generator b of no declared
# order, then rules whose first `reduce` never applies.
POWER = "a one-factor rule must read g^k -> 1 with k >= 2"
NEVER_APPLIED_RULES = {
    "not-a-power": ([("b^3", "b")], POWER),
    "unit-power": ([("b", "1")], POWER),
    "negative-power": ([("b^-2", "1")], POWER),
    "second-power": ([("b^3", "1"), ("b^2", "1")], "rule 2 also gives the order of b; only the last is kept"),
    "one-generator-pair": ([("b b", "1")], "both factors are powers of b, which merge before pair rules are read"),
    "pair-exponent": ([("a^3 b", "b")], "a^3 is no letter of a reduced word: its exponent must be in 1..1,"
                                        " as a has order 2"),
    "pair-inverse": ([("b a^-1", "b")], "a^-1 is no letter of a reduced word: its exponent must be in 1..1,"
                                        " as a has order 2"),
    "pair-zero": ([("b^0 a", "a")], "b^0 is no letter of a reduced word: its exponent must be nonzero"),
    "three-factors": ([("b a b", "a")], "rule lhs must have 1 or 2 factors"),
}


@pytest.mark.parametrize("name", NEVER_APPLIED_RULES)
def test_rules_that_reduce_never_applies_are_unsupported(name):
    rules, why = NEVER_APPLIED_RULES[name]
    data = {
        "degree": 2,
        "generators": [{"name": "a", "root_perm": [1, 0], "sections": ["", ""]},
                       {"name": "b", "root_perm": [0, 1], "sections": ["a", "b"]}],
        "rules": [{"lhs": "a^2", "rhs": ""}] + [{"lhs": lhs, "rhs": rhs} for lhs, rhs in rules],
    }
    issues = validate_preset(_preset_from_dict(data))
    assert [(i.code, i.location, i.message) for i in issues] == [("unsupported-rule", "rule 1", why)]
    with pytest.raises(PresetError, match="unsupported-rule"):
        preset_from_dict(data)
    data["rules"][1:] = []  # the order rule of a applies
    assert validate_preset(preset_from_dict(data)) == []


def test_a_pair_rule_that_a_later_rule_replaces_is_unsupported():
    # `reduce` keeps one rule per pair of letters, the last: rule 4, b c -> d, never applies.
    data = grigorchuk_preset().to_dict()
    data["rules"].append({"lhs": "b c", "rhs": "d"})
    issues = validate_preset(_preset_from_dict(data))
    why = "rule 10 also rewrites b c; only the last is kept"
    assert [(i.code, i.location, i.message) for i in issues] == [("unsupported-rule", "rule 4", why)]
    with pytest.raises(PresetError, match="unsupported-rule at rule 4"):
        preset_from_dict(data)


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


@pytest.mark.parametrize("path, value", [
    (("degree",), "2"), (("degree",), True), (("name",), 5), (("contracting",), 1), (("rules",), {}),
    (("branching",), [1]), (("generators",), {}), (("generators", 0), "a"), (("generators", 0, "name"), 1),
    (("generators", 0, "root_perm"), ["1", "0"]), (("generators", 0, "sections"), 5),
    (("generators", 0, "sections"), "ab"), (("rules", 0), ["a^2", "1"]), (("rules", 0, "lhs"), 2),
])
def test_preset_from_dict_refuses_a_field_of_the_wrong_json_type(grig, path, value):
    data = grig.to_dict()
    *outer, key = path
    target = data
    for k in outer:
        target = target[k]
    target[key] = value
    with pytest.raises(PresetError, match="^malformed group definition: "):
        preset_from_dict(data)


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
    orders = preset.gen_order
    table = {tuple(lhs): tuple(x for f in rhs for x in reduced_letters(preset, [f]))  # canonical letters
             for lhs, rhs in preset.reduction_rules if len(lhs) == 2}
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
    assert reduced_letters(p, [("x", 2), ("y", 1)]) == (("y", 1), ("x", 1))
    assert reduced_letters(p, [("x", 1), ("x", 1), ("y", 1)]) == (("y", 1), ("x", 1))
    uv = p.product(p.parse_word("x"), p.parse_word("x y"))
    assert p.decode(uv) == (("y", 1), ("x", 1))


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
    p = _preset_from_dict(data)  # unchecked: its rules are false in this group
    for text, reduced, perm, sections in MERGING_EXPANSIONS:
        factors = p.parse_word(text)
        assert p.format_factors(p.decode(factors)) == reduced
        node = expand_factors(p, factors)
        assert (node.perm, [p.format_factors(p.decode(s)) for s in node.sections]) == (perm, sections)


@settings(max_examples=300, deadline=None)
@given(preset_and_factors(ORACLE_PRESETS))
def test_reduce_matches_multipass_oracle(case):
    preset, factors = case
    reduced = preset.reduce(factors)
    assert preset.decode(reduced) == multipass_reduce(preset, factors)
    assert preset.reduce(preset.decode(reduced)) == reduced  # codes of canonical letters


@settings(max_examples=300, deadline=None)
@given(preset_and_factors({**ORACLE_PRESETS, "merging": merging_rules_preset()}, count=2))
def test_product_matches_reduce_of_concatenation(case):
    # Both push u unchanged and then v; product skips the part of v that
    # reduce would push unchanged, so they agree on any rule set.
    preset, f, g = case
    u, v = preset.reduce(f), preset.reduce(g)
    uv = preset.product(u, v)
    assert uv == preset.reduce(u + v)
    assert preset.reduce(preset.decode(uv)) == uv  # codes of canonical letters
    one = preset.reduce(())
    assert preset.product(u, one) == u and preset.product(one, v) == v
    if preset.name:
        # a shipped group: u·u⁻¹ cancels completely
        u_inv = preset.reduce(tuple((x, -e) for x, e in reversed(preset.decode(u))))
        assert preset.product(u, u_inv) == one


def test_reduce_rejects_unknown_generator_only_when_it_acts(grig):
    assert reduced_letters(grig, [("a", 1), ("z", 0)]) == (("a", 1),)
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
        p.product(p.reduce([("y", 1)]), p.reduce([("x", 1)]))
    with pytest.raises(PresetError, match="did not terminate"):
        p.parse_word("x y")


def test_bad_exponent_raises_preset_error_in_both_parsers(grig):
    with pytest.raises(PresetError, match="bad exponent"):
        grig.parse_word("a^x")
    data = grig.to_dict()
    data["branching"] = ["a b^x"]
    with pytest.raises(PresetError, match="bad exponent"):
        preset_from_dict(data)



# -- rules are claims --------------------------------------------------------

SHIPPED = ["grigorchuk", "gupta-sidki", "ggs:3:1,0", "ggs:5:1,0,0,1", "ggs:5:1,2,0,0", "ggs:7:1,2,3,4,5,6",
           "ggs:10:1,0,0,0,0,0,0,0,1"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_rules_hold_without_rules(name):
    # Shipped presets skip the check as they are built; every rule holds.
    assert validate_preset(builtin_preset(name)) == []


def test_a_rule_the_budget_cannot_decide_is_unchecked(monkeypatch):
    # a = (a a, a a) fixes every vertex, so a^2 -> 1 holds, but no section
    # of a^2 repeats: the word problem runs out of budget.
    monkeypatch.setattr(presets, "RULE_BUDGET", 50)
    data = {**DOUBLING, "rules": [{"lhs": "a^2", "rhs": "1"}]}
    issues = validate_preset(_preset_from_dict(data))
    assert [(i.code, i.location, i.message) for i in issues] == [
        ("unchecked-rule", "rule 0", "lhs rhs^-1 not decided within 50 sections of 50000 letters in all")]
    with pytest.raises(PresetError, match="unchecked-rule at rule 0"):
        preset_from_dict(data)


def test_a_rule_whose_sections_outgrow_the_letter_budget_is_refused_quickly():
    # a = (a b, a b) and b = (b a, b a) fix every vertex, so a^2 -> 1 holds,
    # but the one section of a^2 at each level doubles in letters: the walk
    # would run out of memory long before it spent RULE_BUDGET sections.
    data = {"degree": 2, "rules": [{"lhs": "a^2", "rhs": "1"}], "generators": [
        {"name": "a", "root_perm": [0, 1], "sections": ["a b", "a b"]},
        {"name": "b", "root_perm": [0, 1], "sections": ["b a", "b a"]}]}
    start = time.process_time()
    with pytest.raises(PresetError, match="unchecked-rule at rule 0"):
        preset_from_dict(data)
    assert time.process_time() - start < 5


def test_a_false_pair_rule_names_the_vertex_it_moves():
    data = {**HANOI, "rules": HANOI["rules"] + [{"lhs": "b c", "rhs": "a"}]}
    issues = validate_preset(_preset_from_dict(data))
    assert [(i.code, i.location, i.message) for i in issues] == [
        ("false-rule", "rule 3", "lhs rhs^-1 = b c a^-1 moves vertex 1")]


# -- the letter codes --------------------------------------------------------


@pytest.mark.parametrize("name", [*SHIPPED, "hanoi"])
def test_code_words_sort_as_their_letters(name, rng):
    # Certificates list a finite subgroup's elements in word order.
    preset = preset_from_dict(HANOI) if name == "hanoi" else builtin_preset(name)
    words = [w.factors for w in itertools.islice(enumerate_reduced_words(preset), 400)]
    names = preset.gen_names
    words += [preset.reduce([(rng.choice(names), rng.randrange(-5, 6)) for _ in range(rng.randrange(12))])
              for _ in range(400)]
    assert [preset.decode(w) for w in sorted(words)] == sorted(preset.decode(w) for w in words)


@pytest.mark.parametrize("name, text, met_first", [
    ("grigorchuk", "a b a c a d", "d c"),
    ("adding machine", "a^-1000001", "a^3 a^-7 a^1000000"),
    ("adding machine", f"a^{2 ** 40} a^-3", "a"),
    ("adding machine", f"a^{2 ** 32 + 1}", "a^2 a"),
    ("chain", "g1^300 g3^-5 g9 g2^17", "g2^7 g1^17 g5"),
])
def test_a_code_word_reads_the_same_on_another_instance(name, text, met_first):
    # Codes are a pure function of the definition, whatever letters another
    # instance met first; the chain's 1,013 letters and the adding machine's
    # undeclared order make their words tuples.
    make = {"grigorchuk": grigorchuk_preset, "adding machine": lambda: preset_from_dict(ADDING_MACHINE),
            "chain": lambda: preset_from_dict(CHAIN)}[name]
    one, other = make(), make()
    other.parse_word(met_first)
    word = one.parse_word(text)
    # Before `reduce` on other: a product must read the code word as it is.
    for g in one.gen_names:
        assert (str(Word.generator(other, g) * Word(other, word, True))
                == str(Word.generator(one, g) * Word(one, word, True)))
    assert other.reduce(word) == word and other.decode(word) == one.decode(word)
    assert str(Word(other, word)) == str(Word(one, word)) == str(Word.from_str(other, text))
    assert type(word) is (bytes if name == "grigorchuk" else tuple)
