from itertools import islice

import pytest

from branchgroups import quotients
from branchgroups.branching import BRANCH_DATA
from branchgroups.construction import (
    _CANDIDATES_PER_VERTEX,
    CertificateBuildError,
    CertificateStage,
    WMCertificate,
    _avoided_vertex,
    _stage_skeleton,
    build_certificate,
    finite_subgroup_elements,
    fix_separation_witness,
    iter_rist_elements,
    level_trap_check,
    parabolic_approximation,
    transporter_word,
    trap_subgroup,
    validate_certificate,
)
from branchgroups.presets import builtin_preset, grigorchuk_preset, preset_from_dict
from branchgroups.quotients import LayeredGroup, StabChain, conjugate_images, image_subgroup, word_perm
from branchgroups.subgroups import SubgroupHandle, in_rigid_stabilizer, minimal_non_fixing_level
from branchgroups.tree import level_vertices, parse_vertex
from branchgroups.words import DEFAULT_SEARCH_BUDGET, BudgetExhausted, Word
from conftest import DOUBLING, HANOI, RANDOM_DEGREE_3, normal_closure


def Q_a(preset):
    return SubgroupHandle.from_strings(preset, ["a"])


def _first_rist(v, preset, budget=DEFAULT_SEARCH_BUDGET):
    """The first element of Rist(v) that `wm rist-search` reports, or None."""
    return next(iter_rist_elements(v, preset, budget), None)


REFERENCE_SEEDS = [parse_vertex(s, 2) for s in ("00", "01", "10")]


# -- transporters ----------------------------------------------------------


def test_transporter_moves_vertex(grig):
    for u, v in [((0,), (1,)), ((0, 0), (1, 1)), ((0, 1, 0), (1, 0, 1))]:
        m = transporter_word(grig, u, v)
        assert m is not None and m.apply(u) == v
    assert transporter_word(grig, (0,), (0,)).is_identity()
    with pytest.raises(ValueError):
        transporter_word(grig, (0,), (0, 0))


# -- rigid-stabilizer search ----------------------------------------------


def test_rist_search_grigorchuk_all_vertices(grig):
    for k in (1, 2, 3):
        for v in level_vertices(2, k):
            g = _first_rist(v, grig)
            assert g is not None
            assert in_rigid_stabilizer(g, v)
            assert not g.is_identity()


def test_rist_search_level_four(grig):
    v = parse_vertex("1000", 2)
    g = _first_rist(v, grig)
    assert g is not None and in_rigid_stabilizer(g, v)


def test_rist_search_gupta_sidki(gs):
    for vstr in ("0", "2", "01"):
        v = parse_vertex(vstr, 3)
        g = _first_rist(v, gs, budget=6000)
        assert g is not None and in_rigid_stabilizer(g, v)


def test_rist_search_zero_budget(grig):
    p = grigorchuk_preset()  # fresh preset: no warm cache
    assert _first_rist((0,), p, budget=0) is None


def test_rist_search_does_not_depend_on_earlier_budgets():
    # A stream grown under a larger budget must not serve a smaller one.
    fresh = _first_rist((0, 0, 0), grigorchuk_preset(), budget=1)
    p = grigorchuk_preset()
    assert _first_rist((0, 0, 0), p, budget=4000) is not None
    assert _first_rist((0, 0, 0), p, budget=1) == fresh
    assert fresh is None


def test_iter_rist_yields_distinct_verified(grig):
    got = []
    for g in iter_rist_elements((1,), grig):
        got.append(g)
        if len(got) >= 3:
            break
    assert len(got) == 3
    assert len({g.factors for g in got}) == 3
    for g in got:
        assert in_rigid_stabilizer(g, (1,))


def test_rist_search_rejects_root(grig):
    with pytest.raises(ValueError):
        _first_rist((), grig)


# -- level trap ------------------------------------------------------------


def test_trap_pipeline_k1(grig):
    h = trap_subgroup(grig, 1)
    report = level_trap_check(h, 1)
    assert report.passed
    assert report.to_dict()["no_fixed_vertex_at_k_plus_1"]


def test_trap_pipeline_k2(grig):
    h = trap_subgroup(grig, 2)
    assert level_trap_check(h, 2).passed


def test_a_spent_trap_search_builds_no_level_image_above_m(monkeypatch):
    # |G_5| and |G_4| come from the branch recursion over |G_3|
    levels, build = [], quotients.full_level_group

    def record(preset, n):
        levels.append(n)
        return build(preset, n)

    monkeypatch.setattr(quotients, "full_level_group", record)
    with pytest.raises(BudgetExhausted):
        trap_subgroup(grigorchuk_preset(), 4, budget=1)
    assert levels and max(levels) <= BRANCH_DATA["grigorchuk"].m


def test_trap_check_fails_on_moving_generator(grig):
    report = level_trap_check(Q_a(grig), 1)
    assert not report.stabilizes_level
    assert report.moving_witness


def test_trap_check_moving_witness_pinned(grig, gs):
    # Strings taken from the per-vertex loop the fixed-tree walk replaced.
    h = SubgroupHandle.from_strings(grig, ["d", "a d a"])
    assert level_trap_check(h, 3).moving_witness == "d moves 100"
    h = SubgroupHandle.from_strings(grig, ["b a b a", "d"])
    assert level_trap_check(h, 3).moving_witness == "b a b a moves 000"
    h = SubgroupHandle.from_strings(gs, ["b a b a a", "a b a a"])
    assert level_trap_check(h, 2).moving_witness == "b a b a^2 moves 00"


def test_trap_check_fails_on_fixed_vertex(grig):
    h = SubgroupHandle.from_strings(grig, ["b", "c", "d"])
    report = level_trap_check(h, 1)
    assert report.stabilizes_level
    assert not report.no_fixed_vertex
    assert report.fixed_witness


# -- finite subgroup closure ----------------------------------------------


def test_finite_subgroup_elements(grig):
    elems = finite_subgroup_elements(Q_a(grig))
    assert sorted(str(e) for e in elems) == ["1", "a"]
    klein = finite_subgroup_elements(
        SubgroupHandle.from_strings(grig, ["b", "c"])
    )
    assert sorted(str(e) for e in klein) == ["1", "b", "c", "d"]


def test_finite_subgroup_elements_dedup_by_word_problem(grig):
    # a d a d a d a d is reduced yet trivial: <a, d> is dihedral of order 8
    elems = finite_subgroup_elements(SubgroupHandle.from_strings(grig, ["a", "d"]))
    assert len(elems) == 8
    assert [e.factors for e in elems] == sorted(e.factors for e in elems)


def test_finite_subgroup_cap(grig):
    # <a, b, c> is infinite: its closure passes the cap of 256 elements.
    with pytest.raises(ValueError, match="subgroup closure exceeds cap 256; not finite?"):
        finite_subgroup_elements(SubgroupHandle.from_strings(grig, ["a", "b", "c"]))


# -- certificates ----------------------------------------------------------


@pytest.fixture(scope="module")
def grig_cert():
    preset = grigorchuk_preset()
    return preset, build_certificate(Q_a(preset), REFERENCE_SEEDS)


def test_certificate_stages(grig_cert):
    _, cert = grig_cert
    assert cert.verification_level == 6
    assert [h.label for h in cert.avoid] == ["stab-00", "stab-01", "stab-10"]
    assert [_avoided_vertex(h, 2) for h in cert.avoid] == [
        s + (0,) * (6 - len(s)) for s in REFERENCE_SEEDS
    ]
    assert [s.k for s in cert.stages] == [2, 3, 4]
    assert ["".join(map(str, s.v)) for s in cert.stages] == ["00", "010", "1000"]
    assert ["".join(map(str, s.u)) for s in cert.stages] == ["01", "011", "0110"]


def test_certificate_validates(grig_cert):
    preset, cert = grig_cert
    report = validate_certificate(cert, preset)
    assert report.passed, [c.to_dict() for c in report.clauses if not c.passed]
    names = [c.name for c in report.clauses]
    assert "normal-closure-equality" in names
    assert report.verification_level >= 4


@pytest.fixture(scope="module")
def hanoi_cert():
    preset = preset_from_dict(HANOI)
    return preset, build_certificate(Q_a(preset), [(2,)])


def test_certificate_validation_asks_no_handle_for_membership(grig_cert, hanoi_cert, monkeypatch):
    # Avoidance reads the vertex each label names, and normal-closure
    # equality follows from exact clauses: no handle sifts, builds a level
    # image or walks a fixed tree, and no level image is built at all, past
    # the word_perm buckets of finite_subgroup_elements.  Hanoi is no
    # p-preset, so a level image of it would be a StabChain.
    calls = []
    for name in ("contains_at_level", "image", "fixed_points"):
        monkeypatch.setattr(SubgroupHandle, name, lambda *args, _name=name: calls.append(_name))
    for cls in (StabChain, LayeredGroup):
        def recording(self, *args, _name=cls.__name__, _init=cls.__init__, **kwargs):
            calls.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    for preset, cert in (grig_cert, hanoi_cert):
        assert validate_certificate(cert, preset).passed
    assert calls == []


@pytest.fixture(scope="module")
def gs_cert():
    preset = builtin_preset("gupta-sidki")
    return preset, build_certificate(Q_a(preset), [(0,)], rist_budget=4000)


# name -> (certificate fixture, change to the certificate, |ncl|, whether it is |H_m meet Stab(k1)|)
NORMAL_CLOSURE_CASES = {
    "reference": ("grig_cert", lambda G, c: c, 4096, True),
    "first-stage": ("grig_cert", lambda G, c: _tampered(c, stages=c.stages[:1], avoid=c.avoid[:1]), 16, True),
    "gupta-sidki": ("gs_cert", lambda G, c: c, 27, True),
    "hanoi": ("hanoi_cert", lambda G, c: c, 408146688, True),
    "q-a-d": ("grig_cert", lambda G, c: _tampered(c, q_generators=(*c.q_generators, Word.from_str(G, "d"))),
              65536, False),
}


@pytest.mark.parametrize("name", NORMAL_CLOSURE_CASES)
def test_normal_closure_equality_holds_in_the_level_quotient(name, request):
    # The identity normal-closure-equality takes from Dedekind's law, seen in
    # the level-m quotient, m = max(n, k1): the normal closure of the w_i
    # under H_m's generators, grown by the oracle, has the order of
    # H_m meet Stab(k1), |H_m| / |H_k1|.  The reference stages under
    # Q = <a, d>, which meets Stab(2) in (a d)^2 = (b, b), fall short, and
    # the clause fails with q-meets-stabilizer-trivially.
    which, change, ncl_order, equal = NORMAL_CLOSURE_CASES[name]
    preset, cert = request.getfixturevalue(which)
    cert = change(preset, cert)
    k1 = cert.stages[0].k
    m = max(cert.verification_level, k1)
    h_m = image_subgroup(list(cert.q_generators) + [s.w for s in cert.stages], m)
    ncl = normal_closure([word_perm(s.w, m) for s in cert.stages], h_m.gens, preset.degree**m)
    assert ncl.order() == ncl_order
    assert (ncl.order() == h_m.order() // h_m.order(k1)) is equal
    clauses = {c.name: c.passed for c in validate_certificate(cert, preset).clauses}
    assert clauses["normal-closure-equality"] is clauses["q-meets-stabilizer-trivially"] is equal


def test_certificate_json_round_trip(grig_cert):
    preset, cert = grig_cert
    again = WMCertificate.from_json(cert.to_json(), preset)
    assert again.to_json() == cert.to_json()
    assert validate_certificate(again, preset).passed


def _tampered(cert, **changes) -> WMCertificate:
    """cert with the named constructor fields replaced."""
    return WMCertificate(**{**vars(cert), **changes})


def test_certificate_tampered_word_fails(grig_cert):
    preset, cert = grig_cert
    s0 = cert.stages[0]
    bad = _tampered(
        cert,
        stages=(CertificateStage(s0.v, Word.from_str(preset, "b"), s0.u),) + cert.stages[1:],
    )
    report = validate_certificate(bad, preset)
    assert not report.passed
    failed = {c.name for c in report.clauses if not c.passed}
    assert "stage-1-rigid-stabilizer" in failed


def test_certificate_stage_word_inside_avoid_fails_through_chain(grig_cert):
    # A product of W_1's generators fixes x_1 = 000000, the vertex that
    # W_1's label names; the predicate refutes it and builds no level image.
    preset, cert = grig_cert
    data = cert.to_dict()
    gens = data["avoid"][0]["generators"]
    data["stages"][0]["w"] = str(Word.from_str(preset, gens[0]) * Word.from_str(preset, gens[1]))
    bad = WMCertificate.from_dict(data, preset)
    report = validate_certificate(bad, preset)
    failed = {c.name: c.detail for c in report.clauses if not c.passed}
    assert failed["stage-1-avoidance"] == "w_1 image lies in W_1 at level 6"
    assert not bad.avoid[0]._images


def test_certificate_tampered_nesting_fails(grig_cert):
    preset, cert = grig_cert
    s1 = cert.stages[1]
    # move u_2 outside the Q-orbit subtree of u_1
    bad_u = parse_vertex("000", 2)
    bad = _tampered(
        cert, stages=(cert.stages[0], CertificateStage(s1.v, s1.w, bad_u)) + cert.stages[2:]
    )
    report = validate_certificate(bad, preset)
    failed = {c.name for c in report.clauses if not c.passed}
    assert "stage-2-u-nested" in failed


def test_certificate_wrong_fingerprint_fails(grig_cert):
    preset, cert = grig_cert
    bad = _tampered(cert, preset_fingerprint="0" * 16)
    report = validate_certificate(bad, preset)
    assert not report.passed
    assert report.clauses[0].name == "preset-fingerprint"


def test_trivial_q_rejected(grig):
    q = SubgroupHandle((Word.identity(grig),))
    with pytest.raises(CertificateBuildError):
        build_certificate(q, [parse_vertex("00", 2)])


def test_empty_avoid_list_is_refused_and_a_stageless_certificate_fails(grig_cert):
    preset, cert = grig_cert
    with pytest.raises(ValueError, match="at least one seed vertex"):
        build_certificate(Q_a(preset), [])
    report = validate_certificate(_tampered(cert, stages=(), avoid=()), preset)
    failed = [c.to_dict() for c in report.clauses if not c.passed]
    assert failed == [{"name": "levels-increase", "passed": False, "detail": "k = []"}]
    assert not report.passed


def test_an_infinite_q_fails_q_finite(grig_cert):
    preset, cert = grig_cert
    q = tuple(Word.from_str(preset, g) for g in "abc")
    report = validate_certificate(_tampered(cert, q_generators=q), preset)
    assert [(c.name, c.passed) for c in report.clauses][-1] == ("q-finite", False)
    assert report.clauses[-1].detail == "subgroup closure exceeds cap 256; not finite?"
    assert not report.passed


def test_avoid_level_must_exceed_stage_level(grig):
    with pytest.raises(CertificateBuildError):
        build_certificate(Q_a(grig), [parse_vertex("00", 2)], verification_level=2)


def _reference_avoid(preset):
    return [parabolic_approximation(preset, parse_vertex(s, 2), 6) for s in ("00", "01", "10")]


def test_stage_skeleton_needs_only_q_and_seeds(grig):
    q_elems = finite_subgroup_elements(Q_a(grig))
    skeleton = _stage_skeleton(q_elems, REFERENCE_SEEDS)
    assert [(len(v), "".join(map(str, v)), "".join(map(str, u))) for v, u in skeleton] == [
        (2, "00", "01"), (3, "010", "011"), (4, "1000", "0110"),
    ]
    padded = [_avoided_vertex(h, 2) for h in _reference_avoid(grig)]
    assert _stage_skeleton(q_elems, padded) == skeleton


def test_default_level_is_two_under_the_deepest_stage(grig):
    seeds = [parse_vertex(s, 2) for s in ("00", "01")]

    def level(q, seeds):
        return build_certificate(q, seeds).verification_level

    assert level(SubgroupHandle.from_strings(grig, ["a", "d"]), seeds) == 7
    assert level(Q_a(grig), seeds) == 5
    assert level(Q_a(grig), [parse_vertex("0000000", 2)]) == 7
    with pytest.raises(CertificateBuildError, match="stage 0"):
        level(SubgroupHandle((Word.identity(grig),)), seeds)


def test_default_level_is_capped(grig):
    # g is an involution that fixes level 8 and moves level 9, so Q = <g>
    # plans its one stage at level 9; two under it would pass the cap.
    r = next(iter_rist_elements((0,) * 5, grig))
    g = (r ** (r.order() // 2)).section((0,))
    q = SubgroupHandle((g,))
    assert [len(v) for v, _ in _stage_skeleton(finite_subgroup_elements(q), [(0,)])] == [9]
    # Level 10, the only level above the stage within the cap, reaches the search.
    with pytest.raises(CertificateBuildError, match="stage 1: no rigid-stabilizer .* at level 9"):
        build_certificate(q, [(0,)], rist_budget=50)


def test_rist_elements_off_the_avoided_ray_lie_in_the_avoid_subgroup(grig):
    # An element of Rist(y) fixes every vertex outside the subtree at y, so at
    # every level-k_i vertex but v_i the candidates fix x_i: none escapes W_i.
    padded = [_avoided_vertex(h, 2) for h in _reference_avoid(grig)]
    skeleton = _stage_skeleton(finite_subgroup_elements(Q_a(grig)), padded)
    for (v, _), x in zip(skeleton, padded):
        for y in level_vertices(2, len(v)):
            if y == v:
                continue
            candidates = list(islice(iter_rist_elements(y, grig), _CANDIDATES_PER_VERTEX))
            assert len(candidates) == _CANDIDATES_PER_VERTEX
            assert all(g.apply(x) == x for g in candidates)


# -- non-conjugacy tools ---------------------------------------------------


def test_fix_separation_witness(grig):
    h1 = trap_subgroup(grig, 1)
    h2 = SubgroupHandle.from_strings(grig, ["b", "c"])
    t = fix_separation_witness(h1, h2)
    assert t == 2


def test_fix_separation_witness_at_level_three(grig):
    trap = trap_subgroup(grig, 2)
    assert fix_separation_witness(trap, SubgroupHandle.from_strings(grig, ["b"])) == 3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trap_fixed_tree_ends_at_level_k_plus_1(grig, k):
    assert minimal_non_fixing_level(trap_subgroup(grig, k)) == k + 1


def test_fix_separation_witness_past_the_old_default_depth(grig):
    # Both fixed trees reach level 4; the witness is the deeper level 5.
    assert fix_separation_witness(trap_subgroup(grig, 4), trap_subgroup(grig, 5)) == 5


def test_fix_separation_witness_beside_an_undecided_walk():
    # <a>'s walk passes LEVEL_CAP undecided, so its fixed tree is nonempty
    # through the cap; <c> moves level 1, a witness all the same.
    doubling = preset_from_dict(DOUBLING)
    undecided = SubgroupHandle.from_strings(doubling, ["a"])
    c = SubgroupHandle.from_strings(doubling, ["c"])
    with pytest.raises(BudgetExhausted):
        minimal_non_fixing_level(undecided)
    assert fix_separation_witness(undecided, c) == fix_separation_witness(c, undecided) == 1
    with pytest.raises(BudgetExhausted):
        fix_separation_witness(undecided, undecided)


def test_fix_separation_inconclusive_for_conjugates(grig, rng):
    from conftest import random_word

    h = SubgroupHandle.from_strings(grig, ["b", "d"])
    for _ in range(5):
        g = random_word(grig, rng, 6)
        conj = h.conjugated(g)
        assert fix_separation_witness(h, conj) is None


def test_fix_separation_identical_inconclusive(grig):
    h = SubgroupHandle.from_strings(grig, ["b"])
    assert fix_separation_witness(h, h) is None


def test_conjugate_count_lower_bound_parabolic(grig):
    # The conjugate count is the number of conjugators the walk yields.
    conjugators = [c for c, _ in conjugate_images(_parabolic_words(grig, "0", 3), 3)]
    assert len(conjugators) >= 2
    assert conjugators[0] == Word.identity(grig)


def test_conjugate_count_full_group_trivial(grig):
    conjugators = [c for c, _ in conjugate_images([Word.from_str(grig, g) for g in "abcd"], 3, budget=40)]
    assert conjugators == [Word.identity(grig)]


def _parabolic_words(preset, vstr, n):
    from branchgroups.quotients import point_stabilizer_words

    v = tuple(int(c) for c in vstr) + (0,) * (n - len(vstr))
    return point_stabilizer_words(preset, v)


# -- determinism -----------------------------------------------------------


def test_certificate_build_deterministic():
    texts = []
    for _ in range(2):
        preset = grigorchuk_preset()
        texts.append(build_certificate(Q_a(preset), REFERENCE_SEEDS).to_json())
    assert texts[0] == texts[1]
