import dataclasses

import pytest

from branchgroups.construction import (
    CertificateBuildError,
    WMCertificate,
    build_certificate,
    conjugate_count_lower_bound,
    finite_subgroup_elements,
    fix_separation_witness,
    iter_rist_elements,
    level_trap_check,
    parabolic_approximation,
    pullback_subgroup,
    rist_element_search,
    transporter_word,
    trap_subgroup,
    validate_certificate,
)
from branchgroups.presets import grigorchuk_preset
from branchgroups.subgroups import SubgroupHandle, in_rigid_stabilizer
from branchgroups.tree import level_vertices, parse_vertex
from branchgroups.words import Word


def Q_a(preset):
    return SubgroupHandle.from_strings(preset, ["a"])


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
            g = rist_element_search(v, grig)
            assert g is not None
            assert in_rigid_stabilizer(g, v)
            assert not g.is_identity()


def test_rist_search_level_four(grig):
    v = parse_vertex("1000", 2)
    g = rist_element_search(v, grig)
    assert g is not None and in_rigid_stabilizer(g, v)


def test_rist_search_gupta_sidki(gs):
    for vstr in ("0", "2", "01"):
        v = parse_vertex(vstr, 3)
        g = rist_element_search(v, gs, budget=6000)
        assert g is not None and in_rigid_stabilizer(g, v)


def test_rist_search_zero_budget(grig):
    p = grigorchuk_preset()  # fresh preset: no warm cache
    assert rist_element_search((0,), p, budget=0) is None


def test_rist_search_does_not_depend_on_earlier_budgets():
    # A stream grown under a larger budget must not serve a smaller one.
    fresh = rist_element_search((0, 0, 0), grigorchuk_preset(), budget=1)
    p = grigorchuk_preset()
    assert rist_element_search((0, 0, 0), p, budget=4000) is not None
    assert rist_element_search((0, 0, 0), p, budget=1) == fresh
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
        rist_element_search((), grig)


# -- pullback --------------------------------------------------------------


def test_pullback_full_group_is_level_stabilizer(grig):
    delta = SubgroupHandle.from_strings(
        grig, [g for g in "abcd"], membership_level=3
    )
    res = pullback_subgroup(delta, 1, 3, grig)
    assert res.handle.generators
    for w in res.handle.generators:
        assert w.fixes_level(1)
    assert res.to_dict()["under_approximation"] is True


def test_pullback_first_section_condition(grig):
    delta = SubgroupHandle.from_strings(grig, ["b", "c", "d"], membership_level=2)
    res = pullback_subgroup(delta, 1, 4, grig)
    for w in res.handle.generators:
        assert w.fixes_level(1)
        assert delta.contains_at_level(w.section((0,)))


def test_pullback_rejects_bad_levels(grig):
    delta = SubgroupHandle.from_strings(grig, ["b"], membership_level=2)
    with pytest.raises(ValueError):
        pullback_subgroup(delta, 3, 3, grig)


# -- level trap ------------------------------------------------------------


def test_trap_pipeline_k1(grig):
    h = trap_subgroup(Q_a(grig), 1, grig)
    report = level_trap_check(h, 1, 1)
    assert report.passed
    assert report.to_dict()["no_fixed_vertex_at_k_plus_l"]


def test_trap_pipeline_k2(grig):
    h = trap_subgroup(Q_a(grig), 2, grig)
    assert level_trap_check(h, 2, 1).passed


def test_trap_check_fails_on_moving_generator(grig):
    report = level_trap_check(Q_a(grig), 1, 1)
    assert not report.stabilizes_level
    assert report.moving_witness


def test_trap_check_moving_witness_pinned(grig, gs):
    # Strings taken from the per-vertex loop the fixed-tree walk replaced.
    h = SubgroupHandle.from_strings(grig, ["d", "a d a"])
    assert level_trap_check(h, 3, 1).moving_witness == "d moves 100"
    h = SubgroupHandle.from_strings(grig, ["b a b a", "d"])
    assert level_trap_check(h, 3, 1).moving_witness == "b a b a moves 000"
    h = SubgroupHandle.from_strings(gs, ["b a b a a", "a b a a"])
    assert level_trap_check(h, 2, 1).moving_witness == "b a b a^2 moves 00"


def test_trap_check_fails_on_fixed_vertex(grig):
    h = SubgroupHandle.from_strings(grig, ["b", "c", "d"])
    report = level_trap_check(h, 1, 1)
    assert report.stabilizes_level
    assert not report.no_fixed_vertex
    assert report.fixed_witness


def test_trap_check_requires_positive_l(grig):
    with pytest.raises(ValueError):
        level_trap_check(Q_a(grig), 1, 0)


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
    with pytest.raises(ValueError):
        finite_subgroup_elements(
            SubgroupHandle.from_strings(grig, ["a", "b"]), cap=16
        )


# -- certificates ----------------------------------------------------------


@pytest.fixture(scope="module")
def grig_cert():
    preset = grigorchuk_preset()
    q = SubgroupHandle.from_strings(preset, ["a"])
    avoid = [
        parabolic_approximation(preset, parse_vertex(s, 2), 6)
        for s in ("00", "01", "10")
    ]
    cert = build_certificate(q, avoid, preset, verification_level=6)
    return preset, cert


def test_certificate_stages(grig_cert):
    _, cert = grig_cert
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


def test_certificate_json_round_trip(grig_cert):
    preset, cert = grig_cert
    again = WMCertificate.from_json(cert.to_json(), preset)
    assert again.to_json() == cert.to_json()
    assert validate_certificate(again, preset).passed


def test_certificate_tampered_word_fails(grig_cert):
    preset, cert = grig_cert
    s0 = cert.stages[0]
    bad = dataclasses.replace(
        cert,
        stages=(dataclasses.replace(s0, w=Word.from_str(preset, "b")),)
        + cert.stages[1:],
    )
    report = validate_certificate(bad, preset)
    assert not report.passed
    failed = {c.name for c in report.clauses if not c.passed}
    assert "stage-1-rigid-stabilizer" in failed


def test_certificate_stage_word_inside_avoid_fails_through_chain(grig_cert):
    # A handle read from a file carries no vertex: a stage word inside W_1
    # fixes every common fixed point of W_1's generators, so only the
    # stabilizer chain of W_1's image can decide it.
    preset, cert = grig_cert
    data = cert.to_dict()
    gens = data["avoid"][0]["generators"]
    data["stages"][0]["w"] = str(Word.from_str(preset, gens[0]) * Word.from_str(preset, gens[1]))
    bad = WMCertificate.from_dict(data, preset)
    assert bad.avoid[0].vertex is None
    report = validate_certificate(bad, preset)
    failed = {c.name for c in report.clauses if not c.passed}
    assert "stage-1-avoidance" in failed
    assert 6 in bad.avoid[0]._images


def test_certificate_tampered_nesting_fails(grig_cert):
    preset, cert = grig_cert
    s1 = cert.stages[1]
    # move u_2 outside the Q-orbit subtree of u_1
    bad_u = parse_vertex("000", 2)
    bad = dataclasses.replace(
        cert,
        stages=(cert.stages[0], dataclasses.replace(s1, u=bad_u)) + cert.stages[2:],
    )
    report = validate_certificate(bad, preset)
    failed = {c.name for c in report.clauses if not c.passed}
    assert "stage-2-u-nested" in failed


def test_certificate_wrong_fingerprint_fails(grig_cert):
    preset, cert = grig_cert
    bad = dataclasses.replace(cert, preset_fingerprint="0" * 16)
    report = validate_certificate(bad, preset)
    assert not report.passed
    assert report.clauses[0].name == "preset-fingerprint"


def test_trivial_q_rejected(grig):
    q = SubgroupHandle((Word.identity(grig),))
    with pytest.raises(CertificateBuildError):
        build_certificate(q, [], grig)


def test_empty_avoid_list_gives_stageless_certificate(grig):
    cert = build_certificate(Q_a(grig), [], grig)
    assert cert.stages == ()
    assert validate_certificate(cert, grig).passed


def test_avoid_level_must_exceed_stage_level(grig):
    shallow = parabolic_approximation(grig, parse_vertex("00", 2), 2)
    with pytest.raises(CertificateBuildError):
        build_certificate(Q_a(grig), [shallow], grig)


# -- non-conjugacy tools ---------------------------------------------------


def test_fix_separation_witness(grig):
    h1 = trap_subgroup(Q_a(grig), 1, grig)
    h2 = SubgroupHandle.from_strings(grig, ["b", "c"])
    t = fix_separation_witness(h1, h2, 4)
    assert t == 2


def test_fix_separation_witness_at_level_three(grig):
    trap = trap_subgroup(Q_a(grig), 2, grig)
    assert fix_separation_witness(trap, SubgroupHandle.from_strings(grig, ["b"]), 5) == 3


def test_fix_separation_inconclusive_for_conjugates(grig, rng):
    from conftest import random_word

    h = SubgroupHandle.from_strings(grig, ["b", "d"])
    for _ in range(5):
        g = random_word(grig, rng, 6)
        conj = h.conjugated(g)
        assert fix_separation_witness(h, conj, 4) is None


def test_fix_separation_identical_inconclusive(grig):
    h = SubgroupHandle.from_strings(grig, ["b"])
    assert fix_separation_witness(h, h, 3) is None


def test_conjugate_count_lower_bound_parabolic(grig):
    h = SubgroupHandle(
        tuple(_parabolic_words(grig, "0", 3)), membership_level=3
    )
    bound = conjugate_count_lower_bound(h, 3)
    assert bound.count >= 2
    assert bound.gamma is not None
    assert len(set(bound.witness_orders)) >= 1


def test_conjugate_count_full_group_trivial(grig):
    h = SubgroupHandle.from_strings(grig, [g for g in "abcd"], membership_level=3)
    bound = conjugate_count_lower_bound(h, 3, budget=40)
    assert bound.count == 1
    assert bound.gamma is None


def test_conjugate_count_propagates_non_budget_errors(grig, monkeypatch):
    def broken_order(self, budget=None):
        raise ValueError("broken order")

    monkeypatch.setattr(Word, "order", broken_order)
    h = SubgroupHandle.from_strings(grig, ["b"], membership_level=3)
    with pytest.raises(ValueError, match="broken order"):
        conjugate_count_lower_bound(h, 3, budget=5)


def _parabolic_words(preset, vstr, n):
    from branchgroups.quotients import point_stabilizer_words

    v = tuple(int(c) for c in vstr) + (0,) * (n - len(vstr))
    return point_stabilizer_words(v, n, preset)


# -- determinism -----------------------------------------------------------


def test_certificate_build_deterministic():
    texts = []
    for _ in range(2):
        preset = grigorchuk_preset()
        q = SubgroupHandle.from_strings(preset, ["a"])
        avoid = [
            parabolic_approximation(preset, parse_vertex(s, 2), 6)
            for s in ("00", "01", "10")
        ]
        cert = build_certificate(q, avoid, preset, verification_level=6)
        texts.append(cert.to_json())
    assert texts[0] == texts[1]
