"""Acceptance suite: one check per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (or the full suite).  Every
check prints its verdict even under capture; timings are enforced with
wall-clock assertions at the stated tolerances.
"""

import json
import random
import time

import pytest

from branchgroups.construction import (
    build_certificate,
    conjugate_count_lower_bound,
    fix_separation_witness,
    iter_rist_elements,
    level_trap_check,
    trap_subgroup,
    validate_certificate,
)
from branchgroups.presets import grigorchuk_preset, gupta_sidki_preset
from branchgroups.quotients import (
    image_subgroup,
    is_level_transitive,
    point_stabilizer_words,
    quotient_order,
    word_perm,
)
from branchgroups.subgroups import (
    SubgroupHandle,
    enumerate_reduced_words,
    minimal_non_fixing_level,
)
from branchgroups.tree import level_vertices, parse_vertex
from branchgroups.words import Word

from conftest import random_word


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, visible through output capture."""

    def _verdict(num: int, label: str, ok: bool, detail: str = ""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_criterion_1_word_problem_consistency(verdict):
    preset = grigorchuk_preset()
    rng = random.Random(11)
    start = time.monotonic()
    disagreements = 0
    for _ in range(1000):
        g = random_word(preset, rng, 20)
        if g.is_identity() != g.portrait(12).is_trivial():
            disagreements += 1
    elapsed = time.monotonic() - start
    verdict(
        1,
        "word-problem vs depth-12 portraits, 1000 words",
        disagreements == 0 and elapsed < 30,
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_known_orders(verdict):
    preset = grigorchuk_preset()
    start = time.monotonic()
    got = {w: Word.from_str(preset, w).order() for w in
           ["a", "b", "c", "d", "a b", "a c", "a d"]}
    expected = {"a": 2, "b": 2, "c": 2, "d": 2, "a b": 16, "a c": 8, "a d": 4}
    elapsed = time.monotonic() - start
    verdict(2, "frozen element orders", got == expected and elapsed < 5,
            f"{got}, {elapsed:.1f}s")


def test_criterion_3_quotient_ladder(verdict):
    preset = grigorchuk_preset()
    start = time.monotonic()
    orders = [quotient_order(preset, n) for n in range(1, 7)]
    chain = all(orders[i + 1] % orders[i] == 0 for i in range(5))
    transitive = all(is_level_transitive(preset, n) for n in range(1, 7))
    elapsed = time.monotonic() - start
    verdict(3, "quotient divisibility ladder and transitivity, n=1..6",
            chain and transitive and elapsed < 60,
            f"orders={orders}, {elapsed:.1f}s")


def test_criterion_4_regular_branch_evidence(verdict):
    preset = grigorchuk_preset()
    start = time.monotonic()
    t = Word(preset, preset.branching_generators[0])
    conjugators = []
    for i, w in enumerate(enumerate_reduced_words(preset)):
        conjugators.append(w)
        if i >= 40:
            break
    k_words, seen = [], set()
    for w in conjugators:
        c = t.conjugate_by(w)
        if c.factors not in seen:
            seen.add(c.factors)
            k_words.append(c)
    ok = True
    for n in (3, 4, 5):
        k_image = image_subgroup(k_words, n)
        count = 0
        for g in iter_rist_elements((0,), preset):
            if not k_image.contains(word_perm(g, n)):
                ok = False
            count += 1
            if count >= 3:
                break
        ok = ok and count > 0
    elapsed = time.monotonic() - start
    verdict(4, "left-subtree rist elements lie in the branching-subgroup image",
            ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_5_level_trap_desk_scale(verdict):
    preset = grigorchuk_preset()
    ok = True
    detail = []
    for k in (1, 2, 3):
        start = time.monotonic()
        h = trap_subgroup(preset, k)
        report = level_trap_check(h, k)
        elapsed = time.monotonic() - start
        ok = ok and report.passed and elapsed < 60
        detail.append(f"k={k}:{'pass' if report.passed else 'fail'},{elapsed:.1f}s")
    verdict(5, "trap subgroups fix level k with no fixed vertex at k+1",
            ok, " ".join(detail))


def _build_reference_certificate(level=6):
    preset = grigorchuk_preset()
    q = SubgroupHandle.from_strings(preset, ["a"])
    seeds = [parse_vertex(s, 2) for s in ("00", "01", "10")]
    return preset, build_certificate(q, seeds, verification_level=level)


def test_criterion_6_certificate_round_trip(verdict):
    start = time.monotonic()
    preset, cert = _build_reference_certificate()
    report = validate_certificate(cert, preset)
    elapsed = time.monotonic() - start
    ok = (
        len(cert.stages) >= 3
        and report.passed
        and report.verification_level >= 4
        and elapsed < 120
    )
    verdict(6, "3-stage certificate builds and validates",
            ok, f"stages={len(cert.stages)}, level={report.verification_level}, "
                f"{elapsed:.1f}s")


def test_criterion_7_fix_equivariance(verdict):
    preset = grigorchuk_preset()
    rng = random.Random(7)
    start = time.monotonic()
    failures = 0
    for _ in range(200):
        g = random_word(preset, rng, 8)
        gens = tuple(random_word(preset, rng, 8) for _ in range(2))
        h = SubgroupHandle(gens)
        conj = h.conjugated(g)
        for n in (1, 2, 3, 4):
            expect = {g.apply(v) for v in h.fixed_points(n)}
            if set(conj.fixed_points(n)) != expect:
                failures += 1
                break
    elapsed = time.monotonic() - start
    verdict(7, "fixed sets of conjugates are the conjugator images, 200 pairs",
            failures == 0 and elapsed < 30, f"{failures} failures, {elapsed:.1f}s")


def test_criterion_8_non_conjugacy_ladder(verdict):
    preset = grigorchuk_preset()
    start = time.monotonic()
    h1 = trap_subgroup(preset, 1)
    h2 = trap_subgroup(preset, 2)
    witness = fix_separation_witness(h1, h2)
    elapsed = time.monotonic() - start
    verdict(8, "trap subgroups at k=1,2 are separated by fixed-vertex profiles",
            witness is not None and elapsed < 30,
            f"witness level={witness}, {elapsed:.1f}s")


def test_criterion_9_conjugate_count_bound(verdict):
    preset = grigorchuk_preset()
    start = time.monotonic()
    v = parse_vertex("0", 2) + (0, 0)
    h = SubgroupHandle(tuple(point_stabilizer_words(preset, v)), membership_level=3)
    bound = conjugate_count_lower_bound(h, 3)
    images = [h.conjugated(c).image(3) for c in bound.conjugators]
    distinct = not any(a.equals(b) for i, a in enumerate(images) for b in images[:i])
    elapsed = time.monotonic() - start
    verdict(9, "parabolic approximation has >= 2 distinct conjugates",
            bound.count >= 2 and distinct and elapsed < 30,
            f"count={bound.count}, {elapsed:.1f}s")


def test_criterion_10_ggs_suite(verdict):
    preset = gupta_sidki_preset()
    start = time.monotonic()
    transitive = all(is_level_transitive(preset, n) for n in range(1, 5))
    order_b = Word.from_str(preset, "b").order()
    mnfl = minimal_non_fixing_level(SubgroupHandle.from_strings(preset, ["a"]))
    elapsed = time.monotonic() - start
    ok = transitive and order_b == 3 and mnfl == 1 and elapsed < 60
    verdict(10, "Gupta-Sidki suite",
            ok, f"transitive={transitive}, ord(b)={order_b}, mnfl={mnfl}, "
                f"{elapsed:.1f}s")


def test_criterion_11_determinism(verdict):
    preset_a, cert_a = _build_reference_certificate()
    preset_b, cert_b = _build_reference_certificate()
    certs_equal = cert_a.to_json() == cert_b.to_json()
    traps = []
    for _ in range(2):
        preset = grigorchuk_preset()
        payload = [trap_subgroup(preset, k).to_dict() for k in (1, 2, 3)]
        traps.append(json.dumps(payload, sort_keys=True))
    verdict(11, "reruns reproduce byte-identical certificates",
            certs_equal and traps[0] == traps[1])
