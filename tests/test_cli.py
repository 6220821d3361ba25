import argparse
import decimal
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from branchgroups import cli, construction, quotients, subgroups
from branchgroups.cli import (
    EXIT_FALSE,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    build_parser,
    run_command,
)
from branchgroups.presets import ggs_preset, grigorchuk_preset, gupta_sidki_preset
from branchgroups.quotients import LEVEL_CAP
from branchgroups.subgroups import SubgroupHandle
from branchgroups.tree import parse_vertex
from branchgroups.words import Word

from conftest import ADDING_MACHINE, DOUBLING, HANOI, RANDOM_DEGREE_3

README = Path(__file__).resolve().parents[1] / "README.md"
BUDGETED = {
    "elem order", "elem identity", "sub escape", "wm rist-search", "wm trap", "wm build",
    "wm conjbound",
}


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_elem_order(capsys):
    code, out = run(capsys, "elem", "order", "--preset", "grigorchuk", "a b")
    assert (code, out) == (EXIT_OK, "16")


def test_elem_order_proved_infinite(capsys):
    code, out = run(capsys, "elem", "order", "--preset", "ggs:3:1,0", "a b")
    assert (code, out) == (EXIT_OK, "infinite")
    code, out = run(capsys, "elem", "order", "--preset", "ggs:3:1,0", "--format", "json", "a b")
    assert code == EXIT_OK and json.loads(out)["order"] == "infinite"


def test_elem_identity_exit_codes(capsys):
    assert run(capsys, "elem", "identity", "a a") == (EXIT_OK, "true")
    assert run(capsys, "elem", "identity", "a b") == (EXIT_FALSE, "false")


def test_elem_apply_and_section(capsys):
    assert run(capsys, "elem", "apply", "a", "01")[1] == "11"
    assert run(capsys, "elem", "section", "b", "1")[1] == "c"


def test_sub_fixlevel(capsys):
    code, out = run(capsys, "sub", "fixlevel", "--preset", "grigorchuk", "--gens", "a")
    assert (code, out) == (EXIT_OK, "1")


# d fixes the ray 1^inf: the walk over section states repeats a level's
# states and answers "never" exactly.
def test_sub_fixlevel_never(capsys):
    assert run(capsys, "sub", "fixlevel", "--gens", "d") == (EXIT_OK, "never: a ray is fixed")
    argv = ["sub", "fixlevel", "--preset", "gupta-sidki", "--gens", "b", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)["minimal_non_fixing_level"] is None


def test_quotient_order_decimal_string(capsys):
    code, out = run(capsys, "quotient", "order", "--level", "6")
    assert (code, out) == (EXIT_OK, str(2**42))


def test_quotient_order_at_the_level_cap_stays_small():
    # Grigorchuk's level-10 quotient has order 2^642; the child reports its
    # own peak resident set (kilobytes on Linux) on stderr.
    src = str(Path(construction.__file__).resolve().parents[1])
    code = (
        "import resource, sys\n"
        "from branchgroups.cli import run_command\n"
        "code = run_command(['quotient', 'order', '--level', '10'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == EXIT_OK
    assert run.stdout.strip() == str(2**642)
    assert int(run.stderr.split()[-1]) < 150 * 1024


def test_quotient_order_past_the_point_cap_exits_2():
    # Level 8 of a degree-3 tree has 3^8 = 6,561 vertices, over POINT_CAP =
    # 5^5; computed, Gupta-Sidki's ran out of memory under a 1.5 GB
    # address-space limit.  ggs:3:1,1 has no branch data, so its level-8
    # order needs the whole level image.
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "quotient", "order",
         "--preset", "ggs:3:1,1", "--level", "8"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_USAGE
    assert (run.stdout, run.stderr) == ("", "error: level 8 has 6561 vertices, over the cap of 3125\n")


def test_the_point_cap_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("word_perm called past the point cap")

    monkeypatch.setattr(quotients, "word_perm", no_work)
    with pytest.raises(quotients.LevelCapExceeded, match="over the cap of 3125"):
        quotients.quotient_order(ggs_preset(3, (1, 1)), 8)


def test_subgroup_images_past_the_point_cap_still_answer(capsys):
    # Only the whole level image is point-capped: a small subgroup's image
    # at Gupta-Sidki level 8 is cheap.
    argv = ("--preset", "gupta-sidki", "--gens", "a", "--level", "8")
    assert run(capsys, "sub", "escape", *argv, "--gamma", "b") == (EXIT_OK, "1")
    assert run(capsys, "wm", "conjbound", *argv, "--budget", "50") == (EXIT_OK, "50")


def test_sub_escape_tells_a_finished_walk_from_a_spent_budget(capsys):
    # The whole group has one conjugate, which contains gamma.
    argv = ("sub", "escape", "--gens", "a", "b", "c", "d", "--gamma", "a", "--level", "2")
    finished = "undecided (all 1 level-2 conjugates contain gamma)"
    assert run(capsys, *argv) == (EXIT_UNDECIDED, finished)
    code, out = run(capsys, *argv, "--format", "json")
    data = json.loads(out)
    assert (code, data["conjugates"], data["all_contain_gamma"]) == (EXIT_UNDECIDED, 1, True)
    # <a, b> has more level-3 conjugates than the one the budget allows.
    argv = ("sub", "escape", "--gens", "a", "b", "--gamma", "a", "--level", "3", "--budget")
    assert run(capsys, *argv, "1") == (EXIT_UNDECIDED, "undecided (budget exhausted)")
    data = json.loads(run(capsys, *argv, "1", "--format", "json")[1])
    assert data.keys() == {"conjugator", "undecided", "meta"} and data["undecided"]
    assert run(capsys, *argv, "2") == (EXIT_OK, "c")


def test_json_meta_keeps_the_preset_fingerprint(capsys):
    code, out = run(capsys, "quotient", "order", "--level", "3", "--format", "json")
    assert code == EXIT_OK
    assert out == '{"level": 3, "meta": {"preset_fingerprint": "55fdcaec608954a8"}, "order": "128"}'


def test_quotient_transitive(capsys):
    assert run(capsys, "quotient", "transitive", "--level", "3")[0] == EXIT_OK


def test_quotient_index(capsys):
    code, out = run(capsys, "quotient", "index", "--level", "3", "--gens", "a")
    assert (code, out) == (EXIT_OK, "64")


def test_sub_rist_check(capsys):
    assert run(capsys, "sub", "rist", "d", "1")[0] == EXIT_OK
    assert run(capsys, "sub", "rist", "d", "0")[0] == EXIT_FALSE


def test_sub_psi_not_in_stabilizer(capsys):
    assert run(capsys, "sub", "psi", "a", "--level", "1")[0] == EXIT_FALSE


def test_group_validate_ok(capsys):
    assert run(capsys, "group", "validate")[0] == EXIT_OK


def test_group_validate_reports_the_branch_data(capsys):
    line = "branch data: m = 3, |G:K'| = 16, |K':L| = 4, 20 lift entries checked"
    assert run(capsys, "group", "validate") == (EXIT_OK, "ok\n" + line)
    code, out = run(capsys, "group", "validate", "--preset", "gupta-sidki", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["branch_data"] == {"m": 2, "index": 9, "lift_index": 9, "entries": 18}
    assert run(capsys, "group", "validate", "--preset", "ggs:3:1,1") == (EXIT_OK, "ok")


def test_group_validate_names_a_corrupted_lift_entry(capsys, monkeypatch):
    from branchgroups import branching

    data = branching.BRANCH_DATA["grigorchuk"]
    lifts = dict(data.lifts)
    lifts["b a b a"] = (lifts["b a b a"][0], lifts["b a b a"][0])  # the entry at 0 stands in at 1
    corrupted = branching.BranchData(data.m, data.index, data.lift_index, lifts)
    table = dict(branching.BRANCH_DATA, grigorchuk=corrupted)
    monkeypatch.setattr(branching, "BRANCH_DATA", table)
    issue = "bad-lift at lift entry 1 of b a b a: a d a b a d a b: its section at 0 is not 1"
    assert run(capsys, "group", "validate") == (EXIT_FALSE, issue)


def test_a_definition_named_grigorchuk_stays_on_the_engine(tmp_path, capsys):
    data = dict(gupta_sidki_preset().to_dict(), name="grigorchuk")
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "quotient", "order", "--preset", str(path), "--level", "5") == (EXIT_OK, str(3**55))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_OK, "ok")


def test_quotient_order_prints_an_order_past_the_int_digit_limit(capsys):
    # Gupta-Sidki level 10 has order 3^13123, 6,262 digits: past the 4,300
    # that str() of an int allows by default on Python 3.11.  The limit is
    # left as it was.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with decimal.localcontext() as ctx:
        ctx.prec = 7000
        expected = str(decimal.Decimal(3) ** 13123)
    argv = ["quotient", "order", "--preset", "gupta-sidki", "--level", "10"]
    assert run(capsys, *argv) == (EXIT_OK, expected) and len(expected) == 6262
    code, out = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["order"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_quotient_index_past_the_point_cap_answers(capsys):
    # |G_8| = 3^1459 by the branch recursion, and <a> has order 3
    argv = ["quotient", "index", "--preset", "gupta-sidki", "--gens", "a", "--level", "8"]
    assert run(capsys, *argv) == (EXIT_OK, str(3**1458))


def _branch_order(name, n):
    # [DERIVED] |G_n| of the presets with branch data; below the closed
    # forms' first level, from the root permutations
    if name == "grigorchuk":
        return (1, 2, 8)[n] if n < 3 else 2 ** (5 * 2 ** (n - 3) + 2)
    if n < 2:
        return 3**n
    return 3 ** (2 * 3 ** (n - 2) + 1) if name == "gupta-sidki" else 3 ** (3 ** (n - 1) + 1)


BRANCH_PRESETS = ["grigorchuk", "gupta-sidki", "ggs:3:1,0"]


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("name", BRANCH_PRESETS)
def test_quotient_order_prints_the_closed_form(capsys, name, n):
    # decimal prints every digit past the int-to-str limit
    expected = str(decimal.Decimal(_branch_order(name, n)))
    assert run(capsys, "quotient", "order", "--preset", name, "--level", str(n)) == (EXIT_OK, expected)


@pytest.mark.parametrize("name, n", zip(BRANCH_PRESETS, (4, 3, 3)))
def test_quotient_order_json_reads_the_closed_form(capsys, name, n):
    code, out = run(capsys, "quotient", "order", "--preset", name, "--level", str(n), "--format", "json")
    assert (code, json.loads(out)["order"]) == (EXIT_OK, str(_branch_order(name, n)))


def test_sub_profile_reads_the_closed_forms(capsys):
    # <a> has order 2 at every level from 1
    expected = " ".join(str(_branch_order("grigorchuk", n) // 2) for n in range(1, 11))
    assert run(capsys, "sub", "profile", "--gens", "a", "--max-level", "10") == (EXIT_OK, expected)


def test_sub_profile_past_the_point_cap_exits_2_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(subgroups, "image_subgroup", lambda *_: pytest.fail("built the image of H"))
    monkeypatch.setattr(subgroups, "quotient_order", lambda *_: pytest.fail("read an order of G"))
    argv = ["sub", "profile", "--preset", "gupta-sidki", "--gens", "a", "b", "--max-level", "8"]
    assert run_command(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: level 8 has 6561 vertices, over the cap of 3125\n"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["nonsense"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_unknown_preset_exit_2(capsys):
    code, _ = run(capsys, "elem", "order", "--preset", "nope", "a")
    assert code == EXIT_USAGE


def test_wm_rist_search(capsys):
    code, out = run(capsys, "wm", "rist-search", "0")
    assert code == EXIT_OK and out


def test_wm_build_and_validate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _ = run(
        capsys,
        "wm", "build", "--q-gens", "a",
        "--avoid-vertex", "00", "01", "10",
        "--out", str(cert),
    )
    assert code == EXIT_OK
    code, out = run(capsys, "wm", "validate", str(cert))
    assert code == EXIT_OK
    assert out.endswith("passed")

    data = json.loads(cert.read_text())
    data["stages"][0]["w"] = "b"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out = run(capsys, "wm", "validate", str(bad))
    assert code == EXIT_FALSE
    assert out.endswith("failed")


def test_wm_build_default_level_covers_stage_levels(tmp_path, capsys):
    # Q = <a> starts its stages at k1 = 2, deeper than the seeds 0 and 1.
    cert = tmp_path / "cert.json"
    args = ["wm", "build", "--q-gens", "a", "--avoid-vertex", "0", "1", "--out", str(cert)]
    assert run(capsys, *args)[0] == EXIT_OK
    assert json.loads(cert.read_text())["verification_level"] == 5
    code, out = run(capsys, "wm", "validate", str(cert))
    assert code == EXIT_OK and out.endswith("passed")


def test_wm_trap(capsys):
    code, out = run(capsys, "wm", "trap", "--k", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["check"]["passed"] is True


def test_wm_separate_inconclusive_exit_3(capsys):
    code, _ = run(capsys, "wm", "separate", "--gens-a", "b", "--gens-b", "b")
    assert code == EXIT_UNDECIDED


def test_json_reports_reproducible_and_stamped(capsys):
    args = ["quotient", "order", "--level", "3", "--format", "json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["order"] == "128"
    assert list(data["meta"]) == ["preset_fingerprint"]


def test_json_meta_stamps_the_budget_run_with(capsys):
    code, out = run(capsys, "elem", "order", "--budget", "7", "--format", "json", "a b")
    assert code == EXIT_UNDECIDED
    assert json.loads(out)["meta"]["budget"] == 7
    _, out = run(capsys, "elem", "order", "--format", "json", "a b")
    assert json.loads(out)["meta"]["budget"] == 100_000


# -- the option surface -----------------------------------------------------


def _subcommands():
    """{"group cmd": parser} for every registered subcommand."""
    def children(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return {
        f"{group} {cmd}": sub
        for group, group_parser in children(build_parser()).items()
        for cmd, sub in children(group_parser).items()
    }


def test_option_surface():
    subs = _subcommands()
    assert len(subs) == 23
    flags = {name: {f for a in p._actions for f in a.option_strings} for name, p in subs.items()}
    assert not any("--seed" in f for f in flags.values())
    assert {name for name, f in flags.items() if "--budget" in f} == BUDGETED
    # every settable argument, positional or optional: a new one edits this count
    settable = [
        a for p in subs.values() for a in p._actions if not isinstance(a, argparse._HelpAction)
    ]
    assert len(settable) == 89


def _readme_subcommands(marker):
    """Subcommands named by `group cmd|cmd` spans in the README block that
    starts with the marker line and ends at a blank line."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index(marker):].split("\n\n", 1)[0]
    return {
        f"{group} {cmd}"
        for group, cmds in re.findall(r"`(\w+) ([\w|-]+)`", block)
        for cmd in cmds.split("|")
    }


def _readme_budget_defaults():
    """{"group cmd": N} for the "default N" of every item in the README's
    budget list; an item names its subcommands in its first code span."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("Budgeted subcommands"):].split("\n\n", 1)[0]
    defaults = {}
    for item in block.split("\n- ")[1:]:
        group, cmds = re.match(r"`(\w+) ([\w|-]+)`", item).groups()
        n = int(re.search(r"default (\d+)", item).group(1))
        defaults.update((f"{group} {cmd}", n) for cmd in cmds.split("|"))
    return defaults


def test_readme_names_the_registered_subcommands():
    subs = _subcommands()
    assert _readme_subcommands("Subcommands:") == set(subs)
    assert _readme_subcommands("Budgeted subcommands") == BUDGETED
    parser_defaults = {name: subs[name].get_default("budget") for name in BUDGETED}
    assert _readme_budget_defaults() == parser_defaults


def _readme_cli_examples():
    """(argv, output) for each line of the README's CLI block that ends in
    `# <output>`."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```")[1]
    return [
        (shlex.split(line)[1:], out.strip())
        for line, sep, out in (ln.partition(" # ") for ln in block.splitlines())
        if sep
    ]


README_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize("argv, out", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_cli_examples(capsys, argv, out):
    assert run(capsys, *argv) == (EXIT_OK, out)


# A preset that claims to be contracting but is not: a = (a^2, 1), whose
# section closure a, a^2, a^4, ... never closes.
RUNAWAY = {
    "degree": 2,
    "contracting": True,
    "generators": [{"name": "a", "root_perm": [0, 1], "sections": ["a a", ""]}],
}


@pytest.mark.parametrize("cmd", ["identity", "order"])
def test_claimed_contracting_preset_stops_at_budget(tmp_path, capsys, cmd):
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(RUNAWAY))
    code, out = run(capsys, "elem", cmd, "--preset", str(path), "--budget", "50", "a")
    assert (code, out) == (EXIT_UNDECIDED, "undecided (budget exhausted)")


# is_identity with no budget stops at DEFAULT_IDENTITY_BUDGET, whatever the
# preset claims.
UNTRUSTED_CLAIM = """
import json, sys
import branchgroups.words as words
from branchgroups.presets import preset_from_dict

words.DEFAULT_IDENTITY_BUDGET = 50
word = words.Word.from_str(preset_from_dict(json.loads(sys.argv[1])), "a")
try:
    word.is_identity()
except words.BudgetExhausted as exc:
    print(exc.budget)
"""


def test_claimed_contracting_preset_gets_the_default_identity_budget():
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", UNTRUSTED_CLAIM, json.dumps(RUNAWAY)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert run.stdout.split() == ["50"]


def test_sub_escape_refuses_a_gamma_trivial_on_the_level(tmp_path):
    # RUNAWAY's a acts trivially on level 3, so it lies in every level-3
    # conjugate; deciding whether a is the identity would not end.
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(RUNAWAY))
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "sub", "escape", "--preset", str(path),
         "--gens", "a", "--gamma", "a", "--level", "3", "--budget", "5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
    )
    assert (run.returncode, run.stdout) == (EXIT_USAGE, "")
    assert run.stderr == "error: gamma acts trivially on level 3\n"


def test_claimed_contracting_preset_order_is_undecided_at_the_default_budget(tmp_path):
    # The order recursion of a = (a^2, 1) outgrows the interpreter stack
    # before the node budget: undecided, not a refutation and no traceback.
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(RUNAWAY))
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "elem", "order", "--preset", str(path), "a"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_UNDECIDED
    assert run.stdout.strip() == "undecided (budget exhausted)"
    assert "Traceback" not in run.stderr


def _fixlevel_a(tmp_path, preset):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(preset))
    src = str(Path(construction.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "sub", "fixlevel", "--preset", str(path),
         "--gens", "a"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
    )


def test_sub_fixlevel_undecided(tmp_path):
    # a = (a^2, a^2) fixes every level, and the sections a^(2^t) make every
    # state new, so the state walk stops at the level cap.
    run = _fixlevel_a(tmp_path, DOUBLING)
    assert (run.returncode, run.stdout) == (EXIT_UNDECIDED, "")
    assert run.stderr.startswith("undecided:") and "Traceback" not in run.stderr


def test_sub_fixlevel_sees_an_empty_child_before_descending(tmp_path):
    # a = (a^2, 1): child 1's state is empty, so its whole subtree is fixed,
    # although child 0's states a^(2^t) are new down to the level cap.
    run = _fixlevel_a(tmp_path, RUNAWAY)
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, "never: a ray is fixed\n", "")


# Malformed user presets: a root permutation that is not one, and a degree-2
# generator with one section.
MALFORMED = {
    "not-a-permutation": {"degree": 2, "generators": [
        {"name": "a", "root_perm": [0, 0], "sections": ["", ""]}]},
    "wrong-section-count": {"degree": 2, "generators": [
        {"name": "a", "root_perm": [1, 0], "sections": [""]}]},
}


@pytest.mark.parametrize("code", sorted(MALFORMED))
@pytest.mark.parametrize(
    "argv",
    [["elem", "identity", "a"], ["elem", "apply", "a", "11"], ["quotient", "order", "--level", "3"]],
)
def test_malformed_preset_is_refused_when_it_loads(tmp_path, capsys, code, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[code]))
    assert run_command([*argv, "--preset", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: invalid preset: {code} at generator a" in captured.err


@pytest.mark.parametrize("code", sorted(MALFORMED))
def test_group_validate_reports_a_malformed_preset(tmp_path, capsys, code):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[code]))
    status, out = run(capsys, "group", "validate", "--preset", str(path))
    assert status == EXIT_FALSE and out.startswith(f"{code} at generator a: ")


# Preset files with a field of the wrong JSON type.
MISTYPED = {
    "generators-object": {"degree": 2, "generators": {"a": {"root_perm": [1, 0], "sections": ["", ""]}}},
    "sections-number": {"degree": 2, "generators": [{"name": "a", "root_perm": [1, 0], "sections": 5}]},
}


@pytest.mark.parametrize("code", sorted(MISTYPED))
@pytest.mark.parametrize("argv", [["group", "validate"], ["group", "show"], ["elem", "identity", "a"]])
def test_mistyped_preset_exits_with_usage(tmp_path, capsys, code, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MISTYPED[code]))
    assert run_command([*argv, "--preset", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: malformed group definition: ")


UNDECLARED = {"degree": 2, "generators": [{"name": "a", "root_perm": [1, 0], "sections": ["z", ""]}]}
UNDECLARED_ISSUE = "unknown-symbol at generator a, section 0: undeclared generator 'z'"


def test_group_validate_lists_an_undeclared_section_symbol(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(UNDECLARED))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_FALSE, UNDECLARED_ISSUE)
    assert run_command(["group", "show", "--preset", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: invalid preset: {UNDECLARED_ISSUE}\n"


def test_zero_exponent_in_a_section_gives_the_same_quotient(tmp_path, capsys):
    # Hanoi with a's last section written "a^0 a": level images fold the
    # reduced section, so the order is the one of the section written "a".
    orders = []
    for section in ("a", "a^0 a"):
        data = json.loads(json.dumps(HANOI))
        data["generators"][0]["sections"][2] = section
        path = tmp_path / "hanoi.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_OK, "ok")
        code, out = run(capsys, "quotient", "order", "--level", "3", "--preset", str(path))
        assert code == EXIT_OK
        orders.append(out)
    assert orders[0] == orders[1]


DEGREE_11 = {"degree": 11, "generators": [
    {"name": "a", "root_perm": [(x + 1) % 11 for x in range(11)], "sections": [""] * 11},
]}
DEGREE_11_ISSUE = "unsupported-degree at degree: degree 11 > 10: vertices are one digit per letter"


def test_degree_above_ten_is_refused(tmp_path, capsys):
    # "10" would name the level-2 vertex (1, 0), not the letter 10
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(DEGREE_11))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_FALSE, DEGREE_11_ISSUE)
    assert run_command(["quotient", "stab", "10", "--preset", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: invalid preset: {DEGREE_11_ISSUE}\n"
    ggs11 = "ggs:11:1" + ",0" * 9
    for argv in (["group", "validate"], ["elem", "apply", "a", "9"]):
        assert run_command([*argv, "--preset", ggs11]) == EXIT_USAGE
        assert "GGS degree must be in 2..10, got 11" in capsys.readouterr().err


# A rule is a claim about the group: Hanoi with a b -> c and the adding
# machine with a^2 -> 1 gave wrong exact answers while rules were trusted.
FALSE_RULES = {
    "hanoi": ({**HANOI, "rules": HANOI["rules"] + [{"lhs": "a b", "rhs": "c"}]}, "a b c",
              "false-rule at rule 3: lhs rhs^-1 = a b c^-1 moves vertex 0"),
    "adding-machine": ({**ADDING_MACHINE, "rules": [{"lhs": "a^2", "rhs": "1"}]}, "a a",
                       "false-rule at rule 0: lhs rhs^-1 = a^2 moves vertex 00"),
}


@pytest.mark.parametrize("name", sorted(FALSE_RULES))
def test_a_false_rule_is_refused_naming_a_moved_vertex(tmp_path, capsys, name):
    data, word, issue = FALSE_RULES[name]
    path = tmp_path / "false.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_FALSE, issue)
    assert run_command(["elem", "identity", word, "--preset", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: invalid preset: {issue}\n"


def test_group_validate_accepts_hanoi(tmp_path, capsys):
    path = tmp_path / "hanoi.json"
    path.write_text(json.dumps(HANOI))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_OK, "ok")
    # `group show` adds the fingerprint, and its output loads back.
    shown = tmp_path / "shown.json"
    shown.write_text(run(capsys, "group", "show", "--preset", str(path))[1])
    assert run(capsys, "group", "validate", "--preset", str(shown)) == (EXIT_OK, "ok")


@pytest.mark.parametrize(
    "name", ["grigorchuk", "gupta-sidki", "ggs:3:1,0", "ggs:4:1,0,0", "ggs:5:1,2,0,0", "ggs:5:1,0,0,1"]
)
def test_group_show_json_loads_back(tmp_path, capsys, name):
    # The JSON report's meta object is ignored when the file is read back.
    shown = tmp_path / "shown.json"
    shown.write_text(run(capsys, "group", "show", "--preset", name, "--format", "json")[1])
    assert run(capsys, "group", "validate", "--preset", str(shown)) == (EXIT_OK, "ok")
    assert run(capsys, "group", "show", "--preset", str(shown), "--format", "json")[1] == shown.read_text()


UNKNOWN_KEY_ISSUE = (
    "unknown-key at top level: 'relations' is not one of"
    " branching, contracting, degree, fingerprint, generators, name, rules"
)


def test_unknown_top_level_key_is_an_issue(tmp_path, capsys):
    # A misspelt "rules" used to load as a preset with no rules.
    data = dict(HANOI)
    data["relations"] = data.pop("rules")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "group", "validate", "--preset", str(path)) == (EXIT_FALSE, UNKNOWN_KEY_ISSUE)
    for argv in (["group", "show"], ["elem", "order", "a"], ["quotient", "order", "--level", "2"]):
        assert run_command([*argv, "--preset", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: invalid preset: {UNKNOWN_KEY_ISSUE}\n"


# G = <a> has order 2: a swaps the two subtrees rigidly and b = (b, b) is
# trivial, so no level-1 stabilizer moves level 2 and no trap base word exists.
FROZEN = {
    "degree": 2,
    "generators": [
        {"name": "a", "root_perm": [1, 0], "sections": ["", ""]},
        {"name": "b", "root_perm": [0, 1], "sections": ["b", "b"]},
    ],
    "rules": [{"lhs": "a^2", "rhs": ""}],
}


def test_wm_trap_without_a_moving_stabilizer_exits_2(tmp_path, capsys):
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(FROZEN))
    argv = ["wm", "trap", "--preset", str(path), "--k", "1", "--budget", "10"]
    assert run_command(argv) == EXIT_USAGE
    assert "no level-1 stabilizer moves level 2" in capsys.readouterr().err


def test_wm_trap_past_the_point_cap_exits_2_before_the_search(monkeypatch, capsys):
    # Gupta-Sidki level 8 has 6,561 vertices, past POINT_CAP: the whole
    # level image the order check needs is refused before any base word.
    monkeypatch.setattr(construction, "enumerate_reduced_words", lambda _: pytest.fail("searched"))
    assert run_command(["wm", "trap", "--preset", "gupta-sidki", "--k", "7"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: level 8 has 6561 vertices, over the cap of 3125\n"


# The base search tests at most --budget words, so a level whose base lies
# deeper in the Cayley ball ends undecided instead of running on.
@pytest.mark.parametrize("k, budget, code", [("5", "2000", EXIT_OK), ("8", "50", EXIT_UNDECIDED)])
def test_wm_trap_ends_within_its_budget(k, budget, code):
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "wm", "trap", "--k", k, "--budget", budget],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == code
    if code == EXIT_UNDECIDED:
        assert run.stderr == f"undecided: trap base search: budget {budget} exhausted\n"


def test_wm_trap_refuses_a_negative_k_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(construction, "enumerate_reduced_words", lambda _: pytest.fail("searched"))
    assert run_command(["wm", "trap", "--k", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"


# The arguments each budgeted subcommand needs besides --budget.
BUDGETED_ARGV = {
    "elem order": ["a"], "elem identity": ["a"], "sub escape": ["--gens", "a", "--gamma", "b"],
    "wm rist-search": ["0"], "wm trap": ["--k", "1"], "wm build": ["--q-gens", "a", "--avoid-vertex", "00"],
    "wm conjbound": ["--gens", "a"],
}


@pytest.mark.parametrize("cmd", sorted(BUDGETED))
def test_a_negative_budget_is_refused_when_parsed(monkeypatch, capsys, cmd):
    argv = [*cmd.split(), *BUDGETED_ARGV[cmd]]
    assert build_parser().parse_args([*argv, "--budget", "0"]).budget == 0
    monkeypatch.setattr(cli, "_resolve_preset", lambda args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        run_command([*argv, "--budget", "-1"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: argument --budget: must be >= 0, got -1\n")


def test_wm_build_whose_rist_candidates_run_out_is_undecided(capsys):
    # Gupta-Sidki <a> against the ray through 0 builds at --budget 4000; at
    # the default budget stage 1's candidates run out, which decides nothing.
    argv = ["wm", "build", "--preset", "gupta-sidki", "--q-gens", "a", "--avoid-vertex", "0"]
    assert run_command(argv) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "undecided: stage 1: no rigid-stabilizer element escaping avoid subgroup 1 at level 2\n"
    )
    # A Q that never meets the level conditions is still a precondition error.
    assert run_command(["wm", "build", "--q-gens", "1", "--avoid-vertex", "00"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: stage 0: Q is trivial or never satisfies the level-selection conditions\n"
    )


def test_definition_file_as_preset(tmp_path, capsys):
    from branchgroups.presets import grigorchuk_preset, save_preset

    path = tmp_path / "group.json"
    save_preset(grigorchuk_preset(), path)
    code, out = run(capsys, "elem", "order", "--preset", str(path), "a c")
    assert (code, out) == (EXIT_OK, "8")


# -- outputs pinned before the fixed-tree walk replaced per-vertex loops ----


@pytest.fixture(scope="module")
def reference_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "ref.json"
    args = ["wm", "build", "--q-gens", "a", "--avoid-vertex", "00", "01", "10", "--out", str(path)]
    assert run_command(args) == EXIT_OK
    return json.loads(path.read_text())


def _validate_lines(capsys, tmp_path, data, preset="grigorchuk"):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "wm", "validate", "--preset", preset, str(path))
    return code, out.splitlines()


def _tampered(data, **stage_changes):
    data = json.loads(json.dumps(data))
    for key, (i, value) in stage_changes.items():
        data["stages"][i][key] = value
    return data


TAMPERED_DETAILS = [
    (("u", 0, "00"),
     "[FAIL] stage-1-subtrees-fixed: b a c a b a d a b a c a b a d a acts nontrivially below 00"),
    (("u", 1, "010"),
     "[FAIL] stage-2-subtrees-fixed: b a b a b a b a b a b a b a c a b a b a b a b a b a b a b a c a"
     " acts nontrivially below 010"),
    (("w", 0, "d"), "[FAIL] stage-2-subtrees-fixed: a d a acts nontrivially below 011"),
    (("w", 1, "a"), "[FAIL] normal-closure-equality: w_2 moves level 2, so ncl is not inside Stab(2)"),
]


# Ids name the tampered key, stage and value, so that re-pinning a detail
# line does not rename the test.
@pytest.mark.parametrize(
    "tamper, line", TAMPERED_DETAILS, ids=[f"{k}-{i + 1}-{v}" for (k, i, v), _ in TAMPERED_DETAILS]
)
def test_validate_tampered_details_pinned(capsys, tmp_path, reference_certificate, tamper, line):
    key, i, value = tamper
    code, lines = _validate_lines(capsys, tmp_path, _tampered(reference_certificate, **{key: (i, value)}))
    assert code == EXIT_FALSE
    assert line in lines


def test_validate_q_meeting_the_stabilizer_fails_normal_closure(capsys, tmp_path, reference_certificate):
    # Every w_i still fixes level 2, but Q = <a, d> meets Stab(2): H meet
    # Stab(2) = ncl (Q meet Stab(2)) is then larger than ncl.
    data = dict(reference_certificate, q_generators=["a", "d"])
    code, lines = _validate_lines(capsys, tmp_path, data)
    assert code == EXIT_FALSE
    assert "[FAIL] q-meets-stabilizer-trivially: checked at k1 = 2" in lines
    assert lines[-2:] == [
        "[FAIL] normal-closure-equality: Q meets Stab(2) in a d a, "
        "so H meet Stab(2) = ncl (Q meet Stab(2)) may exceed ncl",
        "failed",
    ]


def test_validate_normal_closure_line_pinned(capsys, tmp_path, reference_certificate):
    assert _validate_lines(capsys, tmp_path, reference_certificate)[1][-2] == (
        "[ok] normal-closure-equality: w_1..w_3 fix level 2 and Q meets Stab(2) trivially, "
        "so H meet Stab(2) = ncl (Q meet Stab(2)) = ncl by Dedekind's law"
    )
    first = dict(reference_certificate)
    first["stages"] = first["stages"][:1]
    first["avoid"] = first["avoid"][:1]
    code, lines = _validate_lines(capsys, tmp_path, first)
    assert code == EXIT_OK
    assert lines[-2] == (
        "[ok] normal-closure-equality: w_1..w_1 fix level 2 and Q meets Stab(2) trivially, "
        "so H meet Stab(2) = ncl (Q meet Stab(2)) = ncl by Dedekind's law"
    )
    shallow = dict(reference_certificate, verification_level=1)
    code, lines = _validate_lines(capsys, tmp_path, shallow)
    assert code == EXIT_OK
    assert (
        "[ok] stage-3-subtrees-fixed: Q-conjugates of w_1..w_3 act trivially on the subtrees at Q(u_3)"
    ) in lines
    assert lines[-2] == (
        "[ok] normal-closure-equality: w_1..w_3 fix level 2 and Q meets Stab(2) trivially, "
        "so H meet Stab(2) = ncl (Q meet Stab(2)) = ncl by Dedekind's law"
    )


def test_validate_subtree_clause_is_exact_below_the_verification_level(
    capsys, tmp_path, reference_certificate, grig
):
    # b w_1 b fixes 01 and its children, all that a walk one level below
    # Q(u_1) = {01, 11} saw, and moves the grandchildren of 01.
    w = Word.from_str(grig, reference_certificate["stages"][0]["w"])
    w = w.conjugate_by(Word.from_str(grig, "b"))
    data = _tampered(reference_certificate, w=(0, str(w)))
    data["verification_level"] = 1
    code, lines = _validate_lines(capsys, tmp_path, data)
    assert code == EXIT_FALSE
    assert f"[FAIL] stage-1-subtrees-fixed: {w} acts nontrivially below 01" in lines


def test_validate_gupta_sidki_normal_closure_pinned(capsys, tmp_path):
    path = tmp_path / "gs.json"
    args = ["wm", "build", "--preset", "gupta-sidki", "--q-gens", "a", "--avoid-vertex", "0",
            "--budget", "4000", "--out", str(path)]
    assert run(capsys, *args)[0] == EXIT_OK
    code, lines = _validate_lines(capsys, tmp_path, json.loads(path.read_text()), "gupta-sidki")
    assert code == EXIT_OK
    assert lines[-2] == (
        "[ok] normal-closure-equality: w_1..w_1 fix level 2 and Q meets Stab(2) trivially, "
        "so H meet Stab(2) = ncl (Q meet Stab(2)) = ncl by Dedekind's law"
    )


@pytest.mark.parametrize("key, keep", [("avoid", 2), ("avoid", 0), ("stages", 0)])
def test_validate_needs_one_avoid_per_stage(capsys, tmp_path, reference_certificate, key, keep):
    data = dict(reference_certificate)
    data[key] = data[key][:keep]
    code, lines = _validate_lines(capsys, tmp_path, data)
    assert code == EXIT_FALSE
    assert lines[-1] == "failed"
    assert lines[2].startswith("[FAIL] one-avoid-per-stage: ")


# Each edit restates a stage level that the stage's vertices contradict.
@pytest.mark.parametrize(
    "edit, stage",
    [
        (lambda stages: stages[0].update(k=stages[0]["k"] - 1), 1),
        (lambda stages: [s.update(k=s["k"] + 1) for s in stages], 1),
        (lambda stages: stages[0].update(u="011"), 1),
        (lambda stages: stages[-1].update(u="011"), 3),
    ],
    ids=["k1-lowered", "every-k-raised", "u1-deeper", "last-u-higher"],
)
def test_validate_refuses_a_stage_level_its_vertices_contradict(
    capsys, tmp_path, reference_certificate, edit, stage
):
    assert _validate_lines(capsys, tmp_path, reference_certificate)[1][-1] == "passed"
    data = json.loads(json.dumps(reference_certificate))
    edit(data["stages"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert run_command(["wm", "validate", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: stage {stage}: ")


def test_validate_caps_the_verification_level(capsys, tmp_path, reference_certificate):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(reference_certificate, verification_level=40)))
    assert run_command(["wm", "validate", str(path)]) == EXIT_USAGE
    assert f"level 40 exceeds cap {LEVEL_CAP}" in capsys.readouterr().err


def _with_first_avoid_level(level):
    def edit(data):
        data["avoid"][0]["membership_level"] = level
        return data

    return edit


# A certificate of the wrong shape is a usage error; a membership level
# written as a string or a float reads as the integer it states.
@pytest.mark.parametrize(
    "edit, code",
    [
        (lambda data: [data], EXIT_USAGE),
        (lambda data: dict(data, stages=5), EXIT_USAGE),
        (_with_first_avoid_level(None), EXIT_USAGE),
        (_with_first_avoid_level("6"), EXIT_OK),
        (_with_first_avoid_level(6.0), EXIT_OK),
    ],
    ids=["top-level-list", "stages-int", "level-null", "level-str", "level-float"],
)
def test_validate_reads_the_certificate_shape(capsys, tmp_path, reference_certificate, edit, code):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(json.loads(json.dumps(reference_certificate)))))
    assert run_command(["wm", "validate", str(path)]) == code
    captured = capsys.readouterr()
    if code == EXIT_USAGE:
        assert captured.out == "" and captured.err.startswith("error: malformed certificate: ")
    else:
        assert captured.out.endswith("passed\n")


# -- avoidance is decided by the vertex each avoid label names -------------


def test_validate_refutes_a_stage_word_that_fixes_the_named_vertex(
    capsys, tmp_path, reference_certificate, grig
):
    # W_1's list cut down to d, and w_1 replaced by its commutator with
    # b a b a b: a word in Rist(00) that fixes x_1 = 000000, so it lies in
    # the stabilizer that W_1's label names, though not in <d>.
    data = json.loads(json.dumps(reference_certificate))
    w = Word.from_str(grig, data["stages"][0]["w"])
    g = Word.from_str(grig, "b a b a b")
    data["stages"][0]["w"] = str(w * g * w.inverse() * g.inverse())
    data["avoid"][0]["generators"] = ["d"]
    code, lines = _validate_lines(capsys, tmp_path, data)
    assert code == EXIT_FALSE
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] stage-1-avoidance: w_1 image lies in W_1 at level 6"
    ]


def test_validate_refuses_a_listed_generator_that_moves_the_named_vertex(
    capsys, tmp_path, reference_certificate
):
    data = json.loads(json.dumps(reference_certificate))
    data["avoid"][0]["generators"].append("a")
    code, lines = _validate_lines(capsys, tmp_path, data)
    assert code == EXIT_FALSE
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] stage-1-avoidance: W_1 generator a moves 000000"
    ]


@pytest.mark.parametrize(
    "label", ["", "trap-k1", "stab-0x", "stab-02", "stab-0000000"],
    ids=["empty", "other-kind", "not-digits", "letter-past-degree", "past-the-level"],
)
def test_validate_refuses_an_avoid_label_that_names_no_vertex(
    capsys, tmp_path, reference_certificate, label
):
    data = json.loads(json.dumps(reference_certificate))
    data["avoid"][1]["label"] = label
    path = tmp_path / "label.json"
    path.write_text(json.dumps(data))
    assert run_command(["wm", "validate", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# On this preset `wm conjbound` used to search the Cayley ball for elements
# whose orders it computed at a fixed budget, and ran for minutes at any
# --budget; both commands now walk at most --budget conjugates.
@pytest.mark.parametrize("budget", ["1", "50"])
@pytest.mark.parametrize(
    "argv, out",
    [
        (["wm", "conjbound"], {"1": "1", "50": "50"}),
        (["sub", "escape", "--gamma", "b"], {"1": "1", "50": "1"}),
    ],
    ids=["conjbound", "escape"],
)
def test_conjugate_walks_stop_at_their_budget_on_a_random_preset(tmp_path, argv, out, budget):
    path = tmp_path / "random3.json"
    path.write_text(json.dumps(RANDOM_DEGREE_3))
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", *argv, "--preset", str(path),
         "--gens", "a", "--level", "3", "--budget", budget],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
    )
    assert (run.returncode, run.stdout.strip()) == (EXIT_OK, out[budget])


# d fixes a vertex at every level, so an uncapped walk would visit a fixed
# tree that doubles per level; a vertex stabilizer needs the vertex's level
# image; a section tuple and a portrait have d^n entries.
@pytest.mark.parametrize(
    "argv",
    [
        ["sub", "fix", "--gens", "d", "--depth", "26"],
        ["sub", "profile", "--gens", "d", "--max-level", "26"],
        ["quotient", "stab", "1" * 26],
        ["sub", "psi", "a a", "--level", "26"],
        ["elem", "portrait", "a", "--depth", "26"],
    ],
)
def test_tree_walks_cap_the_depth(capsys, argv):
    assert run_command(argv) == EXIT_USAGE
    assert f"level 26 exceeds cap {LEVEL_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, gens_a, gens_b, witness",
    [
        ("grigorchuk", ["a b a b"], ["b"], "2"),
        ("grigorchuk", ["a b a b"], ["a"], "1"),
        ("gupta-sidki", ["b", "a^2 b a"], ["b"], "2"),
    ],
)
def test_separate_witness_pinned(capsys, preset, gens_a, gens_b, witness):
    code, out = run(
        capsys, "wm", "separate", "--preset", preset,
        "--gens-a", *gens_a, "--gens-b", *gens_b,
    )
    assert (code, out) == (EXIT_OK, witness)


@pytest.mark.parametrize(
    "preset, word, level, vertex",
    [("grigorchuk", "d", "3", "100"), ("gupta-sidki", "a b a a", "2", "10")],
)
def test_psi_moved_vertex_error_pinned(capsys, preset, word, level, vertex):
    code, out = run(capsys, "sub", "psi", "--preset", preset, word, "--level", level)
    assert (code, out) == (
        EXIT_FALSE, f"not in level stabilizer: word moves level-{level} vertex {vertex}"
    )


@pytest.mark.parametrize(
    "preset, gens, depth, fixed, deepest",
    [
        ("grigorchuk", ["d", "a c a"], "4",
         ["", "0", "00", "000", "0000", "0001", "001", "0010", "0011", "01", "010", "011",
          "0110", "0111", "1"], "0000"),
        ("gupta-sidki", ["b", "a b a a"], "3", ["", "0", "1", "2"], "0"),
        ("ggs:5:1,0,0,1", ["b"], "2",
         ["", "0", "1", "10", "11", "12", "13", "14", "2", "20", "21", "22", "23", "24", "3",
          "4", "40", "41", "42", "43", "44"], "10"),
    ],
)
def test_sub_fix_json_pinned(capsys, preset, gens, depth, fixed, deepest):
    code, out = run(
        capsys, "sub", "fix", "--preset", preset, "--gens", *gens, "--depth", depth,
        "--format", "json",
    )
    data = json.loads(out)
    assert code == EXIT_OK
    assert (data["depth"], data["fixed"], data["deepest_path"]) == (int(depth), fixed, deepest)


# SHA-256 of `elem portrait` stdout, text and --format json, frozen from the
# flat-dict implementation that built one vertex at a time.
PORTRAIT_DIGESTS = [
    ("grigorchuk", "a b", 3,
     "5859e3f257c8f2d6613a30395f14d18e5ffa073d4e649977d3d20fa07c05481d",
     "06508a340e80c1742ab0026732f03c6f662d74f270ae3aa970a691976a00d9de"),
    ("grigorchuk", "a b a c a d", 5,
     "6221d88688ceb9fdb9239f2719a7402c0be70f92077cb700677cce05ad4be6d9",
     "750a1faf028420f4bb663956a9271aba4595633d83a3d1cb08ecb34d679b934d"),
    ("grigorchuk", "b a d a c", 6,
     "15f666bc4d28610f98e1df2ae491369537486d380179cdafab521e844f1cfc75",
     "e1e4b4c0429d927ef3e16ef55cf5c452b2075b1cf97dcb2a809e55d465a3a520"),
    ("gupta-sidki", "a b", 3,
     "2aaa9b5baaeed605f6675b3b361f7a480e86ccebf5343004f571a26868c35725",
     "8696667e2e191e6fbf0bb80a4c882c4162b198da0d8a4a21b213c3d35380897f"),
    ("gupta-sidki", "a^-1 b a b^-1", 4,
     "bb9ebaf5990d736acd54ce13026c364a4ce0ebd3d1ca5197d356b62063517774",
     "2ce3e6bbdf6b6af655cd94051eff58d2bbfc6567068ca255febac9e78f707f18"),
    ("ggs:5:1,0,0,1", "a^2 b", 3,
     "9fd657c12b59087239f3c167adda7932e81e035924e8d351c6864e6e24b8f86e",
     "0c14335786d3d7fbe01980b810081759498091cdc613d85b643cacb40ec908ee"),
    ("ggs:5:1,0,0,1", "b^-2 a b a^3", 3,
     "75e6e9f3c322ef008e6e5b2e2bccfae2ae022d688de74bde060a358c466b0176",
     "dc23513c74c3f391c658f8adb7b72080191aec6dc6f1e31b87326deddba9939a"),
]


@pytest.mark.parametrize(
    "preset, word, depth, text_sha, json_sha",
    PORTRAIT_DIGESTS,
    ids=[f"{p}-{w}-{d}" for p, w, d, *_ in PORTRAIT_DIGESTS],
)
def test_elem_portrait_output_is_pinned(capsys, preset, word, depth, text_sha, json_sha):
    for fmt, want in (("text", text_sha), ("json", json_sha)):
        argv = ["elem", "portrait", "--preset", preset, "--format", fmt, "--depth", str(depth), word]
        assert run_command(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want


# -- certificates pinned before the stage skeleton replaced the vertex scan ----

CERTIFICATE_DIGESTS = [
    ("grigorchuk", ["a"], ["00", "01", "10"], [],
     "b826627d5e0e3f52e24d73fd292592a382d332913e24d3c6a7996b195f7d1f5b"),
    ("grigorchuk", ["b", "c"], ["00", "01", "10"], [],
     "a2c294e1eab781f8403a022508d10e4f42ccb5a8edcad67176151c5a88b293f4"),
    ("grigorchuk", ["a"], ["0", "1"], [],
     "932ad1c2ee7ef2e23a2c5f1a09ddaa30ec3085a05c90e79d0f21a979128970be"),
    ("gupta-sidki", ["a"], ["0"], ["--budget", "4000"],
     "84af4cf5529fec9d29878cbe9036fc5a2c8d6d0aaf42f3e59c6e1d122578d329"),
    ("ggs:3:1,0", ["a"], ["00", "01", "10"], [],
     "48cfdc5d095808dbcd6006a3b5420e402d86957ef94b1e89d0a307e3cbc5f37a"),
]


def _build_to_file(capsys, tmp_path, preset, q_gens, seeds, extra):
    path = tmp_path / "cert.json"
    argv = ["wm", "build", "--preset", preset, "--q-gens", *q_gens, "--avoid-vertex", *seeds,
            *extra, "--out", str(path)]
    code, _ = run(capsys, *argv)
    return code, path


@pytest.mark.parametrize(
    "preset, q_gens, seeds, extra, sha",
    CERTIFICATE_DIGESTS,
    ids=[f"{p}-{' '.join(q)}-{' '.join(s)}" for p, q, s, *_ in CERTIFICATE_DIGESTS],
)
def test_wm_build_certificate_is_pinned(capsys, tmp_path, preset, q_gens, seeds, extra, sha):
    code, path = _build_to_file(capsys, tmp_path, preset, q_gens, seeds, extra)
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_wm_build_plans_the_stages_once(capsys, tmp_path, monkeypatch):
    calls = {"finite_subgroup_elements": 0, "_stage_skeleton": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(construction, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(construction, name, counted)
    code, _ = _build_to_file(capsys, tmp_path, "grigorchuk", ["a"], ["00", "01", "10"], [])
    assert code == EXIT_OK
    assert calls == {"finite_subgroup_elements": 1, "_stage_skeleton": 1}


def test_library_build_writes_the_wm_build_bytes(capsys, tmp_path):
    code, path = _build_to_file(capsys, tmp_path, "grigorchuk", ["a"], ["00", "01", "10"], [])
    assert code == EXIT_OK
    G = grigorchuk_preset()
    seeds = [parse_vertex(s, 2) for s in ("00", "01", "10")]
    cert = construction.build_certificate(SubgroupHandle.from_strings(G, ["a"]), seeds)
    assert cert.to_json().encode() == path.read_bytes()


def test_wm_build_default_level_follows_the_stages(capsys, tmp_path):
    # Q = <a, d> with avoid 00 01: k1 = 3 and the second stage skips level 4, so
    # the stages sit at levels 3 and 5 and the level must be 7.  A default that
    # assumed one level per stage gave 6, and the build failed at stage 2.
    code, path = _build_to_file(capsys, tmp_path, "grigorchuk", ["a", "d"], ["00", "01"], [])
    assert code == EXIT_OK
    data = json.loads(path.read_text())
    assert [s["k"] for s in data["stages"]] == [3, 5]
    assert data["verification_level"] == 7
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1a12b5f5a8e120554a353850221747127e627e22d72ab4055dfea90a97f15e27"
    )
    code, out = run(capsys, "wm", "validate", str(path))
    assert code == EXIT_OK and out.endswith("passed")


def test_wm_build_hanoi_certificate_is_pinned_and_validates(capsys, tmp_path):
    # One stage at level 4 with a 10-letter word, validated in a new process;
    # no clause builds a level image, so Hanoi, no p-preset, needs no StabChain.
    preset = tmp_path / "hanoi.json"
    preset.write_text(json.dumps(HANOI))
    code, path = _build_to_file(capsys, tmp_path, str(preset), ["a"], ["2"], [])
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "fedf178038f4f4624f3d0d82c828f3424e703f292bf3b0b0f8bfdb9ac4e8be47"
    )
    data = json.loads(path.read_text())
    assert (data["verification_level"], len(data["stages"][0]["w"].split())) == (4, 10)
    src = str(Path(construction.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchgroups.cli", "wm", "validate", "--preset", str(preset),
         str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    assert run.stdout.splitlines()[-2:] == [
        "[ok] normal-closure-equality: w_1..w_1 fix level 1 and Q meets Stab(1) trivially, "
        "so H meet Stab(1) = ncl (Q meet Stab(1)) = ncl by Dedekind's law",
        "passed",
    ]


TRAP_DIGESTS = [
    ("grigorchuk", 1, "8edf65dc32ec1b89d31b910a6124a98d5844460eaf2d5973d9168aeacbfee7e1"),
    ("grigorchuk", 2, "2e2712fe936646d84eb409d916e17a7f9502667068b2d12737fff44c4be9cea3"),
    ("grigorchuk", 3, "cb11f828338fa2997998f266eaa9e2e1c8ff604f4a5dfac71923daa91ae9ff7c"),
    ("gupta-sidki", 2, "06ac9a878924c6b78dbac8c6f258e682ba4fb8288a1455a5020ec2f5a9531702"),
]


@pytest.mark.parametrize("preset, k, sha", TRAP_DIGESTS, ids=[f"{p}-{k}" for p, k, _ in TRAP_DIGESTS])
def test_wm_trap_output_is_pinned(capsys, preset, k, sha):
    # The base word and its conjugates are those pinned while each vertex
    # still ran its own transporter BFS, less the pullback generators before them.
    argv = ["wm", "trap", "--preset", preset, "--k", str(k), "--format", "json"]
    assert run_command(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# SHA-256 of `--format json` stdout of the conjugate walks, pinned while each
# candidate image was still built from conjugated words.  Both conjbound runs
# spend the whole budget of 2,000 conjugates; the escape run finds its
# conjugator at the third conjugate it visits.
CONJUGATE_WALK_DIGESTS = [
    (["wm", "conjbound", "--preset", "gupta-sidki", "--gens", "a", "--level", "5"],
     "f08e41183b65bf87dfa7e63f5beaa80c54c5713b6f175b547859a68f53a16075"),
    (["wm", "conjbound", "--preset", "grigorchuk", "--gens", "a", "--level", "5"],
     "3c47b1b1608611c3f92bc488e13203465b40942b09755955d12ddd7359e5e418"),
    (["sub", "escape", "--preset", "grigorchuk", "--gens", "b", "a", "--gamma", "b", "--level", "4"],
     "32c5fbbbf94a6c67bdfc41be58da7ab0a6b5400ee647eb3dee05a1177ad89229"),
]


@pytest.mark.parametrize(
    "argv, sha",
    CONJUGATE_WALK_DIGESTS,
    ids=["conjbound-gupta-sidki-a-5", "conjbound-grigorchuk-a-5", "escape-grigorchuk-b a-b-4"],
)
def test_conjugate_walk_output_is_pinned(capsys, argv, sha):
    assert run_command([*argv, "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    assert argv[0] == "sub" or json.loads(out)["count"] == 2000


# -- command paths no other test runs in process ------------------------------


@pytest.mark.parametrize(
    "argv, text, payload",
    [
        (["quotient", "stab", "01"],
         "d\nb a b a b\nb a c a b\nb a d a b\na b a\na c a\na d a",
         {"vertex": "01",
          "generators": ["d", "b a b a b", "b a c a b", "b a d a b", "a b a", "a c a", "a d a"]}),
        (["sub", "psi", "b", "--level", "1"], "a | c", {"level": 1, "sections": ["a", "c"]}),
        (["sub", "profile", "--gens", "a", "b", "--max-level", "4"], "1 1 8 256",
         {"indices": ["1", "1", "8", "256"]}),
    ],
    ids=["quotient-stab", "sub-psi", "sub-profile"],
)
def test_command_output_is_pinned(capsys, argv, text, payload):
    assert run(capsys, *argv) == (EXIT_OK, text)
    code, out = run(capsys, *argv, "--format", "json")
    meta = {"preset_fingerprint": grigorchuk_preset().fingerprint()}
    assert (code, json.loads(out)) == (EXIT_OK, {**payload, "meta": meta})


def test_exhausted_trap_search_exits_through_the_budget_handler(capsys):
    assert run_command(["wm", "trap", "--k", "8", "--budget", "5"]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "undecided: trap base search: budget 5 exhausted\n"


def test_exhausted_rist_search_is_undecided(capsys):
    argv = ["wm", "rist-search", "--preset", "gupta-sidki", "000", "--budget", "50"]
    assert run(capsys, *argv) == (EXIT_UNDECIDED, "not found (budget exhausted)")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == EXIT_UNDECIDED
    assert (json.loads(out)["word"], json.loads(out)["undecided"]) == (None, True)


def test_runaway_order_recursion_is_undecided_in_process(capsys, tmp_path):
    # The recursion of a = (a^2, 1) outgrows the interpreter stack first:
    # the RecursionError is caught as an exhausted budget.
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(RUNAWAY))
    argv = ["elem", "order", "--preset", str(path), "a"]
    assert run(capsys, *argv) == (EXIT_UNDECIDED, "undecided (budget exhausted)")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, owner, name", [
    (["quotient", "order", "--level", "6"], quotients, "quotient_order"),
    (["elem", "order", "a c"], Word, "order"),
], ids=["quotient-order", "elem-order"])
def test_an_exhausted_process_is_undecided_not_refuted(monkeypatch, capsys, fmt, argv, owner, name):
    def out_of_memory(*_args, **_kwargs):
        raise MemoryError
    monkeypatch.setattr(owner, name, out_of_memory)
    code = run_command([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_UNDECIDED, "", "undecided: out of memory\n")
