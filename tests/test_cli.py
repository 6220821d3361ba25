import json

import pytest

from branchgroups.cli import (
    CONFIG_ENV,
    EXIT_FALSE,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    run_command,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


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


def test_sub_fixlevel_undecided(capsys):
    code, _ = run(capsys, "sub", "fixlevel", "--gens", "d", "--max-level", "4")
    assert code == EXIT_UNDECIDED


def test_quotient_order_decimal_string(capsys):
    code, out = run(capsys, "quotient", "order", "--level", "6")
    assert (code, out) == (EXIT_OK, str(2**42))


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
    code, out = run(capsys, "wm", "trap", "--gens", "a", "--k", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["check"]["passed"] is True


def test_wm_separate_inconclusive_exit_3(capsys):
    code, _ = run(
        capsys, "wm", "separate", "--gens-a", "b", "--gens-b", "b", "--depth", "3"
    )
    assert code == EXIT_UNDECIDED


def test_json_reports_reproducible_and_stamped(capsys):
    args = ["quotient", "order", "--level", "3", "--format", "json", "--seed", "7"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["order"] == "128"
    assert data["meta"]["seed"] == 7
    assert "preset_fingerprint" in data["meta"]
    assert "budget" in data["meta"]


def test_config_file_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "gupta-sidki", "format": "json"}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, out = run(capsys, "elem", "order", "a b")
    assert code == EXIT_OK
    assert json.loads(out)["order"] == "9"


def test_definition_file_as_preset(tmp_path, capsys):
    from branchgroups.presets import grigorchuk_preset, save_preset

    path = tmp_path / "group.json"
    save_preset(grigorchuk_preset(), path)
    code, out = run(capsys, "elem", "order", "--preset", str(path), "a c")
    assert (code, out) == (EXIT_OK, "8")
