"""The library imports nothing outside the standard library, and the CLI
starts without the heavy standard modules."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchgroups
from branchgroups.cli import build_parser

SOURCES = sorted(Path(branchgroups.__file__).parent.glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(Path(branchgroups.__file__).parents[1]))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_only_quotients_knows_how_level_permutations_are_stored():
    # The letter tables, the engine choice and the bytes-or-tuple
    # representation stay private to quotients: no other module imports
    # them or reads them off the module.
    private = {"_letters", "_level_image", "_perm_type", "_byte_table"}
    leaks = []
    for path in SOURCES:
        if path.name == "quotients.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                leaks += [f"{path.name}: imports {a.name}" for a in node.names if a.name in private]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                leaks.append(f"{path.name}: reads {node.attr}")
    assert leaks == []


def test_only_presets_and_words_know_how_words_are_coded():
    # The letter codes, the action table and the bytes-or-tuple container
    # stay private to presets and the word engine: every other module reads
    # words through `decode`, `reduce` and `Word`.
    private = {"_letter_of", "_code_of", "_encode", "_merge", "_action", "_word_type",
               "_rewrite", "_letter_cache", "_Letters"}
    leaks = []
    for path in SOURCES:
        if path.name in ("presets.py", "words.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                leaks += [f"{path.name}: imports {a.name}" for a in node.names if a.name in private]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                leaks.append(f"{path.name}: reads {node.attr}")
    assert leaks == []


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml's requires-python; a newer construct would break that interpreter.
    pyproject = Path(branchgroups.__file__).parents[2] / "pyproject.toml"
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject.read_text()).groups()
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(int(major), int(minor)))


def _fresh_imports(statement: str, *names: str) -> list[str]:
    """Which of the named modules a fresh interpreter loads running the statement."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        f"print(sorted(set({names!r}) & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize; the records are
    # plain classes so that a CLI process does not pay for them.
    assert _fresh_imports("import branchgroups.cli", "dataclasses", "inspect") == []


def _cli_imports(*argv: str) -> tuple[str, set[str]]:
    """A fresh `python -m branchgroups.cli` process's stdout and the modules it
    imported, by name, from its `-X importtime` report."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "branchgroups.cli", *argv],
                         env=ENV, capture_output=True, text=True)
    rows = [line.split("|") for line in out.stderr.splitlines() if line.startswith("import time:")]
    return out.stdout, {row[-1].strip() for row in rows[1:]}  # the first row is the header


def test_package_import_loads_only_the_word_and_quotient_core():
    # the word core only; quotients, subgroups, construction, the branch
    # data, the fingerprint's hashlib and JSON load on first use
    lazy = ("hashlib", "branchgroups.quotients", "branchgroups.subgroups", "branchgroups.construction",
            "branchgroups.branching")
    assert _fresh_imports("import branchgroups", "json", *lazy) == []
    assert _fresh_imports("import branchgroups.cli", "json", *lazy) == []
    first_use = "import branchgroups\nbranchgroups.fixed_tree"
    assert _fresh_imports(first_use, "json", *lazy) == ["branchgroups.quotients", "branchgroups.subgroups"]
    first_use = "import branchgroups\nbranchgroups.quotient_order"
    assert _fresh_imports(first_use, "json", *lazy) == ["branchgroups.quotients"]
    # a text-format word command loads neither the quotient engine nor JSON
    for cmd in ("apply", "section", "order", "identity"):
        out, loaded = _cli_imports("elem", cmd, "a b", *(["0"] if cmd in ("apply", "section") else []))
        assert out and "branchgroups.words" in loaded, cmd
        assert loaded.isdisjoint({"json", *lazy}), cmd
    out, loaded = _cli_imports("elem", "identity", "--format", "json", "a")
    assert {"json", "branchgroups.quotients"} & loaded == {"json"}


def test_only_quotient_order_and_group_validate_load_the_branch_data(tmp_path):
    # certificate processes compile none of it; the reference build is at level 6
    cert = tmp_path / "cert.json"
    build = ["wm", "build", "--q-gens", "a", "--avoid-vertex", "00", "01", "10", "--out", str(cert)]
    out, loaded = _cli_imports(*build)
    assert out and "branchgroups.construction" in loaded and "branchgroups.branching" not in loaded
    out, loaded = _cli_imports("wm", "validate", str(cert))
    assert out.endswith("passed\n") and "branchgroups.branching" not in loaded
    for argv in (["quotient", "order", "--level", "6"], ["group", "validate"]):
        out, loaded = _cli_imports(*argv)
        assert out and "branchgroups.branching" in loaded, argv


def test_elem_portrait_loads_no_quotients():
    # its depth is checked against tree.LEVEL_CAP
    out, loaded = _cli_imports("elem", "portrait", "a b", "--depth", "3")
    assert '"depth": 3' in out and "branchgroups.words" in loaded
    assert "branchgroups.quotients" not in loaded


def test_every_exported_name_resolves():
    for name in branchgroups.__all__:
        assert getattr(branchgroups, name) is not None, name
    assert set(branchgroups.__all__) <= set(dir(branchgroups))
    from branchgroups import construction, quotients, subgroups

    assert branchgroups.quotient_order is quotients.quotient_order
    assert branchgroups.fixed_tree is subgroups.fixed_tree
    assert branchgroups.WMCertificate is construction.WMCertificate
    assert "fixed_tree" not in vars(branchgroups)  # looked up, never stored
    assert "quotient_order" not in vars(branchgroups)
    with pytest.raises(AttributeError):
        branchgroups.no_such_name


def _children(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_parser_of_the_named_group_answers_as_the_full_parser(capsys):
    full = _children(build_parser())
    argvs = [["--help"], [], ["nope"]]
    for group, group_parser in full.items():
        argvs += [[group, "--help"], [group], [group, "nope"]]
        argvs += [[group, cmd, "--help"] for cmd in _children(group_parser)]
    assert len(argvs) == 3 + 3 * len(full) + 23
    for argv in argvs:
        lazy = build_parser(argv[0] if argv else None)
        assert _outcome(lazy, argv, capsys) == _outcome(build_parser(), argv, capsys), argv
