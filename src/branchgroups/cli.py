"""Command-line surface for the library.

Exit codes: 0 = success (or a check that came out true), 1 = a check that
came out false, 2 = usage or precondition error, 3 = undecided within
budget.  A refutation (exit 1) and an exhausted search (exit 3) are never
conflated.

Every option is read by the computation it configures, and none gives a
depth that the computation works out: `sub fixlevel` and `wm separate`
walk section states to an exact answer, and `wm trap --k` checks level
k + 1, the level its subgroup is built to leave unfixed.  `--budget`
exists only on `elem order|identity`, `sub escape` and
`wm rist-search|trap|build|conjbound`.  Every JSON report embeds the
preset fingerprint and, on those subcommands, the budget it ran with, so
identical invocations reproduce byte-identical output.

A malformed preset file or certificate is a usage error (exit 2); only
`group validate` reads a preset file unchecked, to report its issues.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import quotients
from .presets import GroupPreset, _preset_from_dict, builtin_preset, load_preset, validate_preset
from .tree import format_vertex, parse_vertex
from .words import DEFAULT_IDENTITY_BUDGET, DEFAULT_ORDER_BUDGET, DEFAULT_SEARCH_BUDGET
from .words import BudgetExhausted, InfiniteOrder, Word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3

DEFAULT_LEVEL = 4


class _Reporter:
    def __init__(self, preset: GroupPreset, args):
        self.preset = preset
        self.meta = {"budget": args.budget} if hasattr(args, "budget") else {}
        self.format = args.format

    def emit(self, payload: dict, text: str) -> None:
        if self.format == "json":
            body = dict(payload)
            body["meta"] = {"preset_fingerprint": self.preset.fingerprint(), **self.meta}
            print(json.dumps(body, sort_keys=True))
        else:
            print(text)


def _resolve_preset(args) -> GroupPreset:
    if not os.path.exists(args.preset):
        return builtin_preset(args.preset)
    if (args.group_cmd, args.cmd) == ("group", "validate"):
        # reports a malformed file's issues, which every other command refuses
        with open(args.preset, encoding="utf-8") as fh:
            return _preset_from_dict(json.load(fh))
    return load_preset(args.preset)


def _word(preset: GroupPreset, text: str) -> Word:
    return Word.from_str(preset, text)


def _handle(preset: GroupPreset, texts, level=None) -> subgroups.SubgroupHandle:
    from . import subgroups
    return subgroups.SubgroupHandle.from_strings(preset, texts, membership_level=level)


def _arg(*flags, **kwargs):
    return flags, kwargs


_WORD = _arg("word")
_VERTEX = _arg("vertex")
_GENS = _arg("--gens", nargs="+", required=True)
_LEVEL = _arg("--level", type=int, default=DEFAULT_LEVEL)

# group -> (help, {command: (budget default or None, arguments after the common ones)})
_COMMANDS = {
    "group": ("preset inspection", {"show": (None,), "validate": (None,)}),
    "elem": ("element arithmetic", {
        "apply": (None, _WORD, _VERTEX),
        "section": (None, _WORD, _VERTEX),
        "order": (DEFAULT_ORDER_BUDGET, _WORD),
        "portrait": (None, _WORD, _arg("--depth", type=int, default=3)),
        "identity": (DEFAULT_IDENTITY_BUDGET, _WORD),
    }),
    "quotient": ("finite level quotients", {
        "order": (None, _LEVEL),
        "transitive": (None, _LEVEL),
        "index": (None, _LEVEL, _GENS),
        "stab": (None, _VERTEX),
    }),
    "sub": ("subgroup diagnostics", {
        "fix": (None, _GENS, _arg("--depth", type=int, default=DEFAULT_LEVEL)),
        "fixlevel": (None, _GENS),
        "psi": (None, _WORD, _arg("--level", type=int, default=1)),
        "rist": (None, _WORD, _VERTEX),
        "profile": (None, _GENS, _arg("--max-level", type=int, default=DEFAULT_LEVEL)),
        "escape": (DEFAULT_SEARCH_BUDGET, _GENS, _arg("--gamma", required=True), _LEVEL),
    }),
    "wm": ("finite-stage constructions", {
        "rist-search": (DEFAULT_SEARCH_BUDGET, _VERTEX),
        "trap": (DEFAULT_SEARCH_BUDGET, _arg("--k", type=int, required=True)),
        "build": (
            DEFAULT_SEARCH_BUDGET,
            _arg("--q-gens", nargs="+", required=True),
            _arg("--avoid-vertex", nargs="+", required=True,
                 help="seed vertices for vertex-stabilizer avoid subgroups"),
            _arg("--level", type=int, default=None, help="verification and membership level"),
            _arg("--out", default=None, help="write certificate JSON here"),
        ),
        "validate": (None, _arg("certificate", help="certificate JSON file")),
        "separate": (
            None,
            _arg("--gens-a", nargs="+", required=True),
            _arg("--gens-b", nargs="+", required=True),
        ),
        "conjbound": (DEFAULT_SEARCH_BUDGET, _GENS, _LEVEL),
    }),
}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given a group name, only that group's
    command parsers are built; help and usage errors come out the same."""
    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Exact computation in self-similar groups on rooted trees.",
    )
    top = parser.add_subparsers(dest="group_cmd", required=True)
    for name, (help_text, commands) in _COMMANDS.items():
        cmds = top.add_parser(name, help=help_text).add_subparsers(dest="cmd", required=True)
        if group not in (None, name):
            continue
        for cmd, (budget, *arguments) in commands.items():
            p = cmds.add_parser(cmd)
            # --preset and --format; --budget only where the computation takes one
            p.add_argument("--preset", default="grigorchuk", help="built-in name or definition file")
            p.add_argument("--format", choices=["text", "json"], default="text")
            if budget is not None:
                p.add_argument("--budget", type=int, default=budget)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return parser


def _cmd_group(args, preset, rep) -> int:
    if args.cmd == "show":
        data = preset.to_dict()
        data["fingerprint"] = preset.fingerprint()
        rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
        return EXIT_OK
    issues = validate_preset(preset)
    payload = {
        "issues": [
            {"code": i.code, "location": i.location, "message": i.message}
            for i in issues
        ]
    }
    text = "\n".join(f"{i.code} at {i.location}: {i.message}" for i in issues) or "ok"
    rep.emit(payload, text)
    return EXIT_OK if not issues else EXIT_FALSE


def _cmd_elem(args, preset, rep) -> int:
    if args.cmd == "apply":
        w = _word(preset, args.word)
        v = parse_vertex(args.vertex, preset.degree)
        out = format_vertex(w.apply(v))
        rep.emit({"image": out}, out)
        return EXIT_OK
    if args.cmd == "section":
        w = _word(preset, args.word)
        v = parse_vertex(args.vertex, preset.degree)
        out = str(w.section(v)) or "1"
        rep.emit({"section": out}, out)
        return EXIT_OK
    if args.cmd == "order":
        w = _word(preset, args.word)
        try:
            m = w.order(args.budget)
        except BudgetExhausted:
            rep.emit({"order": None, "undecided": True}, "undecided (budget exhausted)")
            return EXIT_UNDECIDED
        except InfiniteOrder:
            m = "infinite"
        rep.emit({"order": str(m)}, str(m))
        return EXIT_OK
    if args.cmd == "portrait":
        w = _word(preset, args.word)
        quotients._check_level(preset, args.depth)
        data = w.portrait(args.depth).to_dict()
        rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
        return EXIT_OK
    w = _word(preset, args.word)
    try:
        ans = w.is_identity(args.budget)
    except BudgetExhausted:
        rep.emit({"identity": None, "undecided": True}, "undecided (budget exhausted)")
        return EXIT_UNDECIDED
    rep.emit({"identity": ans}, "true" if ans else "false")
    return EXIT_OK if ans else EXIT_FALSE


def _cmd_quotient(args, preset, rep) -> int:
    if args.cmd == "order":
        m = quotients.quotient_order(preset, args.level)
        rep.emit({"level": args.level, "order": str(m)}, str(m))
        return EXIT_OK
    if args.cmd == "transitive":
        ans = quotients.is_level_transitive(preset, args.level)
        rep.emit({"level": args.level, "transitive": ans}, "true" if ans else "false")
        return EXIT_OK if ans else EXIT_FALSE
    if args.cmd == "index":
        words = [_word(preset, t) for t in args.gens]
        m = quotients.subgroup_index_in_quotient(words, args.level)
        rep.emit({"level": args.level, "index": str(m)}, str(m))
        return EXIT_OK
    v = parse_vertex(args.vertex, preset.degree)
    words = quotients.point_stabilizer_words(preset, v)
    payload = {"vertex": format_vertex(v), "generators": [str(w) for w in words]}
    rep.emit(payload, "\n".join(str(w) for w in words))
    return EXIT_OK


def _cmd_sub(args, preset, rep) -> int:
    from . import subgroups
    if args.cmd == "fix":
        h = _handle(preset, args.gens)
        data = subgroups.fixed_tree(h, args.depth).to_dict()
        rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
        return EXIT_OK
    if args.cmd == "fixlevel":
        lvl = subgroups.minimal_non_fixing_level(_handle(preset, args.gens))
        text = "never: a ray is fixed" if lvl is None else str(lvl)
        rep.emit({"minimal_non_fixing_level": lvl}, text)
        return EXIT_OK
    if args.cmd == "psi":
        w = _word(preset, args.word)
        try:
            secs = subgroups.psi_sections(w, args.level)
        except subgroups.NotInLevelStabilizerError as exc:
            rep.emit({"error": str(exc)}, f"not in level stabilizer: {exc}")
            return EXIT_FALSE
        texts = [str(s) or "1" for s in secs]
        rep.emit({"level": args.level, "sections": texts}, " | ".join(texts))
        return EXIT_OK
    if args.cmd == "rist":
        w = _word(preset, args.word)
        v = parse_vertex(args.vertex, preset.degree)
        ans = subgroups.in_rigid_stabilizer(w, v)
        rep.emit({"in_rigid_stabilizer": ans}, "true" if ans else "false")
        return EXIT_OK if ans else EXIT_FALSE
    if args.cmd == "profile":
        h = _handle(preset, args.gens)
        prof = subgroups.index_growth_profile(h, args.max_level)
        payload = {"indices": [str(x) for x in prof]}
        rep.emit(payload, " ".join(str(x) for x in prof))
        return EXIT_OK
    h = _handle(preset, args.gens, level=args.level)
    gamma = _word(preset, args.gamma)
    f, visited = subgroups.conjugate_escaping(h, gamma, args.level, budget=args.budget)
    if f is None and visited < args.budget:
        rep.emit(
            {"conjugator": None, "undecided": True, "conjugates": visited, "all_contain_gamma": True},
            f"undecided (all {visited} level-{args.level} conjugates contain gamma)",
        )
        return EXIT_UNDECIDED
    if f is None:
        rep.emit({"conjugator": None, "undecided": True}, "undecided (budget exhausted)")
        return EXIT_UNDECIDED
    rep.emit({"conjugator": str(f) or "1"}, str(f) or "1")
    return EXIT_OK


def _cmd_wm(args, preset, rep) -> int:
    from . import construction
    try:
        if args.cmd == "rist-search":
            v = parse_vertex(args.vertex, preset.degree)
            g = next(construction.iter_rist_elements(v, preset, args.budget), None)
            if g is None:
                rep.emit({"word": None, "undecided": True}, "not found (budget exhausted)")
                return EXIT_UNDECIDED
            rep.emit({"word": str(g)}, str(g))
            return EXIT_OK
        if args.cmd == "trap":
            h = construction.trap_subgroup(preset, args.k, budget=args.budget)
            report = construction.level_trap_check(h, args.k)
            data = {"subgroup": h.to_dict(), "check": report.to_dict()}
            rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
            return EXIT_OK if report.passed else EXIT_FALSE
        if args.cmd == "build":
            q = _handle(preset, args.q_gens)
            seeds = [parse_vertex(t, preset.degree) for t in args.avoid_vertex]
            cert = construction.build_certificate(
                q, seeds, rist_budget=args.budget, verification_level=args.level
            )
            text = cert.to_json()
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            rep.emit(cert.to_dict(), text if not args.out else f"certificate written to {args.out}")
            return EXIT_OK
        if args.cmd == "validate":
            with open(args.certificate, encoding="utf-8") as fh:
                cert = construction.WMCertificate.from_json(fh.read(), preset)
            report = construction.validate_certificate(cert, preset)
            lines = [
                f"[{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                for c in report.clauses
            ]
            lines.append("passed" if report.passed else "failed")
            rep.emit(report.to_dict(), "\n".join(lines))
            return EXIT_OK if report.passed else EXIT_FALSE
        if args.cmd == "separate":
            ha, hb = _handle(preset, args.gens_a), _handle(preset, args.gens_b)
            t = construction.fix_separation_witness(ha, hb)
            if t is None:
                rep.emit({"witness": None, "undecided": True}, "inconclusive")
                return EXIT_UNDECIDED
            rep.emit({"witness": t}, str(t))
            return EXIT_OK
        h = _handle(preset, args.gens, level=args.level)
        bound = construction.conjugate_count_lower_bound(h, args.level, budget=args.budget)
        data = bound.to_dict()
        data["level"] = args.level
        rep.emit(data, str(bound.count))
        return EXIT_OK
    except construction.RistSearchExhausted as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except construction.CertificateBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


_DISPATCH = {
    "group": _cmd_group,
    "elem": _cmd_elem,
    "quotient": _cmd_quotient,
    "sub": _cmd_sub,
    "wm": _cmd_wm,
}


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        preset = _resolve_preset(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep = _Reporter(preset, args)
    try:
        return _DISPATCH[args.group_cmd](args, preset, rep)
    except BudgetExhausted as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run_command())


if __name__ == "__main__":
    main()
