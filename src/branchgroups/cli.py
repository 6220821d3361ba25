"""Command-line surface for the library.

Exit codes: 0 = success (or a check that came out true), 1 = a check that
came out false, 2 = usage or precondition error, 3 = undecided within
budget.  A refutation (exit 1) and an exhausted search (exit 3) are never
conflated.

Every option is read by the computation it configures: `--budget` exists
only on `elem order|identity`, `sub escape` and
`wm rist-search|pullback|trap|build|conjbound`.  Every JSON report embeds
the preset fingerprint and, on those subcommands, the budget it ran with,
so identical invocations reproduce byte-identical output.

A malformed preset file or certificate is a usage error (exit 2); only
`group validate` reads a preset file unchecked, to report its issues.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construction, quotients, subgroups
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
        self.meta = {"preset_fingerprint": preset.fingerprint()}
        if hasattr(args, "budget"):
            self.meta["budget"] = args.budget
        self.format = args.format

    def emit(self, payload: dict, text: str) -> None:
        if self.format == "json":
            body = dict(payload)
            body["meta"] = self.meta
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
    if not texts:
        raise SystemExit(EXIT_USAGE)
    return subgroups.SubgroupHandle.from_strings(preset, texts, membership_level=level)


def _add_common(sub, budget: int | None = None):
    """--preset and --format; --budget only where the computation takes one."""
    sub.add_argument("--preset", default="grigorchuk", help="built-in name or definition file")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    if budget is not None:
        sub.add_argument("--budget", type=int, default=budget)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Exact computation in self-similar groups on rooted trees.",
    )
    top = parser.add_subparsers(dest="group_cmd", required=True)

    g = top.add_parser("group", help="preset inspection").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("show")
    _add_common(p)
    p = g.add_parser("validate")
    _add_common(p)

    e = top.add_parser("elem", help="element arithmetic").add_subparsers(
        dest="cmd", required=True
    )
    p = e.add_parser("apply")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("vertex")
    p = e.add_parser("section")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("vertex")
    p = e.add_parser("order")
    _add_common(p, DEFAULT_ORDER_BUDGET)
    p.add_argument("word")
    p = e.add_parser("portrait")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("--depth", type=int, default=3)
    p = e.add_parser("identity")
    _add_common(p, DEFAULT_IDENTITY_BUDGET)
    p.add_argument("word")

    q = top.add_parser("quotient", help="finite level quotients").add_subparsers(
        dest="cmd", required=True
    )
    p = q.add_parser("order")
    _add_common(p)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p = q.add_parser("transitive")
    _add_common(p)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p = q.add_parser("index")
    _add_common(p)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p.add_argument("--gens", nargs="+", required=True)
    p = q.add_parser("stab")
    _add_common(p)
    p.add_argument("vertex")

    s = top.add_parser("sub", help="subgroup diagnostics").add_subparsers(
        dest="cmd", required=True
    )
    p = s.add_parser("fix")
    _add_common(p)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_LEVEL)
    p = s.add_parser("fixlevel")
    _add_common(p)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--max-level", type=int, default=8)
    p = s.add_parser("psi")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("--level", type=int, default=1)
    p = s.add_parser("rist")
    _add_common(p)
    p.add_argument("word")
    p.add_argument("vertex")
    p = s.add_parser("profile")
    _add_common(p)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--max-level", type=int, default=DEFAULT_LEVEL)
    p = s.add_parser("escape")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)

    w = top.add_parser("wm", help="finite-stage constructions").add_subparsers(
        dest="cmd", required=True
    )
    p = w.add_parser("rist-search")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("vertex")
    p = w.add_parser("pullback")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("--gens", nargs="+", required=True, help="generators of Delta")
    p.add_argument("--delta-level", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p = w.add_parser("trap")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("--gens", nargs="+", required=True, help="generators of Q")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p = w.add_parser("build")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("--q-gens", nargs="+", required=True)
    p.add_argument("--avoid-vertex", nargs="+", required=True,
                   help="seed vertices for vertex-stabilizer avoid subgroups")
    p.add_argument("--level", type=int, default=None,
                   help="verification and membership level")
    p.add_argument("--out", default=None, help="write certificate JSON here")
    p = w.add_parser("validate")
    _add_common(p)
    p.add_argument("certificate", help="certificate JSON file")
    p = w.add_parser("separate")
    _add_common(p)
    p.add_argument("--gens-a", nargs="+", required=True)
    p.add_argument("--gens-b", nargs="+", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_LEVEL)
    p = w.add_parser("conjbound")
    _add_common(p, DEFAULT_SEARCH_BUDGET)
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
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
    if args.cmd == "fix":
        h = _handle(preset, args.gens)
        data = subgroups.fixed_tree(h, args.depth).to_dict()
        rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
        return EXIT_OK
    if args.cmd == "fixlevel":
        h = _handle(preset, args.gens)
        lvl = subgroups.minimal_non_fixing_level(h, args.max_level)
        if lvl is None:
            rep.emit(
                {"minimal_non_fixing_level": None, "undecided": True},
                f"none up to level {args.max_level}",
            )
            return EXIT_UNDECIDED
        rep.emit({"minimal_non_fixing_level": lvl}, str(lvl))
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
    f = subgroups.conjugate_escaping(h, gamma, args.level, budget=args.budget)
    if f is None:
        rep.emit({"conjugator": None, "undecided": True}, "undecided (budget exhausted)")
        return EXIT_UNDECIDED
    rep.emit({"conjugator": str(f) or "1"}, str(f) or "1")
    return EXIT_OK


def _cmd_wm(args, preset, rep) -> int:
    if args.cmd == "rist-search":
        v = parse_vertex(args.vertex, preset.degree)
        g = next(construction.iter_rist_elements(v, preset, args.budget), None)
        if g is None:
            rep.emit({"word": None, "undecided": True}, "not found (budget exhausted)")
            return EXIT_UNDECIDED
        rep.emit({"word": str(g)}, str(g))
        return EXIT_OK
    if args.cmd == "pullback":
        delta_level = args.delta_level if args.delta_level is not None else args.level
        delta = _handle(preset, args.gens, level=delta_level)
        result = construction.pullback_subgroup(delta, args.k, args.level, budget=args.budget)
        data = result.to_dict()
        rep.emit(data, json.dumps(data, sort_keys=True, indent=2))
        return EXIT_OK
    if args.cmd == "trap":
        q = _handle(preset, args.gens)
        h = construction.trap_subgroup(q, args.k, budget=args.budget)
        report = construction.level_trap_check(h, args.k, args.l)
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
        ha = _handle(preset, args.gens_a)
        hb = _handle(preset, args.gens_b)
        t = construction.fix_separation_witness(ha, hb, args.depth)
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


_DISPATCH = {
    "group": _cmd_group,
    "elem": _cmd_elem,
    "quotient": _cmd_quotient,
    "sub": _cmd_sub,
    "wm": _cmd_wm,
}


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except (construction.CertificateBuildError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run_command())


if __name__ == "__main__":
    main()
