"""The benchmark's four workloads: seeded inputs, one pass, and oracles.

A workload turns a seed into the inputs of one pass, runs the pass on fresh
presets, and checks the answers afterwards, outside the timed pass.
The memo caches live on the preset and every CLI invocation starts empty,
so each pass is cold, as users see it.  A pass returns one `Op` per
operation: its wall time and its answer, or the error that ended it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

from tracing import Tracer, merge

import branchgroups as bg

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str
    seconds: float
    cpu: float  # CPU seconds, of the CLI process for a CLI operation
    answer: object = None
    error: str | None = None  # exception text, or "undecided" for an exhausted budget
    start: float = 0.0  # time.perf_counter() when the operation began


def _timed(label, fn) -> Op:
    start, cpu = time.perf_counter(), time.process_time()
    answer, error = None, None
    try:
        answer = fn()
    except bg.BudgetExhausted:
        error = "undecided"
    except Exception as exc:  # noqa: BLE001 - any error is a failed operation, reported by name
        error = f"{type(exc).__name__}: {exc}"
    return Op(label, time.perf_counter() - start, time.process_time() - cpu, answer, error, start)


def children_cpu() -> float:
    """CPU seconds of the child processes that have ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rng(name: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}")


class InProcess:
    """A workload whose pass calls the library in this process."""

    name = ""
    setup_code = ""
    rss = resource.RUSAGE_SELF  # the process whose peak RSS is reported

    def run_traced(self, inputs, out_prefix: str):
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            ops = self.run(inputs)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.write_spans(out_prefix + "-spans.tsv.gz")
        return ops, wall, tracer.summary()


# -- quotient_ladder ------------------------------------------------------


def grigorchuk_quotient_order(n: int) -> int:
    """|Γ/St(n)|: 2^(5·2^(n-3)+2) for n >= 3."""
    return {0: 1, 1: 2, 2: 8}[n] if n < 3 else 2 ** (5 * 2 ** (n - 3) + 2)


def gupta_sidki_quotient_order(n: int) -> int:
    """|G/St(n)|: 3^(2·3^(n-2)+1) for n >= 2."""
    return {0: 1, 1: 3}[n] if n < 2 else 3 ** (2 * 3 ** (n - 2) + 1)


EXPECTED_ORDER = {"grigorchuk": grigorchuk_quotient_order, "gupta-sidki": gupta_sidki_quotient_order}


class QuotientLadder(InProcess):
    """`quotient_order` on a fresh preset per rung, lowest level first.

    Rungs and order are the same for every seed, so runs with different
    seeds time the same work."""

    name = "quotient_ladder"
    setup_code = "import branchgroups\nbranchgroups.grigorchuk_preset()\nbranchgroups.gupta_sidki_preset()"

    def inputs(self, seed: int, small: bool):
        top_g, top_gs = (5, 3) if small else (6, 4)
        rungs = [("grigorchuk", n) for n in range(1, top_g + 1)]
        rungs += [("gupta-sidki", n) for n in range(1, top_gs + 1)]
        return rungs

    def run(self, inputs):
        return [
            _timed(f"{p}:{n}", lambda p=p, n=n: bg.quotient_order(bg.builtin_preset(p), n))
            for p, n in inputs
        ]

    def check(self, inputs, ops):
        return [
            f"{op.label}: order {op.answer}, expected {EXPECTED_ORDER[p](n)}"
            for (p, n), op in zip(inputs, ops)
            if op.error is None and op.answer != EXPECTED_ORDER[p](n)
        ]


# -- certificate ----------------------------------------------------------

# SHA-256 of the reference certificate written by
# `wm build --q-gens a --avoid-vertex 00 01 10` (level 6, Grigorchuk).
REFERENCE_CERTIFICATE_SHA256 = "b826627d5e0e3f52e24d73fd292592a382d332913e24d3c6a7996b195f7d1f5b"
BUILD_ARGS = ["wm", "build", "--q-gens", "a", "--avoid-vertex", "00", "01", "10"]


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Certificate:
    """`wm build` of the reference certificate, then `wm validate` of the
    file in a new process; each CLI process is one operation."""

    name = "certificate"
    setup_code = "import branchgroups.cli\nbranchgroups.builtin_preset('grigorchuk')"
    rss = resource.RUSAGE_CHILDREN

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def inputs(self, seed: int, small: bool):
        path = os.path.join(self.out_dir, f"certificate-{os.getpid()}.json")
        return [("build", BUILD_ARGS + ["--out", path]), ("validate", ["wm", "validate", path])]

    def _cli(self, label, prefix, args) -> Op:
        start, cpu = time.perf_counter(), children_cpu()
        proc = subprocess.run(prefix + args, env=child_env(), capture_output=True, text=True)
        seconds, cpu = time.perf_counter() - start, children_cpu() - cpu
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        answer = {"stdout": proc.stdout}
        if label == "build" and os.path.exists(args[-1]):
            with open(args[-1], "rb") as fh:
                answer["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        return Op(label, seconds, cpu, answer, error, start)

    def run(self, inputs):
        prefix = [sys.executable, "-m", "branchgroups.cli"]
        ops = [self._cli(label, prefix, args) for label, args in inputs]
        self._remove_certificate(inputs)
        return ops

    def run_traced(self, inputs, out_prefix: str):
        ops, summaries = [], []
        for label, args in inputs:
            prefix = [sys.executable, os.path.join(HERE, "tracecli.py"), f"{out_prefix}-{label}"]
            ops.append(self._cli(label, prefix, args))
            summaries.append(_load_json(f"{out_prefix}-{label}.json"))
        self._remove_certificate(inputs)
        return ops, sum(op.seconds for op in ops), merge(summaries)

    @staticmethod
    def _remove_certificate(inputs):
        path = inputs[0][1][-1]
        if os.path.exists(path):
            os.remove(path)

    def check(self, inputs, ops):
        failures = []
        for op in ops:
            if op.error is not None:
                continue
            if op.label == "build" and op.answer.get("sha256") != REFERENCE_CERTIFICATE_SHA256:
                failures.append(f"build: certificate digest {op.answer.get('sha256')} is not the reference")
            lines = op.answer["stdout"].strip().splitlines()
            if op.label == "validate" and (not lines or lines[-1] != "passed"):
                failures.append(f"validate: last line {lines[-1:] or '(none)'}, expected 'passed'")
        return failures


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- portrait_sweep -------------------------------------------------------


def random_word(names, rng, max_len=20):
    """Factors of a random word, drawn as tests/conftest.py::random_word does."""
    letters = [(g, 1) for g in names]
    return tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1)))


class PortraitSweep(InProcess):
    """Acceptance criterion 1 as a throughput test: per random Grigorchuk
    word of length <= 20, the word problem and the depth-12 portrait."""

    name = "portrait_sweep"
    setup_code = "import branchgroups\nbranchgroups.grigorchuk_preset()"
    words_per_pass = 500
    depth = 12

    def inputs(self, seed: int, small: bool):
        rng = _rng(self.name, seed)
        names = bg.grigorchuk_preset().gen_names
        return [random_word(names, rng) for _ in range(10 if small else self.words_per_pass)]

    def run(self, inputs):
        preset = bg.grigorchuk_preset()

        def one(factors):
            w = bg.Word(preset, factors)
            return w.is_identity(), w.portrait(self.depth).is_trivial()

        return [_timed("word", lambda f=f: one(f)) for f in inputs]

    def check(self, inputs, ops):
        return [
            f"word {bg.GroupPreset.format_factors(f)}: is_identity {op.answer[0]}, "
            f"depth-{self.depth} portrait trivial {op.answer[1]}"
            for f, op in zip(inputs, ops)
            if op.error is None and op.answer[0] != op.answer[1]
        ]


# -- long_words -----------------------------------------------------------

# Relators r with r = 1: conjugates u r u^-1 are identities hundreds of letters long.
RELATORS = {
    "grigorchuk": [(("a", 1), ("d", 1)) * 4, (("a", 1), ("c", 1)) * 8, (("a", 1), ("b", 1)) * 16],
    "gupta-sidki": [(("a", 1), ("b", 1)) * 9, (("a", 1), ("b", -1)) * 9],
}


def _letters(group: str, rng: random.Random, length: int):
    if group == "grigorchuk":
        # a and b/c/d alternate, so the word is already reduced
        return tuple(x for _ in range(length // 2) for x in (("a", 1), (rng.choice("bcd"), 1)))
    return tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(length))


def _inverse(factors):
    return tuple((g, -e) for g, e in reversed(factors))


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while m > 1:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out


def _perm_order(p) -> int:
    seen, order = set(), 1
    for i in range(len(p)):
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j]
            n += 1
        if n:
            order = math.lcm(order, n)
    return order


ORACLE_BUDGET = 200_000


def power_is_identity(w: bg.Word, k: int) -> bool:
    """Whether w^k = 1, by the wreath recursion.

    With r the order of w's root permutation, w^k = 1 iff r divides k and
    every first-level section of w^r has a trivial (k/r)-th power.  Closing
    the pairs (section, exponent) this way never forms w^k itself.
    """
    seen = {(w.factors, k)}
    stack = [(w, k)]
    while stack:
        g, e = stack.pop()
        if not g.factors:
            continue
        r = _perm_order(g.root_perm())
        if e % r:
            return False
        h = g**r
        for x in range(g.preset.degree):
            s = h.section((x,))
            if (s.factors, e // r) not in seen:
                seen.add((s.factors, e // r))
                stack.append((s, e // r))
                if len(seen) > ORACLE_BUDGET:
                    raise bg.BudgetExhausted("power oracle", ORACLE_BUDGET)
    return True


class LongWords(InProcess):
    """Per long word on fresh Grigorchuk and Gupta-Sidki presets: the word
    problem and the element order.  Random words plus conjugates of relators."""

    name = "long_words"
    setup_code = "import branchgroups\nbranchgroups.grigorchuk_preset()\nbranchgroups.gupta_sidki_preset()"
    length = 400
    random_per_group = 150
    identities_per_group = 10

    def inputs(self, seed: int, small: bool):
        rng = _rng(self.name, seed)
        n_random, n_ident = (4, 2) if small else (self.random_per_group, self.identities_per_group)
        out = []
        for group in ("gupta-sidki", "grigorchuk"):
            for _ in range(n_random):
                out.append((group, "random", _letters(group, rng, self.length)))
            for _ in range(n_ident):
                u = _letters(group, rng, rng.randrange(self.length // 4, self.length // 2))
                r = rng.choice(RELATORS[group])
                out.append((group, "identity", u + r + _inverse(u)))
        return out

    def run(self, inputs):
        presets = {"grigorchuk": bg.grigorchuk_preset(), "gupta-sidki": bg.gupta_sidki_preset()}

        def one(group, factors):
            w = bg.Word(presets[group], factors)
            return w.is_identity(), w.order()

        return [_timed(f"{g}:{kind}", lambda g=g, f=f: one(g, f)) for g, kind, f in inputs]

    def check(self, inputs, ops):
        # Fresh presets, so the oracle shares no cached sections with the pass.
        presets = {"grigorchuk": bg.grigorchuk_preset(), "gupta-sidki": bg.gupta_sidki_preset()}
        failures = []
        for (group, kind, factors), op in zip(inputs, ops):
            if op.error is None:
                problem = self._order_problem(bg.Word(presets[group], factors), kind, *op.answer)
                if problem:
                    failures.append(f"{op.label} word of {len(factors)} letters: {problem}")
        return failures

    @staticmethod
    def _order_problem(w, kind: str, ident: bool, m: int) -> str | None:
        if kind == "identity" and not (ident and m == 1):
            return f"known identity gave is_identity {ident}, order {m}"
        if ident != (m == 1):
            return f"is_identity {ident} but order {m}"
        try:
            if not power_is_identity(w, m):
                return f"order {m} but w^{m} != 1"
            for p in _prime_factors(m):
                if power_is_identity(w, m // p):
                    return f"order {m} but w^{m // p} = 1"
        except bg.BudgetExhausted:
            return "the order oracle ran out of budget"
        return None


def make(name: str, out_dir: str):
    if name == "certificate":
        return Certificate(out_dir)
    in_process = {"quotient_ladder": QuotientLadder, "portrait_sweep": PortraitSweep, "long_words": LongWords}
    return in_process[name]()
