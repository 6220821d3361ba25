"""Span tracing of branchgroups' public functions, installed from outside.

The library has no instrumentation of its own, so `Tracer.install()` swaps
each traced function for a wrapper in every `branchgroups` module namespace
that holds it (and on the class, for methods), and `uninstall()` puts the
originals back.  A timed wrapper records one span per call as
(name, start, end, parent) in flat arrays kept in memory; `write_spans()`
writes them out at the end.  A layer's self time is its spans' duration
minus the time covered by their child spans.  The two hottest permutation
helpers run millions of times per quotient, so they are only counted.

Generators are timed per resumption: a span covers one `next()` and closes
before the item is handed to the consumer, so spans nest properly.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

SUBMODULES = ("tree", "presets", "words", "quotients", "subgroups", "construction", "cli")

# (metric prefix, module, attribute path) for every timed public function.
TIMED = (
    ("presets.reduce", "presets", "GroupPreset.reduce"),
    ("words.section1", "words", "section1"),
    ("words.root_perm_of", "words", "root_perm_of"),
    ("words.portrait_factors", "words", "portrait_factors"),
    ("words.apply_factors", "words", "apply_factors"),
    ("words.is_identity_factors", "words", "is_identity_factors"),
    ("words.order_factors", "words", "order_factors"),
    ("quotients.StabChain.init", "quotients", "StabChain.__init__"),
    ("quotients.StabChain.contains", "quotients", "StabChain.contains"),
    ("quotients.word_perm", "quotients", "word_perm"),
    ("quotients.point_stabilizer_words", "quotients", "point_stabilizer_words"),
    ("subgroups.image", "subgroups", "SubgroupHandle.image"),
    ("subgroups.contains_at_level", "subgroups", "SubgroupHandle.contains_at_level"),
    ("subgroups.in_rigid_stabilizer", "subgroups", "in_rigid_stabilizer"),
    ("construction.build_certificate", "construction", "build_certificate"),
    ("construction.validate_certificate", "construction", "validate_certificate"),
    ("construction.transporter_word", "construction", "transporter_word"),
    ("construction.finite_subgroup_elements", "construction", "finite_subgroup_elements"),
    ("construction.parabolic_approximation", "construction", "parabolic_approximation"),
    ("cli.run_command", "cli", "run_command"),
    ("tree.level_vertices", "tree", "level_vertices"),
)
GENERATORS = (
    ("subgroups.enumerate_reduced_words", "subgroups", "enumerate_reduced_words"),
    ("construction.iter_rist_elements", "construction", "iter_rist_elements"),
)
COUNTED = (
    ("quotients.compose", "quotients", "compose"),
    ("quotients.perm_inverse", "quotients", "perm_inverse"),
)

CACHES = ("section", "identity", "order", "apply")


class Tracer:
    """Spans and counters for one traced run; state lives on the instance."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.base_len = 0
        self.presets: list = []
        self._cells: list[tuple[str, list[int]]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"branchgroups.{name}") for name in SUBMODULES}
        namespaces = [importlib.import_module("branchgroups"), *mods.values()]
        hooks = self._hooks(mods)
        for name, mod, path in TIMED:
            self._replace(namespaces, mods[mod], path,
                          lambda fn, n=name: self._span(n, fn, *hooks.get(n, ())))
        for name, mod, path in GENERATORS:
            self._replace(namespaces, mods[mod], path, lambda fn, n=name: self._gen_span(n, fn))
        for name, mod, path in COUNTED:
            self._replace(namespaces, mods[mod], path, lambda fn, n=name: self._counter(n, fn))
        # Collect every preset built while tracing, to read its caches at the end.
        preset_cls = mods["presets"].GroupPreset
        init = preset_cls.__init__

        def tracked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.presets.append(obj)

        self._set(preset_cls, "__init__", tracked_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace(self, namespaces, module, path, make) -> None:
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(original)
        # A method is replaced on its class, a function in every namespace that imported it.
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
        for ns in namespaces:
            if vars(ns).get(attr) is original:
                self._set(ns, attr, wrapper)

    def _hooks(self, mods):
        """Per-function (before, after, counted-exceptions) hooks for the ratios."""
        counts = self.counts
        budget_exhausted = (mods["words"].BudgetExhausted,)
        build_id = self._name_id("construction.build_certificate")

        def bump(key):
            counts[key] = counts.get(key, 0) + 1

        def chain_after(state, args, result):
            self.base_len = max(self.base_len, len(args[0].base()))

        def contains_after(state, args, result):
            if result:
                bump("quotients.StabChain.contains.members")

        def image_before(args):
            return args[1] in args[0]._images

        def image_after(hit, args, result):
            if hit:
                bump("subgroups.image.hits")

        def membership_before(args):
            top = self._stack[-1]
            return top >= 0 and self.name_ids[top] == build_id

        def membership_after(from_build, args, result):
            if not result:
                bump("subgroups.contains_at_level.refuted")
            if from_build:
                # build_certificate tests each rist candidate against an avoid subgroup
                bump("construction.rist.tried")
                if not result:
                    bump("construction.rist.escaped")

        return {
            "words.is_identity_factors": (None, None, budget_exhausted),
            "words.order_factors": (None, None, budget_exhausted),
            "quotients.StabChain.init": (None, chain_after, ()),
            "quotients.StabChain.contains": (None, contains_after, ()),
            "subgroups.image": (image_before, image_after, ()),
            "subgroups.contains_at_level": (membership_before, membership_after, ()),
        }

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name, fn, before=None, after=None, raises=()):
        nid = self._name_id(name)
        ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns
        counts = self.counts
        undecided = name + ".undecided"

        if before is None and after is None and not raises:
            # The hook-free wrapper: section1 and root_perm_of run it millions of times.

            def wrapper(*args, **kwargs):
                idx = len(ids)
                ids.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

            return wrapper

        def hooked(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except raises:
                counts[undecided] = counts.get(undecided, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return hooked

    def _gen_span(self, name, fn):
        nid = self._name_id(name)
        ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns
        counts = self.counts
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(ids)
                ids.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                counts[yielded] = counts.get(yielded, 0) + 1
                yield item

        return wrapper

    def _counter(self, name, fn):
        cell = [0]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        self._cells.append((name + ".calls", cell))
        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals: calls and self nanoseconds per span name, counters,
        the deepest stabilizer-chain base and the cache sizes of every
        preset built while tracing."""
        n = len(self.name_ids)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            self_ns[nid] += durations[i] - child[i]
        counts = dict(self.counts)
        for key, cell in self._cells:
            counts[key] = cell[0]
        for name, nid in self._ids.items():
            counts[name + ".calls"] = calls[nid]
        caches = {
            c: sum(len(vars(p).get(f"_{c}_cache", ())) for p in self.presets) for c in CACHES
        }
        return {
            "counts": counts,
            "self_ns": {name: self_ns[nid] for name, nid in self._ids.items()},
            "base_len": self.base_len,
            "caches": caches,
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """All spans as gzipped TSV: name, start_ns, end_ns, parent index."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            rows = zip(self.name_ids, self.starts, self.ends, self.parents)
            fh.writelines(f"{names[i]}\t{s}\t{e}\t{p}\n" for i, s, e, p in rows)


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several traced processes into one."""
    out = {"counts": {}, "self_ns": {}, "base_len": 0, "caches": {c: 0 for c in CACHES}, "spans": 0}
    for s in summaries:
        for key in ("counts", "self_ns", "caches"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["base_len"] = max(out["base_len"], s["base_len"])
        out["spans"] += s["spans"]
    return out


def _ratio(num: int, den: int) -> float:
    """A share of its base count; 0 when the base is 0 (the base is reported too)."""
    return num / den if den else 0.0


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    c = s["counts"]
    calls = lambda name: c.get(name + ".calls", 0)  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for name, _, _ in TIMED + GENERATORS:
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (s["self_ns"].get(name, 0) / 1e9, "s")
    for name, _, _ in COUNTED:
        m[name + ".calls"] = (calls(name), "count")
    for name, _, _ in GENERATORS:
        m[name + ".yielded"] = (c.get(name + ".yielded", 0), "count")
    for name in ("words.is_identity_factors", "words.order_factors"):
        m[name + ".undecided"] = (c.get(name + ".undecided", 0), "count")
    for cache in CACHES:
        m[f"presets.{cache}_cache.entries"] = (s["caches"][cache], "count")
    m["words.section1.hit_ratio"] = (
        1 - _ratio(s["caches"]["section"], calls("words.section1")) if calls("words.section1") else 0.0,
        "ratio",
    )
    m["quotients.StabChain.contains.member_ratio"] = (
        _ratio(c.get("quotients.StabChain.contains.members", 0), calls("quotients.StabChain.contains")),
        "ratio",
    )
    m["quotients.chain.base_len"] = (s["base_len"], "count")
    m["subgroups.image.hit_ratio"] = (
        _ratio(c.get("subgroups.image.hits", 0), calls("subgroups.image")), "ratio"
    )
    m["subgroups.contains_at_level.refuted_ratio"] = (
        _ratio(c.get("subgroups.contains_at_level.refuted", 0), calls("subgroups.contains_at_level")),
        "ratio",
    )
    m["construction.rist.tried"] = (c.get("construction.rist.tried", 0), "count")
    m["construction.rist.escape_ratio"] = (
        _ratio(c.get("construction.rist.escaped", 0), c.get("construction.rist.tried", 0)), "ratio"
    )
    for layer in SUBMODULES:
        m[f"{layer}.self_s"] = (
            sum(v for k, v in s["self_ns"].items() if k.startswith(layer + ".")) / 1e9, "s"
        )
    m["trace.spans"] = (s["spans"], "count")
    return m
