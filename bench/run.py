"""The branchgroups benchmark: one workload, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each one is there): quotient_ladder,
certificate, portrait_sweep, long_words; `all` runs each in turn.  Every
workload is closed-loop with one caller: this process makes its calls one
after another.  The seed fixes one pass of inputs; the run repeats that
pass, cold each time (fresh presets, new CLI processes), while one more
pass still fits in S seconds.

With --trace 0 the run measures the end-to-end metrics.  A shared host
runs the same code at up to half speed for seconds to minutes at a time,
in CPU time as much as in wall time, so the gated times are CPU seconds at
a reference speed: hostspeed.py samples the host's speed on the CPU the
run is pinned to, and each operation's CPU time is scaled by the speed
sampled around it.  Passes and operations take the median of their
repeats; set-up is the median of fresh interpreters started one after
each pass.  Raw wall and CPU times are printed as well.  With
--trace 1 the run makes the pass three times untraced and once under the span
tracer (tracing.py) and reports the per-layer metrics, including the
tracing overhead (traced minus untraced pass wall time).

Oracles check the answers after the timed passes, and every repeat must
give the same answers as the first.  The report lines name every metric
with its unit; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only if every
answer was right.  Full results go to .bench_out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("quotient_ladder", "certificate", "portrait_sweep", "long_words")
SETUP_SAMPLES = 11
UNTRACED_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full",
                        help="small inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def load_library():
    """Import branchgroups from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "branchgroups", "__init__.py")):
        sys.exit(f"error: no src/branchgroups in {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import branchgroups

    if not os.path.abspath(branchgroups.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported branchgroups from {branchgroups.__file__}, not {SRC}")


def setup_sample(cmd: list[str], env: dict):
    """One fresh interpreter that imports branchgroups and builds the
    workload's presets: (start, wall seconds, CPU seconds)."""
    from workloads import children_cpu

    cpu, start = children_cpu(), time.perf_counter()
    subprocess.run(cmd, env=env, check=True)
    return start, time.perf_counter() - start, children_cpu() - cpu


def run_pass(wl, inputs):
    start = time.perf_counter()
    ops = wl.run(inputs)
    return {"ops": ops, "wall": time.perf_counter() - start}


def tail(samples: list[float]):
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples above), or None for fewer than 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def metadata(workload: str, seed: int, trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "src_lines": lines,
    }


def checked(wl, inputs, passes) -> list[str]:
    """Operations that raised or were undecided, oracle failures of the
    first pass, and answers of later passes that differ from the first's."""
    first = passes[0]
    failures = [f"{op.label}: {op.error}" for op in first if op.error is not None]
    failures += wl.check(inputs, first)
    for k, ops in enumerate(passes[1:], start=2):
        failures += [
            f"pass {k}, {op.label} #{i}: {op.error or op.answer!r} differs from pass 1"
            for i, (op, ref) in enumerate(zip(ops, first))
            if op.error is not None or op.answer != ref.answer
        ]
    return failures


def end_to_end(wl, args, small: bool):
    from hostspeed import HostSpeed
    from workloads import child_env

    inputs = wl.inputs(args.seed, small)
    setup_cmd, env = [sys.executable, "-c", wl.setup_code], child_env()
    # One unmeasured set-up first compiles the bytecode, which an installed
    # package ships already.  The set-up samples are spread over the run, one
    # after each pass, so that their median sees the same host as the passes.
    setup_sample(setup_cmd, env)
    passes, setups = [], []
    with HostSpeed() as speed:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(wl, inputs))
            setups.append(setup_sample(setup_cmd, env))
            typical = statistics.median(p["wall"] for p in passes)
            if time.perf_counter() - start + typical > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(setup_cmd, env))
        peak_rss_mb = resource.getrusage(wl.rss).ru_maxrss / 1024
    failures = checked(wl, inputs, [p["ops"] for p in passes])

    setup_s = statistics.median(speed.scaled(cpu, t, t + wall) for t, wall, cpu in setups)
    # Each operation's CPU seconds at the reference speed, pass by pass.
    ref = [[speed.scaled(op.cpu, op.start, op.start + op.seconds) for op in p["ops"]] for p in passes]
    ref_cpu_s = statistics.median(sum(r) for r in ref)
    per_op = [statistics.median(r[i] for r in ref) for i in range(len(inputs))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ref_cpu_s": (ref_cpu_s, "s"),
        "ref_op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(sum(op.cpu for op in p["ops"]) for p in passes), "s"),
        "ops_per_s": (len(inputs) / ref_cpu_s, "1/s"),
    }
    notes = [
        f"passes {len(passes)} of {len(inputs)} operations each, set-up samples {len(setups)}, "
        f"host speed samples {len(speed.loop_s)} on CPU {speed.cpu}",
        "pass wall s: " + " ".join(f"{p['wall']:.4g}" for p in passes),
        "pass host speed: " + " ".join(
            f"{speed.factor(p['ops'][0].start, p['ops'][-1].start + p['ops'][-1].seconds):.3g}"
            for p in passes),
    ]
    # The names the workload's users know, with their sample counts.
    if wl.name in ("portrait_sweep", "long_words"):
        notes.append(f"words_per_s {len(inputs) / ref_cpu_s:.6g} 1/s (at the reference speed)")
        notes.append(f"word_p50_ms {1000 * statistics.median(per_op):.6g} ms (at the reference speed)")
        t = tail(per_op)
        if t is not None:
            notes.append(f"word_tail_ms {1000 * t[0]:.6g} ms "
                         f"(p{t[1]:.2f}, {t[2]} of {len(per_op)} words above, at the reference speed)")
    if wl.name == "certificate":
        for i, label in enumerate(("build", "validate")):
            wall = statistics.median(p["ops"][i].seconds for p in passes)
            notes.append(f"{label}_s {wall:.6g} s wall, {per_op[i]:.6g} s CPU at the reference speed "
                         f"(medians of {len(passes)} CLI processes)")
    return metrics, len(inputs) * len(passes), failures, notes


def per_layer(wl, args, small: bool):
    from tracing import layer_metrics

    inputs = wl.inputs(args.seed, small)
    untraced = [run_pass(wl, inputs) for _ in range(UNTRACED_REPEATS)]
    prefix = os.path.join(OUT_DIR, wl.name)
    ops, traced_wall, summary = wl.run_traced(inputs, prefix)
    failures = checked(wl, inputs, [ops] + [p["ops"] for p in untraced])
    fastest = min(p["wall"] for p in untraced)
    metrics = layer_metrics(summary)
    metrics["trace.overhead_s"] = (traced_wall - fastest, "s")
    notes = [
        f"untraced pass {fastest:.6g} s (fastest of {UNTRACED_REPEATS}), traced pass {traced_wall:.6g} s",
        f"spans written to {os.path.relpath(prefix, ROOT)}*-spans.tsv.gz",
    ]
    return metrics, len(ops) * (1 + UNTRACED_REPEATS), failures, notes


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); the last
    line merges their results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    if args.workload == "all":
        return run_all(args)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = metadata(args.workload, args.seed, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)

    import workloads

    wl = workloads.make(args.workload, OUT_DIR)
    small = args.size == "small"
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, notes = measure(wl, args, small)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise SystemExit(f"error: {m['name']} is measured in {metrics[m['name']][1]}, "
                             f"BENCHMARK.json says {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }

    print("meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")
    for failure in failures:
        print(f"FAIL {failure}")
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "notes": notes, "failures": failures, "result": result,
                   "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
