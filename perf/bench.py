#!/usr/bin/env python3
"""Build and run the wsched benchmark (see perf/README.md).

One run of one workload, the command BENCHMARK.json names:

    python3 perf/bench.py --workload W --seed N --seconds T --trace 0|1

Progress goes to stderr. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

A full set, five passes of every workload round-robin, each in a fresh
process, then one traced pass of each:

    python3 perf/bench.py --all [--seed 1] [--out results.json]

The quick check (every workload at about 1/20 size, all checks on):

    python3 perf/bench.py --smoke

--root DIR builds the library of another checkout with this benchmark code
(in this checkout's .bench_build), so two commits are always measured by
identical benchmark code.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
PINS = json.loads((PERF / "pins.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 1
PIN_SEEDS = range(1, 11)
REPS = 5  # untraced passes of each workload in a full set
SETUP_LAUNCHES = 5  # per pass, so set-up is sampled across the whole run
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 170
# Spans that each wrap one simulation run.
EVAL_SPANS = ("core.run_experiment", "check.run_schedule")


def log(message):
    print(message, file=sys.stderr, flush=True)


class Bench:
    """The wsched_perf binary of one checkout: builds it and runs passes."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        # Builds live in this checkout; another root's library gets its own
        # tree, so it is always built with this copy of the benchmark.
        name = "perf"
        if self.root != PERF.parent:
            name += "-" + hashlib.sha1(str(self.root).encode()).hexdigest()[:12]
        self.build_dir = PERF.parent / ".bench_build" / name
        self.binary = self.build_dir / "wsched_perf"
        self.launches = 0

    def build(self):
        steps = []
        if not (self.build_dir / "Makefile").exists():
            steps.append(["cmake", "-S", str(PERF), "-B", str(self.build_dir),
                          "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release",
                          f"-DWSCHED_SRC_DIR={self.root / 'src'}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(self.build_dir), "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit("bench: build failed")

    def setup_times(self, workload, seed):
        """CPU seconds from process start to the first timed call, once per
        launch. Callers spread launches over a run and take the median."""
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--setup-only"]
        times = []
        for _ in range(SETUP_LAUNCHES):
            out = subprocess.run(cmd, check=True, capture_output=True,
                                 text=True, timeout=PROCESS_TIMEOUT_S).stdout
            times.append(float(out.split()[1]))  # "setup_s <value> s"
        return times

    def run(self, workload, seed, traced=False, smoke=False):
        """One pass in a fresh process; workload None runs the layer probes."""
        self.launches += 1
        tag = f"{workload or 'probes'}-{seed}-{os.getpid()}-{self.launches}"
        out_dir = self.build_dir / "out" / tag
        cmd = [str(self.binary), "--seed", str(seed), "--out-dir", str(out_dir)]
        cmd += ["--workload", workload] if workload else ["--probes"]
        if smoke:
            cmd.append("--smoke")
        spans_path = self.build_dir / "spans" / f"{tag}.json"
        if traced:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--traced", "--trace-out", str(spans_path)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"{tag}: timed out"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            return {"error": f"{tag}: {proc.stderr.strip() or proc.returncode}"}
        result = {"metrics": {}, "units": {}, "hash": None,
                  "failures": [line[len("failed "):]
                               for line in proc.stderr.splitlines()
                               if line.startswith("failed ")]}
        for line in proc.stdout.splitlines():
            name, value, *unit = line.split()
            if name == "result_hash":
                result["hash"] = value
            elif unit:
                result["metrics"][name] = float(value)
                result["units"][name] = unit[0]
        if traced:
            result["spans"] = json.loads(spans_path.read_text())["spans"]
            result["layers"] = layer_metrics(result)
        return result


def completed(passes):
    return [p for p in passes if "error" not in p]


# --- correctness ------------------------------------------------------------

def pin_for(workload, seed, smoke=False):
    return PINS["smoke" if smoke else "full"].get(workload, {}).get(str(seed))


def verdict(passes, pin):
    """(attempted, failed, notes) over a workload's passes.

    A run fails when it throws, breaks an invariant, or belongs to a pass
    whose result hash differs from the pin (or, with no pin for the seed,
    from the first pass).
    """
    attempted = failed = 0
    notes = []
    ok = completed(passes)
    reference = pin or (ok[0]["hash"] if ok else None)
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            notes.append(p["error"])
            continue
        runs = int(p["metrics"]["runs"])
        attempted += runs
        if p["hash"] != reference:
            failed += runs
            notes.append(f"result hash {p['hash']} != expected {reference}")
        else:
            failed += int(p["metrics"]["failed_runs"])
            notes.extend(p["failures"])
        self_sum = p.get("layers", {}).get("bench.self_sum_s")
        bound = p["metrics"]["wall_s"] * p["metrics"]["threads"] * 1.001
        if self_sum is not None and self_sum > bound:
            notes.append(f"span self times {self_sum:.4f} s exceed the pass")
            failed += 1
    return attempted, failed, notes


# --- per-layer numbers from spans --------------------------------------------

def covered_s(lo, hi, intervals):
    """Seconds of [lo, hi] covered by the union of the (start, end) ns pairs."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total * 1e-9


def layer_metrics(result):
    """Per-layer numbers of one traced pass; see README.md for each."""
    spans, m = result["spans"], result["metrics"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) * 1e-9

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    root = next(s for s in spans if s["name"] == "pass")
    tree, stack = [], [root]
    while stack:
        s = stack.pop()
        tree.append(s)
        stack.extend(children[s["id"]])
    self_s = defaultdict(float)
    for s in tree:
        kids = [(k["start_ns"], k["end_ns"]) for k in children[s["id"]]]
        self_s[s["name"]] += dur(s) - covered_s(s["start_ns"], s["end_ns"], kids)

    wall = dur(root)
    evals = [s for s in tree if s["name"] in EVAL_SPANS]
    eval_union = covered_s(root["start_ns"], root["end_ns"],
                           [(s["start_ns"], s["end_ns"]) for s in evals])
    gen = total("trace.generate_trace")
    run = total("core.run_experiment")
    write = total("harness.write_artifacts")
    out = {
        "trace.generate_s": gen,
        "trace.generate_share": gen / run,
        "trace.records_per_s": m["records"] / gen,
        "core.replay_s": run - gen,
        "core.ns_per_event": (run - gen) / m["events"] * 1e9,
        "core.events": m["events"],
        "core.requests": m["requests"],
        "harness.sweep_overhead_s": wall - eval_union - write,
        "harness.parallel_efficiency":
            sum(dur(s) for s in evals) / (wall * m["threads"]),
        "harness.artifact_write_s": write,
        "check.invariants_s": total("check.invariants"),
        "check.row_hash_s": total("check.row_hash"),
        "bench.self_sum_s": sum(self_s.values()),
    }
    for name, value in self_s.items():
        out[f"self.{name}_s"] = value
    for name in ("check.generate_schedule", "check.to_spec"):
        if any(s["name"] == name for s in spans):
            out[f"{name}_s"] = total(name)
    return out


# --- medians of a workload's passes -----------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def layer_values(untraced, traced):
    """Medians of the traced passes' layer numbers, plus tracing overhead."""
    values = {name: median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["bench.traced_overhead"] = (
        median(p["metrics"]["wall_s"] for p in traced)
        / median(p["metrics"]["wall_s"] for p in untraced) - 1)
    return values


def summarize(workload, seed, untraced, traced, setup):
    """Verdict, per-metric median and quartiles, and per-layer medians of
    one workload's passes (setup: its --setup-only times)."""
    attempted, failed, notes = verdict(untraced + traced,
                                       pin_for(workload, seed))
    for note in notes:
        log(f"bench: {workload}: {note}")
    ok, ok_traced = completed(untraced), completed(traced)
    if not ok or (traced and not ok_traced):
        raise SystemExit(f"bench: {workload}: no pass completed")
    series = {"setup_s": (setup, "s")} if setup else {}
    for name, unit in ok[0]["units"].items():
        series[name] = ([p["metrics"][name] for p in ok], unit)
    metrics = {}
    for name, (values, unit) in series.items():
        q1, q3 = quartiles(values)
        metrics[name] = {"median": median(values), "q1": q1, "q3": q3,
                         "unit": unit, "values": values}
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "notes": notes, "result_hash": ok[0]["hash"], "metrics": metrics,
        "per_layer": layer_values(ok, ok_traced) if ok_traced else {},
    }


def probe_values(bench, seed):
    probes = bench.run(None, seed)
    if "error" in probes:
        raise SystemExit(f"bench: probes failed: {probes['error']}")
    return probes["metrics"]


# --- one run of one workload ------------------------------------------------

def measure(bench, workload, seed, seconds, trace):
    """Passes of one workload until `seconds` have passed, then medians."""
    deadline = time.monotonic() + seconds
    setup, untraced, traced = [], [], []
    while (len(untraced) + len(traced) < MIN_PASSES
           or time.monotonic() < deadline):
        if trace:
            traced.append(bench.run(workload, seed, traced=True))
        else:
            setup += bench.setup_times(workload, seed)
        untraced.append(bench.run(workload, seed))
    summary = summarize(workload, seed, untraced, traced, setup)
    if trace:
        wanted = SPEC["per_layer"]
        values = summary["per_layer"]
        values.update(probe_values(bench, seed))
    else:
        wanted = SPEC["end_to_end"]
        values = {name: e["median"] for name, e in summary["metrics"].items()}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


# --- the full set -------------------------------------------------------------

def full_set(bench, seed):
    """REPS untraced passes per workload (round-robin), then one traced pass
    per workload and one probe run."""
    setup = defaultdict(list)
    passes = defaultdict(list)
    for rep in range(REPS):
        for w in WORKLOADS:
            log(f"bench: pass {rep + 1}/{REPS} {w}")
            setup[w] += bench.setup_times(w, seed)
            passes[w].append(bench.run(w, seed))
    traced = {}
    for w in WORKLOADS:
        log(f"bench: traced {w}")
        traced[w] = bench.run(w, seed, traced=True)

    host = {"machine": platform.machine(), "cpus": os.cpu_count(),
            "cpu": cpu_model(), "python": platform.python_version()}
    return {"seed": seed, "reps": REPS, "host": host,
            "probes": probe_values(bench, seed),
            "workloads": {w: summarize(w, seed, passes[w], [traced[w]], setup[w])
                          for w in WORKLOADS}}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def print_full_set(report):
    print(f"{'workload':<14} {'metric':<18} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  unit")
    for w, r in report["workloads"].items():
        for name, e in r["metrics"].items():
            print(f"{w:<14} {name:<18} {e['median']:>14.6g} {e['q1']:>14.6g} "
                  f"{e['q3']:>14.6g}  {e['unit']}")
        print(f"{w:<14} {'correct':<18} {str(r['correct']):>14}  "
              f"attempted {r['attempted']} failed {r['failed']} "
              f"hash {r['result_hash']}")
        for name, value in sorted(r["per_layer"].items()):
            print(f"{w:<14}   {name:<40} {value:>14.6g}")
    for name, value in report["probes"].items():
        print(f"{'probes':<14}   {name:<40} {value:>14.6g}")


# --- smoke and pins -------------------------------------------------------------

def smoke(bench, seed):
    """One traced pass per workload at smoke size, checked against the pins."""
    failed_any = False
    for w in WORKLOADS:
        p = bench.run(w, seed, traced=True, smoke=True)
        _, failed, notes = verdict([p], pin_for(w, seed, smoke=True))
        failed_any |= failed > 0
        wall = p.get("metrics", {}).get("wall_s", float("nan"))
        print(f"{w:<14} wall {wall:8.3f} s  hash {p.get('hash')}  "
              f"{'ok' if failed == 0 else 'FAILED'}")
        for note in notes:
            print(f"  {note}")
    return 1 if failed_any else 0


def write_pins(bench):
    pins = {"full": {}, "smoke": {}}
    for w in WORKLOADS:
        passes = [("full", seed, bench.run(w, seed)) for seed in PIN_SEEDS]
        passes.append(("smoke", DEFAULT_SEED,
                       bench.run(w, DEFAULT_SEED, smoke=True)))
        for size, seed, p in passes:
            _, failed, notes = verdict([p], None)
            if failed:
                raise SystemExit(f"bench: cannot pin {w} seed {seed}: {notes}")
            pins[size].setdefault(w, {})[str(seed)] = p["hash"]
        log(f"bench: pinned {w}")
    (PERF / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run a full set")
    ap.add_argument("--out", help="results JSON path for --all")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-pins", action="store_true",
                    help="re-pin the result hashes (behaviour changes only)")
    ap.add_argument("--root", default=str(PERF.parent),
                    help="checkout whose src/ is measured")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bench = Bench(args.root)
    bench.build()
    if args.smoke:
        return smoke(bench, args.seed)
    if args.write_pins:
        write_pins(bench)
        return 0
    if args.all:
        report = full_set(bench, args.seed)
        print_full_set(report)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        return 0 if all(r["correct"] for r in report["workloads"].values()) else 1
    if not args.workload:
        ap.error("one of --workload, --all, --smoke or --write-pins is required")
    print(json.dumps(measure(bench, args.workload, args.seed, args.seconds,
                             args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
