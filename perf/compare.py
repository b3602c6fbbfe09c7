#!/usr/bin/env python3
"""Compare wsched benchmark results (see perf/README.md).

Paired mode, parent against change. Runs alternate which side goes first,
and each side builds its own src/ with this checkout's benchmark code:

    python3 perf/compare.py --parent DIR --change DIR [--pairs 10] [--seed 1]

Every workload is compared, each run lasting BENCHMARK.json's run_seconds.

A metric is improved when the change wins at least 9 of every 10 pairs
(ties count for neither side) and the medians differ by more than the
parent's quartile spread. It is regressed when the change's median is worse
than the parent's by more than the BENCHMARK.json bound. It is unresolved
when the parent's own spread is wider than the bound, unless every change
run beats every parent run. Otherwise it is unchanged. A workload whose
change runs fail more operations than its parent runs is regressed.

Agreement mode: two full sets from the same code (bench.py --all --out)
must agree within the end-to-end bounds, with identical sim_* outcomes and
result hashes:

    python3 perf/compare.py --agree A.json B.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from bench import PERF, SPEC, WORKLOADS, quartiles

E2E = SPEC["end_to_end"]
ORDER = ["regressed", "unresolved", "improved", "unchanged"]


def judge(parent, change, better, bound):
    """Verdict for one metric from paired runs (equal-length lists)."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0: worse
    p_med, c_med = median(parent), median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "improved", wins
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regressed", wins
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def run_side(root, workload, seed):
    cmd = [sys.executable, str(PERF / "bench.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"compare: {root} {workload} seed {seed} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def paired(args):
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: {w: [] for w in WORKLOADS} for side in sides}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in WORKLOADS:
            for side in order:
                print(f"compare: pair {i + 1}/{args.pairs} {w} {side}",
                      file=sys.stderr, flush=True)
                runs[side][w].append(run_side(sides[side], w, args.seed + i))

    worst = "unchanged"
    print(f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for w in WORKLOADS:
        verdicts = []
        for m in E2E:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"][w]]
            c = [r["metrics"][name]["value"] for r in runs["change"][w]]
            verdict, wins = judge(p, c, m["better"], m["bound"])
            verdicts.append(verdict)
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{median(values):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            print(f"{w:<14} {name:<16} {cells[0]:>36} {cells[1]:>36} "
                  f"{wins:>3}/{len(p):<2}  {verdict}")
        failed = {side: sum(r["failed"] for r in runs[side][w]) for side in sides}
        if failed["change"] > failed["parent"]:
            verdicts.append("regressed")
        row = min(verdicts, key=ORDER.index)
        worst = min(worst, row, key=ORDER.index)
        print(f"{w:<14} {'=> workload':<16} failed parent {failed['parent']} "
              f"change {failed['change']}  {row}\n")
    return 1 if worst == "regressed" else 0


def agree(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["seed"] != b["seed"]:
        raise SystemExit("compare: the result sets use different seeds")
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'A median':>14} {'B median':>14} "
          f"{'|B-A|/A':>9} {'bound':>6}  agree")
    for w in WORKLOADS:
        ra, rb = a["workloads"][w], b["workloads"][w]
        # Host-time metrics within their bounds; the modelled cluster's
        # sim_* outcomes are deterministic, so they must match exactly.
        bounds = {m["name"]: m["bound"] for m in E2E}
        bounds.update({name: 0.0 for name in ra["metrics"]
                       if name.startswith("sim_")})
        for name, bound in bounds.items():
            va = ra["metrics"][name]["median"]
            vb = rb["metrics"][name]["median"]
            share = abs(vb - va) / abs(va) if va else abs(vb)
            same = va == vb if bound == 0.0 else share <= bound
            ok &= same
            print(f"{w:<14} {name:<16} {va:>14.6g} {vb:>14.6g} {share:>9.4f} "
                  f"{bound:>6.2f}  {'yes' if same else 'NO'}")
        checks = {"result hash": ra["result_hash"] == rb["result_hash"],
                  "correct": ra["correct"] and rb["correct"]}
        for label, passed in checks.items():
            ok &= passed
            print(f"{w:<14} {label:<16} {'yes' if passed else 'NO':>53}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--agree", nargs=2, metavar=("A", "B"))
    ap.add_argument("--parent")
    ap.add_argument("--change", default=str(PERF.parent))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.agree:
        return agree(*args.agree)
    if not args.parent:
        ap.error("--parent DIR (or --agree A B) is required")
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    return paired(args)


if __name__ == "__main__":
    sys.exit(main())
