#!/usr/bin/env python3
"""Validate wsched chaos-schedule / repro JSON artifacts, and optionally
replay them through the chaos_search binary.

A schedule (produced by `bench/chaos_search --chaos-dump`, or a minimized
repro `<prefix>-repro-<seed>.json` produced after a violation) must be a
self-contained replayable scenario. This checker mirrors the C++
`check::validate()` rules so CI can reject a malformed or hand-mangled
artifact without building anything:

  * the file parses as a JSON object with "format":
    "wsched-chaos-schedule" and "version": 1
  * seed is a non-negative integer; p, m satisfy 2 <= m+1 <= p
  * horizon_s > warmup_s >= 0 and lambda > 0
  * the profile names are known (ksu, ucb, dec, adl, "")
  * autoscale and the fault layer are mutually exclusive
  * crashes require the fault layer; each crash has a node in [0, p),
    a time > 0, and any recovery strictly after the crash
  * partitions require the net model and the fault layer; each window is
    non-empty with a cut in [1, p)
  * net_loss is in [0, 1); shed_policy is one of none/queue/util/stretch
  * autoscale implies min_powered >= 1

With --replay BIN, every file is additionally replayed through
`BIN --chaos-replay FILE`; --expect-violation inverts the exit-status
expectation (used by the planted-bug drill, whose repro must still fail).

Usage:
  tools/check_chaos.py SCHEDULE.json [...]
                       [--replay build/bench/chaos_search]
                       [--expect-violation]

Exits 0 with a one-line summary per artifact on success; exits 1 with a
diagnostic on the first violation.
"""

import argparse
import json
import math
import subprocess
import sys

PROFILES = {"", "ksu", "ucb", "dec", "adl"}
SHED_POLICIES = {"none", "queue", "util", "stretch"}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def require(path, cond, message):
    if not cond:
        fail(path, message)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_schedule(path, doc):
    require(path, isinstance(doc, dict), "top level must be an object")
    require(path, doc.get("format") == "wsched-chaos-schedule",
            f'bad "format": {doc.get("format")!r}')
    require(path, doc.get("version") == 1,
            f'bad "version": {doc.get("version")!r}')
    seed = doc.get("seed")
    require(path, isinstance(seed, int) and not isinstance(seed, bool)
            and seed >= 0, f'bad "seed": {seed!r}')

    p, m = doc.get("p"), doc.get("m")
    require(path, isinstance(p, int) and isinstance(m, int),
            "p and m must be integers")
    require(path, 2 <= m + 1 <= p, f"need 2 <= m+1 <= p, got p={p} m={m}")

    horizon = doc.get("horizon_s")
    warmup = doc.get("warmup_s", 0)
    require(path, is_num(horizon) and is_num(warmup),
            "horizon_s/warmup_s must be numbers")
    # json reads 1e999 as infinity, which the replay refuses.
    for key, value in (("horizon_s", horizon), ("warmup_s", warmup),
                       ("lambda", doc.get("lambda"))):
        require(path, not is_num(value) or math.isfinite(value),
                f"{key} must be finite")
    require(path, warmup >= 0, f"warmup_s must be >= 0, got {warmup}")
    require(path, horizon > warmup,
            f"horizon_s ({horizon}) must exceed warmup_s ({warmup})")
    lam = doc.get("lambda")
    require(path, is_num(lam) and lam > 0, f'bad "lambda": {lam!r}')
    for key in ("profile", "flip_profile"):
        require(path, doc.get(key, "") in PROFILES,
                f'unknown {key}: {doc.get(key)!r}')

    fault = bool(doc.get("fault", False))
    net = bool(doc.get("net", False))
    autoscale = bool(doc.get("autoscale", False))
    require(path, not (autoscale and fault),
            "autoscale and the fault layer are mutually exclusive")

    crashes = doc.get("crashes", [])
    require(path, isinstance(crashes, list), '"crashes" must be an array')
    require(path, not crashes or fault, "crashes require the fault layer")
    for i, c in enumerate(crashes):
        require(path, isinstance(c, dict), f"crashes[{i}] must be an object")
        require(path, isinstance(c.get("node"), int) and 0 <= c["node"] < p,
                f"crashes[{i}]: node out of range")
        require(path, is_num(c.get("at_s")) and c["at_s"] > 0,
                f"crashes[{i}]: crash time must be > 0")
        rec = c.get("recover_s", 0)
        require(path, is_num(rec) and (rec <= 0 or rec > c["at_s"]),
                f"crashes[{i}]: recovery must follow the crash")

    partitions = doc.get("partitions", [])
    require(path, isinstance(partitions, list),
            '"partitions" must be an array')
    require(path, not partitions or (net and fault),
            "partitions require the net model and the fault layer")
    for i, w in enumerate(partitions):
        require(path, isinstance(w, dict),
                f"partitions[{i}] must be an object")
        require(path, isinstance(w.get("cut"), int) and 1 <= w["cut"] < p,
                f"partitions[{i}]: cut out of range")
        require(path, is_num(w.get("from_s")) and is_num(w.get("until_s"))
                and w["until_s"] > w["from_s"],
                f"partitions[{i}]: window must be non-empty")

    loss = doc.get("net_loss", 0)
    require(path, is_num(loss) and 0 <= loss < 1,
            f"net_loss must be in [0, 1), got {loss!r}")
    policy = doc.get("shed_policy", "none")
    require(path, policy in SHED_POLICIES, f"unknown shed policy {policy!r}")
    if autoscale:
        require(path, doc.get("min_powered", 1) >= 1,
                "min_powered must be >= 1")

    features = [k for k in ("fault", "net", "overload", "ctrl", "autoscale",
                            "hedge", "spans", "slow_health")
                if doc.get(k)]
    return (f"seed {seed}: p={p} m={m} horizon={horizon:g}s "
            f"lambda={lam:g} crashes={len(crashes)} "
            f"partitions={len(partitions)} [{', '.join(features) or 'clean'}]")


def replay(path, binary, expect_violation):
    proc = subprocess.run([binary, "--chaos-replay", path],
                          capture_output=True, text=True)
    if expect_violation:
        if proc.returncode == 0:
            fail(path, "replay expected a violation but the run was clean")
        return "replay reproduced the violation (as expected)"
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(path, f"replay exited {proc.returncode}")
    return "replay ok"


def main():
    parser = argparse.ArgumentParser(
        description="Validate chaos schedule/repro JSON artifacts.")
    parser.add_argument("artifacts", nargs="+", metavar="SCHEDULE.json")
    parser.add_argument("--replay", metavar="BIN",
                        help="also replay each file via BIN --chaos-replay")
    parser.add_argument("--expect-violation", action="store_true",
                        help="replay must exit nonzero (planted-bug repro)")
    args = parser.parse_args()

    for path in args.artifacts:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, str(e))
        summary = check_schedule(path, doc)
        if args.replay:
            summary += f"; {replay(path, args.replay, args.expect_violation)}"
        print(f"{path}: {summary}")


if __name__ == "__main__":
    main()
