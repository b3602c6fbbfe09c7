#!/usr/bin/env python3
"""Replay wsched chaos-schedule / repro JSON artifacts through chaos_search.

A schedule (produced by `bench/chaos_search --chaos-dump`, or a minimized
repro `<prefix>-repro-<seed>.json` produced after a violation) must be a
self-contained replayable scenario. Every file is replayed through
`BIN --chaos-replay FILE`, which parses it, checks it with the C++
`check::validate()` rules and runs it, so a malformed or hand-mangled
artifact fails with the simulator's own message. --expect-violation
inverts the exit-status expectation (used by the planted-bug drill, whose
repro must still fail); a file the replay refuses as malformed does not
count as reproducing a violation.

Usage:
  tools/check_chaos.py SCHEDULE.json [...]
                       --replay build/bench/chaos_search
                       [--expect-violation]

Exits 0 with a one-line summary per artifact on success; exits 1 with a
diagnostic on the first failure.
"""

import argparse
import subprocess
import sys

# chaos_search's report lines for a schedule it refused rather than ran.
REFUSED = ("unreadable schedule:", "runner error:")


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def replay(path, binary, expect_violation):
    proc = subprocess.run([binary, "--chaos-replay", path],
                          capture_output=True, text=True)
    if expect_violation:
        if proc.returncode == 0:
            fail(path, "replay expected a violation but the run was clean")
        if any(marker in proc.stdout for marker in REFUSED):
            sys.stderr.write(proc.stdout)
            fail(path, "replay refused the schedule instead of running it")
        return "replay reproduced the violation (as expected)"
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(path, f"replay exited {proc.returncode}")
    return "replay ok"


def main():
    parser = argparse.ArgumentParser(
        description="Replay chaos schedule/repro JSON artifacts.")
    parser.add_argument("artifacts", nargs="+", metavar="SCHEDULE.json")
    parser.add_argument("--replay", metavar="BIN", required=True,
                        help="replay each file via BIN --chaos-replay")
    parser.add_argument("--expect-violation", action="store_true",
                        help="replay must exit nonzero (planted-bug repro)")
    args = parser.parse_args()

    for path in args.artifacts:
        print(f"{path}: {replay(path, args.replay, args.expect_violation)}")


if __name__ == "__main__":
    main()
