#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark package (perfbench/) is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
its binary runs the workload. The binary's standard output is passed on
unchanged; its last line is the JSON result. The exit code is the
binary's: 0 only when the run's output checks pass.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("sim_scale", "sim_observed", "fleet_paced", "fleet_overload")
# A run must end within 180 s; keep a margin for the build check and
# teardown.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 880.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_revision():
    """A content hash of the sources the benchmark builds, plus the git
    commit when the checkout is a git repository."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", BENCH]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(
                p
                for p in r.rglob("*")
                if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py", ".tsv")
            )
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    rev = "tree:" + h.hexdigest()[:16]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if git.returncode == 0:
            rev += " git:" + git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def group_members(pgid):
    """Pids still alive in process group `pgid`."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            alive.append(int(entry))
    return alive


def stop_group(pgid):
    """Kills every process left in the group and waits until none runs."""
    deadline = time.monotonic() + 5.0
    while group_members(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def no_core_dumps():
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    state_dir = target / "perfbench"
    state_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--state-dir", str(state_dir),
        "--digests", str(BENCH / "digests.tsv"),
        "--revision", source_revision(),
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=no_core_dumps,
    )
    budget = max(10.0, RUN_DEADLINE_S - (time.monotonic() - started))
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print(f"perfbench: run exceeded {budget:.0f} s", file=sys.stderr)
        return 3
    finally:
        # The binary reaps its own children; this only catches a process
        # orphaned by a crash of the binary itself.
        stop_group(proc.pid)

    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
