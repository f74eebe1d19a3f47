#!/usr/bin/env python3
"""Build the wP2P benchmark and run workloads, each in a fresh child process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the root). The
child gets a pinned environment: the scheduler and rate-solver selectors
are cleared, so the defaults run, and WP2P_THREADS is fixed. The last
stdout line is one JSON object; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["swarm-2048", "service-mix", "packet-wlan"]
# One world runs per process, so one thread is enough; it also stays
# within nproc on any host.
THREADS = "1"
CHILD_TIMEOUT_S = 170


def host_facts():
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"host: nproc={nproc} rustc=\"{rustc}\" profile=release threads={THREADS}"


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "wp2p-perfbench")


def child_env():
    env = dict(os.environ)
    env.pop("WP2P_SCHEDULER", None)
    env.pop("WP2P_RATE_SOLVER", None)
    env["WP2P_THREADS"] = THREADS
    return env


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, its final JSON object or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(HERE, "out", f"{workload}-seed{args.seed}.trace.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: {workload} printed no result (exit {done.returncode})", file=sys.stderr)
        return done.returncode or 1, None
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1, help="workload seed (canonical 1, held out 7919)")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    print(host_facts())
    names = WORKLOADS if args.workload == "all" else [args.workload]
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rc, result = run_one(binary, name, args)
        if result is None:
            return rc or 1
        code = code or rc
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][key if len(names) == 1 else f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
