#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload kv-zipf-threads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The C++ benchmark binary is built from source into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), then run once
under a deadline. The report prints every metric with its unit, its
modelled/measured tag and its base, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
metrics (--trace 1).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return False
        if done.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def stop_group(proc):
    """Kills the binary's whole process group (partition servers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def run_binary(binary, args, run_root):
    """Runs the benchmark binary in its own session under a deadline that kills
    it (and everything it started) when exceeded; returns (doc, error)."""
    deadline_s = min(160.0, 3 * args.seconds + 60)
    os.makedirs(run_root, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-root", os.path.relpath(run_root, ROOT)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(os.path.dirname(run_root), "traces",
                                            f"{args.workload}-seed{args.seed}.json")]
        os.makedirs(os.path.join(os.path.dirname(run_root), "traces"), exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        return None, f"deadline of {deadline_s:.0f} s exceeded; run killed"
    finally:
        # Nothing the run started may outlive it.
        stop_group(proc)
        shutil.rmtree(run_root, ignore_errors=True)
    if err:
        log(err.rstrip())
    if proc.returncode != 0:
        return None, f"benchmark binary exited {proc.returncode}"
    try:
        return json.loads(out), None
    except ValueError as e:
        return None, f"unreadable benchmark binary output: {e}"


def wanted_metrics(trace):
    """(name, unit) of every BENCHMARK.json metric the run must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(title, metrics):
    print(f"== {title}")
    for m in metrics:
        print(f"  {m['name']:<38} {m['value']:>16.6g} {m['unit']:<6} {m['tag']:<9} {m['base']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_test")], cwd=ROOT).returncode

    names = wanted_metrics(args.trace)
    started = time.time()
    doc, error = run_binary(os.path.join(out_dir, "perfbench"), args,
                            os.path.join(out_dir, f"runs-{os.getpid()}"))
    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.time() - started:.1f}s")
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} kernel={host['kernel']}")
    if doc is None:
        print(f"FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 3

    doc["host"] = host
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(doc, f, indent=1)

    print_table("end to end" + (" (traced run: for reference only)" if args.trace else ""),
                doc["end_to_end"])
    if args.trace:
        print_table("per layer", doc["per_layer"])
    for failure in doc["failures"]:
        print(f"CHECK FAILED: {failure}")

    by_name = {m["name"]: m for m in doc["per_layer" if args.trace else "end_to_end"]}
    wrong = [n for n, unit in names if n not in by_name or by_name[n]["unit"] != unit]
    if wrong:
        print(f"FAILED: the binary did not report {wrong} with the units BENCHMARK.json gives")
        return 4
    correct = doc["failed"] == 0 and doc["attempted"] > 0 and not doc["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": by_name[n]["value"], "unit": unit} for n, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
