#!/usr/bin/env python3
"""The simulator benchmark: one command per workload.

    python3 simbench/run.py --workload suite-sweep --seed 0 --seconds 20 --trace 0
    python3 simbench/run.py --self-test

Run it from the repository root. It builds simbench/ together with the
simulator library from the source tree (Release, under .bench_build/), runs
the measuring program, checks its results and prints every metric by name
with its unit and direction. The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list, part of
them derived here from the run's Perfetto trace.

The command exits non-zero when a cell fails the correctness gate, when
repeated or traced passes disagree on the result fingerprint, or when the
simulator aborts (its golden check panics). --self-test plants a corrupted
load value in a suite-sweep trace and checks that the command fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("suite-sweep", "long-trace", "repro")
# Seed 0 reproduces paperSuite()'s own trace seeds (see README.md).
DEFAULT_SEED = 0
# Every run must end within 180 s of starting, not counting the first
# build in a checkout.
RUN_DEADLINE_S = 175
BENCH_DIR = Path(__file__).resolve().parent


def die(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then (re)build the measuring program; returns its
    path."""
    build_dir = root / ".bench_build" / "cmake"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release",
             # Keep every build artefact inside the checkout.
             "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "simbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "simbench"


def source_digest(root):
    """Identifies the measured code when the checkout is not a git tree."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "simbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_measurement(binary, root, args, work, deadline):
    """Run the measuring program in its own process group, so a timeout
    also reaps the fork-shard workers it may have started."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CONSTABLE_")}
    tmp = root / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--traced={args.trace}",
           f"--dir={work}"]
    if args.plant_corruption:
        cmd.append("--plant-corruption")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("the measuring program overran the run deadline")
    return proc.returncode, out


def nearest_rank(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    k = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def span_metrics(trace_path, threads):
    """Pool and checkpoint metrics from the program's own cell.compute and
    cell.checkpoint spans inside the benchmark's bench.timed windows.
    Returns (metrics, absent reasons)."""
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    windows = [(s["ts"], s["ts"] + s["dur"]) for s in spans
               if s["name"] == "bench.timed"]

    def timed(name):
        return [s for s in spans if s["name"] == name and any(
            a <= s["ts"] and s["ts"] + s["dur"] <= b for a, b in windows)]

    compute, commits = timed("cell.compute"), timed("cell.checkpoint")
    runs = timed("bench.Experiment.run")
    metrics, absent = {}, []
    ms = sorted(s["dur"] / 1e3 for s in compute)
    window_us = sum(b - a for a, b in windows)
    metrics["batch.cells"] = (float(len(compute)), "count")
    if compute:
        metrics["batch.cell_ms_p50"] = (nearest_rank(ms, 50), "ms")
        metrics["batch.cell_ms_p97"] = (nearest_rank(ms, 97), "ms")
        metrics["batch.busy_frac"] = (
            sum(s["dur"] for s in compute) / (threads * window_us), "frac")
        # Per Experiment run: each pool lane's idle time between its last
        # cell and the end of the run (a lane with no cell idles it all).
        tail = 0.0
        for r in runs:
            r_end = r["ts"] + r["dur"]
            last = {}
            for s in compute:
                if r["ts"] <= s["ts"] and s["ts"] + s["dur"] <= r_end:
                    last[s["tid"]] = max(last.get(s["tid"], 0),
                                         s["ts"] + s["dur"])
            tail += sum(r_end - e for e in last.values())
            tail += (threads - min(threads, len(last))) * r["dur"]
        metrics["batch.tail_idle_s"] = (tail / 1e6, "s")
    else:
        why = "no pool cells: the timed phase calls the runner directly"
        for name, unit in (("batch.cell_ms_p50", "ms"),
                           ("batch.cell_ms_p97", "ms"),
                           ("batch.busy_frac", "frac"),
                           ("batch.tail_idle_s", "s")):
            metrics[name] = (0.0, unit)
            absent.append(f"{name}: {why}")
    if commits:
        cms = sorted(s["dur"] / 1e3 for s in commits)
        metrics["ckpt.commit_ms_p50"] = (nearest_rank(cms, 50), "ms")
        metrics["ckpt.commit_ms_p97"] = (nearest_rank(cms, 97), "ms")
    else:
        for name in ("ckpt.commit_ms_p50", "ckpt.commit_ms_p97"):
            metrics[name] = (0.0, "ms")
            absent.append(f"{name}: this workload commits no checkpoints")
    return metrics, absent


def self_test():
    """The planted corruption must make the workload command fail."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           "suite-sweep", "--seed", str(DEFAULT_SEED), "--seconds", "1",
           "--trace", "0", "--plant-corruption"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    passed_anyway = False
    if lines:
        try:
            passed_anyway = json.loads(lines[-1]).get("correct") is True
        except ValueError:
            pass
    if proc.returncode == 0 or passed_anyway:
        print("self-test FAILED: a corrupted load value went undetected")
        return 1
    print(f"self-test passed: the planted corruption failed the command "
          f"(exit {proc.returncode})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-corruption", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true",
                    help="check that a planted corruption fails the command")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    start = time.time()
    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        die("run from the repository root: the simulator sources are missing")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())

    build_start = time.time()
    binary = build(root)
    deadline = start + RUN_DEADLINE_S + (time.time() - build_start)
    work = root / ".bench_build" / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rc, out = run_measurement(binary, root, args, work, deadline)
    lines = out.splitlines()
    for line in lines:
        if not line.startswith("SIMBENCH_RESULT "):
            print(line)
    results = [l for l in lines if l.startswith("SIMBENCH_RESULT ")]
    if rc != 0 or not results:
        die(f"the measuring program failed (exit {rc}); no result")
    res = json.loads(results[-1][len("SIMBENCH_RESULT "):])

    print(f"source: {source_digest(root)}  workload: {args.workload}  "
          f"seed: {args.seed}  seconds: {args.seconds}  traced: {args.trace}")
    print(f"fingerprint: {res['fingerprint']}  cells attempted "
          f"{res['attempted']}, failed {res['failed']}")
    available = dict(res["end_to_end"])
    absent = list(res["absent"])
    if args.trace:
        available = dict(res["per_layer"])
        trace_path = work / "trace.json"
        extra, why = span_metrics(trace_path, res["host"]["threads"])
        for name, (value, unit) in extra.items():
            available[name] = {"value": value, "unit": unit, "better": ""}
        absent += why
        kept = root / ".bench_build" / f"trace-{args.workload}.json"
        shutil.copyfile(trace_path, kept)
        print(f"perfetto trace: {kept.relative_to(root)}")
    for note in res["notes"]:
        print(f"note: {note}")
    for a in absent:
        print(f"absent (reported as 0): {a}")
    shutil.rmtree(work, ignore_errors=True)

    print("end-to-end metrics:" if not args.trace else "per-layer metrics:")
    for name in sorted(available):
        m = available[name]
        direction = f"  ({m['better']} is better)" if m["better"] else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{direction}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, correct = {}, True
    for w in wanted:
        m = available.get(w["name"])
        if m is None or not math.isfinite(m["value"]):
            print(f"simbench: metric {w['name']} was not measured",
                  file=sys.stderr)
            correct = False
            continue
        if m["unit"] != w["unit"]:
            print(f"simbench: {w['name']} measured in {m['unit']}, "
                  f"BENCHMARK.json says {w['unit']}", file=sys.stderr)
            correct = False
        metrics[w["name"]] = {"value": m["value"], "unit": w["unit"]}
    if res["failed"] > 0 or not res["fingerprints_agree"]:
        correct = False
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
