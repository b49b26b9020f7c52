"""Benchmark for weyldiag: three seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload queries --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --baseline

Run from any directory; the checkout is the parent of this file's
directory. Each run starts its own worker processes (worker.py) on the
checkout's src/, one at a time. With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones; the last
stdout line is one JSON object. The exit code is 1 when any output was
wrong, 2 when the benchmark could not run. --baseline prints the figures
the ROADMAP Baseline quotes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import NOMINAL_S, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    optimized: bool  # run under python -O, so __debug__ is off
    min_passes: int
    item_unit: str


# Each is a closed loop with one client. Why each was chosen is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "verify_sweep": Workload(False, 4, "diagrams certified (2^t per word)"),
    "census_O": Workload(True, 4, "positive diagrams counted (|W| per call)"),
    "queries": Workload(False, 3, "queries answered"),
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYLDIAG_SWEEP_CAP", None)  # the library's default cap applies
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], optimized: bool, deadline: float) -> dict:
    cmd = [sys.executable, *(["-O"] if optimized else []), str(HERE / "worker.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def with_units(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(bench: dict, name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    worker_args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--min-passes", str(workload.min_passes), "--trace", str(int(trace))]
    if trace:
        result = run_worker(worker_args, workload.optimized, deadline)
        return result, with_units(bench["per_layer"], result["layers"])
    # setup_s: launch to first timed op, the median of several launches,
    # each scaled by the machine speed just before and just after it.
    setups = []
    for k in range(SETUP_REPEATS):
        before = [reference_time() for _ in range(5)]
        launched = time.monotonic()
        args = worker_args if k == SETUP_REPEATS - 1 else [*worker_args, "--setup-only"]
        result = run_worker(args, workload.optimized, deadline)
        reference = statistics.median(before + result["setup_ref"])
        setups.append((result["first_op_at"] - launched) * NOMINAL_S / reference)
    values = dict(result["end_to_end"], setup_s=statistics.median(setups))
    return result, with_units(bench["end_to_end"], values)


def print_report(bench, name, args, result, metrics) -> None:
    workload = WORKLOADS[name]
    why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
    print(f"workload {name}: {why}")
    print(f"settings loop=closed clients=1 interpreter={'python -O' if workload.optimized else 'python'}"
          f" seed={args.seed} seconds={args.seconds} min_passes={workload.min_passes}"
          f" trace={args.trace} python={platform.python_version()}"
          f" nproc={len(os.sched_getaffinity(0))}")
    for metric, entry in metrics.items():
        print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if "tail" in result:
        tail = result["tail"]
        print(f"  op_tail_ms is p{tail['percentile']:.3g} over {tail['samples']} samples"
              f" ({tail['beyond']} beyond it), each op's middle {tail['keep']}"
              f" of {tail['passes']} passes;"
              f" items are {workload.item_unit}")
        print(f"  times scaled to a {1e3 * NOMINAL_S:g} ms reference, which took"
              f" {tail['reference_ms']:.4g} ms (median) in this run")
    else:
        notes = result["notes"]
        top = ", ".join(f"{n} {s:.1%}" for n, s in notes["top_self_share"])
        print(f"  largest self-time shares of traced op time: {top}")
        print(f"  time in ops outside any span: {notes['outside_spans_share']:.1%};"
              f" {notes['spans']} spans kept")
        if notes["probe_fallback"]:
            print("  per-call times from the A3 probe (not called by this workload): "
                  + ", ".join(notes["probe_fallback"]))
        if notes["missing"]:
            print("  not found in this version of the library: " + ", ".join(notes["missing"]))
        print("  counts per traced pass: " + json.dumps(result["counts"], sort_keys=True))
    for error in result["errors"]:
        print(f"  ERROR {error}")


def baseline() -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    d4 = run_worker(["--baseline", "d4_verify"], False, deadline)
    c4 = run_worker(["--baseline", "c4_census"], True, deadline)
    rank32 = run_worker(["--baseline", "rank32_roots"], False, deadline)
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    print(f"verify_word on the D4 longest word (t=12, 4096 diagrams): "
          f"{d4['untraced_s']:.3f} s untraced; traced split (inclusive seconds):")
    for phase, seconds in d4["phases"].items():
        print(f"  {phase:<28} {seconds:.3f} s")
    print(f"C4 under python -O: longest_word_census {c4['census_s']:.3f} s, "
          f"enumerate_positive {c4['enumerate_s']:.3f} s; "
          f"{c4['positives']} positive of {c4['tested']} diagrams tested per call, "
          f"{c4['length_tests']} length tests")
    for ctype, seconds in rank32.items():
        print(f"fresh RootSystem({ctype}): {seconds:.3f} s (median of 3)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP Baseline figures instead")
    args = parser.parse_args()
    if not (ROOT / "src" / "weyldiag" / "__init__.py").is_file():
        print(f"error: no weyldiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.baseline:
            return baseline()
        if args.workload is None:
            parser.error("--workload is required")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        result, metrics = measure(bench, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(bench, args.workload, args, result, metrics)
    correct = result["failed"] == 0 and not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"] + len(result["errors"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
