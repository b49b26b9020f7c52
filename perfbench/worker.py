"""One workload process: build the seeded inputs, then time passes over them.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
WEYLDIAG_SWEEP_CAP cleared. Prints one JSON object on its last stdout line.

A pass runs the workload's op list once, in one closed loop with one client.
Passes repeat until --seconds have gone by and at least --min-passes are
done; only whole passes are measured, so every op kind has the same number
of samples. With --trace 1, untraced and traced passes alternate and the
traced ones record spans (see tracing.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import Speed, reference_time
from tracing import PROBE_OP, SpanStats, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
KEEP = 3  # latencies kept per op; every workload's minimum pass count is at least this


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.speed = Speed()
        self.pass_walls: list[tuple[bool, float]] = []
        self.pass_counts: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.items = 0

    def run_pass(self, traced: bool) -> None:
        tracer = self.tracer
        if traced:
            for name in tracer.tally:
                tracer.tally[name] = 0
            tracer.install()
        wall = 0.0
        base = len(self.pass_walls) * len(self.ops)
        for j, op in enumerate(self.ops):
            if traced:
                tracer.op_id = base + j
            if self.speed.due():
                self.speed.sample()
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if traced:
                tracer.install()
            self.attempted += 1
            self.latencies.append(dt)
            self.starts.append(t0)
            wall += dt
            if error:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {op.kind}: {error}", file=sys.stderr)
            else:
                self.items += op.items
        self.speed.sample()
        if traced:
            tracer.uninstall()
            self.pass_counts.append(dict(tracer.tally))
        self.pass_walls.append((traced, wall))

    def scaled(self) -> list[float]:
        """The latencies scaled to the nominal machine speed (speed.py)."""
        factor = self.speed.factor
        return [dt * factor(t0, t0 + dt) for t0, dt in zip(self.starts, self.latencies)]


def median_pass(runner: Runner, passes) -> float:
    """One pass, each op at its median scaled latency over the given passes:
    a slow spell of the machine that hits one op in one pass does not move it."""
    n = len(runner.ops)
    scaled = runner.scaled()
    return sum(statistics.median(scaled[p * n + j] for p in passes) for j in range(n))


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """The end-to-end metrics but setup_s, and where op_tail_ms was read.

    Each latency is scaled to the nominal machine speed (speed.py). Each op
    then keeps the KEEP scaled latencies in the middle of its passes. The
    scaling misses a change of speed inside a long op, in either direction,
    and the slowest pass is often pass 0, where the library's caches fill;
    the fastest and slowest passes hold these. The kept latencies are the
    samples of op_p50_ms and op_tail_ms; wall_s adds up each op's median.
    """
    n = len(runner.ops)
    passes = len(runner.pass_walls)
    scaled = runner.scaled()
    first = (passes - KEEP) // 2
    kept = [sorted(scaled[p * n + j] for p in range(passes))[first:first + KEEP]
            for j in range(n)]
    lat = sorted(x for op in kept for x in op)
    # The highest percentile with 10 samples beyond it. The sample count is
    # fixed per workload, so the percentile is too.
    tail_at = max(0, len(lat) - 11)
    wall = sum(statistics.median(op) for op in kept)
    metrics = {
        "wall_s": wall,
        "items_per_s": runner.items / passes / wall,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_at],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100 * (tail_at + 1) / len(lat), "beyond": len(lat) - tail_at - 1,
            "samples": len(lat), "passes": passes, "keep": KEEP,
            "reference_ms": 1e3 * statistics.median(runner.speed.took)}
    return metrics, tail


def per_layer(runner, tracer, workloads_mod, ctypes, cli_import_ms):
    """Per-layer figures of the traced passes, and the span summary they came from."""
    from weyldiag.roots import CartanType, RootSystem

    def cache_info(name):
        fn = tracer.originals.get(name)
        return fn.cache_info() if fn is not None else None

    def hit_ratio(name):
        info = cache_info(name)
        lookups = info.hits + info.misses if info else 0
        return info.hits / lookups if lookups else 0.0

    metrics = {
        "diagrams.subword_products.hit_ratio": hit_ratio("diagrams.subword_products"),
        "diagrams.subword_products.cache_size":
            getattr(cache_info("diagrams.subword_products"), "currsize", 0),
        "verify.group_elements.hit_ratio": hit_ratio("verify.group_elements"),
    }
    # Probe calls touch the caches, so they run after the cache figures above.
    tracer.op_id = PROBE_OP
    tracer.install()
    for call in workloads_mod.probe_calls():
        for _ in range(5):
            call()
    tracer.uninstall()

    build_ms = 0.0
    for family, rank in ctypes:
        t0 = time.perf_counter()
        RootSystem(CartanType(family, rank))
        build_ms += 1e3 * (time.perf_counter() - t0)

    summary = summarize(tracer)
    traced = [p for p, (is_traced, _) in enumerate(runner.pass_walls) if is_traced]
    # Pass 0 fills the library's caches, so it is left out of the baseline.
    untraced = [p for p, (is_traced, _) in enumerate(runner.pass_walls) if p and not is_traced]
    traced_time = sum(runner.pass_walls[p][1] for p in traced)
    n_traced = len(traced)
    tally = runner.pass_counts[0]
    fallbacks = set()

    def stats(name, probe=False):
        return (summary.probe if probe else summary.workload).get(name, SpanStats())

    def per_call(names, scale, self_time=False):
        """Mean time per call of names[0], its partners' time included; a
        layer the workload never calls is timed on the probe calls."""
        probe = not stats(names[0]).calls
        if probe:
            fallbacks.add(names[0])
        calls = stats(names[0], probe).calls
        total = sum(stats(n, probe).self_time if self_time else stats(n, probe).total
                    for n in names)
        return scale * total / calls if calls else 0.0

    def calls(name):
        return stats(name).calls // n_traced

    tested = calls("diagrams.ascent_test")
    positives = tally.get("diagrams.ascent_test", 0)
    metrics.update({
        "roots.build_ms": build_ms,
        "roots.element_of_word_us": per_call(["roots.element_of_word"], 1e6),
        "roots.compose_us": per_call(["roots.compose"], 1e6),
        "roots.invert_us": per_call(["roots.invert"], 1e6),
        "words.root_sequence_us": per_call(["words.root_sequence"], 1e6),
        "words.reduced_word_us": per_call(["words.reduced_word"], 1e6),
        "words.extend_to_w0_ms": per_call(["words.extend_to_w0"], 1e3),
        "diagrams.length_test_us": per_call(["diagrams.length_test"], 1e6),
        "diagrams.length_test.calls": calls("diagrams.length_test"),
        "diagrams.length_test.share": stats("diagrams.length_test").self_time / traced_time,
        "diagrams.ascent_test_us": per_call(["diagrams.ascent_test"], 1e6),
        "diagrams.is_positive_us": per_call(["diagrams.is_positive"], 1e6),
        "diagrams.diagrams_tested": tested,
        "diagrams.positives": positives,
        "diagrams.positive_ratio": positives / tested if tested else 0.0,
        "diagrams.obstruction_us": per_call(["diagrams.obstruction"], 1e6),
        "diagrams.obstruction_pairs": calls("diagrams.obstruction"),
        "diagrams.diagram_for_us": per_call(["diagrams.diagram_for"], 1e6),
        "diagrams.zeta_us": per_call(["diagrams.zeta"], 1e6),
        "diagrams.subword_products_ms": per_call(["diagrams.subword_products"], 1e3),
        "diagrams.subword_products.elements": tally.get("diagrams.subword_products", 0),
        "grid.le_test_us": per_call(["grid.le_test"], 1e6),
        "grid.pipe_dream_us": per_call(["grid.pipe_dream"], 1e6),
        "grid.render_trace_us": per_call(["grid.render", "grid.trace"], 1e6),
        "verify.verify_word_s": per_call(["verify.verify_word"], 1.0),
        "verify.self_s": per_call(["verify.verify_word"], 1.0, self_time=True),
        "verify.enumerate_positive_s": per_call(["verify.enumerate_positive"], 1.0),
        "verify.group_elements_ms": per_call(["verify.group_elements"], 1e3),
        "cli.run_ms": per_call(["cli.run"], 1e3),
        "cli.self_ms": per_call(["cli.run"], 1e3, self_time=True),
        "cli.import_ms": cli_import_ms,
        "trace.overhead": median_pass(runner, traced) / median_pass(runner, untraced),
    })
    for layer, own in summary.layer_self.items():
        metrics[f"{layer}.share"] = own / traced_time
    notes = {
        "probe_fallback": sorted(fallbacks),
        "missing": tracer.missing,
        "outside_spans_share": 1 - sum(summary.layer_self.values()) / traced_time,
        "spans": len(tracer.start),
        "top_self_share": sorted(
            ((name, s.self_time / traced_time) for name, s in summary.workload.items()
             if s.calls), key=lambda kv: -kv[1])[:6],
    }
    return summary, metrics, notes


def work_counts(runner, summary) -> list[dict]:
    """Exact counts of one traced pass: calls per span name and the tallies."""
    n = len(runner.ops)
    passes: dict[int, dict[str, int]] = {}
    for op_id, counts in summary.calls_by_op.items():
        merged = passes.setdefault(op_id // n, {})
        for name, c in counts.items():
            merged[f"calls:{name}"] = merged.get(f"calls:{name}", 0) + c
    traced = [i for i, (t, _) in enumerate(runner.pass_walls) if t]
    per_pass = []
    for k, i in enumerate(traced):
        counts = dict(passes.get(i, {}))
        counts.update({f"tally:{name}": v for name, v in runner.pass_counts[k].items()})
        per_pass.append(counts)
    return per_pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, per_pass: list[dict]) -> list[str]:
    """Counts must repeat between traced passes and between runs of one seed."""
    errors = [f"traced pass {k} counts differ from pass 0"
              for k, counts in enumerate(per_pass) if counts != per_pass[0]]
    path = OUT_DIR / "counts" / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != per_pass[0]:
            diff = sorted(k for k in set(previous) | set(per_pass[0])
                          if previous.get(k) != per_pass[0].get(k))
            errors.append(f"counts differ from the previous run with seed {seed}: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(per_pass[0], indent=1, sort_keys=True))
    return errors


def baseline(name: str) -> dict:
    """The figures the ROADMAP Baseline quotes, measured in this process."""
    import weyldiag as wd

    clock = time.perf_counter
    if name == "rank32_roots":
        out = {}
        for family in "ABCD":
            times = []
            for _ in range(3):
                t0 = clock()
                wd.RootSystem(wd.CartanType(family, 32))
                times.append(clock() - t0)
            out[f"{family}32"] = statistics.median(times)
        return out

    tracer = Tracer()
    tracer.op_id = 0
    if name == "d4_verify":
        system = wd.root_system("D", 4)
        letters = wd.longest_word(system).letters
        t0 = clock()
        wd.verify_word(wd.Word(system, letters))
        untraced = clock() - t0
        wd.subword_products.cache_clear()
        tracer.install()
        wd.verify_word(wd.Word(system, letters))
        tracer.uninstall()
        spans = summarize(tracer).workload
        phases = {span: spans[span].total for span in (
            "diagrams.length_test", "diagrams.ascent_test", "diagrams.obstruction",
            "diagrams.diagram_for", "diagrams.zeta", "diagrams.subword_products",
            "verify.verify_word") if span in spans}
        phases["verify.verify_word self"] = spans["verify.verify_word"].self_time
        return {"untraced_s": untraced, "phases": phases}

    ctype = wd.CartanType("C", 4)
    word = wd.longest_word(wd.build_root_system(ctype))
    t0 = clock()
    wd.longest_word_census(ctype)
    t1 = clock()
    wd.enumerate_positive(word)
    t2 = clock()
    tracer.install()
    wd.longest_word_census(ctype)
    tracer.uninstall()
    spans = summarize(tracer).workload
    return {"census_s": t1 - t0, "enumerate_s": t2 - t1,
            "tested": spans["diagrams.ascent_test"].calls,
            "positives": tracer.tally["diagrams.ascent_test"],
            "length_tests": spans["diagrams.length_test"].calls}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-passes", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--baseline", choices=("d4_verify", "c4_census", "rank32_roots"))
    args = parser.parse_args()
    if args.baseline:
        print(json.dumps(baseline(args.baseline)))
        return 0

    cli_import_ms = None
    if args.trace:
        t0 = time.perf_counter()
        import weyldiag.cli  # noqa: F401  (cold import, package included)
        cli_import_ms = 1e3 * (time.perf_counter() - t0)
    import workloads

    ops, ctypes = workloads.BUILDERS[args.workload](args.seed)
    first_op_at = time.monotonic()
    # The machine speed right after set-up, to scale the set-up time.
    setup_ref = [reference_time() for _ in range(5)]
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at, "setup_ref": setup_ref}))
        return 0

    tracer = Tracer() if args.trace else None
    runner = Runner(ops, tracer)
    start = time.perf_counter()
    # Traced runs alternate untraced and traced passes, untraced first; the
    # overhead compares traced passes with the untraced ones after pass 0.
    min_passes = max(args.min_passes, 3) if args.trace else args.min_passes
    while len(runner.pass_walls) < min_passes or time.perf_counter() - start < args.seconds:
        runner.run_pass(traced=bool(args.trace) and len(runner.pass_walls) % 2 == 1)

    result = {"first_op_at": first_op_at, "setup_ref": setup_ref, "attempted": runner.attempted,
              "failed": runner.failed, "errors": []}
    if args.trace:
        summary, result["layers"], result["notes"] = per_layer(
            runner, tracer, workloads, ctypes, cli_import_ms)
        per_pass = work_counts(runner, summary)
        result["errors"] = check_counts(args.workload, args.seed, per_pass)
        result["counts"] = per_pass[0]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin")
    else:
        result["end_to_end"], result["tail"] = end_to_end(runner)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
