"""Run one seeded spinel workload and print its metrics.

    python3 perfbench/run.py --workload spin-pipeline --seed 1 --seconds 25 --trace 0

One closed-loop client calls spinel's public functions in-process, the next
query after the previous one returns, and checks every answer.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, where `metrics` holds the end-to-end metrics of
BENCHMARK.json (`--trace 0`) or its per-layer metrics (`--trace 1`).  The
line before it is a human-readable summary with the raw wall-clock figures.

Times are reported in reference milliseconds and seconds: wall time scaled
by how long a fixed reference computation took around it (see speed.py).

Exits 1 without a result when the package source is missing next to the
benchmark (`<root>/src/spinel`).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

from speed import REFERENCE_NS, SpeedProbe
from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WARMUP_S = 1.0
SETUP_REPEATS = 9


class Timings:
    """Start, end and reference factor of each query of one closed loop.

    Kept in arrays: a Python object per query would make peak_rss_mb grow
    with the number of queries a fast host completes.
    """

    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.factor = array("d")
        #: query index -> names of its failed checks
        self.failures: dict[int, list[str]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def wall_ms(self, i: int) -> float:
        return (self.end[i] - self.start[i]) / 1e6

    def ref_ms(self, i: int) -> float:
        return self.wall_ms(i) * self.factor[i]

    def passed(self, n: int) -> list[int]:
        """Indices among the first n queries that passed their checks."""
        return [i for i in range(n) if i not in self.failures]

    def qps(self, n: int | None = None) -> float:
        """Passed queries per reference second spent in the first n queries."""
        n = len(self) if n is None else n
        return len(self.passed(n)) / (sum(self.ref_ms(i) for i in range(n)) / 1e3)


def serve(workload, queries, tracer, probe, deadline_ns=None) -> Timings:
    """Closed loop over `queries` until they run out or the deadline passes."""
    timings = Timings()
    probe.sample()
    for i, query in enumerate(queries):
        if deadline_ns is not None and time.perf_counter_ns() >= deadline_ns:
            break
        tracer.query = i
        start = time.perf_counter_ns()
        try:
            out = workload.run(query, tracer)
        except Exception as exc:  # a query that raises is a failed query
            out, failures = None, [f"raised {type(exc).__name__}: {exc}"]
        end = time.perf_counter_ns()
        if out is not None:
            try:
                failures = workload.check(query, out)
            except Exception as exc:  # a malformed answer fails its check
                failures = [f"check raised {type(exc).__name__}: {exc}"]
        timings.start.append(start)
        timings.end.append(end)
        if failures:
            timings.failures[i] = failures
        probe.maybe_sample(time.perf_counter_ns())
    probe.sample()
    timings.factor.extend(probe.factor(s, e) for s, e in zip(timings.start, timings.end))
    return timings


def _nearest_rank(sorted_values, fraction):
    return sorted_values[max(math.ceil(fraction * len(sorted_values)) - 1, 0)]


_SETUP_CHILD = """\
import time
start = time.perf_counter()
import random, sys
sys.path[:0] = [{src!r}, {here!r}]
import spinel, workloads
next(workloads.WORKLOADS[{name!r}].stream(random.Random({seed!r})))
elapsed = time.perf_counter() - start
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(5):
    probe.sample()
print(elapsed * probe.median_factor())
"""


def measure_setup(name: str, seed: int, repeats: int) -> float:
    """Median reference seconds, in a fresh interpreter, from its first
    statement through `import spinel` to the first query's inputs ready.

    The child times itself and scales by its own reference samples.  The
    interpreter's start-up before its first statement is left out: it is not
    spinel's, and the cost of spawning a process here varies by 2x with
    the neighbours' activity.
    """
    code = _SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, seed=f"{name}:{seed}:setup")
    times = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _warm_up(workload, seed, probe) -> Timings:
    rng = random.Random(f"{workload.name}:{seed}:warmup")
    deadline = time.perf_counter_ns() + int(WARMUP_S * 1e9)
    return serve(workload, workload.stream(rng), NullTracer(), probe, deadline)


def end_to_end(workload, seed, seconds, setup_repeats=SETUP_REPEATS):
    setup_s = measure_setup(workload.name, seed, setup_repeats)
    probe = SpeedProbe()
    warm = _warm_up(workload, seed, probe)
    rng = random.Random(f"{workload.name}:{seed}")
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    timings = serve(workload, workload.stream(rng), NullTracer(), probe, deadline)
    # timings over whole blocks only, so every run times the same query mix
    whole = len(timings) - len(timings) % workload.block or len(timings)
    passed = timings.passed(whole)
    done = sorted(map(timings.ref_ms, passed)) or [float("nan")]
    wall = sorted(map(timings.wall_ms, passed)) or [float("nan")]
    metrics = {
        "queries_per_s": (timings.qps(whole), "1/s"),
        "latency_p50_ms": (_nearest_rank(done, 0.50), "ms"),
        "latency_p95_ms": (_nearest_rank(done, 0.95), "ms"),
        "success_ratio": (1 - len(timings.failures) / max(len(timings), 1), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = len(done) - math.ceil(0.95 * len(done))
    summary = (
        f"{workload.name} seed={seed}: {len(timings)} queries, {whole} timed, "
        f"{beyond} beyond p95{' (fewer than 10)' if beyond < 10 else ''}; wall p50 "
        f"{_nearest_rank(wall, 0.5):.3f} ms, p95 {_nearest_rank(wall, 0.95):.3f} ms; "
        f"reference sample median {statistics.median(probe.durations) / 1e3:.1f} us "
        f"(nominal {REFERENCE_NS / 1e3:.0f} us)"
    )
    return [warm, timings], metrics, summary


def _pass_stats(timings, tracer, layers):
    query_ms = sum(map(timings.ref_ms, range(len(timings))))
    stats = {"workload.query_ms": (query_ms, "ms")}
    busy = {layer: 0.0 for layer in layers}
    calls = {layer: 0 for layer in layers}
    failed = {layer: 0 for layer in layers}
    by_name: dict[str, list] = {}
    for layer, name, start, end, qid, raised in tracer.spans:
        ms = (end - start) / 1e6 * timings.factor[qid]
        busy[layer] += ms
        calls[layer] += 1
        failed[layer] += raised
        entry = by_name.setdefault(f"{layer}.{name}", [0, 0.0])
        entry[0] += 1
        entry[1] += ms
    for layer in layers:
        stats[f"{layer}.calls"] = (calls[layer], "count")
        stats[f"{layer}.busy_ms"] = (busy[layer], "ms")
        stats[f"{layer}.busy_share"] = (busy[layer] / query_ms if query_ms else 0.0, "ratio")
        stats[f"{layer}.failed"] = (failed[layer], "count")

    def named(*names):
        return (
            sum(by_name.get(n, (0, 0.0))[0] for n in names),
            sum(by_name.get(n, (0, 0.0))[1] for n in names),
        )

    def share(count, base):
        return count / base if base else 0.0

    search_calls, search_ms = named("quat.find_pure_of_norm")
    lvalue_calls, _ = named("lfunc.l_values")
    builds, build_ms = named("curves.FiniteField")
    stats |= {
        "quat.search_calls": (search_calls, "count"),
        "quat.search_ms": (search_ms, "ms"),
        "quat.search_hit_ratio": (share(tracer.counts["quat.search_hit"], search_calls), "ratio"),
        "lfunc.l_values_calls": (lvalue_calls, "count"),
        "lfunc.mpf_share": (share(tracer.counts["lfunc.mpf"], lvalue_calls), "ratio"),
        "curves.field_builds": (builds, "count"),
        "curves.field_build_ms": (build_ms, "ms"),
        "curves.count_ms": (named("curves.count_points")[1], "ms"),
        "curves.census_ms": (named("curves.trace_census")[1], "ms"),
        "curves.frobenius_ms": (
            named("curves.find_q14_curve", "curves.verify_frobenius_scalar")[1],
            "ms",
        ),
        "curves.tabled_share": (share(tracer.counts["curves.tabled"], builds), "ratio"),
    }
    return stats


def per_layer(workload, seed, seconds, trace_queries=None):
    """Alternate untraced and traced passes over one fixed query list.

    Counts come from the first traced pass and repeat exactly for a seed;
    times are medians over the traced passes.
    """
    from workloads import LAYERS

    probe = SpeedProbe()
    warm = _warm_up(workload, seed, probe)
    rng = random.Random(f"{workload.name}:{seed}")
    queries = list(islice(workload.stream(rng), trace_queries or workload.trace_queries))
    keys = [workload.key(q) for q in queries]
    repeats = len(keys) - len(set(keys))
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    untraced, traced = [], []
    while True:
        untraced.append(serve(workload, queries, NullTracer(), probe))
        if traced and time.perf_counter_ns() >= deadline:
            break
        tracer = Tracer()
        traced.append((serve(workload, queries, tracer, probe), tracer))
        if time.perf_counter_ns() >= deadline:
            break
    passes = [_pass_stats(timings, tracer, LAYERS) for timings, tracer in traced]
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "ms" or name.endswith("busy_share"):
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = (value, unit)
    metrics["workload.queries"] = (len(queries), "count")
    metrics["workload.repeat_share"] = (repeats / len(queries), "ratio")
    traced_qps = statistics.median(timings.qps() for timings, _ in traced)
    untraced_qps = statistics.median(timings.qps() for timings in untraced)
    metrics["trace.overhead_ratio"] = (traced_qps / untraced_qps, "ratio")
    _write_spans(workload.name, seed, traced)
    summary = (
        f"{workload.name} seed={seed} traced: {len(traced)} pass pairs of {len(queries)} queries, "
        f"reference sample median {statistics.median(probe.durations) / 1e3:.1f} us"
    )
    return [warm, *untraced, *(timings for timings, _ in traced)], metrics, summary


def _write_spans(name, seed, traced) -> None:
    """One JSON line per span; a layer span's parent is its query's span."""
    OUT.mkdir(exist_ok=True)
    with (OUT / f"spans-{name}-{seed}.jsonl").open("w") as f:
        for pass_no, (timings, tracer) in enumerate(traced):
            for qid in range(len(timings)):
                f.write(json.dumps({
                    "id": f"{pass_no}/{qid}", "span": "query", "query": qid, "parent": None,
                    "start_ns": timings.start[qid], "end_ns": timings.end[qid],
                    "ok": qid not in timings.failures, "reference_factor": timings.factor[qid],
                }) + "\n")
            for layer, fn, start, end, qid, raised in tracer.spans:
                f.write(json.dumps({
                    "span": f"{layer}.{fn}", "query": qid, "parent": f"{pass_no}/{qid}",
                    "start_ns": start, "end_ns": end, "raised": raised,
                }) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool, **sizes) -> tuple[dict, str]:
    """One benchmark run in this process; returns (result object, summary line)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        checked, metrics, summary = per_layer(workload, seed, seconds, **sizes)
    else:
        checked, metrics, summary = end_to_end(workload, seed, seconds, **sizes)
    failed = sum(len(t.failures) for t in checked)
    if failed:
        first = next(f for t in checked for f in t.failures.values())
        summary += f"; first failure: {first}"
    result = {
        "correct": failed == 0,
        "attempted": sum(map(len, checked)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, summary


def import_spinel() -> None:
    """Put this checkout's package source first on the path, or exit 1."""
    if not (SRC / "spinel" / "__init__.py").is_file():
        sys.exit(f"error: no spinel package source at {SRC / 'spinel'}")
    sys.path.insert(0, str(SRC))
    import spinel

    if Path(spinel.__file__).resolve().parent != SRC / "spinel":
        sys.exit(f"error: imported spinel from {spinel.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_spinel()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {summary}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
