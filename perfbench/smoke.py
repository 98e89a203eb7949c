"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size in both modes and checks that each metric
BENCHMARK.json names comes out with its unit, that the count metrics repeat
exactly for a seed, that a deliberately corrupted answer is counted as
failed, and that run.py refuses to run without the package source.  Prints
one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import run

run.import_spinel()

from spinel import arith, isogeny, spinstruct  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"end_to_end": {"setup_repeats": 1}, "per_layer": {"trace_queries": 20}}
COUNT_UNITS = ("count", "ratio")
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def tiny_run(name, trace, seed=1):
    kind = "per_layer" if trace else "end_to_end"
    result, _ = run.run(name, seed, 0.2, trace, **TINY[kind])
    return result


def names_and_units(result, kind):
    return {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[kind]
    }


@contextmanager
def patched(module, attr, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def wrong_slope(realizations):
    def corrupt(*args):
        return dataclasses.replace(realizations(*args), normalized_slope=Fraction(1, 2))

    return corrupt


def flipped_symbol(hilbert_symbol):
    def corrupt(a, b, v):
        s = hilbert_symbol(a, b, v)
        return -s if v == arith.OO else s

    return corrupt


def shifted_trace(isogeny_class):
    def corrupt(p, a, beta):
        return dataclasses.replace(isogeny_class(p, a, beta), beta=beta + 1)

    return corrupt


CORRUPTIONS = {
    "spin-pipeline": (spinstruct, "realizations", wrong_slope),
    "local-symbols": (arith, "hilbert_symbol", flipped_symbol),
    "small-fields": (isogeny, "isogeny_class", shifted_trace),
    "large-fields": (isogeny, "isogeny_class", shifted_trace),
}


def main() -> int:
    run.WARMUP_S = 0.1
    for w in BENCH["workloads"]:
        name = w["name"]
        plain = tiny_run(name, False)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: every answer checks out")
        expect(names_and_units(plain, "end_to_end"), f"{name}: end-to-end metric names and units")
        traced = tiny_run(name, True)
        expect(names_and_units(traced, "per_layer"), f"{name}: per-layer metric names and units")
        again = tiny_run(name, True)
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS
             and not k.endswith("busy_share") and k != "trace.overhead_ratio"}
            for r in (traced, again)
        ]
        expect(counts[0] == counts[1], f"{name}: count metrics repeat for a seed")
        module, attr, make = CORRUPTIONS[name]
        with patched(module, attr, make):
            broken = tiny_run(name, False)
        expect(
            not broken["correct"] and broken["failed"] > 0,
            f"{name}: corrupted {module.__name__}.{attr} is counted as failed "
            f"({broken['failed']} of {broken['attempted']})",
        )

    cli = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "spin-pipeline",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    last = json.loads(cli.stdout.strip().splitlines()[-1]) if cli.returncode == 0 else {}
    expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
           "run.py prints the result object as its last line")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    refused = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spin-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    expect(refused.returncode != 0 and not refused.stdout.strip(),
           "run.py exits non-zero without a result when src/spinel is missing")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
