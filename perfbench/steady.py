"""Run workloads repeatedly with different seeds and report how steady they are.

    python3 perfbench/steady.py --runs 10 [--workload small-fields ...] [--save set1.json]
    python3 perfbench/steady.py --runs 10 --first-seed 11 --baseline set1.json

For each workload and end-to-end metric it prints the median, the quartiles
from `statistics.quantiles(n=4)` and the spread (Q3 - Q1) / median next to
the metric's bound in BENCHMARK.json.  A
spread above a third of the bound is marked `wide`, above the bound `FAIL`
(setup_s is reported but not gated).  With --baseline, each median is also
compared with a saved earlier set and marked `WORSE` when it is worse by
more than the bound.  Exits 1 if anything is marked FAIL or WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    print(f"  seed {seed}: {lines[-2] if len(lines) > 1 else ''}", flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write the per-run values here as JSON")
    parser.add_argument("--baseline", type=Path, help="a file written by an earlier --save")
    args = parser.parse_args(argv)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    values: dict[str, dict[str, list[float]]] = {}
    bad = 0
    for workload in args.workload or names:
        print(f"{workload}:", flush=True)
        runs = [one_run(workload, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
        failed = sum(r["failed"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            print(f"  FAIL: {failed} failed queries")
            bad += 1
        values[workload] = {
            name: [r["metrics"][name]["value"] for r in runs] for name in specs
        }
        for name, spec in specs.items():
            vals = values[workload][name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:24} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}"
                    f"  spread {spread:7.2%}  bound {spec['bound']:.0%}")
            mark = ""
            if name != "setup_s" and spread > spec["bound"]:
                mark = "FAIL"
            elif name != "setup_s" and spread > spec["bound"] / 3:
                mark = "wide"
            old = baseline.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                change = (med - old_med) / old_med
                worse = -change if spec["better"] == "higher" else change
                line += f"  vs baseline {change:+.2%}"
                if worse > spec["bound"]:
                    mark = "WORSE"
            bad += mark in ("FAIL", "WORSE")
            print(f"{line}  {mark}".rstrip(), flush=True)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
