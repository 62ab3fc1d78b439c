"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload spectrum --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload spectrum --seeds 11-20 --against a.json

Runs ``perfbench/run.py`` once per seed (tracing off, ``run_seconds``
from BENCHMARK.json), then reports for each end-to-end metric the median
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  ``--against`` compares these medians with a saved set: the
second median may be worse than the first by at most the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs incorrect\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", help="write the values and medians here")
    parser.add_argument("--against", help="compare medians with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, spec["run_seconds"])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    previous = json.loads(Path(args.against).read_text()) if args.against else None
    medians = {}
    ok = True
    print(f"{'metric':<14} {'median':>12} {'iqr/median':>11} {'bound':>6} {'bound/3':>8}")
    for name, m in metrics.items():
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        medians[name] = med
        spread = (q3 - q1) / med
        line = f"{name:<14} {med:>12.6g} {spread:>11.4f} {m['bound']:>6} {m['bound'] / 3:>8.4f}"
        if name != "setup_s" and spread > m["bound"]:
            ok = False
            line += "  SPREAD OVER BOUND"
        if previous:
            before = previous["medians"][name]
            worse = (before - med) / before if m["better"] == "higher" else (med - before) / before
            line += f"  vs saved {before:.6g}: worse by {worse:+.4f}"
            if worse > m["bound"]:
                ok = False
                line += " OVER BOUND"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "values": values, "medians": medians}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
