"""mfcal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exponent-map --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` makes a separate traced run that reports the
per-layer metrics.  Both print a summary and a ``context`` line, and end
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Inputs and outputs live in ``.perfbench/`` under the checkout; the
spans of a traced run are written to ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("exponent-map", "train-step", "validation-sweep", "spectrum")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import the checkout's ``src/mfcal`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "mfcal" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no mfcal sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy and mfcal)
    import mfcal
    elapsed = time.perf_counter() - start
    if Path(mfcal.__file__).resolve().parent != (src / "mfcal").resolve():
        raise SystemExit(f"perfbench: imported mfcal from {mfcal.__file__}, not {src}")
    return elapsed


def measure(workload, seconds: float) -> dict:
    """Run whole cycles until ``seconds`` of wall clock have passed."""
    latencies, kinds, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        for op in workload.cycle():
            attempted += 1
            if op.prepare:
                op.prepare()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # a raising op is a failed op; keep measuring
                traceback.print_exc()
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            kinds.append(op.kind)
            try:
                ok = op.check(result)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"perfbench: {op.kind} output check failed", file=sys.stderr)
                failed += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "kinds": kinds, "attempted": attempted, "failed": failed}


def tail(latencies: list):
    """Latency at the highest percentile with >= 10 samples beyond it."""
    if len(latencies) < 11:
        return None
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = run["latencies"]
    completed = run["attempted"] - run["failed"]
    return {
        "ops_per_s": {"value": completed / sum(lat) if lat else 0.0, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat) if lat else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _speedup_t2(fields: list) -> float:
    """holder_map wall time at threads 1 over threads 2, on the workload's inputs."""
    from mfcal import holder

    totals = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            t0 = time.perf_counter()
            for field in fields:
                holder.holder_map(field, threads=threads)
            totals[threads].append(time.perf_counter() - t0)
    return statistics.median(totals[1]) / statistics.median(totals[2])


def per_layer(workload, seconds: float, out_dir: Path, tag: str) -> tuple:
    """Untraced then traced cycles; the per-layer metrics BENCHMARK.json names.

    A name ``<module>.<function>.<stat>`` with stat ``calls``, ``self_ms``,
    ``mb`` or ``peak_mb`` is read from the spans of that function, per
    traced operation (``peak_mb`` is the largest single call).  The other
    names are ratios computed below.
    """
    from spans import Tracer

    plain = measure(workload, 0.25 * seconds)
    tracer = Tracer()
    with tracer:
        traced = measure(workload, 0.75 * seconds)
    tracer.write(out_dir / f"spans-{tag}.jsonl")
    spans = tracer.summary()
    n = len(traced["latencies"]) or 1

    def row(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "bytes": 0, "peak": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    window_sum = row("grid.window_sum")
    gate_passes = sum(row(f"attention.{f}")["calls"] for f in ("se_forward", "srm_gates", "fca_gates"))
    plain_mean = statistics.fmean(plain["latencies"]) if plain["latencies"] else 0.0
    traced_mean = statistics.fmean(traced["latencies"]) if traced["latencies"] else 0.0
    ratios = {
        "grid.window_sum.gbps_computed": ratio(window_sum["bytes"] / 1e9, window_sum["self_s"]),
        "holder.holder_map.speedup_t2": _speedup_t2(workload.holder_fields()),
        "attention.gate_passes_per_call": ratio(gate_passes, traced["kinds"].count("recalibrate")),
        "analysis.eigensolves_per_report": ratio(row("analysis.jacobi_eigh")["calls"],
                                                 row("analysis.excitation_report")["calls"]),
        "trace.overhead_frac": ratio(traced_mean, plain_mean) - 1.0 if plain_mean else 0.0,
    }
    stats = {
        "calls": lambda r: r["calls"] / n,
        "self_ms": lambda r: 1e3 * r["self_s"] / n,
        "mb": lambda r: r["bytes"] / 1e6 / n,
        "peak_mb": lambda r: r["peak"] / 2 ** 20,
    }
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        function, _, stat = name.rpartition(".")
        value = ratios[name] if name in ratios else stats[stat](row(function))
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
    run = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    return metrics, run


def _cache_bytes(name: int) -> int:
    """``sysconf`` cache size (glibc); 0 where the C library does not report it."""
    try:
        return max(int(ctypes.CDLL(None).sysconf(name)), 0)
    except (OSError, AttributeError):
        return 0


def context(workload) -> dict:
    import numpy

    l3 = _cache_bytes(194)  # _SC_LEVEL3_CACHE_SIZE
    largest = workload.largest_array_bytes
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(191),  # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "largest_array_mb": largest / 2 ** 20,
        "largest_array_over_l3": largest / l3 if l3 else None,
        "gbps_note": "grid.window_sum.gbps_computed is computed from array sizes "
                     "(table read + output written) over self time; no roofline, "
                     "host bandwidth is not measured",
    }


def _summary(name: str, args, run: dict, metrics: dict) -> None:
    print(f"perfbench {name} seed={args.seed} trace={args.trace} "
          f"attempted={run['attempted']} failed={run['failed']}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        return
    t = tail(run["latencies"])
    if t is None:
        print(f"  {'op_tail_ms':<40} {'-':>14} ms (omitted: {len(run['latencies'])} ops < 11)")
    else:
        print(f"  {'op_tail_ms':<40} {1e3 * t[0]:>14.6g} ms (p{t[1]:.1f} of n={t[2]})")
    print(f"  {'failed_frac':<40} {run['failed'] / run['attempted']:>14.6g} ratio")


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_program()
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = BENCH_DIR / "out"
    work = BENCH_DIR / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work)
        setups = []
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            metrics, run = per_layer(workload, args.seconds, out_dir, tag)
        else:
            run = measure(workload, args.seconds)
            metrics = end_to_end(run, import_s + statistics.median(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = workload.setup_ok and run["failed"] == 0
    _summary(args.workload, args, run, metrics)
    ctx = context(workload)
    print(json.dumps({"context": ctx}))
    result = {"correct": bool(correct), "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps({**result, "context": ctx}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
