"""Run the benchmark over many seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds N]
                               [--record]
    python3 perfbench/sweep.py --traced --seeds 1 [--workloads a,b]

Each run is a separate ``perfbench/run.py`` process, started from the
repository root; seeds go round-robin over the workloads so slow drift of
the machine spreads evenly.  For every end-to-end metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (inter-quartile distance over the median) and whether the spread
is within a third of the metric's bound in ``BENCHMARK.json``.
``--record`` appends the medians and quartiles, with the package
version, host and workload parameters, to ``perfbench/trajectory.json``.

``--traced`` runs each workload once with ``--trace 1`` and prints the
per-layer metrics side by side, then checks the layer relations the
benchmark was designed around (see ``trajectory.json``'s predictions).
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TRAJECTORY_PATH = HERE / "trajectory.json"
#: A run longer than this breaks the benchmark's contract.
RUN_LIMIT_S = 180.0
#: Prefix of the traced run's set-up split line.
SPLIT = "set-up split: "

sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from perfbench.record import parse_seeds  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its parsed last line plus wall time."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=2 * RUN_LIMIT_S)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result.update(exit=proc.returncode, elapsed_s=elapsed, stdout=lines,
                  stderr=proc.stderr)
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def sweep(args, contract: dict) -> int:
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    results: dict[str, list[dict]] = {name: [] for name in names}
    ok = True
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, args.seconds, 0)
            results[name].append(result)
            values = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: exit {result['exit']} "
                  f"{result['elapsed_s']:.1f} s {values}", flush=True)
            if not result["correct"] or result["exit"] != 0:
                ok = False
                print(result["stderr"][-2000:] + "\n".join(
                    result["stdout"][-8:]), file=sys.stderr)
            if result["elapsed_s"] > RUN_LIMIT_S:
                ok = False
                print(f"  run took longer than {RUN_LIMIT_S:.0f} s",
                      file=sys.stderr)
    entry = {"workloads": {}}
    print(f"\n{'workload':<16} {'metric':<12} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for name in names:
        summary = {}
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results[name] if r["metrics"]]
            if len(values) < 2:
                continue
            stats = summarise(values)
            summary[metric["name"]] = stats
            steady = stats["spread"] < metric["bound"] / 3
            if metric["name"] != "setup_s" and not steady:
                ok = False
            print(f"{name:<16} {metric['name']:<12} {stats['median']:>11.5g} "
                  f"{stats['q1']:>11.5g} {stats['q3']:>11.5g} "
                  f"{stats['spread']:>7.4f} {metric['bound']:>6}"
                  f"{'' if steady else '  (above a third of the bound)'}")
        elapsed = [r["elapsed_s"] for r in results[name]]
        print(f"{name:<16} {'run time':<12} max {max(elapsed):.1f} s, "
              f"mean {statistics.mean(elapsed):.1f} s")
        entry["workloads"][name] = {"params": WORKLOADS[name].full,
                                    "metrics": summary}
    if args.record:
        import repro

        entry = {"version": repro.__version__, "seeds": args.seeds,
                 "run_seconds": args.seconds,
                 "time_unit": "reference seconds (perfbench/speed.py)",
                 "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}",
                 **entry}
        document = json.loads(TRAJECTORY_PATH.read_text())
        document["trajectory"].append(entry)
        TRAJECTORY_PATH.write_text(json.dumps(document, indent=2) + "\n")
        print(f"appended a {entry['version']} entry to {TRAJECTORY_PATH}")
    return 0 if ok else 1


def traced(args, contract: dict) -> int:
    seed = parse_seeds(args.seeds)[0]
    names = args.workloads.split(",")
    layers: dict[str, dict] = {}
    splits: dict[str, dict] = {}
    ok = True
    for name in names:
        result = run_once(name, seed, args.seconds, 1)
        print(f"{name}: exit {result['exit']} in {result['elapsed_s']:.1f} s",
              flush=True)
        for line in result["stdout"]:
            if line.startswith(("digest", "check failed", SPLIT)):
                print(f"  {line}")
            if line.startswith(SPLIT):
                splits[name] = json.loads(line[len(SPLIT):])
        if not result["correct"]:
            ok = False
            print(result["stderr"][-2000:], file=sys.stderr)
        layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"\n{'metric':<32}" + "".join(f"{n:>16}" for n in names))
    for metric in contract["per_layer"]:
        cells = "".join(f"{layers[n].get(metric['name'], float('nan')):>16.6g}"
                        for n in names)
        print(f"{metric['name']:<32}{cells}")
    print()
    for claim, holds in design_checks(layers, splits):
        print(f"{'HOLDS' if holds else 'DOES NOT HOLD'}: {claim}")
    return 0 if ok else 1


def design_checks(layers: dict, splits: dict) -> list[tuple[str, bool]]:
    """The layer relations the workloads were chosen to exhibit."""
    checks = []
    ingest = layers.get("ingest_point")
    hbase = layers.get("hbase_rw_point")
    chaos = layers.get("chaos_incident")
    if ingest and hbase:
        ratio = hbase["kernel.events_per_op"] / ingest["kernel.events_per_op"]
        checks.append((f"hbase_rw_point has {ratio:.1f}x the kernel events "
                       "per op of ingest_point (expected >= 4x)", ratio >= 4))
    elif ingest:
        checks.append(("hbase_rw_point has >= 4x the kernel events per op "
                       "of ingest_point: not measured, the workload is not "
                       "in this benchmark (see README)", False))
    split = splits.get("ingest_point")
    if split:
        largest = max(split, key=split.get)
        checks.append((f"the largest part of ingest_point's traced set-up is "
                       f"{largest} ({100 * split[largest]:.0f}%; expected "
                       "generator)", largest == "generator"))
    if chaos:
        checks.append((f"chaos_incident sheds {chaos['overload.shed']:.0f} "
                       "requests (expected > 0)", chaos["overload.shed"] > 0))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    return traced(args, contract) if args.traced else sweep(args, contract)


if __name__ == "__main__":
    sys.exit(main())
