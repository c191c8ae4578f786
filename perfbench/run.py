"""End-to-end benchmark of the ``repro`` package.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload ingest_point --seed 1 --seconds 30 --trace 0

Every run first executes the workload's tiny variant at the canonical
seed and checks it against the digest recorded in
``perfbench/digests.json`` (the golden check, which also warms imports).
It then executes the full-size workload at ``--seed`` as many times as
fit in ``--seconds`` (at least once), checks every output (digest equal across
repetitions and, where recorded for this seed, equal to the recorded
one; no failed operation on fault-free workloads; measured operations
equal to the configured window) and reports medians.  Those times are
in reference seconds: the host's speed is sampled while the workload
runs and divided out (:mod:`perfbench.speed`).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once bare and once under :class:`probes.LayerTracer` and prints
the per-layer metrics, including ``trace.overhead_ratio``.  The metric
names and units are those declared in ``BENCHMARK.json``.  The last line
of standard output is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
#: Scratch space for the grid's result store and exports.
WORKDIR = ROOT / ".perfbench-tmp"
#: Runs of the kernel microbenchmark behind ``kernel.micro_events_per_s``.
MICRO_RUNS = 3


@dataclass
class Iteration:
    """Timings and the checked output of one workload execution.

    The times are reference seconds when the execution was speed-sampled
    (see :mod:`perfbench.speed`) and host seconds otherwise.
    """

    wall_s: float
    setup_s: float
    run_s: float
    #: Seconds from the last ``Simulator.run`` return to the output.
    post_s: float
    events: int
    digest: str
    ops: int
    failed_ops: int
    model: str
    problems: list[str]
    #: Host seconds of the whole execution.
    host_wall_s: float


@dataclass
class Report:
    """What one benchmark invocation prints as its last line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list[str] = field(default_factory=list)
    #: Digest of the last checked output ("" when none completed).
    digest: str = ""

    def to_json(self, units: dict) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()}})


def measure(workload, params: dict, seed: int, tracer=None,
            sampled: bool = False) -> Iteration:
    """Execute ``workload`` once; time its phases and check its output.

    With ``sampled`` the host's speed is sampled throughout and the times
    are converted to reference seconds.
    """
    from perfbench.probes import PhaseClock
    from perfbench.speed import SpeedProbe

    probe = tracer if tracer is not None else PhaseClock()
    clock = tracer.clock if tracer is not None else probe
    speed = SpeedProbe() if sampled else None
    WORKDIR.mkdir(exist_ok=True)
    # Start every execution from the same heap: garbage left by the last
    # one would otherwise be collected on this one's clock.
    gc.collect()
    with probe, speed or contextlib.nullcontext():
        started = time.perf_counter()
        outcome = workload.execute(params, seed, WORKDIR)
        ended = time.perf_counter()
    problems = list(outcome.problems)
    if outcome.closed_loop and clock.window_ops != outcome.ops:
        problems.append(f"measured {outcome.ops} operations but the "
                        f"deployments were set up for {clock.window_ops}")
    if speed is None:
        wall_s, setup_s, run_s = ended - started, clock.setup_s, clock.run_s
    else:
        wall_s = speed.scaled(started, ended)
        setup_s = sum(speed.scaled(a, b) for a, b in clock.setups)
        run_s = sum(speed.scaled(a, b) for a, b in clock.runs)
    return Iteration(
        wall_s=wall_s, setup_s=setup_s, run_s=run_s,
        post_s=ended - clock.last_run_end, events=clock.events,
        digest=outcome.digest, ops=outcome.ops,
        failed_ops=outcome.failed_ops, model=outcome.model,
        problems=problems, host_wall_s=ended - started)


def _attempt(lines: list[str], label: str, workload, params, seed,
             tracer=None, sampled: bool = False):
    """``measure`` at the benchmark's boundary: a crash is a failed run."""
    try:
        return measure(workload, params, seed, tracer, sampled)
    except Exception:
        traceback.print_exc()
        lines.append(f"{label}: CRASHED (traceback on stderr)")
        return None


def _digest_problems(iterations: list[Iteration], seed: int,
                     recorded: dict) -> list[str]:
    problems = []
    digests = {it.digest for it in iterations}
    if len(digests) > 1:
        problems.append(f"repetitions at seed {seed} produced "
                        f"{len(digests)} different digests")
    expected = recorded.get(str(seed))
    if expected is not None and iterations[0].digest != expected:
        problems.append(f"digest {iterations[0].digest[:16]}... != recorded "
                        f"{expected[:16]}... for seed {seed}")
    return problems


def _digest_verdict(seed: int, recorded: dict) -> str:
    if str(seed) in recorded:
        return f"checked against the digest recorded for seed {seed}"
    return f"no digest recorded for seed {seed}: repeatability checked"


def golden_check(workload, lines: list[str], digests: dict) -> bool:
    """The tiny variant at the canonical seed must match its digest."""
    from perfbench.workloads import CANONICAL_SEED

    it = _attempt(lines, "golden", workload, workload.tiny, CANONICAL_SEED)
    if it is None:
        return False
    expected = digests.get(workload.name, {}).get("tiny")
    problems = list(it.problems)
    if it.digest != expected:
        problems.append(f"the recorded tiny digest is {expected}")
    verdict = "PASS" if not problems else "FAIL: " + "; ".join(problems)
    lines.append(f"golden tiny@{CANONICAL_SEED}: {it.digest[:16]}... "
                 f"{verdict}")
    return not problems


def run_bench(workload, params: dict, seed: int, seconds: float,
              recorded: dict) -> Report:
    """Repeat the workload within ``seconds``; report end-to-end medians."""
    lines: list[str] = []
    iterations: list[Iteration] = []
    crashed = 0
    started = time.perf_counter()
    while True:
        it = _attempt(lines, f"repetition {len(iterations) + 1}", workload,
                      params, seed, sampled=True)
        if it is None:
            crashed = 1
            break
        iterations.append(it)
        lines.append(f"repetition {len(iterations)}: wall {it.wall_s:.3f} "
                     f"setup {it.setup_s:.3f} run {it.run_s:.3f} reference s"
                     f" (host wall {it.host_wall_s:.3f} s) "
                     f"digest {it.digest[:16]}...")
        # Run only whole repetitions that fit in ``seconds``, judged by
        # the last one, so a run's length stays near ``seconds``.
        if (it.problems or time.perf_counter() - started + it.host_wall_s
                > seconds):
            break
    if iterations:
        last = iterations[-1]
        last.problems += _digest_problems(iterations, seed, recorded)
        for problem in last.problems:
            lines.append(f"check failed: {problem}")
        lines.append(f"digest {last.digest} "
                     f"({_digest_verdict(seed, recorded)})")
        lines.append(f"model: {last.model}")
    failed = crashed + sum(1 for it in iterations if it.problems)
    correct = failed == 0
    # A crashed or wrong run counts as every operation failed.
    ok_rate = 0.0
    if correct and last.ops:
        ok_rate = 1.0 - last.failed_ops / last.ops
    lines.append(f"error_rate {1.0 - ok_rate:.6f} (failed simulated "
                 "operations / attempted)")
    metrics = {
        "wall_s": _median(it.wall_s for it in iterations),
        "setup_s": _median(it.setup_s for it in iterations),
        "run_s": _median(it.run_s for it in iterations),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": ok_rate,
    }
    return Report(correct, len(iterations) + crashed, failed, metrics, lines,
                  iterations[-1].digest if iterations else "")


def run_traced(workload, params: dict, seed: int, recorded: dict) -> Report:
    """One bare and one traced execution; report per-layer metrics."""
    from perfbench.probes import LayerTracer

    lines: list[str] = []
    base = _attempt(lines, "bare", workload, params, seed)
    tracer = LayerTracer(ROOT / "src")
    traced = (_attempt(lines, "traced", workload, params, seed, tracer)
              if base is not None else None)
    if traced is None:
        return Report(False, 1 if base is None else 2, 1, {}, lines)
    problems = base.problems + traced.problems
    problems += _digest_problems([base], seed, recorded)
    if traced.digest != base.digest:
        problems.append(f"tracing changed the output: {traced.digest[:16]}"
                        f"... != bare {base.digest[:16]}...")
    for problem in problems:
        lines.append(f"check failed: {problem}")
    same = "identical" if traced.digest == base.digest else "DIFFERS"
    lines.append(f"digest {base.digest} ({_digest_verdict(seed, recorded)};"
                 f" traced run {same})")
    lines.append(f"model: {base.model}")
    split = setup_split(tracer, traced)
    lines.append("set-up split: " + json.dumps(
        {name: round(share, 4) for name, share in split.items()}))
    metrics = layer_metrics(tracer, base, traced, split)
    return Report(not problems, 2, 1 if problems else 0, metrics, lines,
                  base.digest)


def setup_split(tracer, traced: Iteration) -> dict:
    """Shares of the traced set-up time, by layer (self times)."""
    from perfbench.probes import ENGINES, LSM_BACKGROUND

    storage = [f"storage.{engine}.{op}" for engine in ENGINES
               for op in ("get", "put", "scan")]
    parts = {
        "generator": tracer.span_s("generator", "setup"),
        "stores.load": tracer.span_s("stores.load", "setup"),
        "stores.warm": tracer.span_s("stores.warm", "setup"),
        "storage": sum(tracer.span_s(span, "setup")
                       for span in [*storage, *LSM_BACKGROUND.values()]),
    }
    parts["other"] = traced.setup_s - sum(parts.values())
    return {name: seconds / traced.setup_s for name, seconds in parts.items()}


def layer_metrics(tracer, base: Iteration, traced: Iteration,
                  split: dict) -> dict:
    """The per-layer metrics of one traced execution.

    Counts and kernel events are exact and equal between the bare and the
    traced execution; rates use the bare execution's host times.
    """
    from perfbench.probes import ENGINES

    ops = tracer.client_ops
    generated = tracer.calls("generator")
    # A read, scan or delete draws a whole record only to take its key.
    key_only = ops["read"] + ops["scan"] + ops["delete"]
    lsm = tracer.instances["lsm"]
    lsm_gets = tracer.calls("storage.lsm.get")
    metrics = {
        "generator.records": generated,
        "generator.s": tracer.span_s("generator"),
        "generator.setup_share": split["generator"],
        "generator.useful_ratio": ((generated - key_only) / generated
                                   if generated else 0.0),
        "stores.load_s": tracer.span_s("stores.load"),
        "stores.warm_s": tracer.span_s("stores.warm"),
        "stores.hdfs_reads": tracer.hdfs_reads,
        "stores.hdfs_reads_per_read": (tracer.hdfs_reads / ops["read"]
                                       if ops["read"] else 0.0),
    }
    for engine in ENGINES:
        for op in ("get", "put", "scan"):
            span = f"storage.{engine}.{op}"
            metrics[f"{span}.calls"] = tracer.calls(span)
            metrics[f"{span}.s"] = tracer.span_s(span)
    metrics.update({
        "storage.lsm.flush.s": tracer.span_s("storage.lsm.flush"),
        "storage.lsm.compact.s": tracer.span_s("storage.lsm.compact"),
        "storage.lsm.blocks_per_get": (
            sum(e.sstables_probed for e in lsm) / lsm_gets
            if lsm_gets else 0.0),
        "storage.lsm.flushes": sum(e.flushes for e in lsm),
        "storage.lsm.compactions": sum(e.compaction.compactions_run
                                       for e in lsm),
        "kernel.events": base.events,
        "kernel.events_per_op": base.events / base.ops,
        "kernel.events_per_s": base.events / base.run_s,
        "kernel.micro_events_per_s": _kernel_micro_events_per_s(),
        **tracer.sim_counters(),
        "orchestrator.plan_s": tracer.total_s("orchestrator.plan"),
        "orchestrator.execute_s": tracer.total_s("orchestrator.execute"),
        "orchestrator.store_put_s": tracer.total_s("orchestrator.store_put"),
        "analysis.post_s": base.post_s,
        "overload.shed": sum(store.total_shed()
                             for store in tracer.instances["store"]),
        "faults.actions": sum(len(chaos.log)
                              for chaos in tracer.instances["chaos"]),
    })
    for package, seconds in tracer.self_time_by_package().items():
        metrics[f"self_s.{package}"] = seconds
    metrics["trace.overhead_ratio"] = traced.wall_s / base.wall_s
    return metrics


def _kernel_micro_events_per_s() -> float:
    """Median events/s of the store-free kernel microbenchmark."""
    from benchmarks.bench_kernel import run_kernel_workload

    return _median(run_kernel_workload()["events_per_s"]
                   for __ in range(MICRO_RUNS))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _print_table(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else f"{value}"
        print(f"  {name:<{width}}  {shown:>14} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    digests = json.loads(DIGESTS_PATH.read_text())["workloads"]
    recorded = digests.get(workload.name, {}).get("full", {})

    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace}: {why[workload.name]}")
    print("params: " + json.dumps(workload.full, sort_keys=True))
    lines: list[str] = []
    golden_ok = golden_check(workload, lines, digests)
    if args.trace:
        report = run_traced(workload, workload.full, args.seed, recorded)
    else:
        report = run_bench(workload, workload.full, args.seed, args.seconds,
                           recorded)
    report.attempted += 1
    if not golden_ok:
        report.correct = False
        report.failed += 1
        if "ok_rate" in report.metrics:
            report.metrics["ok_rate"] = 0.0
    for line in lines + report.lines:
        print(line)
    if report.correct and set(report.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(report.metrics) ^ set(units))} do not "
            f"match the {section} list in BENCHMARK.json")
    if report.metrics:
        print(f"{section} metrics:")
        _print_table(report.metrics, units)
    print(f"verdict: {'PASS' if report.correct else 'FAIL'}")
    print(report.to_json(units), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
