"""The benchmark's three workloads, each at full and tiny size.

Every workload runs single-process, one deployment at a time, as a closed
loop with one client (the benchmark itself): the next call into ``repro``
starts only after the previous one returns.  The simulated clients inside
a deployment are a separate matter, described per workload.

A workload's ``execute(params, seed, workdir)`` returns an
:class:`Outcome`: the digest of its validated output, the simulated
operations it attempted and failed, a line of model outputs (simulated
throughput and latency, printed but never gated as performance), and any
invariant it broke.  The seed is the only input that varies between runs;
everything else the program receives is generated from it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["CANONICAL_SEED", "Outcome", "WORKLOADS", "Workload"]

#: The seed the tiny golden digests are recorded at.
CANONICAL_SEED = 42


@dataclass
class Outcome:
    """The validated output of one workload execution."""

    digest: str
    #: Simulated client operations attempted in the measured window(s).
    ops: int
    #: Of those, operations that failed (modelled errors included).
    failed_ops: int
    #: Model outputs for humans: throughput, latency, shedding.
    model: str
    #: Broken invariants; empty when the output is correct.
    problems: list[str] = field(default_factory=list)
    #: Whether the closed-loop windows must account for ``ops``.
    closed_loop: bool = True


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    full: dict
    tiny: dict
    execute: Callable[[dict, int, Path], Outcome]


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cluster(name: str):
    from repro.sim.cluster import CLUSTER_D, CLUSTER_M

    return {"M": CLUSTER_M, "D": CLUSTER_D}[name]


# -- single benchmark points -------------------------------------------------

def run_point(params: dict, seed: int, workdir: Path) -> Outcome:
    """One ``run_benchmark`` point; hashes ``result_to_dict``.

    128 simulated client connections per server node, closed loop at
    maximum throughput, fault-free: every operation must succeed.
    """
    from repro.orchestrator.serialize import result_to_dict
    from repro.ycsb.runner import run_benchmark
    from repro.ycsb.workload import WORKLOADS as MIXES

    result = run_benchmark(
        params["store"], MIXES[params["workload"]], params["nodes"],
        cluster_spec=_cluster(params["cluster"]),
        records_per_node=params["records_per_node"],
        measured_ops=params["measured_ops"], seed=seed)
    digest = _sha256(result_to_dict(result))
    stats = result.stats
    problems = []
    if stats.errors:
        problems.append(f"{stats.errors} of {stats.operations} operations "
                        "failed on a fault-free workload")
    p99 = ", ".join(
        f"{op.value} {histogram.percentile(99) * 1000:.3f} ms"
        for op, histogram in sorted(stats.histograms.items(),
                                    key=lambda kv: kv[0].value)
        if histogram.count)
    model = (f"throughput {result.throughput_ops:.1f} ops/s; p99 {p99}")
    return Outcome(digest, stats.operations, stats.errors, model, problems)


# -- the figure grid ---------------------------------------------------------

def run_grid(params: dict, seed: int, workdir: Path) -> Outcome:
    """``reproduce`` over a figure set with a fresh result store.

    The orchestrator runs every point in this process (``jobs=1``); each
    point is a fault-free closed-loop deployment like :func:`run_point`.
    Write mixes fill Redis's memory and MySQL's shards, which refuse
    inserts by design (the paper reports it), so only fault, overload and
    deadline errors break the check; the refusals count in ``ok_rate``.
    The digest covers the exported figure files, with the provenance
    stamp (it carries the package version) removed from the JSON ones.
    """
    import repro.orchestrator.pool as pool
    from repro.analysis.figures import BenchProfile
    from repro.orchestrator.reproduce import reproduce

    profile = BenchProfile(
        name="perfbench-grid", scales=(1,),
        records_per_node=params["records_per_node"],
        measured_ops=params["measured_ops"],
        warmup_ops=params["warmup_ops"], seed=seed)
    tmp = Path(tempfile.mkdtemp(prefix="grid-", dir=workdir))
    points = []
    run_config = pool.run_config

    def recorded(config):
        result = run_config(config)
        stats = result.stats
        points.append((stats.operations, stats.errors,
                       stats.errors - stats.error_kind_total("store"),
                       result.throughput_ops))
        return result

    pool.run_config = recorded
    try:
        report = reproduce(params["figures"], profile=profile,
                           store=tmp / "store", out_dir=tmp / "figures",
                           jobs=1)
        files = {}
        for path in sorted(report.written):
            if path.suffix == ".json":
                document = json.loads(path.read_text())
                document.pop("provenance", None)
                files[path.name] = document
            else:
                files[path.name] = path.read_text()
    finally:
        pool.run_config = run_config
        shutil.rmtree(tmp, ignore_errors=True)
    digest = _sha256(files)
    ops = sum(p[0] for p in points)
    failed = sum(p[1] for p in points)
    unexpected = sum(p[2] for p in points)
    problems = []
    if report.points_executed != len(points) or report.points_cached:
        problems.append(f"{report.points_executed} points executed and "
                        f"{report.points_cached} cached from a fresh store")
    if unexpected:
        problems.append(f"{unexpected} of {ops} operations failed with a "
                        "fault, overload or deadline error on a fault-free "
                        "grid")
    mean = sum(p[3] for p in points) / len(points) if points else 0.0
    model = (f"{len(points)} points, {len(files)} files; mean point "
             f"throughput {mean:.1f} ops/s; {failed} store refusals")
    return Outcome(digest, ops, failed, model, problems)


# -- the chaos incident ------------------------------------------------------

def run_incident(params: dict, seed: int, workdir: Path) -> Outcome:
    """``run_obs_scenario``: open-loop arrivals, a crash, overload control.

    Arrivals are open loop at a fixed rate with a flash crowd on top; one
    server crashes and restarts mid-run.  Failures are part of the model
    here, so the checks are that every arrival has exactly one outcome and
    that the failure share and shedding are neither zero nor total.  The
    digest covers the ``ObsReport`` payload minus its provenance stamp,
    plus the rendered incident report.
    """
    from repro.faults.schedule import FaultSchedule
    from repro.obs import ObsPolicy, ObsScenario, default_slos, \
        run_obs_scenario
    from repro.overload import OverloadPolicy, parse_shape
    from repro.ycsb.runner import BenchmarkConfig
    from repro.ycsb.workload import WORKLOADS as MIXES

    schedule = FaultSchedule()
    schedule.crash(params["crash"], at=params["crash_at"],
                   restart_after=params["restart_after"])
    config = BenchmarkConfig(
        store=params["store"], workload=MIXES[params["workload"]],
        n_nodes=params["nodes"], cluster_spec=_cluster(params["cluster"]),
        records_per_node=params["records_per_node"], seed=seed,
        overload=OverloadPolicy(max_queue=params["max_queue"],
                                deadline_s=params["deadline_s"]),
        fault_schedule=schedule)
    policy = ObsPolicy(slos=default_slos(latency_slo_s=params["slo_s"]),
                       window_s=params["tick_s"], tick_s=params["tick_s"])
    scenario = ObsScenario(
        config=config, policy=policy, offered_rate=params["rate"],
        duration_s=params["duration_s"], shape=parse_shape(params["shape"]),
        slo_s=params["slo_s"])
    report = run_obs_scenario(scenario)
    payload = report.to_dict()
    payload.pop("provenance")
    payload["rendered"] = report.render()
    digest = _sha256(payload)
    point = report.point
    arrivals = point["arrivals"]
    failed = sum(point["error_kinds"].values())
    problems = []
    if point["succeeded"] + failed != arrivals:
        problems.append(f"{point['succeeded']} succeeded + {failed} failed "
                        f"!= {arrivals} arrivals")
    if not 0 < failed < arrivals:
        problems.append(f"failure share {failed}/{arrivals} is not strictly "
                        "between 0 and 1")
    if params["expect_shed"] and point["shed"] <= 0:
        problems.append("the flash crowd shed no requests")
    kinds = ", ".join(f"{kind} {n}" for kind, n
                      in sorted(point["error_kinds"].items()) if n)
    model = (f"goodput {point['goodput']:.1f} ops/s; mean latency "
             f"{point['mean_latency_s'] * 1000:.3f} ms; {failed}/{arrivals} "
             f"failed ({kinds}); shed {point['shed']}")
    return Outcome(digest, arrivals, failed, model, problems,
                   closed_loop=False)


_INCIDENT = {
    "store": "voldemort", "workload": "W", "nodes": 2, "cluster": "M",
    "crash": "server-1", "crash_at": 1.0, "restart_after": 1.0,
    "max_queue": 64, "deadline_s": 0.05, "slo_s": 0.05, "tick_s": 0.25,
    "shape": "flash:at=1.5,duration=0.5,multiplier=4",
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ingest_point",
        full={"store": "mysql", "workload": "W", "nodes": 4, "cluster": "D",
              "records_per_node": 10_000, "measured_ops": 6000},
        tiny={"store": "mysql", "workload": "W", "nodes": 4, "cluster": "D",
              "records_per_node": 500, "measured_ops": 6000},
        execute=run_point),
    Workload(
        name="table1_grid",
        full={"figures": "fig3,fig9", "records_per_node": 2000,
              "measured_ops": 1024, "warmup_ops": 300},
        tiny={"figures": "fig9", "records_per_node": 300,
              "measured_ops": 1024, "warmup_ops": 100},
        execute=run_grid),
    Workload(
        name="chaos_incident",
        full={**_INCIDENT, "records_per_node": 20_000, "rate": 6000.0,
              "duration_s": 3.0, "expect_shed": True},
        # Small enough to fit memory, so the flash crowd sheds nothing.
        tiny={**_INCIDENT, "records_per_node": 500, "rate": 2000.0,
              "duration_s": 2.0, "expect_shed": False},
        execute=run_incident),
)}
