"""Kernel fast-path byte-identity: exports match seed-kernel goldens.

The kernel rewrite (calendar-queue scheduler, freelist events, fused
resource fast paths) must not change a single observable byte of any
run.  These tests pin that bar: three provenance-stamped exports — a
``bench_fig03``-class figure point with chaos + deadlines, a traced +
metered run (guarding trace attribution and deadline propagation on the
fused paths), and an ``apmbench control`` scenario — are digested and
compared against goldens captured with the *seed* (pre-fast-path)
kernel.  Any divergence in event ordering, latency attribution, or
control decisions shows up as a digest mismatch.

A per-store matrix extends the bar to all six stores and all three
drivers: for each store a small metered closed-loop point, a short
open-loop overload point with a crash and the overload protections on,
and one chaos-audit scenario.  A refactor of the harness layer must
leave every one of them byte-identical.

Regenerate after an *intentional* semantic change with::

    REPRO_UPDATE_KERNEL_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_kernel_byte_identity.py

The provenance ``package_version`` field is normalised before hashing so
version bumps alone never invalidate the goldens.
"""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.provenance import stamp
from repro.audit.harness import AuditScenario, run_audit_scenario
from repro.analysis.trace_export import chrome_trace
from repro.control import ControlPolicy, ControlScenario, run_control_scenario
from repro.faults.schedule import FaultSchedule
from repro.obs import ObsPolicy, ObsScenario, default_slos, \
    run_obs_scenario
from repro.orchestrator.serialize import histogram_to_dict
from repro.overload import OverloadPolicy, parse_shape, run_overload_point
from repro.sim.cluster import CLUSTER_M
from repro.stores.base import ServiceProfile
from repro.stores.registry import STORE_CLASSES
from repro.ycsb.runner import BenchmarkConfig, run_benchmark
from repro.ycsb.workload import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "kernel_byte_identity_golden.json"

#: Small cluster spec shared by the figure-class points.
SMALL_M = replace(CLUSTER_M, connections_per_node=4)


def _normalise(obj):
    """Strip the package version out of provenance stamps, recursively."""
    if isinstance(obj, dict):
        return {
            key: ("<version>" if key == "package_version" else
                  _normalise(value))
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_normalise(value) for value in obj]
    return obj


def _digest(payload: dict) -> str:
    canonical = json.dumps(_normalise(payload), indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _stats_payload(result) -> dict:
    stats = result.stats
    return {
        "operations": stats.operations,
        "errors": stats.errors,
        "started_at": stats.started_at,
        "finished_at": stats.finished_at,
        "histograms": {
            op.value: histogram_to_dict(h)
            for op, h in sorted(stats.histograms.items(),
                                key=lambda kv: kv[0].value)
            if h.count or h.errors
        },
        "connections": result.connections,
        "store_errors": result.store_errors,
        "disk_bytes_per_server": list(result.disk_bytes_per_server),
    }


def export_figure_point() -> dict:
    """A chaos + deadline figure-class point (replication, failover)."""
    schedule = FaultSchedule().crash("server-0", at=0.4, restart_after=0.4)
    config = BenchmarkConfig(
        store="cassandra", workload=WORKLOADS["R"], n_nodes=3,
        cluster_spec=SMALL_M, records_per_node=300, seed=11,
        fault_schedule=schedule, duration_s=1.2, warmup_ops=0,
        overload=OverloadPolicy(max_queue=64, deadline_s=0.2),
    )
    result = run_benchmark(config.store, config.workload, config.n_nodes,
                           config=config)
    payload = _stats_payload(result)
    payload["error_kinds"] = {
        op.value: dict(sorted(h.error_kinds.items()))
        for op, h in sorted(result.stats.histograms.items(),
                            key=lambda kv: kv[0].value)
        if h.error_kinds
    }
    payload["fault_log"] = [[t, desc] for t, desc in result.fault_log]
    payload["timeline"] = (result.stats.timeline.to_text()
                           if result.stats.timeline is not None else None)
    return stamp(payload, config)


def export_traced_point() -> dict:
    """A traced + metered point: pins exact latency attribution."""
    config = BenchmarkConfig(
        store="redis", workload=WORKLOADS["RW"], n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=300, seed=7,
        duration_s=1.0, warmup_ops=0,
        trace_sample_every=5, metrics_interval_s=0.25,
    )
    result = run_benchmark(config.store, config.workload, config.n_nodes,
                           config=config)
    breakdown = result.breakdown
    payload = _stats_payload(result)
    payload["traces"] = chrome_trace(result.traces[:50])
    payload["breakdown"] = (
        {"seconds": dict(sorted(breakdown.seconds.items())),
         "ops": breakdown.ops,
         "total_latency": breakdown.total_latency}
        if breakdown is not None else None)
    return stamp(payload, config)


def export_control_scenario() -> dict:
    """An ``apmbench control``-class scenario: both arms, full export."""
    profile = ServiceProfile(read_cpu=2e-3, write_cpu=2e-3,
                             client_cpu=1e-5, dispatch_cpu=0.0)

    def config(n_nodes: int) -> BenchmarkConfig:
        return BenchmarkConfig(
            store="redis", workload=WORKLOADS["R"], n_nodes=n_nodes,
            cluster_spec=CLUSTER_M, records_per_node=500, seed=42,
            overload=OverloadPolicy(max_queue=32, deadline_s=0.25),
            store_kwargs={"profile": profile},
        )

    policy = ControlPolicy(
        tick_s=0.25, scale_out_pressure=0.8, scale_in_pressure=0.55,
        sustain_ticks=2, cooldown_s=0.75, min_nodes=1, max_nodes=3,
        replace_grace_s=0.5, provision_delay_s=0.5,
    )
    auto = ControlScenario(
        config=config(1), offered_rate=900.0, duration_s=10.0,
        shape=parse_shape("diurnal:period=10,trough=0.25"), policy=policy,
        slo_s=0.25, timeline_s=0.5, kill_at_s=7.0,
    )
    static = ControlScenario(
        config=config(3), offered_rate=900.0, duration_s=10.0,
        shape=parse_shape("diurnal:period=10,trough=0.25"), policy=None,
        slo_s=0.25, timeline_s=0.5,
    )
    return {
        "autoscaled": run_control_scenario(auto).to_dict(),
        "static": run_control_scenario(static).to_dict(),
    }


def export_obs_scenario() -> dict:
    """An ``apmbench obs``-class incident: warm-up, flash crowd, crash.

    The warm-up spans two empty timeline windows, so the export also
    pins which windows the open-loop timeline lists.  The SLO is tighter
    than the deadline, so some successes miss it; the slowed store sheds
    and expires work during the flash crowd.
    """
    profile = ServiceProfile(read_cpu=2e-3, write_cpu=2e-3,
                             client_cpu=1e-5, dispatch_cpu=0.0)
    schedule = FaultSchedule().crash("server-0", at=0.9, restart_after=0.3)
    config = BenchmarkConfig(
        store="redis", workload=WORKLOADS["R"], n_nodes=1,
        cluster_spec=SMALL_M, records_per_node=500, seed=13,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.05),
        fault_schedule=schedule, store_kwargs={"profile": profile},
    )
    policy = ObsPolicy(slos=default_slos(latency_slo_s=0.02),
                       window_s=0.25, tick_s=0.25)
    scenario = ObsScenario(
        config=config, policy=policy, offered_rate=400.0, duration_s=1.0,
        warmup_s=0.6,
        shape=parse_shape("flash:at=1.0,duration=0.3,multiplier=3"),
        timeline_s=0.25, slo_s=0.02,
    )
    return run_obs_scenario(scenario).to_dict()


def _store_workload(store: str):
    """A scan mix where the store has scans, else the scan-free one."""
    return WORKLOADS["RSW" if STORE_CLASSES[store].supports_scans else "RW"]


def export_closed_point(store: str) -> dict:
    """A small metered closed-loop point with a crash and protections."""
    schedule = FaultSchedule().crash("server-1", at=0.01,
                                     restart_after=0.01)
    config = BenchmarkConfig(
        store=store, workload=_store_workload(store), n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=1000, measured_ops=400,
        warmup_ops=100, seed=3, metrics_interval_s=0.01,
        fault_schedule=schedule,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.05),
    )
    result = run_benchmark(config.store, config.workload, config.n_nodes,
                           config=config)
    payload = _stats_payload(result)
    payload["metrics"] = result.metrics.to_payload()
    payload["fault_log"] = [[t, desc] for t, desc in result.fault_log]
    return stamp(payload, config)


def export_open_point(store: str) -> dict:
    """A short open-loop overload point with a crash mid-run."""
    schedule = FaultSchedule().crash("server-1", at=0.2, restart_after=0.2)
    config = BenchmarkConfig(
        store=store, workload=_store_workload(store), n_nodes=2,
        cluster_spec=SMALL_M, records_per_node=500, seed=5,
        fault_schedule=schedule,
        overload=OverloadPolicy(max_queue=16, deadline_s=0.05),
    )
    point = run_overload_point(config, 1500.0, duration_s=0.6,
                               warmup_s=0.1)
    return stamp(point.to_dict(), config)


def export_audit_scenario(store: str) -> dict:
    """One chaos-audit run: crash, heal, verify, four checkers."""
    return run_audit_scenario(AuditScenario(store=store,
                                            fault="crash")).to_dict()


EXPORTS = {
    "figure_point": export_figure_point,
    "traced_point": export_traced_point,
    "control_scenario": export_control_scenario,
    "obs_scenario": export_obs_scenario,
}
for _store in sorted(STORE_CLASSES):
    for _kind, _export in (("closed", export_closed_point),
                           ("open", export_open_point),
                           ("audit", export_audit_scenario)):
        EXPORTS[f"{_kind}_{_store}"] = (
            lambda export=_export, store=_store: export(store))


def _load_goldens() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_seed_kernel_golden(name):
    digest = _digest(EXPORTS[name]())
    goldens = _load_goldens()
    if os.environ.get("REPRO_UPDATE_KERNEL_GOLDENS") == "1":
        goldens[name] = digest
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2,
                                          sort_keys=True) + "\n")
        pytest.skip(f"updated golden for {name}")
    assert name in goldens, (
        f"no golden for {name}; run with REPRO_UPDATE_KERNEL_GOLDENS=1")
    assert digest == goldens[name], (
        f"{name} export diverged from the seed-kernel golden — the "
        "kernel fast path changed observable behaviour (event ordering, "
        "latency attribution, or control decisions)")
