"""Planner economics: what the analytical prune saves, what a replan costs.

The planner's value proposition is two-fold and both halves are
measurable:

* the **analytical frontier** discards most of the (store, hardware,
  node-count) space before any simulation runs — this bench logs the
  candidate counts and the estimated simulation cost of the pruned vs
  the unpruned space;
* **re-planning is nearly free** — the validation simulations route
  through the content-addressed result store, so a second plan against
  the same load spec is all cache hits.  The warm run must be at least
  5x faster than the cold one (in practice it is hundreds of times
  faster) and produce a byte-identical export.
"""

import json
import time

from repro.orchestrator import ResultStore
from repro.orchestrator.plan import estimate_cost_units
from repro.plan import (LoadSpec, ValidationSettings, analytical_frontier,
                        hardware_profile, run_plan, validation_config)
from repro.ycsb.workload import WORKLOADS

SPEC = LoadSpec(users=200_000, workload=WORKLOADS["W"])
SETTINGS = ValidationSettings(records_per_node=2_000, measured_ops=1_000,
                              warmup_ops=100)
STORES = ("redis", "voltdb", "mysql")
PROFILES = tuple(hardware_profile(name) for name in ("paper-m", "paper-d"))


def run_once(store):
    started = time.perf_counter()
    report = run_plan(SPEC, stores=STORES, profiles=PROFILES,
                      settings=SETTINGS, store=store, jobs=2)
    return report, time.perf_counter() - started


def test_pruning_and_replan_cost(tmp_path):
    frontier = analytical_frontier(
        SPEC, stores=STORES, profiles=PROFILES,
        records_per_node=SETTINGS.records_per_node)
    pruned_units = sum(
        estimate_cost_units(validation_config(e, SPEC, SETTINGS))
        for e in frontier.entries)
    # The unpruned space: every node count up to each profile's ceiling
    # for every (store, hardware) pair.
    unpruned = sum(p.spec.max_nodes for p in PROFILES) * len(STORES)
    print(f"\nplanner pruning: {frontier.examined} candidates examined, "
          f"{len(frontier.entries)} simulated "
          f"(of {unpruned} in the unpruned space), "
          f"est {pruned_units:,.0f} cost units")
    assert len(frontier.entries) < frontier.examined

    store = ResultStore(tmp_path / "plan-store")
    cold_report, cold_s = run_once(store)
    warm_report, warm_s = run_once(store)
    ratio = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"planner replan: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
          f"-> {ratio:.1f}x")

    assert cold_report.recommended is not None
    assert not any(o.cached for o in cold_report.outcomes)
    assert all(o.cached for o in warm_report.outcomes)
    first = json.dumps(cold_report.to_payload(), sort_keys=True)
    second = json.dumps(warm_report.to_payload(), sort_keys=True)
    assert first == second
    assert ratio >= 5.0, (
        f"warm replan should be >=5x faster than cold, measured "
        f"{ratio:.1f}x (cold {cold_s:.2f}s, warm {warm_s:.2f}s)")
