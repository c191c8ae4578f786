"""Frontier search over store x hardware x node count.

The search enumerates every candidate configuration, prices it, and
prunes with the analytical model:

* candidates whose modeled capacity falls short of the required rate
  are infeasible — the model is optimistic, so this is safe;
* among feasible candidates of one (store, hardware) pair, only the
  **minimal** node count survives: modeled capacity is monotone
  non-decreasing in node count while cost is strictly increasing, so
  every larger cluster of the same hardware meets the same demand at
  strictly higher cost (it is dominated).

What survives — at most one candidate per (store, hardware) pair — is
the *analytical frontier*: the configurations worth spending simulation
time on.  ``exhaustive_pick`` evaluates every candidate without any
pruning; the property suite asserts the frontier always contains the
exhaustive winner, i.e. pruning never discards a configuration the
full search would have picked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.hardware import HARDWARE_PROFILES, HardwareProfile
from repro.plan.model import ModeledCapacity, modeled_capacity
from repro.plan.spec import LoadSpec
from repro.stores.registry import STORE_NAMES, scan_mismatch
from repro.ycsb.runner import PAPER_RECORDS_PER_NODE

__all__ = ["Candidate", "FrontierEntry", "FrontierResult",
           "analytical_frontier", "exhaustive_pick"]


@dataclass(frozen=True)
class Candidate:
    """One point of the search space."""

    store: str
    hardware: HardwareProfile
    n_nodes: int

    @property
    def cost(self) -> float:
        """Hourly cost of this configuration (node-cost units)."""
        return self.hardware.cost(self.n_nodes)

    def label(self) -> str:
        return f"{self.store}/{self.hardware.name}/n{self.n_nodes}"


@dataclass(frozen=True)
class FrontierEntry:
    """A surviving candidate plus the model's case for it."""

    candidate: Candidate
    modeled: ModeledCapacity
    #: required rate / modeled capacity (< 1 means analytically feasible).
    utilisation: float

    @property
    def cost(self) -> float:
        return self.candidate.cost


@dataclass
class FrontierResult:
    """Everything the analytical pass concluded."""

    #: Surviving candidates, sorted by (cost, nodes, store, hardware) —
    #: a deterministic cheapest-first validation order.
    entries: list[FrontierEntry]
    #: (store, reason) pairs the search excluded outright.
    skipped: list[tuple[str, str]]
    #: (store, hardware) pairs that cannot meet the demand at any
    #: allowed node count, with the best capacity they reached.
    infeasible: list[tuple[str, str, float]]
    #: Candidate configurations examined (pre-pruning).
    examined: int = 0

    def per_store(self) -> dict[str, list[FrontierEntry]]:
        """Frontier entries grouped by store, preserving cost order."""
        grouped: dict[str, list[FrontierEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.candidate.store, []).append(entry)
        return grouped


def _entry_sort_key(entry: FrontierEntry):
    candidate = entry.candidate
    return (candidate.cost, candidate.n_nodes, candidate.store,
            candidate.hardware.name)


def analytical_frontier(spec: LoadSpec,
                        stores: tuple[str, ...] = STORE_NAMES,
                        profiles: tuple[HardwareProfile, ...] | None = None,
                        records_per_node: int = 20_000,
                        paper_records_per_node: int = PAPER_RECORDS_PER_NODE,
                        max_nodes: int | None = None,
                        ) -> FrontierResult:
    """Prune the search space down to the simulation-worthy frontier.

    ``records_per_node`` must match what the validation runs will load:
    the model's cache-miss arithmetic applies the runner's RAM scaling,
    and the two sides have to see the same memory regime.
    """
    if profiles is None:
        profiles = tuple(HARDWARE_PROFILES.values())
    required = spec.required_ops_per_s
    entries: list[FrontierEntry] = []
    skipped: list[tuple[str, str]] = []
    infeasible: list[tuple[str, str, float]] = []
    examined = 0
    for store_name in stores:
        reason = scan_mismatch(store_name, spec.workload)
        if reason is not None:
            skipped.append((store_name, reason))
            continue
        for hardware in profiles:
            ceiling = hardware.spec.max_nodes
            if max_nodes is not None:
                ceiling = min(ceiling, max_nodes)
            best: FrontierEntry | None = None
            peak = 0.0
            for n_nodes in range(1, ceiling + 1):
                examined += 1
                modeled = modeled_capacity(
                    store_name, hardware, n_nodes, spec.workload,
                    records_per_node, paper_records_per_node)
                peak = max(peak, modeled.ops_per_s)
                if modeled.ops_per_s >= required:
                    # Monotonicity: the first feasible node count is the
                    # cheapest of this (store, hardware) pair; larger
                    # clusters are dominated.
                    best = FrontierEntry(
                        candidate=Candidate(store_name, hardware, n_nodes),
                        modeled=modeled,
                        utilisation=required / modeled.ops_per_s,
                    )
                    break
            if best is None:
                infeasible.append((store_name, hardware.name, peak))
            else:
                entries.append(best)
    entries.sort(key=_entry_sort_key)
    return FrontierResult(entries=entries, skipped=skipped,
                          infeasible=infeasible, examined=examined)


def exhaustive_pick(spec: LoadSpec,
                    stores: tuple[str, ...] = STORE_NAMES,
                    profiles: tuple[HardwareProfile, ...] | None = None,
                    records_per_node: int = 20_000,
                    paper_records_per_node: int = PAPER_RECORDS_PER_NODE,
                    max_nodes: int | None = None,
                    ) -> Candidate | None:
    """The cheapest analytically feasible candidate, found the slow way.

    Evaluates *every* (store, hardware, node count) point with no
    pruning — the oracle the property tests hold ``analytical_frontier``
    against.  Ties break exactly like the frontier ordering.
    """
    if profiles is None:
        profiles = tuple(HARDWARE_PROFILES.values())
    required = spec.required_ops_per_s
    best: Candidate | None = None

    def better(a: Candidate, b: Candidate | None) -> bool:
        if b is None:
            return True
        return ((a.cost, a.n_nodes, a.store, a.hardware.name)
                < (b.cost, b.n_nodes, b.store, b.hardware.name))

    for store_name in stores:
        if scan_mismatch(store_name, spec.workload) is not None:
            continue
        for hardware in profiles:
            ceiling = hardware.spec.max_nodes
            if max_nodes is not None:
                ceiling = min(ceiling, max_nodes)
            for n_nodes in range(1, ceiling + 1):
                modeled = modeled_capacity(
                    store_name, hardware, n_nodes, spec.workload,
                    records_per_node, paper_records_per_node)
                if modeled.ops_per_s < required:
                    continue
                candidate = Candidate(store_name, hardware, n_nodes)
                if better(candidate, best):
                    best = candidate
    return best
