"""Hypothesis properties of the model and the frontier search.

Three invariants the pruning step rests on:

* modeled capacity is monotone non-decreasing in the node count — the
  justification for stopping at the first feasible node count;
* the frontier's analytical pick is never dominated: no candidate the
  exhaustive (unpruned) search finds feasible is cheaper;
* pruning never discards the configuration the exhaustive search would
  pick — the frontier always contains it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.hardware import HARDWARE_PROFILES, HardwareProfile
from repro.plan.model import modeled_capacity
from repro.plan.search import analytical_frontier, exhaustive_pick
from repro.plan.spec import LoadSpec
from repro.sim.cluster import ClusterSpec, NodeSpec
from repro.sim.disk import DiskSpec
from repro.stores.registry import STORE_NAMES
from repro.ycsb.workload import WORKLOADS

#: Node ceiling for the property searches (keeps the exhaustive oracle
#: cheap while still crossing every feasibility boundary).
MAX_NODES = 8

disk_strategy = st.builds(
    DiskSpec,
    seq_bandwidth_bytes_per_s=st.floats(min_value=10e6, max_value=5e9),
    seek_time_s=st.floats(min_value=0.0, max_value=0.01),
    rotational_latency_s=st.floats(min_value=0.0, max_value=0.01),
    capacity_bytes=st.integers(min_value=10**9, max_value=10**13),
    queue_depth=st.integers(min_value=1, max_value=64),
)

node_strategy = st.builds(
    NodeSpec,
    cores=st.integers(min_value=1, max_value=32),
    core_speed=st.floats(min_value=0.5, max_value=3.0),
    ram_bytes=st.integers(min_value=1 << 20, max_value=256 * 2**30),
    disk=disk_strategy,
    cache_fraction=st.floats(min_value=0.05, max_value=1.0),
)

profile_strategy = st.builds(
    HardwareProfile,
    name=st.just("generated"),
    description=st.just("hypothesis-generated node"),
    hourly_cost=st.floats(min_value=0.1, max_value=10.0),
    spec=st.builds(
        ClusterSpec,
        name=st.just("plan:generated"),
        node=node_strategy,
        max_nodes=st.just(MAX_NODES),
        connections_per_node=st.integers(min_value=1, max_value=256),
    ),
)

registered_profile = st.sampled_from(
    sorted(HARDWARE_PROFILES.values(), key=lambda p: p.name))

any_profile = st.one_of(registered_profile, profile_strategy)

workload_strategy = st.sampled_from(
    sorted(WORKLOADS.values(), key=lambda w: w.name))

store_strategy = st.sampled_from(STORE_NAMES)

spec_strategy = st.builds(
    LoadSpec,
    users=st.integers(min_value=1, max_value=3_000_000),
    metrics_per_agent=st.integers(min_value=100, max_value=20_000),
    flush_interval_s=st.floats(min_value=1.0, max_value=60.0),
    workload=workload_strategy,
)


@settings(max_examples=80, deadline=None)
@given(store=store_strategy, profile=any_profile,
       workload=workload_strategy,
       records=st.integers(min_value=1_000, max_value=200_000))
def test_modeled_capacity_monotone_in_node_count(store, profile, workload,
                                                 records):
    capacities = [
        modeled_capacity(store, profile, n, workload, records).ops_per_s
        for n in range(1, MAX_NODES + 1)
    ]
    for smaller, larger in zip(capacities, capacities[1:]):
        assert larger >= smaller * (1 - 1e-12), (
            f"capacity shrank when adding a node: {capacities}")


@settings(max_examples=40, deadline=None)
@given(spec=spec_strategy,
       stores=st.sets(store_strategy, min_size=1, max_size=3),
       profiles=st.lists(any_profile, min_size=1, max_size=3,
                         unique_by=lambda p: (p.name, p.hourly_cost,
                                              p.spec.node.cores)))
def test_frontier_never_discards_the_exhaustive_pick(spec, stores,
                                                     profiles):
    stores = tuple(sorted(stores))
    profiles = tuple(profiles)
    frontier = analytical_frontier(
        spec, stores=stores, profiles=profiles, max_nodes=MAX_NODES)
    oracle = exhaustive_pick(
        spec, stores=stores, profiles=profiles, max_nodes=MAX_NODES)
    if oracle is None:
        assert not frontier.entries
        return
    assert frontier.entries, "oracle found a pick the frontier lost"
    analytical = frontier.entries[0].candidate
    # Pruning may not discard what exhaustive search would pick: the
    # cheapest frontier entry IS the exhaustive winner.
    assert (analytical.store, analytical.hardware.name,
            analytical.n_nodes) == (oracle.store, oracle.hardware.name,
                                    oracle.n_nodes)
    assert analytical.cost == oracle.cost


@settings(max_examples=40, deadline=None)
@given(spec=spec_strategy,
       stores=st.sets(store_strategy, min_size=1, max_size=3),
       profiles=st.lists(any_profile, min_size=1, max_size=2,
                         unique_by=lambda p: (p.name, p.hourly_cost,
                                              p.spec.node.cores)))
def test_frontier_entries_are_never_dominated(spec, stores, profiles):
    stores = tuple(sorted(stores))
    profiles = tuple(profiles)
    frontier = analytical_frontier(
        spec, stores=stores, profiles=profiles, max_nodes=MAX_NODES)
    required = spec.required_ops_per_s
    for entry in frontier.entries:
        candidate = entry.candidate
        assert entry.modeled.ops_per_s >= required
        # Minimality: one node fewer of the same (store, hardware) pair
        # must NOT satisfy the demand, or the entry is dominated.
        if candidate.n_nodes > 1:
            smaller = modeled_capacity(
                candidate.store, candidate.hardware,
                candidate.n_nodes - 1, spec.workload,
                records_per_node=20_000)
            assert smaller.ops_per_s < required
    # Cost order is deterministic and cheapest-first.
    costs = [e.candidate.cost for e in frontier.entries]
    assert costs == sorted(costs)
