"""Boundary validation: bad inputs fail before any simulation starts.

Valid :class:`BenchmarkConfig` values round-trip losslessly through
``to_dict``/``from_dict``; invalid ones — in the config or in the
open-loop drive parameters — raise :class:`ValueError` before a
:class:`~repro.sim.kernel.Simulator` (and so a cluster, a store or a
load phase) is ever built.  A :class:`FaultSchedule` rejects a
non-finite or out-of-range value in the DSL call that carries it.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import FaultSchedule
from repro.overload import OverloadPolicy, run_overload_point
from repro.sim.kernel import Simulator
from repro.ycsb.runner import BenchmarkConfig, run_benchmark
from repro.ycsb.workload import WORKLOADS

NAMES = st.sampled_from(["cassandra", "hbase", "mysql", "redis",
                         "voldemort", "voltdb"])
POSITIVE = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
NAN = float("nan")
INF = float("inf")
NON_FINITE = st.sampled_from([NAN, INF, -INF])


@contextmanager
def no_simulator():
    """Fail loudly (not with ValueError) if a Simulator gets built."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Simulator was built before validation")

    with mock.patch.object(Simulator, "__init__", refuse):
        yield


@st.composite
def valid_configs(draw):
    return BenchmarkConfig(
        store=draw(NAMES),
        workload=WORKLOADS[draw(st.sampled_from(sorted(WORKLOADS)))],
        n_nodes=draw(st.integers(1, 12)),
        records_per_node=draw(st.integers(1, 10**6)),
        measured_ops=draw(st.integers(1, 10**5)),
        warmup_ops=draw(st.integers(0, 10**4)),
        seed=draw(st.integers(-(2**31), 2**31)),
        target_throughput=draw(st.none() | POSITIVE),
        duration_s=draw(st.none() | POSITIVE),
        availability_window_s=draw(POSITIVE),
        overload=draw(st.none() | st.builds(
            OverloadPolicy, max_queue=st.integers(1, 256),
            deadline_s=st.none() | POSITIVE)),
        trace_sample_every=draw(st.none() | st.integers(1, 100)),
        metrics_interval_s=draw(st.none() | POSITIVE),
        sustained_subwindows=draw(st.integers(2, 10)),
        sustained_tolerance=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=60, deadline=None)
@given(valid_configs())
def test_valid_configs_round_trip(config):
    rebuilt = BenchmarkConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.content_key() == config.content_key()


#: One invalid value per field the config guards.
INVALID = st.sampled_from([
    ("seed", "x"), ("seed", 1.5), ("seed", True), ("seed", None),
    ("warmup_ops", -1), ("n_nodes", 0), ("records_per_node", 0),
    ("duration_s", 0.0), ("duration_s", -1.0), ("duration_s", NAN),
    ("duration_s", INF), ("availability_window_s", 0.0),
    ("availability_window_s", NAN), ("trace_sample_every", 0),
    ("metrics_interval_s", -0.5), ("metrics_interval_s", NAN),
    ("target_throughput", -1.0), ("sustained_subwindows", 1),
    ("sustained_tolerance", 1.5),
])


@settings(max_examples=30, deadline=None)
@given(store=NAMES, bad=INVALID)
def test_invalid_config_fails_before_simulation(store, bad):
    field, value = bad
    kwargs = {"n_nodes": 1, "records_per_node": 10, field: value}
    with no_simulator(), pytest.raises(ValueError, match=field):
        run_benchmark(store, WORKLOADS["R"], **kwargs)


@pytest.mark.parametrize("target", [NAN, 0.0])
def test_nan_and_zero_targets_stay_valid(target):
    # NaN is the planner's taint marker for stub-derived configs; 0 means
    # unthrottled.
    config = BenchmarkConfig(store="redis", workload=WORKLOADS["R"],
                             n_nodes=1, target_throughput=target)
    assert config.to_dict()["target_throughput"] is target


@pytest.mark.parametrize("field,value", [
    ("duration_s", 0.0), ("duration_s", -1.0), ("warmup_s", -0.1),
    ("offered_rate", 0.0), ("offered_rate", NAN), ("offered_rate", INF),
    ("duration_s", NAN), ("duration_s", INF), ("warmup_s", NAN),
    ("warmup_s", INF), ("slo_s", 0.0), ("slo_s", -0.25), ("slo_s", NAN),
    ("slo_s", INF),
])
def test_open_loop_rejects_bad_drive_before_load(field, value):
    config = BenchmarkConfig(store="redis", workload=WORKLOADS["R"],
                             n_nodes=1, records_per_node=10)
    with no_simulator(), pytest.raises(ValueError, match=field):
        run_overload_point(config, **{"offered_rate": 100.0, field: value})


def test_scan_rejection_is_one_message_for_both_drivers():
    config = BenchmarkConfig(store="voldemort", workload=WORKLOADS["RS"],
                             n_nodes=1, records_per_node=10)
    message = "voldemort does not support scans .workload RS."
    with no_simulator(), pytest.raises(ValueError, match=message):
        run_benchmark(config.store, config.workload, 1, config=config)
    with no_simulator(), pytest.raises(ValueError, match=message):
        run_overload_point(config, 100.0)


NODE = st.sampled_from(["server-0", "server-1"])
TIME = st.floats(min_value=0.0, max_value=1e3)
OFFSET = st.none() | st.floats(min_value=1e-3, max_value=1e3)

#: Valid keyword arguments for each FaultSchedule DSL method.
DSL_CALLS = {
    "crash": st.fixed_dictionaries(
        {"node": NODE, "at": TIME, "restart_after": OFFSET}),
    "restart": st.fixed_dictionaries({"node": NODE, "at": TIME}),
    "partition": st.fixed_dictionaries(
        {"groups": st.just([["server-0"], ["server-1"]]), "at": TIME,
         "heal_after": OFFSET}),
    "slow_disk": st.fixed_dictionaries(
        {"node": NODE, "at": TIME, "factor": st.floats(1.0, 100.0),
         "duration": OFFSET}),
    "flaky_nic": st.fixed_dictionaries(
        {"node": NODE, "at": TIME, "loss": st.floats(0.01, 0.99),
         "jitter_s": st.floats(0.0, 0.1), "duration": OFFSET}),
    "zombie": st.fixed_dictionaries(
        {"node": NODE, "at": TIME, "slowdown": st.floats(1.01, 100.0),
         "duration": OFFSET}),
}

#: The float arguments of each DSL method.
FLOAT_ARGS = {
    "crash": ("at", "restart_after"),
    "restart": ("at",),
    "partition": ("at", "heal_after"),
    "slow_disk": ("at", "factor", "duration"),
    "flaky_nic": ("at", "loss", "jitter_s", "duration"),
    "zombie": ("at", "slowdown", "duration"),
}

DSL_CALL = st.sampled_from(sorted(DSL_CALLS)).flatmap(
    lambda method: DSL_CALLS[method].map(lambda kwargs: (method, kwargs)))


@settings(max_examples=60, deadline=None)
@given(st.lists(DSL_CALL, max_size=8))
def test_valid_fault_schedules_build(calls):
    schedule = FaultSchedule()
    for method, kwargs in calls:
        getattr(schedule, method)(**kwargs)
    times = [action.at for action in schedule.actions()]
    assert len(times) == len(schedule)
    assert all(0 <= t < INF for t in times)
    assert times == sorted(times)


@st.composite
def non_finite_dsl_calls(draw):
    method, kwargs = draw(DSL_CALL)
    arg = draw(st.sampled_from(FLOAT_ARGS[method]))
    return method, {**kwargs, arg: draw(NON_FINITE)}


@settings(max_examples=60, deadline=None)
@given(non_finite_dsl_calls())
def test_non_finite_fault_value_fails_at_construction(call):
    method, kwargs = call
    schedule = FaultSchedule().crash("server-1", at=1.0)
    with pytest.raises(ValueError):
        getattr(schedule, method)(**kwargs)
    # The failed call added nothing.
    assert len(schedule) == 1


@pytest.mark.parametrize("method,kwargs", [
    ("crash", {"at": NAN}),
    ("crash", {"at": 1.0, "restart_after": NAN}),
    ("slow_disk", {"at": 1.0, "factor": NAN}),
    ("zombie", {"at": 1.0, "slowdown": NAN}),
    ("flaky_nic", {"at": 1.0, "jitter_s": NAN}),
])
def test_nan_fault_values_are_rejected(method, kwargs):
    with pytest.raises(ValueError):
        getattr(FaultSchedule(), method)("server-0", **kwargs)


def test_random_schedule_rejects_nan_horizon():
    with pytest.raises(ValueError, match="horizon_s"):
        FaultSchedule.random(seed=1, nodes=["server-0"], horizon_s=NAN)
