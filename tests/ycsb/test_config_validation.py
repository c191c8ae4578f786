"""Boundary validation: bad inputs fail before any simulation starts.

Valid :class:`BenchmarkConfig` values round-trip losslessly through
``to_dict``/``from_dict``; invalid ones — in the config or in the
open-loop drive parameters — raise :class:`ValueError` before a
:class:`~repro.sim.kernel.Simulator` (and so a cluster, a store or a
load phase) is ever built.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overload import OverloadPolicy, run_overload_point
from repro.sim.kernel import Simulator
from repro.ycsb.runner import BenchmarkConfig, run_benchmark
from repro.ycsb.workload import WORKLOADS

NAMES = st.sampled_from(["cassandra", "hbase", "mysql", "redis",
                         "voldemort", "voltdb"])
POSITIVE = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


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
    ("duration_s", 0.0), ("duration_s", -1.0),
    ("availability_window_s", 0.0), ("trace_sample_every", 0),
    ("metrics_interval_s", -0.5), ("sustained_subwindows", 1),
    ("sustained_tolerance", 1.5),
])


@settings(max_examples=30, deadline=None)
@given(store=NAMES, bad=INVALID)
def test_invalid_config_fails_before_simulation(store, bad):
    field, value = bad
    kwargs = {"n_nodes": 1, "records_per_node": 10, field: value}
    with no_simulator(), pytest.raises(ValueError, match=field):
        run_benchmark(store, WORKLOADS["R"], **kwargs)


@pytest.mark.parametrize("field,value", [
    ("duration_s", 0.0), ("duration_s", -1.0), ("warmup_s", -0.1),
    ("queue_sample_s", 0.0),
])
def test_open_loop_rejects_bad_drive_before_load(field, value):
    config = BenchmarkConfig(store="redis", workload=WORKLOADS["R"],
                             n_nodes=1, records_per_node=10)
    with no_simulator(), pytest.raises(ValueError, match=field):
        run_overload_point(config, 100.0, **{field: value})


def test_scan_rejection_is_one_message_for_both_drivers():
    config = BenchmarkConfig(store="voldemort", workload=WORKLOADS["RS"],
                             n_nodes=1, records_per_node=10)
    message = "voldemort does not support scans .workload RS."
    with no_simulator(), pytest.raises(ValueError, match=message):
        run_benchmark(config.store, config.workload, 1, config=config)
    with no_simulator(), pytest.raises(ValueError, match=message):
        run_overload_point(config, 100.0)
