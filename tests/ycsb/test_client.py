"""Unit tests for the closed-loop client threads."""

import random

import pytest

from repro.stores.base import OpType
from repro.ycsb.client import ClientThread, RunControl
from repro.ycsb.deployment import Deployment
from repro.ycsb.generator import KeySequence, UniformChooser
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.stats import RunStats
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS


class TestRunControl:
    def test_measurement_window_opens_after_warmup(self):
        control = RunControl(warmup_ops=3, measured_ops=5)
        stats = RunStats()
        for i in range(3):
            control.note_completion(stats, now=float(i))
            assert control.done is False
        assert control.measuring
        assert stats.started_at == 2.0

    def test_done_after_measured_ops(self):
        control = RunControl(warmup_ops=2, measured_ops=3)
        stats = RunStats()
        for i in range(5):
            control.note_completion(stats, now=float(i))
        assert control.done
        assert stats.finished_at == 4.0

    def test_completion_counter(self):
        control = RunControl(warmup_ops=1, measured_ops=1)
        stats = RunStats()
        control.note_completion(stats, 0.0)
        control.note_completion(stats, 1.0)
        assert control.completed == 2


def build_thread(deployment, workload, control, stats, seed=1):
    session = deployment.store.session(deployment.cluster.clients[0], 0)
    rng = random.Random(seed)
    sequence = KeySequence(200)
    chooser = UniformChooser(200, rng)
    return ClientThread(session, workload, chooser, sequence, stats,
                        control, rng, deployment)


class TestClientThread:
    @pytest.fixture
    def deployment(self):
        return Deployment(BenchmarkConfig(
            store="redis", workload=WORKLOAD_R, n_nodes=2,
            records_per_node=100))

    def test_runs_until_control_done(self, deployment):
        stats = RunStats()
        control = RunControl(warmup_ops=10, measured_ops=50)
        thread = build_thread(deployment, WORKLOAD_R, control, stats)
        deployment.sim.run(until=deployment.sim.process(thread.run()))
        assert control.done
        assert stats.operations == 50

    def test_op_mix_matches_workload(self, deployment):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=400)
        thread = build_thread(deployment, WORKLOAD_R, control, stats)
        deployment.sim.run(until=deployment.sim.process(thread.run()))
        reads = stats.histogram(OpType.READ).count
        inserts = stats.histogram(OpType.INSERT).count
        assert reads + inserts == 400
        assert 0.90 <= reads / 400 <= 0.99

    def test_scan_workload_records_scan_latencies(self, deployment):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=100)
        thread = build_thread(deployment, WORKLOAD_RS, control, stats)
        deployment.sim.run(until=deployment.sim.process(thread.run()))
        assert stats.histogram(OpType.SCAN).count > 20

    def test_inserts_consume_shared_sequence(self, deployment):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=100)
        thread = build_thread(deployment, WORKLOAD_RS, control, stats)
        before = thread.sequence.next_value
        deployment.sim.run(until=deployment.sim.process(thread.run()))
        inserted = thread.sequence.next_value - before
        assert inserted == stats.histogram(OpType.INSERT).count

    def test_latencies_are_positive(self, deployment):
        stats = RunStats()
        control = RunControl(warmup_ops=0, measured_ops=50)
        thread = build_thread(deployment, WORKLOAD_R, control, stats)
        deployment.sim.run(until=deployment.sim.process(thread.run()))
        assert stats.histogram(OpType.READ).min > 0
