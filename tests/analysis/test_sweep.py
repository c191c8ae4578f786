"""Unit tests for the sweep API."""

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.sweep import SweepSpec, run_sweep
from repro.ycsb.workload import WORKLOAD_R, WORKLOAD_RS, WORKLOAD_W


TINY = dict(records_per_node=1200, measured_ops=300, warmup_ops=50)


class TestSweepSpec:
    def test_point_count(self):
        spec = SweepSpec(stores=("redis", "mysql"),
                         workloads=(WORKLOAD_R, WORKLOAD_W),
                         node_counts=(1, 2), **TINY)
        assert len(spec) == 8
        assert len(list(spec.points())) == 8


class TestRunSweep:
    def test_collects_all_points(self):
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1, 2), **TINY)
        sweep = run_sweep(spec, cache=ResultCache())
        assert len(sweep.results) == 2
        assert sweep.skipped == []
        assert {row["nodes"] for row in sweep.rows()} == {1, 2}

    def test_skips_unsupported_combinations(self):
        spec = SweepSpec(stores=("voldemort",), workloads=(WORKLOAD_RS,),
                         node_counts=(1,), **TINY)
        sweep = run_sweep(spec, cache=ResultCache())
        assert sweep.results == []
        assert len(sweep.skipped) == 1
        assert sweep.skipped[0][3] == (
            "voldemort does not support scans (workload RS); the paper "
            "omits it from scan workloads")

    @pytest.mark.parametrize("overrides,field", [
        ({"records_per_node": 0}, "records_per_node"),
        ({"node_counts": (0,)}, "n_nodes"),
        ({"stores": ("nosuchstore",)}, "unknown store"),
    ])
    def test_invalid_points_raise_instead_of_skipping(self, overrides,
                                                      field):
        # Only a store/workload mismatch is a skip; a bad point is a bug
        # in the sweep and must not vanish into ``skipped``.
        kwargs = dict(stores=("redis",), workloads=(WORKLOAD_R,),
                      node_counts=(1,), **TINY)
        spec = SweepSpec(**{**kwargs, **overrides})
        with pytest.raises(ValueError, match=field):
            run_sweep(spec, cache=ResultCache())

    def test_series_and_best_by(self):
        spec = SweepSpec(stores=("redis", "voltdb"),
                         workloads=(WORKLOAD_R,), node_counts=(1, 2),
                         **TINY)
        sweep = run_sweep(spec, cache=ResultCache())
        series = sweep.series("redis", "R")
        assert [n for n, __ in series] == [1, 2]
        best = sweep.best_by("R", 2)
        assert best is not None
        assert best.config.store in ("redis", "voltdb")
        assert sweep.best_by("W", 2) is None

    def test_progress_callback(self):
        calls = []
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1,), **TINY)
        run_sweep(spec, cache=ResultCache(),
                  progress=lambda *args: calls.append(args))
        assert len(calls) == 1
        assert calls[0][:2] == (0, 1)

    def test_uses_cache(self):
        cache = ResultCache()
        spec = SweepSpec(stores=("redis",), workloads=(WORKLOAD_R,),
                         node_counts=(1,), **TINY)
        run_sweep(spec, cache=cache)
        run_sweep(spec, cache=cache)
        assert cache.misses == 1
        assert cache.hits == 1
