"""Outside-in probes: time and count calls into the ``repro`` package.

Nothing under ``src/`` is edited.  Each probe replaces a function or
method attribute for the duration of a ``with`` block and restores it on
exit.  The wrappers only read clocks and public state, so a probed run
simulates exactly what a bare run does; the benchmark asserts that by
comparing the output digests of the two.

Two probes exist:

* :class:`PhaseClock` is on for every run.  It splits each deployment's
  host time into set-up (``Simulator()`` construction up to the first
  ``Simulator.run`` call: cluster and store build, record generation,
  ``Store.load`` and ``warm_caches``) and simulation (time inside
  ``Simulator.run``).  It costs a few calls per deployment.
* :class:`LayerTracer` is on only for the traced run.  It records a span
  around the synchronous public calls of each layer (generator, storage
  engines, ``Store.load``/``warm_caches``, planner, grid executor,
  result store), counts calls that return generators (HDFS reads, client
  operations), keeps the instances whose counters are read after the run,
  and profiles ``Simulator.run`` with :mod:`cProfile` to split the
  interleaved kernel, store and client-loop work by package.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["LayerTracer", "PhaseClock"]


_ABSENT = object()


class _Patches:
    """Attribute replacements undone in reverse order.

    Restoring puts back exactly what the owner's own namespace held, so an
    attribute the owner inherited is deleted again rather than shadowed.
    """

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


class PhaseClock:
    """Per-deployment set-up and simulation host time, plus event counts.

    ``Simulator`` has ``__slots__`` and no weak references, so deployments
    are keyed by ``id()``; a new simulator overwrites any stale entry at
    construction, before it can run.  Simulators are not kept alive, so
    the probe does not raise the peak memory it is there to report.
    """

    def __init__(self, profiler: cProfile.Profile | None = None):
        #: id(sim) -> [created_at, first_run_at or None, events]
        self._deployments: dict[int, list] = {}
        #: The ``RunControl`` of every closed-loop deployment, in order.
        self.windows: list = []
        #: (entered, returned) host times of every ``Simulator.run`` call.
        self.runs: list[tuple[float, float]] = []
        #: Host time at which the last ``Simulator.run`` call returned.
        self.last_run_end: float | None = None
        #: 1 while inside ``Simulator.run``; tracers read it to split
        #: their spans into set-up and simulation phases.
        self.in_run = 0
        self._profiler = profiler
        self._patches = _Patches()

    def __enter__(self):
        from repro.sim.kernel import Simulator
        from repro.ycsb.client import RunControl

        deployments = self._deployments
        windows = self.windows
        clock = time.perf_counter
        original_init = Simulator.__init__
        original_run = Simulator.run
        original_post_init = RunControl.__post_init__
        profiler = self._profiler

        def init(sim):
            original_init(sim)
            deployments[id(sim)] = [clock(), None, 0]

        def run(sim, until=None):
            started = clock()
            record = deployments[id(sim)]
            if record[1] is None:
                record[1] = started
            self.in_run = 1
            if profiler is not None:
                profiler.enable()
            try:
                return original_run(sim, until)
            finally:
                if profiler is not None:
                    profiler.disable()
                self.in_run = 0
                ended = clock()
                self.runs.append((started, ended))
                self.last_run_end = ended
                record[2] = sim._sequence

        def post_init(control):
            original_post_init(control)
            windows.append(control)

        self._patches.set(Simulator, "__init__", init)
        self._patches.set(Simulator, "run", run)
        self._patches.set(RunControl, "__post_init__", post_init)
        return self

    def __exit__(self, *exc_info):
        self._patches.undo()
        return False

    @property
    def setups(self) -> list[tuple[float, float]]:
        """(created, first run) host times of every deployment that ran."""
        return [(created, first)
                for created, first, __ in self._deployments.values()
                if first is not None]

    @property
    def setup_s(self) -> float:
        """Summed set-up seconds of every deployment that ran."""
        return sum(first - created for created, first in self.setups)

    @property
    def run_s(self) -> float:
        """Summed seconds inside ``Simulator.run``."""
        return sum(ended - started for started, ended in self.runs)

    @property
    def events(self) -> int:
        """Kernel events scheduled, summed over deployments.

        Read from ``sim._sequence``, the kernel's monotone event counter,
        exactly as ``benchmarks/bench_kernel.py`` does.
        """
        return sum(events for __, __, events in self._deployments.values())

    @property
    def window_ops(self) -> int:
        """Measured operations the closed-loop deployments were set up for."""
        return sum(control.measured_ops for control in self.windows)


#: Storage engine -> (class import path, {op: method name}).
ENGINES = {
    "lsm": ("repro.storage.lsm.engine:LSMEngine",
            {"get": "get", "put": "put", "scan": "scan"}),
    "btree": ("repro.storage.btree:BPlusTree",
              {"get": "get", "put": "put", "scan": "scan"}),
    "hash": ("repro.storage.hashstore:HashStore",
             {"get": "hgetall", "put": "hset", "scan": "scan"}),
    "skiplist": ("repro.storage.skiplist:SkipList",
                 {"get": "get", "put": "put", "scan": "scan"}),
}

#: LSM work a store may drive outside a put (HBase flushes every region
#: during its bulk load), timed so it is not booked to ``stores.load``.
LSM_BACKGROUND = {"flush": "storage.lsm.flush", "maybe_compact":
                  "storage.lsm.compact"}

#: Top-level names under ``repro`` that get their own self-time bucket.
PACKAGES = ("analysis", "audit", "control", "core", "faults", "hashing",
            "keyspace", "metrics", "obs", "orchestrator", "overload", "plan",
            "sim", "storage", "stores", "trace", "ycsb")


def _resolve(path: str):
    module_name, __, attr = path.partition(":")
    __import__(module_name)
    return getattr(sys.modules[module_name], attr)


class LayerTracer:
    """Spans, counts and a per-package profile for one traced iteration.

    A span's self time is its duration minus the time of the spans it
    encloses, so ``stores.load`` excludes the generator and storage-engine
    calls nested inside it.  Spans are split by phase: set-up (outside
    ``Simulator.run``) and simulation (inside it).  Span times taken inside
    ``Simulator.run`` run under the profiler and are inflated by it.
    """

    def __init__(self, src_root: Path):
        self.profiler = cProfile.Profile()
        self.clock = PhaseClock(self.profiler)
        self._src_root = str(src_root.resolve() / "repro")
        #: span name -> [calls, self seconds in set-up, self seconds in
        #: run, total seconds including nested spans]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self._stack: list[float] = []
        #: Client operations issued, by op name (retries included).
        self.client_ops: Counter = Counter()
        self.hdfs_reads = 0
        self.instances: dict[str, list] = defaultdict(list)
        self._patches = _Patches()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        record = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        phase = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                record[0] += 1
                record[1 + phase.in_run] += elapsed - nested
                record[3] += elapsed
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def _keep(self, kind: str, cls):
        original = cls.__init__
        kept = self.instances[kind]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            kept.append(obj)
        self._patches.set(cls, "__init__", init)

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in every loaded ``repro`` module holding it."""
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro.") and module is not None
                    and getattr(module, original.__name__, None) is original):
                self._patches.set(module, original.__name__, replacement)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._patches.undo()
            raise
        self.clock.__enter__()
        return self

    def _install(self):
        # Import every module a workload reaches, so the rebinding below
        # sees each ``from ... import`` of the wrapped functions.
        import repro.obs.harness  # noqa: F401
        import repro.overload.openloop  # noqa: F401
        import repro.orchestrator.reproduce  # noqa: F401
        from repro.faults.chaos import ChaosController
        from repro.orchestrator.store import ResultStore
        from repro.sim.cluster import Cluster
        from repro.stores.base import Store, StoreSession
        from repro.stores.hdfs import Hdfs
        from repro.stores.registry import STORE_CLASSES
        from repro.ycsb import generator

        # The package re-exports the ``reproduce`` function under the
        # submodule's name, so fetch the module itself.
        reproduce = sys.modules["repro.orchestrator.reproduce"]
        self._replace_everywhere(
            generator.generate_record,
            self._timed("generator", generator.generate_record))
        for engine, (path, methods) in ENGINES.items():
            cls = _resolve(path)
            for op, method in methods.items():
                self._patches.set(cls, method, self._timed(
                    f"storage.{engine}.{op}", getattr(cls, method)))
        lsm = _resolve(ENGINES["lsm"][0])
        for method, span in LSM_BACKGROUND.items():
            self._patches.set(lsm, method, self._timed(
                span, getattr(lsm, method)))
        for cls in (Store, *STORE_CLASSES.values()):
            for method, span in (("load", "stores.load"),
                                 ("warm_caches", "stores.warm")):
                if method in vars(cls):
                    self._patches.set(cls, method, self._timed(
                        span, vars(cls)[method]))
        self._patches.set(reproduce, "plan_figures", self._timed(
            "orchestrator.plan", reproduce.plan_figures))
        self._patches.set(reproduce, "execute_grid", self._timed(
            "orchestrator.execute", reproduce.execute_grid))
        self._patches.set(ResultStore, "put", self._timed(
            "orchestrator.store_put", ResultStore.put))

        client_ops = self.client_ops
        execute = StoreSession.execute

        @functools.wraps(execute)
        def counted_execute(session, op, key, fields=None, scan_length=0):
            client_ops[op.value] += 1
            return execute(session, op, key, fields, scan_length)
        self._patches.set(StoreSession, "execute", counted_execute)

        read = Hdfs.read

        @functools.wraps(read)
        def counted_read(hdfs, *args, **kwargs):
            self.hdfs_reads += 1
            return read(hdfs, *args, **kwargs)
        self._patches.set(Hdfs, "read", counted_read)

        self._keep("lsm", _resolve(ENGINES["lsm"][0]))
        self._keep("cluster", Cluster)
        self._keep("store", Store)
        self._keep("chaos", ChaosController)

    def __exit__(self, *exc_info):
        self.clock.__exit__(*exc_info)
        self._patches.undo()
        return False

    # -- readings -----------------------------------------------------------

    def span_s(self, name: str, phase: str = "all") -> float:
        """Self seconds of ``name`` in ``setup``, ``run`` or ``all`` phases."""
        __, setup, run, __ = self.spans.get(name, (0, 0.0, 0.0, 0.0))
        return {"setup": setup, "run": run, "all": setup + run}[phase]

    def total_s(self, name: str) -> float:
        """Seconds of ``name`` including the spans nested inside it."""
        return self.spans.get(name, (0, 0.0, 0.0, 0.0))[3]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0, 0.0))[0]

    def self_time_by_package(self) -> dict[str, float]:
        """cProfile self seconds inside ``Simulator.run``, by package.

        Everything outside ``src/repro`` (the standard library, built-ins
        and these probes' own wrappers) lands in ``other``.
        """
        totals = {name: 0.0 for name in PACKAGES}
        totals["other"] = 0.0
        prefix = self._src_root + "/"
        for (filename, __, __), row in pstats.Stats(
                self.profiler).stats.items():
            bucket = "other"
            if filename.startswith(prefix):
                top = filename[len(prefix):].split("/", 1)[0]
                top = top[:-3] if top.endswith(".py") else top
                if top in totals:
                    bucket = top
            totals[bucket] += row[2]
        return totals

    def sim_counters(self) -> dict[str, float]:
        """Modelled disk, page-cache and CPU counters over every node."""
        reads = written = hits = misses = 0
        wait = 0.0
        for cluster in self.instances["cluster"]:
            for node in [*cluster.servers, *cluster.clients]:
                reads += node.disk.reads
                written += node.disk.bytes_written
                hits += node.page_cache.hits
                misses += node.page_cache.misses
                wait += node.cpus.stats.total_wait_time
        return {
            "sim.disk.reads": reads,
            "sim.disk.bytes_written": written,
            "sim.page_cache.hit_rate": (hits / (hits + misses)
                                        if hits + misses else 0.0),
            "sim.cpu.wait_s": wait,
        }
