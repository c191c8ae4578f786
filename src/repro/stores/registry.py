"""Store registry: name -> deployment factory."""

from __future__ import annotations

from typing import TYPE_CHECKING, Type

from repro.sim.cluster import Cluster
from repro.stores.base import Store
from repro.stores.cassandra import CassandraStore
from repro.stores.hbase import HBaseStore
from repro.stores.mysql import MySQLStore
from repro.stores.redis import RedisStore
from repro.stores.voldemort import VoldemortStore
from repro.stores.voltdb import VoltDBStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ycsb.workload import Workload

__all__ = ["STORE_CLASSES", "STORE_NAMES", "UnsupportedWorkloadError",
           "create_store", "scan_mismatch", "store_class"]

STORE_CLASSES: dict[str, Type[Store]] = {
    CassandraStore.name: CassandraStore,
    HBaseStore.name: HBaseStore,
    VoldemortStore.name: VoldemortStore,
    RedisStore.name: RedisStore,
    VoltDBStore.name: VoltDBStore,
    MySQLStore.name: MySQLStore,
}

#: The six systems, in the paper's presentation order.
STORE_NAMES: tuple[str, ...] = (
    "cassandra", "hbase", "voldemort", "redis", "voltdb", "mysql",
)


def store_class(name: str) -> Type[Store]:
    """The store class registered under ``name``."""
    try:
        return STORE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(STORE_CLASSES))
        raise ValueError(f"unknown store {name!r}; known stores: {known}")


class UnsupportedWorkloadError(ValueError):
    """A store was asked to run a workload it cannot serve."""


def scan_mismatch(store_name: str, workload: "Workload") -> str | None:
    """Why ``store_name`` cannot run ``workload``, or ``None`` if it can.

    Raises on an unknown store.  Only scans disqualify a known one: the
    paper omits the stores without range scans from the scan workloads.
    """
    if not store_class(store_name).supports_scans and workload.has_scans:
        return f"does not support scans (workload {workload.name})"
    return None


def create_store(name: str, cluster: Cluster, **kwargs) -> Store:
    """Deploy the store called ``name`` onto ``cluster``."""
    return store_class(name)(cluster, **kwargs)
