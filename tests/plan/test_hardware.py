"""Hardware-profile registry: validation and paper fidelity."""

import dataclasses

import pytest

from repro.plan.hardware import (HARDWARE_PROFILES, HardwareProfile,
                                 hardware_profile)
from repro.sim.cluster import CLUSTER_D, CLUSTER_M, ClusterSpec, NodeSpec
from repro.sim.disk import DiskSpec
from repro.ycsb.runner import BenchmarkConfig
from repro.ycsb.workload import WORKLOAD_W

NODE_FIELDS = ("cores", "core_speed", "ram_bytes", "disk", "cache_fraction")
CLUSTER_FIELDS = ("connections_per_node", "max_nodes")


def _profile(**overrides):
    """A profile of a test node, with ``overrides`` routed to their type."""
    node = {key: overrides.pop(key) for key in NODE_FIELDS
            if key in overrides}
    cluster = {key: overrides.pop(key) for key in CLUSTER_FIELDS
               if key in overrides}
    cluster.setdefault("max_nodes", 64)
    name = overrides.pop("name", "test")
    return HardwareProfile(
        name=name,
        description=overrides.pop("description", "a test node"),
        hourly_cost=overrides.pop("hourly_cost", 1.0),
        spec=ClusterSpec(name=f"plan:{name}", node=NodeSpec(**node),
                         **cluster),
        **overrides)


class TestValidation:
    # The hardware is validated by the spec types themselves, so a bad
    # profile fails while its ClusterSpec is being built.  The NaN and
    # infinity cases live in tests/ycsb/test_config_validation.py.

    def test_valid_profile_constructs(self):
        profile = _profile()
        assert profile.spec.node.cache_bytes == int(16 * 2**30 * 0.7)

    def test_zero_throughput_disk_with_capacity_rejected(self):
        with pytest.raises(ValueError, match="zero throughput"):
            _profile(disk=DiskSpec(seq_bandwidth_bytes_per_s=0.0,
                                   capacity_bytes=74 * 10**9))

    @pytest.mark.parametrize("overrides", [
        {"cores": 0},
        {"core_speed": 0.0},
        {"core_speed": -1.0},
        {"ram_bytes": 0},
        {"cache_fraction": 0.0},
        {"cache_fraction": 1.5},
        {"hourly_cost": 0.0},
        {"hourly_cost": -2.0},
        {"connections_per_node": 0},
        {"max_nodes": 0},
        {"name": ""},
        {"hourly_cost": float("nan")},
        {"hourly_cost": float("inf")},
    ])
    def test_inconsistent_scalar_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _profile(**overrides)

    @pytest.mark.parametrize("disk", [
        {"seq_bandwidth_bytes_per_s": -1.0},
        {"seek_time_s": -0.001},
        {"rotational_latency_s": -0.001},
        {"capacity_bytes": -1},
        {"queue_depth": 0},
    ])
    def test_inconsistent_disks_rejected(self, disk):
        with pytest.raises(ValueError):
            _profile(disk=DiskSpec(**disk))

    def test_spec_must_carry_the_profile_name(self):
        # The name keeps the content hashes of two profiles apart.
        with pytest.raises(ValueError, match="plan:test"):
            HardwareProfile(name="test", description="a test node",
                            hourly_cost=1.0, spec=CLUSTER_M)

    def test_profiles_are_frozen(self):
        profile = _profile()
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.hourly_cost = 0.0


class TestRegistry:
    def test_paper_profiles_match_the_papers_clusters(self):
        assert hardware_profile("paper-m").spec == dataclasses.replace(
            CLUSTER_M, name="plan:paper-m")
        assert hardware_profile("paper-d").spec == dataclasses.replace(
            CLUSTER_D, name="plan:paper-d")

    def test_cost_anchor_and_ordering(self):
        # Cluster M nodes anchor the unit; the older Cluster D nodes are
        # cheaper, modern nodes dearer.
        assert hardware_profile("paper-m").hourly_cost == 1.0
        assert hardware_profile("paper-d").hourly_cost < 1.0
        assert hardware_profile("modern-ssd").hourly_cost > 1.0
        assert hardware_profile("modern-nvme").hourly_cost > \
            hardware_profile("modern-ssd").hourly_cost

    def test_at_least_two_modern_profiles(self):
        modern = [name for name in HARDWARE_PROFILES
                  if not name.startswith("paper-")]
        assert len(modern) >= 2

    def test_every_registered_profile_is_self_consistent(self):
        for name, profile in HARDWARE_PROFILES.items():
            assert profile.name == name
            assert profile.cost(3) == pytest.approx(3 * profile.hourly_cost)

    def test_unknown_profile_message_lists_known(self):
        with pytest.raises(ValueError, match="paper-m"):
            hardware_profile("quantum-node")


class TestClusterSpec:
    def test_cluster_spec_names_disambiguate_profiles(self):
        names = {profile.spec.name
                 for profile in HARDWARE_PROFILES.values()}
        assert len(names) == len(HARDWARE_PROFILES)

    def test_configs_on_profile_clusters_stay_portable(self):
        # Validation configs must cross process boundaries and live in
        # the content-addressed store; the profile's ClusterSpec must
        # survive the dict round trip exactly.
        for profile in HARDWARE_PROFILES.values():
            config = BenchmarkConfig(
                store="cassandra", workload=WORKLOAD_W, n_nodes=1,
                cluster_spec=profile.spec)
            assert config.is_portable
            rebuilt = BenchmarkConfig.from_dict(config.to_dict())
            assert rebuilt.content_hash() == config.content_hash()
            assert rebuilt.cluster_spec == config.cluster_spec

    #: Result-store addresses of one config per profile.  A change to
    #: how a profile describes its hardware must leave these alone, or
    #: every stored validation result silently becomes a cache miss.
    PINNED_HASHES = {
        "paper-m": "9a85619db59c443622527711efe26e0e"
                   "c67e5e6459b0539f6d99f50669cc0890",
        "paper-d": "bcfb3efd1f995861c351e266e91d8c3d"
                   "1a72d4a8772ac2ec1a3fda7a8119a4f8",
        "modern-ssd": "42d633bd8a5db890739c4f0adf913c47"
                      "40229230a89615dc138ee35c894b52b3",
        "modern-nvme": "2654223cd3829c6c7644a17876facd0b"
                       "5f7dc9db559033c27f79edd20c95677b",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_profile_config_hashes_are_pinned(self, name):
        config = BenchmarkConfig(
            store="cassandra", workload=WORKLOAD_W, n_nodes=1,
            cluster_spec=hardware_profile(name).spec)
        assert config.content_hash() == self.PINNED_HASHES[name]
