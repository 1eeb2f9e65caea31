"""Unit tests for the unified link-emulation subsystem (repro.netem)."""

import pytest

from repro.config import GCP_REGIONS
from repro.errors import ConfigurationError
from repro.netem import (
    GEO_PROFILES,
    DelayMatrix,
    LatencyModel,
    LinkEmulator,
    NetemPolicy,
    NetworkConditions,
    netem_policy_for,
    profile_by_name,
    region_rtt_seconds,
    regions_for,
)


class TestGeoProfiles:
    def test_builtin_profiles_cover_the_paper_scale(self):
        assert profile_by_name("wan15").regions[0] == "oregon"
        assert len(profile_by_name("wan15").regions) == 15
        assert profile_by_name("local").regions == ("local",)

    def test_unknown_profile_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="wan3"):
            profile_by_name("marsnet")

    def test_shards_wrap_around_the_region_list(self):
        """Shard-to-region assignment is SystemConfig.uniform's: regions
        repeat modulo the profile length when there are more shards."""
        from repro.config import SystemConfig

        config = SystemConfig.uniform(4, 4, regions=profile_by_name("wan3").regions)
        assert config.shards[3].region == config.shards[0].region
        assert config.shards[1].region != config.shards[0].region

    def test_rtt_table_is_complete_and_symmetric(self):
        table = profile_by_name("wan3").rtt_table()
        regions = GEO_PROFILES["wan3"].regions
        assert len(table) == len(regions) ** 2
        for a in regions:
            for b in regions:
                assert table[(a, b)] == table[(b, a)]

    def test_geo_flag_resolution_is_shared(self):
        """demo/serve/deploy-local all resolve --geo through these two."""
        assert regions_for(None) == GCP_REGIONS
        assert regions_for("wan3") == GEO_PROFILES["wan3"].regions
        assert netem_policy_for(None) is None
        assert netem_policy_for("wan5").profile == "wan5"

    def test_netem_is_the_only_policy_spelling(self):
        from repro.engine import backend_by_name

        with pytest.raises(TypeError, match="latency"):
            backend_by_name("sim", latency=LatencyModel())


class TestNetemPolicy:
    def test_spec_derives_from_region_rtt(self):
        policy = NetemPolicy()
        spec = policy.spec_for("oregon", "london")
        assert spec.delay_s == pytest.approx(region_rtt_seconds("oregon", "london") / 2)
        assert spec.bandwidth_bps == policy.latency.wan_bandwidth_bps

    def test_same_region_uses_lan_bandwidth(self):
        policy = NetemPolicy()
        spec = policy.spec_for("oregon", "oregon")
        assert spec.bandwidth_bps == policy.latency.lan_bandwidth_bps

    def test_matrix_overrides_are_directional(self):
        matrix = DelayMatrix().set("a", "b", 0.080).set("b", "a", 0.020)
        policy = NetemPolicy(matrix=matrix)
        assert policy.spec_for("a", "b").delay_s == pytest.approx(0.080)
        assert policy.spec_for("b", "a").delay_s == pytest.approx(0.020)

    def test_symmetric_matrix_halves_the_rtt(self):
        matrix = DelayMatrix.symmetric({("a", "b"): 0.100})
        assert matrix.get("a", "b") == pytest.approx(0.050)
        assert matrix.get("b", "a") == pytest.approx(0.050)

    def test_spec_delay_matches_legacy_latency_model_formula(self):
        """The unified model must reproduce the pre-netem delay math exactly."""
        model = LatencyModel()
        policy = NetemPolicy(latency=model)
        for a, b, size in (("oregon", "london", 512), ("iowa", "iowa", 5408)):
            assert policy.spec_for(a, b).base_delay(size) == pytest.approx(
                model.message_delay(a, b, size)
            )

    def test_for_profile_validates_the_name(self):
        assert NetemPolicy.for_profile("wan5").profile == "wan5"
        with pytest.raises(ConfigurationError):
            NetemPolicy.for_profile("nope")


def _emulator(seed=7, policy=NetemPolicy(), conditions=None):
    emulator = LinkEmulator(policy, conditions, seed=seed)
    emulator.assign_regions({"a": "oregon", "b": "london", "c": "iowa"})
    return emulator


class TestLinkEmulatorDeterminism:
    def test_same_seed_same_decisions(self):
        runs = []
        for _ in range(2):
            emulator = _emulator(seed=7)
            runs.append([emulator.decide("a", "b", 512) for _ in range(50)])
        assert runs[0] == runs[1]

    def test_different_seed_different_delays(self):
        a = [_emulator(seed=1).decide("a", "b", 512) for _ in range(5)]
        b = [_emulator(seed=2).decide("a", "b", 512) for _ in range(5)]
        assert a != b

    def test_per_link_streams_are_independent_of_interleaving(self):
        """A link's decisions depend only on traffic *on that link* -- the
        property that makes one seed reproducible across a process fleet."""
        sequential = _emulator(seed=9)
        seq_ab = [sequential.decide("a", "b", 512) for _ in range(10)]
        seq_ac = [sequential.decide("a", "c", 512) for _ in range(10)]

        interleaved = _emulator(seed=9)
        int_ab, int_ac = [], []
        for _ in range(10):
            int_ac.append(interleaved.decide("a", "c", 512))
            int_ab.append(interleaved.decide("a", "b", 512))
        assert seq_ab == int_ab
        assert seq_ac == int_ac

    def test_direction_streams_differ(self):
        emulator = _emulator(seed=3)
        forward = [emulator.decide("a", "b", 512)[1] for _ in range(5)]
        reverse = [emulator.decide("b", "a", 512)[1] for _ in range(5)]
        assert forward != reverse

    def test_delay_is_base_plus_bounded_jitter(self):
        emulator = _emulator()
        spec = emulator.link_spec("a", "b")
        base = spec.base_delay(512)
        for _ in range(100):
            _, delay = emulator.decide("a", "b", 512)
            assert base <= delay <= base * (1 + spec.jitter_fraction)

    def test_emulated_loss_drops_and_counts(self):
        emulator = _emulator(policy=NetemPolicy(loss=1.0))
        deliver, delay = emulator.decide("a", "b", 512)
        assert not deliver and delay == 0.0
        assert emulator.stats.lost == 1

    def test_fault_conditions_win_over_the_policy(self):
        conditions = NetworkConditions()
        conditions.block_link("a", "b")
        emulator = _emulator(conditions=conditions)
        assert emulator.decide("a", "b", 512) == (False, 0.0)
        assert emulator.stats.faulted == 1
        assert emulator.decide("a", "c", 512)[0]

    def test_no_policy_means_faults_only_and_zero_delay(self):
        emulator = LinkEmulator(None, seed=1)
        assert emulator.decide("x", "y", 10_000) == (True, 0.0)
        emulator.conditions.isolate("y")
        assert emulator.decide("x", "y", 10_000) == (False, 0.0)

    def test_region_reassignment_refreshes_link_specs(self):
        emulator = _emulator()
        far = emulator.expected_one_way_delay("a", "b", 0)
        emulator.assign_region("b", "oregon")
        near = emulator.expected_one_way_delay("a", "b", 0)
        assert near < far

    def test_assignment_mid_traffic_does_not_rewind_link_streams(self):
        """Assigning a new address after traffic has flowed must not reset
        existing links' RNG positions (no replayed delay/loss decisions)."""
        live = _emulator(seed=11)
        first = [live.decide("a", "b", 512) for _ in range(5)]
        live.assign_region("latecomer", "iowa")
        second = [live.decide("a", "b", 512) for _ in range(5)]

        undisturbed = _emulator(seed=11)
        expected = [undisturbed.decide("a", "b", 512) for _ in range(10)]
        assert first + second == expected

    def test_unassigned_addresses_default_to_local(self):
        emulator = LinkEmulator(NetemPolicy(), seed=1)
        assert emulator.region_of("ghost") == "local"
        assert emulator.expected_one_way_delay("ghost", "ghost2", 0) == pytest.approx(
            region_rtt_seconds("local", "local") / 2
        )

    def test_describe_reports_policy_and_links(self):
        emulator = _emulator()
        emulator.decide("a", "b", 512)
        summary = emulator.describe()
        assert summary["emulated"] is True
        assert summary["regions"]["a"] == "oregon"
        assert "a->b" in summary["links"]
