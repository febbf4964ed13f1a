"""Tests for the public run_platform API and result plumbing."""

import gc

import pytest

from repro.cache.page import CacheConfig
from repro.platforms import PreparedWorkload, run_platform
from repro.platforms.datapath import PrepCommand
from repro.platforms.features import PlatformFeatures
from repro.sim import Simulator
from repro.ssd.flash import FlashJob
from repro.ssd import ull_ssd
from repro.workloads import WorkloadSpec, workload_by_name


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.prepare(workload_by_name("ogbn").scaled(1024))


class TestRunPlatformApi:
    def test_accepts_workload_spec_and_scales(self):
        result = run_platform(
            "bg2",
            workload_by_name("ogbn"),
            batch_size=8,
            num_batches=1,
            scaled_nodes=512,
        )
        assert result.workload == "ogbn"
        assert result.total_targets == 8

    def test_accepts_prepared_workload(self, prepared):
        result = run_platform("bg1", prepared, batch_size=8, num_batches=1)
        assert result.platform == "bg1"

    def test_accepts_platform_object(self, prepared):
        from repro.platforms import platform_by_name

        features = platform_by_name("cc")
        result = run_platform(features, prepared, batch_size=8, num_batches=1)
        assert result.platform == "cc"

    def test_page_size_mismatch_rejected(self, prepared):
        config = ull_ssd().with_flash(page_size=8192)
        with pytest.raises(ValueError):
            run_platform("bg2", prepared, ssd_config=config, batch_size=8)

    def test_seed_determinism(self, prepared):
        a = run_platform("bg2", prepared, batch_size=8, num_batches=1, seed=5)
        b = run_platform("bg2", prepared, batch_size=8, num_batches=1, seed=5)
        assert a.total_seconds == pytest.approx(b.total_seconds)
        assert a.meters.get("flash_reads") == b.meters.get("flash_reads")

    def test_different_seed_changes_work(self, prepared):
        a = run_platform("bg2", prepared, batch_size=8, num_batches=1, seed=5)
        b = run_platform("bg2", prepared, batch_size=8, num_batches=1, seed=6)
        # different targets -> almost surely different timing
        assert a.total_seconds != b.total_seconds

    def test_result_summary_fields(self, prepared):
        result = run_platform("bg2", prepared, batch_size=8, num_batches=2)
        summary = result.summary()
        for key in (
            "throughput",
            "prep_s",
            "compute_s",
            "active_dies",
            "active_channels",
            "hop_overlap",
        ):
            assert key in summary

    def test_energy_fields_populated(self, prepared):
        result = run_platform("cc", prepared, batch_size=8, num_batches=1)
        assert result.energy_breakdown
        assert result.meters.get("energy_total_j") > 0
        assert result.meters.get("targets_per_joule") > 0

    def test_utilization_series_shapes(self, prepared):
        result = run_platform("bg2", prepared, batch_size=8, num_batches=1)
        xs, ys = result.die_utilization_series(bins=10)
        assert len(xs) == len(ys) == 10
        assert max(ys) > 0

    def test_hop_and_fanout_knobs(self, prepared):
        small = run_platform(
            "bg2", prepared, batch_size=8, num_batches=1, num_hops=1, fanout=2
        )
        big = run_platform(
            "bg2", prepared, batch_size=8, num_batches=1, num_hops=3, fanout=3
        )
        assert big.meters.get("flash_reads") > small.meters.get("flash_reads")

    @pytest.mark.parametrize(
        "platform, page_cache",
        [("cc", None), ("gids", None), ("bg2", None), ("bg2", CacheConfig(1.0))],
    )
    def test_finished_run_is_freed_without_a_collection(
        self, prepared, platform, page_cache
    ):
        """Finalize breaks the run's reference cycles, so reference counting
        frees its commands, flash jobs and simulator at once."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_platform(
                platform, prepared, batch_size=8, num_batches=2, page_cache=page_cache
            )
            gc.collect()
            leaked = {
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (PrepCommand, FlashJob, Simulator))
            }
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked


class TestPlatformFeatureValidation:
    def test_router_requires_directgraph(self):
        with pytest.raises(ValueError):
            PlatformFeatures(
                name="x",
                description="",
                sampling_site="die",
                direct_graph=False,
                hw_router=True,
                compute_site="in_ssd",
                features_cross_pcie=False,
                structure_cross_pcie=False,
            )

    def test_router_requires_die_sampling(self):
        with pytest.raises(ValueError):
            PlatformFeatures(
                name="x",
                description="",
                sampling_site="firmware",
                direct_graph=True,
                hw_router=True,
                compute_site="in_ssd",
                features_cross_pcie=False,
                structure_cross_pcie=False,
            )

    def test_directgraph_implies_in_ssd_sampling(self):
        with pytest.raises(ValueError):
            PlatformFeatures(
                name="x",
                description="",
                sampling_site="host",
                direct_graph=True,
                hw_router=False,
                compute_site="in_ssd",
                features_cross_pcie=False,
                structure_cross_pcie=True,
            )

    def test_bad_sites_rejected(self):
        with pytest.raises(ValueError):
            PlatformFeatures(
                name="x",
                description="",
                sampling_site="gpu",
                direct_graph=False,
                hw_router=False,
                compute_site="in_ssd",
                features_cross_pcie=False,
                structure_cross_pcie=False,
            )


# case id -> (field the error must name, run fields)
BAD_RUN_SIZES = {
    "num_batches=0": ("num_batches", {"num_batches": 0}),
    "batch_size=0": ("batch_size", {"batch_size": 0}),
    "batch_size=-1": ("batch_size", {"batch_size": -1}),
    "scaled_nodes=0": ("scaled_nodes", {"scaled_nodes": 0}),
    "num_hops=0": ("num_hops", {"num_hops": 0}),
    "fanout=0": ("fanout", {"fanout": 0}),
    "targets_vs_num_batches": ("targets", {"num_batches": 2, "targets": ((1, 2),)}),
}


@pytest.mark.parametrize("entry", ["run_platform", "GridCell", "wire"])
@pytest.mark.parametrize("case", list(BAD_RUN_SIZES))
def test_run_sizes_are_validated_at_the_run_spec(prepared, entry, case):
    """Every way into a run rejects empty or negative sizes up front."""
    from repro.orchestrate import GridCell, wire

    field, bad = BAD_RUN_SIZES[case]
    with pytest.raises(ValueError, match=field):
        if entry == "run_platform":
            run_platform("bg2", prepared, **bad)
        elif entry == "GridCell":
            GridCell("bg2", "ogbn", **bad)
        else:
            job = wire.encode_job((GridCell("bg2", "ogbn"), 0, None))
            job["cell"]["fields"].update(wire.encode_value(bad))
            wire.decode_job(job)
