"""Randomized differential suite for the data-movement engine.

:class:`SSDPlatform` moves operands as contiguous LPA runs;
:class:`tests.random_programs.PerPagePlatform` loops its run methods over
the per-page path and is the batched engine's bit-exact oracle.
Bit-equality -- not float tolerance -- is the contract: the two platforms
must produce *identical* :class:`ExecutionResult` trees.  The golden
scenarios in ``test_batched_movement`` pin both engines to recorded
numbers; this suite covers inputs no registered workload emits.

Three layers:

* property-based sweep points (Hypothesis): random (workload, policy,
  scale, platform-variant roster) combinations run on both engines;
* property-based synthetic programs (Hypothesis): random instruction
  streams (ops, operand overlap, dependency chains) on a small platform,
  an eviction-heavy platform whose windows hold a few pages, and an aged
  drive with the background GC engine live;
* the sweep-cache key: pinned for the default platform, and still
  separating platform knobs.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common import KIB
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.experiments import ExperimentConfig, ExperimentRunner, \
    platform_variant
from repro.experiments.runner import RunSpec, run_spec_key
from repro.ssd.config import small_ssd_config
from repro.workloads import workload_by_name

from tests.random_programs import (INSTRUCTION, PerPagePlatform,
                                   assert_bit_equal, build_program,
                                   execute_on, small_config)


class TestRandomSweepPoints:
    """Random rosters / scales / policies: run-batched == per-page."""

    @given(workload=st.sampled_from(["AES", "XOR Filter", "jacobi-1d"]),
           policy=st.sampled_from(["Conduit", "DM-Offloading", "PuD-SSD",
                                   "Ideal", "CPU"]),
           scale=st.sampled_from([0.02, 0.05]),
           variant=st.sampled_from(["default", "multicore-isp", "cxl-pud"]))
    @settings(max_examples=10, deadline=None)
    def test_engines_bit_equal(self, workload, policy, scale, variant):
        platform = platform_variant(variant)
        runner = ExperimentRunner(
            ExperimentConfig(workload_scale=scale, platform=platform))
        unit = workload_by_name(workload, scale=scale)
        batched = runner.run(unit, policy)
        per_page = execute_on(PerPagePlatform(platform),
                              runner.program_for(unit), policy, unit.name)
        assert_bit_equal(batched, per_page)


def _eviction_heavy_config() -> PlatformConfig:
    """Windows of a few pages: almost every moving segment would evict, so
    ``_transfer_segment`` takes its per-page fallback."""
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=16 * KIB,
                          sram_window_bytes=8 * KIB,
                          host_cache_bytes=16 * KIB)


def _aged_config() -> PlatformConfig:
    """The near-EOL drive with the background GC/wear engine live."""
    return platform_variant("default-aged")


PLATFORMS = {"small": small_config,
             "eviction-heavy": _eviction_heavy_config,
             "aged": _aged_config}


class TestRandomPrograms:
    """Random instruction streams: run-batched == per-page movement."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=16),
           policy=st.sampled_from(["ISP", "PuD-SSD", "Flash-Cosmos"]))
    @settings(max_examples=12, deadline=None)
    def test_engines_bit_equal(self, stream, policy):
        """Fixed-target policies drive every operand to one resource, so
        each movement destination is exercised regardless of what the
        cost model would pick."""
        program = build_program(stream)
        assert_bit_equal(
            *(execute_on(platform_class(small_config()), program, policy)
              for platform_class in (SSDPlatform, PerPagePlatform)))

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=16),
           platform=st.sampled_from(sorted(PLATFORMS)),
           policy=st.sampled_from(["Conduit", "DM-Offloading"]))
    @settings(max_examples=12, deadline=None)
    def test_batched_object_engine_matches_per_page_reference(
            self, stream, platform, policy):
        program = build_program(stream)
        config = PLATFORMS[platform]()
        assert_bit_equal(
            *(execute_on(platform_class(config), program, policy)
              for platform_class in (SSDPlatform, PerPagePlatform)))


class TestCacheKeyIdentity:
    """The default platform's key is pinned; platform knobs stay keyed."""

    def test_engine_flag_excluded_from_run_spec_key(self):
        """No movement-engine flag enters the key, so the default
        platform's key moves only when ``PlatformConfig``'s own fields
        change."""
        assert run_spec_key(RunSpec("AES", 0.05, "Conduit",
                                    PlatformConfig())) == (
            "c073c5a080e4d96eec54eb6cea9cfb071341d75106c605865a6384fbe5449264")

    def test_other_platform_knobs_still_keyed(self):
        base = ExperimentConfig(workload_scale=0.05).platform
        wider = dataclasses.replace(
            base, dram_compute_window_bytes=2 * base.dram_compute_window_bytes)
        assert (run_spec_key(RunSpec("AES", 0.05, "Conduit", base))
                != run_spec_key(RunSpec("AES", 0.05, "Conduit", wider)))
