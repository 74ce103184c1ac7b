"""Differential suite for the offload decision path under live feedback.

Offload decisions take a single per-instruction path
(``SSDOffloader.offload``).  With ``contention_feedback=True`` each
decision reads the live contention of the movement it follows, so the
decisions -- not just their timings -- must come out identical whether
that movement ran on the run-batched engine or on its per-page oracle
(:class:`tests.random_programs.PerPagePlatform`).
Bit-equality -- not float tolerance -- is the contract.

Three layers:

* property-based sweep points (Hypothesis): random (workload, decision
  policy, scale, platform-variant) combinations with feedback on;
* property-based synthetic programs (Hypothesis): random instruction
  streams on a small platform whose window pressure forces evictions;
* the sweep-cache key: pinned for the feedback platform, and still
  separating feedback from the static cost model.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.platform import SSDPlatform
from repro.experiments import ExperimentConfig, ExperimentRunner, \
    platform_variant
from repro.experiments.runner import RunSpec, run_spec_key
from repro.workloads import workload_by_name

from tests.random_programs import (INSTRUCTION, PerPagePlatform,
                                   assert_bit_equal, build_program,
                                   execute_on, small_config)


class TestRandomSweepPoints:
    """Random rosters / scales / decision policies with feedback on."""

    @given(workload=st.sampled_from(["AES", "XOR Filter", "jacobi-1d"]),
           policy=st.sampled_from(["Conduit", "DM-Offloading", "Ideal"]),
           scale=st.sampled_from([0.02, 0.05]),
           variant=st.sampled_from(["default", "multicore-isp", "cxl-pud"]))
    @settings(max_examples=10, deadline=None)
    def test_engines_bit_equal(self, workload, policy, scale, variant):
        platform = dataclasses.replace(platform_variant(variant),
                                       contention_feedback=True)
        runner = ExperimentRunner(
            ExperimentConfig(workload_scale=scale, platform=platform))
        unit = workload_by_name(workload, scale=scale)
        batched = runner.run(unit, policy)
        per_page = execute_on(PerPagePlatform(platform),
                              runner.program_for(unit), policy, unit.name)
        assert_bit_equal(batched, per_page)


class TestRandomPrograms:
    """Random instruction streams with feedback on."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=24),
           policy=st.sampled_from(["Conduit", "DM-Offloading"]))
    @settings(max_examples=15, deadline=None)
    def test_engines_bit_equal(self, stream, policy):
        program = build_program(stream)
        config = small_config(contention_feedback=True)
        assert_bit_equal(
            *(execute_on(platform_class(config), program, policy)
              for platform_class in (SSDPlatform, PerPagePlatform)))


class TestCacheKeyIdentity:
    """Feedback stays in the key; the feedback platform's key is pinned."""

    def test_engine_flag_excluded_from_run_spec_key(self):
        """The decision path has no engine flag of its own, so the key of
        the feedback platform moves only when ``PlatformConfig``'s own
        fields change."""
        base = ExperimentConfig(workload_scale=0.05).platform
        feedback = dataclasses.replace(base, contention_feedback=True)
        assert run_spec_key(RunSpec("AES", 0.05, "Conduit", feedback)) == (
            "d6da7e9af5e3bf9e9978953bd6234da55b642bc0cc4aebeb81ae1faa52667899")

    def test_other_platform_knobs_still_keyed(self):
        base = ExperimentConfig(workload_scale=0.05).platform
        feedback = dataclasses.replace(base, contention_feedback=True)
        assert (run_spec_key(RunSpec("AES", 0.05, "Conduit", base))
                != run_spec_key(RunSpec("AES", 0.05, "Conduit", feedback)))
