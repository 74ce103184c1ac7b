"""End-to-end tests: offloader + runtimes executing whole programs."""

import pytest

from repro.common import MIB, OpType, Resource
from repro.core.metrics import energy_reduction, geometric_mean, speedup
from repro.core.offload.policies import make_policy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.core.runtime import ConduitRuntime, HostRuntime
from repro.ssd.config import small_ssd_config


def run(program, policy_name, platform_config):
    platform = SSDPlatform(platform_config)
    if policy_name in ("CPU", "GPU"):
        device = (Resource.HOST_CPU if policy_name == "CPU"
                  else Resource.HOST_GPU)
        return HostRuntime(platform).execute(program, device)
    return ConduitRuntime(platform).execute(program,
                                            make_policy(policy_name))


class TestConduitRuntime:
    def test_executes_every_instruction(self, tiny_vector_program,
                                        platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert result.instructions == len(tiny_vector_program)
        assert result.total_time_ns > 0
        assert result.total_energy_nj > 0

    def test_dependencies_are_respected(self, tiny_vector_program,
                                        platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        completion = {record.uid: record.end_ns for record in result.records}
        for instruction in tiny_vector_program.instructions:
            for dep in instruction.depends_on:
                assert completion[dep] <= \
                    completion[instruction.uid] + 1e-6

    def test_records_are_internally_consistent(self, tiny_vector_program,
                                               platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        for record in result.records:
            assert record.end_ns >= record.start_ns >= 0
            assert record.latency_ns >= record.compute_ns
            assert record.queue_wait_ns >= 0

    def test_only_ssd_resources_are_used(self, tiny_vector_program,
                                         platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert all(record.resource.is_in_ssd for record in result.records)

    def test_isp_only_policy_uses_only_isp(self, tiny_vector_program,
                                           platform_config):
        result = run(tiny_vector_program, "ISP", platform_config)
        fractions = result.ssd_resource_fractions()
        assert fractions[Resource.ISP] == pytest.approx(1.0)

    def test_ideal_is_fastest(self, tiny_vector_program, platform_config):
        ideal = run(tiny_vector_program, "Ideal", platform_config)
        for policy in ("Conduit", "ISP", "DM-Offloading"):
            other = run(tiny_vector_program, policy, platform_config)
            assert ideal.total_time_ns <= other.total_time_ns

    def test_offload_overhead_within_paper_band(self, tiny_vector_program,
                                                platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        # Paper: 3.77 us average, up to 33 us.
        assert 0.5 < result.offload_overhead_avg_ns / 1000.0 < 40.0

    def test_binary_transfer_adds_setup_time(self, tiny_vector_program,
                                             platform_config):
        platform = SSDPlatform(platform_config)
        with_transfer = ConduitRuntime(platform).execute(
            tiny_vector_program, make_policy("Conduit"))
        assert platform.ssd.nvme.latest_binary is not None
        assert with_transfer.total_time_ns > 0

    def test_empty_program_rejected(self, platform_config):
        from repro.core.compiler.ir import VectorProgram
        runtime = ConduitRuntime(SSDPlatform(platform_config))
        with pytest.raises(Exception):
            runtime.execute(VectorProgram("empty"), make_policy("Conduit"))

    def test_ssd_returns_to_regular_io_mode(self, tiny_vector_program,
                                            platform_config):
        platform = SSDPlatform(platform_config)
        ConduitRuntime(platform).execute(tiny_vector_program,
                                         make_policy("Conduit"))
        from repro.ssd.nvme import SSDMode
        assert platform.ssd.mode is SSDMode.REGULAR_IO


class TestHostRuntime:
    def test_cpu_execution(self, tiny_vector_program, platform_config):
        result = run(tiny_vector_program, "CPU", platform_config)
        assert result.policy == "CPU"
        assert all(record.resource is Resource.HOST_CPU
                   for record in result.records)
        assert result.breakdown.host_data_movement_ns > 0

    def test_gpu_rejects_non_host_device(self, tiny_vector_program,
                                         platform_config):
        runtime = HostRuntime(SSDPlatform(platform_config))
        with pytest.raises(Exception):
            runtime.execute(tiny_vector_program, Resource.IFP)

    def test_host_energy_includes_pcie_movement(self, tiny_vector_program,
                                                platform_config):
        result = run(tiny_vector_program, "CPU", platform_config)
        assert result.energy.per_transfer_kind_nj.get("pcie", 0.0) > 0


class TestMetricsHelpers:
    def test_speedup_and_energy_reduction(self, tiny_vector_program,
                                          platform_config):
        cpu = run(tiny_vector_program, "CPU", platform_config)
        ideal = run(tiny_vector_program, "Ideal", platform_config)
        assert speedup(cpu, ideal) > 1.0
        assert energy_reduction(cpu, ideal) > 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_tail_latency_percentiles_ordered(self, tiny_vector_program,
                                              platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert result.p9999_latency_ns >= result.p99_latency_ns > 0

    def test_timeline_shape(self, tiny_vector_program, platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        timeline = result.timeline(limit=10)
        assert len(timeline) == 10
        assert {"index", "uid", "op", "resource", "start_ns",
                "end_ns"} <= set(timeline[0])

    def test_timeline_zero_limit_is_empty(self, tiny_vector_program,
                                          platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert result.timeline(limit=0) == []
        assert len(result.timeline()) == result.instructions

    def test_timeline_negative_limit_rejected(self, tiny_vector_program,
                                              platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        with pytest.raises(ValueError, match="limit"):
            result.timeline(limit=-1)
