"""Unit tests for the parallel sharded sweep engine.

Covers the pickle-able :class:`RunSpec` unit of work, the stable cache
key, the on-disk result cache and the columnar encoding of its entries'
records, worker-count resolution (including the
``REPRO_SWEEP_WORKERS`` CI override) and the core guarantee: a parallel
sweep returns the same grid, in the same order, with bit-identical
results, as a serial sweep.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import MIB, BackendId, OpType, Resource
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                InstructionRecord)
from repro.core.platform import PlatformConfig
from repro.energy.model import EnergyBreakdown
from repro.experiments import (DEFAULT_SWEEP_CACHE_DIR, ExperimentConfig,
                               ExperimentRunner, RunSpec, SweepCache,
                               default_sweep_cache_dir, execute_run_spec,
                               platform_variant, resolve_sweep_workers,
                               run_spec_key)
from repro.experiments.runner import SWEEP_CACHE_ENV, SWEEP_WORKERS_ENV
from repro.ssd.config import small_ssd_config
from repro.workloads import Jacobi1DWorkload, workload_by_name

TINY_SCALE = 0.03

TIME_FIELDS = ("dispatch_ns", "ready_ns", "start_ns", "end_ns",
               "compute_ns", "data_movement_ns", "overhead_ns")


def synthetic_result(records) -> ExecutionResult:
    return ExecutionResult(
        workload="synthetic", policy="Conduit", total_time_ns=1.0,
        records=list(records),
        energy=EnergyBreakdown(1.0, 2.0, {"isp": 1.0}, {"flash": 2.0}),
        breakdown=ExecutionBreakdown(compute_ns=1.0))


def old_format_pickle(result: ExecutionResult) -> bytes:
    """``result`` pickled the way entries were written before the columnar
    encoding: the generic dataclass path, one record object at a time."""

    class GenericPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is ExecutionResult:
                return copyreg.__newobj__, (ExecutionResult,), obj.__dict__
            return NotImplemented

    stream = io.BytesIO()
    GenericPickler(stream, protocol=pickle.HIGHEST_PROTOCOL).dump(result)
    return stream.getvalue()


def mismatched_columns_pickle() -> bytes:
    """A columnar entry whose last time column lost its final value."""
    record = InstructionRecord(0, OpType.ADD, Resource.ISP,
                               0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 0.0)
    rebuild, (state, *columns) = synthetic_result(
        [record, replace(record, uid=1)]).__reduce__()
    columns[-1] = columns[-1][:1]

    class Reduced:
        def __reduce__(self):
            return rebuild, (state, *columns)

    return pickle.dumps(Reduced(), protocol=pickle.HIGHEST_PROTOCOL)


def record_bits(result: ExecutionResult):
    """Every record field, with floats as their exact IEEE value."""
    return [(r.uid, r.op, r.resource,
             *(float.hex(getattr(r, name)) for name in TIME_FIELDS))
            for r in result.records]


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    platform = PlatformConfig(ssd=small_ssd_config(),
                              dram_compute_window_bytes=1 * MIB,
                              sram_window_bytes=256 * 1024,
                              host_cache_bytes=1 * MIB)
    return ExperimentConfig(workload_scale=TINY_SCALE, platform=platform)


def result_fingerprint(result):
    """Every field the golden suite cares about, as a comparable tuple."""
    return (
        result.workload, result.policy, result.total_time_ns,
        result.total_energy_nj, result.energy.compute_nj,
        result.energy.data_movement_nj,
        result.breakdown.compute_ns,
        result.breakdown.host_data_movement_ns,
        result.breakdown.internal_data_movement_ns,
        result.breakdown.flash_read_ns,
        result.offload_overhead_avg_ns, result.offload_overhead_max_ns,
        tuple((r.uid, r.op, r.resource, r.dispatch_ns, r.ready_ns,
               r.start_ns, r.end_ns, r.compute_ns, r.data_movement_ns,
               r.overhead_ns) for r in result.records),
    )


class TestRunSpec:
    def test_round_trips_through_pickle(self, tiny_config):
        spec = RunSpec(workload="jacobi-1d", scale=TINY_SCALE,
                       policy="Conduit", platform=tiny_config.platform)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_key_is_stable_and_sensitive(self, tiny_config):
        spec = RunSpec(workload="jacobi-1d", scale=TINY_SCALE,
                       policy="Conduit", platform=tiny_config.platform)
        assert run_spec_key(spec) == run_spec_key(
            pickle.loads(pickle.dumps(spec)))
        assert run_spec_key(spec) != run_spec_key(
            replace(spec, policy="Ideal"))
        assert run_spec_key(spec) != run_spec_key(replace(spec, scale=0.06))
        wider = replace(tiny_config.platform,
                        dram_compute_window_bytes=2 * MIB)
        assert run_spec_key(spec) != run_spec_key(
            replace(spec, platform=wider))

    def test_execute_run_spec_matches_runner_run(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workload = Jacobi1DWorkload(scale=TINY_SCALE)
        direct = runner.run(workload, "Conduit")
        from_spec = execute_run_spec(runner.spec_for(workload, "Conduit"))
        assert result_fingerprint(direct) == result_fingerprint(from_spec)


class TestParallelSweep:
    POLICIES = ("CPU", "DM-Offloading", "Conduit")

    def test_parallel_equals_serial_in_order_and_value(self, tiny_config):
        serial = ExperimentRunner(tiny_config).sweep(self.POLICIES)
        parallel = ExperimentRunner(tiny_config).sweep(
            self.POLICIES, parallel=True, workers=2)
        assert list(serial) == list(parallel)
        for key in serial:
            assert (result_fingerprint(serial[key]) ==
                    result_fingerprint(parallel[key])), key

    def test_grid_order_is_workload_major(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workloads = tiny_config.workloads()[:2]
        results = runner.sweep(("CPU", "Conduit"), workloads,
                               parallel=True, workers=2)
        assert list(results) == [
            (workload.name, policy)
            for workload in workloads for policy in ("CPU", "Conduit")
        ]

    def test_single_worker_parallel_stays_in_process(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        results = runner.sweep(("Conduit",), workloads, parallel=True,
                               workers=1)
        assert runner.last_sweep_stats.workers == 1
        assert runner.last_sweep_stats.executed == 1
        assert (("jacobi-1d", "Conduit")) in results

    def test_unregistered_workload_rejected_in_parallel(self, tiny_config):
        class UnregisteredWorkload(Jacobi1DWorkload):
            name = "jacobi-1d"  # same name, different class

        runner = ExperimentRunner(tiny_config)
        workload = UnregisteredWorkload(scale=TINY_SCALE)
        with pytest.raises(ValueError, match="not reconstructible"):
            runner.sweep(("Conduit",), [workload], parallel=True, workers=2)
        # The serial path still accepts it (no reconstruction needed).
        results = runner.sweep(("Conduit",), [workload])
        assert ("jacobi-1d", "Conduit") in results

    def test_unregistered_workload_rejected_with_cache(self, tiny_config,
                                                       tmp_path):
        class UnregisteredWorkload(Jacobi1DWorkload):
            name = "jacobi-1d"

        # Cache keys identify workloads by name, so even a *serial* cached
        # sweep must reject same-named unregistered workloads: storing
        # their results would poison later sweeps of the real workload.
        runner = ExperimentRunner(tiny_config)
        with pytest.raises(ValueError, match="not reconstructible"):
            runner.sweep(("Conduit",), [UnregisteredWorkload(TINY_SCALE)],
                         cache_dir=str(tmp_path))

    def test_workload_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_by_name("no-such-workload")


class TestSweepCache:
    def test_second_sweep_is_served_from_cache(self, tiny_config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        first = runner.sweep(("CPU", "Conduit"), workloads,
                             cache_dir=cache_dir)
        assert runner.last_sweep_stats.executed == 2
        assert runner.last_sweep_stats.cache_hits == 0
        fresh_runner = ExperimentRunner(tiny_config)
        second = fresh_runner.sweep(("CPU", "Conduit"), workloads,
                                    cache_dir=cache_dir)
        assert fresh_runner.last_sweep_stats.cache_hits == 2
        assert fresh_runner.last_sweep_stats.executed == 0
        for key in first:
            assert (result_fingerprint(first[key]) ==
                    result_fingerprint(second[key]))

    @pytest.mark.parametrize("payload", [
        b"not a pickle",
        b"\x80\x09junk",  # ValueError: unsupported pickle protocol
        b"I1\nI2\nR.",  # TypeError: REDUCE with a non-tuple argument
        mismatched_columns_pickle(),  # ValueError: truncated record column
    ], ids=["not-a-pickle", "bad-protocol", "bad-reduce",
            "mismatched-columns"])
    def test_corrupt_entries_are_recomputed(self, tiny_config, tmp_path,
                                            payload):
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        runner.sweep(("Conduit",), workloads, cache_dir=cache_dir)
        spec = runner.spec_for(workloads[0], "Conduit")
        entry = tmp_path / "cache" / f"{run_spec_key(spec)}.pkl"
        entry.write_bytes(payload)
        runner.sweep(("Conduit",), workloads, cache_dir=cache_dir)
        assert runner.last_sweep_stats.cache_hits == 0
        assert runner.last_sweep_stats.executed == 1

    def test_cache_ignores_wrong_payload_type(self, tiny_config, tmp_path):
        cache = SweepCache(str(tmp_path))
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        path = tmp_path / f"{run_spec_key(spec)}.pkl"
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.load(spec) is None
        assert cache.misses == 1

    def test_store_failure_does_not_leak_temp_file(self, tiny_config,
                                                   tmp_path):
        # pickle.dump raising something other than OSError (here: an
        # unpicklable payload) used to leave the mkstemp file behind; the
        # cleanup now lives in a ``finally`` so the directory stays clean
        # and the error still propagates.
        cache = SweepCache(str(tmp_path))
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        unpicklable = lambda: None  # noqa: E731 - locals never pickle
        with pytest.raises(Exception):
            cache.store(spec, unpicklable)
        assert list(tmp_path.iterdir()) == []


class TestColumnarEntries:
    """Results pickle their records as typed columns, bit-identically."""

    @pytest.fixture(scope="class", params=["default", "isp-cores-2",
                                           "default-aged"])
    def spec_and_result(self, request, tiny_config):
        platform = tiny_config.platform
        if request.param == "isp-cores-2":
            platform = replace(platform, isp_cores=2)
        elif request.param == "default-aged":
            platform = platform_variant("default-aged", base=platform)
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit", platform=platform)
        return request.param, spec, execute_run_spec(spec)

    def test_store_load_round_trip(self, spec_and_result, tmp_path):
        shape, spec, result = spec_and_result
        if shape == "isp-cores-2":
            assert any(isinstance(r.resource, BackendId)
                       for r in result.records)
        if shape == "default-aged":
            assert result.maintenance.drive_age != "fresh"
        cache = SweepCache(str(tmp_path))
        cache.store(spec, result)
        loaded = cache.load(spec)
        assert cache.hits == 1
        assert loaded == result
        assert record_bits(loaded) == record_bits(result)
        assert all(type(getattr(record, name)) is float
                   for record in loaded.records for name in TIME_FIELDS)
        assert all(type(record.uid) is int for record in loaded.records)

    def test_entry_pickled_the_old_way_still_loads(self, spec_and_result,
                                                   tmp_path):
        _, spec, result = spec_and_result
        payload = old_format_pickle(result)
        assert b"_rebuild_execution_result" not in payload
        (tmp_path / f"{run_spec_key(spec)}.pkl").write_bytes(payload)
        loaded = SweepCache(str(tmp_path)).load(spec)
        assert loaded == result
        assert record_bits(loaded) == record_bits(result)

    def test_columnar_entry_is_smaller(self, spec_and_result):
        result = spec_and_result[2]
        assert (len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                < len(old_format_pickle(result)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(
        InstructionRecord,
        st.integers(-2 ** 63, 2 ** 63 - 1),
        st.sampled_from(list(OpType)),
        st.sampled_from([*Resource, BackendId("isp[0]", Resource.ISP),
                         BackendId("cxl-pud", Resource.PUD)]),
        *[st.floats(allow_nan=False) | st.sampled_from(
            [-0.0, float("inf"), float("-inf")])] * len(TIME_FIELDS)),
        max_size=40))
    @example(records=[])
    def test_random_records_round_trip(self, records):
        result = synthetic_result(records)
        loaded = pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        assert loaded == result
        assert record_bits(loaded) == record_bits(result)


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "7")
        assert resolve_sweep_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "5")
        assert resolve_sweep_workers() == 5

    def test_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "1")
        assert resolve_sweep_workers() == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=SWEEP_WORKERS_ENV):
            resolve_sweep_workers()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_sweep_workers(0)

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv(SWEEP_WORKERS_ENV, raising=False)
        assert resolve_sweep_workers() == (os.cpu_count() or 1)


class TestCacheDirResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SWEEP_CACHE_ENV, raising=False)
        assert default_sweep_cache_dir() == DEFAULT_SWEEP_CACHE_DIR

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabled(self, monkeypatch, value):
        monkeypatch.setenv(SWEEP_CACHE_ENV, value)
        assert default_sweep_cache_dir() is None

    def test_custom_directory(self, monkeypatch):
        monkeypatch.setenv(SWEEP_CACHE_ENV, "/tmp/my-sweeps")
        assert default_sweep_cache_dir() == "/tmp/my-sweeps"
