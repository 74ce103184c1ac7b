"""One benchmark process: set-up, a cold pass and a warm pass.

    PYTHONPATH=src python3 perfbench/passes.py --workload NAME --seed N \
        --work-dir DIR [--trace-out FILE] [--setup-only]

This is what a CLI user gets on a first run and a re-run: import ``repro``
and populate its registries (timed as set-up), run the workload's
experiment through ``run_experiment`` serially into a fresh, empty
sweep-cache directory (the cold pass), then run the same call against
that cache (the warm pass, repeated while it is short so its median is
steady).  The process prints one JSON line with the timings, peak RSS,
a digest per simulated unit and the simulated-time totals.  With
``--trace-out`` the passes run under :class:`tracing.Tracer` and the
spans are written to that file.

Every time is reported twice: raw wall-clock, and host-speed corrected
by :class:`SpeedProbe` (the figure ``run.py`` reports).

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and every ``REPRO_*`` variable removed; it refuses to measure a
``repro`` imported from anywhere else.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from array import array
from itertools import chain
from operator import attrgetter

#: One warm sample is the mean of back-to-back warm passes that together
#: take at least WARM_BATCH_S; a short pass holds too few speed probes to
#: correct on its own.  Samples repeat until there are WARM_MIN_SAMPLES of
#: them and the warm passes took WARM_MIN_SECONDS.
WARM_BATCH_S = 0.25
WARM_MIN_SAMPLES = 5
WARM_MIN_SECONDS = 1.5


#: The timing fields of an ``InstructionRecord``, in digest order.
_RECORD_TIMES = attrgetter("dispatch_ns", "ready_ns", "start_ns", "end_ns",
                           "compute_ns", "data_movement_ns", "overhead_ns")


#: Wall-clock between two speed probes, and the probe's fixed loop length.
PROBE_INTERVAL_S = 0.005
PROBE_LOOP = 300
#: Probe duration that defines the reference host speed: corrected times
#: are what a region would take on a host where one probe takes this long.
REFERENCE_PROBE_NS = 20_000


class SpeedProbe:
    """Host CPU speed, sampled in this thread while the work runs.

    On a shared host the speed of one core swings by up to 1.7x within
    seconds as other tenants come and go, so wall-clock alone varies
    ~20% from one run to the next.  Every ``PROBE_INTERVAL_S`` a SIGALRM
    handler times the same ``PROBE_LOOP``-step loop between two bytecodes
    of the measured work.  A region's corrected time is its wall-clock,
    less the probes inside it, scaled by ``REFERENCE_PROBE_NS`` over the
    mean probe duration inside it.  Probes sampled between bytecodes of
    the same work track its slowdown (measured: per-process spread of the
    report's cold pass 19% raw, 2.3% corrected); probes taken before or
    after a pass do not.
    """

    def __init__(self) -> None:
        #: (start_ns, duration_ns) of every probe.
        self.samples = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        acc = 0
        for step in range(PROBE_LOOP):
            acc += step * step % 7
        self.samples.append((start, time.perf_counter_ns() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def seconds(self, *regions):
        """(corrected, raw) seconds of the (start_ns, end_ns) regions."""
        inside = [duration for begin, duration in self.samples
                  if any(start <= begin < end for start, end in regions)]
        # Regions too short to hold a probe take the process's speed.
        speed = statistics.fmean(inside or [d for _, d in self.samples])
        raw = sum(end - start for start, end in regions) / 1e9
        own = raw - sum(inside) / 1e9
        return own * REFERENCE_PROBE_NS / speed, raw


def setup(src: str):
    """Import ``repro`` and populate its registries; returns the region
    (start_ns, end_ns)."""
    start = time.perf_counter_ns()
    import repro
    from repro.experiments.platforms import available_platform_variants
    from repro.experiments.registry import available_experiments
    from repro.workloads import available_workloads
    available_experiments()
    available_workloads()
    available_platform_variants()
    end = time.perf_counter_ns()
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {src}")
    return start, end


def _canonical(value):
    """JSON-stable, exact form of a result field (floats by repr)."""
    if dataclasses.is_dataclass(value):
        return [[f.name, _canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return sorted([str(key), _canonical(item)]
                      for key, item in value.items())
    if isinstance(value, float):
        return repr(value)
    return getattr(value, "value", value)


def unit_digest(result) -> str:
    """sha256 over everything a unit simulated: totals, energy, the
    time breakdown, maintenance stats and every instruction record
    (record floats hashed as their exact IEEE-754 bytes)."""
    records = result.records
    digest = hashlib.sha256(json.dumps([
        result.workload, result.policy, repr(result.total_time_ns),
        repr(result.offload_overhead_avg_ns),
        repr(result.offload_overhead_max_ns), len(records),
        _canonical(result.energy), _canonical(result.breakdown),
        _canonical(result.maintenance)]).encode())
    digest.update(array("q", [r.uid for r in records]).tobytes())
    digest.update(array("d", chain.from_iterable(
        map(_RECORD_TIMES, records))).tobytes())
    digest.update(" ".join(
        f"{r.op.value}@{getattr(r.resource, 'value', r.resource)}"
        for r in records).encode())
    return digest.hexdigest()[:24]


def digests(grid):
    """``workload|policy|platform`` -> [digest, record count]."""
    return {"|".join(key): [unit_digest(result), len(result.records)]
            for key, result in grid.items()}


def simulated_totals(workload, grid):
    """Simulated-time totals and counts over the cold pass's units."""
    from workloads import AGE_SLOTS, conduit_over_cpu, fresh_platform
    results = list(grid.values())
    maintained = [r.maintenance for r in results if r.maintenance]
    totals = {
        "sim.compute_ms": sum(r.breakdown.compute_ns for r in results),
        "sim.internal_movement_ms": sum(
            r.breakdown.internal_data_movement_ns for r in results),
        "sim.host_movement_ms": sum(
            r.breakdown.host_data_movement_ns for r in results),
        "sim.flash_read_ms": sum(r.breakdown.flash_read_ns for r in results),
        "sim.queue_wait_ms": sum(record.queue_wait_ns for r in results
                                 for record in r.records),
    }
    totals = {name: ns / 1e6 for name, ns in totals.items()}
    for suffix, variant in AGE_SLOTS:
        totals["sim.conduit_over_cpu_x" + suffix] = conduit_over_cpu(
            grid, variant or fresh_platform(workload))
    totals["lifetime.gc_relocated_pages"] = sum(
        m.gc_relocated_pages for m in maintained)
    totals["lifetime.gc_erased_blocks"] = sum(
        m.gc_erased_blocks for m in maintained)
    totals["lifetime.wl_migrated_pages"] = sum(
        m.wl_migrated_pages for m in maintained)
    totals["lifetime.write_amplification"] = (
        statistics.fmean(m.write_amplification for m in maintained)
        if maintained else 1.0)
    return totals


def cache_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    probe = SpeedProbe()
    probe.start()
    setup_s, setup_raw_s = probe.seconds(setup(src))
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        probe.stop()
        print(json.dumps(out))
        return 0

    import workloads
    from repro.experiments import registry
    from repro.experiments.runner import ExperimentConfig
    workload = workloads.WORKLOADS[args.workload]
    reseeded = workloads.reseed_aged_variants(args.seed)

    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def run_pass(cache_dir):
        config = ExperimentConfig(workload_scale=workload.scale)
        start = time.perf_counter_ns()
        result = registry.run_experiment(workload.experiment, config,
                                         parallel=False, cache_dir=cache_dir)
        return (start, time.perf_counter_ns()), result

    out["reseeded"] = list(reseeded)
    passes = {}
    with tempfile.TemporaryDirectory(prefix="sweep_cache_",
                                     dir=args.work_dir) as cache_dir:
        cold_region, cold = run_pass(cache_dir)
        # Peak through set-up and the cold pass: what a first run costs,
        # before this process starts holding cold and warm grids at once.
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            passes["cold"] = tracer.export()
            layers = {"cold": tracer.layer_totals()}
            counts = dict(tracer.counts)
            tracer.reset()
        out["sweep_s"], out["sweep_raw_s"] = probe.seconds(cold_region)
        out["cache_bytes"] = cache_bytes(cache_dir)
        cold_grid = cold.grid
        out["units"] = digests(cold_grid)
        out["instructions"] = sum(len(r.records) for r in cold_grid.values())
        out["paper_gap_pct"] = workloads.paper_gap_pct(workload, cold_grid)
        out["sim"] = simulated_totals(workload, cold_grid)
        del cold
        warm_times, warm_raw, mismatched = [], [], set()
        warm_total_s = 0.0
        while len(warm_times) < WARM_MIN_SAMPLES \
                or warm_total_s < WARM_MIN_SECONDS:
            batch, batch_s = [], 0.0
            while batch_s < WARM_BATCH_S:
                warm_region, warm = run_pass(cache_dir)
                batch.append(warm_region)
                batch_s += (warm_region[1] - warm_region[0]) / 1e9
                # Field-by-field equality: every float, record and counter.
                mismatched.update("|".join(key) for key in
                                  cold_grid.keys() | warm.grid.keys()
                                  if cold_grid.get(key) != warm.grid.get(key))
                del warm
                if tracer:
                    break
            rerun_s, rerun_raw_s = probe.seconds(*batch)
            warm_times.append(rerun_s / len(batch))
            warm_raw.append(rerun_raw_s / len(batch))
            warm_total_s += batch_s
            if tracer:
                # One traced warm pass is the per-layer sample.
                passes["warm"] = tracer.export()
                layers["warm"] = tracer.layer_totals()
                tracer.uninstall()
                break
    probe.stop()
    out["warm_s"] = warm_times
    out["warm_raw_s"] = warm_raw
    out["warm_mismatch"] = sorted(mismatched)
    if tracer:
        out["layers"] = layers
        out["counts"] = counts
        with open(args.trace_out, "w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "passes": passes, "skipped": tracer.skipped},
                      handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
