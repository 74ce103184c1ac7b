"""Benchmark of the Conduit simulator: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin

Run from anywhere; the checkout is the directory above this one and the
simulator is imported from its ``src``.  Each measurement is one
``passes.py`` process doing what a CLI user gets on a first run and a
re-run (see that file); processes repeat until ``--seconds`` is spent and
every metric is a median over them.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` alternates untraced and traced processes and prints
the per-layer metrics plus the tracing overhead.  End-to-end times are
corrected for host-speed drift (see ``passes.SpeedProbe``); the raw
wall-clock samples are kept in ``out/history.jsonl``.

Every unit's simulated outputs are checked: against the digests pinned in
``expected.json`` (seed 0 pins every unit; other seeds pin the units the
seed cannot change and the record count of the rest), warm pass against
cold pass, process against process, and traced against untraced.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it, and ``out/history.jsonl``, carry the full result stamped with
the commit, source hash, Python version, usable CPUs and host.
``--pin`` re-records ``expected.json`` at seed 0 after an intentional
change to the timing model.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 7
#: A whole run must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "sweep_s": "s", "sim_instr_per_s": "1/s", "rerun_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "unit_ok_frac": "fraction",
    "paper_gap_pct": "%",
}

#: Per-layer metric -> (unit, pass, layer, field) for span aggregates;
#: field 0 is calls, 2 is self seconds.
LAYER_SPANS = {
    "compiler.calls": ("count", "cold", "compiler", 0),
    "compiler.self_s": ("s", "cold", "compiler", 2),
    "platform_build.self_s": ("s", "cold", "platform_build", 2),
    "aging.self_s": ("s", "cold", "aging", 2),
    "dataset.self_s": ("s", "cold", "dataset", 2),
    "runtime.self_s": ("s", "cold", "runtime", 2),
    "offload.calls": ("count", "cold", "offload", 0),
    "offload.self_s": ("s", "cold", "offload", 2),
    "offload.features_s": ("s", "cold", "offload.features", 2),
    "offload.transform_s": ("s", "cold", "offload.transform", 2),
    "movement.calls": ("count", "cold", "movement", 0),
    "movement.self_s": ("s", "cold", "movement", 2),
    "coherence.self_s": ("s", "cold", "coherence", 2),
    "backends.calls": ("count", "cold", "backends", 0),
    "backends.self_s": ("s", "cold", "backends", 2),
    "host.self_s": ("s", "cold", "host", 2),
    "lifetime.pulse_calls": ("count", "cold", "lifetime.pulse", 0),
    "lifetime.pulse_s": ("s", "cold", "lifetime.pulse", 2),
    "sweep_cache.loads": ("count", "cold", "sweep_cache.load", 0),
    "sweep_cache.stores": ("count", "cold", "sweep_cache.store", 0),
    "sweep_cache.load_s": ("s", "cold", "sweep_cache.load", 2),
    "sweep_cache.store_s": ("s", "cold", "sweep_cache.store", 2),
    "registry.self_s": ("s", "cold", "registry", 2),
    "sweep.self_s": ("s", "cold", "sweep", 2),
    "warm.sweep_cache.load_s": ("s", "warm", "sweep_cache.load", 2),
    "warm.registry.self_s": ("s", "warm", "registry", 2),
    "warm.sweep.self_s": ("s", "warm", "sweep", 2),
    "warm.compiler.self_s": ("s", "warm", "compiler", 2),
}

#: Per-layer metrics read from simulated state (exact for a seed).
LAYER_EXACT = {
    "movement.pages_requested": "count", "movement.pages_moved": "count",
    "movement.resident_hit_ratio": "fraction",
    "movement.evictions": "count", "movement.writeback_pages": "count",
    "sweep_cache.hit_ratio": "fraction", "sweep_cache.bytes": "bytes",
    "lifetime.gc_relocated_pages": "count",
    "lifetime.gc_erased_blocks": "count",
    "lifetime.wl_migrated_pages": "count",
    "lifetime.write_amplification": "ratio",
    "sim.compute_ms": "ms", "sim.internal_movement_ms": "ms",
    "sim.host_movement_ms": "ms", "sim.flash_read_ms": "ms",
    "sim.queue_wait_ms": "ms",
    **{"sim.conduit_over_cpu_x" + suffix: "x"
       for suffix, _ in workloads.AGE_SLOTS},
}

#: Per-layer metrics of the traced-versus-untraced comparison.
LAYER_TRACING = {"traced.sweep_s": "s", "traced.rerun_s": "s",
                 "tracing.overhead_pct": "%"}


class ChildFailed(RuntimeError):
    pass


def child_env():
    """The environment of a measured process: ``repro`` from this
    checkout's ``src`` only, and no ``REPRO_*`` knob (sweep workers, sweep
    cache, benchmark scale) that could change what is measured."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, deadline):
    command = [sys.executable, os.path.join(HERE, "passes.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected(workload):
    with open(EXPECTED) as handle:
        return json.load(handle)[workload]


def failed_units(sample, reference, expected, seeded):
    """Units of one process whose outputs are wrong.

    A unit is wrong if it is missing or unexpected, if its digest differs
    from the pinned one (or, for a unit the seed moved, if its record count
    differs), if it differs from the same unit in the reference process, or
    if a warm pass returned something other than the cold pass.
    """
    units = sample["units"]
    bad = set(sample["warm_mismatch"])
    bad.update(units.keys() ^ expected.keys())
    for key, (digest, records) in units.items():
        pinned = expected.get(key)
        if pinned is None:
            continue
        if key.split("|")[-1] in seeded:
            if records != pinned[1]:
                bad.add(key)
        elif digest != pinned[0]:
            bad.add(key)
        if reference["units"].get(key) != [digest, records]:
            bad.add(key)
    return bad


def median_of(samples, key):
    return statistics.median(sample[key] for sample in samples)


def end_to_end(untraced):
    return {
        "sweep_s": median_of(untraced, "sweep_s"),
        "sim_instr_per_s": statistics.median(
            s["instructions"] / s["sweep_s"] for s in untraced),
        "rerun_s": statistics.median(t for s in untraced
                                     for t in s["warm_s"]),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "paper_gap_pct": untraced[0]["paper_gap_pct"],
    }


def per_layer(traced, untraced):
    metrics = {}
    for name, (_, pass_name, layer, field) in LAYER_SPANS.items():
        values = [s["layers"][pass_name].get(layer, (0, 0.0, 0.0))[field]
                  for s in traced]
        metrics[name] = statistics.median(values)
    first = traced[0]
    counts = first["counts"]
    requested = counts.get("movement.pages_requested", 0)
    moved = counts.get("movement.pages_moved", 0)
    loads = first["layers"]["cold"].get("sweep_cache.load", (0,))[0]
    metrics.update(first["sim"])
    metrics.update({
        "movement.pages_requested": requested,
        "movement.pages_moved": moved,
        "movement.resident_hit_ratio": (1.0 - moved / requested
                                        if requested else 0.0),
        "movement.evictions": counts.get("movement.evictions", 0),
        "movement.writeback_pages": counts.get("movement.writeback_pages",
                                               0),
        "sweep_cache.hit_ratio": (counts.get("sweep_cache.hits", 0) / loads
                                  if loads else 0.0),
        "sweep_cache.bytes": first["cache_bytes"],
        # Raw wall-clock, the same clock as the layer self times above.
        "traced.sweep_s": median_of(traced, "sweep_raw_s"),
        "traced.rerun_s": statistics.median(t for s in traced
                                            for t in s["warm_raw_s"]),
        "tracing.overhead_pct": 100.0 * (median_of(traced, "sweep_s") /
                                         median_of(untraced, "sweep_s")
                                         - 1.0),
    })
    return metrics


def measure(workload, seed, seconds, trace, work_dir):
    """Run measured processes until ``seconds`` is spent; returns
    (untraced samples, traced samples, setup samples, crashed count).

    A process that exits with an error (a unit raised, or it ran out of
    time) is counted in ``crashed`` and measuring goes on; traced process
    ``i`` writes its spans to ``spans-<i>.json`` in ``work_dir``.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload.name, "--seed", str(seed),
            "--work-dir", work_dir]
    untraced, traced, errors = [], [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        try:
            untraced.append(run_child(base, deadline))
            if trace:
                spans = os.path.join(work_dir, f"spans-{len(traced)}.json")
                traced.append(run_child(base + ["--trace-out", spans],
                                        deadline))
        except ChildFailed as error:
            errors.append(error)
            print(f"measured process failed: {error}", file=sys.stderr)
        spent = time.monotonic() - start
        if spent + (time.monotonic() - began) > seconds:
            break
    if not untraced or (trace and not traced):
        raise errors[0]
    setup = [{key: sample[key] for key in ("setup_s", "setup_raw_s")}
             for sample in untraced + traced]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(base + ["--setup-only"], deadline))
    return untraced, traced, setup, len(errors)


def stamp():
    """Where and on what the numbers were measured."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC,
                                                              "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "machine": platform.machine(),
        "unix_time": time.time(),
    }


def benchmark(workload, seed, seconds, trace, work_dir):
    """Measure, check every unit, print and record the result."""
    untraced, traced, setup, crashed = measure(workload, seed, seconds,
                                               trace, work_dir)
    expected = load_expected(workload.name)
    seeded = set(untraced[0]["reseeded"])
    # Every unit of a crashed process counts as attempted and failed.
    attempted = failed = crashed * len(expected)
    for sample in untraced + traced:
        attempted += len(expected.keys() | sample["units"].keys())
        failed += len(failed_units(sample, untraced[0], expected, seeded))
    if trace:
        values = per_layer(traced, untraced)
        units = {**{name: spec[0] for name, spec in LAYER_SPANS.items()},
                 **LAYER_EXACT, **LAYER_TRACING}
    else:
        values = end_to_end(untraced)
        values["setup_s"] = median_of(setup, "setup_s")
        values["unit_ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "processes": len(untraced) + len(traced),
              "crashed_processes": crashed,
              "samples": {
                  **{key: [s[key] for s in setup]
                     for key in ("setup_s", "setup_raw_s")},
                  **{key: [s[key] for s in untraced]
                     for key in ("sweep_s", "sweep_raw_s", "warm_s",
                                 "warm_raw_s")},
                  "traced_sweep_s": [s["sweep_s"] for s in traced]},
              "stamp": stamp(), **result}
    if trace:
        kept = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.json")
        shutil.move(os.path.join(work_dir, "spans-0.json"), kept)
        record["spans"] = os.path.relpath(kept, ROOT)
    with open(os.path.join(OUT, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def pin(work_dir):
    """Re-record every workload's unit digests at the default seed."""
    deadline = time.monotonic() + 3600
    expected = {}
    for name in workloads.WORKLOADS:
        sample = run_child(["--workload", name, "--seed",
                            str(workloads.DEFAULT_SEED), "--work-dir",
                            work_dir], deadline)
        expected[name] = dict(sorted(sample["units"].items()))
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.pin:
            return pin(work_dir)
        return benchmark(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), work_dir)
    except ChildFailed as error:
        print(f"error: measured process failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
