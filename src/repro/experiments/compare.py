"""Variant comparison: diff two platform variants' result grids.

Experiments sweep a (workload x policy x platform-variant) cross-product;
this module answers the follow-up question every variant axis raises:
*what changed* between two variants, pair by pair.  :func:`compare_grids`
diffs two (workload, policy)-keyed grid slices into flat rows (time and
energy ratios plus the maintenance counters the lifetime subsystem
attaches), and :func:`run_compare` runs one cached sweep of a registered
experiment over exactly the two variants and returns the versioned,
JSON-stable comparison document that backs the ``python -m repro
compare`` subcommand.

The lifetime experiment uses the same machinery for its fresh-vs-aged
headline, so the CLI and the report can never disagree about what a
comparison means.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.metrics import ExecutionResult, geometric_mean
from repro.experiments.registry import (ExperimentDef, _platform_slice,
                                        _sweep, experiment_def)
from repro.experiments.runner import ExperimentConfig

#: Version of the ``repro compare --json`` document layout.  Bump whenever
#: a top-level or per-row key is added, removed or changes meaning.
#: Version 1: the initial layout (schema/experiment/base/other/rows/
#: summary, rows keyed workload/policy/base_ms/other_ms/time_ratio/
#: base_energy_mj/other_energy_mj/energy_ratio/base_gc_pages/
#: other_gc_pages).
COMPARE_SCHEMA_VERSION = 1


def _ratio(base: float, other: float) -> float:
    """``other / base`` with defined edges: 0/0 is 1.0 (nothing changed,
    not an infinite regression) and x/0 for x > 0 is ``inf`` (a genuinely
    unnormalizable blow-up, excluded from the summary geomeans)."""
    if base > 0:
        return other / base
    if other == 0:
        return 1.0
    return float("inf")


def _gc_pages(result: ExecutionResult) -> int:
    """Pages relocated by maintenance during the run (0 pre-lifetime)."""
    if result.maintenance is None:
        return 0
    return (result.maintenance.gc_relocated_pages +
            result.maintenance.wl_migrated_pages)


def compare_grids(base: Dict[Tuple[str, str], ExecutionResult],
                  other: Dict[Tuple[str, str], ExecutionResult]
                  ) -> List[Dict[str, object]]:
    """Diff two (workload, policy)-keyed grids into flat comparison rows.

    Only pairs present in *both* grids produce a row (a ``--platform``
    override can legitimately sweep different subsets); ``time_ratio`` and
    ``energy_ratio`` are other/base, so values above 1 mean the ``other``
    variant is slower / hungrier.
    """
    rows: List[Dict[str, object]] = []
    for key in sorted(base):
        if key not in other:
            continue
        workload, policy = key
        left, right = base[key], other[key]
        row: Dict[str, object] = {
            "workload": workload,
            "policy": policy,
            "base_ms": left.total_time_ns / 1e6,
            "other_ms": right.total_time_ns / 1e6,
            "time_ratio": _ratio(left.total_time_ns, right.total_time_ns),
            "base_energy_mj": left.total_energy_nj / 1e6,
            "other_energy_mj": right.total_energy_nj / 1e6,
            "energy_ratio": _ratio(left.total_energy_nj,
                                   right.total_energy_nj),
            "base_gc_pages": _gc_pages(left),
            "other_gc_pages": _gc_pages(right),
        }
        rows.append(row)
    return rows


def _summary(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate comparison rows into the document's summary block."""
    if not rows:
        return {"pairs": 0}
    # Infinite ratios (x/0 blow-ups) are reported per-row but excluded
    # from the geomeans: log(inf) would poison the aggregate into inf,
    # hiding every finite pair's contribution.
    ratios = [row["time_ratio"] for row in rows
              if math.isfinite(row["time_ratio"])]
    energy = [row["energy_ratio"] for row in rows
              if math.isfinite(row["energy_ratio"])]
    worst = max(rows, key=lambda row: row["time_ratio"])
    return {
        "pairs": len(rows),
        "geomean_time_ratio": geometric_mean(ratios),
        "geomean_energy_ratio": geometric_mean(energy),
        "max_time_ratio": worst["time_ratio"],
        "max_time_ratio_pair": [worst["workload"], worst["policy"]],
    }


def run_compare(experiment: str, base_name: str, other_name: str,
                config: Optional[ExperimentConfig] = None, *,
                parallel: bool = True, workers: Optional[int] = None,
                cache_dir: Optional[str] = None) -> Dict[str, object]:
    """Sweep one experiment's axes over two variants and diff the grids.

    Runs the experiment's (workload x policy) axes over exactly
    ``base_name`` and ``other_name`` as one cached cross-product sweep
    (shared with every other experiment's cache), then returns the
    versioned comparison document.
    """
    definition: ExperimentDef = experiment_def(experiment)
    if definition.composite or not definition.policies:
        raise ValueError(
            f"experiment {definition.name!r} has no sweep of its own; "
            "compare needs a policy-sweeping experiment")
    if base_name == other_name:
        raise ValueError(
            f"comparing variant {base_name!r} against itself is a no-op")
    names = (base_name, other_name)
    _, _, grid, stats = _sweep(definition, config or ExperimentConfig(),
                               names, parallel=parallel, workers=workers,
                               cache_dir=cache_dir)
    base_slice, other_slice = (_platform_slice(grid, name, names, "compare")
                               for name in names)
    rows = compare_grids(base_slice, other_slice)
    return {
        "schema": COMPARE_SCHEMA_VERSION,
        "experiment": definition.name,
        "base": base_name,
        "other": other_name,
        "rows": rows,
        "summary": _summary(rows),
        "sweep": stats.summary(),
    }
