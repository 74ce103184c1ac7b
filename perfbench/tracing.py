"""Per-layer spans for the traced benchmark run.

Nothing here touches ``repro``'s source: :meth:`Tracer.install` replaces
public functions of each layer with timing wrappers on their owning
class or module, and :meth:`Tracer.uninstall` puts the originals back.

* Every wrapped call is charged to a (unit, layer) aggregate -- calls,
  total time and *self* time (total minus the time of wrapped calls made
  inside it) -- so per-instruction layers cost a few dictionary updates,
  not a span object each.
* Coarse layers (experiment, sweep, unit, platform build, compile, cache
  I/O, runtimes) are also kept as individual spans with their parent
  span, written out at the end.
* A *unit* is one ``repro.experiments.runner._execute`` call: one
  (workload, policy, platform) simulation on a fresh platform.  Every
  span and aggregate inside it carries the unit's id.  After each unit the
  tracer reads exact movement counters from the unit's platform.

Targets that do not exist in the tree being measured are skipped and
listed, so a refactor that removes a function drops its layer's numbers
instead of breaking the run.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers also recorded as individual spans (the rest only aggregate).
RECORDED_LAYERS = frozenset((
    "registry", "sweep", "unit", "compiler", "platform_build", "aging",
    "dataset", "runtime", "host", "sweep_cache.load", "sweep_cache.store"))

#: Movement entry points whose requested pages are counted, with the
#: positional index of their page argument (after ``self``).
_PAGE_ARGS = {"ensure_runs_at": 2, "ensure_pages_at": 2}


def layer_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, layer) for every function the tracer wraps."""
    from repro.core import platform as platform_module
    from repro.core import runtime as runtime_module
    from repro.core.backends import ComputeBackend
    from repro.core.coherence import CoherenceDirectory
    from repro.core.offload.features import FeatureCollector
    from repro.core.offload.offloader import SSDOffloader
    from repro.core.offload.transform import InstructionTransformer
    from repro.core.platform import SSDPlatform
    from repro.core.runtime import ConduitRuntime, HostRuntime
    from repro.experiments import registry as registry_module
    from repro.experiments import runner as runner_module
    from repro.experiments.runner import ExperimentRunner, SweepCache
    from repro.ssd.lifetime.engine import BackgroundFlashEngine
    from repro.workloads.base import Workload

    targets = [
        (registry_module, "run_experiment", "registry"),
        (ExperimentRunner, "sweep", "sweep"),
        (runner_module, "_execute", "unit"),
        (SweepCache, "load", "sweep_cache.load"),
        (SweepCache, "store", "sweep_cache.store"),
        (Workload, "vector_program", "compiler"),
        (runtime_module, "wave_plan", "compiler"),
        (SSDPlatform, "__init__", "platform_build"),
        (platform_module, "apply_drive_age", "aging"),
        (SSDPlatform, "setup_dataset", "dataset"),
        (ConduitRuntime, "execute", "runtime"),
        (HostRuntime, "execute", "host"),
        (SSDOffloader, "offload", "offload"),
        (SSDOffloader, "offload_member", "offload"),
        (SSDOffloader, "begin_wave", "offload"),
        (FeatureCollector, "collect", "offload.features"),
        (FeatureCollector, "collect_batch", "offload.features"),
        (InstructionTransformer, "transform", "offload.transform"),
        (SSDPlatform, "ensure_runs_at", "movement"),
        (SSDPlatform, "ensure_pages_at", "movement"),
        (SSDPlatform, "mark_produced_run", "movement"),
        (CoherenceDirectory, "on_read_run", "coherence"),
        (CoherenceDirectory, "on_write_run", "coherence"),
        (BackgroundFlashEngine, "pulse", "lifetime.pulse"),
    ]
    pending = list(ComputeBackend.__subclasses__())
    while pending:
        backend = pending.pop()
        pending.extend(backend.__subclasses__())
        if "execute" in vars(backend):
            targets.append((backend, "execute", "backends"))
    return targets


class Tracer:
    """In-memory span aggregates plus the coarse span list."""

    def __init__(self) -> None:
        #: (unit id or None, layer) -> [calls, total_ns, self_ns]
        self.totals: Dict[Tuple[Optional[int], str], List[int]] = {}
        #: Coarse spans: (id, parent id, unit id, layer, start_ns, end_ns).
        self.spans: List[Optional[tuple]] = []
        #: Exact counters, summed over the pass's units.
        self.counts: Dict[str, int] = {}
        self.skipped: List[str] = []
        self.unit: Optional[int] = None
        self._units = 0
        #: Per-layer [calls, total_ns, self_ns] of the running unit, folded
        #: into ``totals`` when the unit ends (one list per layer, bound
        #: into its wrappers, so a call costs no dictionary lookup).
        self._current: Dict[str, List[int]] = {}
        #: Time spent in wrapped calls made inside the innermost open one.
        self._child = [0]
        self._open: Optional[int] = None
        self._movement_depth = 0
        self._platform = None
        self._installed: List[Tuple[object, str, object]] = []

    # -- Installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, layer in layer_targets():
            original = vars(owner).get(attribute)
            if original is None:
                self.skipped.append(
                    f"{getattr(owner, '__name__', owner)}.{attribute}")
                continue
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, attribute, layer))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def reset(self) -> None:
        """Start a new pass: drop aggregates, spans and counts."""
        self._fold()
        self.totals.clear()
        self.spans.clear()
        self.counts.clear()

    # -- Wrappers -----------------------------------------------------------

    def _wrap(self, func: Callable, attribute: str, layer: str) -> Callable:
        acc = self._current.setdefault(layer, [0, 0, 0])
        child = self._child
        clock = time.perf_counter_ns
        if layer in RECORDED_LAYERS:
            wrapper = self._recorded(func, layer, acc)
        elif attribute in _PAGE_ARGS:
            index = _PAGE_ARGS[attribute]
            tracer = self

            def wrapper(*args, **kwargs):
                tracer._movement_depth += 1
                if tracer._movement_depth == 1:
                    args = tracer._count_requested(args, index)
                saved = child[0]
                child[0] = 0
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - child[0]
                    child[0] = saved + elapsed
                    tracer._movement_depth -= 1
        else:
            def wrapper(*args, **kwargs):
                saved = child[0]
                child[0] = 0
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - child[0]
                    child[0] = saved + elapsed
        return functools.wraps(func)(wrapper)

    def _recorded(self, func: Callable, layer: str,
                  acc: List[int]) -> Callable:
        """Wrapper that also keeps the call as a span; a ``unit`` span
        additionally opens a new unit id for everything inside it."""
        tracer = self
        child = self._child
        spans = self.spans
        clock = time.perf_counter_ns
        is_unit = layer == "unit"
        is_load = layer == "sweep_cache.load"

        def wrapper(*args, **kwargs):
            if layer == "platform_build":
                tracer._platform = args[0]
            if is_unit:
                tracer._fold()
                outer_unit = tracer.unit
                tracer.unit = tracer._units
                tracer._units += 1
            span_id = len(spans)
            parent = tracer._open
            tracer._open = span_id
            spans.append(None)
            saved = child[0]
            child[0] = 0
            start = clock()
            try:
                result = func(*args, **kwargs)
                if is_unit:
                    tracer._read_unit_counters()
                elif is_load:
                    tracer._add("sweep_cache.hits", result is not None)
                return result
            finally:
                end = clock()
                elapsed = end - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - child[0]
                child[0] = saved + elapsed
                spans[span_id] = (span_id, parent, tracer.unit, layer,
                                  start, end)
                tracer._open = parent
                if is_unit:
                    tracer._fold()
                    tracer.unit = outer_unit
        return wrapper

    def _fold(self) -> None:
        """Move the running per-layer sums into ``totals`` under the
        current unit id."""
        unit = self.unit
        for layer, acc in self._current.items():
            if acc[0]:
                entry = self.totals.setdefault((unit, layer), [0, 0, 0])
                entry[0] += acc[0]
                entry[1] += acc[1]
                entry[2] += acc[2]
                acc[0] = acc[1] = acc[2] = 0

    def _count_requested(self, args: tuple, index: int) -> tuple:
        """Count the pages an outermost movement call asks for.

        Nested movement calls (the per-page eviction fallback inside
        ``ensure_runs_at``) serve the same request, so only the outermost
        call counts.  A one-shot iterable is materialized first so
        counting does not consume it.
        """
        if len(args) <= index:
            return args
        pages = args[index]
        if not isinstance(pages, (list, tuple, range)):
            pages = tuple(pages)
            args = args[:index] + (pages,) + args[index + 1:]
        if pages and isinstance(pages[0], tuple):
            requested = sum(count for _, count in pages)
        else:
            requested = len(pages)
        self._add("movement.pages_requested", requested)
        return args

    def _read_unit_counters(self) -> None:
        """Exact movement counters of the unit that just finished."""
        platform, self._platform = self._platform, None
        if platform is None:
            return
        stats = platform.movement
        self._add("movement.pages_moved",
                  stats.flash_to_dram_pages + stats.flash_to_sram_pages +
                  stats.dram_to_sram_pages + stats.sram_to_dram_pages +
                  stats.host_pages)
        self._add("movement.writeback_pages", stats.writeback_pages)
        self._add("movement.evictions", platform.eviction_epoch)

    def _add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- Reading ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """layer -> (calls, total seconds, self seconds) over all units."""
        self._fold()
        merged: Dict[str, List[float]] = {}
        for (_, layer), (calls, total, own) in self.totals.items():
            entry = merged.setdefault(layer, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return {layer: (int(calls), total / 1e9, own / 1e9)
                for layer, (calls, total, own) in merged.items()}

    def export(self) -> Dict[str, object]:
        """The pass's spans and per-(unit, layer) aggregates as JSON data."""
        self._fold()
        return {
            "spans": [{"id": span[0], "parent": span[1], "unit": span[2],
                       "layer": span[3], "start_ns": span[4],
                       "end_ns": span[5]}
                      for span in self.spans if span is not None],
            "aggregates": [{"unit": unit, "layer": layer, "calls": calls,
                            "total_ns": total, "self_ns": own}
                           for (unit, layer), (calls, total, own)
                           in sorted(self.totals.items(),
                                     key=lambda item: (item[0][0] is None,
                                                       item[0][0] or 0,
                                                       item[0][1]))],
            "counts": dict(self.counts),
        }
