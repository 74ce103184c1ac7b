"""Conduit core: compiler, offloading runtime, coherence, platform, metrics."""

from repro.core.backends import BackendRegistry, ComputeBackend
from repro.core.coherence import (CoherenceDirectory, CoherenceEntry,
                                  CoherencePolicy, PageCoherenceState,
                                  SyncAction)
from repro.core.layout import ArrayLayout, ArrayPlacement
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                InstructionRecord, energy_reduction,
                                geometric_mean, speedup)
from repro.core.platform import (DataMovementStats, PlatformConfig,
                                 SSDPlatform, backend_roster)
from repro.core.runtime import ConduitRuntime, HostRuntime

__all__ = [
    "BackendRegistry", "ComputeBackend", "backend_roster",
    "CoherenceDirectory", "CoherenceEntry", "CoherencePolicy",
    "PageCoherenceState", "SyncAction", "ArrayLayout", "ArrayPlacement",
    "ExecutionBreakdown", "ExecutionResult", "InstructionRecord",
    "energy_reduction", "geometric_mean", "speedup", "DataMovementStats",
    "PlatformConfig", "SSDPlatform", "ConduitRuntime", "HostRuntime",
]
