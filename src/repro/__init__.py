"""repro: reproduction of Conduit, programmer-transparent NDP in SSDs.

The public API re-exports the pieces a downstream user needs to:

* describe an application as a scalar loop program
  (:class:`repro.ScalarProgram`),
* vectorize it with Conduit's compile-time pass
  (:class:`repro.AutoVectorizer`),
* build the simulated NDP-capable SSD platform
  (:class:`repro.SSDPlatform`),
* execute the program under Conduit or any baseline offloading policy
  (:class:`repro.ConduitRuntime`, :class:`repro.HostRuntime`,
  :func:`repro.make_policy`), and
* inspect results (:class:`repro.ExecutionResult`).
"""

from repro.common import (BackendId, DataLocation, LatencyClass, OpClass,
                          OpType, Resource, SSD_RESOURCES)
from repro.core.backends import BackendRegistry, ComputeBackend
from repro.core.compiler import (AutoVectorizer, Loop, ScalarProgram,
                                 ScalarSection, ScalarStatement,
                                 VectorizerConfig, VectorProgram)
from repro.core.metrics import (ExecutionResult, energy_reduction,
                                geometric_mean, speedup)
from repro.core.offload import (ConduitPolicy, OffloadingPolicy,
                                POLICY_REGISTRY, make_policy)
from repro.core.platform import (PlatformConfig, SSDPlatform,
                                 backend_roster)
from repro.core.runtime import ConduitRuntime, HostRuntime
from repro.dram.cxl import CXLPuDConfig

__version__ = "1.2.0"

__all__ = [
    "BackendId", "DataLocation", "LatencyClass", "OpClass", "OpType",
    "Resource", "SSD_RESOURCES", "BackendRegistry", "ComputeBackend",
    "AutoVectorizer", "Loop", "ScalarProgram",
    "ScalarSection", "ScalarStatement", "VectorizerConfig", "VectorProgram",
    "ExecutionResult", "energy_reduction", "geometric_mean", "speedup",
    "ConduitPolicy", "OffloadingPolicy", "POLICY_REGISTRY", "make_policy",
    "PlatformConfig", "SSDPlatform", "backend_roster", "ConduitRuntime",
    "HostRuntime", "CXLPuDConfig", "__version__",
]
