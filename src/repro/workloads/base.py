"""Workload framework.

The paper evaluates six data-intensive applications (Table 3): AES, XOR
Filter, heat-3d, jacobi-1d, LLaMA2 inference and LLM training.  Since this
reproduction replaces the LLVM frontend with an explicit loop IR
(:mod:`repro.core.compiler.ir`), each workload is a generator that builds
the same loop structures, operation mixes, data footprints and reuse
behaviour the paper's binaries exhibit, parameterized by a ``scale`` factor
so tests stay fast while experiments can use larger instances.

Workload categories follow the Section 3.1 case study: I/O-intensive,
more compute-intensive, and mixed.
"""

from __future__ import annotations

import abc
import enum
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common import SimulationError
from repro.core.compiler.frontend import ScalarProgram, ScalarSection
from repro.core.compiler.ir import VectorProgram
from repro.core.compiler.vectorizer import (AutoVectorizer,
                                            VectorizationReport,
                                            VectorizerConfig)

#: Control-plane (non-vectorizable) code executes far fewer *dynamic*
#: operations than the data-parallel loops it surrounds, even when it makes
#: up a sizeable fraction of the *static* code (Table 3's "Vectorizable
#: Code %" is a code-level metric).  This weight converts the static scalar
#: code fraction into a dynamic operation count for the scalar sections.
SCALAR_DYNAMIC_WEIGHT = 0.005

#: Floor applied by :meth:`Workload._scaled`: one compile-time vector's
#: worth of elements.  Scales small enough to hit the floor *alias* --
#: distinct scales produce identical programs (see ``_scaled``).
MIN_SCALED_ELEMENTS = 4096


class ScaleFloorWarning(UserWarning):
    """A workload's ``scale`` was small enough to saturate the element
    floor, so this scale produces the same program as other tiny scales
    (their sweep-cache entries are distinct but their results identical)."""


class WorkloadCategory(enum.Enum):
    """Workload classes used by the Fig. 4 case study."""

    IO_INTENSIVE = "io-intensive"
    COMPUTE_INTENSIVE = "compute-intensive"
    MIXED = "mixed"


@dataclass(frozen=True)
class PaperCharacteristics:
    """The Table 3 row the paper reports for a workload."""

    vectorizable_fraction: float
    average_reuse: float
    low_latency_fraction: float
    medium_latency_fraction: float
    high_latency_fraction: float


class Workload(abc.ABC):
    """Base class for the evaluated workloads."""

    #: Name used in experiment tables (matches the paper's figures).
    name: str = "workload"
    category: WorkloadCategory = WorkloadCategory.MIXED
    paper: PaperCharacteristics = PaperCharacteristics(0.0, 0.0, 0.0, 0.0, 0.0)

    def __init__(self, scale: float = 1.0) -> None:
        if not math.isfinite(scale) or scale <= 0:
            raise SimulationError(
                f"workload scale must be positive and finite, got {scale!r}")
        self.scale = scale
        self._floor_warned = False

    # -- Construction ------------------------------------------------------------

    @abc.abstractmethod
    def build_program(self) -> ScalarProgram:
        """Build the scalar loop program describing the application."""

    def vector_program(self, config: Optional[VectorizerConfig] = None
                       ) -> Tuple[VectorProgram, VectorizationReport]:
        """Run Conduit's compile-time pass over the workload."""
        vectorizer = AutoVectorizer(config)
        return vectorizer.vectorize(self.build_program())

    # -- Helpers -------------------------------------------------------------------

    def _scaled(self, elements: int, *,
                minimum: int = MIN_SCALED_ELEMENTS) -> int:
        """Scale an element count, keeping it page-aligned and non-trivial.

        The result is floored at ``minimum`` (one compile-time vector) and
        rounded up to a multiple of 4096 elements.  The floor means *small
        scales alias*: every scale at or below ``minimum / elements``
        produces the identical element count -- and therefore an identical
        program -- even though the sweep cache keys those scales
        separately.  The first saturating call per workload instance emits
        a :class:`ScaleFloorWarning` so sweeps over tiny scales cannot
        silently burn cache entries on duplicate results;
        :meth:`effective_scale` exposes the scale actually realized.
        """
        scaled = int(elements * self.scale)
        if scaled < minimum:
            if not self._floor_warned:
                self._floor_warned = True
                warnings.warn(
                    f"workload {self.name!r}: scale {self.scale} floors "
                    f"{elements} elements at the {minimum}-element minimum "
                    f"(effective scale {minimum / elements:.4g}); scales "
                    f"<= {minimum / elements:.4g} all build this same "
                    "program", ScaleFloorWarning, stacklevel=3)
            scaled = minimum
        # Round to a multiple of 4096 elements (one compile-time vector).
        return ((scaled + 4095) // 4096) * 4096

    def effective_scale(self, elements: int, *,
                        minimum: int = MIN_SCALED_ELEMENTS) -> float:
        """The scale actually realized for ``elements`` after the floor.

        Equals ``self.scale`` (up to 4096-element rounding) while the
        scaled count stays above ``minimum``, and ``minimum / elements``
        once the floor saturates -- the point past which smaller scales
        stop shrinking the program.
        """
        scaled = max(minimum, int(elements * self.scale))
        return ((scaled + 4095) // 4096) * 4096 / elements

    def add_scalar_section(self, program: ScalarProgram,
                           name: str) -> ScalarSection:
        """Add the workload's non-vectorizable section.

        The section's *static* size is chosen so that the program's
        vectorizable-code fraction matches the paper's Table 3 value; its
        *dynamic* operation count is scaled down by
        :data:`SCALAR_DYNAMIC_WEIGHT` because control-plane code executes
        far fewer operations than the data loops.
        """
        fraction = self.paper.vectorizable_fraction
        loop_static = program.loop_static_operations()
        loop_dynamic = program.loop_operations()
        static_ops = max(1, round(loop_static * (1 - fraction) / fraction))
        dynamic_ops = max(4096, int(loop_dynamic * (1 - fraction) / fraction
                                    * SCALAR_DYNAMIC_WEIGHT))
        section = ScalarSection(name=name, operation_count=dynamic_ops,
                                static_operations=static_ops)
        return program.add_scalar_section(section)

    def cache_identity(self) -> Tuple[Tuple[str, str], ...]:
        """Extra identity folded into the sweep cache key, beyond name+scale.

        The six hand-built workloads are deterministic functions of
        ``(name, scale)`` alone, so they return ``()``.  Content-defined
        workloads (a parsed block trace, a seeded generative stream) must
        return ``(key, value)`` string pairs pinning everything else their
        program depends on -- the trace content hash, the generator
        parameters -- so the sweep cache can never serve one trace's
        results for another registered under the same name.
        """
        return ()

    def footprint_bytes(self) -> int:
        return self.build_program().footprint_bytes()

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category.value,
            "scale": self.scale,
            "footprint_bytes": self.footprint_bytes(),
        }
