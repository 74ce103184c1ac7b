"""Loop auto-vectorization pass.

Reproduces the compile-time preprocessing of Section 4.3.1:

* loops with computations are transformed into wide SIMD operations whose
  width matches the SSD's internal parallelism (``-force-vector-width=4096``
  with 32-bit operands = 16 KiB per vector operand, aligned to flash pages);
* each original statement emits one vector operation per chunk (no
  unrolled copies) so offloading stays at instruction granularity;
* loops that cannot be fully vectorized (control flow, small trip counts)
  are *partially* vectorized via strip-mining, with predication (SELECT)
  inserted for if-converted branches;
* loops with loop-carried dependences or indirect accesses, and scalar
  sections, remain scalar and are emitted as aggregated SCALAR instructions
  that the runtime keeps on general-purpose cores;
* lightweight metadata (operation type, operand sizes, vector length) is
  embedded into each emitted instruction;
* the pass records per-loop remarks analogous to ``-Rpass=loop-vectorize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import OpType, SimulationError
from repro.core.compiler.frontend import Loop, ScalarProgram, ScalarSection
from repro.core.compiler.ir import (ArrayRef, ArraySpec, Immediate,
                                     InstructionMetadata, VectorInstruction,
                                     VectorProgram, DEFAULT_VECTOR_WIDTH)
from repro.common import LatencyClass, OpClass


#: Loops shorter than this are not worth vectorizing.
MIN_TRIP_COUNT = 64
#: Strip-mined (partially vectorized) loops use the vector width divided
#: by this.
PARTIAL_WIDTH_DIVISOR = 8
#: Dynamic scalar operations folded into one aggregated SCALAR instruction
#: (keeps the emitted instruction count tractable while preserving total
#: scalar work).
SCALAR_CHUNK = 4096


@dataclass(frozen=True)
class VectorizerConfig:
    """Compiler-flag equivalents (``-force-vector-width``)."""

    vector_width: int = DEFAULT_VECTOR_WIDTH


@dataclass
class LoopRemark:
    """A per-loop vectorization remark (like ``-Rpass=loop-vectorize``)."""

    loop: str
    vectorized: bool
    partial: bool
    reason: str
    emitted_instructions: int = 0


@dataclass
class VectorizationReport:
    """Summary of one vectorization run."""

    program: str
    total_scalar_operations: int
    vectorized_scalar_operations: int
    total_static_operations: int = 0
    vectorized_static_operations: int = 0
    remarks: List[LoopRemark] = field(default_factory=list)

    @property
    def vectorizable_fraction(self) -> float:
        """Vectorizable code percentage (Table 3): a static-code metric."""
        if self.total_static_operations > 0:
            return (self.vectorized_static_operations /
                    self.total_static_operations)
        if self.total_scalar_operations == 0:
            return 0.0
        return (self.vectorized_scalar_operations /
                self.total_scalar_operations)


class _RegionDependencyTracker:
    """Tracks the last instruction that wrote each array region.

    Dependencies are resolved at vector-chunk granularity: an instruction
    reading a region depends on the most recent instruction that wrote an
    overlapping region (true data dependence).  This is what lets the
    runtime compute the data-dependence delay feature (Table 1).

    Regions are bucketed at a fixed element granularity so that lookups and
    updates stay O(region size / bucket size) even for programs with many
    thousands of emitted instructions.
    """

    BUCKET_ELEMENTS = 1024

    def __init__(self) -> None:
        self._last_writer: Dict[str, Dict[int, int]] = {}

    def _buckets(self, ref: ArrayRef) -> range:
        first = ref.offset // self.BUCKET_ELEMENTS
        last = max(first, (ref.end - 1) // self.BUCKET_ELEMENTS)
        return range(first, last + 1)

    def writers_of(self, ref: ArrayRef) -> List[int]:
        buckets = self._last_writer.get(ref.array)
        if not buckets:
            return []
        writers = {buckets[b] for b in self._buckets(ref) if b in buckets}
        return sorted(writers)

    def record_write(self, ref: ArrayRef, uid: int) -> None:
        buckets = self._last_writer.setdefault(ref.array, {})
        for bucket in self._buckets(ref):
            buckets[bucket] = uid


class AutoVectorizer:
    """The Conduit compile-time vectorization pass."""

    def __init__(self, config: Optional[VectorizerConfig] = None) -> None:
        self.config = config or VectorizerConfig()
        if self.config.vector_width <= 0:
            raise SimulationError("vector width must be positive")

    # -- Entry point -----------------------------------------------------------

    def vectorize(self, program: ScalarProgram
                  ) -> Tuple[VectorProgram, VectorizationReport]:
        """Vectorize ``program`` and return (optimized IR, report)."""
        ir = VectorProgram(program.name, program.arrays.values())
        report = VectorizationReport(
            program=program.name,
            total_scalar_operations=program.total_scalar_operations(),
            vectorized_scalar_operations=0,
            total_static_operations=program.total_static_operations(),
            vectorized_static_operations=0,
        )
        tracker = _RegionDependencyTracker()
        uid = 0
        for loop in program.loops:
            uid = self._emit_loop(ir, loop, tracker, report, uid)
        for section in program.scalar_sections:
            uid = self._emit_scalar_section(ir, section, report, uid)
        ir.validate()
        return ir, report

    # -- Loop handling -----------------------------------------------------------

    def _emit_loop(self, ir: VectorProgram, loop: Loop,
                   tracker: _RegionDependencyTracker,
                   report: VectorizationReport, uid: int) -> int:
        config = self.config
        if loop.is_fully_vectorizable(MIN_TRIP_COUNT):
            remark = LoopRemark(loop=loop.name, vectorized=True,
                                partial=False,
                                reason="loop vectorized (width "
                                       f"{config.vector_width})")
            uid = self._emit_vector_chunks(ir, loop, config.vector_width,
                                           tracker, remark, uid,
                                           predicated=False)
            report.vectorized_scalar_operations += loop.scalar_operations
            report.vectorized_static_operations += loop.static_operations
        elif loop.is_partially_vectorizable(MIN_TRIP_COUNT):
            width = max(1, config.vector_width // PARTIAL_WIDTH_DIVISOR)
            remark = LoopRemark(loop=loop.name, vectorized=True, partial=True,
                                reason="partially vectorized via "
                                       f"strip-mining (width {width})")
            uid = self._emit_vector_chunks(ir, loop, width, tracker, remark,
                                           uid, predicated=True)
            report.vectorized_scalar_operations += loop.scalar_operations
            report.vectorized_static_operations += loop.static_operations
        else:
            reason = self._failure_reason(loop)
            remark = LoopRemark(loop=loop.name, vectorized=False,
                                partial=False, reason=reason)
            uid = self._emit_scalar_loop(ir, loop, remark, uid)
        report.remarks.append(remark)
        return uid

    @staticmethod
    def _failure_reason(loop: Loop) -> str:
        if loop.loop_carried_dependence:
            return "not vectorized: loop-carried dependence"
        if loop.indirect_accesses:
            return "not vectorized: indirect (gather/scatter) accesses"
        if loop.complex_control_flow:
            return "not vectorized: complex control flow"
        return "not vectorized: trip count below threshold"

    def _emit_vector_chunks(self, ir: VectorProgram, loop: Loop, width: int,
                            tracker: _RegionDependencyTracker,
                            remark: LoopRemark, uid: int, *,
                            predicated: bool) -> int:
        # The configured width (4096) is defined for 32-bit operands, i.e.
        # one 16 KiB flash page per vector operand (Section 4.3.1).  Narrower
        # element types pack proportionally more elements per vector so each
        # instruction still covers one flash page.
        loop_bits = self._loop_element_bits(ir, loop)
        width = max(1, width * 32 // loop_bits)
        chunks = max(1, math.ceil(loop.trip_count / width))
        for _ in range(loop.repetitions):
            for chunk in range(chunks):
                offset = chunk * width
                length = min(width, loop.trip_count - offset)
                if length <= 0:
                    continue
                for statement in loop.body:
                    element_bits = self._element_bits(ir, statement.dest,
                                                      statement.sources)
                    sources: List[object] = []
                    depends: List[int] = []
                    for index, array in enumerate(statement.sources):
                        shift = 0
                        if index < len(statement.source_offsets):
                            shift = statement.source_offsets[index]
                        spec = ir.arrays[array]
                        start = min(max(0, offset + shift),
                                    max(0, spec.elements - length))
                        ref = ArrayRef(array, start, length)
                        sources.append(ref)
                        depends.extend(tracker.writers_of(ref))
                    if statement.uses_immediate:
                        sources.append(Immediate())
                    dest_ref = None
                    if statement.dest is not None:
                        dest_spec = ir.arrays[statement.dest]
                        start = min(offset, max(0, dest_spec.elements - length))
                        dest_ref = ArrayRef(statement.dest, start, length)
                    instruction = VectorInstruction(
                        uid=uid, op=statement.op, dest=dest_ref,
                        sources=tuple(sources), vector_length=length,
                        element_bits=element_bits,
                        depends_on=tuple(sorted(set(depends))),
                        metadata=InstructionMetadata(
                            op_class=OpClass.of(statement.op),
                            latency_class=LatencyClass.of(statement.op),
                            element_bits=element_bits, vector_length=length,
                            operand_bytes=length * element_bits // 8,
                            loop=loop.name,
                            partially_vectorized=predicated,
                        ),
                    )
                    ir.add(instruction)
                    if dest_ref is not None:
                        tracker.record_write(dest_ref, uid)
                    uid += 1
                    remark.emitted_instructions += 1
                if predicated:
                    # If-converted control flow adds a predication SELECT per
                    # chunk operating on the chunk's destination region.
                    last = ir.instructions[-1]
                    if last.dest is not None:
                        select = VectorInstruction(
                            uid=uid, op=OpType.SELECT, dest=last.dest,
                            sources=(last.dest, Immediate()),
                            vector_length=last.vector_length,
                            element_bits=last.element_bits,
                            depends_on=(last.uid,),
                            metadata=InstructionMetadata(
                                op_class=OpClass.PREDICATION,
                                latency_class=LatencyClass.MEDIUM,
                                element_bits=last.element_bits,
                                vector_length=last.vector_length,
                                operand_bytes=last.size_bytes,
                                loop=loop.name, partially_vectorized=True,
                            ),
                        )
                        ir.add(select)
                        tracker.record_write(last.dest, uid)
                        uid += 1
                        remark.emitted_instructions += 1
        return uid

    def _emit_scalar_loop(self, ir: VectorProgram, loop: Loop,
                          remark: LoopRemark, uid: int) -> int:
        """Emit aggregated SCALAR instructions for a non-vectorizable loop."""
        total_ops = loop.scalar_operations
        chunk = SCALAR_CHUNK
        chunks = max(1, math.ceil(total_ops / chunk))
        previous_uid: Optional[int] = None
        for index in range(chunks):
            ops = min(chunk, total_ops - index * chunk)
            depends = (previous_uid,) if previous_uid is not None else ()
            instruction = VectorInstruction(
                uid=uid, op=OpType.SCALAR, dest=None, sources=(),
                vector_length=max(1, ops), element_bits=32,
                depends_on=depends,
                metadata=InstructionMetadata(
                    op_class=OpClass.CONTROL,
                    latency_class=LatencyClass.MEDIUM,
                    element_bits=32, vector_length=max(1, ops),
                    operand_bytes=max(1, ops) * 4, loop=loop.name,
                ),
            )
            ir.add(instruction)
            previous_uid = uid
            uid += 1
            remark.emitted_instructions += 1
        return uid

    def _emit_scalar_section(self, ir: VectorProgram, section: ScalarSection,
                             report: VectorizationReport, uid: int) -> int:
        chunk = SCALAR_CHUNK
        chunks = max(1, math.ceil(section.operation_count / chunk))
        previous_uid: Optional[int] = None
        for index in range(chunks):
            ops = min(chunk, section.operation_count - index * chunk)
            depends = (previous_uid,) if previous_uid is not None else ()
            instruction = VectorInstruction(
                uid=uid, op=section.op, dest=None, sources=(),
                vector_length=max(1, ops), element_bits=32,
                depends_on=depends,
            )
            ir.add(instruction)
            previous_uid = uid
            uid += 1
        report.remarks.append(LoopRemark(
            loop=section.name, vectorized=False, partial=False,
            reason="scalar section (control-intensive code)",
            emitted_instructions=chunks))
        return uid

    # -- Helpers ----------------------------------------------------------------------

    @staticmethod
    def _element_bits(ir: VectorProgram, dest: Optional[str],
                      sources: Tuple[str, ...]) -> int:
        names = list(sources) + ([dest] if dest else [])
        for name in names:
            if name in ir.arrays:
                return ir.arrays[name].element_bits
        return 32

    def _loop_element_bits(self, ir: VectorProgram, loop: Loop) -> int:
        """Dominant element width of a loop (used to size vector chunks)."""
        for statement in loop.body:
            bits = self._element_bits(ir, statement.dest, statement.sources)
            if bits:
                return bits
        return 32
