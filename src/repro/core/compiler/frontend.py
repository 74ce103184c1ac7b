"""Scalar loop-program frontend.

Conduit is programmer transparent: the programmer writes ordinary loops and
the compiler pass decides what to vectorize.  Since this reproduction does
not ship an LLVM frontend, workloads describe themselves in a small explicit
loop IR -- the equivalent of the LLVM IR the paper's custom pass consumes --
consisting of arrays, loop nests with per-iteration statements, and
non-vectorizable scalar sections.

The frontend performs the legality analysis the paper's Section 7 discusses:
loops with loop-carried dependences, indirect accesses, complex control flow
or tiny trip counts are flagged so the vectorizer can fall back to partial
vectorization (strip-mining) or leave them scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import OpType, SimulationError
from repro.core.compiler.ir import ArraySpec

#: IR-level operations one source statement lowers to (loads, address
#: arithmetic, the operation, stores, induction-variable updates).  Used to
#: express loop static code size in the same units as scalar sections.
STATIC_OPS_PER_STATEMENT = 16


@dataclass(frozen=True)
class ScalarStatement:
    """One statement of a loop body, executed once per iteration.

    ``dest`` and ``sources`` name arrays indexed by the loop induction
    variable (affine accesses); ``uses_immediate`` marks a constant operand.
    """

    op: OpType
    dest: Optional[str]
    sources: Tuple[str, ...] = ()
    uses_immediate: bool = False
    #: Element offset applied to the source index (e.g. stencil neighbours
    #: a[i-1], a[i+1]); non-zero offsets on the destination array create a
    #: loop-carried dependence.
    source_offsets: Tuple[int, ...] = ()


@dataclass
class Loop:
    """A (possibly only partially vectorizable) counted loop."""

    name: str
    trip_count: int
    body: List[ScalarStatement] = field(default_factory=list)
    #: True when an iteration reads values produced by earlier iterations
    #: of the same loop (e.g. a recurrence), which blocks full vectorization.
    loop_carried_dependence: bool = False
    #: True when the body has data-dependent branches with side effects or
    #: multiple exits; simple if-conversion is handled via SELECT statements.
    complex_control_flow: bool = False
    #: True when the body performs indirect (gather/scatter) accesses.
    indirect_accesses: bool = False
    #: Number of distinct time steps / outer repetitions of this loop.
    repetitions: int = 1

    @property
    def scalar_operations(self) -> int:
        """Total dynamic scalar operations this loop performs."""
        return self.trip_count * len(self.body) * self.repetitions

    def is_fully_vectorizable(self, min_trips: int) -> bool:
        return (not self.loop_carried_dependence
                and not self.complex_control_flow
                and not self.indirect_accesses
                and self.trip_count >= min_trips)

    def is_partially_vectorizable(self, min_trips: int) -> bool:
        """Strip-mining applies when only control flow blocks vectorization."""
        if self.is_fully_vectorizable(min_trips):
            return False
        return (self.trip_count >= min_trips
                and not self.loop_carried_dependence)

    @property
    def static_operations(self) -> int:
        """Static code size of the loop body.

        Each source-level statement lowers to several IR-level operations
        (address computation, loads, the operation itself, stores, loop
        bookkeeping), so static size is counted in IR-operation units.
        """
        return len(self.body) * STATIC_OPS_PER_STATEMENT


@dataclass
class ScalarSection:
    """Non-loop, control-intensive code: always stays scalar.

    ``operation_count`` is the *dynamic* number of scalar operations the
    section executes, while ``static_operations`` is its static code size.
    The paper's "Vectorizable Code %" (Table 3) is a code-level metric, so
    workloads set ``static_operations`` to match it even though the dynamic
    execution is dominated by the vectorized loops.
    """

    name: str
    operation_count: int
    op: OpType = OpType.SCALAR
    static_operations: int = 0


class ScalarProgram:
    """The application as seen by Conduit's compiler pass."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.arrays: Dict[str, ArraySpec] = {}
        self.loops: List[Loop] = []
        self.scalar_sections: List[ScalarSection] = []

    # -- Construction -------------------------------------------------------------

    def declare_array(self, name: str, elements: int,
                      element_bits: int = 32) -> ArraySpec:
        if elements <= 0:
            raise SimulationError(f"array '{name}' must have > 0 elements")
        spec = ArraySpec(name=name, elements=elements,
                         element_bits=element_bits)
        self.arrays[name] = spec
        return spec

    def add_loop(self, loop: Loop) -> Loop:
        for statement in loop.body:
            for array in list(statement.sources) + (
                    [statement.dest] if statement.dest else []):
                if array not in self.arrays:
                    raise SimulationError(
                        f"loop '{loop.name}' references undeclared array "
                        f"'{array}'")
        self.loops.append(loop)
        return loop

    def add_scalar_section(self, section: ScalarSection) -> ScalarSection:
        self.scalar_sections.append(section)
        return section

    # -- Static characteristics ------------------------------------------------------

    def total_scalar_operations(self) -> int:
        loops = sum(loop.scalar_operations for loop in self.loops)
        sections = sum(s.operation_count for s in self.scalar_sections)
        return loops + sections

    def loop_operations(self) -> int:
        return sum(loop.scalar_operations for loop in self.loops)

    def total_static_operations(self) -> int:
        """Static code size: loop-body statements plus scalar-section code."""
        loops = sum(loop.static_operations for loop in self.loops)
        sections = sum(max(s.static_operations, 1)
                       for s in self.scalar_sections)
        return loops + sections

    def loop_static_operations(self) -> int:
        return sum(loop.static_operations for loop in self.loops)

    def footprint_bytes(self) -> int:
        return sum(spec.size_bytes for spec in self.arrays.values())

    def array(self, name: str) -> ArraySpec:
        return self.arrays[name]
