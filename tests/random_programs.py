"""Random-program strategies shared by the differential suites.

Hypothesis strategies and builders for synthetic instruction streams, the
small platform they run on, and the bit-equality check between two
:class:`ExecutionResult` trees.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.common import KIB, MIB, OpType
from repro.core.compiler.ir import (ArrayRef, ArraySpec, VectorInstruction,
                                    VectorProgram)
from repro.core.platform import PlatformConfig
from repro.ssd.config import small_ssd_config

#: Enum members are sorted before ``sampled_from`` so the Hypothesis
#: database keys are stable across interpreter runs (set iteration order
#: would shuffle them).
PROGRAM_OPS = sorted((OpType.ADD, OpType.MUL, OpType.XOR, OpType.AND),
                     key=lambda op: op.value)

#: One synthetic instruction: (op index, dest slot, source slots, chain).
#: Slots address 4096-element regions of two declared 64 Ki-element
#: arrays, so random streams trigger real window pressure and coherence
#: ping-pong on small platforms.
INSTRUCTION = st.tuples(
    st.integers(min_value=0, max_value=len(PROGRAM_OPS) - 1),
    st.integers(min_value=0, max_value=2 * 12 - 1),
    st.lists(st.integers(min_value=0, max_value=2 * 12 - 1),
             min_size=1, max_size=2),
    st.booleans())


def build_program(stream) -> VectorProgram:
    arrays = [ArraySpec("a", 64 * 1024, 32), ArraySpec("b", 64 * 1024, 32)]
    program = VectorProgram("generated", arrays)

    def ref(slot: int) -> ArrayRef:
        return ArrayRef("ab"[slot // 12], (slot % 12) * 4096, 4096)

    for uid, (op_index, dest, sources, chain) in enumerate(stream):
        program.add(VectorInstruction(
            uid=uid, op=PROGRAM_OPS[op_index], dest=ref(dest),
            sources=tuple(ref(s) for s in sources),
            depends_on=(uid - 1,) if chain and uid else ()))
    return program


def small_config(**overrides) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=1 * MIB,
                          sram_window_bytes=256 * KIB,
                          host_cache_bytes=1 * MIB, **overrides)


def assert_bit_equal(a, b):
    """Every field of the two execution results must match exactly."""
    assert a.total_time_ns == b.total_time_ns
    assert a.total_energy_nj == b.total_energy_nj
    assert a.energy == b.energy
    assert a.breakdown == b.breakdown
    assert a.records == b.records
    assert a.offload_overhead_avg_ns == b.offload_overhead_avg_ns
    assert a.offload_overhead_max_ns == b.offload_overhead_max_ns
    assert a.maintenance == b.maintenance
