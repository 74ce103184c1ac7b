"""Tests for the compile-time IR, frontend, vectorizer and binary encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import LatencyClass, OpType, SimulationError
from repro.core.compiler.binary import (BinaryDecoder, BinaryEncoder,
                                        estimate_binary_bytes)
from repro.core.compiler.frontend import (Loop, ScalarProgram, ScalarSection,
                                          ScalarStatement)
from repro.core.compiler.ir import (ArrayRef, ArraySpec, VectorInstruction,
                                    VectorProgram)
from repro.core.compiler.vectorizer import AutoVectorizer, VectorizerConfig


class TestIR:
    def test_array_ref_overlap(self):
        a = ArrayRef("x", 0, 100)
        b = ArrayRef("x", 50, 100)
        c = ArrayRef("x", 100, 10)
        d = ArrayRef("y", 0, 100)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert not a.overlaps(d)

    def test_instruction_size_bytes(self):
        instruction = VectorInstruction(uid=0, op=OpType.ADD, dest=None,
                                        sources=(), vector_length=4096,
                                        element_bits=32)
        assert instruction.size_bytes == 16 * 1024

    def test_metadata_auto_populated(self):
        instruction = VectorInstruction(uid=0, op=OpType.MUL, dest=None,
                                        sources=(), vector_length=128,
                                        element_bits=8)
        assert instruction.metadata.latency_class is LatencyClass.HIGH
        assert instruction.metadata.operand_bytes == 128

    def test_invalid_element_width_rejected(self):
        with pytest.raises(SimulationError):
            VectorInstruction(uid=0, op=OpType.ADD, dest=None, sources=(),
                              vector_length=4, element_bits=12)

    def test_program_rejects_undeclared_arrays(self):
        program = VectorProgram("p", [ArraySpec("a", 1024, 32)])
        with pytest.raises(SimulationError):
            program.add(VectorInstruction(
                uid=0, op=OpType.ADD, dest=ArrayRef("missing", 0, 4),
                sources=()))

    def test_validate_rejects_forward_dependencies(self):
        program = VectorProgram("p", [ArraySpec("a", 8192, 32)])
        program.add(VectorInstruction(uid=0, op=OpType.ADD,
                                      dest=ArrayRef("a", 0, 4), sources=(),
                                      vector_length=4, depends_on=(5,)))
        with pytest.raises(SimulationError):
            program.validate()

    def test_validate_rejects_out_of_bounds_refs(self):
        program = VectorProgram("p", [ArraySpec("a", 100, 32)])
        program.add(VectorInstruction(uid=0, op=OpType.ADD,
                                      dest=ArrayRef("a", 90, 20), sources=(),
                                      vector_length=20))
        with pytest.raises(SimulationError):
            program.validate()

    def test_op_histogram_and_latency_mix(self, manual_vector_program):
        histogram = manual_vector_program.op_histogram()
        assert histogram[OpType.AND] == 1
        mix = manual_vector_program.latency_class_mix()
        assert mix[LatencyClass.HIGH] == pytest.approx(1 / 3)


class TestFrontend:
    def test_undeclared_array_in_loop_rejected(self):
        program = ScalarProgram("p")
        with pytest.raises(SimulationError):
            program.add_loop(Loop("l", 100, [
                ScalarStatement(op=OpType.ADD, dest="missing",
                                sources=())]))

    def test_loop_operation_counts(self):
        program = ScalarProgram("p")
        program.declare_array("a", 1000)
        loop = Loop("l", 1000, [ScalarStatement(op=OpType.ADD, dest="a",
                                                sources=("a",))],
                    repetitions=3)
        program.add_loop(loop)
        assert loop.scalar_operations == 3000
        assert program.total_scalar_operations() == 3000

    def test_vectorizability_rules(self):
        body = [ScalarStatement(op=OpType.ADD, dest=None, sources=())]
        assert Loop("ok", 1000, body).is_fully_vectorizable(64)
        assert not Loop("dep", 1000, body,
                        loop_carried_dependence=True
                        ).is_fully_vectorizable(64)
        assert not Loop("small", 8, body).is_fully_vectorizable(64)
        control = Loop("ctrl", 1000, body, complex_control_flow=True)
        assert not control.is_fully_vectorizable(64)
        assert control.is_partially_vectorizable(64)

    def test_static_operations(self):
        from repro.core.compiler.frontend import STATIC_OPS_PER_STATEMENT
        program = ScalarProgram("p")
        program.declare_array("a", 100)
        program.add_loop(Loop("l", 100, [
            ScalarStatement(op=OpType.ADD, dest="a", sources=("a",)),
            ScalarStatement(op=OpType.MUL, dest="a", sources=("a",))]))
        program.add_scalar_section(ScalarSection("s", 50,
                                                 static_operations=8))
        assert program.loop_static_operations() == \
            2 * STATIC_OPS_PER_STATEMENT
        assert program.total_static_operations() == \
            2 * STATIC_OPS_PER_STATEMENT + 8


class TestVectorizer:
    def vectorize(self, program, **kwargs):
        return AutoVectorizer(VectorizerConfig(**kwargs)).vectorize(program)

    def test_fully_vectorizable_loop(self, tiny_scalar_program):
        program, report = self.vectorize(tiny_scalar_program)
        assert len(program) > 0
        assert report.vectorizable_fraction == pytest.approx(1.0)
        assert all(remark.vectorized for remark in report.remarks)

    def test_dependencies_reference_earlier_instructions(self,
                                                         tiny_vector_program):
        tiny_vector_program.validate()
        seen = set()
        for instruction in tiny_vector_program.instructions:
            for dep in instruction.depends_on:
                assert dep in seen
            seen.add(instruction.uid)

    def test_chunks_cover_the_whole_array(self, tiny_scalar_program):
        program, _ = self.vectorize(tiny_scalar_program)
        covered = set()
        for instruction in program.instructions:
            if instruction.dest is not None and instruction.dest.array == "b":
                covered.update(range(instruction.dest.offset,
                                     instruction.dest.end))
        assert len(covered) == 64 * 1024

    def test_narrow_elements_pack_wider_vectors(self):
        program = ScalarProgram("int8")
        program.declare_array("a", 65536, element_bits=8)
        program.add_loop(Loop("l", 65536, [
            ScalarStatement(op=OpType.ADD, dest="a", sources=("a",))]))
        vectorized, _ = self.vectorize(program)
        # 4096 x 32-bit = 16 KiB = 16384 INT8 elements per instruction.
        assert vectorized.instructions[0].vector_length == 16384
        assert len(vectorized.vector_instructions) == 4

    def test_loop_carried_dependence_stays_scalar(self):
        program = ScalarProgram("rec")
        program.declare_array("a", 100000)
        program.add_loop(Loop("rec", 100000, [
            ScalarStatement(op=OpType.ADD, dest="a", sources=("a",))],
            loop_carried_dependence=True))
        vectorized, report = self.vectorize(program)
        assert all(i.op is OpType.SCALAR for i in vectorized.instructions)
        assert report.vectorizable_fraction == 0.0

    def test_control_flow_is_partially_vectorized_with_predication(self):
        program = ScalarProgram("branchy")
        program.declare_array("a", 100000)
        program.add_loop(Loop("branchy", 100000, [
            ScalarStatement(op=OpType.ADD, dest="a", sources=("a",))],
            complex_control_flow=True))
        vectorized, report = self.vectorize(program)
        assert any(i.op is OpType.SELECT for i in vectorized.instructions)
        assert any(r.partial for r in report.remarks)

    def test_scalar_sections_chain_in_order(self):
        program = ScalarProgram("control")
        program.add_scalar_section(ScalarSection("s", 10000))
        vectorized, _ = self.vectorize(program)
        scalars = vectorized.instructions
        assert len(scalars) == 3
        assert scalars[1].depends_on == (scalars[0].uid,)

    def test_stencil_offsets_create_cross_sweep_dependencies(self):
        program = ScalarProgram("stencil")
        program.declare_array("a", 32768)
        program.declare_array("b", 32768)
        program.add_loop(Loop("sweep", 32768, [
            ScalarStatement(op=OpType.ADD, dest="b", sources=("a", "a"),
                            source_offsets=(-1, 1)),
            ScalarStatement(op=OpType.ADD, dest="a", sources=("b",))],
            repetitions=2))
        vectorized, _ = self.vectorize(program)
        second_sweep = [i for i in vectorized.instructions
                        if i.uid >= len(vectorized.instructions) // 2]
        assert any(i.depends_on for i in second_sweep)


class TestBinary:
    def test_round_trip(self, tiny_vector_program):
        binary = BinaryEncoder().encode(tiny_vector_program)
        decoded = BinaryDecoder().decode(binary)
        assert len(decoded) == len(tiny_vector_program)
        for original, restored in zip(tiny_vector_program.instructions,
                                      decoded.instructions):
            assert original.uid == restored.uid
            assert original.op is restored.op
            assert original.vector_length == restored.vector_length
            assert original.depends_on == restored.depends_on
            assert original.dest == restored.dest

    def test_size_estimate_close_to_actual(self, tiny_vector_program):
        binary = BinaryEncoder().encode(tiny_vector_program)
        estimate = estimate_binary_bytes(tiny_vector_program)
        assert estimate == pytest.approx(binary.size_bytes, rel=0.25)

    def test_checksum_changes_with_content(self, tiny_vector_program,
                                           manual_vector_program):
        encoder = BinaryEncoder()
        assert (encoder.encode(tiny_vector_program).checksum !=
                encoder.encode(manual_vector_program).checksum)

    def test_decoder_rejects_garbage(self):
        from repro.core.compiler.binary import ConduitBinary
        with pytest.raises(SimulationError):
            BinaryDecoder().decode(ConduitBinary("x", b"NOPE" + b"\0" * 16, 0))

    @given(st.lists(st.sampled_from([OpType.ADD, OpType.XOR, OpType.MUL]),
                    min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_arbitrary_op_sequences(self, ops):
        program = VectorProgram("fuzz", [ArraySpec("a", 1 << 20, 32)])
        for index, op in enumerate(ops):
            offset = (index * 4096) % (1 << 19)
            program.add(VectorInstruction(
                uid=index, op=op, dest=ArrayRef("a", offset, 4096),
                sources=(ArrayRef("a", offset, 4096),),
                depends_on=(index - 1,) if index else ()))
        decoded = BinaryDecoder().decode(BinaryEncoder().encode(program))
        assert [i.op for i in decoded.instructions] == ops
