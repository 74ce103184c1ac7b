"""Tests for the NAND flash array model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError
from repro.ssd.config import NANDConfig
from repro.ssd.nand import (FlashBlock, NANDArray, PageState,
                            PhysicalBlockAddress)


def small_nand() -> NANDConfig:
    return NANDConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                      blocks_per_plane=8, pages_per_block=16)


class TestFlashBlock:
    def block(self) -> FlashBlock:
        return FlashBlock(PhysicalBlockAddress(0, 0, 0, 0), pages=4)

    def test_program_in_order(self):
        block = self.block()
        assert block.program(lpa=10) == 0
        assert block.program(lpa=11) == 1
        assert block.valid_pages == 2
        assert block.free_pages == 2

    def test_program_full_block_raises(self):
        block = self.block()
        for lpa in range(4):
            block.program(lpa)
        with pytest.raises(SimulationError):
            block.program(99)

    def test_invalidate_then_states(self):
        block = self.block()
        block.program(5)
        block.invalidate(0)
        assert block.state_of(0) is PageState.INVALID
        assert block.valid_pages == 0
        assert block.invalid_pages == 1

    def test_invalidate_free_page_raises(self):
        with pytest.raises(SimulationError):
            self.block().invalidate(0)

    def test_erase_resets_and_counts(self):
        block = self.block()
        block.program(1)
        block.erase()
        assert block.erase_count == 1
        assert block.valid_pages == 0
        assert block.write_cursor == 0
        assert block.state_of(0) is PageState.FREE

    def test_valid_lpas_excludes_invalidated(self):
        block = self.block()
        block.program(1)
        block.program(2)
        block.invalidate(0)
        assert block.valid_lpas() == [2]

    def test_page_states_dense_view(self):
        block = self.block()
        block.program(1)
        block.invalidate(0)
        block.program(2)
        assert block.page_states == [PageState.INVALID, PageState.VALID,
                                     PageState.FREE, PageState.FREE]


class TestNANDArray:
    def test_geometry(self):
        array = NANDArray(small_nand())
        assert array.total_blocks == 2 * 2 * 1 * 8
        assert array.free_block_count() == array.total_blocks

    def test_program_read_roundtrip(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        ppa = array.program_page(address, lpa=42)
        assert array.read_page(ppa) == 42

    def test_free_block_counter_tracks_programs_and_erases(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(1, 0, 0, 3)
        before = array.free_block_count()
        array.program_page(address, 7)
        assert array.free_block_count() == before - 1
        array.invalidate_page(array.block(address).address.page(0))
        array.erase_block(address)
        assert array.free_block_count() == before

    def test_counters(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 1, 0, 0)
        ppa = array.program_page(address, 1)
        array.read_page(ppa)
        array.invalidate_page(ppa)
        array.erase_block(address)
        assert array.programs == 1
        assert array.reads == 1
        assert array.erases == 1

    def test_erase_count_stats(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        array.program_page(address, 1)
        array.invalidate_page(address.page(0))
        array.erase_block(address)
        minimum, mean, maximum = array.erase_count_stats()
        assert minimum == 0
        assert maximum == 1
        assert 0 < mean < 1

    def test_timing_helpers_match_config(self):
        config = small_nand()
        array = NANDArray(config)
        assert array.read_time_ns() == config.read_latency_ns
        assert array.program_time_ns() == config.program_latency_ns
        assert array.erase_time_ns() == config.erase_latency_ns

    @given(st.integers(min_value=1, max_value=16))
    def test_valid_page_count_matches_programs(self, pages):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        for lpa in range(pages):
            array.program_page(address, lpa)
        assert array.valid_page_count() == pages


# ------------------------------------------------------------------------
# Free-block index vs the linear scan it replaced
# ------------------------------------------------------------------------


def reference_is_free(plane, index: int) -> bool:
    """Freeness from block state alone: not cold, and erased or untouched."""
    if index < plane.cold_blocks:
        return False
    block = plane._blocks.get(index)
    return block is None or block.write_cursor == 0


def scan_free_block(plane, start: int):
    """The free-block index's oracle: the allocator's old linear scan from
    ``start``, wrapping around."""
    blocks = plane.block_count
    for offset in range(blocks):
        index = (start + offset) % blocks
        if reference_is_free(plane, index):
            return index
    return None


def assert_index_matches_scan(array: NANDArray) -> None:
    free = 0
    for plane in array.iter_planes():
        for index in range(plane.block_count):
            assert plane.is_free_block(index) == reference_is_free(plane,
                                                                   index)
            assert plane.next_free_block(index) == scan_free_block(plane,
                                                                   index)
            free += reference_is_free(plane, index)
    assert array.free_block_count() == free


NAND_OPS = st.lists(
    st.tuples(st.sampled_from(["program", "erase", "load", "read",
                               "materialize", "invalidate"]),
              st.integers(min_value=0, max_value=1),
              st.one_of(st.integers(min_value=0, max_value=7),
                        st.integers(min_value=0, max_value=69)),
              st.integers(min_value=0, max_value=3)),
    max_size=60)


class TestFreeBlockIndex:
    @given(blocks=st.integers(min_value=1, max_value=70),
           pages=st.integers(min_value=1, max_value=4),
           planes=st.integers(min_value=1, max_value=2),
           cold=st.lists(st.integers(min_value=0, max_value=70),
                         min_size=2, max_size=2),
           ops=NAND_OPS)
    @settings(max_examples=150, deadline=None)
    def test_next_free_block_matches_linear_scan(self, blocks, pages,
                                                 planes, cold, ops):
        """Random program / erase / load / cold-mark sequences: after each
        step the index answers exactly what the linear scan does, for
        every start, and agrees with the free-block counter."""
        array = NANDArray(NANDConfig(channels=1, dies_per_channel=1,
                                     planes_per_die=planes,
                                     blocks_per_plane=blocks,
                                     pages_per_block=pages))
        for plane, count in zip(array.iter_planes(), cold):
            array.mark_cold_blocks(0, 0, plane.plane, min(count, blocks),
                                   erase_count=3)
        assert_index_matches_scan(array)
        for op, plane_index, block_index, page in ops:
            plane_index %= planes
            block_index %= blocks
            plane = array.die(0, 0).plane(plane_index)
            address = PhysicalBlockAddress(0, 0, plane_index, block_index)
            if op == "program":
                if plane.block(block_index).is_full:
                    continue
                array.program_page(address, lpa=block_index)
            elif op == "erase":
                array.erase_block(address)
            elif op == "load":
                if (block_index in plane._blocks
                        or block_index < plane.cold_blocks):
                    continue
                written = min(page, pages - 1) + 1
                array.load_block(address,
                                 {p: p for p in range(0, written, 2)},
                                 set(range(1, written, 2)), erase_count=1)
            elif op == "read":
                array.read_page(address.page(page % pages))
            elif op == "materialize":
                plane.block(block_index)
            else:
                block = plane.block(block_index)
                if block.state_of(page % pages) is PageState.VALID:
                    array.invalidate_page(address.page(page % pages))
            assert_index_matches_scan(array)

    def test_materialized_cold_block_is_never_free(self):
        array = NANDArray(NANDConfig(channels=1, dies_per_channel=1,
                                     planes_per_die=1, blocks_per_plane=8,
                                     pages_per_block=4))
        array.mark_cold_blocks(0, 0, 0, 3)
        plane = array.die(0, 0).plane(0)
        plane.block(1)
        array.read_page(PhysicalBlockAddress(0, 0, 0, 2).page(0))
        assert array.free_block_count() == 5
        assert [index for index in range(8)
                if plane.is_free_block(index)] == [3, 4, 5, 6, 7]
        assert plane.next_free_block(0) == 3
        # Programming and erasing a cold block does not hand it to the
        # allocator either.
        cold = PhysicalBlockAddress(0, 0, 0, 1)
        array.program_page(cold, lpa=0)
        array.erase_block(cold)
        assert not plane.is_free_block(1)
        assert array.free_block_count() == 5

    def test_next_free_block_wraps_and_reports_full_planes(self):
        array = NANDArray(NANDConfig(channels=1, dies_per_channel=1,
                                     planes_per_die=1, blocks_per_plane=4,
                                     pages_per_block=1))
        plane = array.die(0, 0).plane(0)
        for index in (0, 2, 3):
            array.program_page(PhysicalBlockAddress(0, 0, 0, index), index)
        assert plane.next_free_block(2) == 1
        array.program_page(PhysicalBlockAddress(0, 0, 0, 1), 1)
        assert plane.next_free_block(0) is None
        assert array.free_block_count() == 0
