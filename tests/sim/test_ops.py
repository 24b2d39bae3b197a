"""Unit + property tests for line-address expansion of memory ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.ops import (
    SHORT_GATHER,
    GatherRead,
    ScatterWrite,
    StridedRead,
    StridedWrite,
    lines_for_block,
    lines_for_gather,
    lines_for_stride,
)


class TestBlockExpansion:
    def test_block_within_one_line(self):
        assert list(lines_for_block(0, 16, 32)) == [0]

    def test_block_spanning_lines(self):
        assert list(lines_for_block(16, 32, 32)) == [0, 1]

    def test_exact_line_multiple(self):
        assert list(lines_for_block(32, 64, 32)) == [1, 2]

    def test_empty_block(self):
        assert list(lines_for_block(0, 0, 32)) == []

    def test_block_is_a_range(self):
        assert lines_for_block(40, 100, 32) == range(1, 5)


class TestStrideExpansion:
    def test_unit_stride_collapses_within_line(self):
        lines = lines_for_stride(0, count=8, stride_bytes=4, elem_bytes=4, line_bytes=32)
        assert list(lines) == [0]

    def test_large_stride_touches_every_line(self):
        lines = lines_for_stride(0, count=4, stride_bytes=512, elem_bytes=4, line_bytes=32)
        assert list(lines) == [0, 16, 32, 48]

    def test_element_straddles_line_boundary(self):
        lines = lines_for_stride(30, count=1, stride_bytes=64, elem_bytes=4, line_bytes=32)
        assert list(lines) == [0, 1]

    def test_zero_count(self):
        assert len(lines_for_stride(0, 0, 4, 4, 32)) == 0

    def test_element_larger_than_line(self):
        lines = lines_for_stride(0, count=2, stride_bytes=128, elem_bytes=64, line_bytes=32)
        assert list(lines) == [0, 1, 4, 5]

    def test_wide_element_unaligned_start(self):
        # Element [40, 136) spans lines 1-4; next at 168 spans 5-8.
        lines = lines_for_stride(40, count=2, stride_bytes=128, elem_bytes=96, line_bytes=32)
        assert list(lines) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_wide_element_overlapping_stride_collapses_duplicates(self):
        # Stride < element width: consecutive elements share lines, and
        # only *consecutive* duplicates collapse (LRU-exact ordering).
        lines = lines_for_stride(0, count=3, stride_bytes=32, elem_bytes=64, line_bytes=32)
        assert list(lines) == [0, 1, 2, 3]

    def test_wide_element_matches_per_element_blocks(self):
        # The segmented expansion equals the naive per-element loop.
        for addr, count, stride, elem in [
            (0, 5, 100, 70),
            (17, 4, 96, 64),
            (3, 7, 33, 65),
            (1000, 3, 260, 130),
        ]:
            got = list(lines_for_stride(addr, count, stride, elem, 32))
            want = []
            for i in range(count):
                s = addr + i * stride
                for line in range((s) // 32, (s + elem - 1) // 32 + 1):
                    if not want or want[-1] != line:
                        want.append(line)
            assert got == want, (addr, count, stride, elem)


class TestGatherExpansion:
    def test_duplicate_consecutive_addresses_collapse(self):
        lines = lines_for_gather([0, 4, 8, 100], elem_bytes=4, line_bytes=32)
        assert list(lines) == [0, 3]

    def test_order_preserved(self):
        lines = lines_for_gather([100, 0, 200], elem_bytes=4, line_bytes=32)
        assert list(lines) == [3, 0, 6]

    def test_empty_gather(self):
        assert len(lines_for_gather([], 4, 32)) == 0

    def test_wide_element_keeps_middle_lines(self):
        # Each 96-byte element spans three lines; all three are touched.
        assert list(lines_for_gather([0, 128], 96, 32)) == [0, 1, 2, 4, 5, 6]
        long = [128 * i for i in range(SHORT_GATHER + 1)]
        got = lines_for_gather(long, 96, 32)
        assert list(got) == [4 * i + j for i in range(len(long)) for j in range(3)]

    def test_short_gather_is_a_list_of_ints(self):
        lines = lines_for_gather(np.array([100, 0, 200]), 4, 32)
        assert lines == [3, 0, 6]
        assert all(type(x) is int for x in lines)
        long = lines_for_gather(list(range(0, 64 * (SHORT_GATHER + 1), 64)), 4, 32)
        assert isinstance(long, np.ndarray) and long.dtype == np.int64


class TestExpansionProperties:
    @given(
        addr=st.integers(min_value=0, max_value=10000),
        count=st.one_of(
            st.integers(min_value=0, max_value=2 * SHORT_GATHER),
            st.integers(min_value=0, max_value=200),
        ),
        stride=st.integers(min_value=1, max_value=256),
        elem=st.sampled_from([1, 2, 4, 8, 31, 32, 33, 64, 96, 130]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stride_matches_naive_gather(self, addr, count, stride, elem):
        """Strided expansion equals gather over the same addresses, on
        both sides of the short-gather cutoff and for elements wider
        than a line."""
        addrs = [addr + i * stride for i in range(count)]
        a = lines_for_stride(addr, count, stride, elem, 32)
        b = lines_for_gather(addrs, elem, 32)
        assert np.array_equal(a, b)

    @given(
        addr=st.integers(min_value=0, max_value=10000),
        nbytes=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_covers_all_bytes(self, addr, nbytes):
        lines = set(lines_for_block(addr, nbytes, 32))
        for byte in (addr, addr + nbytes - 1, addr + nbytes // 2):
            assert byte // 32 in lines

    @given(
        addrs=st.lists(st.integers(min_value=0, max_value=100000), max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_gather_has_no_consecutive_duplicates(self, addrs):
        lines = lines_for_gather(addrs, 4, 32)
        assert all(lines[i] != lines[i + 1] for i in range(len(lines) - 1))


class TestElementWidthValidation:
    """A non-positive ``elem_bytes`` has no lines; the expansions used to
    disagree on it (``lines_for_gather([0, 64], 0, 32)`` gave ``[0, 2]``,
    ``lines_for_stride`` gave ``[]``), so building such an op raises."""

    @pytest.mark.parametrize("elem", [0, -1, -32])
    @pytest.mark.parametrize(
        "build",
        [
            lambda e: StridedRead(0, 2, 64, elem_bytes=e),
            lambda e: StridedWrite(0, 2, 64, elem_bytes=e),
            lambda e: GatherRead([0, 64], elem_bytes=e),
            lambda e: ScatterWrite([0, 64], elem_bytes=e),
        ],
        ids=["StridedRead", "StridedWrite", "GatherRead", "ScatterWrite"],
    )
    def test_non_positive_elem_bytes_rejected(self, build, elem):
        with pytest.raises(ValueError, match="elem_bytes must be positive"):
            build(elem)

    def test_positive_elem_bytes_accepted(self):
        assert StridedRead(0, 2, 64, elem_bytes=1).elem_bytes == 1
        assert GatherRead([0, 64]).elem_bytes == 4
        assert ScatterWrite([0], elem_bytes=130).elem_bytes == 130
