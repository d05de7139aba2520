"""Tests for the sparse backing store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.memory.store import PAGE_SIZE, SparseMemory


class TestBasics:
    def test_unwritten_reads_fill_value(self):
        memory = SparseMemory(1024, fill=0xAB)
        assert memory.read(0, 4) == b"\xab\xab\xab\xab"

    def test_roundtrip(self):
        memory = SparseMemory(1 << 20)
        memory.write(1000, b"hello")
        assert memory.read(1000, 5) == b"hello"

    def test_cross_page_write(self):
        memory = SparseMemory(3 * PAGE_SIZE)
        data = bytes(range(256)) * 20  # spans pages
        memory.write(PAGE_SIZE - 100, data)
        assert memory.read(PAGE_SIZE - 100, len(data)) == data

    def test_pages_materialize_lazily(self):
        memory = SparseMemory(1 << 30)
        assert memory.resident_pages == 0
        memory.write(12345, b"x")
        assert memory.resident_pages == 1
        memory.read(1 << 29, 64)  # read does not allocate
        assert memory.resident_pages == 1

    def test_out_of_range_rejected(self):
        memory = SparseMemory(100)
        with pytest.raises(MemoryFault):
            memory.read(90, 20)
        with pytest.raises(MemoryFault):
            memory.write(99, b"ab")
        with pytest.raises(MemoryFault):
            memory.write(-1, b"a")
        with pytest.raises(MemoryFault):
            memory.read(-1, 1)

    def test_erase_drops_everything(self):
        memory = SparseMemory(1024, fill=0)
        memory.write(0, b"data")
        memory.erase()
        assert memory.read(0, 4) == b"\x00\x00\x00\x00"
        assert memory.resident_pages == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(MemoryFault):
            SparseMemory(0)
        with pytest.raises(MemoryFault):
            SparseMemory(10, fill=300)


class TestProperties:
    @given(
        address=st.integers(min_value=0, max_value=3 * PAGE_SIZE),
        data=st.binary(min_size=1, max_size=2 * PAGE_SIZE),
    )
    @settings(max_examples=50, deadline=None)
    def test_write_then_read_roundtrip(self, address, data):
        memory = SparseMemory(8 * PAGE_SIZE)
        memory.write(address, data)
        assert memory.read(address, len(data)) == data

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_non_overlapping_writes_independent(self, data):
        memory = SparseMemory(4 * PAGE_SIZE)
        first = data.draw(st.binary(min_size=1, max_size=100))
        second = data.draw(st.binary(min_size=1, max_size=100))
        memory.write(0, first)
        memory.write(2 * PAGE_SIZE, second)
        assert memory.read(0, len(first)) == first
        assert memory.read(2 * PAGE_SIZE, len(second)) == second


_PAGES = 6
_CAPACITY = _PAGES * PAGE_SIZE

# Addresses and lengths cluster on page boundaries, where the page walk
# switches between partial-page copies, whole-page replacement and joins.
_addresses = st.one_of(
    st.integers(0, _PAGES).map(lambda page: page * PAGE_SIZE),
    st.tuples(st.integers(0, _PAGES), st.integers(-3, 3)).map(
        lambda pair: min(max(pair[0] * PAGE_SIZE + pair[1], 0), _CAPACITY)
    ),
    st.integers(0, _CAPACITY),
)
_lengths = st.one_of(
    st.sampled_from([0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 2 * PAGE_SIZE]),
    st.integers(0, 3 * PAGE_SIZE),
)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "bytes", "bytearray", "memoryview"]),
        _addresses,
        _lengths,
        st.integers(0, 2**32),
    ),
    min_size=1,
    max_size=12,
)


class TestAgainstFlatModel:
    """Generated access sequences against a flat ``bytearray`` model.

    Wall budget: 1 s for this class (about 0.5 s on a 2-core Xeon host).
    """

    @given(fill=st.sampled_from([0x00, 0xA5, 0xFF]), ops=_ops)
    @settings(max_examples=80, deadline=None)
    def test_matches_flat_bytearray(self, fill, ops):
        import random

        memory = SparseMemory(_CAPACITY, fill=fill)
        model = bytearray([fill]) * _CAPACITY
        touched = set()
        for kind, address, length, seed in ops:
            length = min(length, _CAPACITY - address)
            if kind == "read":
                out = memory.read(address, length)
                assert type(out) is bytes
                assert out == model[address : address + length]
                continue
            payload = bytearray(random.Random(seed).randbytes(length))
            data = {
                "bytes": bytes(payload),
                "bytearray": payload,
                "memoryview": memoryview(payload),
            }[kind]
            memory.write(address, data)
            model[address : address + length] = payload
            if length:
                touched.update(
                    range(address // PAGE_SIZE, (address + length - 1) // PAGE_SIZE + 1)
                )
            # the store keeps its own copy of the caller's buffer
            payload[:] = bytes(byte ^ 0xFF for byte in payload)
            assert memory.resident_pages == len(touched)
        whole = memory.read(0, _CAPACITY)
        assert type(whole) is bytes
        assert whole == model
        # multi-page reads that start or end one byte inside a page
        for start in (1, PAGE_SIZE - 1, 2 * PAGE_SIZE + 1):
            for length in (PAGE_SIZE - 1, PAGE_SIZE + 1, 3 * PAGE_SIZE - 2):
                assert memory.read(start, length) == model[start : start + length]
        assert memory.resident_pages == len(touched)

    def test_whole_page_write_replaces_existing_page(self):
        memory = SparseMemory(3 * PAGE_SIZE, fill=0x11)
        memory.write(PAGE_SIZE + 5, b"old")
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        memory.write(PAGE_SIZE, page)
        assert memory.read(PAGE_SIZE, PAGE_SIZE) == page
        assert memory.read(PAGE_SIZE - 2, 4) == b"\x11\x11" + page[:2]
        assert memory.resident_pages == 1

    def test_zero_length_access_at_capacity(self):
        memory = SparseMemory(2 * PAGE_SIZE, fill=0x7F)
        assert memory.read(2 * PAGE_SIZE, 0) == b""
        memory.write(2 * PAGE_SIZE, b"")
        assert memory.resident_pages == 0
        with pytest.raises(MemoryFault):
            memory.read(2 * PAGE_SIZE, 1)

    def test_unwritten_multi_page_read_is_fill(self):
        memory = SparseMemory(4 * PAGE_SIZE, fill=0xC3)
        memory.write(2 * PAGE_SIZE + 7, b"\x00")
        out = memory.read(PAGE_SIZE - 1, 2 * PAGE_SIZE + 9)
        assert type(out) is bytes
        assert out == b"\xc3" * (PAGE_SIZE + 8) + b"\x00" + b"\xc3" * PAGE_SIZE


class _Owner:
    """A deferring owner that stores its held bytes when asked."""

    def __init__(self, memory, address, data):
        self.memory, self.address, self.data = memory, address, data
        self.materialized = 0
        memory.defer(self, [(address, len(data))])

    def materialize(self):
        self.materialized += 1
        self.memory.release()
        self.memory.write(self.address, self.data)


def _fault(read, *args):
    with pytest.raises(MemoryFault) as info:
        read(*args)
    return str(info.value)


def _span_cost(length):
    """A stand-in for a device's per-length latency."""
    return 1000 + 3 * length


class TestReadSpans:
    """``read_spans``: one charged gather that returns what per-span ``read`` does."""

    @given(
        fill=st.sampled_from([0x00, 0x5A]),
        writes=st.lists(
            st.tuples(st.integers(0, 3 * PAGE_SIZE), st.binary(min_size=1, max_size=200)),
            max_size=5,
        ),
        held=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 4 * PAGE_SIZE - 8), st.binary(min_size=1, max_size=8)),
        ),
        spans=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 4 * PAGE_SIZE),
                    st.integers(1, 4).map(lambda page: page * PAGE_SIZE - 4),
                ),
                st.one_of(st.just(0), st.integers(0, PAGE_SIZE + 100)),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_span_reads(self, fill, writes, held, spans):
        """In-page, page-crossing, unwritten, empty and deferred-overlapping spans:
        the chunks are ``bytes`` equal to per-span reads, the totals their lengths
        and costs."""
        gathered = SparseMemory(4 * PAGE_SIZE, fill=fill)
        reference = SparseMemory(4 * PAGE_SIZE, fill=fill)
        for memory in (gathered, reference):
            for address, data in writes:
                memory.write(address, data)
            if held is not None:
                _Owner(memory, *held)
        spans = [(address, min(length, 4 * PAGE_SIZE - address)) for address, length in spans]
        chunks, total, charged = gathered.read_spans(spans, _span_cost)
        assert all(type(chunk) is bytes for chunk in chunks)
        assert chunks == [reference.read(address, length) for address, length in spans]
        assert total == sum(length for _address, length in spans)
        assert charged == sum(_span_cost(length) for _address, length in spans)

    def test_overlapping_a_deferred_write_materializes_it_first(self):
        memory = SparseMemory(2 * PAGE_SIZE)
        owner = _Owner(memory, PAGE_SIZE - 4, b"held-bytes")
        assert memory.read_spans([(0, 8)], _span_cost)[0] == [bytes(8)]  # no overlap: held
        assert owner.materialized == 0
        chunks, total, _charged = memory.read_spans([(0, 8), (PAGE_SIZE, 4)], _span_cost)
        assert (chunks, total) == ([bytes(8), b"-byt"], 12)
        assert owner.materialized == 1
        assert memory.read_spans([(PAGE_SIZE - 4, 10)], _span_cost)[0] == [b"held-bytes"]
        assert owner.materialized == 1

    @pytest.mark.parametrize(
        "span", [(-1, 4), (-PAGE_SIZE, 8), (8, -1), (2 * PAGE_SIZE - 4, 8), (2 * PAGE_SIZE, 1)]
    )
    def test_bad_span_raises_the_fault_read_raises(self, span):
        memory = SparseMemory(2 * PAGE_SIZE)
        want = _fault(memory.read, *span)
        assert _fault(memory.read_spans, [(0, 8), span, (16, 8)], _span_cost) == want

    def test_fault_after_a_deferred_span_materialized_it(self):
        memory = SparseMemory(2 * PAGE_SIZE)
        owner = _Owner(memory, 64, b"held")
        _fault(memory.read_spans, [(64, 4), (2 * PAGE_SIZE, 1)], _span_cost)
        assert owner.materialized == 1
        assert memory.read(64, 4) == b"held"
