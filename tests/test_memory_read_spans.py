"""Differential property test: ``read_spans`` charges what per-span ``read`` does.

Twin devices receive the same writes.  One reads a list of spans with a
single ``read_spans`` call, the device's one store gather; the other
reads the same spans one ``read`` at a time, and its latency is worked
out per span from the device's parameters as they are at that moment,
with no memo.  Chunks (``bytes``), summed latency and ``bytes_read``
must agree bit for bit, also when a span crosses a page boundary, reads
a page never written, is empty, overlaps a write the store holds
deferred, follows a DRAM ``set_frequency`` or a change of a PCM's read
bandwidth, or faults (out of range, self-refresh, powered-off NVM) after
earlier spans were charged.  Chunks are also checked against a plain
shadow copy of everything written.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.memory.store import PAGE_SIZE
from repro.units import PICOSECONDS_PER_SECOND

CAPACITY = 4 * PAGE_SIZE


def make_device(kind):
    if kind == "dram":
        return DRAMDevice("dram", capacity_bytes=CAPACITY)
    return PCMDevice("pcm", capacity_bytes=CAPACITY)


def unmemoized_latency(device, length):
    """One read's latency from the device's current parameters."""
    if isinstance(device, DRAMDevice):
        return device.transfer_latency_ps(length)
    streaming = length / device.read_bandwidth_bytes_per_s * PICOSECONDS_PER_SECOND
    return device.base_read_latency_ps + round(streaming)


def per_span_reads(device, spans):
    """One ``read`` per span, each charged at the unmemoized latency."""
    chunks, latency = [], 0
    for address, length in spans:
        data, _latency = device.read(address, length)
        chunks.append(data)
        latency += unmemoized_latency(device, length)
    return chunks, latency


def outcome(read, device, spans):
    """What a read returns, or the fault it raised, plus the bytes charged."""
    try:
        result = read(device, spans)
    except MemoryFault as fault:
        result = ("fault", str(fault))
    return result, device.bytes_read


def span_read(device, spans):
    return device.read_spans(spans)


class HeldWrite:
    """An owner holding one write in the device's store until it is read."""

    def __init__(self, device, address, data):
        self.store, self.address, self.data = device._store, address, data
        self.store.defer(self, [(address, len(data))])

    def materialize(self):
        self.store.release()
        self.store.write(self.address, self.data)


spans_strategy = st.lists(
    st.tuples(
        # a few addresses land past the end, so out-of-range faults occur
        st.integers(min_value=0, max_value=CAPACITY + 64),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=700)),
    ),
    min_size=0,
    max_size=8,
)


@given(
    kind=st.sampled_from(["dram", "pcm"]),
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY - 1),
            st.binary(min_size=1, max_size=300),
        ),
        max_size=4,
    ),
    held=st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY - 16), st.binary(min_size=1, max_size=16)
        ),
    ),
    warm=spans_strategy,
    spans=spans_strategy,
    retune=st.sampled_from([None, 0.5, 0.8333, 1.333]),
    fault=st.sampled_from([None, "sleep"]),
)
@settings(max_examples=150, deadline=None)
def test_read_spans_matches_per_span_reads(kind, writes, held, warm, spans, retune, fault):
    memo, reference = make_device(kind), make_device(kind)
    shadow = bytearray(CAPACITY)
    for address, data in writes:
        data = data[: CAPACITY - address]
        memo.write(address, data)
        reference.write(address, data)
        shadow[address : address + len(data)] = data
    # fill any latency memo at the current parameters before a retune
    assert outcome(span_read, memo, warm) == outcome(per_span_reads, reference, warm)
    if held is not None:
        address, data = held
        HeldWrite(memo, address, data)
        HeldWrite(reference, address, data)
        shadow[address : address + len(data)] = data
    if retune is not None:
        for device in (memo, reference):
            if kind == "dram":
                device.set_frequency(1.6e9 * retune)
            else:
                device.read_bandwidth_bytes_per_s *= retune
    if fault == "sleep":
        for device in (memo, reference):
            if kind == "dram":
                device.enter_self_refresh()
            else:
                device.power_off()
    got = outcome(span_read, memo, spans)
    assert got == outcome(per_span_reads, reference, spans)
    result = got[0]
    if result[0] != "fault":
        chunks, _latency = result
        assert all(type(chunk) is bytes for chunk in chunks)
        assert chunks == [bytes(shadow[a : a + n]) for a, n in spans]


def test_empty_span_list_touches_nothing_even_asleep():
    dram = make_device("dram")
    dram.enter_self_refresh()
    assert dram.read_spans([]) == ([], 0)
    pcm = make_device("pcm")
    pcm.power_off()
    assert pcm.read_spans([]) == ([], 0)
    assert dram.bytes_read == pcm.bytes_read == 0


def test_fault_leaves_earlier_spans_charged():
    dram = make_device("dram")
    try:
        dram.read_spans([(0, 64), (CAPACITY - 8, 16)])
    except MemoryFault:
        pass
    else:
        raise AssertionError("span past the end was read")
    assert dram.bytes_read == 64
