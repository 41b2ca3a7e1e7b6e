import itertools
import random

import pytest
from hypothesis import given, strategies as st

from diskchannel import (
    END_MARKER,
    START_MARKER,
    SYMBOL_SYNC,
    MalformedStuffing,
    NoEndMarker,
    NoStartMarker,
    SyncNotFound,
    decapsulate,
    destuff_bits,
    encapsulate,
    frame_sync,
    stuff_bits,
    symbol_sync,
)
from diskchannel import framing
from oracles import destuff_loop, stuff_loop, stuffed_runs_ok, symbol_sync_loop

payloads = st.lists(st.integers(min_value=0, max_value=1), max_size=512).map(tuple)


def _from_runs(first_bit: int, run_lengths: list[int]) -> tuple[int, ...]:
    bits: list[int] = []
    for k, length in enumerate(run_lengths):
        bits += [(first_bit + k) % 2] * length
    return tuple(bits)


# Arbitrary bit tuples, plus tuples built from runs of 1..4 so that long
# streams are often (nearly) valid stuffing rather than failing early.
bit_streams = st.one_of(
    payloads,
    st.builds(
        _from_runs,
        st.integers(min_value=0, max_value=1),
        st.lists(st.integers(min_value=1, max_value=4), max_size=200),
    ),
)


def _outcome(fn, bits):
    """What fn returns for bits, or the MalformedStuffing message it raises."""
    try:
        return fn(bits)
    except MalformedStuffing as exc:
        return ("MalformedStuffing", str(exc))


def test_stuff_inserts_complement_after_three():
    assert stuff_bits([1, 1, 1]) == (1, 1, 1, 0)
    assert stuff_bits([0, 0, 0, 0]) == (0, 0, 0, 1, 0)


def test_stuffing_counts_inserted_bits_in_later_runs():
    # the inserted 0 joins the following 0-run, which then needs its own
    # stuffed 1 after only two payload zeros
    assert stuff_bits([1, 1, 1, 0, 0]) == (1, 1, 1, 0, 0, 0, 1)
    assert destuff_bits((1, 1, 1, 0, 0, 0, 1)) == (1, 1, 1, 0, 0)


def test_stuff_empty_payload():
    assert stuff_bits([]) == ()
    assert destuff_bits([]) == ()


@given(payloads)
def test_stuff_round_trip(payload):
    assert destuff_bits(stuff_bits(payload)) == payload


@given(payloads)
def test_stuffed_stream_never_runs_past_limit(payload):
    assert stuffed_runs_ok(list(stuff_bits(payload)))


@given(bit_streams)
def test_codec_matches_per_bit_loops(bits):
    assert stuff_bits(bits) == stuff_loop(list(bits))
    assert _outcome(destuff_bits, bits) == _outcome(destuff_loop, list(bits))


def test_codec_matches_per_bit_loops_exhaustive():
    for length in range(13):
        for bits in itertools.product((0, 1), repeat=length):
            assert stuff_bits(bits) == stuff_loop(list(bits))
            assert _outcome(destuff_bits, bits) == _outcome(destuff_loop, list(bits))


@pytest.mark.parametrize(
    "tables", [framing._STUFF, framing._DESTUFF], ids=["stuff", "destuff"]
)
def test_equal_table_entries_are_one_object(tables):
    # Entries compare by output, overlong index and the identity of the next
    # table: comparing the tables themselves would recurse through them.
    objects: dict[tuple, set[int]] = {}
    for table in tables.values():
        for entry in table.values():
            out, overlong, after = entry
            objects.setdefault((out, overlong, id(after)), set()).add(id(entry))
    assert all(len(ids) == 1 for ids in objects.values())


def test_destuff_matches_per_bit_loop_on_corrupted_streams():
    # One flipped bit anywhere in a long stuffed payload, so that errors are
    # raised, and indices named, far past the first eight-bit chunk.
    rng = random.Random(13)
    raised = 0
    for _ in range(1000):
        stuffed = list(stuff_bits(rng.choices((0, 1), k=rng.randint(0, 600))))
        if stuffed:
            stuffed[rng.randrange(len(stuffed))] ^= 1
        want = _outcome(destuff_loop, stuffed)
        assert _outcome(destuff_bits, stuffed) == want
        raised += isinstance(want, tuple) and want[:1] == ("MalformedStuffing",)
    assert raised > 100


def test_destuff_names_the_bit_that_breaks_the_run():
    with pytest.raises(MalformedStuffing, match="run of 4 identical bits at index 6"):
        destuff_bits((1, 0, 0, 1, 1, 1, 1, 1))
    with pytest.raises(MalformedStuffing, match="ends immediately after a full run"):
        destuff_bits((1, 0, 1, 1, 1, 0, 0, 0))


@pytest.mark.parametrize("fn", [stuff_bits, destuff_bits, encapsulate, decapsulate])
@pytest.mark.parametrize("bits, bad", [((1, 2, 0), 2), ((1, -1), -1)])
def test_framing_rejects_non_bit_values(fn, bits, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        fn(bits)


def test_destuff_rejects_run_of_four():
    with pytest.raises(MalformedStuffing):
        destuff_bits((1, 1, 1, 1))


def test_destuff_rejects_truncated_run():
    # a full run must be followed by its stuffed complement
    with pytest.raises(MalformedStuffing):
        destuff_bits((0, 0, 0))


def test_encapsulate_layout():
    frame = encapsulate((1, 0, 1))
    assert frame[:16] == SYMBOL_SYNC
    assert frame[16:24] == START_MARKER
    assert frame[-8:] == END_MARKER
    assert frame[24:-8] == (1, 0, 1)


def test_frame_round_trip_random_payloads():
    rng = random.Random(99)
    for _ in range(200):
        payload = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 128)))
        assert decapsulate(encapsulate(payload)) == payload


def test_decapsulate_requires_preamble():
    with pytest.raises(NoStartMarker):
        decapsulate(START_MARKER + (1, 0, 1) + END_MARKER)


def test_decapsulate_requires_start_marker():
    with pytest.raises(NoStartMarker):
        decapsulate(SYMBOL_SYNC + (0, 0, 1, 1) * 10)


def test_decapsulate_requires_end_marker():
    with pytest.raises(NoEndMarker):
        decapsulate(SYMBOL_SYNC + START_MARKER + (1, 0) * 4)


def test_decapsulate_rejects_bits_ahead_of_the_sync():
    with pytest.raises(NoStartMarker, match="does not start with the symbol sync"):
        decapsulate((0, 1, 1) + encapsulate((1, 0)))


def test_decapsulate_does_not_realign_on_a_corrupted_start_marker():
    frame = list(encapsulate((0, 1, 1, 0, 1)))
    frame[20] ^= 1  # the marker's first 0: 1111 1000
    with pytest.raises(NoStartMarker, match="at index 16"):
        decapsulate(frame)


# --- receiver phases 3 and 4: symbol and frame sync ---


def _sync_outcome(fn, *args):
    """What fn returns for args, or the name and message of the error it raises."""
    try:
        return fn(*args)
    except (SyncNotFound, NoStartMarker, NoEndMarker) as exc:
        return (type(exc).__name__, str(exc))


def test_symbol_sync_matches_per_bit_loop_exhaustive():
    for length in range(17):
        for bits in itertools.product((0, 1), repeat=length):
            want = _sync_outcome(symbol_sync_loop, bits)
            assert _sync_outcome(symbol_sync, bytes(bits)) == want, bits


def _noisy_frame(lead, payload, flips):
    bits = list(lead + encapsulate(payload))
    for i in flips:
        bits[i % len(bits)] ^= 1
    return tuple(bits)


# Arbitrary streams, plus frames behind noise with a few bits flipped, so
# that preambles cut short, split or run on into the marker turn up.
sync_streams = st.one_of(
    st.lists(st.integers(min_value=0, max_value=1), max_size=300).map(tuple),
    st.builds(
        _noisy_frame,
        st.lists(st.integers(min_value=0, max_value=1), max_size=40).map(tuple),
        payloads,
        st.lists(st.integers(min_value=0), max_size=4),
    ),
)


@given(sync_streams)
def test_symbol_sync_matches_per_bit_loop(bits):
    want = _sync_outcome(symbol_sync_loop, bits)
    assert _sync_outcome(symbol_sync, bits) == want
    assert _sync_outcome(symbol_sync, bytes(bits)) == want


@given(sync_streams, st.integers(min_value=0, max_value=60))
def test_frame_sync_same_for_tuple_and_bytes(bits, sync_end):
    # Also at the index symbol_sync finds, where a start marker usually is.
    found = _sync_outcome(symbol_sync, bits)
    for at in [sync_end] + ([found] if isinstance(found, int) else []):
        want = _sync_outcome(frame_sync, bits, at)
        assert _sync_outcome(frame_sync, bytes(bits), at) == want
