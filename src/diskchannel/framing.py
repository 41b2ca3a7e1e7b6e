"""Run-length limited framing for the timing channel.

The wire format is built so that the two frame markers each contain a run
of four identical bits, while the payload between them never does: after
every run of exactly three identical payload bits the stuffer inserts the
complement bit. A marker pattern therefore cannot be faked by payload
data, whatever the user sends.

Frame layout::

    symbol sync (16 bits, alternating 1 0 ...)
    start marker 1 1 1 1 0 0 0 0
    stuffed payload (no run of 4 or more identical bits)
    end marker   0 0 0 0 1 1 1 1

The public functions, the receiver's symbol_sync and frame_sync among them,
take any iterable of 0/1 or ``bytes`` of one bit per byte. Each validates
its input once, with ``bits.as_bit_bytes``, and then works on such bytes:
markers are found with ``bytes.find``, the preamble's alternating tail with
a regular expression, and stuffing and destuffing both run eight bits at a
time through precomputed tables, one per run state of the stuffed stream.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable

from .bits import Bits, as_bit_bytes
from .errors import MalformedStuffing, NoEndMarker, NoStartMarker, SyncNotFound

# Longest run of identical bits the stuffer lets through unbroken.
RUN_LIMIT = 3

# Minimum length of an alternating run accepted as (the tail of) a preamble.
MIN_SYNC_RUN = 8

SYMBOL_SYNC: Bits = (1, 0) * 8
START_MARKER: Bits = (1, 1, 1, 1, 0, 0, 0, 0)
END_MARKER: Bits = (0, 0, 0, 0, 1, 1, 1, 1)

_SYNC_BYTES = bytes(SYMBOL_SYNC)
_START_BYTES = bytes(START_MARKER)
_END_BYTES = bytes(END_MARKER)

# Greedy, so a match starts a maximal alternating run and ends with it.
_ALTERNATING_RUN = re.compile(
    rb"(?:\x00(?=\x01)|\x01(?=\x00)){%d,}[\x00\x01]" % (MIN_SYNC_RUN - 1)
)

# Stuffing and destuffing are both transducers whose state between bits is
# the last bit of the stuffed stream and the length of its run so far, or
# (-1, 0) before the first bit. Each state has a table that maps a chunk of
# 1..8 input bits to its output, the offset in the chunk of the bit that
# made a run too long (None if none did; only destuffing has such bits), and
# the table of the state after the chunk.
_State = tuple[int, int]
_Table = dict[bytes, tuple[bytes, "int | None", "_Table"]]
_CHUNK = 8


def _stuff_bit(bit: int, run_bit: int, run_len: int) -> tuple[bytes, _State]:
    """Emit the bit, and the complement after it when it fills a run."""
    run_len = run_len + 1 if bit == run_bit else 1
    if run_len == RUN_LIMIT:
        return bytes((bit, 1 - bit)), (1 - bit, 1)
    return bytes((bit,)), (bit, run_len)


def _destuff_bit(bit: int, run_bit: int, run_len: int) -> tuple[bytes, _State] | None:
    """Drop the complement after a full run; None if the bit extends the run."""
    if run_len == RUN_LIMIT:
        return None if bit == run_bit else (b"", (bit, 1))
    run_len = run_len + 1 if bit == run_bit else 1
    return bytes((bit,)), (bit, run_len)


def _tables(
    step: Callable[[int, int, int], tuple[bytes, _State] | None], max_run: int
) -> dict[_State, _Table]:
    """The table of every state with runs up to max_run, linked together.

    step gives one bit's output and next state from a state, or None if the
    bit makes a run too long. Each entry extends the entry of its chunk
    minus the last bit by one step; past an overlong bit the entry stays
    that of its prefix.
    """
    states = [(-1, 0)] + [(b, n) for b in (0, 1) for n in range(1, max_run + 1)]
    moves = {(bit, s): step(bit, *s) for bit in (0, 1) for s in states}
    entries: dict[_State, dict[bytes, tuple[bytes, int | None, _State]]] = {
        s: {b"": (b"", None, s)} for s in states
    }
    for size in range(1, _CHUNK + 1):
        for chunk in map(bytes, product((0, 1), repeat=size)):
            prefix, bit = chunk[:-1], chunk[-1]
            for state_entries in entries.values():
                out, overlong, state = state_entries[prefix]
                if overlong is None:
                    move = moves[bit, state]
                    if move is None:
                        overlong = size - 1
                    else:
                        out, state = out + move[0], move[1]
                state_entries[chunk] = (out, overlong, state)
    tables: dict[_State, _Table] = {s: {} for s in states}
    # Many states map a chunk to the same entry, so each distinct entry is
    # built once and shared: 6,120 entries hold 1,410 distinct tuples.
    shared: dict[tuple[bytes, int | None, _State], tuple] = {}
    for s, state_entries in entries.items():
        del state_entries[b""]
        for chunk, entry in state_entries.items():
            if entry not in shared:
                out, overlong, state = entry
                shared[entry] = (out, overlong, tables[state])
            tables[s][chunk] = shared[entry]
    return tables


_STUFF = _tables(_stuff_bit, RUN_LIMIT - 1)
_DESTUFF = _tables(_destuff_bit, RUN_LIMIT)


def _transduce(data: bytes, table: _Table) -> tuple[bytes, _Table]:
    """Run data through the tables from table; the output and last table."""
    parts = []
    for i in range(0, len(data), _CHUNK):
        out, overlong, table = table[data[i : i + _CHUNK]]
        if overlong is not None:
            raise MalformedStuffing(
                f"run of {RUN_LIMIT + 1} identical bits at index {i + overlong}"
            )
        parts.append(out)
    return b"".join(parts), table


def _stuff(data: bytes) -> bytes:
    return _transduce(data, _STUFF[-1, 0])[0]


def _destuff(data: bytes) -> bytes:
    out, end = _transduce(data, _DESTUFF[-1, 0])
    if end is _DESTUFF[0, RUN_LIMIT] or end is _DESTUFF[1, RUN_LIMIT]:
        raise MalformedStuffing("stream ends immediately after a full run")
    return out


def stuff_bits(payload: Iterable[int]) -> Bits:
    """Insert a complement bit after every run of exactly RUN_LIMIT bits.

    The inserted bit itself starts a new run, so the output never contains
    a run longer than RUN_LIMIT. Stuffing an empty payload yields an empty
    result.
    """
    return tuple(_stuff(as_bit_bytes(payload)))


def destuff_bits(stuffed: Iterable[int]) -> Bits:
    """Invert stuff_bits by dropping the bit after every run of RUN_LIMIT.

    Raises:
        MalformedStuffing: if the input contains a run of RUN_LIMIT + 1
            identical bits, or ends immediately after a full run (a valid
            stuffed stream always carries the complement there).
    """
    return tuple(_destuff(as_bit_bytes(stuffed)))


def encapsulate(payload: Iterable[int]) -> Bits:
    """Wrap a payload in symbol sync, start marker, stuffing, end marker."""
    stuffed = _stuff(as_bit_bytes(payload))
    return tuple(_SYNC_BYTES + _START_BYTES + stuffed + _END_BYTES)


def decapsulate(message: Iterable[int]) -> Bits:
    """Extract and destuff the payload of a frame, read as frame_sync reads it.

    The message must start with the symbol sync, and the start marker must
    follow it at once; no bits ahead of the frame are skipped.

    Raises:
        NoStartMarker: no symbol sync at the head, or no start marker after it.
        NoEndMarker: no end marker after the start marker.
        MalformedStuffing: payload span violates the stuffing invariant.
    """
    data = as_bit_bytes(message)
    if not data.startswith(_SYNC_BYTES):
        raise NoStartMarker("message does not start with the symbol sync")
    start, end = frame_sync(data, len(SYMBOL_SYNC))
    return tuple(_destuff(data[start:end]))


def symbol_sync(decoded_bits: Iterable[int]) -> int:
    """Index one past the preamble, found via its alternating signature.

    Finds the first maximal alternating run of at least MIN_SYNC_RUN bits;
    its end must leave room for a start marker. Because the start marker
    begins with 1 and the preamble ends with 0, the run's last element is
    normally the first marker bit, so the returned index is exactly where
    the marker check must happen.

    Raises:
        SyncNotFound: no such run exists.
    """
    data = as_bit_bytes(decoded_bits)
    run = _ALTERNATING_RUN.search(data)
    # A later run would end later still, so only the first can fit a marker.
    if run is None or run.end() - 1 + len(START_MARKER) > len(data):
        raise SyncNotFound("no alternating run long enough to be a preamble")
    return run.end() - 1


def frame_sync(decoded_bits: Iterable[int], sync_end: int) -> tuple[int, int]:
    """Payload span (start, end) between the verified markers.

    Raises:
        NoStartMarker: bits at sync_end are not the start marker.
        NoEndMarker: no end marker after the payload.
    """
    data = as_bit_bytes(decoded_bits)
    payload_from = sync_end + len(START_MARKER)
    if data[sync_end:payload_from] != _START_BYTES:
        raise NoStartMarker(f"start marker not present at index {sync_end}")
    end_at = data.find(_END_BYTES, payload_from)
    if end_at < 0:
        raise NoEndMarker("no end marker after the start marker")
    return payload_from, end_at
