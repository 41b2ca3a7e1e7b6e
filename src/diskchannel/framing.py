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
markers are found with ``bytes.find``, the preamble's alternating tail and
the bit after every full run with regular expressions, and stuffing runs
eight bits at a time through a precomputed table.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Iterable

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

_FULL_RUNS = frozenset(bytes([bit]) * RUN_LIMIT for bit in (0, 1))
_OVERLONG_RUN = re.compile(rb"\x00{%d}|\x01{%d}" % (RUN_LIMIT + 1, RUN_LIMIT + 1))
_BIT_AFTER_FULL_RUN = re.compile(
    rb"(?<=\x00{%d}|\x01{%d})." % (RUN_LIMIT, RUN_LIMIT), re.DOTALL
)
# Greedy, so a match starts a maximal alternating run and ends with it.
_ALTERNATING_RUN = re.compile(
    rb"(?:\x00(?=\x01)|\x01(?=\x00)){%d,}[\x00\x01]" % (MIN_SYNC_RUN - 1)
)

# The stuffer's state between bits is the last output bit and the length
# of its run so far, or (-1, 0) before the first bit. Each state has a table
# that maps a chunk of 1..8 payload bits to its stuffed output and to the
# table of the state after it.
_StuffTable = dict[bytes, tuple[bytes, "_StuffTable"]]
_STUFF_CHUNK = 8


def _stuff_chunk(chunk: bytes, run_bit: int, run_len: int) -> tuple[bytes, int, int]:
    """Stuff one chunk bit by bit from a given run state; fills the tables."""
    out = bytearray()
    for bit in chunk:
        out.append(bit)
        if bit == run_bit:
            run_len += 1
        else:
            run_bit, run_len = bit, 1
        if run_len == RUN_LIMIT:
            out.append(1 - bit)
            run_bit, run_len = 1 - bit, 1
    return bytes(out), run_bit, run_len


def _stuff_tables() -> _StuffTable:
    """The table of the start state, linked to those of all other states."""
    states = [(-1, 0)] + [(b, n) for b in (0, 1) for n in range(1, RUN_LIMIT)]
    tables: dict[tuple[int, int], _StuffTable] = {s: {} for s in states}
    for size in range(1, _STUFF_CHUNK + 1):
        for chunk in map(bytes, product((0, 1), repeat=size)):
            for state, table in tables.items():
                out, run_bit, run_len = _stuff_chunk(chunk, *state)
                table[chunk] = (out, tables[run_bit, run_len])
    return tables[-1, 0]


_STUFF_START = _stuff_tables()


def _stuff(data: bytes) -> bytes:
    table = _STUFF_START
    parts = []
    for i in range(0, len(data), _STUFF_CHUNK):
        out, table = table[data[i : i + _STUFF_CHUNK]]
        parts.append(out)
    return b"".join(parts)


def _destuff(data: bytes) -> bytes:
    # Once no run is longer than RUN_LIMIT, every full run in the stream is
    # a maximal one, and the bit after it is the stuffed complement.
    overlong = _OVERLONG_RUN.search(data)
    if overlong is not None:
        raise MalformedStuffing(
            f"run of {RUN_LIMIT + 1} identical bits at index {overlong.start() + RUN_LIMIT}"
        )
    if data[-RUN_LIMIT:] in _FULL_RUNS:
        raise MalformedStuffing("stream ends immediately after a full run")
    return _BIT_AFTER_FULL_RUN.sub(b"", data)


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
