"""Bit sequence helpers: validation, string and text codecs, random payloads."""

from __future__ import annotations

import random
from typing import Iterable

Bits = tuple[int, ...]


_BIT_VALUES = frozenset((0, 1))
_BIT_BYTES = bytes(_BIT_VALUES)


def as_bits(values: Iterable[int]) -> Bits:
    """Normalise an iterable into a tuple of ints, rejecting anything but 0/1.

    The ValueError names the first value that is not a bit.
    """
    return tuple(as_bit_bytes(values))


def as_bit_bytes(values: Iterable[int]) -> bytes:
    """Validate like as_bits, but return the bits as bytes, one bit per byte.

    ``bytes`` and a tuple or list of plain ints take a fast path through
    ``bytes()``; anything else, and any input that path rejects, is checked
    value by value against the bit values before it is converted with
    ``int()``, so 1.0, True and numpy integers pass while 1.7 or "1" raise.
    The fast path is kept to these types because ``bytes()`` of an int or
    of a numpy array gives zero bytes or the raw buffer, not the values.
    """
    if isinstance(values, (bytes, tuple, list)):
        try:
            data = bytes(values)
        except (TypeError, ValueError):
            pass
        else:
            if not data.translate(None, _BIT_BYTES):
                return data
    values = tuple(values)
    if not _BIT_VALUES.issuperset(values):
        bad = next(v for v in values if v not in _BIT_VALUES)
        raise ValueError(f"bit values must be 0 or 1, got {bad!r}")
    return bytes(map(int, values))


def bits_from_string(text: str) -> Bits:
    """Parse a string of '0'/'1' characters. Whitespace is ignored."""
    cleaned = "".join(text.split())
    if not all(c in "01" for c in cleaned):
        raise ValueError(f"bit string may only contain 0 and 1: {text!r}")
    return tuple(int(c) for c in cleaned)


def bits_to_string(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in as_bits(bits))


def bits_from_bytes(data: bytes) -> Bits:
    """Expand bytes into bits, most significant bit of each byte first."""
    out: list[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            out.append((byte >> shift) & 1)
    return tuple(out)


def bits_to_bytes(bits: Iterable[int]) -> bytes:
    bit_tuple = as_bits(bits)
    if len(bit_tuple) % 8 != 0:
        raise ValueError(f"bit count {len(bit_tuple)} is not a multiple of 8")
    out = bytearray()
    for i in range(0, len(bit_tuple), 8):
        byte = 0
        for b in bit_tuple[i : i + 8]:
            byte = (byte << 1) | b
        out.append(byte)
    return bytes(out)


def bits_from_text(text: str) -> Bits:
    """UTF-8 encode text and expand it into bits, MSB first."""
    return bits_from_bytes(text.encode("utf-8"))


def bits_to_text(bits: Iterable[int]) -> str:
    return bits_to_bytes(bits).decode("utf-8")


def random_bits(length: int, seed: int) -> Bits:
    """A reproducible random payload of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = random.Random(seed)
    return tuple(rng.randrange(2) for _ in range(length))
