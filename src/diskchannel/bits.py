"""Bit sequence helpers: validation, string and text codecs, random payloads."""

from __future__ import annotations

import random
from typing import Iterable

Bits = tuple[int, ...]


_BIT_VALUES = frozenset((0, 1))
_BIT_BYTES = bytes(_BIT_VALUES)

# '0'/'1' digits <-> bytes of one bit each.
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def as_bit_bytes(values: Iterable[int]) -> bytes:
    """Validate bits and return them as bytes, one bit per byte.

    ``bytes`` and a tuple or list of plain ints take a fast path through
    ``bytes()``; anything else, and any input that path rejects, is checked
    value by value against the bit values before it is converted with
    ``int()``, so 1.0, True and numpy integers pass while 1.7 or "1" raise.
    The fast path is kept to these types because ``bytes()`` of an int or
    of a numpy array gives zero bytes or the raw buffer, not the values.
    The ValueError names the first value that is not a bit.
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
    digits = "".join(text.split()).encode("ascii", "replace")
    if digits.translate(None, b"01"):
        raise ValueError(f"bit string may only contain 0 and 1: {text!r}")
    return tuple(digits.translate(_FROM_DIGITS))


def bits_to_string(bits: Iterable[int]) -> str:
    return as_bit_bytes(bits).translate(_TO_DIGITS).decode("ascii")


def bits_from_text(text: str) -> Bits:
    """UTF-8 encode text and expand it into bits, MSB first."""
    return bits_from_string("".join(f"{byte:08b}" for byte in text.encode("utf-8")))


def bits_to_text(bits: Iterable[int]) -> str:
    """Pack bits, MSB first, into bytes and decode them as UTF-8."""
    digits = bits_to_string(bits)
    if len(digits) % 8 != 0:
        raise ValueError(f"bit count {len(digits)} is not a multiple of 8")
    octets = (digits[i : i + 8] for i in range(0, len(digits), 8))
    return bytes(int(octet, 2) for octet in octets).decode("utf-8")


def random_bits(length: int, seed: int) -> Bits:
    """A reproducible random payload of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = random.Random(seed)
    return tuple(rng.randrange(2) for _ in range(length))
