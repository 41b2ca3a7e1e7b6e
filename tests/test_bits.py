import re

import numpy as np
import pytest

from diskchannel import (
    bits_from_string,
    bits_from_text,
    bits_to_string,
    bits_to_text,
    random_bits,
)
from diskchannel.bits import as_bit_bytes


def test_string_round_trip():
    bits = (1, 0, 1, 1, 0)
    assert bits_from_string(bits_to_string(bits)) == bits


def test_string_parsing_ignores_whitespace():
    assert bits_from_string(" 10 1\n1") == (1, 0, 1, 1)


def test_string_parsing_rejects_other_characters():
    with pytest.raises(ValueError):
        bits_from_string("10x1")


def test_text_is_utf8_msb_first():
    assert bits_from_text("A") == (0, 1, 0, 0, 0, 0, 0, 1)
    # U+00FF is the two UTF-8 bytes c3 bf
    assert bits_from_text("\xff") == (1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1)
    assert bits_to_text(bits_from_text("\x12\xff")) == "\x12\xff"


def test_text_requires_whole_octets():
    with pytest.raises(ValueError, match="^bit count 3 is not a multiple of 8$"):
        bits_to_text((1, 0, 1))


def test_text_round_trip():
    assert bits_to_text(bits_from_text("covert")) == "covert"


def test_random_bits_deterministic_per_seed():
    assert random_bits(64, 7) == random_bits(64, 7)
    assert random_bits(64, 7) != random_bits(64, 8)
    assert set(random_bits(256, 1)) == {0, 1}


@pytest.mark.parametrize(
    "values",
    [
        (1, 0, 1),
        [1, 0, 1],
        (True, False, True),
        (1.0, 0.0, 1.0),
        (v for v in (1, 0, 1)),
        np.array([1, 0, 1]),
        b"\x01\x00\x01",
    ],
)
def test_every_input_form_validates_to_the_same_bits(values):
    assert as_bit_bytes(values) == b"\x01\x00\x01"


def test_as_bit_bytes_names_first_non_bit():
    assert as_bit_bytes([True, 0]) == b"\x01\x00"
    with pytest.raises(ValueError, match="got 2$"):
        as_bit_bytes((0, 1, 2, 300, -1))
    with pytest.raises(ValueError, match="got 300$"):
        as_bit_bytes([0, 300, 2])


@pytest.mark.parametrize(
    "values, bad",
    [((0, 1.7, 0.2), "1.7"), (["1", "0"], "'1'"), (np.array([0.5]), "0.5")],
)
def test_non_bits_raise_instead_of_truncating(values, bad):
    with pytest.raises(ValueError, match=f"got .*{re.escape(bad)}"):
        as_bit_bytes(values)
