"""Field and bitstring tests.

The vectorized Mersenne-61 helpers must agree elementwise with Python's own
int arithmetic, on edge values and on random draws.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covercount import field
from covercount.errors import LengthError
from covercount.field import BitString

M61 = field.MODULUS


def test_default_modulus_is_mersenne_61():
    assert M61 == 2**61 - 1


# -- vectorized Mersenne-61 path --------------------------------------------

_EDGES = np.array(
    [0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, M61 - 2, M61 - 1],
    dtype=np.uint64,
)


def test_m61_mul_matches_scalar_on_edges():
    a = np.repeat(_EDGES, len(_EDGES))
    b = np.tile(_EDGES, len(_EDGES))
    got = field.m61_mul(a, b)
    for ai, bi, gi in zip(a.tolist(), b.tolist(), got.tolist()):
        assert gi == (ai * bi) % M61
    got = field.m61_sub(a, b)
    for ai, bi, gi in zip(a.tolist(), b.tolist(), got.tolist()):
        assert gi == (ai - bi) % M61


def test_m61_ops_match_scalar_random():
    rng = np.random.default_rng(7)
    a = rng.integers(0, M61, 5000, dtype=np.uint64)
    b = rng.integers(0, M61, 5000, dtype=np.uint64)
    assert np.array_equal(field.m61_add(a, b), [(x + y) % M61 for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(field.m61_sub(a, b), [(x - y) % M61 for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(field.m61_mul(a, b), [(x * y) % M61 for x, y in zip(a.tolist(), b.tolist())])


def test_m61_sum_matches_python_sum():
    rng = np.random.default_rng(3)
    a = rng.integers(0, M61, (7, 1001), dtype=np.uint64)
    got = field.m61_sum(a, axis=1)
    want = [sum(row) % M61 for row in a.tolist()]
    assert got.tolist() == want
    # the largest canonical terms, where the half sums are biggest
    top = np.full((2, 5000), M61 - 1, dtype=np.uint64)
    assert field.m61_sum(top, axis=1).tolist() == [5000 * (M61 - 1) % M61] * 2
    assert field.m61_sum(top, axis=0).tolist() == [2 * (M61 - 1) % M61] * 5000


def test_m61_pow_matches_scalar():
    rng = np.random.default_rng(11)
    a = rng.integers(0, M61, 64, dtype=np.uint64)
    for e in (0, 1, 2, 3, M61 - 2):
        got = field.m61_pow(a, e)
        assert got.tolist() == [pow(x, e, M61) for x in a.tolist()]


# -- bitstrings ---------------------------------------------------------------


def test_xor_example():
    x = BitString(0b0010, 4)
    y = BitString(0b1011, 4)
    assert (x ^ y) == BitString(0b1001, 4)


def test_xor_length_mismatch():
    with pytest.raises(LengthError):
        BitString(0, 4) ^ BitString(0, 5)


def test_msb_first_packing():
    # 0xA0 = 1010 0000; the first four bits are 1010.
    b = BitString.from_bytes(b"\xa0", 4)
    assert b.value == 0b1010
    assert [b.bit(i) for i in range(4)] == [1, 0, 1, 0]
    assert b.to_bytes() == b"\xa0"


def test_non_byte_multiple_lengths_round_trip():
    for length in (1, 3, 7, 9, 13, 17, 725):
        rng = np.random.default_rng(length)
        b = BitString.random(length, rng)
        assert len(b) == length
        assert BitString.from_bytes(b.to_bytes(), length) == b


def test_extract_and_split():
    b = BitString(0b10110001101, 11)
    assert b.extract(0, 3) == 0b101
    assert b.extract(3, 4) == 0b1000
    assert b.extract(8, 3) == 0b101
    with pytest.raises(IndexError):
        b.extract(9, 3)
    c = BitString(0b101100011010, 12)
    assert c.split_fields(3).tolist() == [0b101, 0b100, 0b011, 0b010]
    assert c.split_fields(4).tolist() == [0b1011, 0b0001, 0b1010]
    with pytest.raises(LengthError):
        c.split_fields(5)
    with pytest.raises(ValueError):
        BitString.zeros(65).split_fields(65)


def test_from_fields_packs_msb_first():
    fields = np.array([0b101, 0b100, 0b011, 0b010], np.uint64)
    assert BitString.from_fields(fields, 3) == BitString(0b101100011010, 12)
    top = np.array([1 << 63, 1], np.uint64)
    assert BitString.from_fields(top, 64) == BitString((1 << 127) | 1, 128)
    assert BitString.from_fields(np.zeros(0, np.uint64), 5) == BitString.zeros(0)
    with pytest.raises(ValueError):
        BitString.from_fields(np.array([8], np.uint64), 3)  # 8 needs 4 bits
    with pytest.raises(ValueError):
        BitString.from_fields(np.array([1], np.uint64), 65)


def test_value_must_fit_length():
    with pytest.raises(ValueError):
        BitString(0b100, 2)


def test_bitstring_immutable_and_hashable():
    b = BitString(5, 4)
    with pytest.raises(AttributeError):
        b.value = 6
    assert len({b, BitString(5, 4), BitString(5, 5)}) == 2


bits_strategy = st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
)


@given(bits_strategy)
def test_xor_group_properties(args):
    n, xv, yv, zv = args
    x, y, z = BitString(xv, n), BitString(yv, n), BitString(zv, n)
    zero = BitString.zeros(n)
    assert x ^ y == y ^ x
    assert (x ^ y) ^ z == x ^ (y ^ z)
    assert x ^ zero == x
    assert x ^ x == zero


@given(st.integers(1, 300))
def test_split_fields_reassembles(seed):
    rng = np.random.default_rng(seed)
    for width in range(1, 65):
        count = int(rng.integers(1, 40))
        b = BitString.random(width * count, rng)
        parts = b.split_fields(width).tolist()
        assert len(parts) == count
        acc = 0
        for part in parts:
            acc = (acc << width) | part
        assert acc == b.value
        # extract agrees with split, and from_fields inverts it
        for i, part in enumerate(parts):
            assert b.extract(i * width, width) == part
        assert BitString.from_fields(b.split_fields(width), width) == b
