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


@pytest.mark.parametrize("terms", [1, 7, 8, 9])
def test_m61_sum_of_few_large_terms(terms):
    # short sums of the largest terms, as the fold in m61_dot makes them
    top = np.full((terms, 3), M61 - 1, dtype=np.uint64)
    top[:, 1] = M61 - 2
    top[:, 2] = 1 << 60
    want = [terms * int(x) % M61 for x in top[0].tolist()]
    assert field.m61_sum(top, axis=0).tolist() == want


def dot_reference(a, b):
    """(..., J, K) x (..., I, K) dot products mod p in Python ints."""
    a, b = np.broadcast_arrays(a[..., :, None, :], b[..., None, :, :])
    products = a.astype(object) * b.astype(object)
    return (products.sum(axis=-1) % M61).astype(np.uint64)


def test_m61_dot_matches_python_ints():
    rng = np.random.default_rng(12)
    for j, i, k in ((1, 1, 1), (3, 4, 5), (2, 7, 300), (5, 3, 4096)):
        a = rng.integers(0, M61, (j, k), dtype=np.uint64)
        b = rng.integers(0, M61, (i, k), dtype=np.uint64)
        # the edges of the limb split, in both operands
        a.flat[: len(_EDGES)] = _EDGES[: a.size]
        b.flat[-len(_EDGES) :] = _EDGES[-b.size :]
        assert np.array_equal(field.m61_dot(a, b), dot_reference(a, b))


def test_m61_dot_broadcasts_leading_dimensions():
    rng = np.random.default_rng(13)
    a = rng.integers(0, M61, (2, 1, 3, 6), dtype=np.uint64)
    b = rng.integers(0, M61, (4, 2, 6), dtype=np.uint64)
    got = field.m61_dot(a, b)
    assert got.shape == (2, 4, 3, 2)
    assert np.array_equal(got, dot_reference(a, b))
    # operands whose rows are not contiguous words
    stretched = np.broadcast_to(b[..., :1], b.shape)
    assert np.array_equal(field.m61_dot(a, stretched), dot_reference(a, stretched))
    assert np.array_equal(field.m61_dot(np.asfortranarray(a), b), got)


def test_m61_dot_is_exact_at_the_largest_length():
    # every 16-bit limb of p - 1 is near its top, so each limb-pair sum is
    # nearly 2^21 * 2^32 = 2^53; (p - 1)^2 = 1 (mod p), so the dot is K mod p
    k = 1 << 21
    top = np.full((1, k), M61 - 1, dtype=np.uint64)
    assert field.m61_dot(top, top).tolist() == [[k % M61]]


def test_m61_dot_rejects_longer_rows():
    wide = np.broadcast_to(np.uint64(1), (1, (1 << 21) + 1))
    with pytest.raises(ValueError, match="2\\*\\*21"):
        field.m61_dot(wide, wide)
    with pytest.raises(ValueError):
        field.m61_dot(np.ones((2, 3), np.uint64), np.ones((2, 4), np.uint64))


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
    assert b.split_fields(1).tolist() == [1, 0, 1, 0]
    assert b.to_bytes() == b"\xa0"


def test_non_byte_multiple_lengths_round_trip():
    for length in (1, 3, 7, 9, 13, 17, 725):
        rng = np.random.default_rng(length)
        b = BitString.random(length, rng)
        assert len(b) == length
        assert BitString.from_bytes(b.to_bytes(), length) == b


def test_extract_and_split():
    c = BitString(0b101100011010, 12)
    assert c.split_fields(3).tolist() == [0b101, 0b100, 0b011, 0b010]
    assert c.split_fields(4).tolist() == [0b1011, 0b0001, 0b1010]
    with pytest.raises(LengthError):
        c.split_fields(5)
    with pytest.raises(ValueError):
        BitString(0, 65).split_fields(65)


def test_from_fields_packs_msb_first():
    fields = np.array([0b101, 0b100, 0b011, 0b010], np.uint64)
    assert BitString.from_fields(fields, 3) == BitString(0b101100011010, 12)
    top = np.array([1 << 63, 1], np.uint64)
    assert BitString.from_fields(top, 64) == BitString((1 << 127) | 1, 128)
    assert BitString.from_fields(np.zeros(0, np.uint64), 5) == BitString(0, 0)
    with pytest.raises(ValueError):
        BitString.from_fields(np.array([8], np.uint64), 3)  # 8 needs 4 bits
    with pytest.raises(ValueError):
        BitString.from_fields(np.array([1], np.uint64), 65)


def test_unpack_fields_reads_the_last_axis():
    bits = np.random.default_rng(5).integers(0, 2, size=(3, 2, 24), dtype=np.uint8)
    fields = field.unpack_fields(bits, 6)
    assert fields.shape == (3, 2, 4) and fields.dtype == np.uint64
    for i, j, k in np.ndindex(3, 2, 4):
        digits = "".join(str(b) for b in bits[i, j, 6 * k : 6 * k + 6])
        assert fields[i, j, k] == int(digits, 2)
    ones = field.unpack_fields(np.ones((2, 64), np.uint8), 64)
    assert ones.tolist() == [[(1 << 64) - 1], [(1 << 64) - 1]]
    with pytest.raises(LengthError):
        field.unpack_fields(bits, 5)
    with pytest.raises(ValueError):
        field.unpack_fields(np.zeros((2, 65), np.uint8), 65)


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
    zero = BitString(0, n)
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
        # from_fields inverts split_fields
        assert BitString.from_fields(b.split_fields(width), width) == b
