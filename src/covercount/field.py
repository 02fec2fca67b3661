"""Arithmetic mod 2^61 - 1 on uint64 arrays, and packed bitstrings.

Field elements are canonical ints in ``[0, modulus)``. Scalar arithmetic is
Python's own ``%`` and ``pow`` on ints, which take any modulus, so the scalar
verification path can run at a small test modulus; this module holds only
the vectorized kernels, fixed to the Mersenne prime 2^61 - 1: elements fit
in a machine word, products fit in two, and reduction is cheap.

``BitString`` is the XOR-group carrier of released databases. Bits are packed
most-significant-bit first within each byte and the bit length is carried
explicitly, so values that are not byte multiples stay well defined. Only this
module knows how a database packs its ``m``-bit slots, slot 0 first:
``unpack_fields`` reads uint64 slot arrays off a 0/1 bit array (the FSS
evaluator's, or ``split_fields``'s), and ``from_fields`` packs them back.

Everything here is simulation-grade: no constant-time guarantees are made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthError

MODULUS = (1 << 61) - 1


# ---------------------------------------------------------------------------
# Vectorized arithmetic mod 2^61 - 1 on uint64 arrays.
#
# Only the default modulus gets a fast path; the epoch harness uses it for
# verification, where per-element Python calls would dominate. Products
# of 61-bit operands need 122 bits, so multiplication splits each operand at
# bit 31 and reduces the partial products with the Mersenne identity
# 2^61 = 1 (mod 2^61 - 1). All intermediate sums stay below 2^63.
# ---------------------------------------------------------------------------

_M61 = np.uint64(MODULUS)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
_S1 = np.uint64(1)
_S30 = np.uint64(30)
_S31 = np.uint64(31)
_S29 = np.uint64(29)
_S32 = np.uint64(32)
_S61 = np.uint64(61)


def m61_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, np.uint64)
    b = np.asarray(b, np.uint64)
    t = np.asarray(a + b)          # below 2^62
    return np.minimum(t, t - _M61, out=t)  # t - p wraps past 2^63 when t < p


def m61_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, np.uint64)
    b = np.asarray(b, np.uint64)
    t = np.asarray(a - b)          # an array even for 0-d operands
    # t is off by at most p, and the wrong one of t and t + p is the larger:
    # t wrapped past 2^63 when a < b, else t + p is p or more
    return np.minimum(t, t + _M61, out=t)


def m61_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, np.uint64)
    b = np.asarray(b, np.uint64)
    a1 = a >> _S31
    a0 = a & _MASK31
    b1 = b >> _S31
    b0 = b & _MASK31
    hi = a1 * b1                   # < 2^60, carries factor 2^62 = 2 (mod p)
    mid = a1 * b0                  # mid parts carry factor 2^31
    np.multiply(a0, b1, out=a1)
    mid += a1                      # < 2^62
    np.multiply(a0, b0, out=b1)    # lo < 2^62
    np.left_shift(hi, _S1, out=hi)
    np.right_shift(mid, _S30, out=a0)
    hi += a0                       # 2*hi + (mid >> 30)
    mid &= _MASK30
    np.left_shift(mid, _S31, out=mid)
    hi += mid                      # + (mid & mask30) << 31
    np.right_shift(b1, _S61, out=a0)
    hi += a0
    b1 &= _M61
    hi += b1                       # + folded lo; total < 2^63
    np.right_shift(hi, _S61, out=a0)
    hi &= _M61
    hi += a0                       # <= p + 3
    np.subtract(hi, _M61, out=hi, where=hi >= _M61)
    return hi


def m61_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Reduce-sum along an axis of canonical elements.

    Each element splits into 32-bit halves. Below 2^32 terms the plain
    uint64 sums of the halves cannot overflow (the high sum stays under
    2^61), and high * 2^32 + low folds back with 2^61 = 1 (mod 2^61 - 1).
    """
    a = np.asarray(a, np.uint64)
    if a.ndim and a.shape[axis] >= 1 << 32:
        raise ValueError("m61_sum takes fewer than 2**32 terms")
    high = (a >> _S32).sum(axis=axis, dtype=np.uint64)
    low = (a & _MASK32).sum(axis=axis, dtype=np.uint64)
    # high * 2^32 = (high >> 29) * 2^61 + (high & mask29) * 2^32; total < 2^63
    t = (high >> _S29) + ((high & _MASK29) << _S32) + (low >> _S61) + (low & _M61)
    t = np.asarray((t & _M61) + (t >> _S61))
    return np.minimum(t, t - _M61, out=t)  # t - p wraps past 2^63 when t < p


# limbs a and c of the two operands weigh 2^(16(a + c)): pair (a, c) adds
# into diagonal d = a + c, and times 2^(16 d) mod p is a left rotation of
# the 61 bits by 16 d mod 61
_ROTATIONS = np.array([16 * d % 61 for d in range(7)], np.uint64)
_DOT_TERMS = 1 << 21


def _limbs(a: np.ndarray) -> np.ndarray:
    """(..., K) uint64 as a (..., K, 4) uint16 view of its 16-bit limbs, low
    limb first; one plain ``astype`` or assignment makes them float64."""
    a = np.asarray(a, "<u8")
    if a.strides[-1] != 8:
        a = a.copy()  # a limb view needs whole words along K
    return a.view("<u2").reshape(*a.shape, 4)


def _fold(sums: np.ndarray) -> np.ndarray:
    """(..., 4, I, 4) limb-pair sums, exact integers below 2^53, to the
    (..., I) dot products mod p. The two axes of 4 are the limbs of the two
    operands, in either order."""
    sums = sums.astype(np.uint64)
    # at most 4 pairs per diagonal: below 2^55, so canonical and rotatable;
    # four shifted adds run about 5x faster than a uint64 einsum
    diagonals = np.zeros((*sums.shape[:-3], sums.shape[-2], 7), np.uint64)
    for a in range(4):
        diagonals[..., a : a + 4] += sums[..., a, :, :]
    rotated = ((diagonals << _ROTATIONS) & _M61) | (diagonals >> (_S61 - _ROTATIONS))
    return m61_sum(rotated, axis=-1)


def m61_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of canonical rows: ``(..., J, K)`` x ``(..., I, K)`` ->
    ``(..., J, I)``, leading dimensions broadcast.

    Each operand splits into four 16-bit limbs held as float64, and one
    matmul over K sums every limb pair; it reads each row's ``(K, 4)`` limbs
    of ``b`` transposed, with no copy. A limb product is below 2^32, so a
    sum of at most 2^21 of them stays below 2^53: every partial sum is an
    exact integer, whatever order or library the matmul sums in. The 16
    limb-pair sums fold back by their weights 2^(16(a + c)) mod p.
    """
    a = np.asarray(a, "<u8")
    b = np.asarray(b, "<u8")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("m61_dot operands disagree on the summed length")
    if a.shape[-1] > _DOT_TERMS:
        raise ValueError("m61_dot takes at most 2**21 terms")
    rows = _limbs(a).astype(np.float64)[..., None, :, :]  # (..., J, 1, K, 4)
    columns = np.swapaxes(_limbs(b).astype(np.float64), -1, -2)[..., None, :, :, :]
    sums = np.matmul(columns, rows)  # (..., J, I, 4, 4)
    return _fold(np.swapaxes(sums, -3, -2))


def m61_pow(a: np.ndarray, e: int) -> np.ndarray:
    """Elementwise power with a scalar non-negative exponent."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    a = np.asarray(a, np.uint64)
    result = np.ones_like(a)
    base = a.copy()
    while e:
        if e & 1:
            result = m61_mul(result, base)
        base = m61_mul(base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Bitstrings
# ---------------------------------------------------------------------------


def unpack_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """Read consecutive ``width``-bit fields, MSB first, off the last axis of
    a 0/1 uint8 array, as uint64; ``width`` is at most 64 and must divide
    that axis."""
    if not 1 <= width <= 64:
        raise ValueError("width must be in [1, 64]")
    if bits.shape[-1] % width:
        raise LengthError(f"{bits.shape[-1]} bits do not split into {width}-bit fields")
    fields = bits.reshape(*bits.shape[:-1], -1, width)
    # left-pad each field to 64 bits so packing keeps its value
    fields = np.pad(fields, [(0, 0)] * (fields.ndim - 1) + [(64 - width, 0)])
    return np.packbits(fields, axis=-1).view(">u8")[..., 0].astype(np.uint64)


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable bit sequence with an explicit length.

    Position 0 is the most significant bit of the packed form: bit ``i`` lives
    in byte ``i // 8`` at in-byte position ``7 - i % 8``. Internally the bits
    are a single int so XOR runs at native speed.
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.value < 0 or self.value >> self.length:
            raise ValueError("value does not fit in the stated length")

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        nbytes = (length + 7) // 8
        if len(data) != nbytes:
            raise LengthError(f"expected {nbytes} bytes for {length} bits, got {len(data)}")
        return cls(int.from_bytes(data, "big") >> (nbytes * 8 - length), length)

    def to_bytes(self) -> bytes:
        nbytes = (self.length + 7) // 8
        return (self.value << (nbytes * 8 - self.length)).to_bytes(nbytes, "big")

    def __len__(self) -> int:
        return self.length

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self.length != other.length:
            raise LengthError(f"cannot xor {self.length} bits with {other.length} bits")
        return BitString(self.value ^ other.value, self.length)

    def split_fields(self, width: int) -> np.ndarray:
        """Split into consecutive ``width``-bit fields, MSB first, as a uint64
        array; ``width`` is at most 64 and must divide the length."""
        bits = np.unpackbits(np.frombuffer(self.to_bytes(), np.uint8), count=self.length)
        return unpack_fields(bits, width)

    @classmethod
    def from_fields(cls, fields: np.ndarray, width: int) -> "BitString":
        """Pack ``width``-bit fields MSB first; the inverse of ``split_fields``."""
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        fields = np.asarray(fields, np.uint64)
        if fields.size and int(fields.max()) >> width:
            raise ValueError(f"a field does not fit in {width} bits")
        bits = np.unpackbits(fields.astype(">u8").view(np.uint8)).reshape(-1, 64)
        return cls.from_bytes(np.packbits(bits[:, 64 - width :]).tobytes(), fields.size * width)
