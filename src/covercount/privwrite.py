"""Non-attributable database writes.

A write is a point function: all-zero except one ``m``-bit message at one slot
of a database with ``2**n`` slots. Each of ``p`` servers receives a share;
XORing every server's expansion reconstructs the write, while any ``p - 1``
shares look random.

Two encodings are provided:

- ``it_gen`` -- the information-theoretic warm-up. Each share is a full-length
  random bitstring; the last is the running XOR of the others with the write
  folded in. Simple, and linear in the database size per share.

- ``fss_gen`` / ``fss_evaluate_share`` -- the compressed scheme. The database
  is viewed as ``nu`` rows of ``mu`` slots. Every row carries ``2**(p-1)``
  PRG seeds; a party holds a seed when its row of that row's selection matrix
  has a 1 in the seed's column. Selection matrices for ordinary rows have
  even-parity columns, so expansions cancel across parties; the written row's
  matrix has odd-parity columns, leaving the correction words XORed with the
  row expansion, which generation constrains to equal the write.

Party shares leak nothing individually under the PRG assumption; this
implementation is simulation-grade and not hardened.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import ParseError
from .field import BitString

__all__ = [
    "PointFunction",
    "FssParams",
    "FssKey",
    "default_mu",
    "default_nu",
    "prg_expand",
    "unit_write",
    "it_gen",
    "fss_gen",
    "fss_eval_row",
    "fss_evaluate_share",
    "fss_eval_naive",
    "key_serialize",
    "key_deserialize",
    "key_size_bits",
    "key_size_bytes",
]

SEED_BYTES = 16
_ZERO_SEED = b"\x00" * SEED_BYTES
_CTR_ZERO = modes.CTR(b"\x00" * 16)
_zero_buffers: dict[int, bytes] = {}


def _prg_bytes(seed: bytes, nbytes: int) -> bytes:
    buf = _zero_buffers.get(nbytes)
    if buf is None:
        buf = _zero_buffers.setdefault(nbytes, b"\x00" * nbytes)
    return Cipher(algorithms.AES(seed), _CTR_ZERO).encryptor().update(buf)


def _prg_int(seed: bytes, out_bits: int) -> int:
    nbytes = (out_bits + 7) // 8
    return int.from_bytes(_prg_bytes(seed, nbytes), "big") >> (8 * nbytes - out_bits)


def prg_expand(seed: bytes, out_bits: int) -> BitString:
    """Expand a 128-bit seed to ``out_bits`` pseudorandom bits.

    AES-128 in counter mode keyed by the seed, starting from a zero counter;
    the final block is truncated to the requested length.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    if out_bits < 0:
        raise ValueError("out_bits must be non-negative")
    return BitString(_prg_int(seed, out_bits), out_bits)


def unit_write(slot: int, message: int, n_slots: int, m: int) -> BitString:
    """The database image of one write: ``message`` at ``slot``, zero elsewhere."""
    if not 0 <= slot < n_slots:
        raise ValueError("slot out of range")
    if not 0 <= message < (1 << m):
        raise ValueError("message does not fit in m bits")
    return BitString(message << ((n_slots - 1 - slot) * m), n_slots * m)


@dataclass(frozen=True)
class PointFunction:
    """A single write: message ``b`` (m bits) destined for slot ``a``."""

    a: int
    b: int


def default_mu(n: int, parties: int) -> int:
    """Row width balancing seed count against expansion length.

    ceil(2^(n/2) * 2^((p-1)/2)), computed exactly: for even ``n + p - 1`` this
    is a power of two; otherwise it is ceil(sqrt(2^(n+p-1))), and an odd power
    of two is never a perfect square so the integer sqrt is rounded up.
    """
    t = n + parties - 1
    if t % 2 == 0:
        return 1 << (t // 2)
    return math.isqrt(1 << t) + 1


def default_nu(n: int, mu: int) -> int:
    return -((1 << n) // -mu)


@dataclass(frozen=True)
class FssParams:
    """Geometry of a compressed write: ``2**n`` slots of ``m``-bit messages
    split into ``nu`` rows of ``mu`` slots, shared among ``parties`` servers
    with ``lam``-bit seeds. ``mu``/``nu`` may be overridden to trade seed
    count against expansion length, as long as the rows still cover the
    database."""

    n: int
    parties: int
    m: int
    lam: int = 128
    mu: int | None = None
    nu: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.parties < 2:
            raise ValueError("at least two parties are required")
        if self.m < 1:
            raise ValueError("message width must be at least 1 bit")
        if self.lam != 128:
            raise ValueError("only 128-bit seeds are supported")
        mu = self.mu if self.mu is not None else default_mu(self.n, self.parties)
        if mu < 1:
            raise ValueError("mu must be positive")
        nu = self.nu if self.nu is not None else default_nu(self.n, mu)
        if nu < 1:
            raise ValueError("nu must be positive")
        if mu * nu < (1 << self.n):
            raise ValueError("mu * nu must cover the database")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def domain_size(self) -> int:
        return 1 << self.n

    @property
    def seeds_per_row(self) -> int:
        return 1 << (self.parties - 1)

    @property
    def row_bits(self) -> int:
        return self.m * self.mu


@dataclass(frozen=True)
class FssKey:
    """One party's share: per-row seed slots (a zero seed marks "not held")
    plus the correction words, which are identical across parties."""

    params: FssParams
    party_index: int
    sigma: tuple[tuple[bytes, ...], ...]
    correction_words: tuple[BitString, ...]


def it_gen(pf: PointFunction, n: int, m: int, parties: int, rng: np.random.Generator) -> list[BitString]:
    """Full-length XOR shares of a write into a ``2**n``-slot database."""
    n_slots = 1 << n
    if not 0 <= pf.a < n_slots:
        raise ValueError("write slot out of range")
    total = n_slots * m
    shares = [BitString.random(total, rng) for _ in range(parties - 1)]
    acc = unit_write(pf.a, pf.b, n_slots, m)
    for share in shares:
        acc ^= share
    shares.append(acc)
    return shares


def _selection_matrices(
    parties: int, rows: int, columns: int, odd_row: int, rng: np.random.Generator
) -> np.ndarray:
    """One uniform binary matrix per database row, with every column of the
    ``odd_row`` matrix holding an odd number of ones and every other matrix
    even ones. The first ``parties - 1`` matrix rows are uniform and the last
    completes each column's parity, which samples uniformly from that set."""
    top = rng.integers(0, 2, size=(rows, parties - 1, columns), dtype=np.uint8)
    last = top.sum(axis=1, dtype=np.uint8) & np.uint8(1)
    last[odd_row] ^= np.uint8(1)
    return np.concatenate([top, last[:, None, :]], axis=1)


def fss_gen(pf: PointFunction, params: FssParams, rng: np.random.Generator) -> list[FssKey]:
    """Split a point function into ``parties`` compressed keys.

    The written slot is addressed as ``(gamma, delta) = divmod(a, mu)``: high
    part selects the row, low part the position within it. Correction words
    are chosen so the XOR of all of them with the written row's expansions
    equals the one-hot row image; ordinary rows cancel because each of their
    seed slots is held by an even number of parties.
    """
    if not 0 <= pf.a < params.domain_size:
        raise ValueError("write slot out of range")
    if not 0 <= pf.b < (1 << params.m):
        raise ValueError("message does not fit in m bits")
    gamma, delta = divmod(pf.a, params.mu)
    spr = params.seeds_per_row
    row_bits = params.row_bits

    raw = rng.bytes(SEED_BYTES * params.nu * spr)
    seeds = [
        raw[off : off + SEED_BYTES]
        for off in range(0, len(raw), SEED_BYTES)
    ]
    for idx, seed in enumerate(seeds):
        while seed == _ZERO_SEED:
            seed = rng.bytes(SEED_BYTES)
        seeds[idx] = seed
    held = _selection_matrices(params.parties, params.nu, spr, gamma, rng).tolist()

    correction = [BitString.random(row_bits, rng) for _ in range(spr - 1)]
    acc = unit_write(delta, pf.b, params.mu, params.m)
    for j in range(spr - 1):
        acc ^= correction[j] ^ prg_expand(seeds[gamma * spr + j], row_bits)
    correction.append(acc ^ prg_expand(seeds[gamma * spr + spr - 1], row_bits))

    keys = []
    cw = tuple(correction)
    for i in range(params.parties):
        sigma = tuple(
            tuple(
                seeds[row * spr + j] if held[row][i][j] else _ZERO_SEED
                for j in range(spr)
            )
            for row in range(params.nu)
        )
        keys.append(
            FssKey(params=params, party_index=i, sigma=sigma, correction_words=cw)
        )
    return keys


def _eval_row_value(key: FssKey, row: int) -> int:
    row_bits = key.params.row_bits
    acc = 0
    for j, seed in enumerate(key.sigma[row]):
        if seed != _ZERO_SEED:
            acc ^= key.correction_words[j].value ^ _prg_int(seed, row_bits)
    return acc


def fss_eval_row(key: FssKey, row: int) -> BitString:
    """One party's expansion of a single row (``m * mu`` bits)."""
    if not 0 <= row < key.params.nu:
        raise ValueError("row out of range")
    return BitString(_eval_row_value(key, row), key.params.row_bits)


def fss_evaluate_share(key: FssKey) -> BitString:
    """Full-database expansion of one key: ``nu`` row evaluations, sliced to
    ``2**n`` messages. This is the fast path; it never touches a seed more
    than once."""
    params = key.params
    acc = 0
    for row in range(params.nu):
        acc = (acc << params.row_bits) | _eval_row_value(key, row)
    total_bits = params.domain_size * params.m
    excess = params.nu * params.row_bits - total_bits
    return BitString(acc >> excess, total_bits)


def fss_eval_naive(key: FssKey, x: int) -> int:
    """Single-point evaluation that re-expands the row on every call.

    Used as the baseline in benchmarks: a full-database sweep built from this
    repeatedly re-initializes the same PRG seeds, which is exactly the cost
    ``fss_evaluate_share`` avoids.
    """
    params = key.params
    if not 0 <= x < params.domain_size:
        raise ValueError("evaluation point out of range")
    row, pos = divmod(x, params.mu)
    return fss_eval_row(key, row).extract(pos * params.m, params.m)


# ---------------------------------------------------------------------------
# Wire format
#
# header (16 bytes, little-endian):
#   version u8 | party_index u8 | parties u8 | n u8 | m u16 | lam u16 |
#   mu u32 | nu u32
# body:
#   sigma: nu * 2^(parties-1) seed slots of lam/8 bytes, row-major
#   correction words: 2^(parties-1) blocks of ceil(m*mu/8) bytes, bits packed
#   MSB-first and zero-padded to the byte boundary
# ---------------------------------------------------------------------------

KEY_FORMAT_VERSION = 1
_HEADER = struct.Struct("<BBBBHHII")


def key_size_bits(params: FssParams) -> int:
    """Payload size of one key in bits: seeds plus correction words."""
    return params.nu * params.seeds_per_row * params.lam + params.seeds_per_row * params.row_bits


def key_size_bytes(params: FssParams) -> int:
    """Exact serialized size, including the header and per-word byte padding."""
    sigma = params.nu * params.seeds_per_row * (params.lam // 8)
    words = params.seeds_per_row * ((params.row_bits + 7) // 8)
    return _HEADER.size + sigma + words


def key_serialize(key: FssKey) -> bytes:
    params = key.params
    parts = [
        _HEADER.pack(
            KEY_FORMAT_VERSION,
            key.party_index,
            params.parties,
            params.n,
            params.m,
            params.lam,
            params.mu,
            params.nu,
        )
    ]
    for row in key.sigma:
        parts.extend(row)
    for word in key.correction_words:
        parts.append(word.to_bytes())
    return b"".join(parts)


def key_deserialize(data: bytes) -> FssKey:
    if len(data) < _HEADER.size:
        raise ParseError("key too short for header")
    version, party_index, parties, n, m, lam, mu, nu = _HEADER.unpack_from(data)
    if version != KEY_FORMAT_VERSION:
        raise ParseError(f"unsupported key format version {version}")
    try:
        params = FssParams(n=n, parties=parties, m=m, lam=lam, mu=mu, nu=nu)
    except ValueError as exc:
        raise ParseError(f"invalid key header: {exc}") from exc
    if not 0 <= party_index < parties:
        raise ParseError("party index out of range")
    if len(data) != key_size_bytes(params):
        raise ParseError(
            f"key is {len(data)} bytes, expected {key_size_bytes(params)}"
        )
    seed_bytes = params.lam // 8
    spr = params.seeds_per_row
    pos = _HEADER.size
    sigma = []
    for _ in range(params.nu):
        row = []
        for _ in range(spr):
            row.append(bytes(data[pos : pos + seed_bytes]))
            pos += seed_bytes
        sigma.append(tuple(row))
    word_bytes = (params.row_bits + 7) // 8
    words = []
    for _ in range(spr):
        words.append(BitString.from_bytes(data[pos : pos + word_bytes], params.row_bits))
        pos += word_bytes
    return FssKey(
        params=params,
        party_index=party_index,
        sigma=tuple(sigma),
        correction_words=tuple(words),
    )
