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

The PRG is the fixed-key construction of Guo, Katz, Wang and Yu (S&P 2020),
the usual choice in DPF implementations. A 16-byte seed ``s`` expands to

    G(s) = H(s ^ 0) || H(s ^ 1) || ...,    H(x) = AES_k(x) ^ x,

truncated to the requested length, where ``k`` is the public constant
``PRG_FIXED_KEY`` and the block counter ``i`` is XORed into the seed's low
64-bit word, read little-endian. No seed ever keys a cipher, so every seed of
a call is expanded in one ECB pass under ``k``. Security rests on fixed-key
AES being correlation robust: for a secret uniform seed ``s`` and public
counters ``i``, the outputs ``H(s ^ i)`` look uniform. Two seeds' outputs
are related only when their counter ranges overlap, which for uniform seeds
of ``B`` blocks each happens with chance below ``2 * B * 2**-128`` per pair.

Party shares leak nothing individually under the PRG assumption; this
implementation is simulation-grade and not hardened.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, compress
from operator import xor

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
SEED_BITS = 8 * SEED_BYTES
_ZERO_SEED = b"\x00" * SEED_BYTES
# the public AES key of the PRG; a hash of a fixed string, so it hides nothing
PRG_FIXED_KEY = hashlib.sha256(b"covercount fixed-key PRG").digest()[:SEED_BYTES]


@cache
def _ecb():
    """The one ECB encryptor under ``PRG_FIXED_KEY``, built on first use so
    that importing the module does not start OpenSSL's cipher. Given whole
    blocks, ECB carries no state from one call to the next, so it serves
    every call in the process; it is not safe across threads."""
    return Cipher(algorithms.AES(PRG_FIXED_KEY), modes.ECB()).encryptor()


def _prg_rows(seeds: np.ndarray, nbytes: int) -> np.ndarray:
    """Expand each 16-byte seed of ``seeds`` to ``nbytes`` bytes in one ECB
    call: block i of seed s is AES_k(s ^ i) ^ (s ^ i), with the counter i in
    the seed's low little-endian 64-bit word. Returns ``(count, nbytes)``
    uint8."""
    words = seeds.reshape(-1, SEED_BYTES).view("<u8")
    blocks = -(-nbytes // SEED_BYTES)
    inputs = np.repeat(words[:, None, :], blocks, axis=1)
    inputs[:, :, 0] ^= np.arange(blocks, dtype="<u8")
    raw = inputs.view(np.uint8).reshape(len(words), blocks * SEED_BYTES)
    raw ^= np.frombuffer(_ecb().update(raw), np.uint8).reshape(raw.shape)
    return raw[:, :nbytes]


def _row_int(expansion: np.ndarray, out_bits: int) -> int:
    """The first ``out_bits`` bits of a byte row, MSB first, as an int."""
    return int.from_bytes(expansion.tobytes(), "big") >> (8 * expansion.size - out_bits)


def prg_expand(seed: bytes, out_bits: int) -> BitString:
    """Expand a 128-bit seed to ``out_bits`` pseudorandom bits.

    The fixed-key PRG of the module docstring; the final block is truncated
    to the requested length.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    if out_bits < 0:
        raise ValueError("out_bits must be non-negative")
    expansion = _prg_rows(np.frombuffer(seed, np.uint8), (out_bits + 7) // 8)[0]
    return BitString(_row_int(expansion, out_bits), out_bits)


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
    split into rows of ``mu`` slots, shared among ``parties`` servers with
    128-bit seeds. ``mu`` may be overridden to trade seed count against
    expansion length; ``nu`` is always the fewest rows that cover the
    database."""

    n: int
    parties: int
    m: int
    mu: int | None = None
    nu: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.parties < 2:
            raise ValueError("at least two parties are required")
        if self.m < 1:
            raise ValueError("message width must be at least 1 bit")
        mu = self.mu if self.mu is not None else default_mu(self.n, self.parties)
        if mu < 1:
            raise ValueError("mu must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", default_nu(self.n, mu))

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

    seeds = np.frombuffer(rng.bytes(SEED_BYTES * params.nu * spr), np.uint8)
    seeds = seeds.reshape(params.nu, spr, SEED_BYTES).copy()
    for row, j in zip(*np.nonzero(~seeds.any(axis=2))):
        seed = _ZERO_SEED
        while seed == _ZERO_SEED:
            seed = rng.bytes(SEED_BYTES)
        seeds[row, j] = np.frombuffer(seed, np.uint8)
    held = _selection_matrices(params.parties, params.nu, spr, gamma, rng)

    correction = [BitString.random(row_bits, rng) for _ in range(spr - 1)]
    expansion = np.bitwise_xor.reduce(_prg_rows(seeds[gamma], (row_bits + 7) // 8), axis=0)
    last = unit_write(delta, pf.b, params.mu, params.m).value ^ _row_int(expansion, row_bits)
    for word in correction:
        last ^= word.value
    correction.append(BitString(last, row_bits))

    keys = []
    cw = tuple(correction)
    # the parties holding a seed share its bytes object, and unheld slots
    # share _ZERO_SEED, so a write's keys keep one copy of its seeds
    flat = seeds.view(f"V{SEED_BYTES}").ravel().tolist()
    for i, mask in enumerate(held.transpose(1, 0, 2).reshape(params.parties, -1).tolist()):
        picked = iter([seed if h else _ZERO_SEED for seed, h in zip(flat, mask)])
        sigma = tuple(zip(*[picked] * spr))
        keys.append(
            FssKey(params=params, party_index=i, sigma=sigma, correction_words=cw)
        )
    return keys


def _eval_rows(key: FssKey, sigma: tuple[tuple[bytes, ...], ...]) -> np.ndarray:
    """One party's expansion of the rows of ``sigma``, a slice of
    ``key.sigma``: every held seed is expanded in one PRG call and the
    expansions are XOR-reduced per row, then each row's correction words
    are XORed in as ints, once per distinct set of held seeds. Returns
    MSB-first bytes padded to the byte boundary, ``(rows, ceil(m * mu / 8))``
    uint8."""
    params = key.params
    nbytes = (params.row_bits + 7) // 8
    seeds = np.frombuffer(b"".join(chain.from_iterable(sigma)), np.uint8)
    seeds = seeds.reshape(len(sigma), params.seeds_per_row, SEED_BYTES)
    held = seeds.any(axis=2)
    expansions = np.zeros((*held.shape, nbytes), np.uint8)
    expansions[held] = _prg_rows(seeds[held], nbytes)
    out = np.bitwise_xor.reduce(expansions, axis=1)
    pad = 8 * nbytes - params.row_bits
    words = [word.value for word in key.correction_words]
    patterns = list(map(tuple, held.tolist()))
    row_words = {
        pattern: (reduce(xor, compress(words, pattern), 0) << pad).to_bytes(nbytes, "big")
        for pattern in set(patterns)
    }
    out ^= np.frombuffer(b"".join(map(row_words.get, patterns)), np.uint8).reshape(out.shape)
    return out


def fss_eval_row(key: FssKey, row: int) -> BitString:
    """One party's expansion of a single row (``m * mu`` bits)."""
    if not 0 <= row < key.params.nu:
        raise ValueError("row out of range")
    row_bits = key.params.row_bits
    return BitString(_row_int(_eval_rows(key, key.sigma[row : row + 1])[0], row_bits), row_bits)


def fss_evaluate_share(key: FssKey) -> BitString:
    """Full-database expansion of one key: ``nu`` row evaluations, sliced to
    ``2**n`` messages. This is the fast path; it expands every held seed
    once, all in one PRG call."""
    params = key.params
    rows = _eval_rows(key, key.sigma)
    if 8 * rows.shape[1] != params.row_bits:
        # drop each row's padding bits so the rows abut
        rows = np.packbits(np.unpackbits(rows, axis=1, count=params.row_bits))
    total_bits = params.domain_size * params.m
    return BitString.from_bytes(rows.reshape(-1)[: (total_bits + 7) // 8].tobytes(), total_bits)


def fss_eval_naive(key: FssKey, x: int) -> int:
    """Single-point evaluation that re-expands the row on every call.

    Used as the baseline in benchmarks: a full-database sweep built from this
    expands a row once for every point in it, which is exactly the cost
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
# lam is always 128 and nu always ceil(2^n / mu); a reader rejects any other.
# body:
#   sigma: nu * 2^(parties-1) seed slots of 16 bytes, row-major
#   correction words: 2^(parties-1) blocks of ceil(m*mu/8) bytes, bits packed
#   MSB-first and zero-padded to the byte boundary
# The correction words fit one PRG: version 2 is the fixed-key expansion of
# the module docstring, and version 1 keys (per-seed AES-CTR) are rejected.
# ---------------------------------------------------------------------------

KEY_FORMAT_VERSION = 2
_HEADER = struct.Struct("<BBBBHHII")


def key_size_bits(params: FssParams) -> int:
    """Payload size of one key in bits: seeds plus correction words."""
    return params.nu * params.seeds_per_row * SEED_BITS + params.seeds_per_row * params.row_bits


def key_size_bytes(params: FssParams) -> int:
    """Exact serialized size, including the header and per-word byte padding."""
    sigma = params.nu * params.seeds_per_row * SEED_BYTES
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
            SEED_BITS,
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
    if lam != SEED_BITS:
        raise ParseError(f"invalid key header: {lam}-bit seeds, expected {SEED_BITS}")
    try:
        params = FssParams(n=n, parties=parties, m=m, mu=mu)
    except ValueError as exc:
        raise ParseError(f"invalid key header: {exc}") from exc
    if nu != params.nu:
        raise ParseError(f"invalid key header: {nu} rows, expected {params.nu}")
    if not 0 <= party_index < parties:
        raise ParseError("party index out of range")
    if len(data) != key_size_bytes(params):
        raise ParseError(
            f"key is {len(data)} bytes, expected {key_size_bytes(params)}"
        )
    spr = params.seeds_per_row
    pos = _HEADER.size
    sigma = []
    for _ in range(params.nu):
        row = []
        for _ in range(spr):
            row.append(bytes(data[pos : pos + SEED_BYTES]))
            pos += SEED_BYTES
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
