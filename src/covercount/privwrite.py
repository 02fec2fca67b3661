"""Non-attributable database writes.

A write is a point function: all-zero except one ``m``-bit message at one slot
of a database with ``2**n`` slots. Each of ``p`` servers receives a share;
XORing every server's expansion reconstructs the write, while any ``p - 1``
shares look random.

The shares are compressed point-function keys (``fss_gen`` /
``fss_evaluate_share``). The database is viewed as ``nu`` rows of ``mu``
slots. Every row carries ``2**(p-1)`` PRG seeds; a party holds a seed when
its row of that row's selection matrix has a 1 in the seed's column.
Selection matrices for ordinary rows have even-parity columns, so expansions
cancel across parties; the written row's matrix has odd-parity columns,
leaving the correction words XORed with the row expansion, which generation
constrains to equal the write.

Keys travel as columns (``KeyBatch``): a batch's seeds, selection matrices
and correction words in three arrays, and ``FssKey``, one party's wire body
as bytes, is a view of one batch row. ``fss_evaluate_batch``, the one
evaluator, XORs every party's expansions of a batch's accepted writes per
round into ``2**n`` uint64 slots, so the row layout never leaves this module.

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
from functools import cache

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import ParseError
from .field import BitString, unpack_fields

__all__ = [
    "PointFunction",
    "FssParams",
    "FssKey",
    "KeyBatch",
    "default_mu",
    "default_nu",
    "unit_write",
    "fss_gen",
    "fss_gen_batch",
    "fss_evaluate_batch",
    "fss_evaluate_share",
    "fss_eval_naive",
    "key_serialize",
    "key_deserialize",
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
    # update's fresh bytes object costs several times the encryption on large calls
    out = np.empty(raw.size + SEED_BYTES - 1, np.uint8)
    _ecb().update_into(raw, out)
    raw ^= out[: raw.size].reshape(raw.shape)
    return raw[:, :nbytes]


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

    @property
    def row_bytes(self) -> int:
        return (self.row_bits + 7) // 8


@dataclass(frozen=True)
class FssKey:
    """One party's share as its wire body, the wire view of one
    ``KeyBatch`` row: ``seeds`` is the ``nu * 2**(p-1)`` 16-byte seed slots,
    row-major, zero where the party holds no seed; ``words`` is the
    ``2**(p-1)`` correction words of ``ceil(m * mu / 8)`` bytes, MSB-first
    with zero pad bits, one object shared by a write's keys."""

    params: FssParams
    party_index: int
    seeds: bytes
    words: bytes

    @property
    def sigma(self) -> tuple[tuple[bytes, ...], ...]:
        """The seed slots as ``nu`` rows of 16-byte seeds."""
        seeds = self.seeds
        slots = iter([seeds[i : i + SEED_BYTES] for i in range(0, len(seeds), SEED_BYTES)])
        return tuple(zip(*[slots] * self.params.seeds_per_row))


@dataclass(frozen=True, eq=False)
class KeyBatch:
    """A batch's keys as columns: ``seeds`` ``(writes, nu, 2**(p-1), 16)``,
    the 0/1 uint8 selection matrices ``held`` ``(writes, nu, parties,
    2**(p-1))``, in which party ``i`` holds seed ``(row, j)`` of write
    ``w`` where ``held[w, row, i, j]`` is 1, and the correction ``words``
    ``(writes, 2**(p-1), row_bytes)`` that a write's parties share.
    ``batch[w]`` builds write ``w``'s ``parties`` keys afresh on each call;
    past the last write it raises ``IndexError``, so a batch iterates."""

    params: FssParams
    seeds: np.ndarray
    held: np.ndarray
    words: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, w: int) -> tuple[FssKey, ...]:
        words = self.words[w].tobytes()
        # party i holds the seeds its selection-matrix row marks, zero elsewhere
        held = self.held[w].transpose(1, 0, 2)[..., None]
        seeds = [(self.seeds[w] * mask).tobytes() for mask in held]
        return tuple(FssKey(self.params, i, s, words) for i, s in enumerate(seeds))


# bounds the transient memory of a sub-batch: the evaluator's expansions
# of held seeds, and key generation's correction words and written-row
# expansions; 1 MiB ran fastest of 0.5 to 4 MiB at n = 12, mu = 128 and 4096
_BATCH_BYTES = 1 << 20


def _selection_matrices(
    parties: int, odd_rows: np.ndarray, rows: int, columns: int, rng: np.random.Generator
) -> np.ndarray:
    """One uniform binary matrix per database row of each write, shaped
    ``(writes, rows, parties, columns)``: every column of write ``w``'s
    ``odd_rows[w]`` matrix holds an odd number of ones and every other
    matrix's even ones. The first ``parties - 1`` matrix rows are uniform
    and the last completes each column's parity, which samples uniformly
    from that set."""
    count = odd_rows.size
    top = rng.integers(0, 2, size=(count, rows, parties - 1, columns), dtype=np.uint8)
    last = top.sum(axis=2, dtype=np.uint8) & np.uint8(1)
    last[np.arange(count), odd_rows] ^= np.uint8(1)
    return np.concatenate([top, last[:, :, None, :]], axis=2)


def _zero_pad(words: np.ndarray, params: FssParams) -> np.ndarray:
    """Zero the pad bits of each ``row_bytes`` word on the last axis in place."""
    words[..., -1] &= np.uint8((0xFF << (8 * params.row_bytes - params.row_bits)) & 0xFF)
    return words


def fss_gen(pf: PointFunction, params: FssParams, rng: np.random.Generator) -> list[FssKey]:
    """Split a point function into ``parties`` compressed keys: a batch of one."""
    return list(fss_gen_batch([pf.a], [pf.b], params, rng)[0])


def _stream_bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """The bytes of ``rng.bytes(count)`` as a writable uint8 array, leaving
    the same generator state. ``Generator.bytes`` draws ``ceil(count / 4)``
    uint32 words, one for ``count`` 0, and copies their little-endian bytes
    out three times (an astype, a ``tobytes`` and a slice); this views the
    words in place. ``count`` passes through ``np.intp`` as ``bytes``' own
    argument does, so a draw beyond the address space raises
    ``OverflowError``, not numpy's ``ValueError`` for an oversized array."""
    words = rng.integers(0, 1 << 32, size=max(1, -(-np.intp(count) // 4)), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:count]


def fss_gen_batch(slots, messages, params: FssParams, rng: np.random.Generator) -> KeyBatch:
    """Split each write, ``messages[w]`` at ``slots[w]``, into ``parties``
    compressed keys; returns them as one ``KeyBatch``.

    The written slot is addressed as ``(gamma, delta) = divmod(a, mu)``: high
    part selects the row, low part the position within it. Correction words
    are chosen so the XOR of all of them with the written row's expansions
    equals the one-hot row image; ordinary rows cancel because each of their
    seed slots is held by an even number of parties.

    The batch draws the seeds of every write, the zero-seed redraws, the
    selection matrices and the correction words, in that order; each byte
    draw is uint32 words viewed in place, the bytes and generator state of
    one ``rng.bytes`` call. Words are drawn with each row padded to a
    multiple of 4 bytes and cut back to ``row_bytes``, which yields the
    bytes, and leaves the generator state, of one ``rng.bytes`` call per
    word: a batch of one consumes the stream as a write-by-write loop
    would. The words are drawn, the written rows expanded and the last
    words built in sub-batches of about ``_BATCH_BYTES``.
    """
    slots = np.asarray(slots, np.int64).reshape(-1)
    messages = [int(b) for b in messages]
    if len(messages) != slots.size:
        raise ValueError("every write needs one slot and one message")
    if slots.size and not 0 <= slots.min() <= slots.max() < params.domain_size:
        raise ValueError("write slot out of range")
    if any(not 0 <= b < (1 << params.m) for b in messages):
        raise ValueError("message does not fit in m bits")
    count, spr, nbytes, m = slots.size, params.seeds_per_row, params.row_bytes, params.m
    gamma, delta = np.divmod(slots, params.mu)

    seeds = _stream_bytes(rng, SEED_BYTES * count * params.nu * spr)
    seeds = seeds.reshape(count, params.nu, spr, SEED_BYTES)
    lanes = seeds.view(np.uint64)
    zero = np.nonzero((lanes[..., 0] | lanes[..., 1]) == 0)
    while zero[0].size:
        seeds[zero] = _stream_bytes(rng, SEED_BYTES * zero[0].size).reshape(-1, SEED_BYTES)
        still = (lanes[zero][:, 0] | lanes[zero][:, 1]) == 0
        zero = tuple(axis[still] for axis in zero)
    held = _selection_matrices(params.parties, gamma, params.nu, spr, rng)

    words = np.empty((count, spr, nbytes), np.uint8)
    padded = -(-nbytes // 4) * 4
    step = max(1, _BATCH_BYTES // (spr * nbytes))
    for first in range(0, count, step):
        part = np.arange(first, min(first + step, count))
        # a write's words are whole uint32s, so the sub-batches' draws are
        # the bytes of one; copied into place, the draw is freed before the
        # expansions are made
        drawn = words[first : first + step, :-1]
        drawn[...] = _stream_bytes(rng, part.size * (spr - 1) * padded).reshape(
            part.size, spr - 1, padded
        )[..., :nbytes]
        # the last word: the written row's expansions, the row image (message
        # b at bits [delta * m, (delta + 1) * m)) and the drawn words
        expansions = _prg_rows(seeds[part, gamma[part]], nbytes).reshape(part.size, spr, nbytes)
        last = words[first : first + step, -1]
        np.bitwise_xor.reduce(expansions, axis=1, out=last)
        last ^= np.bitwise_xor.reduce(drawn, axis=1)
        starts = (delta[part] * m).tolist()
        for word, start, b in zip(last, starts, messages[first : first + step]):
            start_byte, stop = start // 8, -(-(start + m) // 8)
            image = (b << (8 * stop - start - m)).to_bytes(stop - start_byte, "big")
            word[start_byte:stop] ^= np.frombuffer(image, np.uint8)
    return KeyBatch(params, seeds, held, _zero_pad(words, params))


def _evaluate_bits(batch: KeyBatch, index, rounds, nrounds: int) -> np.ndarray:
    """Every party's XOR of the expansions of the writes ``index`` of
    ``batch`` per round, as ``(parties, nrounds, 2**n * m)`` 0/1 uint8 bits;
    write ``index[k]`` lands in round ``rounds[k]``. One ``nonzero`` per round
    lists the held seeds cell by cell, a cell being a (party, round, row),
    with no sort. They expand in sub-batches of about ``_BATCH_BYTES``, each
    XORed with its word, and a sub-batch's run of a cell reduces in one
    ``reduceat``."""
    params = batch.params
    index = np.asarray(index, np.intp).reshape(-1)
    rounds = np.asarray(rounds, np.intp).reshape(-1)
    if rounds.shape != index.shape or index.size and not (
        0 <= min(index.min(), rounds.min()) and index.max() < len(batch) and rounds.max() < nrounds
    ):
        raise ValueError("each write needs an index in the batch and a round in [0, nrounds)")
    parties, nu, spr, nbytes = params.parties, params.nu, params.seeds_per_row, params.row_bytes
    cells, seeds, words = [], [], []
    for r in range(nrounds):
        writes = index[rounds == r]
        party, row, which, column = np.nonzero(batch.held[writes].transpose(2, 1, 0, 3))
        write = writes[which]
        cells.append((party * nrounds + r) * nu + row)
        seeds.append((write * nu + row) * spr + column)
        words.append(write * spr + column)
    cells, seeds, words = (np.concatenate(a) for a in (cells, seeds, words))
    # whole PRG blocks per expansion, so that rows reduce as uint64 words
    width = -(-nbytes // SEED_BYTES) * SEED_BYTES
    out = np.zeros((parties * nrounds * nu, width // 8), np.uint64)
    step = max(1, _BATCH_BYTES // width)
    for start in range(0, cells.size, step):
        part = slice(start, start + step)
        expansions = _prg_rows(batch.seeds.reshape(-1, SEED_BYTES)[seeds[part]], width)
        expansions[:, :nbytes] ^= batch.words.reshape(-1, nbytes)[words[part]]
        cell = cells[part]
        heads = np.flatnonzero(np.diff(cell, prepend=-1))
        out[cell[heads]] ^= np.bitwise_xor.reduceat(expansions.view(np.uint64), heads, axis=0)
    # the rows' m * mu bits abut, pad bits dropped; the slots past 2**n fall away
    rows = out.view(np.uint8).reshape(parties, nrounds, nu, width)
    bits = np.unpackbits(rows, axis=3, count=params.row_bits).reshape(parties, nrounds, -1)
    return bits[..., : params.domain_size * params.m]


def fss_evaluate_batch(batch: KeyBatch, index, rounds, nrounds: int) -> np.ndarray:
    """Every party's XOR of the database expansions of the writes ``index``
    of ``batch`` per round, as ``(parties, nrounds, 2**n)`` uint64 slot
    values: write ``index[k]`` lands in round ``rounds[k]``."""
    return unpack_fields(_evaluate_bits(batch, index, rounds, nrounds), batch.params.m)


def fss_evaluate_share(key: FssKey) -> BitString:
    """Full-database expansion of one key, packed as a bitstring: the batch
    evaluation of one write whose other parties hold no seed."""
    p = key.params
    seeds = np.frombuffer(key.seeds, np.uint8).reshape(1, p.nu, p.seeds_per_row, SEED_BYTES)
    held = np.zeros((1, p.nu, p.parties, p.seeds_per_row), np.uint8)
    held[0, :, key.party_index] = seeds[0].any(axis=2)
    words = np.frombuffer(key.words, np.uint8).reshape(1, p.seeds_per_row, p.row_bytes)
    bits = _evaluate_bits(KeyBatch(p, seeds, held, words), [0], [0], 1)[key.party_index, 0]
    return BitString.from_bytes(np.packbits(bits).tobytes(), bits.size)


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
    spr, nbytes, m = params.seeds_per_row, params.row_bytes, params.m
    start = row * spr * SEED_BYTES
    slots = [key.seeds[start + j * SEED_BYTES : start + (j + 1) * SEED_BYTES] for j in range(spr)]
    held = [j for j, seed in enumerate(slots) if seed != _ZERO_SEED]
    expansions = _prg_rows(np.frombuffer(b"".join([slots[j] for j in held]), np.uint8), nbytes)
    # only the bytes that hold the point's m bits are read
    first, last = pos * m // 8, ((pos + 1) * m + 7) // 8
    value = 0
    for expansion, j in zip(expansions[:, first:last], held):
        word = key.words[j * nbytes + first : j * nbytes + last]
        value ^= int.from_bytes(expansion.tobytes(), "big") ^ int.from_bytes(word, "big")
    return (value >> (8 * last - (pos + 1) * m)) & ((1 << m) - 1)


# ---------------------------------------------------------------------------
# Wire format
#
# header (16 bytes, little-endian):
#   version u8 | party_index u8 | parties u8 | n u8 | m u16 | lam u16 |
#   mu u32 | nu u32
# lam is always 128 and nu always ceil(2^n / mu); a reader rejects any other.
# body, which is FssKey.seeds followed by FssKey.words:
#   seeds: nu * 2^(parties-1) seed slots of 16 bytes, row-major
#   correction words: 2^(parties-1) blocks of ceil(m*mu/8) bytes, bits packed
#   MSB-first and zero-padded to the byte boundary; a reader zeroes the pad
#   bits it is given
# The correction words fit one PRG: version 2 is the fixed-key expansion of
# the module docstring, and version 1 keys (per-seed AES-CTR) are rejected.
# ---------------------------------------------------------------------------

KEY_FORMAT_VERSION = 2
_HEADER = struct.Struct("<BBBBHHII")


def key_size_bytes(params: FssParams) -> int:
    """Exact serialized size, including the header and per-word byte padding."""
    seeds = params.nu * params.seeds_per_row * SEED_BYTES
    return _HEADER.size + seeds + params.seeds_per_row * params.row_bytes


def key_serialize(key: FssKey) -> bytes:
    params = key.params
    header = _HEADER.pack(
        KEY_FORMAT_VERSION, key.party_index, params.parties, params.n, params.m, SEED_BITS,
        params.mu, params.nu,
    )
    return header + key.seeds + key.words


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
    words_at = _HEADER.size + params.nu * params.seeds_per_row * SEED_BYTES
    words = np.frombuffer(data, np.uint8, offset=words_at).reshape(params.seeds_per_row, -1)
    seeds = bytes(data[_HEADER.size : words_at])
    return FssKey(params, party_index, seeds, _zero_pad(words.copy(), params).tobytes())
