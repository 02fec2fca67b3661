"""Non-attributable database writes.

A write is a point function: all-zero except one ``m``-bit message at one slot
of a database with ``2**n`` slots. Each of ``p`` servers receives a share;
XORing every server's expansion reconstructs the write, while any ``p - 1``
shares look random.

The shares are compressed point-function keys (``fss_gen`` /
``fss_evaluate_share``): the p-party keys of Boyle, Gilboa and Ishai
("Function Secret Sharing", EUROCRYPT 2015), laid out in Riposte's rows. The
database is viewed as ``nu`` rows of ``mu`` slots. Every row carries
``2**(p-1)`` PRG seeds and a selection matrix with one p-bit column per seed;
a party holds a seed when its bit of the seed's column is 1. An ordinary
row's matrix has every even-weight p-bit vector as a column once, in uniform
random order, so each seed is held by an even number of parties and the
expansions cancel. The written row's matrix has every odd-weight vector
once, which leaves the correction words XORed with the row's expansions,
and generation constrains those to equal the write. So every party holds
exactly ``2**(p-2)`` seeds in every row.

Any ``p - 1`` parties see random shares. Leaving out one party's bit maps
the even-weight vectors one to one onto all ``(p-1)``-bit vectors, and so
it maps the odd-weight ones: in the written row as in every other row, the
coalition holds each ``(p-1)``-bit pattern on exactly one column, in
random order, so the rows look alike. In the written row the coalition
lacks the seed that only the absent party holds, and that seed's expansion
masks the image. The ``2**(p-1) - 1`` free correction words are fixed-key
expansions of one fresh seed per write that no party receives.

Keys travel as columns (``KeyBatch``): a batch's seeds, each party's held
columns and the correction words in three arrays, and ``FssKey``, one
party's wire body as bytes, is a view of one batch row. Since every cell
(party, round, row) holds the same number of seeds per write,
``fss_evaluate_batch``, the one evaluator, works on fixed shapes: it XORs
every party's expansions of a batch's accepted writes per round into
``2**n`` uint64 slots, so the row layout never leaves this module.

Messages have the pipeline's one form, a uint64 of ``m`` bits with
1 <= m <= 64 (``FssParams`` enforces it): ``fss_gen_batch`` places a
batch's messages in their last correction words in one array step.

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

Any ``p - 1`` shares leak nothing under the PRG assumption; this
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


def _counter_blocks(seeds: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The PRG's inputs ``s ^ i`` for each 16-byte seed ``s`` of ``seeds``
    and each counter ``i < blocks``, in the seed's low little-endian 64-bit
    word, and their encryptions ``AES_k(s ^ i)``, made in one ECB call: two
    ``(count, 16 * blocks)`` uint8 arrays."""
    words = seeds.reshape(-1, SEED_BYTES).view("<u8")
    inputs = np.repeat(words[:, None, :], blocks, axis=1)
    inputs[:, :, 0] ^= np.arange(blocks, dtype="<u8")
    raw = inputs.view(np.uint8).reshape(len(words), blocks * SEED_BYTES)
    # update's fresh bytes object costs several times the encryption on large calls
    out = np.empty(raw.size + SEED_BYTES - 1, np.uint8)
    _ecb().update_into(raw, out)
    return raw, out[: raw.size].reshape(raw.shape)


def _prg_rows(seeds: np.ndarray, nbytes: int) -> np.ndarray:
    """Expand each 16-byte seed of ``seeds`` to ``nbytes`` bytes: block i of
    seed s is AES_k(s ^ i) ^ (s ^ i). Returns ``(count, nbytes)`` uint8."""
    raw, encrypted = _counter_blocks(seeds, -(-nbytes // SEED_BYTES))
    raw ^= encrypted
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
    """Geometry of a compressed write: ``2**n`` slots of ``m``-bit messages,
    1 <= m <= 64, split into rows of ``mu`` slots, shared among ``parties``
    servers with 128-bit seeds. ``mu`` may be overridden to trade seed count
    against expansion length; ``nu`` is always the fewest rows that cover
    the database."""

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
        if not 1 <= self.m <= 64:
            raise ValueError(f"message width must be 1 to 64 bits, got {self.m}")
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
    def held_per_row(self) -> int:
        """The seeds that each party holds in every row: half of them."""
        return 1 << (self.parties - 2)

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
    row-major, zero where the party holds no seed, so that ``2**(p-2)``
    slots of every row are nonzero; ``words`` is the ``2**(p-1)``
    correction words of ``ceil(m * mu / 8)`` bytes, MSB-first
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
    the held ``columns`` ``(writes, nu, parties, 2**(p-2))``, in which party
    ``i`` holds seed ``(row, j)`` of write ``w`` for each ``j`` of
    ``columns[w, row, i]``, and the correction ``words`` ``(writes,
    2**(p-1), row_bytes)`` that a write's parties share. ``batch[w]``
    builds write ``w``'s ``parties`` keys afresh on each call; past the
    last write it raises ``IndexError``, so a batch iterates."""

    params: FssParams
    seeds: np.ndarray
    columns: np.ndarray
    words: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, w: int) -> tuple[FssKey, ...]:
        words = self.words[w].tobytes()
        # party i's seeds where its columns mark them, zero elsewhere
        held = np.zeros((self.params.parties, *self.seeds.shape[1:3]), np.uint8)
        np.put_along_axis(held, self.columns[w].transpose(1, 0, 2), 1, axis=2)
        seeds = self.seeds[w] * held[..., None]
        return tuple(FssKey(self.params, i, s.tobytes(), words) for i, s in enumerate(seeds))


# bounds the transient memory of a sub-batch: the evaluator's expansions
# of held seeds, and key generation's correction words and written-row
# expansions; of 128 KiB to 2 MiB, 256 and 512 KiB evaluated fastest at
# n = 12 (mu = 128 and 4096) and 512 KiB at n = 14, on cores with 2 MiB of
# L2, which then holds a group's PRG inputs, ciphertexts and gathered words
_BATCH_BYTES = 1 << 19


@cache
def _held_vectors(parties: int) -> np.ndarray:
    """``(2, parties, 2**(p-2))``: in an ordinary row (0) and in the
    written row (1), the selection vectors that each party holds. Vector
    ``v < 2**(p-1)`` gives parties 0 to ``p - 2`` its bits, low bit first,
    and the last party the bit that makes the column's weight even, or odd
    in the written row."""
    vectors = np.arange(1 << (parties - 1))
    bits = (vectors >> np.arange(parties - 1)[:, None]) & 1
    parity = bits.sum(axis=0) & 1
    table = [np.nonzero(np.vstack([bits, parity ^ odd]))[1] for odd in (0, 1)]
    return np.stack(table).reshape(2, parties, -1)


def _held_columns(
    parties: int, written: np.ndarray, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Each party's held columns in every row of each write, ``(writes,
    rows, parties, 2**(p-2))``, in the smallest unsigned dtype that holds a
    column. One ``rng.permuted`` call draws a uniform permutation of the
    columns per row, write by write and row by row, the draws of one
    ``rng.permutation`` call each: entry ``v`` is the column that carries
    selection vector ``v``, odd-weight in row ``written[w]`` and
    even-weight elsewhere."""
    count, spr = written.size, 1 << (parties - 1)
    order = np.arange(spr, dtype=np.min_scalar_type(spr - 1))
    order = rng.permuted(np.broadcast_to(order, (count, rows, spr)), axis=-1)
    odd = np.zeros((count, rows), np.intp)
    odd[np.arange(count), written] = 1
    return np.take_along_axis(order[:, :, None, :], _held_vectors(parties)[odd], axis=3)


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
    compressed keys; returns them as one ``KeyBatch``. ``messages`` is an
    integer array below ``2**m``, like the epoch's uint64 table; numpy reads
    a list mixing ints from ``2**63`` up with smaller ones as floats, which
    raise ``ValueError`` as any non-integer does, so pass those as uint64.

    The written slot is addressed as ``(gamma, delta) = divmod(a, mu)``: high
    part selects the row, low part the position within it. Correction words
    are chosen so the XOR of all of them with the written row's expansions
    equals the one-hot row image; ordinary rows cancel because each of their
    seed slots is held by an even number of parties.

    The batch draws the seeds of every write, the zero-seed redraws, one
    permutation of each row's columns (``_held_columns``) and one 16-byte
    word seed per write, in that order; each byte draw is uint32 words
    viewed in place, the bytes and generator state of one ``rng.bytes``
    call. A write's ``2**(p-1) - 1`` free words are the fixed-key expansion
    of its word seed, cut into ``row_bytes`` pieces; no party receives the
    word seed, so a zero one is kept. The free words are expanded, the
    written rows expanded and the last words built in sub-batches of about
    ``_BATCH_BYTES``; the messages are then placed for the whole batch.
    """
    slots = np.asarray(slots, np.int64).reshape(-1)
    messages = np.asarray(messages).reshape(-1)
    count, spr, nbytes, m = slots.size, params.seeds_per_row, params.row_bytes, params.m
    if messages.size != count:
        raise ValueError("every write needs one slot and one message")
    if count and not 0 <= slots.min() <= slots.max() < params.domain_size:
        raise ValueError("write slot out of range")
    if count and (messages.dtype.kind not in "iu" or messages.min() < 0 or int(messages.max()) >> m):
        raise ValueError(f"messages must be integers in [0, 2**{m}), as an integer array")
    gamma, delta = np.divmod(slots, params.mu)

    seeds = _stream_bytes(rng, SEED_BYTES * count * params.nu * spr)
    seeds = seeds.reshape(count, params.nu, spr, SEED_BYTES)
    lanes = seeds.view(np.uint64)
    zero = np.nonzero((lanes[..., 0] | lanes[..., 1]) == 0)
    while zero[0].size:
        seeds[zero] = _stream_bytes(rng, SEED_BYTES * zero[0].size).reshape(-1, SEED_BYTES)
        still = (lanes[zero][:, 0] | lanes[zero][:, 1]) == 0
        zero = tuple(axis[still] for axis in zero)
    columns = _held_columns(params.parties, gamma, params.nu, rng)
    word_seeds = _stream_bytes(rng, SEED_BYTES * count).reshape(count, SEED_BYTES)

    words = np.empty((count, spr, nbytes), np.uint8)
    step = max(1, _BATCH_BYTES // (spr * nbytes))
    for first in range(0, count, step):
        part = np.arange(first, min(first + step, count))
        free = words[first : first + step, :-1]
        free[...] = _prg_rows(word_seeds[part], (spr - 1) * nbytes).reshape(free.shape)
        # the last word: the written row's expansions and the free words
        expansions = _prg_rows(seeds[part, gamma[part]], nbytes).reshape(part.size, spr, nbytes)
        last = words[first : first + step, -1]
        np.bitwise_xor.reduce(expansions, axis=1, out=last)
        last ^= np.bitwise_xor.reduce(free, axis=1)
    # and the row image: message b at bits [delta * m, (delta + 1) * m),
    # MSB first, in the 9 bytes from the one that holds its first bit; those
    # past the word's end hold no message bits, so they XOR zeros into its last
    start, writes = delta[:, None] * m, np.arange(count)[:, None]
    bits = np.unpackbits(messages.astype(">u8")[:, None].view(np.uint8), axis=1)
    window = np.zeros((count, 72), np.uint8)
    window[writes, start % 8 + np.arange(m)] = bits[:, 64 - m :]
    at = np.minimum(start // 8 + np.arange(9), nbytes - 1)
    np.bitwise_xor.at(words[:, -1], (writes, at), np.packbits(window, axis=1))
    return KeyBatch(params, seeds, columns, _zero_pad(words, params))


def _evaluate_bits(batch: KeyBatch, index, rounds, nrounds: int) -> np.ndarray:
    """Each listed party's XOR of the expansions of the writes ``index`` of
    ``batch`` per round, as ``(parties, nrounds, 2**n * m)`` 0/1 uint8 bits,
    ``parties`` being the parties that ``batch.columns`` lists; write
    ``index[k]`` lands in round ``rounds[k]``.

    A cell (party, round, row) holds ``2**(p-2)`` seeds of each of its
    round's writes, so every step has a fixed shape. A round's held seeds
    are gathered in (write, held, party, row) order, and they go in groups
    of whole writes, about ``_BATCH_BYTES`` of expansions each: a group is
    encrypted in one ECB call, XORed with its words and XOR-reduced over
    the leading axis into the round's ``(parties * nu, width)``
    accumulator. The PRG's feed-forward ``s ^ i`` is added once per cell,
    as the XOR of the cell's seeds and, when the cell holds an odd number
    of seeds (only at p = 2), the counters."""
    params = batch.params
    index = np.asarray(index, np.intp).reshape(-1)
    rounds = np.asarray(rounds, np.intp).reshape(-1)
    if rounds.shape != index.shape or index.size and not (
        0 <= min(index.min(), rounds.min()) and index.max() < len(batch) and rounds.max() < nrounds
    ):
        raise ValueError("each write needs an index in the batch and a round in [0, nrounds)")
    nu, spr, nbytes = params.nu, params.seeds_per_row, params.row_bytes
    parties, held = batch.columns.shape[2:]
    cells, rows = parties * nu, np.arange(nu)
    # whole PRG blocks per expansion, so that rows reduce as uint64 lanes
    blocks = -(-nbytes // SEED_BYTES)
    lanes = blocks * SEED_BYTES // 8
    seeds, words = batch.seeds.reshape(-1, SEED_BYTES), batch.words.reshape(-1, nbytes)
    out = np.zeros((nrounds, cells, lanes), np.uint64)
    per_write = held * cells
    per_group = per_write * max(1, _BATCH_BYTES // (per_write * blocks * SEED_BYTES))
    for r in range(nrounds):
        writes = index[rounds == r]
        column = batch.columns[writes].transpose(0, 3, 2, 1)
        writes = writes[:, None, None, None]
        word_at = (writes * spr + column).reshape(-1)
        # take gathers whole rows several times faster than indexing
        held_seeds = np.take(seeds, ((writes * nu + rows) * spr + column).reshape(-1), axis=0)
        for first in range(0, word_at.size, per_group):
            group = slice(first, first + per_group)
            _, encrypted = _counter_blocks(held_seeds[group], blocks)
            encrypted[:, :nbytes] ^= np.take(words, word_at[group], axis=0)
            out[r] ^= np.bitwise_xor.reduce(encrypted.view(np.uint64).reshape(-1, cells, lanes))
        feed = np.bitwise_xor.reduce(held_seeds.view(np.uint64).reshape(-1, cells, 2))
        feed = np.repeat(feed[:, None, :], blocks, axis=1)
        if writes.size * held % 2:
            feed[:, :, 0] ^= np.arange(blocks, dtype="<u8").view(np.uint64)
        out[r] ^= feed.reshape(cells, lanes)
    # the rows' m * mu bits abut, pad bits dropped; the slots past 2**n fall away
    out = out.view(np.uint8).reshape(nrounds, parties, nu, -1).transpose(1, 0, 2, 3)
    bits = np.unpackbits(out, axis=3, count=params.row_bits).reshape(parties, nrounds, -1)
    return bits[..., : params.domain_size * params.m]


def fss_evaluate_batch(batch: KeyBatch, index, rounds, nrounds: int) -> np.ndarray:
    """Every party's XOR of the database expansions of the writes ``index``
    of ``batch`` per round, as ``(parties, nrounds, 2**n)`` uint64 slot
    values: write ``index[k]`` lands in round ``rounds[k]``."""
    return unpack_fields(_evaluate_bits(batch, index, rounds, nrounds), batch.params.m)


def _held_slots(seeds: np.ndarray, params: FssParams) -> np.ndarray:
    """The nonzero slots of one key's seeds, ``(nu, 2**(p-1))`` bool;
    raises ``ValueError`` at the first row that holds other than
    ``2**(p-2)`` of them."""
    held = seeds.reshape(params.nu, params.seeds_per_row, SEED_BYTES).any(axis=2)
    counts = held.sum(axis=1)
    bad = np.flatnonzero(counts != params.held_per_row)
    if bad.size:
        raise ValueError(f"row {bad[0]} holds {counts[bad[0]]} seeds, not {params.held_per_row}")
    return held


def fss_evaluate_share(key: FssKey) -> BitString:
    """Full-database expansion of one key, packed as a bitstring: the batch
    evaluation of one write that lists only this key's party. Raises
    ``ValueError`` on a key with a row that holds other than ``2**(p-2)``
    seeds."""
    p = key.params
    seeds = np.frombuffer(key.seeds, np.uint8).reshape(1, p.nu, p.seeds_per_row, SEED_BYTES)
    columns = np.nonzero(_held_slots(seeds, p))[1].reshape(1, p.nu, 1, p.held_per_row)
    words = np.frombuffer(key.words, np.uint8).reshape(1, p.seeds_per_row, p.row_bytes)
    bits = _evaluate_bits(KeyBatch(p, seeds, columns, words), [0], [0], 1)[0, 0]
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
# Every row holds exactly 2^(parties-2) nonzero seed slots, and a reader
# rejects any other count. The correction words fit one PRG: versions 2 and
# 3 use the fixed-key expansion of the module docstring, and version 1 keys
# (per-seed AES-CTR) are rejected. Version 3 keys come from the regular
# selection matrices; version 2 keys, which held 0 to 2^(parties-1) seeds
# per row, are rejected too.
# ---------------------------------------------------------------------------

KEY_FORMAT_VERSION = 3
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
    try:
        _held_slots(np.frombuffer(seeds, np.uint8), params)
    except ValueError as exc:
        raise ParseError(f"invalid key: {exc}") from exc
    return FssKey(params, party_index, seeds, _zero_pad(words.copy(), params).tobytes())
