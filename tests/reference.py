"""Per-owner reference draws that the library's population draws are tested
against.

Each function privatizes or shares for one owner at a time and consumes its
generator's uniforms (or bytes) in the order its docstring states. The
``*_population`` draws in :mod:`covercount.mechanisms` must match these loops
draw for draw under the same generator state, and ``it_gen``'s full-length
XOR shares must reconstruct the same database as the compressed keys of
:mod:`covercount.privwrite`. ``dense_chunk`` builds a crypto submission
chunk the dense way, write by write with ``rng.bytes`` keys and seeds,
scalar mask draws and a scalar PRG expansion (``m61_row``), for
``harness.build_chunk`` to match byte for byte; ``expand_shares`` expands
a chunk's records into every party's dense shares with the same scalar
expansion, and ``factor_opening`` opens them factor by factor in Python
ints, for ``verify.challenge_values`` and ``verify.open_challenge_batch``
to be checked against; and ``nonzero_plan`` plans an epoch's writes the strided way, for
``harness.plan_writes`` to match column for column. None of this is library code: it exists so that every
such comparison runs against code the library does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from covercount.errors import InvalidTruthError
from covercount.field import MODULUS, BitString
from covercount.harness import EpochConfig, WritePlan, encode_message
from covercount.mechanisms import (
    CalibratedParams,
    RrParams,
    TwoRoundBinaryParams,
    TwoRoundMultiParams,
)
from covercount.privwrite import PRG_FIXED_KEY, FssParams, PointFunction, unit_write


@dataclass(frozen=True)
class TwoRoundResponse:
    """What one owner uploads.

    ``round1``/``round2`` are bits for the binary mechanisms and frozensets
    of claimed values for the multi-value mechanism. ``round2 is None`` marks
    an explicit abstention. ``sampled`` records the die outcome where the
    rounds are coupled by one; it is ``None`` for the calibrated mechanism,
    whose rounds are drawn independently.
    """

    round1: int | frozenset
    round2: int | frozenset | None
    sampled: bool | None = None


def rr_privatize(truth: int, params: RrParams, rng: np.random.Generator) -> int:
    """One owner's randomized-response answer. Consumes one uniform."""
    if truth not in (0, 1):
        raise InvalidTruthError(f"binary truth expected, got {truth!r}")
    u = rng.random()
    threshold = params.yes_rate if truth else params.chaff_yes_rate
    return int(u < threshold)


class NoiseStddev(NamedTuple):
    exact: float
    approximate: float


def rr_noise_stddev(params: RrParams, total: int) -> NoiseStddev:
    """Standard deviation of the chaff noise on the privatized sum.

    The chaff is Binomial(total, q) with q the chaff-yes rate, so the exact
    value is sqrt(total * q * (1 - q)); the companion field drops the
    (1 - q) factor, the rounder figure usually quoted.
    """
    q = params.chaff_yes_rate
    return NoiseStddev(
        exact=math.sqrt(total * q * (1.0 - q)),
        approximate=math.sqrt(total * q),
    )


def two_round_binary(
    truth: int, params: TwoRoundBinaryParams, rng: np.random.Generator
) -> TwoRoundResponse:
    """One owner's coupled two-round answer. Consumes one uniform.

    A single die roll drives both rounds: truthful owners answer their truth
    in round one and abstain in round two; chaff owners repeat the same
    random answer in both rounds.
    """
    if truth not in (0, 1):
        raise InvalidTruthError(f"binary truth expected, got {truth!r}")
    u = rng.random()
    if u < params.pi_s:
        return TwoRoundResponse(round1=truth, round2=None, sampled=True)
    chaff = int(u < params.pi_s + params.pi_yes)
    return TwoRoundResponse(round1=chaff, round2=chaff, sampled=False)


def two_round_multi(
    truth: int | None,
    domain: Sequence[int],
    params: TwoRoundMultiParams,
    rng: np.random.Generator,
) -> TwoRoundResponse:
    """One owner's claimed-value sets. Consumes ``1 + len(domain)`` uniforms.

    Round one claims every domain value independently with probability
    ``pi_v``, plus the truth when the owner is sampled. Round two repeats
    round one except a sampled owner withdraws the truth. Owners whose truth
    is not in the queried domain (``truth is None``) contribute chaff only.
    """
    domain = list(domain)
    if truth is not None and truth not in domain:
        raise InvalidTruthError(f"truth {truth!r} is not in the queried domain")
    u_sample = rng.random()
    includes = rng.random(len(domain))
    sampled = bool(u_sample < params.pi_s) and truth is not None
    claims = {v for v, u in zip(domain, includes) if u < params.pi_v}
    round1 = frozenset(claims | {truth}) if sampled else frozenset(claims)
    round2 = frozenset(round1 - {truth}) if sampled else round1
    return TwoRoundResponse(round1=round1, round2=round2, sampled=sampled)


def calibrated_privatize(
    truth: int, params: CalibratedParams, rng: np.random.Generator
) -> TwoRoundResponse:
    """One owner's two independently drawn answers. Consumes two uniforms,
    round one first."""
    if truth not in (0, 1):
        raise InvalidTruthError(f"binary truth expected, got {truth!r}")
    u1 = rng.random()
    u2 = rng.random()
    if truth:
        r1, r2 = params.pi_s_yes_1, params.pi_s_yes_2
    else:
        r1, r2 = params.pi_s_no_1, params.pi_s_no_2
    return TwoRoundResponse(round1=int(u1 < r1), round2=int(u2 < r2), sampled=None)


def it_gen(pf: PointFunction, n: int, m: int, parties: int, rng: np.random.Generator) -> list[BitString]:
    """Full-length XOR shares of a write into a ``2**n``-slot database."""
    n_slots = 1 << n
    if not 0 <= pf.a < n_slots:
        raise ValueError("write slot out of range")
    total = n_slots * m
    shares = [BitString.from_bytes(rng.bytes((total + 7) // 8), total) for _ in range(parties - 1)]
    acc = unit_write(pf.a, pf.b, n_slots, m)
    for share in shares:
        acc ^= share
    shares.append(acc)
    return shares


def _expand(seed: bytes, nbytes: int) -> int:
    """A seed's fixed-key PRG expansion, ``nbytes`` bytes as a big-endian
    int: block i is AES_k(s ^ i) ^ (s ^ i), with the counter i XORed into
    the seed's low little-endian 64-bit word."""
    blocks = -(-nbytes // 16)
    inputs = np.tile(np.frombuffer(seed, "<u8"), (blocks, 1))
    inputs[:, 0] ^= np.arange(blocks, dtype="<u8")
    plain = inputs.tobytes()
    cipher = Cipher(algorithms.AES(PRG_FIXED_KEY), modes.ECB()).encryptor().update(plain)
    out = int.from_bytes(plain, "big") ^ int.from_bytes(cipher, "big")
    return out >> (8 * (16 * blocks - nbytes))


def keys_by_bytes(
    slots: Sequence[int], messages: Sequence[int], params: FssParams, rng: np.random.Generator
) -> list[tuple[tuple[bytes, ...], bytes]]:
    """Each write's party seed bodies and wire words, from the keys stream
    in ``fss_gen_batch``'s order: one ``rng.bytes`` call for every seed,
    one ``rng.permutation`` call per row (write by write, row by row), one
    ``rng.bytes`` call for every write's 16-byte word seed.

    Entry ``v`` of a row's permutation is the column of selection vector
    ``v``: party ``i < p - 1`` holds that column when bit ``i`` of ``v`` is
    set, and the last party when it makes the column's weight even, or odd
    in the written row. A write's free words are the :func:`_expand`
    stream of its word seed, cut into ``row_bytes`` pieces. A zero seed,
    which ``fss_gen_batch`` redraws, has chance 2^-128, so none is
    expected."""
    count, nu, spr, parties = len(slots), params.nu, params.seeds_per_row, params.parties
    nbytes, pad = params.row_bytes, 8 * params.row_bytes - params.row_bits
    seeds = rng.bytes(16 * count * nu * spr)
    assert bytes(16) not in {seeds[i : i + 16] for i in range(0, len(seeds), 16)}
    orders = [[rng.permutation(spr) for _ in range(nu)] for _ in range(count)]
    word_seeds = rng.bytes(16 * count)
    keys = []
    for w, (slot, message) in enumerate(zip(slots, messages)):
        gamma, delta = divmod(int(slot), params.mu)
        at = 16 * w * nu * spr
        rows = [
            [seeds[at + 16 * (row * spr + j) : at + 16 * (row * spr + j + 1)] for j in range(spr)]
            for row in range(nu)
        ]
        holds = [set() for _ in range(parties)]
        for row in range(nu):
            for v, column in enumerate(orders[w][row]):
                bits = [(v >> i) & 1 for i in range(parties - 1)]
                bits.append((sum(bits) + (row == gamma)) % 2)
                for i in range(parties):
                    if bits[i]:
                        holds[i].add((row, int(column)))
        party_seeds = tuple(
            b"".join(
                rows[row][j] if (row, j) in holds[i] else bytes(16)
                for row in range(nu)
                for j in range(spr)
            )
            for i in range(parties)
        )
        stream = _expand(word_seeds[16 * w : 16 * (w + 1)], (spr - 1) * nbytes)
        mask = (1 << (8 * nbytes)) - 1
        words = [(stream >> (8 * nbytes * (spr - 2 - j))) & mask for j in range(spr - 1)]
        final = int(message) << (8 * nbytes - (delta + 1) * params.m)
        for word in words + [_expand(seed, nbytes) for seed in rows[gamma]]:
            final ^= word
        wire = b"".join((word >> pad << pad).to_bytes(nbytes, "big") for word in words + [final])
        keys.append((party_seeds, wire))
    return keys


def m61_row(seed: bytes, columns: int, low: int) -> np.ndarray:
    """``columns`` elements of ``[low, MODULUS)`` read off a seed's
    :func:`_expand` stream: each 8-byte little-endian word with its top
    three bits cleared, skipping words equal to MODULUS or below ``low`` and
    reading on along the stream."""
    nbytes = 8 * columns
    while True:
        words = np.frombuffer(_expand(seed, nbytes).to_bytes(nbytes, "big"), "<u8") % 2**61
        kept = words[(words != MODULUS) & (words >= low)]
        if kept.size >= columns:
            return kept[:columns].astype(np.uint64)
        nbytes *= 2


def dense_chunk(
    writes: WritePlan,
    config: EpochConfig,
    keys_rng: np.random.Generator,
    verify_rng: np.random.Generator,
    two_row_owners: frozenset[int],
) -> tuple[list[tuple[tuple[bytes, ...], bytes]], np.ndarray, np.ndarray, np.ndarray]:
    """A crypto chunk's keys (as :func:`keys_by_bytes`), share seeds
    ``(writes, parties - 1, 16)``, last share vectors ``(writes, A + B)``
    and the last party's pair rows ``(writes, 2, 2)``, built the dense way:
    a ``(writes, A + B)`` matrix of row and column factors over
    ``config.indicator_sides`` (A, B), written write by write, one
    ``rng.bytes`` call for every share seed (write by write, party by
    party), then two scalar mask draws per write (row factor first), and
    each last vector and pair the factors and each factor's (a, a^2) minus
    its seeds' :func:`m61_row` rows of ``A + B + 4`` words, one seed at a
    time, in Python ints. A real write marks the row and column of its
    slot; a two-row owner's first write marks its row, its column and the
    next column."""
    records = list(writes)
    messages = [0 if w.value_id is None else encode_message(w.value_id, config) for w in records]
    keys = keys_by_bytes([w.slot for w in records], messages, config.fss, keys_rng)
    rows, columns = config.indicator_sides
    width = rows + columns
    indicators = np.zeros((len(records), width), np.uint64)
    first = {}
    for index, write in enumerate(records):
        first.setdefault(write.owner_id, index)
        if write.value_id is not None:
            row, column = divmod(write.slot, columns)
            indicators[index, [row, rows + column]] = 1
    for owner in two_row_owners:
        if owner in first:
            row, column = divmod(records[first[owner]].slot, columns)
            indicators[first[owner], [row, rows + column, rows + (column + 1) % columns]] = 1
    others = config.parties - 1
    seeds = verify_rng.bytes(16 * others * len(records))
    masks = [[int(verify_rng.integers(0, MODULUS, dtype=np.uint64)) for _ in range(2)] for _ in records]
    last = indicators
    pairs = []
    for index, write_masks in enumerate(masks):
        pair = [x for a in write_masks for x in (a, a * a % MODULUS)]
        for party in range(others):
            at = 16 * (index * others + party)
            words = m61_row(seeds[at : at + 16], width + 4, 0)
            last[index] = (last[index] + MODULUS - words[:width]) % MODULUS
            pair = [(x - int(y)) % MODULUS for x, y in zip(pair, words[width:])]
        pairs.append(pair)
    seed_array = np.frombuffer(seeds, np.uint8).reshape(len(records), others, 16)
    return keys, seed_array, last, np.array(pairs, np.uint64).reshape(len(records), 2, 2)


def nonzero_plan(claims: np.ndarray, config: EpochConfig, rng: np.random.Generator) -> WritePlan:
    """An epoch's write plan with int64 columns: the ``(rounds, owners,
    values)`` claim matrix viewed owner first, a null column appended that
    marks each empty round, ``np.nonzero`` over that strided cube, then one
    int64 slot draw per write."""
    by_owner = claims.transpose(1, 0, 2)
    empty = ~by_owner.any(axis=2, keepdims=True)
    owner, round_index, value = np.nonzero(np.concatenate((by_owner, empty), axis=2))
    slot = rng.integers(0, config.db_slots, size=owner.size)
    return WritePlan(owner, round_index, value, slot, config.value_ids)


def expand_shares(records: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The dense ``(parties, count, columns + 2 * factors)`` shares that a
    chunk's ``share_indicators`` records and ``(count, factors, 2)`` pair
    rows carry: party i < parties - 1 holds its seed's :func:`m61_row` of
    that many words, one seed at a time, its share of the factors and then
    of each factor's (a, a^2); the last party holds its vector and pair
    rows."""
    seeds, last = records["seeds"], records["last"]
    count, columns = last.shape
    width = columns + 2 * pairs.shape[1]
    out = np.empty((seeds.shape[1] + 1, count, width), np.uint64)
    for write, row_seeds in enumerate(seeds):
        for party, seed in enumerate(row_seeds):
            out[party, write] = m61_row(seed.tobytes(), width, 0)
    out[-1, :, :columns] = last
    out[-1, :, columns:] = pairs.reshape(count, -1)
    return out


def factor_opening(shares: np.ndarray, rows: Sequence[Sequence[int]], sides: Sequence[int]) -> list:
    """The (d, z) opening of each factor of each write in Python ints, party
    by party, from :func:`expand_shares`'s dense shares and the challenge
    rows (r, r^2) over all ``sum(sides)`` entries. Per factor: x_i and y_i
    are party i's share against r and r^2 on the factor's own entries,
    d = sum(x_i - a_i), c_i = 2 d a_i + b_i with d^2 added at party 0, and
    z = sum(c_i - y_i). Returns, per write, a list of one (d, z) per
    factor."""
    r, r2 = ([int(x) for x in row] for row in rows)
    columns = len(r)
    out = []
    for views in shares.transpose(1, 0, 2).tolist():
        write, start = [], 0
        for f, side in enumerate(sides):
            entries = range(start, start + side)
            start += side
            x = [sum(r[j] * v[j] for j in entries) for v in views]
            y = [sum(r2[j] * v[j] for j in entries) for v in views]
            a = [v[columns + 2 * f] for v in views]
            b = [v[columns + 2 * f + 1] for v in views]
            d = sum(xi - ai for xi, ai in zip(x, a)) % MODULUS
            c = [2 * d * ai + bi for ai, bi in zip(a, b)]
            c[0] += d * d
            write.append((d, sum(ci - yi for ci, yi in zip(c, y)) % MODULUS))
        out.append(write)
    return out
