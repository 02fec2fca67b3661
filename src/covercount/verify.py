"""Unit-vector verification of private writes.

A write submission carries, besides the key material, additive shares of
the slot-indicator vector u: all zeros when the owner abstains, a single
one at the written slot otherwise. The parties must confirm that u is such
a vector without learning it.

The epoch check (:func:`share_indicators`, :func:`expand_shares`,
:func:`challenge_rows`, :func:`challenge_values`,
:func:`open_challenge_batch`) is Prio's idea cut
down to one degree-2 check (Corrigan-Gibbs, Boneh, NSDI 2017, section 4;
Boneh, Boyle, Corrigan-Gibbs, Gilboa, Ishai, "Zero-knowledge proofs on
secret-shared data via fully linear PCPs", CRYPTO 2019):

* The field has M = 2^61 - 1 elements and there are p parties. The owner
  shares u and a random pair (a, a^2) per write. Party i < p - 1 receives
  one 16-byte seed; :func:`expand_m61` turns it into the
  S-slot share u_i followed by (a_i, b_i). The last party receives
  u - sum(u_i) and (a - sum(a_i), a^2 - sum(b_i)).
* After the shares are fixed, the aggregators draw one challenge row r,
  uniform on [1, M) per slot, for a whole chunk. Each party computes
  x_i = <r, u_i> and y_i = <r^2, u_i> with one ``m61_dot`` against the two
  rows (r, r^2).
* They open d = sum(x_i - a_i) = <r, u> - a. Party i forms
  c_i = 2 d a_i + b_i, party 0 adds d^2, and they open
  z = sum(c_i - y_i) = <r, u>^2 - <r^2, u> + (b - a^2). A write passes iff
  z = 0.

<r, u>^2 - <r^2, u> is the zero polynomial in r exactly when u is a 0/1
vector with at most one 1. Otherwise z is a nonzero polynomial of degree at
most 2 (a wrong pair only adds an offset fixed before r is drawn), so a bad
write passes with probability at most 2 / (M - 1) by Schwartz-Zippel. For
an honest write z = 0 and d is uniform, so the transcript reveals only the
verdict. Neither the owner nor any party chooses r. The check is not bound
to the key (ROADMAP item 3).

The shares expand through the fixed-key AES PRG of ``privwrite``, so they
hide u on the same assumption as the keys.

The owner-sampled blinding kinds below predate the epoch check and remain
only for acceptance check 7 and ``bench-verify``. The owner samples a
structured matrix R (p rows, one column per slot) and party i publishes the
p-element product B_i = R . V_i of its share. Summing the B_i yields
s = R . u, and the structure of R makes the unit-vector property checkable
from s alone:

* ``square``: row j holds the elementwise j-th powers of row one. A unit
  vector surfaces one column, so s_j = r^j and the check is
  s_1^j == s_j for j = 2..p. The all-zero u also passes (every s_j is
  zero). An entry of 2 fails because (2r)^2 = 4r^2 != 2r^2.
* ``product``: the last row is the column-wise product of the others; the
  check multiplies s_1..s_{p-1} and compares with s_p. The all-zero
  vector passes here too (both sides are zero). With p = 2 the two rows
  coincide and the check accepts everything, so it only separates
  anything for p >= 3.
* ``inverse``: every column multiplies to one; the check is
  prod(s) == 1. This is the only kind that rejects the all-zero vector.

Free matrix entries are uniform nonzero (a zero entry would blank the check
at that column). Because the owner chooses R, s_1 names the written slot
and a repeated entry admits a weighted two-slot indicator; the epoch check
has neither fault.

Only 0/1 indicator vectors are verifiable this way. The multi-bit payload
of a write travels inside the key material and is not covered here.

The scalar functions accept an alternate ``modulus`` so small-field
exhaustive tests can sweep every matrix; the ``*_batch`` functions are
fixed to the production modulus and operate on uint64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, IncompleteSubmissionError
from .field import MODULUS, m61_add, m61_dot, m61_mul, m61_pow, m61_sub, m61_sum
from .privwrite import SEED_BYTES, _prg_rows, _stream_bytes

KINDS = ("square", "product", "inverse")


@dataclass(frozen=True)
class BlindingMatrix:
    """p x n matrix tying its rows per the kind's column constraint."""

    kind: str
    entries: tuple[tuple[int, ...], ...]

    @property
    def parties(self) -> int:
        return len(self.entries)

    @property
    def columns(self) -> int:
        return len(self.entries[0])


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown blinding kind {kind!r}")


def additive_share(
    u_hat: Sequence[int],
    parties: int,
    rng: np.random.Generator,
    modulus: int = MODULUS,
) -> list[tuple[int, ...]]:
    """Split a vector into ``parties`` additive shares summing to it."""
    if parties < 1:
        raise ValueError("parties must be at least 1")
    u = [int(x) % modulus for x in u_hat]
    shares = [
        tuple(int(rng.integers(0, modulus, dtype=np.uint64)) for _ in u)
        for _ in range(parties - 1)
    ]
    last = list(u)
    for share in shares:
        for i, x in enumerate(share):
            last[i] = (last[i] - x) % modulus
    shares.append(tuple(last))
    return shares


def make_blinding(
    kind: str,
    columns: int,
    parties: int,
    rng: np.random.Generator,
    modulus: int = MODULUS,
) -> BlindingMatrix:
    """Sample a blinding matrix whose rows satisfy the kind's constraint."""
    _check_kind(kind)
    if parties < 2:
        raise ValueError("parties must be at least 2")
    if columns < 1:
        raise ValueError("columns must be at least 1")
    if kind == "square":
        base = [int(rng.integers(1, modulus, dtype=np.uint64)) for _ in range(columns)]
        rows = [tuple(base)]
        prev = base
        for _ in range(parties - 1):
            prev = [x * r % modulus for x, r in zip(prev, base)]
            rows.append(tuple(prev))
        return BlindingMatrix(kind, tuple(rows))
    free = [
        tuple(int(rng.integers(1, modulus, dtype=np.uint64)) for _ in range(columns))
        for _ in range(parties - 1)
    ]
    prod = [1] * columns
    for row in free:
        for i, x in enumerate(row):
            prod[i] = prod[i] * x % modulus
    if kind == "product":
        last = tuple(prod)
    else:
        last = tuple(pow(x, -1, modulus) for x in prod)
    return BlindingMatrix(kind, tuple(free) + (last,))


def blind(
    matrix: BlindingMatrix, share: Sequence[int], modulus: int = MODULUS
) -> tuple[int, ...]:
    """One party's public view: each matrix row dotted with its share."""
    if len(share) != matrix.columns:
        raise DimensionError(
            f"share has {len(share)} entries, matrix has {matrix.columns} columns"
        )
    return tuple(
        sum(r * int(x) for r, x in zip(row, share)) % modulus
        for row in matrix.entries
    )


def aggregate(
    blinded: Iterable[Sequence[int]], modulus: int = MODULUS
) -> tuple[int, ...]:
    """Row-wise sum of the parties' blinded shares, i.e. R . u."""
    rows: list[int] | None = None
    for share in blinded:
        if rows is None:
            rows = [int(x) % modulus for x in share]
        elif len(share) != len(rows):
            raise DimensionError("blinded shares disagree on row count")
        else:
            for j, x in enumerate(share):
                rows[j] = (rows[j] + int(x)) % modulus
    if rows is None:
        raise IncompleteSubmissionError("no blinded shares to aggregate")
    return tuple(rows)


def check_square(s: Sequence[int], modulus: int = MODULUS) -> bool:
    return all(pow(s[0], j + 1, modulus) == s[j] % modulus for j in range(1, len(s)))


def check_product(s: Sequence[int], modulus: int = MODULUS) -> bool:
    prod = 1
    for x in s[:-1]:
        prod = prod * int(x) % modulus
    return prod == s[-1] % modulus


def check_inverse(s: Sequence[int], modulus: int = MODULUS) -> bool:
    prod = 1
    for x in s:
        prod = prod * int(x) % modulus
    return prod == 1


CHECKS = {"square": check_square, "product": check_product, "inverse": check_inverse}


# ---------------------------------------------------------------------------
# Batched variants of the blinded kinds, and the row blocks that the epoch
# check shares with them. Layouts: indicator vectors are
# (owners, columns); additive shares are (parties, owners, columns); one
# party's blinded output is (owners, parties).
#
# Blinding is one ``m61_dot`` per row block: the blinding rows against the
# share rows, as float64 limb products summed by one matmul, exact while a
# row has at most 2^21 columns. The kernels walk the owners in row blocks
# of about _BLOCK_ELEMENTS entries per operand (4 rows at 4,096 columns),
# which bounds each block's power rows and float64 limbs (32 bytes per
# element). Timed on 512 rows of 4,096 columns at p = 3 (2 shared cores,
# medians of 9), blinding took 219 ms at 2^13 and 2^14 and 263 to 538 ms
# at 2^12 and 2^15 to 2^19; sharing took 80 to 85 ms from 2^13 to 2^16.
# The share and blinding draws take the same row blocks, so a draw holds
# one block beside the array it fills. The epoch's challenge check walks
# the same blocks: at 2^16 it ran faster, but perfbench's crypto-split
# peak RSS rose from 70.6 to 78.2 MB (2 shared cores), so they stay 2^14.
# ---------------------------------------------------------------------------

_BLOCK_ELEMENTS = 1 << 14


def row_blocks(rows: int, columns: int) -> Iterator[slice]:
    """Slices of ``rows`` rows, about ``_BLOCK_ELEMENTS`` entries each."""
    step = max(1, _BLOCK_ELEMENTS // max(columns, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def _draw_rows(out: np.ndarray, low: int, rng: np.random.Generator) -> np.ndarray:
    """Fill ``out``, (rows, columns) uint64, with uniform elements of
    ``[low, MODULUS)``, one row block at a time. A bounded uint64 draw takes
    its elements in order, so the values and the generator state are those
    of one whole-array draw."""
    for rows in row_blocks(*out.shape):
        block = out[rows]
        block[...] = rng.integers(low, MODULUS, size=block.shape, dtype=np.uint64)
    return out


def additive_share_batch(
    u_hats: np.ndarray, parties: int, rng: np.random.Generator
) -> np.ndarray:
    """Additive shares of each row, (parties, owners, columns).

    Layers 0..parties-2 are drawn from ``rng`` one after another, the values
    and generator state of one (parties - 1, owners, columns) draw; then one
    pass over row blocks makes the last layer the rows minus their sum.
    """
    if parties < 1:
        raise ValueError("parties must be at least 1")
    u = np.asarray(u_hats, np.uint64)
    if u.ndim != 2:
        raise DimensionError("expected an (owners, columns) array")
    out = np.empty((parties, *u.shape), np.uint64)
    for layer in out[:-1]:
        _draw_rows(layer, 0, rng)
    out[-1] = u
    for rows in row_blocks(*u.shape):
        block = out[-1, rows]
        for share in out[:-1, rows]:
            block[...] = m61_sub(block, share)
    return out


def _square_rows(base: np.ndarray, parties: int) -> np.ndarray:
    """(..., columns) -> (..., parties, columns): row j is the elementwise
    (j + 1)-th power of ``base``."""
    out = np.empty((*base.shape[:-1], parties, base.shape[-1]), np.uint64)
    out[..., 0, :] = base
    for j in range(1, parties):
        out[..., j, :] = m61_mul(out[..., j - 1, :], base)
    return out


def make_blinding_batch(
    kind: str, columns: int, parties: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` independent matrices as a (count, parties, columns) array."""
    _check_kind(kind)
    if parties < 2:
        raise ValueError("parties must be at least 2")
    if kind == "square":
        return _square_rows(_draw_rows(np.empty((count, columns), np.uint64), 1, rng), parties)
    out = np.empty((count, parties, columns), np.uint64)
    free = rng.integers(1, MODULUS, size=(count, parties - 1, columns), dtype=np.uint64)
    out[:, :-1] = free
    prod = free[:, 0].copy()
    for j in range(1, parties - 1):
        prod = m61_mul(prod, free[:, j])
    if kind == "product":
        out[:, -1] = prod
    else:
        out[:, -1] = m61_pow(prod, MODULUS - 2)
    return out


def blind_batch(matrices: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Blind one party's share batch: (count, parties, columns) x (count, columns)."""
    if matrices.shape[0] != shares.shape[0] or matrices.shape[2] != shares.shape[1]:
        raise DimensionError("matrix and share batches disagree on shape")
    out = np.empty(matrices.shape[:2], np.uint64)
    for rows in row_blocks(*shares.shape):
        out[rows] = m61_dot(matrices[rows], shares[rows, None])[..., 0]
    return out


def blind_square_batch(base: np.ndarray, shares: np.ndarray, parties: int) -> np.ndarray:
    """Blind a (stack, count, columns) share stack against square-kind
    matrices given by their (count, columns) base rows: (stack, count, parties).

    Each row block builds its power rows once for the whole stack; equivalent
    to ``blind_batch`` on the expanded matrices, one share batch at a time.
    """
    if shares.ndim != 3 or base.shape != shares.shape[1:]:
        raise DimensionError("expected a (stack, count, columns) share stack over the base rows")
    out = np.empty((shares.shape[0], base.shape[0], parties), np.uint64)
    for rows in row_blocks(*base.shape):
        powers = _square_rows(base[rows], parties)
        # (rows, parties, columns) x (rows, stack, columns) -> (rows, parties, stack)
        out[:, rows] = m61_dot(powers, shares[:, rows].swapaxes(0, 1)).transpose(2, 0, 1)
    return out


def aggregate_batch(blinded: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Sum the parties' blinded outputs, a list of (count, parties) arrays
    or their (stack, count, parties) stack, over the party axis."""
    return m61_sum(np.asarray(blinded, np.uint64), axis=0)


def check_batch(aggregates: np.ndarray, kind: str) -> np.ndarray:
    """Vectorized accept/reject over (owners, parties) aggregate rows."""
    _check_kind(kind)
    s = np.asarray(aggregates, np.uint64)
    parties = s.shape[1]
    if kind == "square":
        return (_square_rows(s[:, :1], parties)[..., 0] == s).all(axis=1)
    prod = s[:, 0]
    for j in range(1, parties - 1):
        prod = m61_mul(prod, s[:, j])
    if kind == "product":
        return prod == s[:, -1]
    return m61_mul(prod, s[:, -1]) == 1


# ---------------------------------------------------------------------------
# The epoch check (see the module docstring). A record holds one write's
# share seeds and last vector, and a pair row the last party's share of
# (a, a^2); the collector expands each row block of records anew, as each
# party would, takes each party's values against the chunk's challenge
# rows, and opens the whole chunk at once.
# ---------------------------------------------------------------------------


def draw_seeds(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` 16-byte seeds, (count, 16) uint8: the bytes and generator
    state of one ``rng.bytes(16 * count)`` call."""
    return _stream_bytes(rng, SEED_BYTES * count).reshape(count, SEED_BYTES)


def expand_m61(seeds: np.ndarray, columns: int, low: int) -> np.ndarray:
    """Expand each 16-byte seed of ``seeds`` into ``columns`` elements
    uniform on ``[low, MODULUS)``, ``low`` 0 or 1: (count, columns) uint64.

    The seed's PRG stream is read as little-endian uint64 words with the top
    three bits cleared. A word equal to MODULUS or below ``low`` is skipped
    and the row continues along the same stream, so every entry is exactly
    uniform; a word is skipped with chance 2^-61 or 2^-60.
    """
    seeds = np.ascontiguousarray(seeds).reshape(-1, SEED_BYTES)
    # whole PRG blocks, so that the words view one contiguous array
    words = _prg_rows(seeds, 16 * -(-columns // 2)).view("<u8")
    words &= np.uint64(MODULUS)
    out = words[:, :columns]
    if out.size and (out.max() == MODULUS or out.min() < low):
        for row in np.flatnonzero(((out == MODULUS) | (out < low)).any(axis=1)):
            out[row] = _kept_words(seeds[row], columns, low)
    return out


def _kept_words(seed: np.ndarray, columns: int, low: int) -> np.ndarray:
    """The first ``columns`` words of ``seed``'s stream, read as
    :func:`expand_m61` reads them, that lie in ``[low, MODULUS)``."""
    length = columns
    while True:
        length *= 2
        words = _prg_rows(seed, 8 * length).view("<u8")[0] & np.uint64(MODULUS)
        kept = words[(words != MODULUS) & (words >= low)]
        if kept.size >= columns:
            return kept[:columns]


def share_indicators(
    count: int,
    ones: tuple[np.ndarray, np.ndarray],
    parties: int,
    columns: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed-compressed additive shares of ``count`` indicator vectors of
    ``columns`` entries, one at each (vector, column) pair of ``ones``, and
    of one random pair (a, a^2) per vector.

    Returns one record per vector and the (count, 2) pair rows. A record
    holds ``seeds``, the (parties - 1, 16) share seeds drawn from ``rng``
    (all vectors' seeds in one draw, vector by vector), and ``last``, the
    vector minus the first ``columns`` words of the seeds' expansions. Then
    one mask a per vector is drawn from ``rng``, uniform on
    ``[0, MODULUS)``, and a pair row is (a, a^2) minus words ``columns``
    and ``columns + 1`` of the same expansions. Both are built in place,
    one row block at a time.
    """
    layout = [("seeds", np.uint8, (parties - 1, SEED_BYTES)), ("last", "<u8", (columns,))]
    records = np.zeros(count, layout)
    seeds = records["seeds"]
    seeds[...] = draw_seeds(count * (parties - 1), rng).reshape(seeds.shape)
    masks = rng.integers(0, MODULUS, size=count, dtype=np.uint64)
    pairs = np.stack((masks, m61_mul(masks, masks)), axis=1)
    last = records["last"]
    last[ones] = 1
    for rows in row_blocks(count, columns):
        block, pair = last[rows], pairs[rows]
        words = expand_m61(seeds[rows], columns + 2, 0).reshape(-1, parties - 1, columns + 2)
        for i in range(parties - 1):
            block[...] = m61_sub(block, words[:, i, :columns])
            pair[...] = m61_sub(pair, words[:, i, columns:])
    return records, pairs


def expand_shares(records: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The (parties, count, columns + 2) shares that ``records`` and
    ``pairs`` of :func:`share_indicators` carry: each party's share of the
    indicator, then its share of (a, a^2). Party i < parties - 1 expands
    its own seeds to elements of ``[0, MODULUS)``, and the last party holds
    its vector and pair row."""
    seeds, last = records["seeds"], records["last"]
    columns = last.shape[1]
    out = np.empty((seeds.shape[1] + 1, len(records), columns + 2), np.uint64)
    out[:-1] = expand_m61(seeds.swapaxes(0, 1), columns + 2, 0).reshape(out[:-1].shape)
    out[-1, :, :columns] = last
    out[-1, :, columns:] = pairs
    return out


def challenge_rows(seed: np.ndarray, columns: int) -> np.ndarray:
    """The (2, columns) challenge rows (r, r^2) of one 16-byte seed: r
    uniform on ``[1, MODULUS)`` per column, read as :func:`expand_m61`
    reads it."""
    r = expand_m61(seed, columns, 1)[0]
    return np.stack((r, m61_mul(r, r)))


def challenge_values(shares: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each party's local values (x_i, y_i, a_i, b_i) of each write,
    (parties, count, 4), for (parties, count, columns + 2) shares of
    :func:`expand_shares` and the (2, columns) rows (r, r^2) of
    :func:`challenge_rows`: x_i = <r, u_i> and y_i = <r^2, u_i> from one
    ``m61_dot``, then the party's pair share."""
    columns = rows.shape[-1]
    if rows.shape != (2, columns) or shares.ndim != 3 or shares.shape[-1] != columns + 2:
        raise DimensionError("expected (parties, count, columns + 2) shares over two challenge rows")
    out = np.empty((*shares.shape[:2], 4), np.uint64)
    out[..., :2] = m61_dot(shares[..., :columns], rows)
    out[..., 2:] = shares[..., columns:]
    return out


def open_challenge_batch(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two opened values (d, z) of each write, each (count,), from the
    parties' (parties, count, 4) :func:`challenge_values`: d = sum(x_i - a_i),
    then c_i = 2 d a_i + b_i (party 0 adds d^2) and z = sum(c_i - y_i). A
    write passes iff z = 0."""
    x, y, a, b = np.moveaxis(values, -1, 0)
    d = m61_sum(m61_sub(x, a), axis=0)
    c = m61_add(m61_mul(a, np.broadcast_to(m61_add(d, d), a.shape)), b)
    c[0] = m61_add(c[0], m61_mul(d, d))
    return d, m61_sum(m61_sub(c, y), axis=0)
