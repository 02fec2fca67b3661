"""Blinded unit-vector verification of private writes.

A write submission carries, besides the key material, additive shares of
the slot-indicator vector u: all zeros when the owner abstains, a single
one at the written slot otherwise. The parties must confirm that u is such
a 0/1 unit vector without learning it. The owner samples a structured
blinding matrix R (p rows, one column per slot) and sends party i only the
p-element product B_i = R . V_i of its share. Summing the published B_i
yields s = R . u, and the structure of R makes the unit-vector property
checkable from s alone.

Three structures are supported, differing in how the rows are tied:

* ``square``: row j holds the elementwise j-th powers of row one. A unit
  vector surfaces one column, so s_j = r^j and the check is
  s_1^j == s_j for j = 2..p. The all-zero u also passes (every s_j is
  zero), which is exactly the abstention write, so the epoch pipeline
  uses this kind. An entry of 2 fails because (2r)^2 = 4r^2 != 2r^2.
* ``product``: the last row is the column-wise product of the others; the
  check multiplies s_1..s_{p-1} and compares with s_p. The all-zero
  vector passes here too (both sides are zero). With p = 2 the two rows
  coincide and the check accepts everything, so it only separates
  anything for p >= 3.
* ``inverse``: every column multiplies to one; the check is
  prod(s) == 1. This is the only kind that rejects the all-zero vector.

Whoever calls :func:`make_blinding` decides who samples R. This module
implements owner-sampled blinding, which is the cheapest arrangement; a
dealer that distrusts owners can sample R itself and pass it in, nothing
else changes. Free matrix entries are uniform nonzero (a zero entry would
blank the check at that column).

Only 0/1 indicator vectors are verifiable this way: the square identity
u^2 == u holds exactly for 0 and 1, which is the point of the check. The
multi-bit payload of a write travels inside the key material and is not
covered here.

The scalar functions accept an alternate ``modulus`` so small-field
exhaustive tests can sweep every matrix; the ``*_batch`` functions are
fixed to the production modulus and operate on uint64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, IncompleteSubmissionError
from .field import MODULUS, m61_dot, m61_mul, m61_pow, m61_sub, m61_sum

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
# Batched variants for the epoch pipeline. Layouts: indicator vectors are
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
# ---------------------------------------------------------------------------

_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(rows: int, columns: int) -> Iterator[slice]:
    step = max(1, _BLOCK_ELEMENTS // max(columns, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def additive_share_batch(
    u_hats: np.ndarray, parties: int, rng: np.random.Generator
) -> np.ndarray:
    """Additive shares of each row, (parties, owners, columns).

    Shares 0..parties-2 are drawn from ``rng`` one (owners, columns) array
    after another, which consumes the stream exactly as one
    (parties - 1, owners, columns) draw; the last share is u minus their sum.
    """
    if parties < 1:
        raise ValueError("parties must be at least 1")
    u = np.asarray(u_hats, np.uint64)
    if u.ndim != 2:
        raise DimensionError("expected an (owners, columns) array")
    out = np.empty((parties, *u.shape), np.uint64)
    for j in range(parties - 1):
        out[j] = rng.integers(0, MODULUS, size=u.shape, dtype=np.uint64)
    last = out[-1]
    for rows in _row_blocks(*u.shape):
        block = last[rows]
        block[...] = u[rows]
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
        base = rng.integers(1, MODULUS, size=(count, columns), dtype=np.uint64)
        return _square_rows(base, parties)
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
    for rows in _row_blocks(*shares.shape):
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
    for rows in _row_blocks(*base.shape):
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
