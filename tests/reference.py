"""Per-owner reference draws that the library's population draws are tested
against.

Each function privatizes or shares for one owner at a time and consumes its
generator's uniforms (or bytes) in the order its docstring states. The
``*_population`` draws in :mod:`covercount.mechanisms` must match these loops
draw for draw under the same generator state, and ``it_gen``'s full-length
XOR shares must reconstruct the same database as the compressed keys of
:mod:`covercount.privwrite`. None of this is library code: it exists so that
every such comparison runs against code the library does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from covercount.errors import InvalidTruthError
from covercount.field import BitString
from covercount.mechanisms import (
    CalibratedParams,
    RrParams,
    TwoRoundBinaryParams,
    TwoRoundMultiParams,
)
from covercount.privwrite import PointFunction, unit_write


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
