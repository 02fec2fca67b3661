"""Local privatization mechanisms and their estimators.

Randomized response is the single-round baseline: two biased coins decide
whether an owner answers truthfully or emits a random answer, and the
aggregate is de-biased afterwards. Its noise grows with the square root of
the whole population.

The two-round mechanisms instead sample a small truthful cohort and drown it
in chaff that is *repeated* across rounds. One three-sided die per owner
(truthful / chaff-yes / chaff-no) decides round one; in round two sampled
owners silently drop out while everyone else repeats their round-one answer
verbatim, so the round difference isolates the sampled truthful count
exactly. Estimator noise then depends only on the truthful subpopulation,
not the total population.

Each ``*_population`` draw takes one ``rng.random(...)`` block for the
whole population and states in its docstring which uniform decides what;
that order is part of the seeded stream contract. The multi-value draw takes
its block in runs of owners, which consume the generator exactly as the one
block would. The per-owner reference loops that the tests compare each draw
against live in ``tests/reference.py``.

Each params class is also the mechanism's interface to the rest of the
pipeline (:class:`Mechanism`): ``claims`` turns a population's truths into a
claim matrix of shape (rounds, owners, values), true where an owner claims a
value in a round, and ``estimate`` turns per-round, per-value counts of those
claims into per-value estimates. Statistical mode sums the matrix directly;
an epoch writes one database entry per claim and counts what survives.
:data:`MECHANISMS` maps each config ``kind`` to its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import (
    InfiniteLeakageError,
    InvalidTruthError,
    OutOfGridError,
    UndefinedLeakageError,
)

__all__ = [
    "Mechanism",
    "MECHANISMS",
    "RrParams",
    "TwoRoundBinaryParams",
    "TwoRoundMultiParams",
    "CalibratedParams",
    "Rounds",
    "GridSpec",
    "rr_privatize_population",
    "rr_estimate",
    "rr_epsilon",
    "two_round_binary_population",
    "two_round_estimate",
    "two_round_multi_population",
    "two_round_epsilon_binary",
    "two_round_epsilon_multi",
    "calibrated_population",
    "calibrated_estimate",
    "row_major_index",
    "discretize",
]

_PROB_TOL = 1e-12


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


class Mechanism(Protocol):
    """What the epoch pipeline and statistical mode need from a mechanism.

    ``binary`` mechanisms answer a yes/no query about value 1 and take 0/1
    truths; the others claim values from a queried domain.
    """

    kind: ClassVar[str]
    rounds: ClassVar[int]
    binary: ClassVar[bool]

    def claims(
        self, truths: np.ndarray, value_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Validate ``truths`` and draw the (rounds, owners, values) bool
        claim matrix, values in ``value_ids`` order."""

    def estimate(self, counts: Sequence[Sequence[int]], total: int) -> list[float]:
        """Per-value estimates, in ``value_ids`` order, from the
        (rounds, values) claim counts of ``total`` owners."""


def _binary_truths(truths: np.ndarray) -> np.ndarray:
    truths = np.asarray(truths)
    if not ((truths == 0) | (truths == 1)).all():
        raise InvalidTruthError("binary mechanisms need 0/1 truths")
    return truths


@dataclass(frozen=True)
class RrParams:
    """Randomized response coins.

    ``pi1`` is the probability of answering truthfully; otherwise a second
    coin with heads probability ``pi2`` supplies the answer. Degenerate
    endpoint values are allowed so the edge behavior stays expressible; the
    leakage calculator rejects settings where the bound diverges.
    """

    pi1: float
    pi2: float

    kind: ClassVar[str] = "rr"
    rounds: ClassVar[int] = 1
    binary: ClassVar[bool] = True

    def __post_init__(self):
        _check_prob("pi1", self.pi1)
        _check_prob("pi2", self.pi2)

    def claims(self, truths, value_ids, rng) -> np.ndarray:
        return rr_privatize_population(truths, self, rng)[None, :, None]

    def estimate(self, counts, total) -> list[float]:
        return [rr_estimate(counts[0][0], total, self)]

    @property
    def chaff_yes_rate(self) -> float:
        """Probability a truthful-No owner still answers 1."""
        return (1.0 - self.pi1) * self.pi2

    @property
    def yes_rate(self) -> float:
        """Probability a truthful-Yes owner answers 1."""
        return self.pi1 + self.chaff_yes_rate


@dataclass(frozen=True)
class TwoRoundBinaryParams:
    """Three-sided die for the binary two-round mechanism: truthful with
    probability ``pi_s``, chaff-Yes with ``pi_yes``, chaff-No with ``pi_no``.
    The sides must sum to one."""

    pi_s: float
    pi_yes: float
    pi_no: float

    kind: ClassVar[str] = "two_round_binary"
    rounds: ClassVar[int] = 2
    binary: ClassVar[bool] = True

    def __post_init__(self):
        _check_prob("pi_s", self.pi_s)
        _check_prob("pi_yes", self.pi_yes)
        _check_prob("pi_no", self.pi_no)
        if abs(self.pi_s + self.pi_yes + self.pi_no - 1.0) > _PROB_TOL:
            raise ValueError("die probabilities must sum to 1")

    def claims(self, truths, value_ids, rng) -> np.ndarray:
        return two_round_binary_population(truths, self, rng).claims[..., None]

    def estimate(self, counts, total) -> list[float]:
        return [two_round_estimate(counts[0][0], counts[1][0], self.pi_s)]


@dataclass(frozen=True)
class TwoRoundMultiParams:
    """Multi-value two-round mechanism: every domain value is claimed
    independently with probability ``pi_v`` (chaff), and the owner's truthful
    value is additionally claimed with probability ``pi_s``."""

    pi_s: float
    pi_v: float

    kind: ClassVar[str] = "two_round_multi"
    rounds: ClassVar[int] = 2
    binary: ClassVar[bool] = False

    def __post_init__(self):
        # The sampling draw and the per-value chaff draws are independent,
        # so the two rates are not constrained to sum below one.
        _check_prob("pi_s", self.pi_s)
        _check_prob("pi_v", self.pi_v)
        if self.pi_s <= 0.0:
            raise ValueError("pi_s must be positive")
        if self.pi_v <= 0.0:
            raise ValueError("pi_v must be positive")

    def claims(self, truths, value_ids, rng) -> np.ndarray:
        return two_round_multi_population(truths, value_ids, self, rng).claims

    def estimate(self, counts, total) -> list[float]:
        return [two_round_estimate(c1, c2, self.pi_s) for c1, c2 in zip(*counts)]


@dataclass(frozen=True)
class CalibratedParams:
    """Two independent rounds with per-truth response rates.

    Truthful-Yes owners answer 1 with rate ``pi_s_yes_1`` in round one and
    the strictly smaller ``pi_s_yes_2`` in round two; truthful-No owners use
    the same rate in both rounds so they cancel in the round difference.
    """

    pi_s_yes_1: float
    pi_s_yes_2: float
    pi_s_no_1: float
    pi_s_no_2: float

    kind: ClassVar[str] = "calibrated"
    rounds: ClassVar[int] = 2
    binary: ClassVar[bool] = True

    def __post_init__(self):
        for name in ("pi_s_yes_1", "pi_s_yes_2", "pi_s_no_1", "pi_s_no_2"):
            _check_prob(name, getattr(self, name))
        if not self.pi_s_yes_1 > self.pi_s_yes_2:
            raise ValueError("pi_s_yes_1 must exceed pi_s_yes_2")
        if abs(self.pi_s_no_1 - self.pi_s_no_2) > _PROB_TOL:
            raise ValueError("truthful-No rates must match across rounds")

    def claims(self, truths, value_ids, rng) -> np.ndarray:
        return calibrated_population(truths, self, rng).claims[..., None]

    def estimate(self, counts, total) -> list[float]:
        return [calibrated_estimate(counts[0][0], counts[1][0], self)]


MECHANISMS: dict[str, type] = {
    cls.kind: cls
    for cls in (RrParams, TwoRoundBinaryParams, TwoRoundMultiParams, CalibratedParams)
}


class Rounds(NamedTuple):
    """A two-round population draw: ``claims`` stacks both rounds' bool
    claims as (round, owner), or (round, owner, value) for the multi-value
    kind, with abstainers unclaimed in round two; ``sampled`` flags the die's
    truthful side, and is None for calibrated, whose rounds are independent."""

    claims: np.ndarray
    sampled: np.ndarray | None

    @property
    def round1(self) -> np.ndarray:
        return self.claims[0]

    @property
    def round2(self) -> np.ndarray:
        return self.claims[1]


# ---------------------------------------------------------------------------
# Randomized response
# ---------------------------------------------------------------------------


def rr_privatize_population(
    truths: np.ndarray, params: RrParams, rng: np.random.Generator
) -> np.ndarray:
    """One answer per owner from one ``rng.random(owners)`` block, in owner
    order: an owner answers 1 when its uniform falls below ``yes_rate`` for a
    truthful Yes, or below ``chaff_yes_rate`` for a No."""
    truths = _binary_truths(truths)
    u = rng.random(len(truths))
    thresholds = np.where(truths == 1, params.yes_rate, params.chaff_yes_rate)
    return u < thresholds


def rr_estimate(private_sum: float, total: int, params: RrParams) -> float:
    """De-biased truthful-Yes estimate from the privatized sum.

    Subtracts the expected chaff contribution of the whole population and
    rescales by the truthful-answer rate ``pi1``.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if params.pi1 == 0.0:
        raise ZeroDivisionError("pi1 = 0 leaves no truthful signal to rescale")
    return (private_sum - params.chaff_yes_rate * total) / params.pi1


def rr_epsilon(params: RrParams) -> float:
    """Log-ratio of the answer-1 likelihoods between the two truths:
    ln((pi1 + (1-pi1)*pi2) / ((1-pi1)*pi2))."""
    q = params.chaff_yes_rate
    if q <= 0.0:
        raise InfiniteLeakageError(
            "a truthful-No owner can never answer 1; the ratio diverges"
        )
    return math.log(params.yes_rate / q)


# ---------------------------------------------------------------------------
# Two-round binary mechanism
# ---------------------------------------------------------------------------


def two_round_binary_population(
    truths: np.ndarray, params: TwoRoundBinaryParams, rng: np.random.Generator
) -> Rounds:
    """Both rounds from one ``rng.random(owners)`` block, one die per owner
    in owner order: below ``pi_s`` the owner is sampled, answers its truth in
    round one and abstains in round two; below ``pi_s + pi_yes`` it claims
    Yes in both rounds; otherwise it claims No in both."""
    truths = _binary_truths(truths)
    u = rng.random(len(truths))
    sampled = u < params.pi_s
    chaff = (~sampled) & (u < params.pi_s + params.pi_yes)
    # chaff excludes the sampled owners, who abstain in round two
    return Rounds(np.stack(((sampled & (truths == 1)) | chaff, chaff)), sampled)


def two_round_estimate(sum1: float, sum2: float, pi_s: float) -> float:
    """Rescaled round difference; unbiased for the truthful-Yes count."""
    if pi_s <= 0.0:
        raise ValueError("pi_s must be positive")
    return (sum1 - sum2) / pi_s


def two_round_epsilon_binary(params: TwoRoundBinaryParams) -> float:
    """Leakage of the coupled binary rounds.

    Both truths can emit either round-one answer, so the bound is the larger
    log-ratio between the truthful-plus-chaff and chaff-only rates.
    """
    if params.pi_yes <= 0.0:
        raise InfiniteLeakageError("pi_yes = 0 makes a truthful 1 unexplainable")
    ratio = (params.pi_yes + params.pi_s) / params.pi_yes
    return max(math.log(ratio), math.log(1.0 / ratio))


# ---------------------------------------------------------------------------
# Two-round multi-value mechanism
# ---------------------------------------------------------------------------


# Owners per uniform block of the multi-value draw: (1 + K) * 256 KiB of
# uniforms, 2.4 MB for the shipped 8-value domain, whatever the population.
_BLOCK_OWNERS = 1 << 15


def two_round_multi_population(
    truths: np.ndarray,
    domain: Sequence[int],
    params: TwoRoundMultiParams,
    rng: np.random.Generator,
) -> Rounds:
    """Both rounds' claims from ``rng.random((b, 1 + K))`` blocks of b owners,
    K = ``len(domain)``, one row per owner in owner order; consecutive blocks
    consume the generator exactly as one ``(owners, 1 + K)`` block would.
    Column 0 is the owner's sampling draw (below ``pi_s``); column 1 + j is
    its chaff draw for ``domain[j]`` (below ``pi_v``). Round one claims the
    chaff values plus a sampled owner's truth; round two repeats round one
    without it.

    A truth outside the domain is accepted only as -1, meaning "not in the
    queried domain"; such an owner contributes chaff only. Truths are
    checked before anything is drawn, and domain values must be distinct.
    """
    domain = np.asarray(domain)
    truths = np.asarray(truths)
    order = np.argsort(domain)
    values = domain[order]
    if (values[1:] == values[:-1]).any():
        raise ValueError("domain values must be distinct")
    # one binary search over the owners whose truth is not -1 checks them and
    # finds their domain columns; a truth above every value lands on the pad
    member = truths != -1
    members = np.flatnonzero(member)
    member_truths = truths[members]
    pos = np.searchsorted(values, member_truths)
    bad = np.append(values, -1)[pos] != member_truths
    if bad.any():
        raise InvalidTruthError(
            f"truths {np.unique(member_truths[bad]).tolist()} are not in the queried domain"
        )
    n, k = len(truths), len(domain)
    sampled = np.empty(n, dtype=bool)
    claims = np.empty((2, n, k), dtype=bool)
    for start in range(0, n, _BLOCK_OWNERS):
        stop = min(start + _BLOCK_OWNERS, n)
        u = rng.random((stop - start, 1 + k))
        np.less(u[:, 0], params.pi_s, out=sampled[start:stop])
        np.less(u[:, 1:], params.pi_v, out=claims[0, start:stop])
    sampled &= member
    # a sampled owner claims its truth in round one and withdraws it in round two
    hit = sampled[members]
    owners, columns = members[hit], order[pos[hit]]
    claims[1] = claims[0]
    claims[0, owners, columns] = True
    claims[1, owners, columns] = False
    return Rounds(claims, sampled)


def two_round_epsilon_multi(params: TwoRoundMultiParams) -> float:
    """Leakage of the multi-value rounds, the larger of the per-round bounds.

    Round one compares claim rates (pi_v + pi_s vs pi_v); round two compares
    withdrawal rates (pi_v - pi_s vs pi_v). The round-two bound only exists
    when pi_v > pi_s; otherwise a withdrawal is unexplainable by chaff.
    """
    if params.pi_v <= params.pi_s:
        raise UndefinedLeakageError(
            "round-two leakage requires pi_v > pi_s "
            f"(got pi_v={params.pi_v}, pi_s={params.pi_s})"
        )
    round1 = math.log((params.pi_v + params.pi_s) / params.pi_v)
    round2 = math.log(params.pi_v / (params.pi_v - params.pi_s))
    return max(round1, round2)


# ---------------------------------------------------------------------------
# Calibrated two-round mechanism
# ---------------------------------------------------------------------------


def calibrated_population(
    truths: np.ndarray, params: CalibratedParams, rng: np.random.Generator
) -> Rounds:
    """Two independent answers per owner from one ``rng.random((owners, 2))``
    block, in owner order: column 0 decides round one and column 1 round
    two, each against the rate for the owner's truth."""
    truths = _binary_truths(truths)
    u = rng.random((len(truths), 2))
    r1 = np.where(truths == 1, params.pi_s_yes_1, params.pi_s_no_1)
    r2 = np.where(truths == 1, params.pi_s_yes_2, params.pi_s_no_2)
    return Rounds(np.stack((u[:, 0] < r1, u[:, 1] < r2)), None)


def calibrated_estimate(sum1: float, sum2: float, params: CalibratedParams) -> float:
    """Round difference rescaled by the truthful-Yes rate gap, which
    :class:`CalibratedParams` requires to be positive."""
    return (sum1 - sum2) / (params.pi_s_yes_1 - params.pi_s_yes_2)


# ---------------------------------------------------------------------------
# Grid discretization
# ---------------------------------------------------------------------------

_MILES_PER_DEGREE = 69.0  # equirectangular approximation, fine at city scale


def row_major_index(row: int, col: int, width: int) -> int:
    """0-based row-major cell index."""
    if width <= 0:
        raise ValueError("width must be positive")
    if not (0 <= row and 0 <= col < width):
        raise ValueError("cell out of range")
    return row * width + col


@dataclass(frozen=True)
class GridSpec:
    """Square grid anchored at a southwest origin corner.

    ``id_bits`` must be even: the grid has 2**(id_bits / 2) cells per side so
    every cell index fits in ``id_bits`` bits.
    """

    origin_lat: float
    origin_lon: float
    cell_miles: float
    id_bits: int

    def __post_init__(self):
        if not (math.isfinite(self.origin_lat) and math.isfinite(self.origin_lon)):
            raise ValueError("the grid origin must be finite")
        if not 0 < self.cell_miles < math.inf:  # also rejects NaN
            raise ValueError("cell_miles must be positive and finite")
        if self.id_bits < 2 or self.id_bits % 2:
            raise ValueError("id_bits must be even and at least 2")

    @property
    def side(self) -> int:
        return 1 << (self.id_bits // 2)


def discretize(lat: float, lon: float, grid: GridSpec) -> int:
    """Map a coordinate to its cell index, row-major from the origin corner."""
    north_miles = (lat - grid.origin_lat) * _MILES_PER_DEGREE
    east_miles = (lon - grid.origin_lon) * _MILES_PER_DEGREE * math.cos(
        math.radians(grid.origin_lat)
    )
    # compared before flooring, so an infinite or NaN coordinate is out too
    row = north_miles / grid.cell_miles
    col = east_miles / grid.cell_miles
    if not (0 <= row < grid.side and 0 <= col < grid.side):
        raise OutOfGridError(
            f"({lat}, {lon}) falls outside the {grid.side}x{grid.side} grid"
        )
    return row_major_index(math.floor(row), math.floor(col), grid.side)
