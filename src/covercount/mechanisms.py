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

Scalar functions consume one ``rng.random(...)`` block per owner in a
documented order; the ``*_population`` variants draw the same uniforms in the
same order, so a vectorized simulation is draw-for-draw identical to the
scalar loop under the same generator state.

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
    DegenerateCalibrationError,
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
    "TwoRoundResponse",
    "Rounds",
    "GridSpec",
    "rr_privatize",
    "rr_privatize_population",
    "rr_estimate",
    "rr_noise_stddev",
    "rr_epsilon",
    "two_round_binary",
    "two_round_binary_population",
    "two_round_estimate",
    "two_round_multi",
    "two_round_multi_population",
    "two_round_epsilon_binary",
    "two_round_epsilon_multi",
    "calibrated_privatize",
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
        return rr_privatize_population(_binary_truths(truths), self, rng)[None, :, None]

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
        return two_round_binary_population(_binary_truths(truths), self, rng).claims[..., None]

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
        return calibrated_population(_binary_truths(truths), self, rng).claims[..., None]

    def estimate(self, counts, total) -> list[float]:
        return [calibrated_estimate(counts[0][0], counts[1][0], self)]


MECHANISMS: dict[str, type] = {
    cls.kind: cls
    for cls in (RrParams, TwoRoundBinaryParams, TwoRoundMultiParams, CalibratedParams)
}


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


def rr_privatize(truth: int, params: RrParams, rng: np.random.Generator) -> int:
    """One owner's randomized-response answer. Consumes one uniform."""
    if truth not in (0, 1):
        raise InvalidTruthError(f"binary truth expected, got {truth!r}")
    u = rng.random()
    threshold = params.yes_rate if truth else params.chaff_yes_rate
    return int(u < threshold)


def rr_privatize_population(
    truths: np.ndarray, params: RrParams, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized ``rr_privatize``; draw-for-draw identical to the loop."""
    truths = np.asarray(truths)
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


def two_round_binary_population(
    truths: np.ndarray, params: TwoRoundBinaryParams, rng: np.random.Generator
) -> Rounds:
    truths = np.asarray(truths)
    u = rng.random(len(truths))
    sampled = u < params.pi_s
    chaff = (~sampled) & (u < params.pi_s + params.pi_yes)
    # chaff excludes the sampled owners, who abstain in round two
    return Rounds(np.stack((np.where(sampled, truths == 1, chaff), chaff)), sampled)


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


def two_round_multi_population(
    truths: np.ndarray,
    domain: Sequence[int],
    params: TwoRoundMultiParams,
    rng: np.random.Generator,
) -> Rounds:
    """Vectorized ``two_round_multi``; draw-for-draw identical to the loop.

    ``truths`` may contain -1 (or any value outside the domain codes used
    here) only as -1, meaning "not in the queried domain".
    """
    domain = list(domain)
    truths = np.asarray(truths)
    bad = set(np.unique(truths).tolist()) - set(domain) - {-1}
    if bad:
        raise InvalidTruthError(f"truths {sorted(bad)} are not in the queried domain")
    n = len(truths)
    u = rng.random((n, 1 + len(domain)))
    sampled = (u[:, 0] < params.pi_s) & (truths != -1)
    withdrawn = np.empty((n, len(domain)), dtype=bool)
    for j, v in enumerate(domain):
        withdrawn[:, j] = (truths == v) & sampled
    claims = np.empty((2, n, len(domain)), dtype=bool)
    np.less(u[:, 1:], params.pi_v, out=claims[0])
    claims[0] |= withdrawn
    # round one claims every withdrawn truth, so XOR drops exactly those
    np.logical_xor(claims[0], withdrawn, out=claims[1])
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


def calibrated_population(
    truths: np.ndarray, params: CalibratedParams, rng: np.random.Generator
) -> Rounds:
    truths = np.asarray(truths)
    u = rng.random((len(truths), 2))
    r1 = np.where(truths == 1, params.pi_s_yes_1, params.pi_s_no_1)
    r2 = np.where(truths == 1, params.pi_s_yes_2, params.pi_s_no_2)
    return Rounds(np.stack((u[:, 0] < r1, u[:, 1] < r2)), None)


def calibrated_estimate(sum1: float, sum2: float, params: CalibratedParams) -> float:
    """Round difference rescaled by the truthful-Yes rate gap."""
    divisor = params.pi_s_yes_1 - params.pi_s_yes_2
    if divisor <= 0.0:
        raise DegenerateCalibrationError("round-one Yes rate must exceed round two's")
    return (sum1 - sum2) / divisor


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
