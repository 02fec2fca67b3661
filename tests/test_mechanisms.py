"""Mechanism and estimator tests.

Estimator identities are checked exactly where the construction makes them
deterministic (the round difference literally counts sampled truthful
owners), and by Monte Carlo where only the expectation is pinned. The
leakage calculators are checked against hand-evaluated closed forms.
"""

import math

import numpy as np
import pytest

from covercount import mechanisms as mech
from covercount import privwrite as pw
from covercount.errors import (
    InfiniteLeakageError,
    InvalidTruthError,
    OutOfGridError,
    UndefinedLeakageError,
)

import reference


class QueuedUniformRng:
    """Deterministic stand-in: each .random(size) pops the next block."""

    def __init__(self, blocks):
        self._blocks = list(blocks)

    def random(self, size):
        out = np.asarray(self._blocks.pop(0), dtype=float)
        assert out.shape == np.empty(size).shape
        return out


# -- public names and truth validation -----------------------------------------


@pytest.mark.parametrize("module", [mech, pw], ids=lambda module: module.__name__)
def test_public_names_resolve(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= namespace.keys()


@pytest.mark.parametrize(
    "draw, params",
    [
        (mech.rr_privatize_population, mech.RrParams(0.85, 0.3)),
        (mech.two_round_binary_population, mech.TwoRoundBinaryParams(0.45, 0.2, 0.35)),
        (mech.calibrated_population, mech.CalibratedParams(0.5, 0.2, 0.1, 0.1)),
    ],
    ids=["rr", "two_round_binary", "calibrated"],
)
def test_binary_draws_reject_non_binary_truths(draw, params):
    for truths in ([2, -1, 0, 1], [0, 1, 2], [-1]):
        with pytest.raises(InvalidTruthError):
            draw(np.array(truths), params, np.random.default_rng(0))


# -- randomized response -------------------------------------------------------


def test_rr_degenerate_always_truthful():
    params = mech.RrParams(pi1=1.0, pi2=0.7)
    rng = np.random.default_rng(0)
    assert mech.rr_privatize_population(np.ones(50, dtype=int), params, rng).all()
    assert not mech.rr_privatize_population(np.zeros(50, dtype=int), params, rng).any()


def test_rr_rejects_non_binary_truth():
    with pytest.raises(InvalidTruthError):
        mech.rr_privatize_population(
            np.array([2]), mech.RrParams(0.5, 0.5), np.random.default_rng(0)
        )


def test_rr_population_matches_scalar_loop():
    params = mech.RrParams(pi1=0.85, pi2=0.3)
    truths = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 25)
    vec = mech.rr_privatize_population(truths, params, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    loop = [reference.rr_privatize(int(t), params, rng) for t in truths]
    assert vec.tolist() == loop


def test_rr_empirical_rates():
    params = mech.RrParams(pi1=0.85, pi2=0.3)
    # truthful-Yes rate 0.895, truthful-No rate 0.045
    rng = np.random.default_rng(1)
    n = 1_000_000
    ones = mech.rr_privatize_population(np.ones(n, dtype=int), params, rng).mean()
    zeros = mech.rr_privatize_population(np.zeros(n, dtype=int), params, rng).mean()
    assert abs(ones - 0.895) < 4 * math.sqrt(0.895 * 0.105 / n)
    assert abs(zeros - 0.045) < 4 * math.sqrt(0.045 * 0.955 / n)


def test_rr_estimate_identity():
    params = mech.RrParams(pi1=0.85, pi2=0.3)
    # chaff rate 0.045: (55.5 - 4.5) / 0.85 = 60
    assert mech.rr_estimate(55.5, 100, params) == pytest.approx(60.0, rel=1e-12)
    # with pi1 = 1 the sum is already the answer
    assert mech.rr_estimate(42.0, 1000, mech.RrParams(1.0, 0.5)) == pytest.approx(42.0)


def test_rr_estimate_unbiased():
    params = mech.RrParams(pi1=0.85, pi2=0.3)
    rng = np.random.default_rng(3)
    total, yes = 10_000, 600
    truths = np.zeros(total, dtype=int)
    truths[:yes] = 1
    estimates = []
    for _ in range(300):
        s = mech.rr_privatize_population(truths, params, rng).sum()
        estimates.append(mech.rr_estimate(s, total, params))
    se = np.std(estimates) / math.sqrt(len(estimates))
    assert abs(np.mean(estimates) - yes) < 4 * se + 1e-9


def test_rr_noise_stddev_frozen_values():
    params = mech.RrParams(pi1=0.85, pi2=0.3)
    at_1e4 = reference.rr_noise_stddev(params, 10_000)
    assert at_1e4.exact == pytest.approx(math.sqrt(10_000 * 0.045 * 0.955), rel=1e-12)
    assert at_1e4.approximate == pytest.approx(math.sqrt(450.0), rel=1e-12)
    assert round(at_1e4.approximate, 1) == 21.2
    at_1e6 = reference.rr_noise_stddev(params, 1_000_000)
    assert round(at_1e6.approximate) == 212
    # noise grows with sqrt(total)
    assert at_1e6.exact == pytest.approx(10 * at_1e4.exact, rel=1e-12)


def test_rr_epsilon_frozen_value():
    assert mech.rr_epsilon(mech.RrParams(0.8, 0.2)) == pytest.approx(
        math.log(21.0), abs=1e-12
    )


def test_rr_epsilon_diverges_without_chaff():
    with pytest.raises(InfiniteLeakageError):
        mech.rr_epsilon(mech.RrParams(1.0, 0.3))
    with pytest.raises(InfiniteLeakageError):
        mech.rr_epsilon(mech.RrParams(0.8, 0.0))


def test_rr_epsilon_monotone_in_pi1():
    pi2 = 0.2
    values = [mech.rr_epsilon(mech.RrParams(p1, pi2)) for p1 in np.linspace(0.05, 0.95, 19)]
    assert all(a < b for a, b in zip(values, values[1:]))


# -- two-round binary ----------------------------------------------------------


def test_binary_degenerate_sampling():
    params = mech.TwoRoundBinaryParams(pi_s=1.0, pi_yes=0.0, pi_no=0.0)
    rng = np.random.default_rng(0)
    rounds = mech.two_round_binary_population(np.ones(20, dtype=int), params, rng)
    assert rounds.sampled.all()
    assert rounds.round1.all() and not rounds.round2.any()


def test_binary_coupling_invariants():
    params = mech.TwoRoundBinaryParams(pi_s=0.45, pi_yes=0.2, pi_no=0.35)
    rng = np.random.default_rng(5)
    truths = rng.integers(0, 2, size=500)
    rounds = mech.two_round_binary_population(truths, params, rng)
    sampled = rounds.sampled
    assert sampled.any() and not sampled.all()
    # sampled owners answer their truth, then abstain; chaff repeats
    np.testing.assert_array_equal(rounds.round1[sampled], truths[sampled] == 1)
    assert not rounds.round2[sampled].any()
    np.testing.assert_array_equal(rounds.round1[~sampled], rounds.round2[~sampled])


def test_binary_population_matches_scalar_loop():
    params = mech.TwoRoundBinaryParams(pi_s=0.45, pi_yes=0.2, pi_no=0.35)
    truths = np.array([1] * 40 + [0] * 160)
    vec = mech.two_round_binary_population(truths, params, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for i, t in enumerate(truths):
        resp = reference.two_round_binary(int(t), params, rng)
        assert vec.sampled[i] == resp.sampled
        assert vec.round1[i] == resp.round1
        assert vec.round2[i] == (0 if resp.round2 is None else resp.round2)


def test_binary_round_difference_counts_sampled_yes_exactly():
    params = mech.TwoRoundBinaryParams(pi_s=0.45, pi_yes=0.2, pi_no=0.35)
    truths = np.zeros(10_000, dtype=int)
    truths[:100] = 1
    rounds = mech.two_round_binary_population(truths, params, np.random.default_rng(11))
    diff = rounds.round1.sum() - rounds.round2.sum()
    assert diff == (rounds.sampled & (truths == 1)).sum()


def test_two_round_estimate_identity():
    assert mech.two_round_estimate(2045, 2000, 0.45) == pytest.approx(100.0, rel=1e-12)
    with pytest.raises(ValueError):
        mech.two_round_estimate(1, 0, 0.0)


def test_binary_estimator_unbiased_and_total_independent():
    params = mech.TwoRoundBinaryParams(pi_s=0.45, pi_yes=0.2, pi_no=0.35)
    rng = np.random.default_rng(13)
    yes = 100
    errors = {}
    for total in (10_000, 100_000):
        truths = np.zeros(total, dtype=int)
        truths[:yes] = 1
        errs = []
        for _ in range(200):
            rounds = mech.two_round_binary_population(truths, params, rng)
            est = mech.two_round_estimate(
                rounds.round1.sum(), rounds.round2.sum(), params.pi_s
            )
            errs.append(abs(est - yes))
        errors[total] = np.mean(errs)
    # the estimate is Binomial(yes, pi_s)/pi_s regardless of total
    assert 0.5 < errors[10_000] / errors[100_000] < 2.0
    assert errors[1_000_000 // 100] < 22


def test_binary_epsilon_frozen_values():
    assert mech.two_round_epsilon_binary(
        mech.TwoRoundBinaryParams(0.45, 0.2, 0.35)
    ) == pytest.approx(math.log(3.25), abs=1e-12)
    assert mech.two_round_epsilon_binary(
        mech.TwoRoundBinaryParams(0.25, 0.2, 0.55)
    ) == pytest.approx(math.log(2.25), abs=1e-12)
    with pytest.raises(InfiniteLeakageError):
        mech.two_round_epsilon_binary(mech.TwoRoundBinaryParams(0.5, 0.0, 0.5))


def test_binary_params_must_sum_to_one():
    with pytest.raises(ValueError):
        mech.TwoRoundBinaryParams(0.5, 0.2, 0.2)


# -- two-round multi-value -----------------------------------------------------


def claimed(domain, row):
    return {v for v, claim in zip(domain, row) if claim}


def test_multi_worked_example():
    # truth 8 sampled; chaff picks 1, 2, 4, 5 out of domain 1..9
    domain = list(range(1, 10))
    pi_s, pi_v = 0.45, 0.4
    includes = [0.1, 0.2, 0.9, 0.05, 0.3, 0.99, 0.8, 0.7, 0.6]  # < 0.4 at 1,2,4,5
    rng = QueuedUniformRng([[[0.01, *includes]]])
    params = mech.TwoRoundMultiParams(pi_s, pi_v)
    rounds = mech.two_round_multi_population(np.array([8]), domain, params, rng)
    assert rounds.sampled.tolist() == [True]
    assert claimed(domain, rounds.round1[0]) == {1, 2, 4, 5, 8}
    assert claimed(domain, rounds.round2[0]) == {1, 2, 4, 5}


def test_multi_sampled_truth_also_randomly_claimed():
    # the truth withdrawn in round two even when chaff claimed it as well
    domain = [3, 8]
    rng = QueuedUniformRng([[[0.0, 0.0, 0.0]]])  # sampled; both values chaff-claimed
    params = mech.TwoRoundMultiParams(0.2, 0.5)
    rounds = mech.two_round_multi_population(np.array([8]), domain, params, rng)
    assert claimed(domain, rounds.round1[0]) == {3, 8}
    assert claimed(domain, rounds.round2[0]) == {3}


def test_multi_unsampled_rounds_identical():
    params = mech.TwoRoundMultiParams(pi_s=0.1, pi_v=0.4)
    domain = [1, 2, 3]
    rng = np.random.default_rng(17)
    rounds = mech.two_round_multi_population(np.full(300, 2), domain, params, rng)
    sampled = rounds.sampled
    assert sampled.any() and not sampled.all()
    # a sampled owner claims its truth 2 in round one and withdraws only it
    assert rounds.round1[sampled, 1].all()
    expected_round2 = rounds.round1.copy()
    expected_round2[sampled, 1] = False
    np.testing.assert_array_equal(rounds.round2, expected_round2)


def test_multi_absent_truth_contributes_chaff_only():
    params = mech.TwoRoundMultiParams(pi_s=0.9, pi_v=0.3)
    rng = np.random.default_rng(19)
    rounds = mech.two_round_multi_population(np.full(100, -1), [1, 2], params, rng)
    assert not rounds.sampled.any()
    assert rounds.round1.any()
    np.testing.assert_array_equal(rounds.round1, rounds.round2)


def test_multi_rejects_truth_outside_domain():
    params = mech.TwoRoundMultiParams(pi_s=0.1, pi_v=0.4)
    for truths in ([1, 7], [7], [-2, 1]):
        with pytest.raises(InvalidTruthError):
            mech.two_round_multi_population(
                np.array(truths), [1, 2, 3], params, np.random.default_rng(0)
            )


def test_multi_population_matches_scalar_loop():
    params = mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.4)
    domain = [2, 5, 6, 9]
    truths = np.array([2, 5, -1, 9, 9, -1, 6, 2] * 10)
    vec = mech.two_round_multi_population(truths, domain, params, np.random.default_rng(23))
    rng = np.random.default_rng(23)
    for i, t in enumerate(truths):
        resp = reference.two_round_multi(None if t == -1 else int(t), domain, params, rng)
        got1 = {v for j, v in enumerate(domain) if vec.round1[i, j]}
        got2 = {v for j, v in enumerate(domain) if vec.round2[i, j]}
        assert got1 == resp.round1
        assert got2 == resp.round2
        assert vec.sampled[i] == resp.sampled


def test_multi_blocked_draw_matches_scalar_loop_across_blocks():
    # two whole owner blocks plus an odd remainder, an unsorted domain, every
    # domain value and -1 among the truths
    params = mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.4)
    domain = [5, 1, 8, 2]
    owners = 2 * mech._BLOCK_OWNERS + 77
    truths = np.resize([8, -1, 1, 5, 2, -1, 2], owners)
    rng = np.random.default_rng(41)
    rounds = mech.two_round_multi_population(truths, domain, params, rng)
    assert rounds.claims.shape == (2, owners, len(domain))
    ref_rng = np.random.default_rng(41)
    for i, t in enumerate(truths.tolist()):
        resp = reference.two_round_multi(None if t == -1 else t, domain, params, ref_rng)
        assert claimed(domain, rounds.round1[i]) == resp.round1
        assert claimed(domain, rounds.round2[i]) == resp.round2
        assert rounds.sampled[i] == resp.sampled
    # the blocks leave the generator where one (owners, 1 + K) block would
    single = np.random.default_rng(41)
    single.random((owners, 1 + len(domain)))
    assert rng.random() == single.random()


def test_multi_validation_spans_blocks_and_draws_nothing():
    params = mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.4)
    domain = np.array([5, 1, 8, 2])
    truths = np.resize([8, -1, 1, 5, 2], mech._BLOCK_OWNERS + 9)
    truths[-3] = 6  # between the domain members 5 and 8
    truths[-1] = -3  # negative but not -1
    rng = np.random.default_rng(43)
    state = rng.bit_generator.state
    for passed in (domain, domain.tolist()):
        with pytest.raises(InvalidTruthError) as err:
            mech.two_round_multi_population(truths, passed, params, rng)
        assert str(err.value) == "truths [-3, 6] are not in the queried domain"
    assert rng.bit_generator.state == state
    np.testing.assert_array_equal(domain, [5, 1, 8, 2])
    # a duplicate domain value, which only a direct call can pass, raises too
    with pytest.raises(ValueError, match="distinct"):
        mech.two_round_multi_population(truths[:5], [5, 1, 5], params, rng)
    assert rng.bit_generator.state == state


def test_multi_round_difference_counts_sampled_truths_exactly():
    params = mech.TwoRoundMultiParams(pi_s=0.1, pi_v=0.4)
    domain = [0, 1, 2, 3, 4]
    rng = np.random.default_rng(29)
    truths = rng.integers(-1, 5, size=5000)
    rounds = mech.two_round_multi_population(truths, domain, params, rng)
    diff = rounds.round1.sum(axis=0) - rounds.round2.sum(axis=0)
    for j, v in enumerate(domain):
        assert diff[j] == (rounds.sampled & (truths == v)).sum()


def test_multi_estimator_unbiased():
    params = mech.TwoRoundMultiParams(pi_s=0.25, pi_v=0.4)
    domain = [0, 1, 2]
    counts = {0: 50, 1: 200, 2: 0}
    truths = np.full(1000, -1)
    truths[:50] = 0
    truths[50:250] = 1
    rng = np.random.default_rng(31)
    sums = np.zeros(3)
    trials = 400
    for _ in range(trials):
        rounds = mech.two_round_multi_population(truths, domain, params, rng)
        diff = rounds.round1.sum(axis=0) - rounds.round2.sum(axis=0)
        sums += diff / params.pi_s
    for j, v in enumerate(domain):
        mean = sums[j] / trials
        limit = 4 * math.sqrt(max(counts[v], 1) * (1 - params.pi_s) / params.pi_s / trials)
        assert abs(mean - counts[v]) < limit + 0.5


def test_multi_epsilon_frozen_value():
    assert mech.two_round_epsilon_multi(
        mech.TwoRoundMultiParams(pi_s=0.1, pi_v=0.4)
    ) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)


def test_multi_epsilon_round_two_dominates_everywhere():
    for pi_s in np.linspace(0.02, 0.4, 12):
        for pi_v in np.linspace(0.05, 0.55, 12):
            if pi_v <= pi_s + 1e-9:
                continue
            params = mech.TwoRoundMultiParams(pi_s=float(pi_s), pi_v=float(pi_v))
            round1 = math.log((pi_v + pi_s) / pi_v)
            round2 = math.log(pi_v / (pi_v - pi_s))
            assert round2 >= round1
            assert mech.two_round_epsilon_multi(params) == pytest.approx(round2)


def test_multi_epsilon_undefined_when_sampling_dominates():
    with pytest.raises(UndefinedLeakageError):
        mech.two_round_epsilon_multi(mech.TwoRoundMultiParams(pi_s=0.4, pi_v=0.3))
    with pytest.raises(UndefinedLeakageError):
        mech.two_round_epsilon_multi(mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.3))


# -- calibrated ----------------------------------------------------------------


def test_calibrated_degenerate_counts_yes_exactly():
    params = mech.CalibratedParams(
        pi_s_yes_1=1.0, pi_s_yes_2=0.0, pi_s_no_1=0.0, pi_s_no_2=0.0
    )
    rng = np.random.default_rng(0)
    truths = np.array([1, 0, 1, 1, 0])
    rounds = mech.calibrated_population(truths, params, rng)
    assert rounds.round1.tolist() == [1, 0, 1, 1, 0]
    assert rounds.round2.tolist() == [0, 0, 0, 0, 0]
    est = mech.calibrated_estimate(rounds.round1.sum(), rounds.round2.sum(), params)
    assert est == pytest.approx(3.0)


def test_calibrated_population_matches_scalar_loop():
    params = mech.CalibratedParams(0.8, 0.3, 0.1, 0.1)
    truths = np.array([1, 0] * 50)
    vec = mech.calibrated_population(truths, params, np.random.default_rng(37))
    rng = np.random.default_rng(37)
    for i, t in enumerate(truths):
        resp = reference.calibrated_privatize(int(t), params, rng)
        assert resp.sampled is None
        assert (vec.round1[i], vec.round2[i]) == (resp.round1, resp.round2)


def test_calibrated_estimate_identity():
    params = mech.CalibratedParams(0.6, 0.1, 0.2, 0.2)
    assert mech.calibrated_estimate(150, 50, params) == pytest.approx(200.0)


def test_calibrated_estimator_unbiased():
    params = mech.CalibratedParams(0.7, 0.2, 0.15, 0.15)
    truths = np.zeros(2000, dtype=int)
    truths[:300] = 1
    rng = np.random.default_rng(41)
    ests = []
    for _ in range(300):
        rounds = mech.calibrated_population(truths, params, rng)
        ests.append(
            mech.calibrated_estimate(rounds.round1.sum(), rounds.round2.sum(), params)
        )
    se = np.std(ests) / math.sqrt(len(ests))
    assert abs(np.mean(ests) - 300) < 4 * se + 1e-9


def test_calibrated_validation():
    with pytest.raises(ValueError):
        mech.CalibratedParams(0.3, 0.3, 0.1, 0.1)  # no rate gap
    with pytest.raises(ValueError):
        mech.CalibratedParams(0.5, 0.2, 0.1, 0.2)  # No rates differ
    with pytest.raises(InvalidTruthError):
        mech.calibrated_population(
            np.array([5]), mech.CalibratedParams(0.5, 0.2, 0.1, 0.1), np.random.default_rng(0)
        )


# -- the shared two-round draw ----------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        mech.TwoRoundBinaryParams(0.45, 0.2, 0.35),
        mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.4),
        mech.CalibratedParams(0.5, 0.2, 0.1, 0.1),
    ],
    ids=lambda params: params.kind,
)
def test_two_round_claims_are_the_draw(params):
    value_ids = [1] if params.binary else [1, 2, 3]
    truths = np.random.default_rng(3).choice([0, 1] if params.binary else [-1, 1, 2, 3], 400)
    rng = np.random.default_rng(41)
    if params.kind == "two_round_multi":
        rounds = mech.two_round_multi_population(truths, value_ids, params, rng)
    elif params.kind == "two_round_binary":
        rounds = mech.two_round_binary_population(truths, params, rng)
    else:
        rounds = mech.calibrated_population(truths, params, rng)
    assert isinstance(rounds, mech.Rounds)
    claims = params.claims(truths, value_ids, np.random.default_rng(41))
    assert claims.dtype == bool and claims.shape == (2, 400, len(value_ids))
    np.testing.assert_array_equal(claims, rounds.claims[..., None] if params.binary else rounds.claims)
    np.testing.assert_array_equal(rounds.round1, rounds.claims[0])
    np.testing.assert_array_equal(rounds.round2, rounds.claims[1])
    assert (rounds.sampled is None) == (params.kind == "calibrated")


# -- grid discretization --------------------------------------------------------


def test_row_major_example():
    assert mech.row_major_index(2, 1, 3) == 7
    assert mech.row_major_index(0, 0, 3) == 0


def test_discretize_origin_and_interior_point():
    grid = mech.GridSpec(origin_lat=0.0, origin_lon=0.0, cell_miles=1.0, id_bits=4)
    assert grid.side == 4
    assert mech.discretize(0.0, 0.0, grid) == 0
    # 0.1 cell-widths east into the second cell of the first row
    lon = 1.1 / 69.0
    assert mech.discretize(0.0, lon, grid) == 1
    # one full row north
    lat = 1.5 / 69.0
    assert mech.discretize(lat, lon, grid) == 5


def test_discretize_out_of_grid():
    grid = mech.GridSpec(origin_lat=40.0, origin_lon=-75.0, cell_miles=0.5, id_bits=4)
    with pytest.raises(OutOfGridError):
        mech.discretize(39.9, -75.0, grid)
    with pytest.raises(OutOfGridError):
        mech.discretize(40.0, -75.1, grid)
    with pytest.raises(OutOfGridError):
        # beyond the northern extent: side * cell = 2 miles
        mech.discretize(40.0 + 2.1 / 69.0, -75.0, grid)
    # non-finite coordinates, and a finite one whose distance overflows
    for lat, lon in [(math.inf, -75.0), (1e308, -75.0), (math.nan, -75.0), (40.0, -math.inf)]:
        with pytest.raises(OutOfGridError):
            mech.discretize(lat, lon, grid)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        mech.GridSpec(0.0, 0.0, cell_miles=0.0, id_bits=4)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            mech.GridSpec(0.0, 0.0, cell_miles=bad, id_bits=4)
    for origin in ((math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            mech.GridSpec(*origin, cell_miles=1.0, id_bits=4)
    with pytest.raises(ValueError):
        mech.GridSpec(0.0, 0.0, cell_miles=1.0, id_bits=5)
    assert mech.GridSpec(0.0, 0.0, 1.0, 16).side == 256
