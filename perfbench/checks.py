"""Correctness checks computed apart from the code they check.

The epoch harness documents its randomness contract: every draw derives
from ``config.master_seed`` through four child streams of
``SeedSequence(master_seed).spawn(4)``, named privatize, slots, keys and
verify, in that order; owners are planned in index order, round by round,
one slot draw per claimed value or one for the null write of an empty
round. The functions here rebuild the claims and the write plan from that
contract with the public mechanism function, without calling the harness.
"""

from __future__ import annotations

import math

import numpy as np

from covercount import mechanisms as mech

# Per-check false-alarm probability of the bias bound. It is far below
# 1e-3 because a benchmark run makes dozens of bias checks and the
# benchmark is run hundreds of times; one false alarm would make the
# failed count depend on the seed.
BIAS_ALPHA = 1e-9


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def rederive_claims(population: np.ndarray, config) -> mech.BinaryRounds:
    """Both rounds' Yes claims of a two-round binary epoch."""
    privatize = np.random.SeedSequence(config.master_seed).spawn(4)[0]
    return mech.two_round_binary_population(
        population, config.mech, np.random.default_rng(privatize)
    )


def rederive_plan(claims: mech.BinaryRounds, config) -> list[tuple[int, int, int, int | None]]:
    """Every planned write as ``(owner, round, slot, value_id)``; the value
    is None for a null write. Binary mechanisms claim at most one value per
    round, so each owner makes exactly one write per round."""
    slots = np.random.default_rng(np.random.SeedSequence(config.master_seed).spawn(4)[1])
    plan = []
    for owner, per_round in enumerate(zip(claims.round1.tolist(), claims.round2.tolist())):
        for round_index, claimed in enumerate(per_round):
            slot = int(slots.integers(0, config.db_slots))
            plan.append((owner, round_index, slot, 1 if claimed else None))
    return plan


def cancellation_ok(claimed: int, counted: int) -> bool:
    """Identical Yes writes cancel in pairs, so the Yes writes that landed
    minus the Yes values counted is a non-negative even number."""
    lost = claimed - counted
    return lost >= 0 and lost % 2 == 0


def bias_half_width(true_count: int, pi_s: float, trials: int, alpha: float = BIAS_ALPHA) -> float:
    """Half-width of the interval that a correct two-round estimator's mean
    over ``trials`` trials leaves with probability below ``alpha``.

    A correct round difference counts the sampled truthful owners, so the
    trials' total is Binomial(trials * g, pi_s) and one trial's estimate has
    the closed-form variance g * (1 - pi_s) / pi_s. Bernstein's inequality
    for a sum of [0, 1] variables with variance v gives
    P(|S - E S| >= t) <= 2 exp(-t^2 / (2 (v + t / 3))); solving for t at
    probability ``alpha`` and rescaling by trials * pi_s gives the bound on
    the mean estimate.
    """
    log_term = math.log(2.0 / alpha)
    variance = trials * true_count * pi_s * (1.0 - pi_s)
    t = log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * variance * log_term)
    return t / (trials * pi_s)


def unbiased(mean_estimate: float, true_count: int, pi_s: float, trials: int) -> bool:
    return abs(mean_estimate - true_count) <= bias_half_width(true_count, pi_s, trials)
