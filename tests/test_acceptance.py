"""Acceptance gate: nine checks, one test each, run with ``pytest -v``.

1. Compressed write shares reconstruct the write image exactly, across
   party counts and database sizes.
2. The row-at-a-time evaluator matches the per-slot naive evaluator.
3. The row-at-a-time evaluator is at least 5x faster than naive full-domain
   evaluation at 3 parties and 2^16 slots (median of 5 runs).
4. A serialized key stays under 15,360 bytes at (p=3, n=17, m=1) and key
   size roughly doubles when the database grows 4x (square-root scaling).
5. The two-round mechanism's counting error stays flat as the population
   grows 100x, while plain randomized response degrades at least 5x; the
   crypto and crypto-free epoch pipelines agree on the estimates.
6. Leakage closed forms hit their exact values to 1e-12.
7. Write-shape verification accepts every legal vector, rejects overwhelming
   fractions of illegal ones, and matches brute force exactly in the small
   mirror field.
8. A full-crypto epoch at 10^4 owners matches the crypto-free pipeline, a
   two-row writer is excluded and flagged, below-threshold epochs halt.
9. The simulate command is byte-reproducible under a fixed seed.

Tolerances are pinned in the asserts; timed checks use medians.
"""

import itertools
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from covercount import cli
from covercount import harness as h
from covercount import mechanisms as mech
from covercount import verify
from covercount.field import MODULUS
from covercount.privwrite import (
    FssParams,
    PointFunction,
    fss_eval_naive,
    fss_evaluate_share,
    fss_gen,
    key_serialize,
    key_size_bytes,
    unit_write,
)


def xor_all(shares):
    acc = shares[0]
    for s in shares[1:]:
        acc = acc ^ s
    return acc


@pytest.fixture(scope="module")
def epoch_pair():
    """One 10^4-owner epoch, run through both pipelines on the same streams."""
    config = h.EpochConfig(
        parties=3,
        k_threshold=2,
        fss=FssParams(n=12, parties=3, m=17, mu=4096, nu=1),
        mech=mech.TwoRoundBinaryParams(0.45, 0.02, 0.53),
        id_bits=1,
        master_seed=71,
    )
    population = h.generate_population(
        {"total": 10000, "yes": 100}, np.random.default_rng(8)
    )
    free = h.run_epoch(population, config, crypto=False)
    full = h.run_epoch(population, config, crypto=True)
    return config, population, free, full


def test_01_write_shares_reconstruct_exactly():
    rng = np.random.default_rng(10)
    widths = itertools.cycle((1, 8, 17, 24))
    checked = 0
    start = time.perf_counter()
    for parties in (2, 3, 4, 5):
        for n in range(2, 13):
            m = next(widths)
            params = FssParams(n=n, parties=parties, m=m)
            for _ in range(5):
                slot = int(rng.integers(0, params.domain_size))
                message = int(rng.integers(0, 1 << m))
                keys = fss_gen(PointFunction(a=slot, b=message), params, rng)
                combined = xor_all([fss_evaluate_share(k) for k in keys])
                assert combined == unit_write(slot, message, params.domain_size, m)
                checked += 1
    assert checked >= 200
    assert time.perf_counter() - start < 120


def test_02_fast_evaluation_matches_naive():
    rng = np.random.default_rng(11)
    cases = [(n, p) for n, p in zip(range(2, 13), itertools.cycle((2, 3, 4, 5)))]
    cases.append((8, 3))  # single wide row, the fast epoch configuration
    for index, (n, p) in enumerate(cases):
        mu = (1 << n) if index == len(cases) - 1 else None
        params = FssParams(n=n, parties=p, m=17, mu=mu)
        pf = PointFunction(
            a=int(rng.integers(0, params.domain_size)),
            b=int(rng.integers(0, 1 << 17)),
        )
        for key in fss_gen(pf, params, rng):
            values = fss_evaluate_share(key).split_fields(params.m)
            for x in range(params.domain_size):
                assert fss_eval_naive(key, x) == values[x]


def test_03_fast_evaluation_speedup():
    rng = np.random.default_rng(12)
    params = FssParams(n=16, parties=3, m=1)
    key = fss_gen(PointFunction(a=40961, b=1), params, rng)[0]

    def naive_full():
        for x in range(params.domain_size):
            fss_eval_naive(key, x)

    fss_evaluate_share(key)
    fast_times = []
    for _ in range(5):
        start = time.perf_counter()
        fss_evaluate_share(key)
        fast_times.append(time.perf_counter() - start)
    naive_full()
    naive_times = []
    for _ in range(5):
        start = time.perf_counter()
        naive_full()
        naive_times.append(time.perf_counter() - start)
    speedup = statistics.median(naive_times) / statistics.median(fast_times)
    assert speedup >= 5.0


def test_04_key_size_budget_and_scaling():
    rng = np.random.default_rng(13)
    params = FssParams(n=17, parties=3, m=1)
    key = fss_gen(PointFunction(a=9, b=1), params, rng)[0]
    size = len(key_serialize(key))
    assert size == key_size_bytes(params)
    assert size < 15360
    grown = key_size_bytes(FssParams(n=19, parties=3, m=1))
    assert 1.7 <= grown / size <= 2.3


def test_05_constant_error_versus_population(epoch_pair):
    rng = np.random.default_rng(14)
    totals = (10**4, 10**5, 10**6)
    trials = 30
    yes = 100
    two_round = mech.TwoRoundBinaryParams(0.45, 0.275, 0.275)
    baseline = mech.RrParams(0.8, 0.2)

    two_round_mae = {}
    baseline_mae = {}
    for total in totals:
        truths = np.zeros(total, dtype=np.int64)
        truths[:yes] = 1
        errors_tr = []
        errors_rr = []
        for _ in range(trials):
            rounds = mech.two_round_binary_population(truths, two_round, rng)
            estimate = mech.two_round_estimate(
                int(rounds.round1.sum()), int(rounds.round2.sum()), two_round.pi_s
            )
            errors_tr.append(abs(estimate - yes))
            answers = mech.rr_privatize_population(truths, baseline, rng)
            errors_rr.append(
                abs(mech.rr_estimate(int(answers.sum()), total, baseline) - yes)
            )
        two_round_mae[total] = float(np.mean(errors_tr))
        baseline_mae[total] = float(np.mean(errors_rr))

    flattest = min(two_round_mae.values())
    widest = max(two_round_mae.values())
    assert widest / flattest < 2.0
    assert widest <= 22.0
    assert baseline_mae[10**6] >= 5.0 * baseline_mae[10**4]

    _, _, free, full = epoch_pair
    assert full.estimates == free.estimates


def test_06_leakage_closed_forms():
    import math

    assert mech.rr_epsilon(mech.RrParams(0.8, 0.2)) == pytest.approx(
        math.log(21.0), abs=1e-12
    )
    assert mech.two_round_epsilon_binary(
        mech.TwoRoundBinaryParams(0.45, 0.2, 0.35)
    ) == pytest.approx(math.log(3.25), abs=1e-12)


def _pipeline_verdict(u_hat, matrices, kind, modulus, rng):
    """Production scalar path end to end: share, blind, aggregate, check."""
    shares = verify.additive_share(list(u_hat), len(matrices.entries), rng, modulus)
    blinded = [verify.blind(matrices, s, modulus) for s in shares]
    aggregate = verify.aggregate(blinded, modulus)
    return verify.CHECKS[kind](aggregate, modulus)


def _brute_verdict(u_hat, matrix_rows, kind, modulus):
    """Independent predicate on the dot products, written from scratch."""
    s = [sum(r * u for r, u in zip(row, u_hat)) % modulus for row in matrix_rows]
    if kind == "square":
        return all(pow(s[0], j + 1, modulus) == s[j] for j in range(len(s)))
    prod = 1
    for value in s[:-1]:
        prod = prod * value % modulus
    if kind == "product":
        return prod == s[-1]
    return prod * s[-1] % modulus == 1


def test_07_verification_completeness_and_soundness():
    rng = np.random.default_rng(15)
    parties, columns = 3, 64

    for kind in verify.KINDS:
        indicators = np.zeros((1000, columns), np.uint64)
        indicators[np.arange(1000), rng.integers(0, columns, 1000)] = 1
        shares = verify.additive_share_batch(indicators, parties, rng)
        matrices = verify.make_blinding_batch(kind, columns, parties, 1000, rng)
        blinded = [verify.blind_batch(matrices, shares[i]) for i in range(parties)]
        verdicts = verify.check_batch(verify.aggregate_batch(blinded), kind)
        assert int(verdicts.sum()) == 1000

        bad = rng.integers(1, MODULUS, size=(1000, columns), dtype=np.uint64)
        shares = verify.additive_share_batch(bad, parties, rng)
        matrices = verify.make_blinding_batch(kind, columns, parties, 1000, rng)
        blinded = [verify.blind_batch(matrices, shares[i]) for i in range(parties)]
        verdicts = verify.check_batch(verify.aggregate_batch(blinded), kind)
        assert int(verdicts.sum()) <= 1

    # mirror field: exhaustive truth table for the square kind at p=2,
    # every vector against every matrix
    z = 17
    mirror_rng = np.random.default_rng(16)
    vectors = [(a, b) for a in range(z) for b in range(z)]
    for base0, base1 in itertools.product(range(1, z), repeat=2):
        rows = [(base0, base1), (base0 * base0 % z, base1 * base1 % z)]
        matrices = verify.BlindingMatrix("square", tuple(rows))
        for u_hat in vectors:
            produced = _pipeline_verdict(u_hat, matrices, "square", z, mirror_rng)
            assert produced == _brute_verdict(u_hat, rows, "square", z)
        assert not _pipeline_verdict((2, 0), matrices, "square", z, mirror_rng)
    # sampled matrices for the three-party kinds, still every vector
    for kind in ("product", "inverse"):
        for _ in range(60):
            matrices = verify.make_blinding(kind, 2, 3, mirror_rng, z)
            for u_hat in vectors:
                produced = _pipeline_verdict(u_hat, matrices, kind, z, mirror_rng)
                assert produced == _brute_verdict(u_hat, matrices.entries, kind, z)
    # zero-vector policy per kind
    square = verify.make_blinding("square", 2, 2, mirror_rng, z)
    product = verify.make_blinding("product", 2, 3, mirror_rng, z)
    inverse = verify.make_blinding("inverse", 2, 3, mirror_rng, z)
    assert _pipeline_verdict((0, 0), square, "square", z, mirror_rng)
    assert _pipeline_verdict((0, 0), product, "product", z, mirror_rng)
    assert not _pipeline_verdict((0, 0), inverse, "inverse", z, mirror_rng)


def test_08_end_to_end_pipeline_integrity(epoch_pair):
    config, population, free, full = epoch_pair
    assert not full.halted and not free.halted
    assert full.estimates == free.estimates
    assert full.counts == free.counts
    assert full.databases == free.databases
    assert full.diagnostics.collision_drops == free.diagnostics.collision_drops
    assert full.diagnostics.participants == 10000

    small = h.EpochConfig(
        parties=3,
        k_threshold=2,
        fss=FssParams(n=10, parties=3, m=17, mu=1024, nu=1),
        mech=config.mech,
        id_bits=1,
        master_seed=72,
    )
    crowd = h.generate_population({"total": 300, "yes": 30}, np.random.default_rng(9))
    honest = h.run_epoch(crowd, small, crypto=True)
    attacked = h.run_epoch(crowd, small, crypto=True, attackers=[17])
    assert attacked.diagnostics.rejected_owner_ids == (17,)
    assert attacked.diagnostics.accepted == 299
    # excluded: the databases differ from the honest run by exactly the
    # rejected owner's write images
    streams = h._streams(small.master_seed)
    claims = small.mech.claims(crowd, small.value_ids, streams["privatize"])
    writes = h.plan_writes(claims, small, streams["slots"])
    expected = [0, 0]
    for w in writes:
        if w.owner_id == 17 and w.value_id is not None:
            shift = (small.db_slots - 1 - w.slot) * small.message_bits
            expected[w.round_index] ^= h.encode_message(w.value_id, small) << shift
    for r in range(2):
        assert honest.databases[r].value ^ attacked.databases[r].value == expected[r]

    sparse = h.run_epoch(np.array([1, 0]), h.EpochConfig(
        parties=3,
        k_threshold=3,
        fss=small.fss,
        mech=config.mech,
        id_bits=1,
        master_seed=73,
    ), crypto=True)
    assert sparse.halted
    assert sparse.released() is None


def test_09_cli_byte_reproducibility(tmp_path):
    config = str(Path(__file__).parent.parent / "configs" / "constant_error_binary.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", config, "--trials", "5", "--seed", "77"]
    assert cli.main([*args, "--out-dir", str(out1)]) == 0
    assert cli.main([*args, "--out-dir", str(out2)]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert json.loads((out1 / "summary.json").read_text())["config"]["seed"] == 77
