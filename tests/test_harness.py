"""End-to-end epoch tests.

The load-bearing oracles: (a) the crypto pipeline must reproduce the
crypto-free pipeline bit for bit, because both consume the same privatize and
slot streams; (b) on a collision-free run the round-difference of the counted
IDs must equal the number of sampled truthful owners, recomputed directly
from the mechanism with a re-derived stream; (c) excluding a rejected owner
must change the databases by exactly that owner's write images and nothing
else. Seeds marked collision-free were picked so that no two real writes of
the run share a slot.
"""

import hashlib
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from covercount import cli
from covercount import harness as h
from covercount import mechanisms as mech
from covercount import verify
from covercount.errors import (
    ConfigError,
    InvalidTruthError,
    PopulationSpecError,
)
from covercount.field import MODULUS, BitString, m61_add, m61_mul, m61_sub, m61_sum
from covercount.privwrite import (
    FssKey,
    FssParams,
    default_mu,
    default_nu,
    fss_evaluate_batch,
    key_serialize,
    key_size_bytes,
    unit_write,
)

import reference

CONFIGS = Path(__file__).parent.parent / "configs"


def binary_config(**overrides):
    base = dict(
        parties=3,
        k_threshold=2,
        n=8,
        mech=mech.TwoRoundBinaryParams(0.45, 0.02, 0.53),
        id_bits=1,
        master_seed=11,
    )
    base.update(overrides)
    return h.EpochConfig(**base)


def derived_stream(master_seed, index):
    """The named child streams of an epoch, re-derived independently.

    Freezes the determinism contract: privatize, slots, keys, verify and
    challenge are the five children of the master seed, in that order.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed).spawn(5)[index])


# -- Message encoding ----------------------------------------------------------


@given(
    value_id=st.integers(0, 2**20),
    epoch_id=st.integers(0, 2**64 - 1),
    bits=st.integers(1, 32),
)
def test_checksum_is_truncated(value_id, epoch_id, bits):
    c = h.checksum(value_id, epoch_id, bits)
    assert 0 <= c < (1 << bits)
    assert c == h.checksum(value_id, epoch_id, 32) & ((1 << bits) - 1)


def test_checksum_depends_on_epoch():
    sums = {h.checksum(1, e, 16) for e in range(64)}
    assert len(sums) > 32


def test_encode_message_layout():
    config = binary_config(epoch_id=5)
    msg = h.encode_message(1, config)
    assert msg >> config.checksum_bits == 1
    assert msg & 0xFFFF == h.checksum(1, 5, 16)
    with pytest.raises(ValueError):
        h.encode_message(2, config)  # id_bits is 1


def test_count_values_accepts_valid_and_drops_garbage():
    config = binary_config(epoch_id=9)
    ok = h.encode_message(1, config)
    bad = ok ^ 1  # flip one checksum bit
    slots = [0, ok, 0, bad, ok, 0]
    counts, drops = h.count_values(slots, {1: ok})
    assert counts == {1: 2}
    assert drops == 1


def test_count_values_empty_database():
    assert h.count_values([0] * 32, {1: h.encode_message(1, binary_config())}) == ({}, 0)


def test_count_values_collision_of_distinct_messages_is_dropped():
    config = binary_config(id_bits=3, n=8)
    a = h.encode_message(3, config)
    b = h.encode_message(5, config)
    counts, drops = h.count_values([a ^ b, a, b], {3: a, 5: b})
    assert counts == {3: 1, 5: 1}
    assert drops == 1


def test_odd_collision_onto_a_domain_id_is_a_drop():
    # a CRC would read the garbage of 1, 2 and 4 as a write of 7
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5), id_bits=3, domain=(1, 2, 4, 7)
    )
    messages = dict(zip(config.value_ids, config.messages))
    garbage = messages[1] ^ messages[2] ^ messages[4]
    assert h.count_values([garbage], messages) == ({}, 1)


@given(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=0, max_size=40))
@settings(max_examples=50)
def test_count_values_matches_multiset_without_collisions(ids):
    # one write per slot: counting is exactly the multiset of encoded IDs
    config = binary_config(id_bits=2, n=8)
    slots = [h.encode_message(i, config) for i in ids]
    counts, drops = h.count_values(slots, {i: h.encode_message(i, config) for i in range(4)})
    assert drops == 0
    expected = {}
    for i in ids:
        if h.encode_message(i, config):
            expected[i] = expected.get(i, 0) + 1
    assert counts == expected


# -- Populations ---------------------------------------------------------------


def test_population_yes_shape():
    pop = h.generate_population({"total": 100, "yes": 100}, np.random.default_rng(0))
    assert pop.shape == (100,)
    assert (pop == 1).all()


def test_population_yes_count_and_shuffle():
    pop = h.generate_population({"total": 10000, "yes": 354}, np.random.default_rng(1))
    assert int(pop.sum()) == 354
    assert not (pop[:354] == 1).all()  # order carries no information


def test_population_groups_shape():
    spec = {"total": 303, "groups": {1: 200, 2: 60, 3: 43}}
    pop = h.generate_population(spec, np.random.default_rng(2))
    values, counts = np.unique(pop, return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == {1: 200, 2: 60, 3: 43}


def test_population_groups_remainder_is_absent():
    pop = h.generate_population({"total": 10, "groups": {1: 3}}, np.random.default_rng(0))
    assert int((pop == 1).sum()) == 3
    assert int((pop == -1).sum()) == 7


@pytest.mark.parametrize(
    "spec",
    [
        {"yes": 3},
        {"total": 0, "yes": 0},
        {"total": 10, "yes": 11},
        {"total": 10, "yes": 5, "groups": {1: 2}},
        {"total": 10},
        {"total": 10, "groups": {1: 7, 2: 7}},
        {"total": 10, "groups": {-1: 2}},
        {"total": 10, "groups": {1: -2}},
        {"total": 10, "yes": 5, "extra": 1},
        {"total": 10, "groups": {"1": 2, "01": 3}},
        {"total": 10.7, "yes": 3},
        {"total": 10, "yes": True},
        {"total": 10, "groups": [1, 2]},
        {"total": 10, "groups": {"x": 2}},
    ],
)
def test_population_rejects_bad_specs(spec):
    with pytest.raises(PopulationSpecError):
        h.generate_population(spec, np.random.default_rng(0))
    # the CLI applies the same rules
    raw = json.loads((CONFIGS / "epoch_cryptofree.json").read_text())
    raw["population"] = spec
    with pytest.raises(ConfigError):
        cli.parse_experiment(raw)


# -- Config validation ---------------------------------------------------------


def test_config_rejects_low_threshold():
    with pytest.raises(ConfigError):
        binary_config(k_threshold=1)


def test_config_domain_rules():
    multi = mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5)
    with pytest.raises(ConfigError):
        binary_config(mech=multi, id_bits=3)  # missing domain
    with pytest.raises(ConfigError):
        binary_config(mech=multi, id_bits=3, domain=(1, 1, 2))
    with pytest.raises(ConfigError):
        binary_config(mech=multi, id_bits=3, domain=(1, 8))  # 8 needs 4 bits
    with pytest.raises(ConfigError):
        binary_config(domain=(1,))  # binary mechanism takes no domain
    # ID 0's message is its checksum alone, which is 0 at this epoch, so its
    # writes would read as empty slots
    assert h.checksum(0, 43447, 16) == 0
    with pytest.raises(ConfigError, match="domain value 0 .*epoch_id 43447"):
        binary_config(mech=multi, id_bits=2, domain=(0, 1), epoch_id=43447)
    assert binary_config(mech=multi, id_bits=2, domain=(0, 1), epoch_id=43446).messages[0]
    cfg = binary_config(mech=multi, id_bits=3, domain=(1, 5, 2))
    assert cfg.value_ids == (1, 5, 2)


def test_config_checksum_and_epoch_ranges():
    with pytest.raises(ConfigError):
        binary_config(checksum_bits=0)
    with pytest.raises(ConfigError):
        binary_config(checksum_bits=33)
    with pytest.raises(ConfigError):
        binary_config(epoch_id=-1)
    with pytest.raises(ConfigError):
        binary_config(epoch_id=1 << 64)
    # a slot message is one uint64
    assert binary_config(id_bits=32, checksum_bits=32).message_bits == 64
    with pytest.raises(ConfigError, match="at most 64"):
        binary_config(id_bits=33, checksum_bits=32)


def test_config_holds_its_message_table():
    multi = mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5)
    config = binary_config(mech=multi, id_bits=3, domain=(1, 5, 2))
    assert config.messages.dtype == np.uint64
    # one message per value index, then the null write's 0
    assert config.messages.tolist() == [h.encode_message(v, config) for v in (1, 5, 2)] + [0]
    with pytest.raises(ValueError):
        config.messages[0] = 0
    assert replace(config, master_seed=3).messages.tolist() == config.messages.tolist()


def test_config_derives_its_key_geometry():
    config = binary_config(n=8, parties=3, id_bits=3)
    assert (config.fss.n, config.fss.parties, config.fss.m) == (8, 3, 19)
    assert config.mu is None
    assert (config.fss.mu, config.fss.nu) == (default_mu(8, 3), default_nu(8, default_mu(8, 3)))
    assert (config.fss.mu, config.fss.nu) == (32, 8)
    reseeded = replace(config, master_seed=99)
    assert reseeded.master_seed == 99
    assert reseeded.fss == config.fss == FssParams(n=8, parties=3, m=19)
    narrow = replace(config, mu=5)
    assert (narrow.fss.mu, narrow.fss.nu) == (5, 52)  # ceil(256 / 5)


def test_config_round_count_follows_mechanism():
    assert binary_config().rounds == 2
    single = binary_config(mech=mech.RrParams(0.8, 0.2))
    assert single.rounds == 1


# -- Crypto-free epochs --------------------------------------------------------


def test_conservation_on_a_collision_free_run():
    # seed chosen so no two real writes share a slot (drops stay 0 and no
    # same-message pair silently cancels)
    config = binary_config(n=12, master_seed=5)
    pop = h.generate_population({"total": 60, "yes": 9}, np.random.default_rng(0))
    result = h.run_epoch(pop, config, crypto=False)
    assert result.diagnostics.collision_drops == (0, 0)

    rounds = mech.two_round_binary_population(
        pop, config.mech, derived_stream(config.master_seed, 0)
    )
    assert result.counts[0].get(1, 0) == int(rounds.round1.sum())
    assert result.counts[1].get(1, 0) == int(rounds.round2.sum())


def test_round_difference_recovers_sampled_truthful_count():
    config = binary_config(n=12, master_seed=5)
    pop = h.generate_population({"total": 60, "yes": 9}, np.random.default_rng(0))
    result = h.run_epoch(pop, config, crypto=False)
    assert result.diagnostics.collision_drops == (0, 0)

    rounds = mech.two_round_binary_population(
        pop, config.mech, derived_stream(config.master_seed, 0)
    )
    sampled_yes = int((rounds.sampled & (pop == 1)).sum())
    diff = result.counts[0].get(1, 0) - result.counts[1].get(1, 0)
    assert diff == sampled_yes
    assert result.estimates[1] == pytest.approx(sampled_yes / config.mech.pi_s)


def test_multi_value_epoch_cancellation():
    config = h.EpochConfig(
        parties=2,
        k_threshold=2,
        n=12,
        mech=mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.5),
        id_bits=3,
        domain=(1, 2, 5),
        master_seed=21,
    )
    pop = h.generate_population(
        {"total": 30, "groups": {1: 10, 2: 5, 5: 3}}, np.random.default_rng(1)
    )
    result = h.run_epoch(pop, config, crypto=False)
    assert result.diagnostics.collision_drops == (0, 0)

    rounds = mech.two_round_multi_population(
        pop, [1, 2, 5], config.mech, derived_stream(config.master_seed, 0)
    )
    for j, value in enumerate((1, 2, 5)):
        withdrawn = int((rounds.round1[:, j] & ~rounds.round2[:, j]).sum())
        diff = result.counts[0].get(value, 0) - result.counts[1].get(value, 0)
        assert diff == withdrawn
        assert result.estimates[value] == pytest.approx(withdrawn / config.mech.pi_s)


def test_calibrated_epoch_estimate_consistency():
    params = mech.CalibratedParams(0.8, 0.3, 0.2, 0.2)
    config = binary_config(mech=params, master_seed=17)
    pop = h.generate_population({"total": 50, "yes": 20}, np.random.default_rng(4))
    result = h.run_epoch(pop, config, crypto=False)
    c1 = result.counts[0].get(1, 0)
    c2 = result.counts[1].get(1, 0)
    assert result.estimates[1] == pytest.approx((c1 - c2) / 0.5)


def test_rr_epoch_single_round():
    config = binary_config(
        mech=mech.RrParams(0.8, 0.2),
        n=12,
        master_seed=9,
    )
    pop = h.generate_population({"total": 80, "yes": 20}, np.random.default_rng(2))
    result = h.run_epoch(pop, config, crypto=False)
    assert len(result.counts) == 1
    assert result.diagnostics.writes_per_round == (80,)
    answers = mech.rr_privatize_population(
        pop, config.mech, derived_stream(config.master_seed, 0)
    )
    # collision-free seed: every answered 1 lands in its own slot
    assert result.counts[0].get(1, 0) == int(answers.sum())


def test_abstentions_still_produce_traffic():
    # nobody ever claims: all-No truths and a die that never rolls chaff-Yes
    config = binary_config(mech=mech.TwoRoundBinaryParams(0.45, 0.0, 0.55))
    pop = h.generate_population({"total": 40, "yes": 0}, np.random.default_rng(0))
    result = h.run_epoch(pop, config, crypto=False)
    assert result.diagnostics.writes_per_round == (40, 40)
    assert result.counts == ({}, {})
    assert result.estimates[1] == 0.0
    assert all(db.value == 0 for db in result.databases)


def test_writes_per_round_counts_every_owner_each_round():
    config = binary_config(master_seed=23)
    pop = h.generate_population({"total": 600, "yes": 60}, np.random.default_rng(5))
    result = h.run_epoch(pop, config, crypto=False)
    assert result.diagnostics.writes_per_round == (600, 600)
    assert result.diagnostics.participants == 600


# -- Determinism ---------------------------------------------------------------


def test_epoch_is_reproducible_byte_for_byte():
    config = binary_config(master_seed=31)
    pop = h.generate_population({"total": 80, "yes": 12}, np.random.default_rng(7))
    a = h.run_epoch(pop, config, crypto=False).to_json_bytes()
    b = h.run_epoch(pop, config, crypto=False).to_json_bytes()
    assert a == b
    other = binary_config(master_seed=32)
    c = h.run_epoch(pop, other, crypto=False).to_json_bytes()
    assert a != c


def test_result_json_is_canonical():
    config = binary_config()
    pop = h.generate_population({"total": 20, "yes": 5}, np.random.default_rng(0))
    payload = json.loads(h.run_epoch(pop, config, crypto=False).to_json_bytes())
    assert set(payload) == {
        "epoch_id",
        "halted",
        "released",
        "databases_sha256",
        "diagnostics",
    }
    assert payload["released"]["participation"] == ">=2"


def test_wide_row_crypto_epoch_digest():
    # a crypto-wide-shaped epoch (one 4,096-slot row) whose last 256-owner
    # chunk holds 90 writes, not a multiple of the verifier's row block
    config = binary_config(
        n=12, mu=4096,
        mech=mech.TwoRoundBinaryParams(0.45, 0.05, 0.5),
        master_seed=29,
    )
    pop = h.generate_population({"total": 301, "yes": 24}, np.random.default_rng(17))
    result = h.run_epoch(pop, config, crypto=True, attackers=[5, 140, 300])
    assert result.diagnostics.rejected_owner_ids == (5, 140, 300)
    digest = hashlib.sha256(result.to_json_bytes()).hexdigest()
    assert digest == "242db40340281749f6237e8e51aec2c8ead2873db9af44da30cb77026d3b6b41"


def test_crypto_and_crypto_free_agree_exactly():
    # 600 owners: three 256-owner crypto chunks against one crypto-free chunk
    pop = h.generate_population({"total": 600, "yes": 90}, np.random.default_rng(0))
    # the default geometry, and 17-bit messages in 1,700-bit (212.5-byte)
    # rows whose 11 rows cover 1,100 of 1,024 slots
    for config in (binary_config(master_seed=11), binary_config(n=10, mu=100)):
        free = h.run_epoch(pop, config, crypto=False)
        full = h.run_epoch(pop, config, crypto=True)
        assert full.databases == free.databases
        assert full.counts == free.counts
        assert full.estimates == free.estimates
        assert full.to_json_bytes() == free.to_json_bytes()


def test_colliding_writes_agree_across_modes():
    # about 115 real writes per epoch into 16 slots: slots taking distinct
    # messages and slots taking one message twice, in both rounds
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5),
        id_bits=2,
        n=4,
        domain=(3, 1, 2),
        master_seed=2,
    )
    pop = h.generate_population(
        {"total": 40, "groups": {"1": 10, "2": 10, "3": 10}}, np.random.default_rng(1)
    )
    claims = config.mech.claims(pop, config.value_ids, derived_stream(2, 0))
    plan = h.plan_writes(claims, config, derived_stream(2, 1))
    real = plan.value < len(config.value_ids)
    columns = (plan.round_index, plan.slot, plan.value)
    same = Counter(zip(*(c[real].tolist() for c in columns)))
    distinct = Counter((r, slot) for r, slot, _ in same)
    for r in range(config.rounds):
        assert any(n >= 2 for (rr, _, _), n in same.items() if rr == r)
        assert any(n >= 2 for (rr, _), n in distinct.items() if rr == r)

    free = h.run_epoch(pop, config, crypto=False)
    full = h.run_epoch(pop, config, crypto=True)
    assert full.databases == free.databases
    assert full.counts == free.counts
    assert full.diagnostics.collision_drops == free.diagnostics.collision_drops
    assert all(d > 0 for d in free.diagnostics.collision_drops)


@pytest.mark.parametrize("master_seed", [1, 2])
def test_colliding_writes_count_only_domain_ids(master_seed):
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5),
        id_bits=2,
        n=4,
        domain=(3, 1, 2),
        master_seed=master_seed,
    )
    pop = h.generate_population(
        {"total": 40, "groups": {"1": 10, "2": 10, "3": 10}}, np.random.default_rng(1)
    )
    result = h.run_epoch(pop, config, crypto=False)
    for counts in result.counts:
        assert set(counts) <= set(config.domain), counts


def test_ids_wider_than_32_bits_count_in_both_modes():
    # 40-bit IDs with 16 checksum bits: 56-bit slot messages
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.1),
        id_bits=40,
        n=8,
        domain=(1, 2**35),
    )
    pop = h.generate_population(
        {"total": 40, "groups": {"1": 15, str(2**35): 15}}, np.random.default_rng(2)
    )
    free = h.run_epoch(pop, config, crypto=False)
    full = h.run_epoch(pop, config, crypto=True)
    assert full.to_json_bytes() == free.to_json_bytes()
    for counts in free.counts:
        assert set(counts) == {1, 2**35}


def test_64_bit_messages_agree_across_modes():
    # 48-bit IDs with 16 checksum bits fill a uint64 slot, the widest message
    # a key carries; the top ID sets the message's top bit
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.3, pi_v=0.1),
        id_bits=48,
        n=8,
        domain=(1, 2**40 + 3, 2**48 - 1),
    )
    assert config.message_bits == config.fss.m == 64
    assert int(config.messages[2]) >> 63
    pop = h.generate_population(
        {"total": 60, "groups": {"1": 20, str(2**40 + 3): 20, str(2**48 - 1): 20}},
        np.random.default_rng(3),
    )
    free = h.run_epoch(pop, config, crypto=False)
    full = h.run_epoch(pop, config, crypto=True)
    assert full.databases == free.databases
    assert full.counts == free.counts
    assert full.to_json_bytes() == free.to_json_bytes()
    for counts in free.counts:
        assert set(counts) == set(config.domain)


def test_slot_choices_are_uniform():
    config = binary_config(n=6, master_seed=41)
    claims = np.ones((2, 5000, 1), dtype=bool)
    writes = list(h.plan_writes(claims, config, derived_stream(41, 1)))
    observed = np.bincount([w.slot for w in writes], minlength=64)
    assert stats.chisquare(observed).pvalue > 0.01


def test_write_plan_matches_the_per_write_loop():
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.5),
        id_bits=3,
        n=8,
        domain=(4, 1, 6),
    )
    claims = np.random.default_rng(3).random((2, 50, 3)) < 0.3
    # reference: owners, then rounds, then claimed values in domain order or
    # one null write, each with its own scalar slot draw
    rng = derived_stream(8, 1)
    expected = []
    for owner in range(50):
        for r in range(2):
            values = [v for j, v in enumerate(config.domain) if claims[r, owner, j]]
            for value in values or [None]:
                slot = int(rng.integers(0, config.db_slots))
                expected.append(h.PlannedWrite(owner, r, slot, value))
    assert any(w.value_id is None for w in expected)
    plan = h.plan_writes(claims, config, derived_stream(8, 1))
    assert len(plan) == len(expected)
    assert list(plan) == expected
    assert list(plan[10:40]) == expected[10:40]


PLANNED_MECHANISMS = {
    "rr": (mech.RrParams(0.8, 0.2), None),
    "binary": (mech.TwoRoundBinaryParams(0.45, 0.02, 0.53), None),
    "calibrated": (mech.CalibratedParams(0.8, 0.3, 0.2, 0.2), None),
    "multi": (mech.TwoRoundMultiParams(pi_s=0.2, pi_v=0.2), tuple(range(1, 9))),
}


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("owners", [1, 300])
@pytest.mark.parametrize("kind", sorted(PLANNED_MECHANISMS))
def test_write_plan_matches_the_nonzero_reference(kind, owners, n):
    params, domain = PLANNED_MECHANISMS[kind]
    config = binary_config(mech=params, n=n, id_bits=4 if domain else 1, domain=domain)
    truths = np.random.default_rng(owners).integers(0, 2, owners)
    if domain:
        truths = np.where(truths == 1, np.arange(owners) % 8 + 1, -1)
    claims = params.claims(truths, config.value_ids, derived_stream(7, 0))
    rng, reference_rng = derived_stream(7, 1), derived_stream(7, 1)
    plan = h.plan_writes(claims, config, rng)
    expected = reference.nonzero_plan(claims, config, reference_rng)
    for name in ("owner", "round_index", "value", "slot"):
        column = getattr(plan, name)
        assert column.dtype == np.int32
        assert np.array_equal(column, getattr(expected, name))
    # the int32 slot draw leaves the generator where the int64 draw does
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert list(plan) == list(expected)
    if kind == "multi" and owners > 1:
        per_round = claims.sum(axis=2)
        assert (per_round > 1).any() and (per_round == 0).any()


def test_crypto_free_epoch_peaks_under_a_megabyte():
    # int32 plan columns from one contiguous cube, and counting that sorts
    # only nonzero slots: 0.86 MB, against 1.34 MB with int64 columns taken
    # from a strided cube and a sort of every slot
    experiment = cli.load_config(str(CONFIGS / "epoch_cryptofree.json"), [])
    population = h.generate_population(experiment.population, np.random.default_rng(11))
    config = replace(experiment.epoch, master_seed=11)
    h.run_epoch(population, config, crypto=False)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h.run_epoch(population, config, crypto=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1_000_000


# -- Submission handling -------------------------------------------------------


def test_duplicate_submissions_are_ignored():
    config = binary_config()
    claims = config.mech.claims(
        h.generate_population({"total": 30, "yes": 6}, np.random.default_rng(0)),
        config.value_ids,
        derived_stream(config.master_seed, 0),
    )
    plan = h.plan_writes(claims, config, derived_stream(config.master_seed, 1))
    chunk = h.build_chunk(plan, config, None, None)

    once = h.EpochCollector(config)
    once.submit(chunk)
    twice = h.EpochCollector(config)
    twice.submit(chunk)
    twice.submit(chunk)

    first = once.finalize()
    second = twice.finalize()
    assert second.databases == first.databases
    assert second.counts == first.counts
    assert second.diagnostics.duplicate_submissions == 30
    assert second.diagnostics.participants == 30


def test_duplicate_crypto_submissions_are_ignored():
    config = binary_config()
    claims = config.mech.claims(
        h.generate_population({"total": 30, "yes": 6}, np.random.default_rng(0)),
        config.value_ids,
        derived_stream(config.master_seed, 0),
    )
    plan = h.plan_writes(claims, config, derived_stream(config.master_seed, 1))
    chunk = h.build_chunk(
        plan,
        config,
        derived_stream(config.master_seed, 2),
        derived_stream(config.master_seed, 3),
        two_row_owners=frozenset({4}),
    )

    once = h.EpochCollector(config)
    once.submit(chunk)
    twice = h.EpochCollector(config)
    twice.submit(chunk)
    twice.submit(chunk)

    first = once.finalize()
    second = twice.finalize()
    assert second.databases == first.databases
    assert second.counts == first.counts
    assert second.diagnostics.duplicate_submissions == len(chunk.owner_ids) == 30
    assert second.diagnostics.rejected_owner_ids == (4,)


def test_the_collector_follows_the_chunk():
    # one collector per mode, neither told which: a keyed chunk is verified
    # and evaluated, a keyless one XORed in as plaintext
    config = binary_config(master_seed=13)
    pop = h.generate_population({"total": 40, "yes": 12}, np.random.default_rng(2))
    claims = config.mech.claims(pop, config.value_ids, derived_stream(13, 0))
    plan = h.plan_writes(claims, config, derived_stream(13, 1))
    # an attacker with a real write, so that rejecting it shows in the databases
    attacker = int(plan.owner[plan.value < len(config.value_ids)][0])
    keyed = h.EpochCollector(config)
    keyed.submit(
        h.build_chunk(
            plan, config, derived_stream(13, 2), derived_stream(13, 3), frozenset({attacker})
        )
    )
    attacked = keyed.finalize()
    keyless = h.EpochCollector(config)
    keyless.submit(h.build_chunk(plan, config, None, None))
    plain = keyless.finalize()

    assert attacked.diagnostics.rejected_owner_ids == (attacker,)
    assert plain.diagnostics.rejected_owner_ids == ()
    assert plain.diagnostics.accepted == 40
    # 40 owners make one chunk in either mode, as in run_epoch
    full = h.run_epoch(pop, config, crypto=True, attackers=[attacker])
    free = h.run_epoch(pop, config, crypto=False)
    assert attacked.databases == full.databases
    assert plain.databases == free.databases
    assert attacked.to_json_bytes() == full.to_json_bytes()
    assert plain.to_json_bytes() == free.to_json_bytes()
    assert attacked.databases != plain.databases


def test_build_chunk_needs_a_contiguous_owner_range():
    config = binary_config()
    owner = np.array([0, 1, 2, 3, 4, 6, 7, 8, 9])
    zeros = np.zeros_like(owner)
    gapped = h.WritePlan(owner, zeros, zeros, zeros, config.value_ids)
    with pytest.raises(ValueError, match="contiguous owner range"):
        h.build_chunk(gapped, config, None, None)
    chunk = h.build_chunk(gapped[:0], config, None, None)
    assert chunk.owner_ids.size == 0


def wide_chunk_plan(mu):
    """The plan of a 256-owner crypto chunk at n = 12 and p = 3, one row of
    4,096 slots (``mu=4096``) or the default split (``None``), and one
    two-row attacker whose first write is real."""
    config = binary_config(n=12, mu=mu)
    population = (np.arange(256) % 12 == 0).astype(np.int64)
    claims = config.mech.claims(population, config.value_ids, np.random.default_rng(1))
    plan = h.plan_writes(claims, config, np.random.default_rng(2))
    first = np.searchsorted(plan.owner, np.arange(256))
    attacker = int(np.flatnonzero(plan.value[first] < len(config.value_ids))[0])
    return config, plan, frozenset({attacker})


@pytest.mark.parametrize("mu", [4096, None])
def test_chunk_matches_the_dense_reference(mu):
    # the uint32 seed and key-stream draws, the one mask draw and the
    # row-block expansions give the bytes and stream states of rng.bytes
    # seeds and keys and scalar mask draws, and the last vectors and pairs
    # of an indicator matrix and (a, a^2) minus scalar PRG rows
    config, plan, attackers = wide_chunk_plan(mu)
    streams = (derived_stream(3, 2), derived_stream(3, 3))
    chunk = h.build_chunk(plan, config, *streams, attackers)
    reference_streams = (derived_stream(3, 2), derived_stream(3, 3))
    keys, seeds, last, pairs = reference.dense_chunk(plan, config, *reference_streams, attackers)
    assert np.array_equal(chunk.indicator_shares["seeds"], seeds)
    assert np.array_equal(chunk.indicator_shares["last"], last)
    assert chunk.blinding.dtype == np.uint64
    assert np.array_equal(chunk.blinding, pairs)
    assert [tuple(key.seeds for key in write) for write in chunk.keys] == [s for s, _ in keys]
    assert [{key.words for key in write} for write in chunk.keys] == [{w} for _, w in keys]
    for stream, reference_stream in zip(streams, reference_streams):
        assert stream.bit_generator.state == reference_stream.bit_generator.state


def test_crypto_chunk_peaks_near_its_own_bytes():
    # the share records are written once, in place, and the seeds expand
    # one row block at a time: no dense indicator matrix, no whole-layer
    # expansion beside the chunk
    config, plan, attackers = wide_chunk_plan(4096)
    streams = (derived_stream(3, 2), derived_stream(3, 3))
    tracemalloc.start()
    try:
        chunk = h.build_chunk(plan, config, *streams, attackers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    keys = chunk.keys
    size = keys.seeds.nbytes + keys.columns.nbytes + keys.words.nbytes
    size += chunk.indicator_shares.nbytes + chunk.blinding.nbytes
    # 17.0 MiB of correction words, 35 KiB of seeds and held columns, and
    # 512 share records of 1,056 bytes (0.5 MiB): the factored records are
    # 64 words, not the 4,096 of a dense indicator
    assert keys.words.nbytes == 17 * 2**20 and keys.seeds.nbytes + keys.columns.nbytes == 35 * 2**10
    assert chunk.indicator_shares.nbytes == 512 * 1_056
    assert size > 17 * 2**20
    assert peak <= size + 4 * 2**20


def test_crypto_epoch_builds_no_key_objects(monkeypatch):
    # a chunk's keys stay arrays from generation to evaluation: key objects
    # are wire views that only serialization and single-key callers build
    built = Counter()
    init = FssKey.__init__

    def counting_init(self, *args, **kwargs):
        built["keys"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FssKey, "__init__", counting_init)
    experiment = cli.load_config(str(CONFIGS / "epoch_crypto_small.json"), [])
    config = experiment.epoch
    population = h.generate_population(experiment.population, np.random.default_rng(0))
    result = h.run_epoch(population, config, crypto=True)
    assert not result.halted and result.counts[0]
    assert built["keys"] == 0
    # the counter does see the views that a reader builds
    claims = config.mech.claims(population[:4], config.value_ids, derived_stream(0, 0))
    plan = h.plan_writes(claims, config, derived_stream(0, 1))
    chunk = h.build_chunk(plan, config, derived_stream(0, 2), derived_stream(0, 3))
    assert built["keys"] == 0
    assert len(chunk.keys[0]) == config.parties == built["keys"]


@pytest.mark.parametrize("party", [0, 1])
def test_a_tampered_share_seed_rejects_its_write(party):
    # the check reads the shares each party expands from its own seed
    config = binary_config(master_seed=13)
    pop = h.generate_population({"total": 40, "yes": 12}, np.random.default_rng(2))
    claims = config.mech.claims(pop, config.value_ids, derived_stream(13, 0))
    plan = h.plan_writes(claims, config, derived_stream(13, 1))
    chunk = h.build_chunk(plan, config, derived_stream(13, 2), derived_stream(13, 3))
    owner = 7
    chunk.indicator_shares["seeds"][np.searchsorted(plan.owner, owner), party, 0] ^= 1
    collector = h.EpochCollector(config)
    collector.submit(chunk)
    assert collector.finalize().diagnostics.rejected_owner_ids == (owner,)


def test_the_challenge_stream_is_the_fifth_child_drawn_per_verified_chunk(monkeypatch):
    # the collector builds the fifth child of the master seed on its first
    # keyed chunk and draws one 16-byte seed per verified chunk, in
    # submission order; a crypto-free epoch never builds it
    config = binary_config(master_seed=13)
    pop = h.generate_population({"total": 600, "yes": 60}, np.random.default_rng(5))
    built, seeds = [], []
    streams, challenge_rows = h._streams, verify.challenge_rows

    def spy_streams(master_seed, count=4):
        built.append(count)
        return streams(master_seed, count)

    def spy_rows(seed, sides):
        seeds.append(seed.tobytes())
        return challenge_rows(seed, sides)

    monkeypatch.setattr(h, "_streams", spy_streams)
    monkeypatch.setattr(verify, "challenge_rows", spy_rows)
    h.run_epoch(pop, config, crypto=False)
    assert (built, seeds) == ([2], [])
    h.run_epoch(pop, config, crypto=True)
    assert built == [2, 4, 5]
    challenge = derived_stream(13, 4)
    assert seeds == [challenge.bytes(16) for _ in range(3)]  # 600 owners, 3 chunks

    # a chunk whose owners have all submitted is not verified and draws nothing
    claims = config.mech.claims(pop, config.value_ids, derived_stream(13, 0))
    plan = h.plan_writes(claims, config, derived_stream(13, 1))
    cut = int(np.searchsorted(plan.owner, 256))
    keys, shares = derived_stream(13, 2), derived_stream(13, 3)
    first = h.build_chunk(plan[:cut], config, keys, shares)
    second = h.build_chunk(plan[cut : int(np.searchsorted(plan.owner, 512))], config, keys, shares)
    seeds.clear()
    collector = h.EpochCollector(config)
    for chunk in (first, first, second):
        collector.submit(chunk)
    challenge = derived_stream(13, 4)
    assert seeds == [challenge.bytes(16) for _ in range(2)]


def test_weighted_two_slot_forgery_is_rejected_in_a_full_epoch(monkeypatch):
    # the indicator (2, -1) at a write's slot and the next sums to one, and it
    # passed owner-chosen square blinding whose base entry repeated at both
    # columns; as a column factor (2, -1) at the write's column and the next,
    # against a challenge the owner does not choose, it fails
    config = binary_config(master_seed=13)
    pop = h.generate_population({"total": 300, "yes": 30}, np.random.default_rng(9))
    build, forgers = h.build_chunk, []
    rows, columns = config.indicator_sides

    def forge(writes, config, keys_rng, verify_rng, two_row_owners=frozenset()):
        chunk = build(writes, config, keys_rng, verify_rng, two_row_owners)
        write = int(np.flatnonzero(writes.value < len(config.value_ids))[0])
        column = int(writes.slot[write]) % columns
        at, after = rows + column, rows + (column + 1) % columns
        last = chunk.indicator_shares["last"][write]
        last[at] = m61_add(last[at], 1)
        last[after] = m61_sub(last[after], 1)
        forgers.append(int(writes.owner[write]))
        return chunk

    monkeypatch.setattr(h, "build_chunk", forge)
    result = h.run_epoch(pop, config, crypto=True)
    assert len(forgers) == 2  # one forged write in each of the two chunks
    assert result.diagnostics.rejected_owner_ids == tuple(forgers)


def stuffed_epoch(monkeypatch):
    """The shipped small crypto config at population seed 0 and master seed
    7, honest and with the first chunk's first Yes write stuffed: the Yes
    message at 20 more slots of its row, (delta + 1 + 37 k) mod mu for
    k < 20, XORed into correction word 0, which every party shares. The
    write's indicator factors stay honest. Returns both results, the
    stuffed write's owner and round, the stuffed slots and the Yes message."""
    experiment = cli.load_config(str(CONFIGS / "epoch_crypto_small.json"), [])
    config = replace(experiment.epoch, master_seed=7)
    pop = h.generate_population(experiment.population, np.random.default_rng(0))
    honest = h.run_epoch(pop, config, crypto=True)
    generate, stuffed = h.fss_gen_batch, []
    yes = int(config.messages[0])

    def stuff(slots, messages, params, rng):
        batch = generate(slots, messages, params, rng)
        if not stuffed:
            write = int(np.flatnonzero(messages == yes)[0])
            delta = int(slots[write]) % params.mu
            targets = [(delta + 1 + 37 * k) % params.mu for k in range(20)]
            image = BitString(0, params.row_bits)
            for slot in targets:
                image ^= unit_write(slot, yes, params.mu, params.m)
            batch.words[write, 0] ^= np.frombuffer(image.to_bytes(), np.uint8)
            stuffed.append((write, targets))
        return batch

    monkeypatch.setattr(h, "fss_gen_batch", stuff)
    result = h.run_epoch(pop, config, crypto=True)
    (write, targets), = stuffed
    claims = config.mech.claims(pop, config.value_ids, derived_stream(7, 0))
    plan = h.plan_writes(claims, config, derived_stream(7, 1))
    return honest, result, int(plan.owner[write]), int(plan.round_index[write]), targets, yes


def test_a_stuffed_row_image_adds_yes_counts(monkeypatch):
    # ROADMAP item 3(a)'s shared-correction-words kind: the owner is accepted
    # with no drops, and each stuffed slot adds a count if it was empty and
    # removes one if it held a Yes
    honest, stuffed, _, round_index, targets, yes = stuffed_epoch(monkeypatch)
    assert honest.diagnostics.rejected_owner_ids == stuffed.diagnostics.rejected_owner_ids == ()
    assert stuffed.diagnostics.collision_drops == honest.diagnostics.collision_drops == (0, 0)
    before = honest.databases[round_index].split_fields(honest.message_bits)[targets]
    assert set(before.tolist()) <= {0, yes}
    added = int((before == 0).sum()) - int((before == yes).sum())
    assert added == 18  # 19 empty slots and 1 Yes
    expected = list(honest.counts)
    expected[round_index] = {1: honest.counts[round_index][1] + added}
    assert list(stuffed.counts) == expected
    assert (round_index, honest.counts[0][1], stuffed.counts[0][1]) == (0, 39, 57)
    assert honest.estimates[1] == pytest.approx(44.44, abs=0.01)
    assert stuffed.estimates[1] == pytest.approx(84.44, abs=0.01)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the challenge check reads the indicator factors, not "
    "the key, so a key whose shared correction word stuffs its row passes",
)
def test_a_stuffed_row_image_is_rejected(monkeypatch):
    _, stuffed, owner, _, _, _ = stuffed_epoch(monkeypatch)
    assert stuffed.diagnostics.rejected_owner_ids == (owner,)


def test_aggregator_view_does_not_locate_writes():
    # the first 256-owner chunk of the shipped crypto config at population
    # seed 0: when the owner chose the blinding base row, matching the
    # published s_1 against it named the slot of all 34 real writes, and a
    # null write's aggregate was zero. Each party now holds its own shares
    # and pair shares of the row and column factors, and the opened r, d and
    # z are public. Guesses built from that view locate rows no more often
    # than chance, 1 in A, columns 1 in B and slots 1 in 2**n.
    experiment = cli.load_config(str(CONFIGS / "epoch_crypto_small.json"), [])
    config = experiment.epoch
    pop = h.generate_population(experiment.population, np.random.default_rng(0))
    seed = config.master_seed
    claims = config.mech.claims(pop, config.value_ids, derived_stream(seed, 0))
    plan = h.plan_writes(claims, config, derived_stream(seed, 1))
    plan = plan[: int(np.searchsorted(plan.owner, 256))]
    chunk = h.build_chunk(plan, config, derived_stream(seed, 2), derived_stream(seed, 3))
    sides = config.indicator_sides
    assert sides == (32, 32)
    challenge = np.frombuffer(derived_stream(seed, 4).bytes(16), np.uint8)
    rows = verify.challenge_rows(challenge, sides)
    values = verify.challenge_values(chunk.indicator_shares, chunk.blinding, rows)
    d, z = verify.open_challenge_batch(values)
    shares = reference.expand_shares(chunk.indicator_shares, chunk.blinding)
    real = plan.value < len(config.value_ids)
    assert int(real.sum()) == 34
    assert not z.any()  # every honest write opens z = 0: only the verdict
    assert d[~real].all()  # a null write's opening is not zero either

    width = sum(sides)
    starts = (0, sides[0])
    truth = np.divmod(plan.slot, sides[1])
    guesser = np.random.default_rng(1)
    located, slots_located, guesses = [0, 0], 0, 0
    for w in np.flatnonzero(real):
        for share in shares[:, w].tolist():
            guess = []
            for f, (start, side) in enumerate(zip(starts, sides)):
                r, r2 = (row[start : start + side] for row in rows[f].tolist())
                entries = share[start : start + side]
                x, y = (sum(a * b for a, b in zip(row, entries)) % MODULUS for row in (r, r2))
                a_i, b_i = share[width + 2 * f : width + 2 * f + 2]
                opened = (int(d[w, f]), (int(d[w, f]) + a_i) % MODULUS, x, y, b_i)
                by_value = {}
                for j, value in enumerate(r + r2):
                    by_value.setdefault(value, j % side)
                candidates = {by_value[v] for v in opened if v in by_value}
                candidates |= {j for j, v in enumerate(entries) if v <= 1}
                guess.append(min(candidates) if candidates else int(guesser.integers(side)))
                located[f] += guess[f] == truth[f][w]
            slots_located += guess == [truth[0][w], truth[1][w]]
            guesses += 1
    # 102 guesses per factor at 1 in 32: eleven or more hits has chance
    # below 4e-4; three or more slots at 1 in 1,024 has chance below 2e-4
    assert guesses == 102
    assert max(located) <= 10 and slots_located <= 2
    assert h.EpochCollector(config)._verify(chunk).all()


def test_crypto_upload_per_write_is_keys_seeds_and_one_vector():
    # at the shipped crypto geometry a write uploads three keys, two share
    # seeds, and the last party's factors, 32 + 32 words, and its two pair
    # rows (16 bytes each, sent to the last party only)
    config = cli.load_config(str(CONFIGS / "epoch_crypto_small.json"), []).epoch
    assert (config.parties, config.db_slots, config.indicator_sides) == (3, 1024, (32, 32))
    pop = h.generate_population({"total": 20, "yes": 4}, np.random.default_rng(0))
    claims = config.mech.claims(pop, config.value_ids, derived_stream(0, 0))
    plan = h.plan_writes(claims, config, derived_stream(0, 1))
    chunk = h.build_chunk(plan, config, derived_stream(0, 2), derived_stream(0, 3))
    key = key_size_bytes(config.fss)
    assert all(len(key_serialize(k)) == key for write in chunk.keys for k in write)
    assert chunk.blinding.shape == (len(plan), 2, 2)
    uploaded = 3 * key * len(plan) + chunk.indicator_shares.nbytes + chunk.blinding.nbytes
    per_write = 3 * key + 2 * 16 + 8 * sum(config.indicator_sides) + 2 * 16
    assert per_write == 26_928
    assert uploaded == per_write * len(plan)


def test_null_writes_are_counted_but_leave_the_databases_empty():
    config = binary_config()
    owner = np.repeat(np.arange(5), 2)
    null = np.full(owner.size, len(config.value_ids))
    slot = np.zeros(owner.size, np.int64)  # all in one slot: nothing to cancel
    plan = h.WritePlan(owner, np.tile([0, 1], 5), null, slot, config.value_ids)
    collector = h.EpochCollector(config)
    collector.submit(h.build_chunk(plan, config, None, None))
    result = collector.finalize()
    assert not result.halted
    assert result.diagnostics.writes_per_round == (5, 5)
    assert all(db.value == 0 for db in result.databases)
    assert result.counts == ({}, {})


@pytest.mark.parametrize("crypto", [False, True])
def test_databases_are_the_reconstructed_slots_packed_once(crypto):
    config = binary_config(master_seed=13)
    pop = h.generate_population({"total": 40, "yes": 12}, np.random.default_rng(2))
    claims = config.mech.claims(pop, config.value_ids, derived_stream(13, 0))
    plan = h.plan_writes(claims, config, derived_stream(13, 1))
    streams = (derived_stream(13, 2), derived_stream(13, 3)) if crypto else (None, None)
    chunk = h.build_chunk(plan, config, *streams)
    collector = h.EpochCollector(config)
    collector.submit(chunk)
    result = collector.finalize()

    if crypto:
        accumulators = fss_evaluate_batch(
            chunk.keys, np.arange(len(plan)), plan.round_index, config.rounds
        )
    else:
        accumulators = [np.zeros((config.rounds, config.db_slots), np.uint64)]
        messages = config.messages
        for w_round, w_slot, w_value in zip(plan.round_index, plan.slot, plan.value):
            accumulators[0][w_round, w_slot] ^= np.uint64(messages[w_value])
    eager = tuple(
        BitString.from_fields(s, config.message_bits)
        for s in np.bitwise_xor.reduce(accumulators)
    )
    assert any(db.value for db in eager)
    assert result.databases == eager
    assert result.databases is result.databases


@pytest.mark.parametrize(
    "truths, valid",
    [
        ([0, 1], True),
        ([True, False], True),
        ([0.0, 1.0], True),
        ([2], False),
        ([-1], False),
        ([0.5], False),
        ([math.nan], False),
    ],
)
def test_binary_truths_accept_exactly_zero_and_one(truths, valid):
    assert np.isin(truths, (0, 1)).all() == valid
    if valid:
        assert np.array_equal(mech._binary_truths(np.array(truths)), truths)
    else:
        with pytest.raises(InvalidTruthError):
            mech._binary_truths(np.array(truths))


def test_below_threshold_halts_without_release():
    config = binary_config()
    result = h.run_epoch(np.array([1]), config, crypto=False)
    assert result.halted
    assert result.released() is None
    assert result.databases == ()
    assert result.estimates == {}
    assert result.diagnostics.participants == 1


def test_rejections_can_push_below_threshold():
    config = binary_config(k_threshold=3)
    pop = np.array([1, 0, 1])
    result = h.run_epoch(pop, config, crypto=True, attackers=[0])
    assert result.diagnostics.rejected_owner_ids == (0,)
    assert result.diagnostics.accepted == 2
    assert result.halted
    assert result.released() is None


def test_released_view_hides_exact_participation():
    config = binary_config()
    pop = h.generate_population({"total": 25, "yes": 4}, np.random.default_rng(0))
    result = h.run_epoch(pop, config, crypto=False)
    public = result.released()
    assert public["participation"] == ">=2"
    assert "25" not in json.dumps(public)
    assert result.diagnostics.participants == 25


# -- Malicious writers ---------------------------------------------------------


def test_two_row_writer_is_excluded_and_flagged():
    config = binary_config(master_seed=11)
    pop = h.generate_population({"total": 60, "yes": 9}, np.random.default_rng(0))
    honest = h.run_epoch(pop, config, crypto=True)
    attacked = h.run_epoch(pop, config, crypto=True, attackers=[7])

    assert attacked.diagnostics.rejected_owner_ids == (7,)
    assert attacked.diagnostics.rejected_submissions == 1
    assert attacked.diagnostics.accepted == 59

    # the only difference is owner 7's write images vanishing from the dbs
    claims = config.mech.claims(pop, config.value_ids, derived_stream(config.master_seed, 0))
    writes = h.plan_writes(claims, config, derived_stream(config.master_seed, 1))
    expected = [0] * config.rounds
    for w in writes:
        if w.owner_id == 7 and w.value_id is not None:
            shift = (config.db_slots - 1 - w.slot) * config.message_bits
            expected[w.round_index] ^= h.encode_message(w.value_id, config) << shift
    for r in range(config.rounds):
        assert honest.databases[r].value ^ attacked.databases[r].value == expected[r]


def test_two_row_writer_with_several_writes_per_round_is_the_only_rejection():
    config = binary_config(
        mech=mech.TwoRoundMultiParams(pi_s=0.5, pi_v=0.4),
        id_bits=2,
        n=8,
        domain=(3, 1, 2),
        master_seed=5,
    )
    pop = h.generate_population(
        {"total": 40, "groups": {"1": 10, "2": 10, "3": 10}}, np.random.default_rng(1)
    )
    claims = config.mech.claims(pop, config.value_ids, derived_stream(5, 0))
    plan = h.plan_writes(claims, config, derived_stream(5, 1))
    mine = [w for w in plan if w.owner_id == 1]
    assert max(Counter(w.round_index for w in mine).values()) >= 2

    honest = h.run_epoch(pop, config, crypto=True)
    attacked = h.run_epoch(pop, config, crypto=True, attackers=[1])
    assert honest.diagnostics.rejected_owner_ids == ()
    assert attacked.diagnostics.rejected_owner_ids == (1,)
    assert attacked.diagnostics.accepted == 39
    expected = [0] * config.rounds
    for w in mine:
        if w.value_id is not None:
            message = h.encode_message(w.value_id, config)
            image = unit_write(w.slot, message, config.db_slots, config.message_bits)
            expected[w.round_index] ^= image.value
    for r in range(config.rounds):
        assert honest.databases[r].value ^ attacked.databases[r].value == expected[r]

    # the expanded seeds and the last vector add up to one row factor and one
    # column factor per write: the attacker's first write marks its row and
    # two adjacent columns, every other real write its own row and column;
    # the pair shares add up to (a, a^2) per factor
    chunk = h.build_chunk(
        plan, config, derived_stream(5, 2), derived_stream(5, 3), frozenset({1})
    )
    rows, columns = config.indicator_sides
    sums = m61_sum(reference.expand_shares(chunk.indicator_shares, chunk.blinding), axis=0)
    factors, pairs = sums[:, : rows + columns], sums[:, rows + columns :].reshape(-1, 2, 2)
    a, b = pairs[..., 0], pairs[..., 1]
    assert np.array_equal(b, m61_mul(a, a))
    expected_factors = np.zeros((len(plan), rows + columns), np.uint64)
    attacker_first = True
    for idx, w in enumerate(plan):
        row, column = divmod(w.slot, columns)
        if w.owner_id == 1 and attacker_first:
            attacker_first = False
            expected_factors[idx, [row, rows + column, rows + (column + 1) % columns]] = 1
        elif w.value_id is not None:
            expected_factors[idx, [row, rows + column]] = 1
    assert np.array_equal(factors, expected_factors)


def test_attackers_require_the_verification_layer():
    config = binary_config()
    pop = h.generate_population({"total": 10, "yes": 2}, np.random.default_rng(0))
    with pytest.raises(ValueError, match="verification layer"):
        h.run_epoch(pop, config, crypto=False, attackers=[1])
    with pytest.raises(ValueError):
        h.run_epoch(pop, config, crypto=True, attackers=[99])


# -- Released estimates --------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2(a): identical binary Yes writes that share a slot XOR "
    "to zero, so round one loses more writes and the estimate is biased low",
)
def test_shipped_cryptofree_config_is_unbiased():
    experiment = cli.load_config(str(CONFIGS / "epoch_cryptofree.json"), ["trials=100"])
    assert experiment.seed == 11
    _, summary = cli.run_experiment(experiment)
    truth, pi_s = 100, experiment.mechanism.pi_s
    # one trial's estimate has variance g (1 - pi_s) / pi_s
    standard_error = math.sqrt(truth * (1 - pi_s) / pi_s / experiment.trials)
    mean = summary["per_value"]["1"]["mean_estimate"]
    assert abs(mean - truth) <= 3 * standard_error, f"mean estimate {mean}"
