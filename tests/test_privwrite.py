"""Private-write layer tests.

Correctness is checked against the obvious oracle: the XOR of every party's
full-database expansion must equal the one-hot write image, everywhere. Sizes
are checked bit-exactly against the closed-form formula and frozen reference
values computed by hand from that formula.
"""

import hashlib
import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from covercount import privwrite as pw
from covercount.errors import ParseError
from covercount.field import BitString

from reference import it_gen


class QueuedBytesRng:
    """Stand-in for a Generator that hands out pre-chosen byte strings."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def bytes(self, n):
        chunk = self._chunks.pop(0)
        assert len(chunk) == n
        return chunk


def xor_all(shares):
    acc = shares[0]
    for s in shares[1:]:
        acc = acc ^ s
    return acc


# -- PRG ---------------------------------------------------------------------


def reference_prg(seed, out_bits):
    """G(s)_i = AES_k(s ^ i) ^ (s ^ i) under the fixed key, one block at a
    time, with the counter in the seed's low little-endian 64-bit word."""
    encryptor = Cipher(algorithms.AES(pw.PRG_FIXED_KEY), modes.ECB()).encryptor()
    low = int.from_bytes(seed[:8], "little")
    out = b""
    counter = 0
    while 8 * len(out) < out_bits:
        block = (low ^ counter).to_bytes(8, "little") + seed[8:]
        out += bytes(x ^ y for x, y in zip(block, encryptor.update(block)))
        counter += 1
    nbytes = (out_bits + 7) // 8
    return int.from_bytes(out[:nbytes], "big") >> (8 * nbytes - out_bits)


def prg(seed, nbytes):
    """One seed's expansion through the pipeline's batched PRG."""
    return pw._prg_rows(np.frombuffer(seed, np.uint8), nbytes)[0].tobytes()


@pytest.mark.parametrize("out_bits", [0, 7, 128, 1024, 725])
def test_prg_matches_block_by_block_reference(out_bits):
    rng = np.random.default_rng(out_bits)
    nbytes = (out_bits + 7) // 8
    for seed in (bytes(range(16)), b"\xff" * 16, rng.bytes(16)):
        expansion = int.from_bytes(prg(seed, nbytes), "big") >> (8 * nbytes - out_bits)
        assert expansion == reference_prg(seed, out_bits)


def test_prg_rows_expands_each_seed_alone():
    seeds = np.frombuffer(np.random.default_rng(5).bytes(16 * 9), np.uint8).reshape(9, 16)
    for nbytes in (1, 16, 91, 272):
        rows = pw._prg_rows(seeds, nbytes)
        assert rows.shape == (9, nbytes)
        for seed, row in zip(seeds, rows):
            single = pw._prg_rows(seed, nbytes)[0]
            assert row.tobytes() == single.tobytes()
            assert int.from_bytes(row.tobytes(), "big") == reference_prg(seed.tobytes(), 8 * nbytes)


def test_prg_deterministic_and_truncated():
    seed = bytes(range(16))
    a = prg(seed, 91)
    assert a == prg(seed, 91)
    assert len(a) == 91
    # a longer expansion of the same seed starts with the shorter one
    assert prg(seed, 128)[:91] == a


def test_prg_distinct_seeds_disagree():
    rng = np.random.default_rng(1)
    outs = {prg(rng.bytes(16), 16) for _ in range(200)}
    assert len(outs) == 200


def test_prg_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        pw._prg_rows(np.zeros(8, np.uint8), 8)


# -- unit writes and the information-theoretic reference -----------------------


def test_unit_write_places_message():
    assert pw.unit_write(2, 1, 4, 1) == BitString(0b0010, 4)
    assert pw.unit_write(0, 0b101, 4, 3) == BitString(0b101_000_000_000, 12)
    with pytest.raises(ValueError):
        pw.unit_write(4, 0, 4, 1)
    with pytest.raises(ValueError):
        pw.unit_write(0, 2, 4, 1)


def test_it_gen_two_party_worked_example():
    # slot 2 of 4, one-bit messages: e = 0010. With the first share rigged to
    # 1011 the second must be 1001.
    rng = QueuedBytesRng([b"\xb0"])  # 1011 packed MSB-first in a nibble
    shares = it_gen(pw.PointFunction(2, 1), n=2, m=1, parties=2, rng=rng)
    assert shares[0] == BitString(0b1011, 4)
    assert shares[1] == BitString(0b1001, 4)


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
def test_it_gen_reconstructs(parties):
    rng = np.random.default_rng(parties)
    for _ in range(20):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        a = int(rng.integers(0, 1 << n))
        b = int(rng.integers(0, 1 << m))
        shares = it_gen(pw.PointFunction(a, b), n, m, parties, rng)
        assert len(shares) == parties
        assert xor_all(shares) == pw.unit_write(a, b, 1 << n, m)


def test_it_gen_null_write_reconstructs_zero():
    rng = np.random.default_rng(9)
    shares = it_gen(pw.PointFunction(3, 0), 4, 8, 3, rng)
    assert xor_all(shares) == BitString(0, 16 * 8)


# -- parameter geometry --------------------------------------------------------


def test_default_mu_is_ceil_sqrt():
    # ceil(2^(n/2) * 2^((p-1)/2)) = ceil(sqrt(2^(n+p-1))): the smallest
    # integer whose square covers 2^(n+p-1). Checked by definition to avoid
    # floating-point artifacts.
    for n in range(1, 24):
        for p in range(2, 6):
            t = 1 << (n + p - 1)
            mu = pw.default_mu(n, p)
            assert mu * mu >= t, (n, p)
            assert (mu - 1) * (mu - 1) < t, (n, p)


def test_reference_geometry_frozen():
    # p=3, n=17: mu = ceil(sqrt(2^19)) = 725, nu = ceil(2^17 / 725) = 181
    params = pw.FssParams(n=17, parties=3, m=1)
    assert (params.mu, params.nu) == (725, 181)
    assert params.mu * params.nu >= params.domain_size


def test_override_must_cover_database():
    params = pw.FssParams(n=6, parties=2, m=1, mu=4)
    assert params.nu == 16
    params = pw.FssParams(n=6, parties=2, m=1, mu=5)
    assert params.nu == 13  # the fewest rows of 5 that cover 64 slots


def test_params_validation():
    with pytest.raises(ValueError):
        pw.FssParams(n=0, parties=2, m=1)
    with pytest.raises(ValueError):
        pw.FssParams(n=4, parties=1, m=1)
    with pytest.raises(ValueError):
        pw.FssParams(n=4, parties=2, m=0)
    with pytest.raises(ValueError):
        pw.FssParams(n=4, parties=2, m=1, mu=0)


# -- compressed scheme ---------------------------------------------------------


def full_reconstruction(keys):
    return xor_all([pw.fss_evaluate_share(k) for k in keys])


def test_fss_small_worked_case():
    params = pw.FssParams(n=2, parties=2, m=1)
    rng = np.random.default_rng(0)
    keys = pw.fss_gen(pw.PointFunction(1, 1), params, rng)
    assert full_reconstruction(keys) == BitString(0b0100, 4)


def test_fss_zero_message_reconstructs_zero():
    params = pw.FssParams(n=4, parties=3, m=4)
    rng = np.random.default_rng(2)
    keys = pw.fss_gen(pw.PointFunction(7, 0), params, rng)
    assert full_reconstruction(keys) == BitString(0, 16 * 4)


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
def test_fss_random_points_reconstruct(parties):
    rng = np.random.default_rng(100 + parties)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        params = pw.FssParams(n=n, parties=parties, m=m)
        a = int(rng.integers(0, params.domain_size))
        b = int(rng.integers(0, 1 << m))
        keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
        assert full_reconstruction(keys) == pw.unit_write(a, b, params.domain_size, m)


def test_fss_with_overridden_geometry():
    rng = np.random.default_rng(42)
    for mu in (2, 8, 64):
        params = pw.FssParams(n=6, parties=3, m=2, mu=mu)
        keys = pw.fss_gen(pw.PointFunction(37, 3), params, rng)
        assert full_reconstruction(keys) == pw.unit_write(37, 3, 64, 2)


def test_fss_single_row_geometry():
    # nu == 1 makes the only row the written one
    params = pw.FssParams(n=4, parties=2, m=1, mu=16)
    assert params.nu == 1
    rng = np.random.default_rng(8)
    keys = pw.fss_gen(pw.PointFunction(11, 1), params, rng)
    assert full_reconstruction(keys) == pw.unit_write(11, 1, 16, 1)


def evaluated_row(key, row):
    """One party's slot values in one row, read from a batch-of-one evaluation."""
    mu = key.params.mu
    return pw.fss_evaluate_batch([key], [0], 1)[0, row * mu : (row + 1) * mu]


def test_fss_row_xor_is_one_hot_only_at_written_row():
    params = pw.FssParams(n=6, parties=3, m=3)
    rng = np.random.default_rng(17)
    a, b = 22, 5
    keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
    gamma, delta = divmod(a, params.mu)
    for row in range(params.nu):
        combined = xor_all([evaluated_row(k, row) for k in keys])
        expected = [b if (row, slot) == (gamma, delta) else 0 for slot in range(params.mu)]
        assert combined.tolist() == expected


def test_fss_unheld_row_evaluates_to_zero():
    # with p=2 some rows assign no seeds at all to one party; such a row's
    # evaluation is the zero string by construction
    params = pw.FssParams(n=6, parties=2, m=1)
    rng = np.random.default_rng(3)
    keys = pw.fss_gen(pw.PointFunction(0, 1), params, rng)
    found = False
    for key in keys:
        for row in range(params.nu):
            if all(s == b"\x00" * 16 for s in key.sigma[row]):
                assert not evaluated_row(key, row).any()
                found = True
    assert found, "expected at least one seedless (party, row) pair at p=2"


def test_fss_strict_subset_does_not_reconstruct():
    rng = np.random.default_rng(23)
    for parties in (2, 3, 4):
        params = pw.FssParams(n=6, parties=parties, m=4)
        a, b = 13, 9
        keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
        expected = pw.unit_write(a, b, params.domain_size, params.m)
        partial = xor_all([pw.fss_evaluate_share(k) for k in keys[:-1]])
        assert partial != expected


def test_fss_naive_matches_optimized():
    rng = np.random.default_rng(31)
    for parties in (2, 3):
        for n in (2, 3, 5, 7):
            params = pw.FssParams(n=n, parties=parties, m=3)
            a = int(rng.integers(0, params.domain_size))
            b = int(rng.integers(0, 8))
            keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
            for key in keys:
                share = pw.fss_evaluate_share(key)
                values = share.split_fields(params.m)
                for x in range(params.domain_size):
                    assert pw.fss_eval_naive(key, x) == values[x]


def reference_rows(key):
    """One key's row expansions, rebuilt seed by seed from ``reference_prg``
    and the wire words: each held seed's expansion XOR its column's word."""
    params = key.params
    nbytes = params.row_bytes
    words = [
        BitString.from_bytes(key.words[j * nbytes : (j + 1) * nbytes], params.row_bits)
        for j in range(params.seeds_per_row)
    ]
    rows = []
    for seeds in key.sigma:
        acc = BitString(0, params.row_bits)
        for seed, word in zip(seeds, words):
            if seed != b"\x00" * 16:
                acc ^= BitString(reference_prg(seed, params.row_bits), params.row_bits) ^ word
        rows.append(acc)
    return rows


def leading_slots(value, slots, params):
    """The first ``2**n`` ``m``-bit slot values of a ``slots * m``-bit int,
    slot 0 in the top bits, read by integer shifts."""
    mask = (1 << params.m) - 1
    return [(value >> ((slots - 1 - x) * params.m)) & mask for x in range(params.domain_size)]


@pytest.mark.parametrize(
    "parties, n, m, mu",
    [
        (2, 6, 3, None),
        (3, 6, 3, None),
        (4, 5, 2, None),
        (5, 5, 2, None),
        (3, 10, 17, 100),  # padded rows: nu * mu = 1,100 slots cover 1,024
        (3, 8, 5, 256),  # one wide row
        (2, 6, 1, None),  # p = 2 leaves some parties rows without seeds
    ],
)
@pytest.mark.parametrize("sub_batch_keys", [None, 3])
def test_batch_groups_equal_xor_of_shares(parties, n, m, mu, sub_batch_keys, monkeypatch):
    params = pw.FssParams(n=n, parties=parties, m=m, mu=mu)
    if sub_batch_keys:
        # whole 16-byte PRG blocks per expansion, every seed counted as held
        key_bytes = params.nu * params.seeds_per_row * -(-params.row_bytes // 16) * 16
        monkeypatch.setattr(pw, "_BATCH_BYTES", sub_batch_keys * key_bytes)
    rng = np.random.default_rng(1000 * parties + n)
    keys = []
    for _ in range(10):
        a = int(rng.integers(0, params.domain_size))
        b = int(rng.integers(0, 1 << m))
        keys.append(pw.fss_gen(pw.PointFunction(a, b), params, rng)[int(rng.integers(0, parties))])
    # group 0 holds one key, group 2 none, the rest are interleaved
    groups = [0, 1, 3, 1, 3, 3, 1, 4, 4, 1]
    out = pw.fss_evaluate_batch(keys, groups, 5)
    assert out.shape == (5, params.domain_size) and out.dtype == np.uint64
    for g in range(5):
        members = [key for key, group in zip(keys, groups) if group == g]
        expected_rows = [BitString(0, params.row_bits)] * params.nu
        share = BitString(0, params.domain_size * m)
        for key in members:
            expected_rows = [x ^ y for x, y in zip(expected_rows, reference_rows(key))]
            share ^= pw.fss_evaluate_share(key)
        # the rows abut with their pad bits dropped; slots past 2**n fall away
        database = 0
        for row in expected_rows:
            database = (database << params.row_bits) | row.value
        assert out[g].tolist() == leading_slots(database, params.nu * params.mu, params), g
        assert out[g].tolist() == leading_slots(share.value, params.domain_size, params), g
    assert not out[2].any()
    if parties == 2:
        assert any(all(s == b"\x00" * 16 for s in row) for key in keys for row in key.sigma)


def test_batch_rejects_mixed_geometry_and_bad_groups():
    rng = np.random.default_rng(12)
    a = pw.fss_gen(pw.PointFunction(1, 1), pw.FssParams(n=4, parties=2, m=2), rng)[0]
    b = pw.fss_gen(pw.PointFunction(1, 1), pw.FssParams(n=4, parties=2, m=3), rng)[0]
    with pytest.raises(ValueError):
        pw.fss_evaluate_batch([a, b], [0, 0], 1)
    with pytest.raises(ValueError):
        pw.fss_evaluate_batch([a], [1], 1)
    with pytest.raises(ValueError):
        pw.fss_evaluate_batch([a], [-1], 1)
    with pytest.raises(ValueError):
        pw.fss_evaluate_batch([], [], 1)


def test_sigma_is_rows_of_seed_slots():
    rng = np.random.default_rng(14)
    for parties, mu in ((2, None), (3, 100), (4, None)):
        params = pw.FssParams(n=7, parties=parties, m=5, mu=mu)
        for key in pw.fss_gen(pw.PointFunction(50, 9), params, rng):
            spr = params.seeds_per_row
            assert len(key.seeds) == params.nu * spr * 16
            slots = [key.seeds[i : i + 16] for i in range(0, len(key.seeds), 16)]
            assert key.sigma == tuple(
                tuple(slots[r * spr : (r + 1) * spr]) for r in range(params.nu)
            )


def test_fss_gen_validates_point():
    params = pw.FssParams(n=4, parties=2, m=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        pw.fss_gen(pw.PointFunction(16, 0), params, rng)
    with pytest.raises(ValueError):
        pw.fss_gen(pw.PointFunction(0, 4), params, rng)


# mu = 100 gives 213-byte words, which are not whole 4-byte draws
BATCH_GEOMETRIES = [(None, 3), (1024, 3), (100, 3), (100, 2), (None, 4)]


@pytest.mark.parametrize("mu,parties", BATCH_GEOMETRIES)
def test_fss_gen_batch_keys_reconstruct_each_write(mu, parties):
    params = pw.FssParams(n=10, parties=parties, m=17, mu=mu)
    rng = np.random.default_rng(31)
    # writes in many rows, two in one row, a null write and the last slot
    slots = [700, 0, 701, 1023, 5, 512]
    messages = [0x1ABCD, 1, 0, (1 << 17) - 1, 0x15555, 2]
    keys = pw.fss_gen_batch(slots, messages, params, rng)
    assert len(keys) == len(slots)
    for write_keys, slot, message in zip(keys, slots, messages):
        assert [k.party_index for k in write_keys] == list(range(parties))
        assert full_reconstruction(write_keys) == pw.unit_write(slot, message, 1024, 17)


@pytest.mark.parametrize("mu,parties", BATCH_GEOMETRIES)
def test_fss_gen_batch_draws_seeds_selections_then_words(mu, parties):
    # the keys stream of a batch: every write's seeds in one draw, then the
    # selection matrices, then each write's drawn words, each as one bytes
    # call of its own would give them
    params = pw.FssParams(n=10, parties=parties, m=17, mu=mu)
    slots, messages = [3, 900, 450], [7, 0, 0x1FFFF]
    rng = np.random.default_rng(32)
    keys = pw.fss_gen_batch(slots, messages, params, rng)
    reference = np.random.default_rng(32)
    nu, spr, nbytes = params.nu, params.seeds_per_row, params.row_bytes
    seeds = reference.bytes(len(slots) * nu * spr * 16)
    reference.integers(0, 2, size=(len(slots), nu, parties - 1, spr), dtype=np.uint8)
    pad = (0xFF << (8 * nbytes - params.row_bits)) & 0xFF  # the pad bits read 0
    for w, write_keys in enumerate(keys):
        drawn = [reference.bytes(nbytes) for _ in range(spr - 1)]
        drawn = b"".join(word[:-1] + bytes([word[-1] & pad]) for word in drawn)
        assert write_keys[0].words[: len(drawn)] == drawn
        assert all(k.words is write_keys[0].words for k in write_keys)
        own = np.frombuffer(seeds, np.uint8).reshape(len(slots), nu * spr, 16)[w]
        for key in write_keys:
            held = np.frombuffer(key.seeds, np.uint8).reshape(nu * spr, 16)
            assert np.all((held == own).all(axis=1) | (held == 0).all(axis=1))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_fss_gen_is_a_batch_of_one():
    params = pw.FssParams(n=10, parties=3, m=17, mu=100)
    rng, batch_rng = np.random.default_rng(33), np.random.default_rng(33)
    for slot, message in ((700, 0x1ABCD), (99, 0), (1023, 1)):
        single = pw.fss_gen(pw.PointFunction(slot, message), params, rng)
        (batch,) = pw.fss_gen_batch([slot], [message], params, batch_rng)
        assert [pw.key_serialize(k) for k in single] == [pw.key_serialize(k) for k in batch]
        assert rng.bit_generator.state == batch_rng.bit_generator.state


def test_fss_gen_batch_validates_every_write():
    params = pw.FssParams(n=4, parties=2, m=2)
    rng = np.random.default_rng(0)
    for slots, messages in (([0, 16], [1, 1]), ([3, -1], [1, 1]), ([0, 1], [1, 4]), ([0], [-1])):
        with pytest.raises(ValueError):
            pw.fss_gen_batch(slots, messages, params, rng)
    with pytest.raises(ValueError):
        pw.fss_gen_batch([0, 1], [1], params, rng)


def test_it_and_fss_reconstruct_identical_databases():
    rng = np.random.default_rng(77)
    n, m, parties = 6, 5, 3
    params = pw.FssParams(n=n, parties=parties, m=m)
    writes = [
        (int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << m))) for _ in range(12)
    ]
    db_it = BitString(0, (1 << n) * m)
    db_fss = BitString(0, (1 << n) * m)
    for a, b in writes:
        for share in it_gen(pw.PointFunction(a, b), n, m, parties, rng):
            db_it ^= share
        for key in pw.fss_gen(pw.PointFunction(a, b), params, rng):
            db_fss ^= pw.fss_evaluate_share(key)
    assert db_it == db_fss


def test_partial_coalition_bits_look_unbiased():
    """Regression tripwire, not a security proof.

    XOR of p-1 shares at an ordinary row equals the absent party's row
    expansion. Rows where the absent party holds no seeds expand to zero by
    construction, so the tally conditions on rows where it holds at least one
    seed; there each bit mixes a fresh PRG output and should be fair. Fixed
    seed keeps the check deterministic.
    """
    params = pw.FssParams(n=8, parties=3, m=1)
    rng = np.random.default_rng(20240817)
    total_bits = params.domain_size * params.m
    ones = np.zeros(total_bits)
    trials = np.zeros(total_bits)
    zero_seed = b"\x00" * 16
    for _ in range(300):
        a = int(rng.integers(0, params.domain_size))
        b = 1
        keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
        gamma = a // params.mu
        coalition = pw.fss_evaluate_share(keys[1]) ^ pw.fss_evaluate_share(keys[2])
        bits = coalition.split_fields(1)
        for row in range(params.nu):
            if row == gamma:
                continue
            if all(s == zero_seed for s in keys[0].sigma[row]):
                continue
            start = row * params.mu
            width = min(params.mu, total_bits - start)
            for i in range(width):
                trials[start + i] += 1
                ones[start + i] += bits[start + i]
    informative = trials >= 50
    assert informative.sum() > 200
    freq = ones[informative] / trials[informative]
    sigma = 0.5 / np.sqrt(trials[informative])
    assert np.all(np.abs(freq - 0.5) <= 4 * sigma)


# -- serialization --------------------------------------------------------------


def test_key_size_formula_frozen_reference():
    # p=3, n=17, m=1, 128-bit seeds:
    #   payload bits = 181*4*128 + 4*725 = 95,572
    #   serialized   = 16 + 181*4*16 + 4*91 = 11,964 bytes
    params = pw.FssParams(n=17, parties=3, m=1)
    payload_bits = params.nu * params.seeds_per_row * 128 + params.seeds_per_row * params.row_bits
    assert payload_bits == 95572
    assert pw.key_size_bytes(params) == 11964


def test_serialized_length_matches_formula_bit_exactly():
    rng = np.random.default_rng(4)
    for parties, n, m in [(2, 3, 1), (3, 6, 5), (4, 5, 3), (2, 9, 2)]:
        params = pw.FssParams(n=n, parties=parties, m=m)
        keys = pw.fss_gen(pw.PointFunction(1, 1), params, rng)
        blob = pw.key_serialize(keys[0])
        assert len(blob) == pw.key_size_bytes(params)
        # the body is the seed slots, then each word padded to whole bytes
        assert 8 * len(keys[0].seeds) == params.nu * params.seeds_per_row * 128
        assert len(keys[0].words) == params.seeds_per_row * -(-params.row_bits // 8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(2, 4), st.integers(1, 8), st.integers(0, 2**32))
def test_serialize_round_trip(n, parties, m, seed):
    rng = np.random.default_rng(seed)
    params = pw.FssParams(n=n, parties=parties, m=m)
    a = int(rng.integers(0, params.domain_size))
    b = int(rng.integers(0, 1 << m))
    keys = pw.fss_gen(pw.PointFunction(a, b), params, rng)
    for key in keys:
        back = pw.key_deserialize(pw.key_serialize(key))
        assert back == key
        assert pw.fss_evaluate_share(back) == pw.fss_evaluate_share(key)


def test_deserialize_zeroes_pad_bits():
    # m * mu = 18 bits per word: the last byte of each word carries 6 pad bits
    rng = np.random.default_rng(16)
    params = pw.FssParams(n=4, parties=2, m=3)
    assert params.row_bits == 18 and params.row_bytes == 3
    key = pw.fss_gen(pw.PointFunction(5, 6), params, rng)[1]
    clean = pw.key_serialize(key)
    dirty = bytearray(clean)
    words_at = len(clean) - params.seeds_per_row * params.row_bytes
    for j in range(params.seeds_per_row):
        last = words_at + (j + 1) * params.row_bytes - 1
        assert clean[last] & 0x3F == 0
        dirty[last] |= 0x3F
    back = pw.key_deserialize(bytes(dirty))
    assert back == pw.key_deserialize(clean) == key
    assert pw.key_serialize(back) == clean


def test_deserialize_rejects_malformed():
    rng = np.random.default_rng(6)
    params = pw.FssParams(n=4, parties=2, m=2)
    blob = pw.key_serialize(pw.fss_gen(pw.PointFunction(3, 1), params, rng)[0])
    with pytest.raises(ParseError):
        pw.key_deserialize(blob[:10])
    with pytest.raises(ParseError):
        pw.key_deserialize(blob + b"\x00")
    with pytest.raises(ParseError):
        pw.key_deserialize(blob[:-1])
    bad_version = bytes([99]) + blob[1:]
    with pytest.raises(ParseError):
        pw.key_deserialize(bad_version)
    # header claiming rows that cannot cover the database
    bad_geometry = bytearray(blob)
    bad_geometry[8:12] = (1).to_bytes(4, "little")  # mu = 1
    bad_geometry[12:16] = (1).to_bytes(4, "little")  # nu = 1
    with pytest.raises(ParseError):
        pw.key_deserialize(bytes(bad_geometry))
    bad_party = bytearray(blob)
    bad_party[1] = 7
    with pytest.raises(ParseError):
        pw.key_deserialize(bytes(bad_party))


def test_deserialize_checks_seed_width_and_row_count():
    rng = np.random.default_rng(8)
    params = pw.FssParams(n=4, parties=2, m=2, mu=4)
    blob = pw.key_serialize(pw.fss_gen(pw.PointFunction(3, 1), params, rng)[0])
    assert struct.unpack_from("<HII", blob, 6) == (128, 4, 4)  # lam, mu, nu
    wide_seeds = bytearray(blob)
    wide_seeds[6:8] = (256).to_bytes(2, "little")
    with pytest.raises(ParseError, match="seeds"):
        pw.key_deserialize(bytes(wide_seeds))
    # a row more or less than the derived nu, with the body sized to match
    row = params.seeds_per_row * pw.SEED_BYTES
    sigma_end = 16 + params.nu * row
    for nu, body in (
        (5, blob[16:sigma_end] + blob[sigma_end - row : sigma_end]),
        (3, blob[16 : sigma_end - row]),
    ):
        header = bytearray(blob[:16])
        header[12:16] = nu.to_bytes(4, "little")
        with pytest.raises(ParseError, match="rows"):
            pw.key_deserialize(bytes(header) + body + blob[sigma_end:])


def test_deserialize_rejects_format_version_1():
    # version 1 keys were built for the per-seed AES-CTR PRG; their last
    # correction word does not match the fixed-key expansion
    rng = np.random.default_rng(10)
    params = pw.FssParams(n=5, parties=3, m=3)
    blob = pw.key_serialize(pw.fss_gen(pw.PointFunction(9, 5), params, rng)[1])
    assert blob[0] == pw.KEY_FORMAT_VERSION == 2
    with pytest.raises(ParseError, match="version 1"):
        pw.key_deserialize(bytes([1]) + blob[1:])


def test_seeded_keys_keep_their_bytes():
    # format version 2 fixes these bytes; changing them needs a new version
    rng = np.random.default_rng(2024)
    blob = b""
    for mu in (None, 1024, 100):
        params = pw.FssParams(n=10, parties=3, m=17, mu=mu)
        keys = pw.fss_gen(pw.PointFunction(a=700, b=0x1ABCD), params, rng)
        blob += b"".join(pw.key_serialize(k) for k in keys)
    assert pw.KEY_FORMAT_VERSION == 2
    assert len(blob) == 35820
    assert hashlib.sha256(blob).hexdigest() == (
        "da9544a43e5a714d3c7f2c3842563059c8621c3d820af7c60edea173b0929086"
    )
