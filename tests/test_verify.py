"""Verification-protocol tests.

The decision rules are pinned two ways: statistically in the production
field, and exhaustively in a mirror field of size 17 where every blinding
matrix can be enumerated. The mirror-field expectations below were frozen
from an independent brute force over all matrices; the production functions
must reproduce them decision for decision. The epoch's challenge check is
pinned against a Python-int opening, and its error bound is counted over
every vector, pair offset and challenge row of the mirror field.
"""

import itertools
import math

import numpy as np
import pytest

from covercount import verify
from covercount.errors import DimensionError, IncompleteSubmissionError
from covercount.field import MODULUS, m61_mul, m61_sum

import reference

MIRROR = 17
NONZERO = range(1, MIRROR)


def mirror_s(matrix, u_hat):
    return [sum(r * x for r, x in zip(row, u_hat)) % MIRROR for row in matrix]


def square_matrices(parties, columns):
    for base in itertools.product(NONZERO, repeat=columns):
        yield [[pow(b, j + 1, MIRROR) for b in base] for j in range(parties)]


def tied_matrices(kind, parties, columns):
    for flat in itertools.product(NONZERO, repeat=(parties - 1) * columns):
        free = [list(flat[i * columns : (i + 1) * columns]) for i in range(parties - 1)]
        prod = [math.prod(col) % MIRROR for col in zip(*free)]
        last = prod if kind == "product" else [pow(x, -1, MIRROR) for x in prod]
        yield free + [last]


# -- construction --------------------------------------------------------------


def test_additive_share_sums_to_input():
    rng = np.random.default_rng(0)
    u = [0, 1, 0, 0]
    single = verify.additive_share(u, 1, rng)
    assert single == [tuple(u)]
    for parties in (2, 3, 5):
        shares = verify.additive_share(u, parties, rng)
        assert len(shares) == parties
        for i in range(len(u)):
            assert sum(s[i] for s in shares) % MODULUS == u[i]
    zero_shares = verify.additive_share([0, 0, 0], 3, rng)
    for i in range(3):
        assert sum(s[i] for s in zero_shares) % MODULUS == 0


def test_make_blinding_square_rows_are_powers():
    rng = np.random.default_rng(1)
    mat = verify.make_blinding("square", 6, 4, rng)
    assert mat.parties == 4 and mat.columns == 6
    for j, row in enumerate(mat.entries):
        for i, x in enumerate(row):
            assert x == pow(mat.entries[0][i], j + 1, MODULUS)
            assert x != 0


def test_make_blinding_product_column_constraint():
    rng = np.random.default_rng(2)
    mat = verify.make_blinding("product", 5, 3, rng)
    for i in range(5):
        prod = 1
        for row in mat.entries[:-1]:
            prod = prod * row[i] % MODULUS
        assert prod == mat.entries[-1][i]


def test_make_blinding_inverse_column_constraint():
    rng = np.random.default_rng(3)
    mat = verify.make_blinding("inverse", 5, 3, rng)
    for i in range(5):
        prod = 1
        for row in mat.entries:
            prod = prod * row[i] % MODULUS
        assert prod == 1


def test_make_blinding_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        verify.make_blinding("cube", 3, 3, rng)
    with pytest.raises(ValueError):
        verify.make_blinding("square", 3, 1, rng)
    with pytest.raises(ValueError):
        verify.make_blinding("square", 0, 3, rng)


def test_blind_dimension_mismatch():
    rng = np.random.default_rng(5)
    mat = verify.make_blinding("square", 4, 2, rng)
    with pytest.raises(DimensionError):
        verify.blind(mat, [1, 2, 3])


def test_blind_zero_share_is_zero():
    rng = np.random.default_rng(6)
    mat = verify.make_blinding("product", 4, 3, rng)
    assert verify.blind(mat, [0, 0, 0, 0]) == (0, 0, 0)


def test_blinded_shares_sum_to_blinded_unit_vector():
    # the bracket expansion: summing R.V_i over parties regroups to R.u
    rng = np.random.default_rng(7)
    u = [0, 1]
    mat = verify.make_blinding("square", 2, 3, rng)
    shares = verify.additive_share(u, 3, rng)
    total = verify.aggregate(verify.blind(mat, v) for v in shares)
    r1, r2 = mat.entries[0]
    expected = tuple(
        (r1**j * sum(v[0] for v in shares) + r2**j * sum(v[1] for v in shares))
        % MODULUS
        for j in (1, 2, 3)
    )
    assert total == expected
    assert total == verify.blind(mat, u)


def test_blind_linearity():
    rng = np.random.default_rng(8)
    mat = verify.make_blinding("inverse", 5, 3, rng)
    v = [int(x) for x in rng.integers(0, MODULUS, 5)]
    w = [int(x) for x in rng.integers(0, MODULUS, 5)]
    vw = [(int(a) + int(b)) % MODULUS for a, b in zip(v, w)]
    left = verify.blind(mat, vw)
    right = tuple(
        (a + b) % MODULUS
        for a, b in zip(verify.blind(mat, v), verify.blind(mat, w))
    )
    assert left == right


def test_aggregate_order_independent():
    rng = np.random.default_rng(9)
    rows = [tuple(int(x) for x in rng.integers(0, MODULUS, 3)) for _ in range(4)]
    assert verify.aggregate(rows) == verify.aggregate(reversed(rows))


# -- production-field completeness and soundness --------------------------------


@pytest.mark.parametrize("kind", verify.KINDS)
def test_completeness_one_hot_always_accepts(kind):
    rng = np.random.default_rng(10)
    n, parties = 8, 3
    for _ in range(1000):
        u = [0] * n
        u[rng.integers(0, n)] = 1
        mat = verify.make_blinding(kind, n, parties, rng)
        shares = verify.additive_share(u, parties, rng)
        blinded = [verify.blind(mat, v) for v in shares]
        assert verify.CHECKS[kind](verify.aggregate(blinded))


@pytest.mark.parametrize("kind", verify.KINDS)
def test_soundness_random_non_unit_rejected(kind):
    rng = np.random.default_rng(11)
    n, parties = 8, 3
    rejected = 0
    for _ in range(1000):
        u = [0] * n
        hot = rng.choice(n, size=2, replace=False)
        for i in hot:
            u[i] = int(rng.integers(1, MODULUS))
        mat = verify.make_blinding(kind, n, parties, rng)
        shares = verify.additive_share(u, parties, rng)
        blinded = [verify.blind(mat, v) for v in shares]
        rejected += not verify.CHECKS[kind](verify.aggregate(blinded))
    assert rejected >= 999


def test_zero_vector_per_kind():
    rng = np.random.default_rng(12)
    n, parties = 6, 3
    for _ in range(50):
        shares = verify.additive_share([0] * n, parties, rng)
        for kind, expect in (("square", True), ("product", True), ("inverse", False)):
            mat = verify.make_blinding(kind, n, parties, rng)
            got = verify.CHECKS[kind](verify.aggregate([verify.blind(mat, v) for v in shares]))
            assert got is expect


def test_inflation_value_two_rejected_by_square():
    rng = np.random.default_rng(13)
    for _ in range(200):
        u = [0] * 6
        u[rng.integers(0, 6)] = 2
        mat = verify.make_blinding("square", 6, 3, rng)
        shares = verify.additive_share(u, 3, rng)
        blinded = [verify.blind(mat, v) for v in shares]
        assert not verify.check_square(verify.aggregate(blinded))


def test_outcome_depends_only_on_input_vector():
    rng = np.random.default_rng(14)
    u = [0, 0, 1, 0]
    mat = verify.make_blinding("square", 4, 3, rng)
    aggregates = set()
    for _ in range(100):
        shares = verify.additive_share(u, 3, rng)
        blinded = [verify.blind(mat, v) for v in shares]
        aggregates.add(verify.aggregate(blinded))
        assert verify.check_square(verify.aggregate(blinded))
    assert len(aggregates) == 1


def test_malformed_submissions_raise():
    rng = np.random.default_rng(15)
    mat = verify.make_blinding("square", 4, 3, rng)
    shares = verify.additive_share([0, 1, 0, 0], 3, rng)
    blinded = [verify.blind(mat, v) for v in shares]
    with pytest.raises(IncompleteSubmissionError):
        verify.aggregate([])
    with pytest.raises(DimensionError):
        verify.aggregate([blinded[0], blinded[1][:2], blinded[2]])
    with pytest.raises(DimensionError):
        verify.blind(mat, shares[0][:3])
    with pytest.raises(ValueError):
        verify.check_batch(np.array([verify.aggregate(blinded)], np.uint64), "cube")


# -- mirror-field exhaustive truth tables ---------------------------------------

CASES = {
    "zero": (0, 0),
    "e0": (1, 0),
    "e1": (0, 1),
    "two_e0": (2, 0),
    "double_hot": (1, 1),
    "mixed": (1, 2),
}

SQUARE_P2_ACCEPTS = {"zero": 256, "e0": 256, "e1": 256, "two_e0": 0, "double_hot": 0, "mixed": 16}
SQUARE_P3_ACCEPTS = {"zero": 256, "e0": 256, "e1": 256, "two_e0": 0, "double_hot": 0, "mixed": 0}
PRODUCT_P3_ACCEPTS = {"zero": 65536, "e0": 65536, "e1": 65536, "two_e0": 0, "double_hot": 4096, "mixed": 3840}
INVERSE_P3_ACCEPTS = {"zero": 0, "e0": 65536, "e1": 65536, "two_e0": 0, "double_hot": 1536, "mixed": 4608}


@pytest.mark.parametrize(
    "parties,expected", [(2, SQUARE_P2_ACCEPTS), (3, SQUARE_P3_ACCEPTS)]
)
def test_mirror_square_truth_table(parties, expected):
    counts = dict.fromkeys(CASES, 0)
    for idx, mat in enumerate(square_matrices(parties, 2)):
        for name, u in CASES.items():
            s = mirror_s(mat, u)
            ok = verify.check_square(s, modulus=MIRROR)
            counts[name] += ok
            if idx % 19 == 0:
                # independent predicate straight from the row definition
                assert ok == all(
                    pow(s[0], j + 1, MIRROR) == s[j] for j in range(1, parties)
                )
    assert counts == expected


@pytest.mark.parametrize(
    "kind,checker,expected",
    [
        ("product", verify.check_product, PRODUCT_P3_ACCEPTS),
        ("inverse", verify.check_inverse, INVERSE_P3_ACCEPTS),
    ],
)
def test_mirror_tied_truth_tables(kind, checker, expected):
    counts = dict.fromkeys(CASES, 0)
    target = 1 if kind == "inverse" else None
    for idx, mat in enumerate(tied_matrices(kind, 3, 2)):
        for name, u in CASES.items():
            s = mirror_s(mat, u)
            ok = checker(s, modulus=MIRROR)
            counts[name] += ok
            if idx % 997 == 0:
                if kind == "product":
                    assert ok == (s[0] * s[1] % MIRROR == s[2])
                else:
                    assert ok == (s[0] * s[1] * s[2] % MIRROR == target)
    assert counts == expected


def test_mirror_pipeline_matches_direct_projection():
    # share -> blind -> aggregate in the mirror field lands exactly on R.u
    rng = np.random.default_rng(16)
    for kind in verify.KINDS:
        for _ in range(50):
            u = [int(x) for x in rng.integers(0, MIRROR, size=3)]
            mat = verify.make_blinding(kind, 3, 3, rng, modulus=MIRROR)
            shares = verify.additive_share(u, 3, rng, modulus=MIRROR)
            total = verify.aggregate(
                (verify.blind(mat, v, modulus=MIRROR) for v in shares),
                modulus=MIRROR,
            )
            assert list(total) == mirror_s(mat.entries, u)


def test_mirror_blinding_hides_hot_index():
    # over all square matrices, the revealed aggregate for e0 and e1 has the
    # same distribution; an observer cannot tell which slot was written
    hist = {0: [], 1: []}
    for mat in square_matrices(2, 2):
        for a in (0, 1):
            u = [0, 0]
            u[a] = 1
            hist[a].append(tuple(mirror_s(mat, u)))
    assert sorted(hist[0]) == sorted(hist[1])


# -- batched variants ------------------------------------------------------------


def test_additive_share_batch_sums():
    rng = np.random.default_rng(17)
    u = np.zeros((10, 6), np.uint64)
    u[np.arange(10), rng.integers(0, 6, 10)] = 1
    shares = verify.additive_share_batch(u, 3, rng)
    assert shares.shape == (3, 10, 6)
    assert np.array_equal(m61_sum(shares, axis=0), u)


def test_make_blinding_batch_invariants():
    rng = np.random.default_rng(18)
    sq = verify.make_blinding_batch("square", 5, 3, 20, rng)
    assert np.array_equal(sq[:, 1], m61_mul(sq[:, 0], sq[:, 0]))
    assert np.array_equal(sq[:, 2], m61_mul(sq[:, 1], sq[:, 0]))
    pr = verify.make_blinding_batch("product", 5, 3, 20, rng)
    assert np.array_equal(m61_mul(pr[:, 0], pr[:, 1]), pr[:, 2])
    inv = verify.make_blinding_batch("inverse", 5, 3, 20, rng)
    triple = m61_mul(m61_mul(inv[:, 0], inv[:, 1]), inv[:, 2])
    assert np.all(triple == 1)
    assert not np.any(sq == 0) and not np.any(pr == 0) and not np.any(inv == 0)


def test_blind_batch_matches_scalar():
    rng = np.random.default_rng(19)
    count, parties, n = 5, 3, 7
    mats = verify.make_blinding_batch("square", n, parties, count, rng)
    shares = rng.integers(0, MODULUS, size=(count, n), dtype=np.uint64)
    batch = verify.blind_batch(mats, shares)
    for k in range(count):
        mat = verify.BlindingMatrix(
            "square", tuple(tuple(int(x) for x in row) for row in mats[k])
        )
        assert tuple(int(x) for x in batch[k]) == verify.blind(
            mat, [int(x) for x in shares[k]]
        )


def test_blind_square_fast_path_matches_batch():
    rng = np.random.default_rng(24)
    mats = verify.make_blinding_batch("square", 6, 4, 10, rng)
    shares = rng.integers(0, MODULUS, size=(10, 6), dtype=np.uint64)
    fast = verify.blind_square_batch(mats[:, 0, :].copy(), shares[None], 4)[0]
    assert np.array_equal(fast, verify.blind_batch(mats, shares))
    with pytest.raises(DimensionError):
        verify.blind_square_batch(np.zeros((10, 5), np.uint64), shares[None], 4)


EDGE_VALUES = np.array([0, 1, MODULUS - 1], np.uint64)


def block_rows(columns):
    return max(1, verify._BLOCK_ELEMENTS // columns)


def straddling_shapes():
    """Row counts straddling the kernels' row blocks: one row, one short of
    a block, one past it, and two blocks and a partial third."""
    for columns in (8, 4096):
        block = block_rows(columns)
        for rows in (1, block - 1, block + 1, 2 * block + 3):
            yield rows, columns


def with_edges(rng, shape):
    """Uniform field elements with about a quarter of the entries replaced
    by 0, 1 or p - 1."""
    out = rng.integers(0, MODULUS, size=shape, dtype=np.uint64)
    edges = rng.random(shape) < 0.25
    out[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
    return out


@pytest.mark.parametrize("parties", [2, 3, 5])
@pytest.mark.parametrize("rows,columns", list(straddling_shapes()))
def test_blinding_kernels_match_python_ints(rows, columns, parties):
    rng = np.random.default_rng(rows * columns + parties)
    base = with_edges(rng, (rows, columns))
    shares = with_edges(rng, (rows, columns))
    expected = []
    matrices = np.empty((rows, parties, columns), np.uint64)
    for k, (base_row, share) in enumerate(zip(base.tolist(), shares.tolist())):
        entries = tuple(
            tuple(pow(b, j + 1, MODULUS) for b in base_row) for j in range(parties)
        )
        matrices[k] = entries
        expected.append(verify.blind(verify.BlindingMatrix("square", entries), share))
    square = verify.blind_square_batch(base, shares[None], parties)[0]
    assert [tuple(row) for row in square.tolist()] == expected
    general = verify.blind_batch(matrices, shares)
    assert [tuple(row) for row in general.tolist()] == expected


@pytest.mark.parametrize("parties", [2, 3, 5])
@pytest.mark.parametrize("columns", [64, 4096])
def test_stacked_square_blinding_equals_per_party_calls(columns, parties):
    rng = np.random.default_rng(columns + parties)
    rows = 2 * block_rows(columns) + 1
    base = with_edges(rng, (rows, columns))
    shares = with_edges(rng, (parties, rows, columns))
    stacked = verify.blind_square_batch(base, shares, parties)
    assert stacked.shape == (parties, rows, parties)
    matrices = np.stack([base] * parties, axis=1)
    for j in range(1, parties):
        matrices[:, j] = m61_mul(matrices[:, j - 1], base)
    for i in range(parties):
        alone = verify.blind_square_batch(base, shares[i : i + 1], parties)[0]
        assert np.array_equal(stacked[i], alone)
        assert np.array_equal(stacked[i], verify.blind_batch(matrices, shares[i]))
    with pytest.raises(DimensionError):
        verify.blind_square_batch(base, shares[:, :, :-1], parties)
    with pytest.raises(DimensionError):
        verify.blind_square_batch(base, shares[0], parties)  # one party's 2-D batch
    # the party-axis sum of these outputs and of rows of p - 1 and of zeros,
    # stacked or as a list of per-party arrays
    extremes = np.zeros((parties, 2, parties), np.uint64)
    extremes[:, 0] = MODULUS - 1
    for blinded in (stacked, extremes):
        want = (blinded.astype(object).sum(axis=0) % MODULUS).tolist()
        assert verify.aggregate_batch(blinded).tolist() == want
        assert verify.aggregate_batch(list(blinded)).tolist() == want


@pytest.mark.parametrize("parties", [1, 2, 3, 5])
@pytest.mark.parametrize("rows,columns", list(straddling_shapes()))
def test_additive_share_batch_keeps_the_verify_stream(rows, columns, parties):
    # the stream contract: one (parties - 1, rows, columns) draw, the last
    # share u minus their sum, and the generator left where that draw leaves it
    u = with_edges(np.random.default_rng(rows + columns), (rows, columns))
    rng = np.random.default_rng(97)
    shares = verify.additive_share_batch(u, parties, rng)
    reference_rng = np.random.default_rng(97)
    drawn = reference_rng.integers(
        0, MODULUS, size=(parties - 1, rows, columns), dtype=np.uint64
    )
    last = u.tolist()
    for share in drawn.tolist():
        last = [[(x - y) % MODULUS for x, y in zip(a, b)] for a, b in zip(last, share)]
    assert shares.shape == (parties, rows, columns)
    assert np.array_equal(shares[:-1], drawn)
    assert shares[-1].tolist() == last
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_blind_batch_shape_mismatch():
    rng = np.random.default_rng(20)
    mats = verify.make_blinding_batch("square", 4, 3, 2, rng)
    with pytest.raises(DimensionError):
        verify.blind_batch(mats, np.zeros((2, 5), np.uint64))


@pytest.mark.parametrize("kind", verify.KINDS)
def test_check_batch_matches_scalar(kind):
    rng = np.random.default_rng(21)
    # a mix of genuine aggregates and random noise rows
    rows = []
    for _ in range(30):
        mat = verify.make_blinding(kind, 4, 3, rng)
        u = [0, 0, 0, 0]
        if rng.random() < 0.5:
            u[rng.integers(0, 4)] = 1
        else:
            u = [int(x) for x in rng.integers(0, MODULUS, 4)]
        rows.append(verify.blind(mat, u))
    rows.extend(tuple(int(x) for x in rng.integers(0, MODULUS, 3)) for _ in range(30))
    arr = np.array(rows, np.uint64)
    batch = verify.check_batch(arr, kind)
    scalar = [verify.CHECKS[kind](row) for row in rows]
    assert batch.tolist() == scalar


def test_batch_pipeline_end_to_end():
    rng = np.random.default_rng(22)
    count, parties, n = 200, 3, 16
    u = np.zeros((count, n), np.uint64)
    hot = rng.integers(0, n, count)
    u[np.arange(count), hot] = 1
    # half the owners cheat with a second write
    cheats = np.arange(0, count, 2)
    u[cheats, (hot[cheats] + 1) % n] = 1
    mats = verify.make_blinding_batch("square", n, parties, count, rng)
    shares = verify.additive_share_batch(u, parties, rng)
    blinded = [verify.blind_batch(mats, shares[i]) for i in range(parties)]
    verdict = verify.check_batch(verify.aggregate_batch(blinded), "square")
    expected = np.ones(count, bool)
    expected[cheats] = False
    assert np.array_equal(verdict, expected)


def test_m61_sum_long_rows_used_in_blinding():
    # the dot products above fold thousands of terms; check a long reduction
    rng = np.random.default_rng(23)
    vals = rng.integers(0, MODULUS, size=8192, dtype=np.uint64)
    assert int(m61_sum(vals, axis=0)) == int(vals.sum(dtype=object) % MODULUS)


# -- seed-compressed shares ----------------------------------------------------


def test_expand_m61_skips_words_out_of_range_and_reads_on(monkeypatch):
    # synthetic PRG streams: the real PRG never yields these words in practice
    special = np.arange(1, 65, dtype="<u8")
    special[1] = MODULUS
    special[3] = 0
    special[4] = np.uint64(7 << 61) | np.uint64(MODULUS)  # clears to MODULUS
    special[5] = np.uint64(1 << 62) | np.uint64(5)  # clears to 5
    plain = np.arange(101, 165, dtype="<u8")

    def prg_rows(seeds, nbytes):
        streams = [special if seed[0] else plain for seed in seeds.reshape(-1, 16)]
        return np.stack([s.view(np.uint8)[:nbytes] for s in streams])

    monkeypatch.setattr(verify, "_prg_rows", prg_rows)
    seeds = np.zeros((3, 16), np.uint8)
    seeds[1, 0] = 1
    words = (special & np.uint64(MODULUS)).tolist()
    for low in (0, 1):
        kept = [w for w in words if low <= w < MODULUS]
        rows = verify.expand_m61(seeds, 6, low).tolist()
        assert rows == [plain[:6].tolist(), kept[:6], plain[:6].tolist()]
    assert kept[:6] == [1, 3, 5, 7, 8, 9]


@pytest.mark.parametrize("columns", [1, 7, 64])
def test_expand_m61_matches_the_scalar_reference(columns):
    seeds = np.random.default_rng(columns).integers(0, 256, (5, 16), dtype=np.uint8)
    for low in (0, 1):
        rows = verify.expand_m61(seeds, columns, low)
        expected = [reference.m61_row(seed.tobytes(), columns, low) for seed in seeds]
        assert np.array_equal(rows, expected)



# -- the epoch's challenge check -------------------------------------------------


def opening_reference(shares, rows):
    """The (d, z) opening of each write in Python ints, party by party: x_i
    and y_i against r and r^2, d = sum(x_i - a_i), c_i = 2 d a_i + b_i with
    d^2 added at party 0, and z = sum(c_i - y_i)."""
    r, r2 = rows.tolist()
    columns = len(r)
    out = []
    for views in shares.transpose(1, 0, 2).tolist():
        x = [sum(a * b for a, b in zip(r, v[:columns])) for v in views]
        y = [sum(a * b for a, b in zip(r2, v[:columns])) for v in views]
        d = sum(xi - v[columns] for xi, v in zip(x, views)) % MODULUS
        c = [2 * d * v[columns] + v[columns + 1] for v in views]
        c[0] += d * d
        out.append((d, sum(ci - yi for ci, yi in zip(c, y)) % MODULUS))
    return out


def shared_rows(u, parties, rng):
    """``share_indicators`` records and pair rows for arbitrary rows ``u``
    of field elements: ones where u is nonzero, then each last vector moved
    by u minus those ones."""
    u = np.array(u, dtype=object) % MODULUS
    count, columns = u.shape
    records, pairs = verify.share_indicators(count, np.nonzero(u), parties, columns, rng)
    last = records["last"]
    last[...] = (last.astype(object) + u - (u != 0)) % MODULUS
    return records, pairs


def opened(records, pairs, rng):
    rows = verify.challenge_rows(verify.draw_seeds(1, rng), records["last"].shape[1])
    shares = verify.expand_shares(records, pairs)
    d, z = verify.open_challenge_batch(verify.challenge_values(shares, rows))
    assert list(zip(d.tolist(), z.tolist())) == opening_reference(shares, rows)
    return d, z


@pytest.mark.parametrize("parties", [2, 3, 5])
@pytest.mark.parametrize("count,columns", [(1, 1), (3, 8), (9, 300)])
def test_open_challenge_batch_matches_python_ints(count, columns, parties):
    rng = np.random.default_rng(count * columns + parties)
    shares = with_edges(rng, (parties, count, columns + 2))
    rows = verify.challenge_rows(verify.draw_seeds(1, rng), columns)
    r = rows[0].tolist()
    assert rows[1].tolist() == [x * x % MODULUS for x in r] and min(r) >= 1
    d, z = verify.open_challenge_batch(verify.challenge_values(shares, rows))
    assert list(zip(d.tolist(), z.tolist())) == opening_reference(shares, rows)
    # z = <r, u>^2 - <r^2, u> + (b - a^2) for the shared u and pair (a, b)
    u = shares.astype(object).sum(axis=0) % MODULUS
    for row, zw in zip(u.tolist(), z.tolist()):
        x = sum(ri * ui for ri, ui in zip(r, row))
        y = sum(ri * ri * ui for ri, ui in zip(r, row))
        a, b = row[columns:]
        assert zw == (x * x - y + b - a * a) % MODULUS
    with pytest.raises(DimensionError):
        verify.challenge_values(shares[..., :-1], rows)
    with pytest.raises(DimensionError):
        verify.challenge_values(shares, rows[:1])


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_unit_and_zero_indicators_pass_the_challenge(parties):
    rng = np.random.default_rng(parties)
    count, columns = 40, 64
    real = np.arange(0, count, 2)
    ones = (real, rng.integers(0, columns, real.size))
    records, pairs = verify.share_indicators(count, ones, parties, columns, rng)
    for _ in range(3):
        d, z = opened(records, pairs, rng)
        assert not z.any()
        assert d.all()  # uniform: zero with chance 2^-61 per write


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_bad_writes_fail_the_challenge(parties):
    rng = np.random.default_rng(10 + parties)
    columns = 16
    u = np.zeros((5, columns), dtype=object)
    u[0, [3, 4]] = 1  # two rows
    u[1, [3, 4]] = 2, MODULUS - 1  # weighted, summing to one
    u[2, 3] = 2  # a single entry of 2
    u[3, 5] = u[4, 6] = 1  # honest, then tampered below
    records, pairs = shared_rows(u, parties, rng)
    records["seeds"][3, 0, 0] ^= 1  # a tampered share seed
    pairs[4, 1] = (int(pairs[4, 1]) + 1) % MODULUS  # b = a^2 + 1
    for _ in range(5):
        _, z = opened(records, pairs, rng)
        assert z.all()


def test_mirror_challenge_passes_a_bad_write_for_at_most_two_in_q_minus_one():
    # every vector u and pair offset delta = b - a^2 in the field of 17,
    # against every challenge row of nonzero entries: z = <r, u>^2 -
    # <r^2, u> + delta is a nonzero polynomial of degree 2 in r unless u is a
    # 0/1 vector with at most one 1 and delta = 0, so by Schwartz-Zippel it
    # vanishes on at most 2 (q - 1)^(S - 1) of the (q - 1)^S rows
    q = MIRROR
    for columns in (1, 2, 3):
        rows = np.array(list(itertools.product(NONZERO, repeat=columns)))
        bound, worst = 2 * (q - 1) ** (columns - 1), 0
        for u in itertools.product(range(q), repeat=columns):
            u = np.array(u)
            poly = ((rows @ u) ** 2 - (rows * rows) @ u) % q
            passes = np.bincount((-poly) % q, minlength=q)  # indexed by delta
            legal = set(u.tolist()) <= {0, 1} and u.sum() <= 1
            if legal:
                assert passes[0] == len(rows)
                passes = passes[1:]
            worst = max(worst, int(passes.max()))
        assert worst == bound  # reached: u = 2 e_j gives z = 2 r_j^2 + delta


def test_square_blinding_passes_a_weighted_forgery_on_a_repeated_base():
    # why the epoch no longer lets the owner choose the blinding: a base
    # entry repeated at two columns passes the indicator (2, -1) there
    base = [5, 5, 7]
    entries = tuple(tuple(pow(b, j + 1, MODULUS) for b in base) for j in range(3))
    matrix = verify.BlindingMatrix("square", entries)
    forged = [2, MODULUS - 1, 0]
    shares = verify.additive_share(forged, 3, np.random.default_rng(0))
    s = verify.aggregate(verify.blind(matrix, v) for v in shares)
    assert verify.check_square(s)
    d, z = opened(*shared_rows([forged], 3, np.random.default_rng(1)), np.random.default_rng(2))
    assert z.all()
