"""Epoch simulation tying the layers together.

One epoch runs the full collection round: owners privatize their values
into the mechanism's claim matrix (round x owner x value), every claim
becomes a non-attributable database write, aggregators verify the write
shape, accumulate, exchange and reconstruct the round databases, count the
slots that hold a value's message, and feed the counts to the mechanism's
estimator.

The write plan is columnar (:class:`WritePlan`): one int32 array each for
owner, round, value index and slot, ordered by owner, then round, then value
in domain order. Two config bounds keep every entry in int32: ``n`` is at
most 30 and a population holds fewer than 2**31 owners. A submission chunk
is a slice of the plan, and chunk building, verification and accumulation
read its columns; ``PlannedWrite`` records exist only for readers that
iterate a plan.
Verification is the challenge check of ``verify`` on a factored
indicator: slot = row * B + column over ``EpochConfig.indicator_sides``
(A, B) = (2**floor(n/2), 2**ceil(n/2)), and a write shares a row factor of
A entries and a column factor of B. The check accepts two zero factors (a
null write) and two one-entry factors (one slot), and rejects any other
pair with error at most 2 / (2**61 - 2). A crypto write sends the first
``parties - 1`` parties a seed in place of its factor shares and its
shares of a random pair (a, a**2) per factor, and the last party its
vector and pair rows, so share privacy rests on fixed-key AES as the keys'
does. The aggregators draw one challenge seed per chunk after its shares
are fixed, and the opened values reveal only the verdict. The check is not
bound to the key.

Databases are anonymous mailboxes: a write XORs ``ID || checksum`` into a
uniformly chosen slot. In both modes a round database is a ``(2**n,)``
uint64 array of slot messages, so a message has at most 64 bits;
``BitString`` carries only the released databases, packed from the
nonzero slots when first read. Counting tallies the
slots equal to each value's message: two distinct messages in one slot XOR
into garbage, surfaced as ``collision_drops``, and two identical messages
cancel to an empty slot. Owners with nothing to claim in a round still
submit a null write (message zero), so the traffic an aggregator sees is
the same whether an owner answered or abstained. Both rounds of an owner's
writes travel in a single submission, and only the first submission per
owner counts in an epoch.

Determinism: all randomness inside :func:`run_epoch` derives from
``config.master_seed`` through five named child streams (privatize, slots,
key material, verification, challenge). The keys and verification streams
are drawn per 256-owner chunk, so that chunk size is part of the crypto
stream contract: the keys stream in ``fss_gen_batch``'s order (the seeds of
all the chunk's writes, zero-seed redraws, one column permutation per row,
then one word seed per write), every byte draw as uint32 words viewed as
bytes, the same as one ``bytes`` call; the
verification stream as the 16-byte share seeds of every write (parties 0 to
``parties - 2`` in turn), drawn the same way, then two masks per write,
row factor first, as one uint64 draw below 2**61 - 1. Each seed expands
through the fixed-key AES PRG of ``privwrite`` into the row of M61
elements that ``verify.expand_m61`` defines: a write's row factor share,
its column factor share, then its shares of the two pairs.
``build_chunk`` has ``verify.share_indicators`` write each write's factors
into its last vector and subtract the seeds' expansions one row block at
a time; the collector expands the seeds again, block by block, to verify.
The collector builds the challenge stream on its first keyed chunk and
draws one 16-byte seed from it per verified chunk, in submission order,
which expands to the challenge over the A + B factor entries.
The crypto-free mode consumes the first two streams identically, builds
none of the other three (the first children of a spawn do not depend on
how many are spawned) and submits its plan as one chunk, so its
reconstructed databases, and therefore counts and estimates, are
bit-identical to the full run; it exists to make large sweeps affordable.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import mechanisms as mech
from . import verify
from .errors import ConfigError, PopulationSpecError
from .field import BitString
from .privwrite import FssParams, KeyBatch, fss_evaluate_batch, fss_gen_batch
from .privwrite import fss_evaluate_share, fss_gen  # noqa: F401 the benchmark's trace wraps them

_CHUNK_OWNERS = 256
_ABSENT = -1
_MAX_N = 30  # the write plan is int32: slots lie below 2**n, owners below 2**31
_MAX_OWNERS = 2**31 - 1


@dataclass(frozen=True)
class EpochConfig:
    """Static parameters of one collection round.

    The database has ``2**n`` slots of ``id_bits + checksum_bits`` bits,
    cut into rows of ``mu`` slots (default: ``privwrite.default_mu``). The
    key geometry ``fss`` is built from these fields and ``parties``, so each
    is stated once and ``dataclasses.replace`` rebuilds it. ``domain`` lists
    the claimable value IDs for the multi-value mechanism; the binary
    mechanisms write ID 1 for a Yes. ``messages``, built once like ``fss``,
    is the read-only uint64 message of each plan value index (null: 0).
    """

    parties: int
    k_threshold: int
    n: int
    mech: mech.Mechanism
    id_bits: int
    checksum_bits: int = 16
    mu: int | None = None
    domain: tuple[int, ...] | None = None
    epoch_id: int = 0
    master_seed: int = 0
    fss: FssParams = field(init=False)
    messages: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parties < 2:
            raise ConfigError("at least two aggregation parties are required")
        if self.n > _MAX_N:
            raise ConfigError(f"n must be at most {_MAX_N}, got {self.n}: slots are drawn as int32")
        if self.k_threshold < 2:
            raise ConfigError("release threshold must be at least 2")
        if self.id_bits < 1:
            raise ConfigError("id_bits must be positive")
        if not 1 <= self.checksum_bits <= 32:
            raise ConfigError("checksum_bits must be in [1, 32]")
        if self.message_bits > 64:
            raise ConfigError(f"id_bits + checksum_bits must be at most 64, got {self.message_bits}")
        if not 0 <= self.epoch_id < (1 << 64):
            raise ConfigError("epoch_id must fit in 64 bits")
        if not self.mech.binary:
            if not self.domain:
                raise ConfigError("the multi-value mechanism needs a domain")
            if len(set(self.domain)) != len(self.domain):
                raise ConfigError("domain values must be distinct")
            if any(not 0 <= v < (1 << self.id_bits) for v in self.domain):
                raise ConfigError("domain values must fit id_bits")
        elif self.domain is not None:
            raise ConfigError("domain is only meaningful for the multi mechanism")
        fss = FssParams(n=self.n, parties=self.parties, m=self.message_bits, mu=self.mu)
        object.__setattr__(self, "fss", fss)
        messages = np.array([encode_message(v, self) for v in self.value_ids] + [0], np.uint64)
        if not messages[:-1].all():  # only ID 0 can, when its checksum is 0
            raise ConfigError(
                f"domain value 0 encodes to the empty message at epoch_id {self.epoch_id},"
                " so its writes could never be counted"
            )
        messages.flags.writeable = False
        object.__setattr__(self, "messages", messages)

    @property
    def indicator_sides(self) -> tuple[int, int]:
        """Rows A and columns B of the slot grid that verification factors
        a write's indicator over: slot = row * B + column."""
        return 1 << self.n // 2, 1 << (self.n + 1) // 2

    @property
    def db_slots(self) -> int:
        return self.fss.domain_size

    @property
    def message_bits(self) -> int:
        return self.id_bits + self.checksum_bits

    @property
    def rounds(self) -> int:
        return self.mech.rounds

    @property
    def value_ids(self) -> tuple[int, ...]:
        return (1,) if self.mech.binary else tuple(self.domain)


def checksum(value_id: int, epoch_id: int, checksum_bits: int) -> int:
    """Truncated 8-byte BLAKE2b of the value ID and epoch, stored beside the
    ID by :func:`encode_message`. IDs from 2**32 up pack as 8 bytes, not 4.

    A hash, not a CRC: a CRC is affine over XOR, so the messages of an odd
    number of distinct IDs XOR to the message of the XOR of those IDs, and
    count as that ID when it is in the domain."""
    layout = "<IQ" if value_id < (1 << 32) else "<QQ"
    digest = hashlib.blake2b(struct.pack(layout, value_id, epoch_id), digest_size=8).digest()
    return int.from_bytes(digest, "little") & ((1 << checksum_bits) - 1)


def encode_message(value_id: int, config: EpochConfig) -> int:
    if not 0 <= value_id < (1 << config.id_bits):
        raise ValueError("value ID does not fit id_bits")
    return (value_id << config.checksum_bits) | checksum(
        value_id, config.epoch_id, config.checksum_bits
    )


def count_values(slots: np.ndarray, messages: dict[int, int]) -> tuple[dict[int, int], int]:
    """Count a round's slots per value ID, given ``{value_id: message}``.

    All-zero slots are empty mailboxes. A nonzero slot counts for a value
    only when it equals that value's message; any other nonzero slot (the
    garbage of colliding writes) is tallied in the returned drop count.
    IDs with no slot are left out of the counts. Given only a round's
    nonzero slots, it counts the same.
    """
    # a zero message cannot be told from an empty slot
    ids = {int(message): value_id for value_id, message in messages.items() if message}
    slots = np.asarray(slots, np.uint64)
    found = np.sort(slots[slots != 0])
    table = np.array(sorted(ids), np.uint64)
    hits = np.searchsorted(found, table, "right") - np.searchsorted(found, table, "left")
    counts = {ids[m]: hit for m, hit in zip(table.tolist(), hits.tolist()) if hit}
    return counts, found.size - sum(counts.values())


def check_keys(block, allowed: set, where: str, error: type[ConfigError] = ConfigError) -> None:
    """``block`` is a JSON object with keys from ``allowed``."""
    if not isinstance(block, dict):
        raise error(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise error(f"unknown {where} keys: {sorted(unknown, key=str)}")


def strict_int(value, key: str, error: type[ConfigError] = ConfigError) -> int:
    """A JSON integer, named ``key`` in the error. Fractions, booleans and
    strings are errors rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{key} must be an integer, got {value!r}")
    return value


def plain_decimal(text) -> bool:
    """``text`` spells a non-negative int in ASCII digits: no sign, space, ``_`` or leading 0."""
    return isinstance(text, str) and text.isdecimal() and str(int(text)) == text


def normalize_population(spec: dict) -> dict:
    """Validate a population shape; returns it with the group keys as decimal
    strings sorted by value, the form ``summary.json`` records.

    ``{"total": N, "yes": Y}`` asks for Y Yes owners out of N, and
    ``{"total": N, "groups": {value: count, ...}}`` for ``count`` owners of
    each value. A value is a non-negative int or its plain decimal string,
    so "01" and "1" cannot name one group, and every count a strict integer.
    """
    check_keys(spec, {"total", "yes", "groups"}, "population", PopulationSpecError)
    if "total" not in spec or ("yes" in spec) == ("groups" in spec):
        raise PopulationSpecError("population needs a total and exactly one of 'yes' or 'groups'")
    total = strict_int(spec["total"], "population.total", PopulationSpecError)
    if not 1 <= total <= _MAX_OWNERS:
        raise PopulationSpecError(f"population.total must be in [1, 2**31 - 1], got {total}")
    if "yes" in spec:
        yes = strict_int(spec["yes"], "population.yes", PopulationSpecError)
        if not 0 <= yes <= total:
            raise PopulationSpecError("population.yes must be within [0, population.total]")
        return {"total": total, "yes": yes}
    if not isinstance(spec["groups"], dict):
        raise PopulationSpecError("population.groups must be a JSON object")
    groups: dict[int, int] = {}
    for key, count in spec["groups"].items():
        value = int(key) if plain_decimal(key) else key
        if type(value) is not int or value < 0 or value in groups:
            raise PopulationSpecError(
                f"population.groups keys must name distinct values in plain decimal, got {key!r}"
            )
        groups[value] = strict_int(count, f"population.groups.{key}", PopulationSpecError)
    if min(groups.values(), default=0) < 0 or sum(groups.values()) > total:
        raise PopulationSpecError(
            "population.groups counts must be non-negative and sum to at most population.total"
        )
    return {"total": total, "groups": {str(v): groups[v] for v in sorted(groups)}}


def generate_population(spec: dict, rng: np.random.Generator) -> np.ndarray:
    """Owner truth assignments from a population shape
    (:func:`normalize_population`).

    A ``yes`` shape yields a 0/1 array with Y ones; a ``groups`` shape
    yields value IDs with the unassigned remainder marked absent (-1). Order
    is shuffled so that owner index carries no information.
    """
    spec = normalize_population(spec)
    if "yes" in spec:
        truths = np.zeros(spec["total"], dtype=np.int64)
        truths[: spec["yes"]] = 1
    else:
        truths = np.full(spec["total"], _ABSENT, dtype=np.int64)
        pos = 0
        for value, count in spec["groups"].items():
            truths[pos : pos + count] = int(value)
            pos += count
    return rng.permutation(truths)


# ---------------------------------------------------------------------------
# Owner-side response planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedWrite:
    """One database write: a claimed value at a fresh random slot, or a null
    write (``value_id`` None) standing in for an abstention."""

    owner_id: int
    round_index: int
    slot: int
    value_id: int | None


def _streams(master_seed: int, count: int = 4) -> dict[str, np.random.Generator]:
    """The first ``count`` named child streams; a spawned child does not
    depend on how many are spawned."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    names = ("privatize", "slots", "keys", "verify", "challenge")
    return {name: np.random.default_rng(seq) for name, seq in zip(names, children)}


@dataclass(frozen=True, eq=False)
class WritePlan:
    """Every write of an epoch as int32 columns, ordered by owner, round,
    then value in domain order. ``value`` indexes ``value_ids``; the index
    ``len(value_ids)`` marks the null write of an empty round. Slots fit
    int32 because ``EpochConfig`` bounds ``n`` at 30, owners because a
    population holds at most 2**31 - 1 of them.

    A plan is a sequence of writes: slicing gives a plan of column views,
    and iterating yields one :class:`PlannedWrite` record per write."""

    owner: np.ndarray
    round_index: np.ndarray
    value: np.ndarray
    slot: np.ndarray
    value_ids: tuple[int, ...]

    def __len__(self) -> int:
        return self.owner.size

    def __getitem__(self, index: slice) -> WritePlan:
        if not isinstance(index, slice):
            raise TypeError("a write plan is indexed by slices only")
        columns = (self.owner, self.round_index, self.value, self.slot)
        return WritePlan(*(c[index] for c in columns), self.value_ids)

    def __iter__(self) -> Iterator[PlannedWrite]:
        ids = (*self.value_ids, None)
        columns = (self.owner, self.round_index, self.value, self.slot)
        for owner, round_index, value, slot in zip(*(c.tolist() for c in columns)):
            yield PlannedWrite(owner, round_index, slot, ids[value])


def plan_writes(
    claims: np.ndarray, config: EpochConfig, rng: np.random.Generator
) -> WritePlan:
    """One write per claim of the (rounds, owners, values) claim matrix, or
    one null write for an empty round, each at a slot drawn from ``rng``."""
    rounds, owners, values = claims.shape
    # the (owners, rounds, values + 1) cube of writes, filled round by round:
    # its flat nonzero indices are the plan's order
    width = values + 1
    cube = np.empty((owners, rounds, width), bool)
    empty = ~claims.any(axis=2)
    for r in range(rounds):
        cube[:, r, :values] = claims[r]
        cube[:, r, values] = empty[r]
    flat = np.flatnonzero(cube)
    # int32 arithmetic while the flat index fits it; the columns always do
    flat = flat.astype(np.int32 if cube.size <= 2**31 else np.int64, copy=False)
    owner_round = flat // width
    value = flat - owner_round * width
    owner = owner_round // rounds
    round_index = owner_round - owner * rounds
    # an int32 draw below 2**n <= 2**30 takes the values and generator state of the int64 one
    slot = rng.integers(0, config.db_slots, size=flat.size, dtype=np.int32)
    columns = (owner, round_index, value)
    return WritePlan(*(c.astype(np.int32, copy=False) for c in columns), slot, config.value_ids)


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmissionChunk:
    """A batch of owners' submissions as they arrive at the aggregators.

    ``writes`` is the slice of the epoch's write plan that the owners
    submit. ``indicator_shares`` holds one record per write of additive
    shares of its factored slot indicator (``verify.share_indicators`` over
    ``EpochConfig.indicator_sides``): ``seeds``, the 16-byte seeds that
    parties 0 to ``parties - 2`` expand into their shares of the row and
    column factors and of the write's two pairs (a, a**2), and ``last``,
    the last party's A + B entries, row factor first. ``blinding`` holds
    the last party's ``(writes, 2, 2)`` uint64 pair rows, each factor's
    (a, a**2) minus the other parties' pair shares, sent to that party
    only.
    ``keys`` is the writes' FSS keys as one ``privwrite.KeyBatch`` of
    arrays (``keys[w]`` builds write ``w``'s party keys), and ``owner_ids``
    the contiguous owner range of the writes, each owner with at least one
    write. A crypto-free chunk carries the planned writes only.
    """

    owner_ids: np.ndarray
    writes: WritePlan
    keys: KeyBatch | None
    indicator_shares: np.ndarray | None
    blinding: np.ndarray | None


@dataclass
class EpochDiagnostics:
    """Exact bookkeeping, for operators and tests; not part of the release."""

    participants: int = 0
    accepted: int = 0
    rejected_submissions: int = 0
    rejected_owner_ids: tuple[int, ...] = ()
    duplicate_submissions: int = 0
    writes_per_round: tuple[int, ...] = ()
    collision_drops: tuple[int, ...] = ()


@dataclass
class EpochResult:
    """Outcome of one epoch. When ``halted`` the released section is empty:
    below the participation threshold nothing is published, though the
    diagnostics keep exact numbers for the operator.

    The reconstructed ``slot_shape`` = (rounds, 2**n) slot array is kept
    sparse, as the flat index and message of each nonzero slot, and packed
    into ``databases`` on first read."""

    halted: bool
    epoch_id: int
    k_threshold: int
    counts: tuple[dict[int, int], ...]
    estimates: dict[int, float]
    diagnostics: EpochDiagnostics
    slot_shape: tuple[int, int]
    message_bits: int
    nonzero_slots: np.ndarray = field(repr=False, compare=False)
    nonzero_messages: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def databases(self) -> tuple[BitString, ...]:
        """The released round databases; none when halted."""
        slots = np.zeros(self.slot_shape, np.uint64)
        slots.ravel()[self.nonzero_slots] = self.nonzero_messages
        return tuple(BitString.from_fields(s, self.message_bits) for s in slots)

    def released(self) -> dict | None:
        """The public view: counts and estimates, participation only as a
        threshold statement, never an exact headcount."""
        if self.halted:
            return None
        return {
            "participation": f">={self.k_threshold}",
            "counts": [
                {str(k): v for k, v in sorted(c.items())} for c in self.counts
            ],
            "estimates": {str(k): v for k, v in sorted(self.estimates.items())},
        }

    def to_json_bytes(self) -> bytes:
        payload = {
            "epoch_id": self.epoch_id,
            "halted": self.halted,
            "released": self.released(),
            "databases_sha256": [
                hashlib.sha256(db.to_bytes()).hexdigest() for db in self.databases
            ],
            "diagnostics": asdict(self.diagnostics),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class EpochCollector:
    """Aggregator state over one epoch: the round databases, verification
    verdicts, the challenge stream, and the dedup ledger. The databases
    are one ``(parties, rounds, 2**n)`` uint64 slot array, and each chunk
    decides how it is collected: one batch evaluation of a keyed chunk's
    verified writes XORs party i's expansions into ``[i]``, and a keyless
    (crypto-free) chunk's accepted non-null messages are XORed into their
    slots of ``[0]`` as plaintext. ``finalize`` XORs the layers a chunk wrote into the round
    databases, so a crypto-free epoch reduces layer 0 only."""

    def __init__(self, config: EpochConfig):
        self.config = config
        rounds = config.rounds
        self._acc = np.zeros((config.parties, rounds, config.db_slots), np.uint64)
        self._layers = 0  # leading layers of _acc that a chunk has written
        self._seen = np.zeros(0, bool)  # indexed by owner ID
        self._rejected: list[int] = []
        self._duplicates = 0
        self._writes_per_round = np.zeros(rounds, np.int64)
        self._challenge: np.random.Generator | None = None  # built on the first keyed chunk

    def submit(self, chunk: SubmissionChunk) -> None:
        owners = chunk.owner_ids
        if not owners.size:
            return
        start, stop = int(owners[0]), int(owners[-1]) + 1
        if stop > self._seen.size:
            grown = np.zeros(max(stop, 2 * self._seen.size), bool)
            grown[: self._seen.size] = self._seen
            self._seen = grown
        seen = self._seen[start:stop]
        keep = ~seen
        seen[:] = True
        self._duplicates += owners.size - int(keep.sum())
        if not keep.any():
            return
        writes = chunk.writes
        owner_of_write = writes.owner - start
        keyed = chunk.keys is not None
        if keyed:
            rejected = np.zeros(owners.size, bool)
            rejected[owner_of_write[~self._verify(chunk)]] = True
            self._rejected.extend(owners[rejected & keep].tolist())
            keep &= ~rejected
        # take gathers by an int32 index about 3x faster than indexing does
        accepted = keep.take(owner_of_write)
        rounds = writes.round_index[accepted]
        self._writes_per_round += [np.count_nonzero(rounds == r) for r in range(self.config.rounds)]
        if keyed:
            index = np.flatnonzero(accepted)
            if index.size:
                self._layers = self.config.parties
                self._acc ^= fss_evaluate_batch(chunk.keys, index, rounds, self.config.rounds)
            return
        # a keyless chunk is plaintext, XORed unbuffered so that writes sharing
        # a slot all land; a null write's message is 0, so only real ones need it
        real = np.flatnonzero(accepted & (writes.value < len(self.config.value_ids)))
        self._layers = max(self._layers, 1)
        np.bitwise_xor.at(
            self._acc[0],
            (writes.round_index[real], writes.slot[real]),
            self.config.messages[writes.value[real]],
        )

    def _verify(self, chunk: SubmissionChunk) -> np.ndarray:
        """Per-write verdicts of the challenge check: one challenge seed
        from the ``challenge`` stream for the chunk, the parties' values
        against its rows, then one opening of the whole chunk; a write
        passes iff both of its factors open z = 0."""
        config = self.config
        if self._challenge is None:
            self._challenge = _streams(config.master_seed, 5)["challenge"]
        seed = verify.draw_seeds(1, self._challenge)
        rows = verify.challenge_rows(seed, config.indicator_sides)
        values = verify.challenge_values(chunk.indicator_shares, chunk.blinding, rows)
        return ~verify.open_challenge_batch(values)[1].any(axis=1)

    def finalize(self) -> EpochResult:
        config = self.config
        participants = int(np.count_nonzero(self._seen))
        accepted = participants - len(self._rejected)
        diagnostics = EpochDiagnostics(
            participants=participants,
            accepted=accepted,
            rejected_submissions=len(self._rejected),
            rejected_owner_ids=tuple(self._rejected),
            duplicate_submissions=self._duplicates,
            writes_per_round=tuple(self._writes_per_round.tolist()),
        )
        halted = accepted < config.k_threshold
        if halted:
            slots = np.zeros((0, config.db_slots), np.uint64)
        else:
            slots = np.bitwise_xor.reduce(self._acc[: self._layers])
        # one scan for the nonzero slots, which counting splits by round
        nonzero = np.flatnonzero(slots)
        found = slots.ravel()[nonzero]
        counts, estimates = (), {}
        if not halted:
            messages = dict(zip(config.value_ids, config.messages.tolist()))
            ends = np.searchsorted(nonzero, config.db_slots * np.arange(config.rounds + 1))
            ends = ends.tolist()
            rounds = [found[a:b] for a, b in zip(ends, ends[1:])]
            counts, drops = zip(*[count_values(r, messages) for r in rounds])
            diagnostics.collision_drops = drops
            table = [[c.get(v, 0) for v in config.value_ids] for c in counts]
            estimates = dict(zip(config.value_ids, config.mech.estimate(table, accepted)))
        return EpochResult(
            halted=halted,
            epoch_id=config.epoch_id,
            k_threshold=config.k_threshold,
            counts=counts,
            estimates=estimates,
            diagnostics=diagnostics,
            slot_shape=slots.shape,
            message_bits=config.message_bits,
            nonzero_slots=nonzero,
            nonzero_messages=found,
        )


def build_chunk(
    writes: WritePlan,
    config: EpochConfig,
    keys_rng: np.random.Generator | None,
    verify_rng: np.random.Generator | None,
    two_row_owners: frozenset[int] = frozenset(),
) -> SubmissionChunk:
    """Craft the submissions for a batch of owners from their slice of the
    write plan.

    Owners listed in ``two_row_owners`` claim two slots in their first
    write's indicator, the shape verification exists to catch: its column
    factor marks the slot's column and the next, mod B. Their
    key material is left untouched; a rejected submission never reaches the
    accumulators anyway. Without a ``keys_rng`` (crypto-free) the chunk
    carries the planned writes only, and two-row owners are a ``ValueError``.

    Raises ``ValueError`` unless the writes come from a contiguous owner
    range in owner order, as every slice of a plan between owner starts does.
    """
    # 1 where a write starts the next owner's writes
    steps = np.diff(writes.owner, prepend=writes.owner[:1] - 1)
    if ((steps != 0) & (steps != 1)).any():
        raise ValueError("a chunk's writes must cover a contiguous owner range in order")
    owners = np.arange(writes.owner[0], writes.owner[-1] + 1) if len(writes) else writes.owner
    if keys_rng is None:
        if two_row_owners:
            raise ValueError("two-row writers need the verification layer")
        return SubmissionChunk(owners, writes, None, None, None)
    keys = fss_gen_batch(writes.slot, config.messages[writes.value], config.fss, keys_rng)
    # a real write marks its row and its column, a two-row attacker's first
    # write its row, its column and the next column; the B column entries
    # follow the A row entries
    a, b = config.indicator_sides
    row, column = np.divmod(writes.slot, b)
    real = np.flatnonzero(writes.value < len(config.value_ids))
    attack = np.flatnonzero(steps)[np.isin(owners, list(two_row_owners))]
    ones = (
        np.concatenate((real, real, attack, attack, attack)),
        np.concatenate(
            (row[real], a + column[real], row[attack], a + column[attack],
             a + (column[attack] + 1) % b)
        ),
    )
    shares, pairs = verify.share_indicators(len(writes), ones, config.parties, (a, b), verify_rng)
    return SubmissionChunk(owners, writes, keys, shares, pairs)


def run_epoch(
    population: np.ndarray,
    config: EpochConfig,
    crypto: bool = True,
    attackers: Iterable[int] = (),
) -> EpochResult:
    """Simulate one epoch end to end; deterministic in ``config.master_seed``.

    ``attackers`` are owner indices that submit a two-row write; the pipeline
    is expected to exclude and flag them. :func:`build_chunk` raises
    ``ValueError`` for them in crypto-free mode, which has no verification.
    """
    population = np.asarray(population)
    if not 1 <= population.size <= _MAX_OWNERS:
        raise PopulationSpecError("population must hold between 1 and 2**31 - 1 owners")
    two_row = frozenset(int(a) for a in attackers)
    out_of_range = [a for a in two_row if not 0 <= a < population.size]
    if out_of_range:
        raise ValueError(f"attacker indices out of range: {sorted(out_of_range)}")
    # a crypto-free epoch never draws from the keys and verify streams
    rngs = _streams(config.master_seed, 4 if crypto else 2)
    claims = config.mech.claims(population, config.value_ids, rngs["privatize"])
    plan = plan_writes(claims, config, rngs["slots"])
    # a crypto-free chunk draws nothing, so its plan is one chunk; every
    # owner makes at least one write per round, so no chunk is empty
    step = _CHUNK_OWNERS if crypto else population.size
    owner_starts = np.arange(0, population.size + step, step)
    bounds = np.searchsorted(plan.owner, owner_starts).tolist()
    keys_rng, verify_rng = rngs.get("keys"), rngs.get("verify")
    collector = EpochCollector(config)
    for start, stop in zip(bounds, bounds[1:]):
        # free the previous chunk's arrays before building the next; the last
        # stays alive through finalize (freeing it first doubled the minor
        # page faults of short crypto-free epochs)
        chunk = None
        chunk = build_chunk(plan[start:stop], config, keys_rng, verify_rng, two_row)
        collector.submit(chunk)
    return collector.finalize()
