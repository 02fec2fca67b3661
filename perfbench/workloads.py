"""The four benchmark workloads.

Each workload is built by :func:`make` (config parse and population
generation: the set-up that ``setup_s`` times) and then driven round by
round. :meth:`run` holds the program calls of one round and nothing else;
:meth:`check` judges that round's outputs afterwards. Hooks installed by
:meth:`install` capture, while a round runs, what the checks need and
cannot get from the return value.

Every round of a workload attempts the same operations, so the share of
failed operations does not depend on how many rounds a run fits in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from covercount import cli, harness, privwrite

import checks

@dataclass
class Op:
    """One attempted operation and its verdict. ``known_fault`` marks the
    operation whose failure is the named estimator fault."""

    name: str
    ok: bool
    known_fault: bool = False
    detail: str = ""


def make(name: str, root: Path, seed: int):
    if name == "crypto-wide":
        return CryptoEpochs(root, seed, owners=1000, yes=80, mu=4096, nu=1, attackers=10)
    if name == "crypto-split":
        return CryptoEpochs(root, seed, owners=500, yes=40, mu=None, nu=None, attackers=0)
    if name == "cryptofree-binary":
        return CryptofreeSweep(root)
    if name == "statistical-multi":
        return StatisticalSweep(root, seed)
    raise ValueError(f"unknown workload {name!r}")


def _load(root: Path, name: str) -> dict:
    with open(root / "configs" / name, encoding="utf-8") as fh:
        return json.load(fh)


class CryptoEpochs:
    """Full crypto epochs of the shipped small crypto config, widened to
    n = 12 with the given row split; ``attackers`` owners submit two-row
    indicators. One epoch per round, each from its own master seed."""

    def __init__(self, root, seed, owners, yes, mu, nu, attackers):
        raw = _load(root, "epoch_crypto_small.json")
        raw["population"] = {"total": owners, "yes": yes}
        raw["epoch"]["fss"].update(n=12, mu=mu, nu=nu)
        self.experiment = cli.parse_experiment(raw)
        rng = np.random.default_rng(seed)
        self.population = harness.generate_population(self.experiment.population, rng)
        self.attackers = tuple(sorted(rng.choice(owners, attackers, replace=False).tolist()))
        self.seed = seed
        self.owners_per_round = owners
        self.captured: list[dict] = []

    def install(self, probe) -> None:
        probe.wrap(harness.EpochCollector, "submit", "harness.submit", self._capture)

    def _capture(self, args, kwargs, result) -> None:
        """Per submitted chunk: the bytes its owners uploaded and the keys of
        its first Yes write and first null write."""
        chunk = args[1]
        parties = len(chunk.keys[0])
        params = chunk.keys[0][0].params
        uniform = all(k.params == params for keys in chunk.keys for k in keys)
        key_bytes = sum(len(privwrite.key_serialize(k)) for k in chunk.keys[0])
        samples = {}
        for write, keys in zip(chunk.writes, chunk.keys):
            samples.setdefault(write.value_id is None, (write, keys))
        self.captured.append(
            {
                "owners": len(chunk.owner_ids),
                "bytes": len(chunk.writes) * key_bytes
                + chunk.indicator_shares.nbytes
                + parties * chunk.blinding.nbytes,
                "uniform_keys": uniform,
                "samples": list(samples.values()),
            }
        )

    def run(self, index: int):
        config = replace(self.experiment.epoch, master_seed=checks.round_seed(self.seed, index))
        return config, harness.run_epoch(
            self.population, config, crypto=True, attackers=self.attackers
        )

    def check(self, index, output, captured) -> list[Op]:
        config, result = output
        problems = []
        diagnostics = result.diagnostics
        if result.halted:
            return [Op("epoch", False, detail="epoch halted")]
        if diagnostics.rejected_owner_ids != self.attackers:
            problems.append(f"rejected {diagnostics.rejected_owner_ids} != attackers")
        if any(diagnostics.collision_drops):
            problems.append(f"collision drops {diagnostics.collision_drops}")

        claims = checks.rederive_claims(self.population, config)
        plan = checks.rederive_plan(claims, config)
        accepted = np.ones(len(self.population), bool)
        accepted[list(self.attackers)] = False
        for r, claimed in enumerate((claims.round1, claims.round2)):
            yes = int(claimed[accepted].sum())
            counted = result.counts[r].get(1, 0)
            if not checks.cancellation_ok(yes, counted):
                problems.append(f"round {r}: {yes} Yes writes but {counted} counted")

        plain = harness.run_epoch(self.population, config, crypto=False)
        n_slots, m = config.db_slots, config.message_bits
        message = harness.encode_message(1, config)
        for r in range(config.rounds):
            rejected_image = 0
            for owner, round_index, slot, value in plan:
                if round_index == r and value is not None and owner in self.attackers:
                    rejected_image ^= privwrite.unit_write(slot, message, n_slots, m).value
            if result.databases[r].value != plain.databases[r].value ^ rejected_image:
                problems.append(f"round {r}: database differs from the crypto-free replay")

        planned = set(plan)
        for chunk in captured:
            if not chunk["uniform_keys"]:
                problems.append("keys of one chunk differ in geometry")
            for write, keys in chunk["samples"]:
                entry = (write.owner_id, write.round_index, write.slot, write.value_id)
                if entry not in planned:
                    problems.append(f"submitted write {entry} is not in the re-derived plan")
                image = 0
                for key in keys:
                    image ^= privwrite.fss_evaluate_share(key).value
                b = 0 if write.value_id is None else harness.encode_message(write.value_id, config)
                if image != privwrite.unit_write(write.slot, b, n_slots, m).value:
                    problems.append(f"key shares of write {entry} do not XOR to its image")
        return [Op("epoch", not problems, detail="; ".join(problems))]

    def upload_bytes_per_owner(self, captured) -> float:
        return sum(c["bytes"] for c in captured) / sum(c["owners"] for c in captured)


class CryptofreeSweep:
    """The shipped crypto-free config, 100 trials at its own seed 11
    through ``cli.run_experiment`` in every round.

    The inputs do not depend on the run's seed: the round ends with the
    bias check that the named estimator fault fails, and that check must
    fail the same way in every run.
    """

    TRIALS = 100

    def __init__(self, root):
        experiment = cli.load_config(str(root / "configs" / "epoch_cryptofree.json"), [])
        self.experiment = replace(experiment, trials=self.TRIALS)
        self.population = harness.generate_population(
            self.experiment.population, np.random.default_rng(self.experiment.seed)
        )
        self.owners_per_round = self.experiment.population["total"] * self.TRIALS
        self.captured: list[tuple] = []

    def install(self, probe) -> None:
        probe.wrap(harness, "run_epoch", "harness.run_epoch", self._capture)

    def _capture(self, args, kwargs, result) -> None:
        population, config = args
        self.captured.append((population, config.master_seed, result))

    def run(self, index: int):
        return cli.run_experiment(self.experiment)

    def check(self, index, output, captured) -> list[Op]:
        rows, summary = output
        config = self.experiment.epoch
        pi_s = config.mech.pi_s
        truth = int(self.population.sum())
        ops = []
        if len(captured) != self.TRIALS or len(rows) != self.TRIALS:
            return [Op("trial", False, detail="trial count mismatch")] * (self.TRIALS + 1)
        for (population, master_seed, result), row in zip(captured, rows):
            problems = []
            if int(population.sum()) != truth or population.size != self.population.size:
                problems.append("trial population differs from the config's")
            if result.halted or any(result.diagnostics.collision_drops):
                problems.append(f"halted or dropped: {result.diagnostics.collision_drops}")
            claims = checks.rederive_claims(population, replace(config, master_seed=master_seed))
            counted = [result.counts[r].get(1, 0) for r in range(2)]
            for r, claimed in enumerate((claims.round1, claims.round2)):
                if not checks.cancellation_ok(int(claimed.sum()), counted[r]):
                    problems.append(f"round {r}: {int(claimed.sum())} Yes writes, {counted[r]} counted")
            estimate = (counted[0] - counted[1]) / pi_s
            if row[2] != truth or abs(row[3] - estimate) > 1e-9 * max(1.0, abs(estimate)):
                problems.append(f"row {row} does not match counts {counted}")
            ops.append(Op("trial", not problems, detail="; ".join(problems)))
        mean = summary["per_value"]["1"]["mean_estimate"]
        half = checks.bias_half_width(truth, pi_s, self.TRIALS)
        ops.append(
            Op(
                "bias",
                checks.unbiased(mean, truth, pi_s, self.TRIALS),
                known_fault=True,
                detail=f"mean estimate {mean:.4f} for {truth}, allowed +-{half:.4f}",
            )
        )
        return ops

    def upload_bytes_per_owner(self, captured) -> float:
        """Plaintext writes: an owner sends each write as its slot index and
        message, ceil((n + m) / 8) bytes."""
        config = self.experiment.epoch
        per_write = (config.fss.n + config.message_bits + 7) // 8
        writes = sum(sum(r.diagnostics.writes_per_round) for _, _, r in captured)
        owners = sum(r.diagnostics.participants for _, _, r in captured)
        return per_write * writes / owners


class StatisticalSweep:
    """The shipped multi-value config with every count scaled by 100, to
    10^6 owners, in statistical mode: 10 trials per round through
    ``cli.run_experiment``, each round from its own experiment seed."""

    TRIALS = 10
    SCALE = 100

    def __init__(self, root, seed):
        raw = _load(root, "group_counts_multi.json")
        population = raw["population"]
        population["total"] *= self.SCALE
        population["groups"] = {v: c * self.SCALE for v, c in population["groups"].items()}
        raw["trials"] = self.TRIALS
        self.experiment = cli.parse_experiment(raw)
        population = harness.generate_population(
            self.experiment.population, np.random.default_rng(seed)
        )
        self.truth = {v: int((population == v).sum()) for v in self.experiment.epoch.value_ids}
        self.seed = seed
        self.owners_per_round = population.size * self.TRIALS
        self.captured: list = []

    def install(self, probe) -> None:
        pass

    def run(self, index: int):
        return cli.run_experiment(replace(self.experiment, seed=checks.round_seed(self.seed, index)))

    def check(self, index, output, captured) -> list[Op]:
        rows, summary = output
        pi_s = self.experiment.mechanism.pi_s
        by_trial: dict[int, list] = {}
        for row in rows:
            by_trial.setdefault(row[0], []).append(row)
        ops = []
        for t in range(self.TRIALS):
            problems = []
            trial_rows = by_trial.get(t, [])
            if [row[1] for row in trial_rows] != list(self.truth):
                problems.append(f"trial {t} has values {[row[1] for row in trial_rows]}")
            for _, value, true_count, estimate, _ in trial_rows:
                sampled = estimate * pi_s
                if true_count != self.truth[value]:
                    problems.append(f"value {value}: true count {true_count}")
                if abs(sampled - round(sampled)) > 1e-6 or not 0 <= round(sampled) <= true_count:
                    problems.append(f"value {value}: estimate {estimate} is no sampled count")
            ops.append(Op("trial", not problems, detail="; ".join(problems)))
        for value, truth in self.truth.items():
            mean = summary["per_value"][str(value)]["mean_estimate"]
            half = checks.bias_half_width(truth, pi_s, self.TRIALS)
            ops.append(
                Op(
                    f"bias[{value}]",
                    checks.unbiased(mean, truth, pi_s, self.TRIALS),
                    detail=f"mean estimate {mean:.4f} for {truth}, allowed +-{half:.4f}",
                )
            )
        return ops

    def upload_bytes_per_owner(self, captured) -> float:
        """Plaintext responses: one claim bit per round and domain value."""
        epoch = self.experiment.epoch
        return float(epoch.rounds * ((len(epoch.value_ids) + 7) // 8))
