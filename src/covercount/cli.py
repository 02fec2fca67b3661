"""Command-line front end.

Subcommands:

* ``simulate``: run repeated collection epochs (or plain mechanism draws)
  from a JSON experiment config, writing a per-trial CSV and a summary JSON.
* ``epsilon``: sweep the leakage bounds over a parameter grid as CSV, with
  undefined parameter points marked rather than skipped.
* ``bench-fss``: compare compressed-key generation and full-database
  evaluation against the naive per-slot path, including row-shape overrides.
* ``bench-verify``: time the blind-verification pipeline per matrix kind.
* ``discretize``: map a coordinate to its grid cell ID.

Everything is deterministic under ``--seed``: trial seeds are derived from
the master seed, outputs carry no timestamps, and keys are sorted, so a
fixed config reproduces its output files byte for byte. Exit codes: 0 on
success, 2 for configuration problems (a geometry too large to allocate
among them).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import harness as h
from . import mechanisms as mech
from . import verify
from .errors import CoverCountError, ConfigError
from .privwrite import (
    FssParams,
    PointFunction,
    default_mu,
    fss_eval_naive,
    fss_evaluate_share,
    fss_gen,
    key_size_bytes,
)

_MODES = ("statistical", "cryptofree", "crypto")
# the largest key a crypto experiment may ask for: a 256-owner chunk holds a
# key per party for each of its writes, about 512, so 1 MiB keys already
# make about 1.5 GB per chunk at p = 3. The shipped configs' keys take 3,152
# to 34,896 bytes; a key's size grows as 2^parties, so 16 parties at n = 10
# ask for 403,931,152 bytes and 40 for about 2.8e19
_MAX_KEY_BYTES = 1 << 20

TRIALS_HEADER = ("trial", "value", "true_count", "estimate", "abs_error")
EPSILON_HEADER = ("mechanism", "sampling_rate", "chaff_rate", "epsilon")
BENCH_FSS_HEADER = (
    "n",
    "p",
    "mu",
    "nu",
    "gen_time",
    "naive_full_eval_time",
    "optimized_full_eval_time",
    "speedup",
    "key_bytes",
)
BENCH_VERIFY_HEADER = (
    "n",
    "p",
    "kind",
    "make_blinding_time",
    "blind_time",
    "aggregate_time",
    "check_time",
    "total_time",
)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A validated experiment: the parsed config with all defaults resolved.

    ``epoch.master_seed`` is a placeholder; each trial replaces it with a
    seed derived from ``seed``.
    """

    population: dict | None
    dataset: str | None
    epoch: h.EpochConfig
    mode: str
    trials: int
    seed: int

    @property
    def mechanism(self) -> mech.Mechanism:
        return self.epoch.mech

    def normalized(self) -> dict:
        out = {
            "mechanism": {"kind": self.mechanism.kind, **asdict(self.mechanism)},
            "epoch": {
                "parties": self.epoch.parties,
                "k_threshold": self.epoch.k_threshold,
                "id_bits": self.epoch.id_bits,
                "checksum_bits": self.epoch.checksum_bits,
                "blinding_kind": "square",
                "epoch_id": self.epoch.epoch_id,
                "fss": {
                    "n": self.epoch.n,
                    "lam": 128,
                    "mu": self.epoch.fss.mu,
                    "nu": self.epoch.fss.nu,
                },
            },
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.population is not None:
            out["population"] = self.population
        else:
            out["dataset"] = self.dataset
        if self.epoch.domain is not None:
            out["domain"] = list(self.epoch.domain)
        return out


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def parse_experiment(raw: dict) -> Experiment:
    """Validate a raw config dict; every layer's preconditions run here."""
    h.check_keys(
        raw,
        {"mechanism", "population", "dataset", "epoch", "domain", "mode", "trials", "seed"},
        "config",
    )
    for key in ("mechanism", "epoch"):
        if key not in raw:
            raise ConfigError(f"config needs a {key!r} section")
    if ("population" in raw) == ("dataset" in raw):
        raise ConfigError("specify exactly one of 'population' or 'dataset'")

    if not isinstance(raw["mechanism"], dict):
        raise ConfigError("mechanism must be a JSON object")
    mblock = dict(raw["mechanism"])
    kind = mblock.pop("kind", None)
    if kind not in mech.MECHANISMS:
        raise ConfigError(f"unknown mechanism kind {kind!r}")
    params_type = mech.MECHANISMS[kind]
    names = [f.name for f in fields(params_type)]
    missing = [name for name in names if name not in mblock]
    extra = set(mblock) - set(names)
    if missing or extra:
        raise ConfigError(
            f"mechanism {kind!r} takes exactly {names}; "
            f"missing {missing}, unexpected {sorted(extra)}"
        )
    mechanism = params_type(
        **{name: _number(mblock[name], f"mechanism.{name}") for name in names}
    )

    eblock = raw["epoch"]
    h.check_keys(
        eblock,
        {"parties", "k_threshold", "id_bits", "checksum_bits", "blinding_kind", "epoch_id", "fss"},
        "epoch",
    )
    for key in ("parties", "k_threshold", "id_bits", "fss"):
        if key not in eblock:
            raise ConfigError(f"epoch config needs {key!r}")
    if eblock.get("blinding_kind", "square") != "square":
        raise ConfigError(
            "epoch.blinding_kind may only be 'square': epochs verify with the challenge check"
        )
    fblock = eblock["fss"]
    h.check_keys(fblock, {"n", "lam", "mu", "nu"}, "fss")
    if "n" not in fblock:
        raise ConfigError("fss config needs 'n'")
    if h.strict_int(fblock.get("lam", 128), "epoch.fss.lam") != 128:
        raise ConfigError("epoch.fss.lam must be 128: keys use 128-bit seeds")
    domain = raw.get("domain")
    if domain is not None and not isinstance(domain, list):
        raise ConfigError("domain must be a JSON list")
    epoch = h.EpochConfig(
        parties=h.strict_int(eblock["parties"], "epoch.parties"),
        k_threshold=h.strict_int(eblock["k_threshold"], "epoch.k_threshold"),
        n=h.strict_int(fblock["n"], "epoch.fss.n"),
        mu=None if fblock.get("mu") is None else h.strict_int(fblock["mu"], "epoch.fss.mu"),
        mech=mechanism,
        id_bits=h.strict_int(eblock["id_bits"], "epoch.id_bits"),
        checksum_bits=h.strict_int(eblock.get("checksum_bits", 16), "epoch.checksum_bits"),
        domain=None if domain is None else tuple(h.strict_int(v, "domain") for v in domain),
        epoch_id=h.strict_int(eblock.get("epoch_id", 0), "epoch.epoch_id"),
    )
    nu = fblock.get("nu")
    if nu is not None and h.strict_int(nu, "epoch.fss.nu") != epoch.fss.nu:
        raise ConfigError(
            f"epoch.fss.nu must be null or {epoch.fss.nu}, the rows of "
            f"{epoch.fss.mu} slots that cover 2^{epoch.n} slots"
        )

    mode = raw.get("mode", "cryptofree")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    key_bytes = key_size_bytes(epoch.fss)
    if mode == "crypto" and key_bytes > _MAX_KEY_BYTES:
        raise ConfigError(
            f"epoch.parties {epoch.parties} at n = {epoch.n} and mu = {epoch.fss.mu} makes"
            f" keys of {key_bytes:,} bytes, above the {_MAX_KEY_BYTES:,} bytes a crypto key"
            " may take"
        )
    trials = h.strict_int(raw.get("trials", 1), "trials")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    seed = h.strict_int(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be non-negative")

    if "population" in raw:
        return Experiment(h.normalize_population(raw["population"]), None, epoch, mode, trials, seed)
    return Experiment(None, str(raw["dataset"]), epoch, mode, trials, seed)


def load_config(path: str, overrides: list[str]) -> Experiment:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for spec in overrides:
        apply_override(raw, spec)
    return parse_experiment(raw)


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``dotted.path=value`` override to the raw config dict.

    The value is parsed as JSON when possible, falling back to a string, so
    ``population.total=100000`` and ``mode=crypto`` both work.
    """
    path, eq, text = spec.partition("=")
    if not eq or not path:
        raise ConfigError(f"override {spec!r} is not of the form key=value")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    keys = path.split(".")
    for key in keys[:-1]:
        nxt = node.setdefault(key, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {spec!r} descends into non-object {key!r}")
        node = nxt
    node[keys[-1]] = value


def load_dataset(path: str, experiment: Experiment) -> np.ndarray:
    """Read ``owner_id,value`` rows into a truth array.

    Owner IDs must be unique. For the multi-value mechanism, values outside
    the queried domain become chaff-only owners; the binary mechanisms'
    population draws reject any value but 0 and 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["owner_id", "value"]:
            raise ConfigError(
                f"{path} must have header 'owner_id,value', got {reader.fieldnames}"
            )
        values: dict[str, int] = {}  # by owner ID
        for row in reader:
            # DictReader files extra fields under None and fills missing ones with None
            if None in row or not h.plain_decimal(row["value"]):
                raise ConfigError(
                    f"{path} line {reader.line_num}: expected owner_id,value with a plain"
                    f" decimal value, got {list(row.values())!r}"
                )
            if row["owner_id"] in values:
                raise ConfigError(f"duplicate owner_id {row['owner_id']!r} in {path}")
            values[row["owner_id"]] = int(row["value"])
    if not values:
        raise ConfigError(f"{path} contains no rows")
    config = experiment.epoch
    # checked as Python ints: a value of 2**63 or more does not fit int64
    if max(values.values()) >= (1 << config.id_bits):
        raise ConfigError(f"dataset values must fit {config.id_bits} id bits")
    truths = np.array(list(values.values()), dtype=np.int64)
    if not config.mech.binary:
        truths = np.where(np.isin(truths, config.value_ids), truths, -1)
    return truths


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _statistical_trial(
    population: np.ndarray, experiment: Experiment, rng: np.random.Generator
) -> dict[int, float]:
    """One trial of the mechanism alone: the claim matrix summed without the
    database plumbing, for large-population error sweeps."""
    params = experiment.mechanism
    value_ids = experiment.epoch.value_ids
    claims = params.claims(population, value_ids, rng)
    # one owner column at a time: at 10^6 owners and 8 values np.count_nonzero
    # per column takes about 12 ms for both rounds, .sum() per column 14.5 ms,
    # and one count_nonzero(axis=1) over the whole matrix 49 ms
    counts = [[int(np.count_nonzero(column)) for column in rounds.T] for rounds in claims]
    return dict(zip(value_ids, params.estimate(counts, len(population))))


def _run_trial(task: tuple) -> tuple[dict[int, float] | None, h.EpochDiagnostics | None]:
    """One trial, picklable for worker pools: returns (estimates, epoch
    diagnostics). Estimates are None when the epoch halted."""
    experiment, population, trial_seed = task
    if experiment.mode == "statistical":
        rng = np.random.default_rng(trial_seed)
        return _statistical_trial(population, experiment, rng), None
    config = replace(experiment.epoch, master_seed=trial_seed)
    result = h.run_epoch(population, config, crypto=experiment.mode == "crypto")
    return (None if result.halted else result.estimates), result.diagnostics


def run_experiment(
    experiment: Experiment, workers: int = 1
) -> tuple[list[tuple], dict]:
    """All trials of an experiment: per-trial rows plus the summary dict."""
    state = np.random.SeedSequence(experiment.seed).generate_state(
        experiment.trials + 1, np.uint64
    )
    if experiment.dataset is not None:
        population = load_dataset(experiment.dataset, experiment)
    else:
        population = h.generate_population(
            experiment.population, np.random.default_rng(int(state[0]))
        )
    # both paths return the trials in task order
    tasks = [(experiment, population, int(seed)) for seed in state[1:]]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks))
    else:
        outcomes = [_run_trial(task) for task in tasks]

    value_ids = experiment.epoch.value_ids
    # one sort of the population: at 10^6 owners and 8 values about 4 ms,
    # against 8.5 ms for one comparison pass per value. Before the trials,
    # its sorted copy raised statistical-multi's peak RSS by 1.2 MB
    values, hits = np.unique(population, return_counts=True)
    found = dict(zip(values.tolist(), hits.tolist()))
    true_counts = {v: found.get(v, 0) for v in value_ids}

    rows = []
    estimates: dict[int, list[float]] = {v: [] for v in value_ids}
    diagnostics = {
        "halted_trials": 0,
        "rejected_submissions": 0,
        "duplicate_submissions": 0,
        "collision_drops": [0] * experiment.epoch.rounds,
    }
    for index, (trial_estimates, diag) in enumerate(outcomes):
        if diag is not None:
            diagnostics["rejected_submissions"] += diag.rejected_submissions
            diagnostics["duplicate_submissions"] += diag.duplicate_submissions
            for r, d in enumerate(diag.collision_drops):
                diagnostics["collision_drops"][r] += d
        if trial_estimates is None:
            diagnostics["halted_trials"] += 1
            continue
        for v in value_ids:
            estimate = float(trial_estimates[v])
            rows.append(
                (index, v, true_counts[v], estimate, abs(estimate - true_counts[v]))
            )
            estimates[v].append(estimate)

    per_value = {}
    all_errors = []
    for v in value_ids:
        ests = estimates[v]
        errors = [abs(e - true_counts[v]) for e in ests]
        all_errors.extend(errors)
        entry = {"true_count": true_counts[v], "trials": len(ests)}
        if ests:
            entry["mean_estimate"] = float(np.mean(ests))
            entry["mean_abs_error"] = float(np.mean(errors))
            entry["estimate_stddev"] = (
                float(np.std(ests, ddof=1)) if len(ests) > 1 else 0.0
            )
            entry["interval_95"] = [
                float(np.percentile(ests, 2.5)),
                float(np.percentile(ests, 97.5)),
            ]
        per_value[str(v)] = entry
    summary = {
        "config": experiment.normalized(),
        "population_size": int(population.size),
        "per_value": per_value,
        "mean_abs_error": float(np.mean(all_errors)) if all_errors else None,
        "diagnostics": diagnostics,
    }
    return rows, summary


def cmd_simulate(args: argparse.Namespace) -> int:
    # the flags apply after the user's overrides, so they win
    overrides = list(args.override)
    if args.trials is not None:
        overrides.append(f"trials={args.trials}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    experiment = load_config(args.config, overrides)
    rows, summary = run_experiment(experiment, workers=args.workers)
    _emit_csv(args.out_dir, "trials.csv", TRIALS_HEADER, rows)
    summary_path = Path(args.out_dir) / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(summary_path)
    return 0


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------


def _binary_at(pi_s: float, pi_yes: float) -> mech.TwoRoundBinaryParams:
    # the chaff-No side is the die remainder; absorb float drift at the
    # exactly-full boundary
    pi_no = 1.0 - pi_s - pi_yes
    if -1e-9 < pi_no < 0.0:
        pi_no = 0.0
    return mech.TwoRoundBinaryParams(pi_s, pi_yes, pi_no)


# each swept mechanism: its leakage bound, and its params at a (sampling,
# chaff) grid point
EPSILON_SWEEPS = {
    "rr": (mech.rr_epsilon, mech.RrParams),
    "binary": (mech.two_round_epsilon_binary, _binary_at),
    "multi": (mech.two_round_epsilon_multi, mech.TwoRoundMultiParams),
}


def _epsilon_cell(bound, params_at, a: float, b: float) -> str:
    try:
        return f"{bound(params_at(a, b)):.12f}"
    except (CoverCountError, ValueError):
        return "undefined"


def epsilon_rows(mechanisms: list[str], step: float) -> list[tuple]:
    """Leakage sweep of the named ``EPSILON_SWEEPS`` over an evenly spaced
    parameter grid. Points where the bound diverges or is undefined, an
    over-full binary die among them, produce explicit "undefined" cells.
    """
    if not 0 < step < 1:
        raise ConfigError("step must lie strictly between 0 and 1")
    grid = [i * step for i in range(1, int(1 / step + 1e-9) + 1) if i * step < 1]
    return [
        (name, f"{a:.6g}", f"{b:.6g}", _epsilon_cell(bound, params_at, a, b))
        for a in grid
        for b in grid
        for name, (bound, params_at) in EPSILON_SWEEPS.items()
        if name in mechanisms
    ]


def cmd_epsilon(args: argparse.Namespace) -> int:
    wanted = list(EPSILON_SWEEPS) if args.mechanism == "all" else [args.mechanism]
    rows = epsilon_rows(wanted, args.step)
    _emit_csv(args.out_dir, "epsilon.csv", EPSILON_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def _median_time(fn, runs: int) -> tuple:
    """Median wall time of ``fn`` over ``runs`` timed calls after a warmup,
    and the result of the last call."""
    result = fn()
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def _mu_sweep(n: int, parties: int) -> list[int]:
    """Row widths to benchmark: the balanced default plus narrower and wider
    splits, trading seed count against expansion length."""
    default = default_mu(n, parties)
    candidates = [default, max(1, default // 2), default * 2, 1 << n]
    out = []
    for mu in candidates:
        if 1 <= mu <= (1 << n) and mu not in out:
            out.append(mu)
    return out


def bench_fss_rows(
    n_list: list[int], p_list: list[int], m: int, runs: int, seed: int
) -> list[tuple]:
    rng = np.random.default_rng(seed)
    rows = []
    for p in p_list:
        for n in n_list:
            for mu in _mu_sweep(n, p):
                params = FssParams(n=n, parties=p, m=m, mu=mu)
                pf = PointFunction(
                    a=int(rng.integers(0, params.domain_size)),
                    b=int(rng.integers(0, 1 << m)),
                )
                gen_time, keys = _median_time(lambda: fss_gen(pf, params, rng), runs)
                optimized, _ = _median_time(lambda: fss_evaluate_share(keys[0]), runs)
                naive, _ = _median_time(
                    lambda: [fss_eval_naive(keys[0], x) for x in range(params.domain_size)],
                    runs,
                )
                rows.append(
                    (
                        n,
                        p,
                        params.mu,
                        params.nu,
                        f"{gen_time:.9f}",
                        f"{naive:.9f}",
                        f"{optimized:.9f}",
                        f"{naive / optimized:.3f}",
                        key_size_bytes(params),
                    )
                )
    return rows


def cmd_bench_fss(args: argparse.Namespace) -> int:
    rows = bench_fss_rows(
        _int_list(args.n), _int_list(args.p), args.message_bits, args.runs, args.seed
    )
    _emit_csv(args.out_dir, "bench_fss.csv", BENCH_FSS_HEADER, rows)
    return 0


def bench_verify_rows(
    n_list: list[int], p_list: list[int], batch: int, runs: int, seed: int
) -> list[tuple]:
    rng = np.random.default_rng(seed)
    rows = []
    for p in p_list:
        for n in n_list:
            columns = 1 << n
            indicators = np.zeros((batch, columns), np.uint64)
            indicators[np.arange(batch), rng.integers(0, columns, batch)] = 1
            shares = verify.additive_share_batch(indicators, p, rng)
            for kind in verify.KINDS:
                make, matrices = _median_time(
                    lambda: verify.make_blinding_batch(kind, columns, p, batch, rng),
                    runs,
                )
                blind, blinded = _median_time(
                    lambda: [verify.blind_batch(matrices, shares[i]) for i in range(p)],
                    runs,
                )
                aggregate, aggregates = _median_time(
                    lambda: verify.aggregate_batch(blinded), runs
                )
                check, _ = _median_time(lambda: verify.check_batch(aggregates, kind), runs)
                rows.append(
                    (
                        n,
                        p,
                        kind,
                        f"{make:.9f}",
                        f"{blind:.9f}",
                        f"{aggregate:.9f}",
                        f"{check:.9f}",
                        f"{make + blind + aggregate + check:.9f}",
                    )
                )
    return rows


def cmd_bench_verify(args: argparse.Namespace) -> int:
    rows = bench_verify_rows(
        _int_list(args.n), _int_list(args.p), args.batch, args.runs, args.seed
    )
    _emit_csv(args.out_dir, "bench_verify.csv", BENCH_VERIFY_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def cmd_discretize(args: argparse.Namespace) -> int:
    grid = mech.GridSpec(
        origin_lat=args.origin_lat,
        origin_lon=args.origin_lon,
        cell_miles=args.cell_miles,
        id_bits=args.id_bits,
    )
    print(mech.discretize(args.lat, args.lon, grid))
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise ConfigError("expected at least one integer")
    return values


def _emit_csv(out_dir: str | None, name: str, header: tuple, rows: list) -> None:
    """Write a table to ``out_dir/name`` and print its path, or to stdout
    when ``out_dir`` is None."""
    if out_dir is None:
        sink = nullcontext(sys.stdout)
    else:
        target = Path(out_dir) / name
        target.parent.mkdir(parents=True, exist_ok=True)
        sink = open(target, "w", newline="", encoding="utf-8")
    with sink as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if out_dir is not None:
        print(target)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercount",
        description="Private counting simulator: mechanisms, compressed writes, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run trials from a JSON experiment config")
    sim.add_argument("--config", required=True, help="experiment config path")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--trials", type=int, default=None, help="override the trial count")
    sim.add_argument("--out-dir", default=".", help="directory for trials.csv and summary.json")
    sim.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set a config field by dotted path (repeatable)",
    )
    sim.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    sim.set_defaults(func=cmd_simulate)

    eps = sub.add_parser("epsilon", help="leakage sweep as CSV")
    eps.add_argument(
        "--mechanism", choices=("all", *EPSILON_SWEEPS), default="all"
    )
    eps.add_argument("--step", type=float, default=0.05, help="parameter grid step")
    eps.add_argument("--out-dir", default=None, help="write epsilon.csv here (default stdout)")
    eps.set_defaults(func=cmd_epsilon)

    bf = sub.add_parser("bench-fss", help="compressed write generation/evaluation timings")
    bf.add_argument("--n", default="6,8", help="database exponents, comma-separated")
    bf.add_argument("--p", default="2,3", help="party counts, comma-separated")
    bf.add_argument("--message-bits", type=int, default=1)
    bf.add_argument("--runs", type=int, default=5, help="timed runs per median")
    bf.add_argument("--seed", type=int, default=0)
    bf.add_argument("--out-dir", default=None, help="write bench_fss.csv here (default stdout)")
    bf.set_defaults(func=cmd_bench_fss)

    bv = sub.add_parser("bench-verify", help="blind verification timings per matrix kind")
    bv.add_argument("--n", default="6,8", help="column exponents, comma-separated")
    bv.add_argument("--p", default="2,3,5", help="party counts, comma-separated")
    bv.add_argument("--batch", type=int, default=32, help="verifications per timed run")
    bv.add_argument("--runs", type=int, default=5)
    bv.add_argument("--seed", type=int, default=0)
    bv.add_argument("--out-dir", default=None, help="write bench_verify.csv here (default stdout)")
    bv.set_defaults(func=cmd_bench_verify)

    disc = sub.add_parser("discretize", help="map a coordinate to its grid cell ID")
    disc.add_argument("--lat", type=float, required=True)
    disc.add_argument("--lon", type=float, required=True)
    disc.add_argument("--origin-lat", type=float, required=True)
    disc.add_argument("--origin-lon", type=float, required=True)
    disc.add_argument("--cell-miles", type=float, required=True)
    disc.add_argument("--id-bits", type=int, required=True)
    disc.set_defaults(func=cmd_discretize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoverCountError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:  # a geometry too large to allocate
        print(f"error: the experiment could not be allocated: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
