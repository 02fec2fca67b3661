"""Per-layer spans and counts of the traced run.

:func:`install` wraps each layer's public functions where their callers
look them up, with hooks that count the work each call did.
:func:`metrics` turns the probe's spans and counts into the per-layer
metrics listed in ``BENCHMARK.json``; every metric is reported on every
workload, zero where a layer does not run.
"""

from __future__ import annotations

from collections import Counter

from covercount import cli, field, harness, mechanisms, privwrite, verify

_ZERO_SEED = b"\x00" * privwrite.SEED_BYTES

LAYERS = ("mechanisms", "harness", "privwrite", "verify", "field", "cli")

# metric name -> the span whose self time it reports
SELF_TIMES = {
    "mechanisms.privatize_s": "mechanisms.privatize",
    "harness.plan_s": "harness.run_epoch",
    "harness.population_s": "harness.generate_population",
    "harness.build_chunk_s": "harness.build_chunk",
    "harness.accumulate_s": "harness.submit",
    "harness.finalize_s": "harness.finalize",
    "privwrite.fss_gen_s": "privwrite.fss_gen",
    "privwrite.eval_s": "privwrite.eval",
    "verify.share_s": "verify.share",
    "verify.blind_s": "verify.blind",
    "verify.aggregate_s": "verify.aggregate",
    "verify.check_s": "verify.check",
    "field.m61_mul_s": "field.m61_mul",
    "field.m61_sum_s": "field.m61_sum",
    "field.bitstring_xor_s": "field.bitstring_xor",
    "cli.run_experiment_s": "cli.run_experiment",
}
COUNTS = {
    "mechanisms.owners": "count",
    "harness.writes": "count",
    "harness.chunks": "count",
    "harness.collision_drops": "count",
    "harness.cancelled_writes": "count",
    "privwrite.fss_gen_calls": "count",
    "privwrite.eval_calls": "count",
    "privwrite.prg_bytes": "bytes",
    "privwrite.key_bytes": "bytes",
    "verify.blind_elements": "count",
    "verify.rejected": "count",
    "verify.share_bytes": "bytes",
    "field.m61_mul_elements": "count",
    "field.bitstring_xor_calls": "count",
    "cli.trials": "count",
}
TRACE = {
    "trace.owners_per_s": "owners/s",
    "trace.overhead_pct": "%",
    "trace.wall_s": "s",
    "trace.self_sum_ratio": "ratio",
    "trace.hook_s": "s",
}


def _row_bytes(params) -> int:
    return (params.row_bits + 7) // 8


def install(probe) -> None:
    """Wrap every layer's public functions in ``probe`` with count hooks."""
    counts = probe.counts
    landed = Counter()  # non-null writes per owner in the current epoch

    def owners(args, kwargs, result):
        counts["mechanisms.owners"] += len(args[0])

    def chunk(args, kwargs, result):
        counts["harness.writes"] += len(args[0])
        counts["harness.chunks"] += 1
        landed.update(w.owner_id for w in args[0] if w.value_id is not None)

    def finalize(args, kwargs, result):
        diagnostics = result.diagnostics
        counts["harness.collision_drops"] += sum(diagnostics.collision_drops)
        rejected = set(diagnostics.rejected_owner_ids)
        written = sum(n for owner, n in landed.items() if owner not in rejected)
        counted = sum(sum(c.values()) for c in result.counts)
        counts["harness.cancelled_writes"] += written - counted
        landed.clear()

    def gen(args, kwargs, result):
        counts["privwrite.fss_gen_calls"] += 1
        params = args[1]
        counts["privwrite.prg_bytes"] += params.seeds_per_row * _row_bytes(params)
        counts["privwrite.key_bytes"] += sum(len(privwrite.key_serialize(k)) for k in result)

    def evaluate(args, kwargs, result):
        key = args[0]
        held = sum(seed != _ZERO_SEED for row in key.sigma for seed in row)
        counts["privwrite.eval_calls"] += 1
        counts["privwrite.prg_bytes"] += held * _row_bytes(key.params)

    def share(args, kwargs, result):
        counts["verify.share_bytes"] += result.nbytes

    def blind_square(args, kwargs, result):
        counts["verify.blind_elements"] += args[1].size * args[2]

    def blind(args, kwargs, result):
        counts["verify.blind_elements"] += args[0].size

    def check(args, kwargs, result):
        counts["verify.rejected"] += int((~result).sum())

    def mul(args, kwargs, result):
        counts["field.m61_mul_elements"] += result.size

    def xor(args, kwargs, result):
        counts["field.bitstring_xor_calls"] += 1

    def trials(args, kwargs, result):
        counts["cli.trials"] += args[0].trials

    for attr in (
        "rr_privatize_population",
        "two_round_binary_population",
        "two_round_multi_population",
        "calibrated_population",
    ):
        probe.wrap(mechanisms, attr, "mechanisms.privatize", owners)
    probe.wrap(cli, "run_experiment", "cli.run_experiment", trials)
    probe.wrap(harness, "run_epoch", "harness.run_epoch")
    probe.wrap(harness, "generate_population", "harness.generate_population")
    probe.wrap(harness, "build_chunk", "harness.build_chunk", chunk)
    probe.wrap(harness.EpochCollector, "submit", "harness.submit")
    probe.wrap(harness.EpochCollector, "finalize", "harness.finalize", finalize)
    probe.wrap(harness, "fss_gen", "privwrite.fss_gen", gen)
    probe.wrap(harness, "fss_evaluate_share", "privwrite.eval", evaluate)
    probe.wrap(verify, "additive_share_batch", "verify.share", share)
    probe.wrap(verify, "blind_square_batch", "verify.blind", blind_square)
    probe.wrap(verify, "blind_batch", "verify.blind", blind)
    probe.wrap(verify, "aggregate_batch", "verify.aggregate")
    probe.wrap(verify, "check_batch", "verify.check", check)
    probe.wrap(verify, "m61_mul", "field.m61_mul", mul)
    probe.wrap(verify, "m61_sum", "field.m61_sum")
    probe.wrap(field.BitString, "__xor__", "field.bitstring_xor", xor)


def self_time_total(probe) -> float:
    return sum(probe.self_s.values())


def metrics(probe, wall: float, traced_owners_per_s: float, untraced_owners_per_s: float) -> dict:
    """Per-layer metrics of one traced round of ``wall`` seconds of program
    time (hooks excluded)."""
    out = {}
    for name, span in SELF_TIMES.items():
        out[name] = (probe.self_s.get(span, 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (probe.layer_busy.get(layer, 0.0), "s")
    for name, unit in COUNTS.items():
        out[name] = (probe.counts.get(name, 0), unit)
    out["trace.owners_per_s"] = (traced_owners_per_s, "owners/s")
    out["trace.overhead_pct"] = (100.0 * (untraced_owners_per_s / traced_owners_per_s - 1.0), "%")
    out["trace.wall_s"] = (wall, "s")
    out["trace.self_sum_ratio"] = (self_time_total(probe) / wall, "ratio")
    out["trace.hook_s"] = (probe.hook_s, "s")
    return out


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({f"{layer}.busy_s": "s" for layer in LAYERS})
    units.update(COUNTS)
    units.update(TRACE)
    return units
