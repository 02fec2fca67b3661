"""Epoch benchmark of covercount: owners per second from privatization to
release, set-up time, peak memory and upload bytes per owner.

Run from the repository root:

    python3 perfbench/run.py --workload crypto-wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

One workload runs in this process, as many whole rounds as come closest
to ``--seconds`` in total; then every round's outputs are checked.
With ``--trace 1`` one more round, the inputs of round 0, runs with every
layer wrapped, and the per-layer metrics are reported instead of the
end-to-end ones. ``--workload all`` runs the four workloads one after
another, each in its own child process so that each reports its own peak
memory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("crypto-wide", "crypto-split", "cryptofree-binary", "statistical-multi")
SETUP_SAMPLES = 5
TRACE_DRIFT = 0.01  # allowed gap between summed self times and wall time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git, or
    None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import cryptography
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "git_revision": git_revision(root),
        "src_sha256": digest.hexdigest(),
    }


def setup_samples(name: str, seed: int, first: float) -> list[float]:
    """Set-up times: this process's own and those of fresh child processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Round:
    index: int
    seconds: float  # wall time less the probe's hook time
    output: object
    captured: list
    peak_rss_mb: float  # the process's peak resident memory when it ended


def run_rounds(workload, probe, seconds: float, count=None) -> list[Round]:
    """Run whole rounds from round 0. Without ``count``, run the number of
    rounds whose total time comes closest to ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        workload.captured = []
        hooks_before = probe.hook_s
        t0 = time.perf_counter()
        output = workload.run(len(rounds))
        elapsed = time.perf_counter() - t0 - (probe.hook_s - hooks_before)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(Round(len(rounds), elapsed, output, workload.captured, peak))
        if count is not None:
            if len(rounds) == count:
                return rounds
            continue
        spent = time.perf_counter() - start
        if spent + spent / len(rounds) / 2 > seconds:
            return rounds


def owners_per_s(workload, rounds: list[Round]) -> float:
    """Owners (owners x trials for the ``cli`` workloads) over the rounds'
    summed time."""
    return workload.owners_per_round * len(rounds) / sum(r.seconds for r in rounds)


def report(name, seed, rounds, traced, ops, metrics, env, trace_ok) -> dict:
    failed = [op for op in ops if not op.ok]
    correct = trace_ok and all(op.known_fault for op in failed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {name} seed {seed} rounds {len(rounds)}")
    for label, done in (("round", rounds), ("traced round", traced)):
        for r in done:
            print(f"  {label} {r.index}: {r.seconds:.4f} s")
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']!r} {entry['unit']}")
    print(f"  attempted {len(ops)} failed {len(failed)} correct {str(correct).lower()}")
    shown = set()
    for op in failed:
        if (op.name, op.detail) not in shown:
            shown.add((op.name, op.detail))
            kind = "known fault" if op.known_fault else "FAILED"
            print(f"  {kind}: {op.name}: {op.detail}")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def run_one(args, root: Path) -> dict:
    setup_start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import workloads

    workload = workloads.make(args.workload, root, args.seed)
    setup_first = time.perf_counter() - setup_start

    import layers
    from probe import Probe

    probe = Probe(timed=False)
    workload.install(probe)
    try:
        rounds = run_rounds(workload, probe, args.seconds)
    finally:
        probe.restore()
    untraced_per_s = owners_per_s(workload, rounds)

    if args.trace:
        traced_probe = Probe(timed=True)
        layers.install(traced_probe)
        workload.install(traced_probe)
        try:
            traced = run_rounds(workload, traced_probe, args.seconds, count=1)
        finally:
            traced_probe.restore()
        wall = traced[0].seconds
        metrics = layers.metrics(
            traced_probe, wall, owners_per_s(workload, traced), untraced_per_s
        )
        # The spans' self times partition the traced round's program time.
        drift = abs(layers.self_time_total(traced_probe) - wall)
        trace_ok = drift <= TRACE_DRIFT * wall
        if not trace_ok:
            print(f"FAILED: traced self times miss the wall time by {drift:.6f} s")
    else:
        traced = []
        trace_ok = True
        setup = setup_samples(args.workload, args.seed, setup_first)
        captured = [c for r in rounds for c in r.captured]
        metrics = {
            "owners_per_s": (untraced_per_s, "owners/s"),
            "setup_s": (statistics.median(setup), "s"),
            # Later rounds only reuse memory; what they add is allocator
            # fragmentation, which differs from run to run.
            "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
            "upload_bytes_per_owner": (workload.upload_bytes_per_owner(captured), "bytes"),
        }
    ops = [op for r in rounds + traced for op in workload.check(r.index, r.output, r.captured)]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = environment(root)
    return report(args.workload, args.seed, rounds, traced, ops, metrics, env, trace_ok)


def run_all(args) -> dict:
    """Each workload in turn, in a child process; metrics named workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "covercount" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} holds no covercount sources (src/covercount, configs)", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
