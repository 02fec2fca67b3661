"""Golden outputs of ``covercount simulate``.

Each case runs one config through the CLI and pins the sha256 of the
``trials.csv`` and ``summary.json`` it writes. Every mechanism kind runs in
``statistical`` and in ``cryptofree`` mode, and the shipped small crypto
config runs as it is. A refactor that keeps the seeded randomness streams and
the estimator arithmetic keeps every byte; a digest that changes means the
outputs changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from covercount import cli

CONFIGS = Path(__file__).parent.parent / "configs"

CALIBRATED = {
    "mechanism": {
        "kind": "calibrated",
        "pi_s_yes_1": 0.6,
        "pi_s_yes_2": 0.2,
        "pi_s_no_1": 0.05,
        "pi_s_no_2": 0.05,
    },
    "population": {"total": 2000, "yes": 150},
    "epoch": {
        "parties": 3,
        "k_threshold": 2,
        "id_bits": 1,
        "checksum_bits": 16,
        "fss": {"n": 12, "lam": 128, "mu": None, "nu": None},
    },
    "mode": "statistical",
    "trials": 6,
    "seed": 23,
}

# case -> (config file or inline config, overrides)
CASES = {
    "rr-statistical": ("rr_baseline.json", []),
    "rr-cryptofree": ("rr_baseline.json", ["mode=cryptofree", "trials=3"]),
    "binary-statistical": ("constant_error_binary.json", []),
    "binary-cryptofree": ("epoch_cryptofree.json", []),
    "multi-statistical": ("group_counts_multi.json", []),
    "multi-cryptofree": (
        "group_counts_multi.json",
        [
            "mode=cryptofree",
            "trials=3",
            "population.total=600",
            "mechanism.pi_v=0.1",
            "epoch.fss.n=14",
        ],
    ),
    "calibrated-statistical": (CALIBRATED, []),
    "calibrated-cryptofree": (CALIBRATED, ["mode=cryptofree"]),
    "crypto-small": ("epoch_crypto_small.json", []),
}

# case -> sha256 of (trials.csv, summary.json)
DIGESTS = {
    "binary-cryptofree": (
        "6991da51ee2723096981026846b96a569755c3bfa95b1031f17a032ec0d235b6",
        "65206c5ffb20285fb1ffce3156d610308323f8d5ea5a6f43505381867e541b07",
    ),
    "binary-statistical": (
        "48af62ec9217e77cca5ca59e34b23ec716a039499415b6d47f232ddd808fda18",
        "b39415a62b9f73fbbfe749cc7f6d2116b9e2b16141fef7f2e96ca42470100c09",
    ),
    "calibrated-cryptofree": (
        "437720a8aa86c9c46b7fe5aafad36df778cf665c1824de4e72480a60d7313967",
        "c1bba416e03179115eba2d916a5e6583e0e62905ce7ba6d0865c9a1aff2a329d",
    ),
    "calibrated-statistical": (
        "f10d4fcdf6a9affe0e6c775065f9b118e715fba1b0cb7a2df332daaee7ed9cb8",
        "0bc199f2e986f3207b5dbf79c03b6d98f7d25041ba66330f88b88407793b6475",
    ),
    "crypto-small": (
        "d6633db83514953f7d305f9e06260beaec90a1407b74399a0667dcb8159e5b4c",
        "c128421fd30a31584c518e003f4dec44da692df39ca4cdf4510c65ea35f1d9a3",
    ),
    "multi-cryptofree": (
        "de312e11687c0f691f802a3a7a1687f8b670a1c9226c3c2c490b0e57cbbd43a7",
        "fff361d0225d66285580737397d27606388b6e3ee1b5648ffa2b4ce8ee1c9686",
    ),
    "multi-statistical": (
        "e862515001d1d7424ed878bfc0ddd42d8aa70b66c9f67f76a11dafbe11f8dc80",
        "c5b87dd5fdda721a9d78a7ea7950cf5f3e4b4dd18971a1da15f59de19e20a06b",
    ),
    "rr-cryptofree": (
        "6e5109a67444ccc4d7acba5155b4ea3f921c6fd1dad02552a8c89de162004f61",
        "e6a20e4c20199d3a5dd46fe1ea8de9ec8a4af8d957b2f51eac9b07bedaada03a",
    ),
    "rr-statistical": (
        "ad300ff1ecb3a98679e77ad18d84e7b31449db1bbc0ed6b39dd8de4332522984",
        "3ed616bdc7739c26b5605e24bbcbdddca45ebf44d4f709a4d814fd3e2cf49197",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_outputs_are_pinned(case, tmp_path):
    config, overrides = CASES[case]
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIGS / config
    out = tmp_path / "out"
    args = ["simulate", "--config", str(path), "--out-dir", str(out)]
    for spec in overrides:
        args += ["--override", spec]
    assert cli.main(args) == 0
    assert (_sha256(out / "trials.csv"), _sha256(out / "summary.json")) == DIGESTS[case]
