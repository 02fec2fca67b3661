"""Command-line front end tests.

Run in-process through ``cli.main`` so exit codes and output files can be
checked cheaply. The determinism contract is the big one: a fixed config must
reproduce its output files byte for byte, and config normalization must be a
fixed point under dump/reload.
"""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from covercount import cli
from covercount import mechanisms as mech
from covercount.errors import ConfigError
from covercount.privwrite import FssParams, default_nu, key_size_bytes

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"


def base_config(**overrides):
    raw = {
        "mechanism": {
            "kind": "two_round_binary",
            "pi_s": 0.45,
            "pi_yes": 0.275,
            "pi_no": 0.275,
        },
        "population": {"total": 400, "yes": 50},
        "epoch": {
            "parties": 3,
            "k_threshold": 2,
            "id_bits": 1,
            "checksum_bits": 16,
            "fss": {"n": 10, "lam": 128, "mu": None, "nu": None},
        },
        "mode": "statistical",
        "trials": 4,
        "seed": 13,
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- Config parsing ------------------------------------------------------------


def test_normalization_is_a_fixed_point():
    exp = cli.parse_experiment(base_config())
    dumped = json.dumps(exp.normalized(), sort_keys=True)
    redumped = json.dumps(
        cli.parse_experiment(json.loads(dumped)).normalized(), sort_keys=True
    )
    assert dumped == redumped


def test_normalization_resolves_fss_defaults():
    exp = cli.parse_experiment(base_config())
    fss = exp.normalized()["epoch"]["fss"]
    assert fss["mu"] == 64  # ceil(sqrt(2^12))
    assert fss["nu"] == 16


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(unknown=1),
        lambda raw: raw["mechanism"].update(pi_q=0.5),
        lambda raw: raw["epoch"].update(slots=64),
        lambda raw: raw["epoch"]["fss"].update(rows=4),
        lambda raw: raw["population"].update(no=3),
        lambda raw: raw.update(mode="turbo"),
        lambda raw: raw.update(trials=0),
        lambda raw: raw.update(seed=-1),
        lambda raw: raw["mechanism"].update(kind="coin"),
        lambda raw: raw["mechanism"].pop("pi_no"),
        lambda raw: raw["epoch"].pop("k_threshold"),
        lambda raw: raw["epoch"]["fss"].pop("n"),
        lambda raw: raw["population"].pop("total"),
        lambda raw: raw["population"].pop("yes"),
        lambda raw: raw.pop("population"),
        lambda raw: raw.update(domain=[1]),
    ],
    # strict collection wants unique ids: these are the numbered names that
    # pytest gives duplicate lambdas, kept so test reports stay comparable
    ids=[f"<lambda>{i}" for i in range(16)],
)
def test_bad_configs_are_rejected(mutate):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError):
        cli.parse_experiment(raw)


def test_population_and_dataset_are_mutually_exclusive():
    raw = base_config()
    raw["dataset"] = "owners.csv"
    with pytest.raises(ConfigError):
        cli.parse_experiment(raw)


def test_mechanism_parameter_preconditions_checked_at_load():
    raw = base_config()
    raw["mechanism"]["pi_s"] = 0.9  # die no longer sums to 1
    with pytest.raises(ValueError):
        cli.parse_experiment(raw)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_renormalize(path):
    exp = cli.load_config(str(path), [])
    shipped = json.loads(path.read_text())["epoch"]["fss"]
    assert shipped["nu"] in (None, 1)
    assert shipped["nu"] in (None, exp.epoch.fss.nu)
    normalized = exp.normalized()
    assert normalized["epoch"]["fss"]["lam"] == 128
    assert normalized["epoch"]["fss"]["nu"] == exp.epoch.fss.nu
    assert cli.parse_experiment(json.loads(json.dumps(normalized))).normalized() == normalized


@pytest.mark.parametrize(
    "config, override, key",
    [
        ("epoch_crypto_small.json", "epoch.parties=2.9", "epoch.parties"),
        ("epoch_crypto_small.json", "epoch.parties=true", "epoch.parties"),
        ("epoch_crypto_small.json", "epoch.k_threshold=2.0", "epoch.k_threshold"),
        ("epoch_crypto_small.json", "epoch.id_bits=1.5", "epoch.id_bits"),
        ("epoch_crypto_small.json", "epoch.checksum_bits=true", "epoch.checksum_bits"),
        ("epoch_crypto_small.json", "epoch.epoch_id=0.5", "epoch.epoch_id"),
        ("epoch_crypto_small.json", "epoch.fss.n=8.6", "epoch.fss.n"),
        ("epoch_crypto_small.json", "epoch.fss.mu=1024.5", "epoch.fss.mu"),
        ("epoch_crypto_small.json", "trials=1.7", "trials"),
        ("epoch_crypto_small.json", "seed=false", "seed"),
        ("epoch_crypto_small.json", "population.total=500.5", "population.total"),
        ("epoch_crypto_small.json", "population.yes=true", "population.yes"),
        ("epoch_crypto_small.json", "mechanism.pi_s=true", "mechanism.pi_s"),
        ("epoch_crypto_small.json", 'mechanism.pi_s="0.45"', "mechanism.pi_s"),
        ("group_counts_multi.json", "population.groups.3=41.5", "population.groups.3"),
        ("group_counts_multi.json", "domain=[1, 2.5]", "domain"),
        ("group_counts_multi.json", "domain=[1, true]", "domain"),
        ("group_counts_multi.json", "domain=5", "domain"),
        ("group_counts_multi.json", "population.groups=3", "population.groups"),
    ],
)
def test_non_integral_config_numbers_exit_2(tmp_path, capsys, config, override, key):
    args = ["simulate", "--config", str(CONFIGS / config), "--override", override]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "groups",
    [{"1": 95, "01": 40, "2": 67}, {"1": 95, " 1": 40}, {"x": 3, "2": 67}],
    ids=["leading-zero", "leading-space", "not-an-integer"],
)
def test_population_group_keys_must_be_plain_integers(tmp_path, capsys, groups):
    # "01" and " 1" used to be merged into group 1, and "x" failed with a
    # bare int() message
    raw = json.loads((CONFIGS / "group_counts_multi.json").read_text())
    raw["population"]["groups"] = groups
    out = tmp_path / "out"
    args = ["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(out)]
    assert cli.main(args) == 2
    assert "population.groups" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "override", ["epoch.fss.lam=256", "epoch.fss.lam=64", "epoch.fss.nu=2", "epoch.fss.nu=0"]
)
def test_fss_lam_and_nu_take_only_their_fixed_values(tmp_path, capsys, override):
    # epoch_crypto_small.json: n = 10 and mu = 1024, so nu is 1
    args = ["simulate", "--config", str(CONFIGS / "epoch_crypto_small.json")]
    assert cli.main([*args, "--override", override, "--out-dir", str(tmp_path)]) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    for good in ("epoch.fss.lam=128", "epoch.fss.nu=1", "epoch.fss.nu=null"):
        assert cli.load_config(str(CONFIGS / "epoch_crypto_small.json"), [good]).epoch.fss.nu == 1


def test_messages_wider_than_64_bits_exit_2(tmp_path, capsys):
    # a slot holds one uint64: with 16 checksum bits the ID gets at most 48
    path = str(CONFIGS / "epoch_cryptofree.json")
    args = ["simulate", "--config", path, "--override", "epoch.id_bits=49"]
    assert cli.main([*args, "--out-dir", str(tmp_path)]) == 2
    assert "id_bits + checksum_bits must be at most 64" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert cli.load_config(path, ["epoch.id_bits=48"]).epoch.message_bits == 64


def test_domain_value_with_an_empty_message_exits_2(tmp_path, capsys):
    # at this epoch ID 0's checksum, and so its whole message, is 0: its
    # writes would read as empty slots and value 0 would never be counted
    raw = base_config(mode="cryptofree", trials=2)
    raw["mechanism"] = {"kind": "two_round_multi", "pi_s": 0.5, "pi_v": 0.6}
    raw["domain"] = [0, 1]
    raw["epoch"].update(id_bits=2, epoch_id=43447)
    raw["population"] = {"total": 2000, "groups": {"0": 300, "1": 300}}
    args = ["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "domain value 0" in err and "epoch_id 43447" in err
    assert not (tmp_path / "summary.json").exists()


def test_non_object_config_exits_2_with_or_without_overrides(tmp_path, capsys):
    path = write_config(tmp_path, [1, 2])
    for overrides in ([], ["--override", "trials=3"]):
        args = ["simulate", "--config", path, *overrides, "--out-dir", str(tmp_path)]
        assert cli.main(args) == 2
        assert "config must be a JSON object" in capsys.readouterr().err


def test_override_paths_and_json_values():
    raw = base_config()
    cli.apply_override(raw, "population.total=1000")
    cli.apply_override(raw, "epoch.fss.mu=1024")
    cli.apply_override(raw, "mode=cryptofree")
    assert raw["population"]["total"] == 1000
    assert raw["epoch"]["fss"]["mu"] == 1024
    assert raw["mode"] == "cryptofree"
    with pytest.raises(ConfigError):
        cli.apply_override(raw, "no-equals-sign")
    with pytest.raises(ConfigError):
        cli.apply_override(raw, "mode.deeper=1")  # descends into a string


# -- simulate ------------------------------------------------------------------


def test_simulate_writes_trials_and_summary(tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", config, "--out-dir", str(out)]) == 0
    rows = read_rows(out / "trials.csv")
    assert [*rows[0]] == list(cli.TRIALS_HEADER)
    assert len(rows) == 4  # trials x one value
    for row in rows:
        assert row["value"] == "1"
        assert row["true_count"] == "50"
        assert abs(float(row["estimate"]) - 50) < 50
        assert float(row["abs_error"]) == abs(float(row["estimate"]) - 50)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["trials"] == 4
    assert summary["per_value"]["1"]["true_count"] == 50
    assert set(summary["diagnostics"]) == {
        "halted_trials",
        "rejected_submissions",
        "duplicate_submissions",
        "collision_drops",
    }
    assert summary["mean_abs_error"] == pytest.approx(
        np.mean([float(r["abs_error"]) for r in rows])
    )


def test_simulate_is_byte_reproducible(tmp_path):
    config = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", config, "--out-dir", str(out1)]) == 0
    assert cli.main(["simulate", "--config", config, "--out-dir", str(out2)]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    config = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", config, "--out-dir", str(out1)])
    cli.main(["simulate", "--config", config, "--seed", "99", "--out-dir", str(out2)])
    assert (out1 / "trials.csv").read_bytes() != (out2 / "trials.csv").read_bytes()


def test_simulate_trials_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    cli.main(["simulate", "--config", config, "--trials", "2", "--out-dir", str(out)])
    assert len(read_rows(out / "trials.csv")) == 2


def test_simulate_flags_win_over_overrides(tmp_path, capsys):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    args = ["simulate", "--config", config, "--override", "trials=3", "--override", "seed=5"]
    assert cli.main([*args, "--trials", "2", "--seed", "99", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["config"]["trials"], summary["config"]["seed"]) == (2, 99)
    assert cli.main([*args, "--seed", "-1", "--out-dir", str(out)]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_override_flag(tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = cli.main(
        [
            "simulate",
            "--config",
            config,
            "--override",
            "population.yes=400",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    assert read_rows(out / "trials.csv")[0]["true_count"] == "400"


def test_simulate_epoch_modes_agree(tmp_path):
    raw = base_config(mode="cryptofree", trials=2)
    raw["population"] = {"total": 80, "yes": 10}
    raw["epoch"]["fss"] = {"n": 8, "lam": 128, "mu": None, "nu": None}
    out1, out2 = tmp_path / "free", tmp_path / "full"
    cli.main(["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(out1)])
    raw["mode"] = "crypto"
    cli.main(
        ["simulate", "--config", write_config(tmp_path, raw, "c2.json"), "--out-dir", str(out2)]
    )
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()


def test_simulate_worker_pool_matches_serial(tmp_path):
    # every shipped config in its own mode, whose summaries would fail to
    # serialize if a numpy scalar reached them, and crypto-free epochs whose
    # diagnostics cross the pool: the shipped multi-value config collides in
    # every trial
    cases = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
    cases["epoch_crypto_small"]["trials"] = 1  # a crypto epoch is the slow case
    multi = dict(cases["group_counts_multi"], mode="cryptofree", trials=3)
    cases["group_counts_multi_cryptofree"] = multi
    for name, raw in cases.items():
        config = write_config(tmp_path, raw, f"{name}.json")
        out1, out2 = tmp_path / name / "serial", tmp_path / name / "pool"
        assert cli.main(["simulate", "--config", config, "--out-dir", str(out1)]) == 0
        args = ["simulate", "--config", config, "--workers", "2", "--out-dir", str(out2)]
        assert cli.main(args) == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    drops = json.loads((out1 / "summary.json").read_text())["diagnostics"]["collision_drops"]
    assert all(d > 0 for d in drops)


def test_simulate_halted_trials_are_summarized_not_rowed(tmp_path):
    raw = base_config(mode="cryptofree", trials=2)
    raw["population"] = {"total": 1, "yes": 1}
    raw["epoch"]["fss"] = {"n": 8, "lam": 128, "mu": None, "nu": None}
    out = tmp_path / "out"
    assert cli.main(
        ["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(out)]
    ) == 0
    assert read_rows(out / "trials.csv") == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diagnostics"]["halted_trials"] == 2
    assert summary["mean_abs_error"] is None


def test_simulate_rejects_non_binary_truths_in_every_mode(tmp_path, capsys):
    raw = base_config()
    raw["population"] = {"total": 40, "groups": {"1": 10}}
    for mode in ("statistical", "cryptofree"):
        raw["mode"] = mode
        config = write_config(tmp_path, raw, f"{mode}.json")
        assert cli.main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert "0/1 truths" in capsys.readouterr().err


def test_simulate_rejects_blinding_other_than_square(tmp_path, capsys):
    config = str(Path(__file__).parent.parent / "configs" / "epoch_crypto_small.json")
    for kind in ("inverse", "product"):
        args = ["simulate", "--config", config, "--out-dir", str(tmp_path)]
        args += ["--override", f"epoch.blinding_kind={kind}"]
        assert cli.main(args) == 2
        assert "blinding_kind may only be 'square'" in capsys.readouterr().err


def test_simulate_bad_config_exit_code(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    config = write_config(tmp_path, base_config())
    assert cli.main(["simulate", "--config", config, "--trials", "0"]) == 2
    capsys.readouterr()


def test_unallocatable_geometry_exits_2(tmp_path, capsys):
    # 300 parties would ask for 2^299 correction words per write; the bound
    # on one key refuses them when the config is parsed
    args = ["simulate", "--config", str(CONFIGS / "epoch_crypto_small.json")]
    assert cli.main([*args, "--override", "epoch.parties=300", "--out-dir", str(tmp_path)]) == 2
    assert "bytes a crypto key may take" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("parties", [16, 40])
def test_key_bound_refuses_parties_before_allocating(parties):
    # at the default split, 16 parties at n = 10 make 403,931,152-byte keys
    # and 40 parties about 2.8e19-byte ones; both are refused while parsing,
    # which allocates next to nothing
    raw = json.loads((CONFIGS / "epoch_crypto_small.json").read_text())
    raw["epoch"]["parties"] = parties
    raw["epoch"]["fss"]["mu"] = None
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="a crypto key may take") as refused:
            cli.parse_experiment(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    if parties == 16:
        assert "keys of 403,931,152 bytes" in str(refused.value)
    # the same geometry runs crypto-free, where no key is made
    raw["mode"] = "cryptofree"
    assert cli.parse_experiment(raw).epoch.parties == parties


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse_under_the_key_bound_in_crypto_mode(path):
    experiment = cli.load_config(str(path), ["mode=crypto"])
    assert key_size_bytes(experiment.epoch.fss) <= cli._MAX_KEY_BYTES


@pytest.mark.parametrize(
    "override, bound",
    [("epoch.fss.n=31", "n must be at most 30"), ("population.total=2147483648", "2**31 - 1")],
)
def test_int32_bounds_exit_2_before_the_population_is_drawn(
    tmp_path, monkeypatch, capsys, override, bound
):
    def draw(*args):
        raise AssertionError("the population was drawn")

    monkeypatch.setattr(cli.h, "generate_population", draw)
    config = write_config(tmp_path, base_config(mode="cryptofree"))
    args = ["simulate", "--config", config, "--override", override, "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    assert bound in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    # the largest values inside both bounds parse
    raw = base_config()
    raw["epoch"]["fss"]["n"] = 30
    raw["population"]["total"] = 2**31 - 1
    assert cli.parse_experiment(raw).epoch.db_slots == 2**30


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, base_config(mode="cryptofree"))

    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB")

    monkeypatch.setattr(cli.h, "run_epoch", boom)
    assert cli.main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "could not be allocated" in err
    assert not (tmp_path / "summary.json").exists()


# -- the installed command -----------------------------------------------------


def run_module(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "covercount.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_module_command_matches_in_process_run(tmp_path):
    config = str(CONFIGS / "epoch_crypto_small.json")
    proc = run_module("simulate", "--config", config, "--out-dir", str(tmp_path / "sub"))
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["simulate", "--config", config, "--out-dir", str(tmp_path / "in")]) == 0
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()

    missing = run_module("simulate", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")


def test_console_script_is_the_entrypoint():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["name"] == "covercount"
    module, _, attr = project["scripts"]["covercount"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert target is cli.entrypoint and callable(target)


# -- datasets ------------------------------------------------------------------


def dataset_file(tmp_path, rows, header="owner_id,value"):
    path = tmp_path / "owners.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def test_dataset_binary_truths(tmp_path):
    raw = base_config()
    del raw["population"]
    raw["dataset"] = dataset_file(tmp_path, ["a,1", "b,0", "c,1"])
    exp = cli.parse_experiment(raw)
    truths = cli.load_dataset(raw["dataset"], exp)
    assert truths.tolist() == [1, 0, 1]


def test_dataset_multi_maps_unqueried_values_to_absent(tmp_path):
    raw = base_config()
    raw["mechanism"] = {"kind": "two_round_multi", "pi_s": 0.2, "pi_v": 0.5}
    raw["domain"] = [1, 3]
    raw["epoch"]["id_bits"] = 3
    raw["epoch"]["fss"]["n"] = 8
    del raw["population"]
    raw["dataset"] = dataset_file(tmp_path, ["a,1", "b,2", "c,3", "d,7"])
    exp = cli.parse_experiment(raw)
    truths = cli.load_dataset(raw["dataset"], exp)
    assert truths.tolist() == [1, -1, 3, -1]


def test_dataset_rejects_duplicates_bad_header_and_wide_values(tmp_path):
    raw = base_config()
    del raw["population"]
    raw["dataset"] = dataset_file(tmp_path, ["a,1", "a,0"])
    exp = cli.parse_experiment(raw)
    with pytest.raises(ConfigError):
        cli.load_dataset(raw["dataset"], exp)
    with pytest.raises(ConfigError):
        cli.load_dataset(dataset_file(tmp_path, ["a,1"], header="id,value"), exp)
    with pytest.raises(ConfigError):
        cli.load_dataset(dataset_file(tmp_path, ["a,2"]), exp)  # id_bits is 1
    with pytest.raises(ConfigError):
        cli.load_dataset(dataset_file(tmp_path, []), exp)
    # a row with no value, a value that is not an integer, a row with an
    # extra field, and values that are not plain decimal
    for rows in (
        ["a,1", "b"], ["a,1", "b,x"], ["a,1", "b,1,7"], ["a,1", "b,1_0"], ["a,1", "b, 1"],
        ["a,1", "b,01"],
    ):
        with pytest.raises(ConfigError, match=r"owners\.csv line 3"):
            cli.load_dataset(dataset_file(tmp_path, rows), exp)


def test_dataset_value_beyond_int64_names_the_id_bits(tmp_path, capsys):
    raw = base_config(trials=1)
    del raw["population"]
    raw["dataset"] = dataset_file(tmp_path, ["a,1", "b,99999999999999999999"])
    args = ["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(tmp_path)]
    assert cli.main(args) == 2
    assert "error: dataset values must fit 1 id bits" in capsys.readouterr().err


def test_dataset_drives_simulation(tmp_path):
    raw = base_config(trials=2)
    del raw["population"]
    raw["dataset"] = dataset_file(tmp_path, [f"owner{i},{i % 2}" for i in range(40)])
    out = tmp_path / "out"
    assert cli.main(
        ["simulate", "--config", write_config(tmp_path, raw), "--out-dir", str(out)]
    ) == 0
    assert read_rows(out / "trials.csv")[0]["true_count"] == "20"


# -- epsilon -------------------------------------------------------------------


def test_epsilon_pinned_values(tmp_path):
    out = tmp_path / "eps"
    assert cli.main(["epsilon", "--out-dir", str(out)]) == 0
    rows = read_rows(out / "epsilon.csv")
    assert [*rows[0]] == list(cli.EPSILON_HEADER)
    table = {
        (r["mechanism"], float(r["sampling_rate"]), float(r["chaff_rate"])): r["epsilon"]
        for r in rows
    }
    assert float(table[("rr", 0.8, 0.2)]) == pytest.approx(math.log(21), abs=1e-9)
    assert float(table[("binary", 0.45, 0.2)]) == pytest.approx(
        math.log(3.25), abs=1e-9
    )
    assert table[("multi", 0.45, 0.2)] == "undefined"
    # round two dominates: withdrawing is rarer than claiming
    assert float(table[("multi", 0.2, 0.45)]) == pytest.approx(
        math.log(0.45 / 0.25), abs=1e-9
    )


def test_epsilon_overfull_binary_die_is_undefined(tmp_path):
    rows = cli.epsilon_rows(["binary"], 0.25)
    table = {(r[1], r[2]): r[3] for r in rows}
    assert table[("0.75", "0.5")] == "undefined"
    assert table[("0.5", "0.5")] != "undefined"  # exactly full die


def test_epsilon_stdout_and_mechanism_filter(capsys):
    assert cli.main(["epsilon", "--mechanism", "rr", "--step", "0.25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(cli.EPSILON_HEADER)
    assert len(lines) == 1 + 9  # 3x3 grid
    assert all(line.split(",")[0] == "rr" for line in lines[1:])


def test_epsilon_rejects_bad_step():
    assert cli.main(["epsilon", "--step", "0"]) == 2


# -- benchmarks ----------------------------------------------------------------


def test_bench_fss_structure_and_key_sizes(tmp_path):
    out = tmp_path / "bench"
    code = cli.main(
        ["bench-fss", "--n", "6", "--p", "2,3", "--runs", "2", "--out-dir", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "bench_fss.csv")
    assert [*rows[0]] == list(cli.BENCH_FSS_HEADER)
    for p in (2, 3):
        mine = [r for r in rows if r["p"] == str(p)]
        assert len(mine) >= 2  # default row plus at least one override
        mus = {int(r["mu"]) for r in mine}
        assert cli.default_mu(6, p) in mus
        for r in mine:
            params = FssParams(n=6, parties=p, m=1, mu=int(r["mu"]))
            assert int(r["nu"]) == params.nu == default_nu(6, params.mu)
            assert int(r["key_bytes"]) == key_size_bytes(params)
            assert float(r["speedup"]) == pytest.approx(
                float(r["naive_full_eval_time"]) / float(r["optimized_full_eval_time"]),
                rel=1e-2,
            )


def test_bench_verify_structure(tmp_path):
    out = tmp_path / "bench"
    code = cli.main(
        [
            "bench-verify",
            "--n",
            "5",
            "--p",
            "2,3",
            "--batch",
            "8",
            "--runs",
            "2",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "bench_verify.csv")
    assert [*rows[0]] == list(cli.BENCH_VERIFY_HEADER)
    for p in (2, 3):
        kinds = [r["kind"] for r in rows if r["p"] == str(p)]
        assert kinds == ["square", "product", "inverse"]
    for r in rows:
        phases = [
            float(r["make_blinding_time"]),
            float(r["blind_time"]),
            float(r["aggregate_time"]),
            float(r["check_time"]),
        ]
        assert float(r["total_time"]) == pytest.approx(sum(phases), abs=5e-9)


# -- discretize ----------------------------------------------------------------


GRID_ARGS = [
    "--origin-lat", "0", "--origin-lon", "0", "--cell-miles", "69", "--id-bits", "16",
]


def test_discretize_prints_cell_ids(capsys):
    assert cli.main(["discretize", "--lat", "0", "--lon", "0", *GRID_ARGS]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert cli.main(["discretize", "--lat", "1.1", "--lon", "1.5", *GRID_ARGS]) == 0
    grid = mech.GridSpec(0.0, 0.0, 69.0, 16)
    assert capsys.readouterr().out.strip() == str(mech.discretize(1.1, 1.5, grid))


def test_discretize_out_of_grid_exit_code(capsys):
    assert cli.main(["discretize", "--lat", "-1", "--lon", "0", *GRID_ARGS]) == 2
    assert "outside" in capsys.readouterr().err
