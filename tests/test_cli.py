import csv
import json
from unittest.mock import ANY

import pytest

from gridrestore import Hyperparameters, TrainingConfig, serialize_feeder
from gridrestore.cli import DEFAULTS, _training_config, main
from reference import subcommand_flags


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_print_config_exits_clean_without_seed(capsys):
    code, out, _ = run(capsys, "train", "--print-config")
    assert code == 0
    resolved = json.loads(out)
    assert resolved["episodes"] == 500
    assert resolved["seed"] is None
    assert resolved["gamma"] == 0.5


# The resolved defaults, byte for byte, as train and eval print them.
DEFAULT_CONFIG_TEXT = """{
  "agents": "multi",
  "alpha": 0.5,
  "batch_size": 32,
  "capacity": 2000,
  "decay": 0.02,
  "episodes": 500,
  "eps_max": 1.0,
  "eps_min": 0.01,
  "eta": 0.05,
  "execute_steps": 16,
  "feeder": null,
  "gamma": 0.5,
  "hidden": "64,64",
  "mask": "on",
  "penalty": -1.0,
  "seed": null,
  "steps": 16,
  "sync_interval": 50
}
"""


@pytest.mark.parametrize("argv", [("train",), ("eval", "--checkpoints", "x")])
def test_print_config_text_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv, "--print-config")
    assert code == 0 and out == DEFAULT_CONFIG_TEXT


def test_defaults_round_trip_to_the_training_config():
    for seed in (0, 7, 123):
        assert _training_config({**DEFAULTS, "seed": seed}) == TrainingConfig(
            hyper=Hyperparameters(seed=seed))


def test_config_values_are_written_in_one_form(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mask": False, "hidden": "32, 16", "gamma": 0, "seed": 4}))
    code, out, _ = run(capsys, "train", "--print-config", "--config", str(cfg), "--mask", "on")
    assert code == 0
    resolved = json.loads(out)
    assert (resolved["mask"], resolved["hidden"], resolved["gamma"]) == ("on", "32,16", 0.0)
    code, out, _ = run(capsys, "train", "--print-config", "--config", str(cfg))
    assert json.loads(out)["mask"] == "off"


BAD_VALUES = [(key, value) for key in DEFAULTS for value in (None, [1], {"a": 1}, "x")] + [
    ("mask", "onn"), ("mask", "yes"), ("mask", "1"), ("mask", "true"), ("mask", "ON"),
    ("mask", 1), ("hidden", "64;64"), ("episodes", 2.5), ("episodes", True), ("gamma", 10**400),
]


@pytest.mark.parametrize("key, value", BAD_VALUES,
                         ids=[f"{k}={json.dumps(v)}"[:24] for k, v in BAD_VALUES])
def test_a_config_value_that_cannot_be_read_names_its_key(capsys, tmp_path, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"feeder": "ieee13", "seed": 1, "episodes": 2, "steps": 2,
                               key: value}))
    out = tmp_path / "r"
    code, _, err = run(capsys, "train", "--config", str(cfg), "--out", str(out))
    _fails_with_one_error_line(code, err, key)
    assert not out.exists()


def test_train_requires_seed(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--feeder", "ieee13",
                       "--episodes", "2", "--out", str(tmp_path / "r"))
    assert code == 1
    assert "seed" in err


def test_train_unknown_feeder_names_it(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--feeder", "nosuch", "--seed", "1",
                       "--out", str(tmp_path / "r"))
    assert code == 1
    assert "nosuch" in err


@pytest.mark.parametrize("flags, message", [
    (("--hidden", "0"), "hidden layer sizes must be at least 1"),
    (("--hidden", "64,-3"), "hidden layer sizes must be at least 1"),
    (("--batch-size", "5000", "--capacity", "10"), "exceeds the replay capacity 10"),
    (("--capacity", "0"), "capacity must be at least 1"),
    (("--eta", "nan"), "eta must be positive and finite"),
    (("--eta", "inf"), "eta must be positive and finite"),
    (("--decay", "nan"), "decay must be positive and finite"),
    (("--decay", "inf"), "decay must be positive and finite"),
    (("--penalty", "nan", "--mask", "off"), "penalty must be finite"),
    (("--penalty=-inf", "--mask", "off"), "penalty must be finite"),
])
def test_train_rejects_configs_that_cannot_train(capsys, tmp_path, flags, message):
    out = tmp_path / "r"
    code, _, err = run(capsys, "train", "--feeder", "ieee13", "--episodes", "2",
                       "--seed", "1", *flags, "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_eval_round_trip(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "train", "--feeder", "ieee13", "--episodes", "3",
        "--steps", "4", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert (out / "episodes.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "checkpoint_agent0.json").exists()
    assert (out / "checkpoint_agent1.json").exists()
    rows = list(csv.reader((out / "episodes.csv").open()))
    assert len(rows) == 4
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["seed"] == 7 and resolved["episodes"] == 3

    eval_out = tmp_path / "eval"
    code, stdout, _ = run(  # train's config.json names the feeder
        capsys, "eval", "--config", str(out / "config.json"), "--checkpoints", str(out),
        "--execute-steps", "5", "--out", str(eval_out),
    )
    assert code == 0
    trace_rows = list(csv.reader((eval_out / "trace.csv").open()))
    assert trace_rows[0] == ["step", "agent", "breaker", "toggle",
                             "served_kw", "reward", "violation"]
    assert len(trace_rows) == 1 + 5 * 2


def _trained(capsys, tmp_path):
    out = tmp_path / "run"
    assert run(capsys, "train", "--feeder", "ieee13", "--episodes", "2", "--steps", "4",
               "--seed", "7", "--out", str(out))[0] == 0
    return out


def _fails_with_one_error_line(code, err, *fragments):
    assert code == 1 and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert all(f in err for f in fragments), err


def test_seeded_train_config_json_is_pinned(capsys, tmp_path):
    out = _trained(capsys, tmp_path)
    assert (out / "config.json").read_text() == (
        DEFAULT_CONFIG_TEXT.replace('"episodes": 500', '"episodes": 2')
        .replace('"feeder": null', '"feeder": "ieee13"')
        .replace('"seed": null', '"seed": 7').replace('"steps": 16', '"steps": 4'))


def test_eval_rejects_a_malformed_checkpoint(capsys, tmp_path):
    out = _trained(capsys, tmp_path)
    path = out / "checkpoint_agent0.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "weights": 5}))
    code, _, err = run(capsys, "eval", "--feeder", "ieee13", "--checkpoints", str(out),
                       "--out", str(tmp_path / "eval"))
    _fails_with_one_error_line(code, err, "checkpoint_agent0.json", "weights")


def test_eval_rejects_a_rollout_of_no_steps(capsys, tmp_path):
    out = _trained(capsys, tmp_path)
    code, stdout, err = run(capsys, "eval", "--feeder", "ieee13", "--checkpoints", str(out),
                            "--execute-steps", "-3", "--out", str(tmp_path / "eval"))
    _fails_with_one_error_line(code, err, "max_steps must be at least 1, got -3")
    assert "greedy rollout" not in stdout


def test_train_outputs_are_reproducible(capsys, tmp_path):
    args = ["train", "--feeder", "ieee13", "--episodes", "3", "--steps", "4",
            "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    for name in ("episodes.csv", "checkpoint_agent0.json", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 2, "steps": 3, "seed": 5}))
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--feeder", "ieee13",
                     "--config", str(cfg), "--episodes", "4", "--out", str(out))
    assert code == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["episodes"] == 4  # flag beats file
    assert resolved["steps"] == 3    # file beats default
    rows = list(csv.reader((out / "episodes.csv").open()))
    assert len(rows) == 5


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodess": 2}))
    code, _, err = run(capsys, "train", "--feeder", "ieee13",
                       "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 1 and "episodess" in err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top level must be a JSON object, not list"),
    ('"episodes"', "top level must be a JSON object, not str"),
    ('{"episodess": 2}', "unknown config keys: episodess"),
    ('{"episodes": 2,', "not valid JSON"),
])
def test_config_file_errors_name_the_file(capsys, tmp_path, command, text, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    extra = ("--checkpoints", str(tmp_path)) if command == "eval" else ("--seed", "1")
    out = tmp_path / "r"
    code, _, err = run(capsys, command, "--feeder", "ieee13",
                       "--config", str(cfg), *extra, "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: config file {cfg}: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top level must be a JSON object, not list"),
    ('{"episodez": 3}', "unknown config keys: episodez"),
])
def test_compare_rejects_a_bad_variant_file(capsys, tmp_path, text, message):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"episodes": 3, "steps": 4}))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "cmp"
    code, stdout, err = run(capsys, "compare", "--feeder", "ieee13", "--seed", "3",
                            "--out", str(out), str(good), str(bad))
    assert code == 1
    assert err.startswith(f"error: config file {bad}: ") and message in err
    assert stdout == "" and not out.exists()  # rejected before any variant trains


def test_oracle_writes_and_reuses_cache(capsys, tmp_path):
    out = tmp_path / "oracle"
    code, stdout, _ = run(capsys, "oracle", "--feeder", "ieee13", "--out", str(out))
    assert code == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["best_weighted_kw"] == 2563.0
    assert doc["best_states"] == [0, 1, 1, 0, 0, 0, 1, 0, 1]
    assert "timestamp" in doc and "feeder_hash" in doc
    code, stdout, _ = run(capsys, "oracle", "--feeder", "ieee13", "--out", str(out))
    assert code == 0 and "cached" in stdout
    # A corrupt cache is a miss: the command recomputes and overwrites it.
    (out / "oracle.json").write_text("[1, 2]")
    code, stdout, _ = run(capsys, "oracle", "--feeder", "ieee13", "--out", str(out))
    assert code == 0 and "cached" not in stdout and "best 2563.0 kW" in stdout
    assert json.loads((out / "oracle.json").read_text()) == {**doc, "timestamp": ANY}


def test_powerflow_reports_and_dumps(capsys, tmp_path):
    out = tmp_path / "pf"
    code, stdout, _ = run(capsys, "powerflow", "--feeder", "ieee13",
                          "--states", "011000101", "--out", str(out))
    assert code == 0
    assert "served 2563.0 kW" in stdout
    assert "all constraints ok" in stdout
    volt_rows = list(csv.reader((out / "voltages.csv").open()))
    assert volt_rows[0] == ["bus", "voltage"]
    assert len(volt_rows) == 14
    flow_rows = list(csv.reader((out / "flows.csv").open()))
    assert flow_rows[0] == ["line", "p", "q", "s"]


def test_powerflow_violating_state_exits_nonzero(capsys):
    code, stdout, _ = run(capsys, "powerflow", "--feeder", "ieee13",
                          "--states", "111111111")
    assert code == 3
    assert "FAIL" in stdout


def test_powerflow_rejects_bad_state_string(capsys):
    code, _, err = run(capsys, "powerflow", "--feeder", "ieee13", "--states", "01")
    assert code == 1 and "9-character" in err


def test_validate_builtin_ok(capsys):
    code, stdout, _ = run(capsys, "validate", "--feeder", "ieee123")
    assert code == 0 and "ok" in stdout


def test_validate_broken_document(capsys, tmp_path, ieee13):
    doc = json.loads(serialize_feeder(ieee13))
    doc["partition"]["1"] = doc["partition"]["1"][:-1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "validate", "--feeder", str(path))
    assert code == 1
    assert "uncovered breaker" in stdout


def test_validate_names_a_feeder_that_is_neither_built_in_nor_a_file(capsys, tmp_path):
    code, stdout, err = run(capsys, "validate", "--feeder", str(tmp_path / "missing.json"))
    _fails_with_one_error_line(code, err, "not a built-in", "and no such file")
    assert stdout == ""


def test_compare_cli(capsys, tmp_path):
    masked = tmp_path / "masked.json"
    masked.write_text(json.dumps({"episodes": 3, "steps": 4, "mask": "on"}))
    penalty = tmp_path / "penalty.json"
    penalty.write_text(json.dumps({"episodes": 3, "steps": 4, "mask": "off"}))
    out = tmp_path / "cmp"
    code, stdout, _ = run(capsys, "compare", "--feeder", "ieee13",
                          "--seed", "3", "--out", str(out),
                          str(masked), str(penalty))
    assert code == 0
    rows = list(csv.reader((out / "comparison.csv").open()))
    assert rows[0] == ["variant", "convergence_episode", "final50_mean",
                       "final50_std", "violations", "wall_clock_s"]
    assert [r[0] for r in rows[1:]] == ["masked", "penalty"]


def test_compare_prints_each_variant_as_train_resolves_it(capsys, tmp_path):
    variants = {"masked": {"episodes": 3, "steps": 4},
                "wide": {"mask": "off", "hidden": "32", "decay": 0.1, "seed": 9}}
    paths = []
    for label, values in variants.items():
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(values))
    code, out, _ = run(capsys, "compare", "--feeder", "ieee13", "--seed", "3",
                       "--print-config", *map(str, paths))
    assert code == 0
    printed = json.loads(out)
    assert list(printed) == list(variants)
    for path in paths:
        code, alone, _ = run(capsys, "train", "--print-config", "--config", str(path),
                             "--seed", "3", "--feeder", "ieee13")
        assert code == 0 and printed[path.stem] == json.loads(alone)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(s_base_kva=[1]),
    lambda doc: doc.update(v_base_kv="abc"),
    lambda doc: doc["breakers"][0].update(state=float("inf")),
], ids=["s_base_kva-list", "v_base_kv-text", "breaker-state-overflow"])
def test_validate_reports_an_unreadable_document_in_one_error_line(capsys, tmp_path, ieee13,
                                                                   edit):
    doc = json.loads(serialize_feeder(ieee13))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    code, stdout, err = run(capsys, "validate", "--feeder", str(path))
    _fails_with_one_error_line(code, err, "bad field value")
    assert stdout == ""


def test_help_for_every_subcommand(capsys):
    for sub in ("train", "eval", "oracle", "compare", "powerflow", "validate"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "--feeder" in capsys.readouterr().out


def test_each_subcommand_takes_exactly_its_flags(capsys, tmp_path):
    # eval reads only feeder and execute_steps; train keeps every setting, and
    # records execute_steps in config.json for a later eval --config.
    assert subcommand_flags() == {
        "train": ["--feeder", "--episodes", "--steps", "--sync-interval", "--mask", "--agents",
                  "--penalty", "--hidden", "--gamma", "--alpha", "--eta", "--batch-size",
                  "--capacity", "--eps-min", "--eps-max", "--decay", "--seed",
                  "--execute-steps", "--config", "--print-config", "--out"],
        "eval": ["--feeder", "--execute-steps", "--config", "--print-config", "--checkpoints",
                 "--out"],
        "oracle": ["--feeder", "--method", "--force", "--out"],
        "compare": ["--feeder", "--seed", "--out", "--print-config"],
        "powerflow": ["--feeder", "--states", "--out"],
        "validate": ["--feeder"],
    }
    with pytest.raises(SystemExit) as exc:  # greedy execution draws no random numbers
        main(["eval", "--feeder", "ieee13", "--checkpoints", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
