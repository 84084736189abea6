import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gridrestore import (
    EpsilonSchedule,
    Hyperparameters,
    QNetwork,
    TrainingConfig,
    convergence_episode,
    execute,
    load_models,
    save_models,
    train,
    write_comparison_csv,
    write_episodes_csv,
    write_trace_csv,
)
from gridrestore import powerflow, training
from gridrestore.training import (
    COMPARISON_HEADER,
    EPISODES_HEADER,
    TRACE_HEADER,
    agent_slots,
    compare,
)
from reference import train_in_workers


# sha256 of episodes.csv, trace.csv and the save_models checkpoint files
# (hashed in agent order) per seeded run, each followed by a greedy execute.
GOLDEN_DIGESTS = {
    "ieee13": ("ea2acd3528e2748eeca625c93f242736f5d004beba34c24515858723011565ca",
               "ddf4eeaf1ed9a8e1e9eb91e301f73f3a65132b4185d3ac12c673fa86059dd40d",
               "8fc78fdcd94d249c35cc92afdb8238d3fcf609ec1664ca3471eee69a0e772bf5"),
    "ieee13-single": ("528812e7775e3694281e830b1e24e9888875ee4a9179f6eae6c39eb5dee56412",
                      "6478c0fddc51a748911a42d29cff72f4a02e35c2bd4683aced57dc677ccef622",
                      "69eb00a862e61e0508cb0fa41dd668fd35163f9d5f6115fb68e14c8b07f631ef"),
    "ieee123-masked": ("459d909fe13e1a7bd8fba46327f5517e2e1fb2abd2bf26ec82d4931bb1d9eb85",
                       "84da2aeee603e32a9c2cb6c26926cc032010a5b12bbafdfa44d4ca0f9bd857e7",
                       "8e12ccbf9131dcbb365cf6c406f10dbd11970350fd768ab3f43e744f917a5f4a"),
    "ieee123-penalty": ("1f3979b08bcccdda0d78ab8dc23138887356621b9e217fa36884450496bc141d",
                        "8dda4add83e3dc8af50b2d9d5e8e6717d03711d8767a36d03bcde4cd642d0078",
                        "e3f5db5376456c91ee4c6dad6a9e96630ede55a0bf8d4abb313c7fe2f83352a3"),
}


def quick_cfg(seed=0, **kw):
    defaults = dict(
        episodes=8,
        steps_per_episode=6,
        sync_interval=10,
        hyper=Hyperparameters(seed=seed, batch_size=8, capacity=64),
        schedule=EpsilonSchedule(decay=0.3),
    )
    defaults.update(kw)
    return TrainingConfig(**defaults)


@pytest.mark.parametrize("hidden", [(0,), (64, -3), (8, 0, 8), (8.5,), (64, True)])
def test_config_rejects_hidden_sizes_below_one(hidden):
    with pytest.raises(ValueError, match="hidden layer sizes must be at least 1"):
        TrainingConfig(hidden_sizes=hidden)


@pytest.mark.parametrize("name, value", [
    ("episodes", -1), ("episodes", 2.5), ("episodes", True), ("steps_per_episode", 0),
    ("steps_per_episode", 3.5), ("sync_interval", 2.5), ("sync_interval", np.int64(50)),
])
def test_config_rejects_a_count_that_is_not_an_int(name, value):
    # A float count failed later inside range() or numpy, or trained as if whole.
    least = 0 if name == "episodes" else 1
    with pytest.raises(ValueError, match=f"^{name} must be at least {least} and an int, not {re.escape(repr(value))}$"):
        TrainingConfig(**{name: value})


@pytest.mark.parametrize("masking", ["off", "no", 0, None, 1, np.bool_(True)],
                         ids=["off", "no", "0", "None", "1", "numpy-bool"])
def test_config_rejects_a_masking_that_is_not_a_bool(masking):
    # "off" and "no" are truthy and trained masked; 0 and None trained with penalties.
    with pytest.raises(ValueError, match=f"^masking must be a bool, not {re.escape(repr(masking))}$"):
        TrainingConfig(masking=masking)


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf"), "x", True])
def test_config_rejects_a_non_finite_penalty(penalty):
    with pytest.raises(ValueError, match="penalty must be finite"):
        TrainingConfig(penalty=penalty)


def test_config_allows_no_hidden_layer():
    assert TrainingConfig(hidden_sizes=()).hidden_sizes == ()


def test_zero_episodes_returns_fresh_models(ieee13):
    models, logs = train(ieee13, quick_cfg(episodes=0))
    assert logs == []
    assert len(models) == 2
    assert models[0].main.n_inputs == 4
    assert models[1].main.n_outputs == 10


def test_train_returns_plain_unpadded_networks(ieee123):
    # Training steps zero-padded stacks; the models it returns are not views.
    models, _ = train(ieee123, quick_cfg(seed=6, episodes=3, hidden_sizes=(8,)))
    for pair, n in zip(models, (10, 5, 3, 3, 5)):
        for net in (pair.main, pair.target):
            assert net.layer_sizes == [n, 8, 2 * n]
            for a in net.weights + net.biases:
                assert a.flags.c_contiguous and a.base is None


def test_training_is_bit_reproducible(ieee13):
    runs = []
    for _ in range(2):
        models, logs = train(ieee13, quick_cfg(seed=13))
        runs.append((models, logs))
    assert runs[0][1] == runs[1][1]
    for a, b in zip(runs[0][0], runs[1][0]):
        for w1, w2 in zip(a.main.weights, b.main.weights):
            assert np.array_equal(w1, w2)
        for w1, w2 in zip(a.target.weights, b.target.weights):
            assert np.array_equal(w1, w2)


def test_a_worker_run_is_bit_identical_to_an_in_process_run(ieee13):
    cfg = quick_cfg(seed=17, episodes=30)
    [(models, logs)] = train_in_workers("ieee13", [cfg])
    here_models, here_logs = train(ieee13, cfg)
    assert logs == here_logs
    for a, b in zip(models, here_models, strict=True):
        for x, y in zip(a.main.weights + a.main.biases + a.target.weights + a.target.biases,
                        b.main.weights + b.main.biases + b.target.weights + b.target.biases,
                        strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_masked_run_has_zero_violations(ieee13):
    _, logs = train(ieee13, quick_cfg(seed=2, episodes=12))
    assert sum(log.violations for log in logs) == 0
    assert all(0.0 <= log.reward <= log.steps for log in logs)


def test_penalty_run_counts_violations(ieee13):
    _, logs = train(ieee13, quick_cfg(seed=2, episodes=12, masking=False))
    assert sum(log.violations for log in logs) > 0
    assert any(log.reward < 0 for log in logs)


def test_single_agent_mode_collapses_partition(ieee13):
    assert agent_slots(ieee13, "single") == [tuple(range(9))]
    models, logs = train(ieee13, quick_cfg(seed=1, agent_mode="single"))
    assert len(models) == 1
    assert models[0].main.n_inputs == 9
    assert models[0].main.n_outputs == 18
    assert len(logs) == 8


def test_episode_log_fields(ieee13):
    cfg = quick_cfg(seed=5, episodes=3)
    _, logs = train(ieee13, cfg)
    assert [log.episode for log in logs] == [0, 1, 2]
    for log in logs:
        assert log.epsilon == pytest.approx(cfg.schedule.value(log.episode))
        assert log.steps == cfg.steps_per_episode
        assert log.r_per_step == pytest.approx(log.reward / cfg.steps_per_episode)


def test_execute_untrained_zero_models_is_deterministic(ieee13):
    nets = []
    for group in ieee13.partition.assignments:
        n = len(group)
        nets.append(QNetwork(
            [np.zeros((2 * n, n))], [np.zeros(2 * n)]
        ))
    trace = execute(nets, ieee13, max_steps=5)
    # All-zero outputs tie-break to index 0: every agent closes its first
    # breaker and then keeps re-closing it.
    assert trace.step_states[0][0] == 1 and trace.step_states[0][4] == 1
    assert trace.step_states[-1] == trace.step_states[0]
    assert trace.final_served_kw == 230.0 + 170.0
    again = execute(nets, ieee13, max_steps=5)
    assert again.entries == trace.entries


def test_trace_reads_each_step_once_on_a_violating_rollout(ieee13):
    # Each agent closes its lowest open breaker, then, all closed, opens its
    # first: steps 3-6 violate. Every agent's entry repeats its step's served
    # kW and violation, which the trace counts once per step.
    nets = []
    for group in ieee13.partition.assignments:
        n = len(group)
        weights, biases = np.zeros((2 * n, n)), np.zeros(2 * n)
        weights[2 * np.arange(n), np.arange(n)] = -10.0  # a closed breaker is not closed again
        biases[2 * np.arange(n)] = n - np.arange(n)
        nets.append(QNetwork([weights], [biases]))
    trace = execute(nets, ieee13, max_steps=6)
    assert len(trace.entries) == 12 and sum(e.violation for e in trace.entries) == 8
    assert trace.served_series() == [400.0, 698.0, 2248.0, 2618.0, 3231.0, 3291.0]
    assert trace.total_violations == 4
    assert trace.final_served_kw == 3291.0


def test_execute_requires_matching_models(ieee13):
    bad = [QNetwork([np.zeros((6, 3))], [np.zeros(6)])]
    with pytest.raises(ValueError):
        execute(bad, ieee13)


def test_convergence_episode_on_synthetic_series():
    flat = [1.0] * 100
    assert convergence_episode(flat) == 0
    ramp = list(np.linspace(0, 10, 200)) + [10.0] * 60
    e = convergence_episode(ramp)
    assert e is not None and 150 < e <= 210
    assert convergence_episode([1.0] * 10) is None
    # A run whose best episode is negative settles within 5% of its magnitude.
    assert convergence_episode([-1.0] * 100) == 0
    rising = list(np.linspace(-10, -1, 200)) + [-1.0] * 60
    e = convergence_episode(rising)
    assert e is not None and 150 < e <= 210


def test_episodes_csv_schema(tmp_path, ieee13):
    _, logs = train(ieee13, quick_cfg(seed=3, episodes=4))
    path = tmp_path / "episodes.csv"
    write_episodes_csv(path, logs)
    rows = list(csv.reader(path.open()))
    assert rows[0] == EPISODES_HEADER
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    # byte-stable rewrite
    first = path.read_bytes()
    write_episodes_csv(path, logs)
    assert path.read_bytes() == first


def test_trace_csv_schema(tmp_path, ieee13):
    models, _ = train(ieee13, quick_cfg(seed=4, episodes=2))
    trace = execute(models, ieee13, max_steps=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    rows = list(csv.reader(path.open()))
    assert rows[0] == TRACE_HEADER
    assert len(rows) == 1 + 3 * 2  # one row per (step, agent)
    assert {r[3] for r in rows[1:]} <= {"close", "open"}


def test_checkpoint_round_trip_through_execute(tmp_path, ieee13):
    cfg = quick_cfg(seed=6, episodes=4)
    models, _ = train(ieee13, cfg)
    save_models(tmp_path, ieee13, models)
    nets, slots = load_models(tmp_path, ieee13)
    assert slots == agent_slots(ieee13, "multi")
    direct = execute(models, ieee13, max_steps=4)
    loaded = execute(nets, ieee13, max_steps=4, slots=slots)
    assert direct.entries == loaded.entries


def test_save_models_binds_each_checkpoint_by_its_models(tmp_path, ieee13):
    # The binding is read from the models' shapes, as ``execute`` reads it;
    # models that match no partition of the feeder write no file.
    trained = {mode: train(ieee13, quick_cfg(seed=6, episodes=2, agent_mode=mode))[0]
               for mode in ("multi", "single")}
    for mode, models in trained.items():
        assert len(save_models(tmp_path / mode, ieee13, models)) == len(models)
        assert load_models(tmp_path / mode, ieee13)[1] == agent_slots(ieee13, mode)
    with pytest.raises(ValueError, match="do not match the feeder's partition"):
        save_models(tmp_path / "agent1", ieee13, trained["multi"][1:])
    assert not (tmp_path / "agent1").exists()


def test_a_save_over_a_larger_save_leaves_only_its_own_checkpoints(tmp_path, ieee13):
    # A single-agent save over a multi-agent one loads back as that one agent:
    # the earlier save's checkpoint_agent1.json goes, and an unrelated file stays.
    multi, _ = train(ieee13, quick_cfg(seed=6, episodes=2))
    single, _ = train(ieee13, quick_cfg(seed=6, episodes=2, agent_mode="single"))
    save_models(tmp_path, ieee13, multi)
    (tmp_path / "notes.txt").write_text("kept")
    written = save_models(tmp_path, ieee13, single)
    nets, slots = load_models(tmp_path, ieee13)
    assert slots == agent_slots(ieee13, "single") and len(nets) == 1
    assert nets[0].weights[0].tobytes() == single[0].main.weights[0].tobytes()
    execute(nets, ieee13, max_steps=2, slots=slots)
    assert written == [str(tmp_path / "checkpoint_agent0.json")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_agent0.json", "notes.txt"]


# fault: (where in agent 1's checkpoint, the value put there, expected message);
# an empty path replaces the whole document.
CHECKPOINT_FAULTS = {
    "duplicate-agent": (("agent",), 0, "both hold agent 0"),
    "nan-weight": (("weights", 0, 0, 0), float("nan"), "non-finite"),
    "inf-bias": (("biases", -1, 0), float("inf"), "non-finite"),
    "int-weights": (("weights",), 5, "mistyped weights"),
    "int-breakers": (("breakers",), 5, "mistyped breakers"),
    "null-agent": (("agent",), None, "mistyped agent"),
    "ragged-weights": (("weights", 0, 0), [1.0, [2.0]], "inhomogeneous"),
    "bias-shape": (("biases", 0), [1.0], "architecture mismatch"),
    "unknown-breaker": (("breakers", 0), "nope", "breaker 'nope'"),
    "top-level-list": ((), [1, 2], "top level must be a JSON object, not list"),
}


@pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
def test_load_models_rejects_a_bad_checkpoint_by_name(tmp_path, ieee13, fault):
    cfg = quick_cfg(seed=6, episodes=2)
    models, _ = train(ieee13, cfg)
    save_models(tmp_path, ieee13, models)
    path = tmp_path / "checkpoint_agent1.json"
    keys, value, message = CHECKPOINT_FAULTS[fault]
    doc = json.loads(path.read_text())
    if keys:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint_agent1.json") as raised:
        load_models(tmp_path, ieee13)
    assert message in str(raised.value)


def test_compare_emits_one_row_per_variant(tmp_path, ieee13):
    rows = compare(
        ieee13,
        [
            ("masked", quick_cfg(seed=9)),
            ("penalty", quick_cfg(seed=9, masking=False)),
        ],
    )
    assert [r["variant"] for r in rows] == ["masked", "penalty"]
    assert rows[0]["violations"] == 0
    assert rows[1]["violations"] > 0
    for row in rows:
        assert set(row) == set(COMPARISON_HEADER)
        assert row["wall_clock_s"] > 0
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, rows)
    header = list(csv.reader(path.open()))[0]
    assert header == COMPARISON_HEADER


def test_compare_times_each_variant_with_its_own_page_fills(ieee13, monkeypatch):
    # Each variant trains on its own copy of the feeder, so the verdict pages it
    # needs are solved inside its wall_clock_s and not reused from the one before.
    batches, per_variant = [], []
    solve_batch, train_alone = powerflow.solve_batch, training.train

    def counted_batch(*args):
        batches.append(args)
        return solve_batch(*args)

    def counted_train(feeder, cfg):
        before = len(batches)
        trained = train_alone(feeder, cfg)
        per_variant.append(len(batches) - before)
        return trained

    monkeypatch.setattr(powerflow, "solve_batch", counted_batch)
    monkeypatch.setattr(training, "train", counted_train)
    rows = compare(ieee13, [("a", quick_cfg(seed=4)), ("b", quick_cfg(seed=4))])
    assert per_variant[0] == per_variant[1] > 0
    same = [{k: v for k, v in row.items() if k not in ("variant", "wall_clock_s")} for row in rows]
    assert same[0] == same[1]


def test_trace_reward_column_is_normalized_power(ieee13):
    models, _ = train(ieee13, quick_cfg(seed=8, episodes=3))
    trace = execute(models, ieee13, max_steps=4)
    for entry in trace.entries:
        assert entry.reward == pytest.approx(entry.served_kw / 3461.0)


def test_golden_fingerprint_of_training_and_execution(tmp_path, ieee13, ieee123):
    # Pins the learned behaviour bit for bit on both feeders, with two, five
    # and one agent: a refactor of the solver, the memo or the learning loop
    # must leave the logs, the rollout and the checkpoints byte-identical.
    five_agent = dict(hyper=Hyperparameters(seed=3, gamma=0.95),
                      schedule=EpsilonSchedule(decay=0.004))
    runs = {  # name: (feeder, config, execute steps)
        "ieee13": (ieee13, TrainingConfig(episodes=60, hyper=Hyperparameters(seed=2)), 16),
        "ieee13-single": (ieee13, TrainingConfig(
            episodes=60, agent_mode="single", hyper=Hyperparameters(seed=2)), 16),
        # five agents of widths 10, 5, 3, 3 and 5
        "ieee123-masked": (ieee123, TrainingConfig(episodes=20, **five_agent), 30),
        "ieee123-penalty": (ieee123, TrainingConfig(episodes=20, masking=False,
                                                    **five_agent), 30),
    }
    digests = {}
    for name, (feeder, cfg, steps) in runs.items():
        out = tmp_path / name
        models, logs = train(feeder, cfg)
        if cfg.masking:
            assert sum(log.violations for log in logs) == 0
        out.mkdir()
        write_episodes_csv(out / "episodes.csv", logs)
        write_trace_csv(out / "trace.csv", execute(models, feeder, max_steps=steps))
        checkpoints = hashlib.sha256()
        for path in save_models(out, feeder, models):
            checkpoints.update(Path(path).read_bytes())
        digests[name] = (
            hashlib.sha256((out / "episodes.csv").read_bytes()).hexdigest(),
            hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
            checkpoints.hexdigest(),
        )
    assert digests == GOLDEN_DIGESTS
