import csv
import hashlib
import json

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
from gridrestore.training import (
    COMPARISON_HEADER,
    EPISODES_HEADER,
    TRACE_HEADER,
    agent_slots,
    compare,
)


# sha256 of the episodes.csv and trace.csv bytes of a seed-2, 60-episode
# ieee13 run at package defaults followed by a default greedy execute.
GOLDEN_EPISODES_SHA256 = "ea2acd3528e2748eeca625c93f242736f5d004beba34c24515858723011565ca"
GOLDEN_TRACE_SHA256 = "ddf4eeaf1ed9a8e1e9eb91e301f73f3a65132b4185d3ac12c673fa86059dd40d"


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


def test_zero_episodes_returns_fresh_models(ieee13):
    models, logs = train(ieee13, quick_cfg(episodes=0))
    assert logs == []
    assert len(models) == 2
    assert models[0].main.n_inputs == 4
    assert models[1].main.n_outputs == 10


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


def test_execute_requires_matching_models(ieee13):
    bad = [QNetwork([np.zeros((6, 3))], [np.zeros(6)])]
    with pytest.raises(ValueError):
        execute(bad, ieee13)


def test_convergence_episode_on_synthetic_series():
    flat = [1.0] * 100
    assert convergence_episode(flat, window=50) == 0
    ramp = list(np.linspace(0, 10, 200)) + [10.0] * 60
    e = convergence_episode(ramp, window=50)
    assert e is not None and 150 < e <= 210
    assert convergence_episode([1.0] * 10, window=50) is None


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
    save_models(tmp_path, ieee13, cfg, models)
    nets, slots = load_models(tmp_path, ieee13)
    assert slots == agent_slots(ieee13, "multi")
    direct = execute(models, ieee13, max_steps=4)
    loaded = execute(nets, ieee13, max_steps=4, slots=slots)
    assert direct.entries == loaded.entries


@pytest.mark.parametrize("fault", ["duplicate-agent", "nan-weight", "inf-bias"])
def test_load_models_rejects_a_bad_checkpoint_by_name(tmp_path, ieee13, fault):
    cfg = quick_cfg(seed=6, episodes=2)
    models, _ = train(ieee13, cfg)
    save_models(tmp_path, ieee13, cfg, models)
    path = tmp_path / "checkpoint_agent1.json"
    doc = json.loads(path.read_text())
    if fault == "duplicate-agent":
        doc["agent"] = 0
    elif fault == "nan-weight":
        doc["weights"][0][0][0] = float("nan")
    else:
        doc["biases"][-1][0] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint_agent1.json"):
        load_models(tmp_path, ieee13)


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


def test_trace_reward_column_is_normalized_power(ieee13):
    models, _ = train(ieee13, quick_cfg(seed=8, episodes=3))
    trace = execute(models, ieee13, max_steps=4)
    for entry in trace.entries:
        assert entry.reward == pytest.approx(entry.served_kw / 3461.0)


def test_golden_fingerprint_of_training_and_execution(tmp_path, ieee13):
    # Pins the learned behaviour bit for bit: a refactor of the solver, the
    # memo or the learning loop must leave both files byte-identical.
    models, logs = train(ieee13, TrainingConfig(episodes=60, hyper=Hyperparameters(seed=2)))
    write_episodes_csv(tmp_path / "episodes.csv", logs)
    write_trace_csv(tmp_path / "trace.csv", execute(models, ieee13))
    digest = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("episodes.csv", "trace.csv")
    }
    assert digest == {
        "episodes.csv": GOLDEN_EPISODES_SHA256,
        "trace.csv": GOLDEN_TRACE_SHA256,
    }
