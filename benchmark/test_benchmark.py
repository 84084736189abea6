"""Tests of the benchmark's own checks and tracing.

Each check is fed a real program output, which must pass, and then a copy
with one thing wrong, which must fail. Run from the repository root:

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gridrestore as gr  # noqa: E402
import tracing  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_execution,
    check_oracle,
    check_repeat,
    check_training_logs,
    fingerprint,
)
from independent import Grid  # noqa: E402

STEPS = 16


@pytest.fixture(scope="module")
def feeder():
    return gr.builtin_feeder("ieee13")


@pytest.fixture(scope="module")
def grid(feeder):
    return Grid(feeder)


@pytest.fixture(scope="module")
def optimum(grid):
    return grid.optimum()


@pytest.fixture(scope="module")
def trained(feeder):
    cfg = gr.TrainingConfig(episodes=40, hyper=gr.Hyperparameters(seed=2))
    models, logs = gr.train(feeder, cfg)
    return cfg, models, logs, gr.execute(models, feeder, max_steps=STEPS)


@pytest.fixture(scope="module")
def oracle(feeder):
    return gr.brute_force(feeder)


def _with_log(logs, i, **changes):
    out = list(logs)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def _with_entry(trace, step, **changes):
    entries = [dataclasses.replace(e, **changes) if e.step == step else e
               for e in trace.entries]
    return gr.RestorationTrace(entries, list(trace.step_states))


# -- the independent model --------------------------------------------------------


def test_independent_verdicts_match_the_solver_on_every_ieee13_state(feeder, grid):
    disagree = []
    for states in itertools.product((0, 1), repeat=feeder.n_breakers):
        mine = grid.evaluate(states)
        sol = gr.solve(feeder, states)
        theirs = gr.check_constraints(feeder, sol).all_ok
        if mine.near_limit:
            continue
        if mine.feasible != theirs or abs(mine.served_kw - sol.served_load_kw) > 1e-6:
            disagree.append(states)
    assert disagree == []


def test_independent_optimum_is_the_documented_one(optimum):
    assert optimum.served_kw == 2563.0
    assert optimum.states == (0, 1, 1, 0, 0, 0, 1, 0, 1)


# -- training logs ------------------------------------------------------------------


def test_logs_of_a_real_run_pass(trained, grid, optimum):
    cfg, _, logs, _ = trained
    check_training_logs(logs, cfg, grid, optimum)


@pytest.mark.parametrize(
    "changes",
    [
        {"epsilon": 0.5},
        {"violations": 1},
        {"reward": 17.0},
        {"reward": -17.0},
        {"restored_kw": 2601.0},
        {"steps": STEPS - 1},
        {"episode": 7},
    ],
    ids=["epsilon", "masked-violation", "R-high", "R-low", "above-capacity",
         "steps", "numbering"],
)
def test_logs_with_one_wrong_field_fail(trained, grid, optimum, changes):
    cfg, _, logs, _ = trained
    with pytest.raises(CheckFailed):
        check_training_logs(_with_log(logs, 3, **changes), cfg, grid, optimum)


def test_logs_missing_an_episode_fail(trained, grid, optimum):
    cfg, _, logs, _ = trained
    with pytest.raises(CheckFailed):
        check_training_logs(logs[:-1], cfg, grid, optimum)


def test_epsilon_one_ulp_off_still_passes(trained, grid, optimum):
    cfg, _, logs, _ = trained
    nudged = _with_log(logs, 5, epsilon=float(np.nextafter(logs[5].epsilon, 1.0)))
    check_training_logs(nudged, cfg, grid, optimum)


# -- greedy execution ---------------------------------------------------------------


def test_a_real_execution_trace_passes(trained, feeder, grid):
    *_, trace = trained
    assert check_execution(trace, feeder, grid, STEPS, {}) == 0


@pytest.mark.parametrize(
    "changes",
    [{"served_kw": 1.0}, {"reward": 0.99}],
    ids=["served", "reward"],
)
def test_a_trace_with_a_wrong_figure_fails(trained, feeder, grid, changes):
    *_, trace = trained
    with pytest.raises(CheckFailed):
        check_execution(_with_entry(trace, 4, **changes), feeder, grid, STEPS, {})


def test_a_trace_with_a_flipped_violation_flag_fails(trained, feeder, grid):
    *_, trace = trained
    flag = 1 - trace.entries[0].violation
    with pytest.raises(CheckFailed):
        check_execution(_with_entry(trace, 1, violation=flag), feeder, grid, STEPS, {})


def test_a_trace_whose_states_do_not_follow_its_toggles_fails(trained, feeder, grid):
    *_, trace = trained
    states = list(trace.step_states)
    states[2] = tuple(1 - s for s in states[2])
    with pytest.raises(CheckFailed):
        check_execution(gr.RestorationTrace(trace.entries, states), feeder, grid, STEPS, {})


def test_a_short_trace_fails(trained, feeder, grid):
    *_, trace = trained
    short = gr.RestorationTrace([e for e in trace.entries if e.step < STEPS],
                                trace.step_states[:-1])
    with pytest.raises(CheckFailed):
        check_execution(short, feeder, grid, STEPS, {})


# -- oracle -------------------------------------------------------------------------


def test_the_real_oracle_result_passes(oracle, feeder, grid, optimum):
    check_oracle(oracle, feeder, grid, optimum)


def test_a_suboptimal_feasible_state_fails(oracle, feeder, grid, optimum):
    worse = (0, 1, 1, 0, 0, 0, 1, 0, 0)  # drops the 843 kW load
    served, weighted = grid.served(worse)
    wrong = dataclasses.replace(oracle, best_states=worse, best_served_kw=served,
                                best_weighted_kw=weighted)
    assert grid.evaluate(worse).feasible
    with pytest.raises(CheckFailed):
        check_oracle(wrong, feeder, grid, optimum)


def test_an_infeasible_state_fails(oracle, feeder, grid, optimum):
    wrong = dataclasses.replace(oracle, best_states=(1,) * feeder.n_breakers)
    with pytest.raises(CheckFailed):
        check_oracle(wrong, feeder, grid, optimum)


@pytest.mark.parametrize(
    "changes",
    [{"best_served_kw": 2564.0}, {"best_weighted_kw": 2500.0},
     {"feasible_count": 224}, {"evaluated_count": 511}],
    ids=["served", "weighted", "feasible-count", "evaluated-count"],
)
def test_an_oracle_result_with_a_wrong_figure_fails(oracle, feeder, grid, optimum, changes):
    with pytest.raises(CheckFailed):
        check_oracle(dataclasses.replace(oracle, **changes), feeder, grid, optimum)


# -- repeats ------------------------------------------------------------------------


def test_a_repeat_one_bit_apart_fails(trained):
    _, models, logs, _ = trained
    first = fingerprint([x.reward for x in logs], models[0].main.weights)
    again = fingerprint([x.reward for x in logs], [w.copy() for w in models[0].main.weights])
    check_repeat(again, first)
    nudged = [w.copy() for w in models[0].main.weights]
    nudged[0][0, 0] = np.nextafter(nudged[0][0, 0], np.inf)
    with pytest.raises(CheckFailed):
        check_repeat(fingerprint([x.reward for x in logs], nudged), first)


# -- tracing ------------------------------------------------------------------------


def _traced(feeder):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = gr.TrainingConfig(episodes=6, hyper=gr.Hyperparameters(seed=1))
        gr.train(feeder, cfg)
    finally:
        tracer.uninstall()
    return tracer


def _traced_counts(feeder):
    return _traced(feeder).round_counts()


def test_traced_counts_repeat_exactly_and_add_up(feeder):
    first = _traced_counts(feeder)
    assert first == _traced_counts(feeder)
    assert first["environment.step.calls"] == 6 * STEPS
    assert (first["environment.memo.hits"] + first["environment.memo.misses"]
            == first["environment.validate_joint.calls"])
    assert (first["masking.explore_joint.calls"] + first["masking.exploit_joint.calls"]
            == 6 * STEPS)
    assert gr.train.__name__ == "train"  # every hook was taken out again


def test_a_hook_whose_target_is_gone_is_listed_and_reads_zero(feeder, monkeypatch):
    gone = tuple(
        (layer, module, path + "_gone") if layer == "agent.forward"
        else (layer, "gridrestore.gone", path) if layer == "oracle.brute_force"
        else (layer, module, path)
        for layer, module, path in tracing.HOOKS
    )
    monkeypatch.setattr(tracing, "HOOKS", gone)
    tracer = _traced(feeder)
    assert tracer.unhooked() == ["agent.forward", "oracle.brute_force"]
    counts, seconds = tracer.round_counts(), tracer.round_seconds()
    assert set(counts) | set(seconds) == set(tracing.METRICS)
    assert counts["agent.forward.calls"] == 0
    assert seconds["agent.forward.s"] == 0.0
    assert counts["environment.step.calls"] == 6 * STEPS



# -- the command ----------------------------------------------------------------------


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle-ieee123",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
