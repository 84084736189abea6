import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest

from gridrestore import (
    Breaker,
    Bus,
    EpisodeExhausted,
    EpsilonSchedule,
    Feeder,
    Generator,
    Hyperparameters,
    InvalidJointAction,
    Line,
    LoadPoint,
    MicrogridPartition,
    QNetwork,
    RestorationEnv,
    TrainingConfig,
    brute_force,
    check_constraints,
    execute,
    islands,
    solve,
    train,
)
from gridrestore import oracle, powerflow
from reference import joined_islands, random_multi_generator_feeder, random_radial_feeder

DEFAULT_CELLS = powerflow._BATCH_CELLS
DEFAULT_ROWS_123 = [91, 163, 240, 256, 204]  # ieee123 islands of 45, 25, 17, 16 and 20 buses


def page_rows(feeder):
    """Each island's rows per verdict page, as its network index fixed them."""
    return [powerflow._network_index(sub).page_rows for _, sub in islands(feeder)]


def assert_pages_are_whole(feeder):
    """Every filled page of every island holds its index's rows, the last cut at 2^n."""
    for _, sub in islands(feeder):
        idx = powerflow._network_index(sub)
        r, n = idx.page_rows, sub.n_breakers
        assert all(len(v.feasible) == min(r, 2 ** n - page * r) for page, v in idx.pages.items())


def joint(*indices):
    return indices


def close(ordinal):
    return 2 * ordinal


def open_(ordinal):
    return 2 * ordinal + 1


NOOP13 = joint(1, 1)  # open-toggle on already-open breaker 0 of each agent


@pytest.fixture
def env13(ieee13):
    env = RestorationEnv(ieee13)
    env.reset()
    return env


def test_action_encoding_bijection(ieee13):
    # From the all-open state, index 2k closes an agent's breaker k and 2k+1
    # opens it again, for every breaker of every agent.
    env = RestorationEnv(ieee13, reward_mode="penalty", max_steps=100)
    env.reset()
    for agent, group in enumerate(env.agent_breakers):
        for k, breaker in enumerate(group):
            actions = [open_(0)] * env.n_agents
            actions[agent] = close(k)
            env.step(actions)
            assert env.breaker_states == tuple(int(b == breaker) for b in range(9))
            actions[agent] = open_(k)
            env.step(actions)
            assert env.breaker_states == (0,) * 9


def test_reset_observation_shapes(ieee13, ieee123):
    obs = RestorationEnv(ieee13).reset()
    assert obs.shape == (2, 5) and obs.dtype == np.int8
    assert not obs.any()
    obs = RestorationEnv(ieee123).reset()
    assert obs.shape == (5, 10) and obs.dtype == np.int8
    assert RestorationEnv(ieee123).action_space_sizes() == [20, 10, 6, 6, 10]


def test_reset_state_reward_is_zero(ieee13):
    # No-op toggles keep the all-open reset state, which serves nothing.
    env = RestorationEnv(ieee13, reward_mode="penalty")
    env.reset()
    result = env.step(NOOP13)
    assert (result.reward, result.served_kw, result.weighted_kw) == (0.0, 0.0, 0.0)
    assert result.constraints_ok


def test_step_reward_is_normalized_restored_power(env13):
    # agent 0 closes its 400 kW load (ordinal 2), agent 1 its 170 kW load
    # (ordinal 0): restored 570 of 3461 kW.
    result = env13.step(joint(close(2), close(0)))
    assert result.reward == pytest.approx(570.0 / 3461.0, abs=1e-12)
    assert result.served_kw == 570.0
    assert result.constraints_ok
    assert env13.breaker_states == (0, 0, 1, 0, 1, 0, 0, 0, 0)


def test_noop_toggles_change_nothing(env13):
    first = env13.step(joint(close(2), close(0)))
    before = env13.breaker_states
    # Open-toggles aimed at still-open breakers are legal no-ops.
    second = env13.step(joint(open_(0), open_(1)))
    assert env13.breaker_states == before
    assert second.reward == pytest.approx(first.reward)


def test_episode_exhaustion(ieee13):
    env = RestorationEnv(ieee13, max_steps=2)
    env.reset()
    env.step(NOOP13)
    env.step(NOOP13)
    with pytest.raises(EpisodeExhausted):
        env.step(NOOP13)
    env.reset()
    env.step(NOOP13)  # reset clears the budget


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, True, "16"])
def test_max_steps_below_one_is_rejected(ieee13, max_steps):
    # Below 1, or not an int (a bool is not one): refused, naming the value,
    # before an episode or a rollout's range() starts.
    message = re.escape(f"max_steps must be at least 1, got {max_steps}" if type(max_steps) is int
                        else f"max_steps must be an int, not {max_steps!r}")
    with pytest.raises(ValueError, match=message):
        RestorationEnv(ieee13, max_steps=max_steps)
    zero_nets = [QNetwork([np.zeros((2 * len(g), len(g)))], [np.zeros(2 * len(g))])
                 for g in ieee13.partition.assignments]
    with pytest.raises(ValueError, match=message):
        execute(zero_nets, ieee13, max_steps=max_steps)


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf"), "x", True, None,
                                     -10 ** 400])
def test_penalty_that_is_not_a_finite_real_number_is_rejected(ieee13, penalty):
    # A non-finite, non-numeric or bool penalty was returned as a step's reward;
    # an int past the float range failed inside training's replay ring.
    message = re.escape(f"penalty must be finite and a real number, not {penalty!r}")
    with pytest.raises(ValueError, match=message):
        RestorationEnv(ieee13, reward_mode="penalty", penalty=penalty)
    for ok in (-2.5, -3, np.float32(-0.5)):
        assert RestorationEnv(ieee13, reward_mode="penalty", penalty=ok).penalty == ok


def test_validate_joint_examples(env13):
    assert env13.validate_joint(NOOP13) is True
    # One 128 kW load alone is feasible.
    assert env13.validate_joint(joint(1, close(1))) is True
    # 230 + 170 + 200 kW in microgrid 1 exceeds its 590 kW source.
    env13.step(joint(close(0), 1))
    env13.step(joint(close(1), 1))
    assert env13.validate_joint(joint(close(3), 1)) is False


def test_validate_joint_is_pure(env13):
    env13.step(joint(close(2), close(2)))
    snapshot = (env13.breaker_states, env13.step_count, env13.violation_count)
    for index in range(8):
        env13.validate_joint(joint(index, index))
    assert (env13.breaker_states, env13.step_count, env13.violation_count) == snapshot


def test_masked_step_rejects_invalid_joint(ieee13):
    env = RestorationEnv(ieee13, reward_mode="masked")
    env.reset()
    # Close everything at once: 3461 kW > 2600 kW capacity.
    env.step(joint(close(0), close(0)))
    env.step(joint(close(1), close(1)))
    bad = joint(close(2), close(2))
    assert env.validate_joint(bad) is False
    with pytest.raises(InvalidJointAction):
        env.step(bad)


def test_penalty_mode_applies_and_counts_violations(ieee13):
    env = RestorationEnv(ieee13, reward_mode="penalty", penalty=-1.0)
    env.reset()
    env.step(joint(close(0), 1))
    env.step(joint(close(1), 1))
    result = env.step(joint(close(3), 1))
    assert result.reward == -1.0
    assert not result.constraints_ok
    assert env.violation_count == 1
    assert env.breaker_states[3] == 1  # the invalid action was applied


def test_reward_penalty_examples(ieee13):
    env = RestorationEnv(ieee13, reward_mode="penalty", penalty=-2.5)
    env.reset()
    # Put microgrid 1 at 570 kW so the extra 230 kW close becomes infeasible.
    env.step(joint(close(1), 1))
    env.step(joint(close(2), 1))
    assert env.step(NOOP13).reward == pytest.approx(570.0 / 3461.0)
    bad = joint(close(0), close(0))
    assert env.step(bad).reward == -2.5


def test_reward_penalty_full_restoration_is_one():
    feeder = Feeder(
        name="tiny",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b")),
        lines=(Line("l1", "a", "b", 0.001, 0.002, 500.0),),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(LoadPoint("ld", "b", 100.0, 30.0, 1.0, "cb"),),
        generators=(Generator("g", "a", 0.0, 300.0, 0.0, 200.0),),
        partition=MicrogridPartition((("cb",),)),
    )
    env = RestorationEnv(feeder, reward_mode="penalty")
    env.reset()
    assert env.step(joint(0)).reward == pytest.approx(1.0)


def test_joint_application_is_order_independent(ieee13):
    a = RestorationEnv(ieee13)
    a.reset()
    a.step(joint(close(2), close(4)))
    expected = list(0 for _ in range(9))
    # apply agent 1's toggle first, then agent 0's, by hand
    expected[ieee13.agent_breaker_indices(1)[4]] = 1
    expected[ieee13.agent_breaker_indices(0)[2]] = 1
    assert a.breaker_states == tuple(expected)


def test_step_determinism(ieee13):
    results = []
    for _ in range(2):
        env = RestorationEnv(ieee13)
        env.reset()
        r1 = env.step(joint(close(2), close(0)))
        r2 = env.step(joint(close(1), close(4)))
        results.append((r1.reward, r2.reward, r2.observations.tolist()))
    assert results[0] == results[1]


def test_reward_bounds_on_random_valid_walk(ieee13):
    rng = np.random.default_rng(3)
    env = RestorationEnv(ieee13, max_steps=200)
    env.reset()
    sizes = env.action_space_sizes()
    taken = 0
    while taken < 60:
        candidate = joint(*(int(rng.integers(n)) for n in sizes))
        if env.validate_joint(candidate):
            result = env.step(candidate)
            assert 0.0 <= result.reward <= 1.0
            taken += 1


def test_out_of_range_action_rejected(env13):
    with pytest.raises(ValueError):
        env13.step(joint(8, 0))
    with pytest.raises(ValueError):
        env13.step(joint(0))


def test_noop_open_actions_track_state(env13):
    # An open toggle is a no-op when its breaker reads open in the agent's row.
    def noops(rows):
        return [open_(k) for k in range(4) if not rows[0, k]]

    assert noops(env13.reset()) == [1, 3, 5, 7]
    assert noops(env13.step(joint(close(1), 1)).observations) == [1, 5, 7]


@pytest.mark.parametrize("name", ["ieee13", "ieee123", "joined"])
def test_each_action_moves_only_its_breaker_and_rows_mirror_the_state(request, name):
    # joined: agents of 2, 1, 1 and 3 breakers, agent 0 spanning two islands.
    if name == "joined":
        feeder = joined_islands(np.random.default_rng(66))
    else:
        feeder = request.getfixturevalue(name)
    env = RestorationEnv(feeder, reward_mode="penalty", max_steps=10**6)
    groups = env.agent_breakers
    width = max(map(len, groups))

    def expected_rows():
        rows = np.zeros((len(groups), width), dtype=np.int8)
        for i, group in enumerate(groups):
            rows[i, : len(group)] = [env.breaker_states[b] for b in group]
        return rows

    rng = np.random.default_rng(5)
    rows = env.reset()
    for _ in range(6):  # reachable states along a random walk
        assert rows.dtype == np.int8 and np.array_equal(rows, expected_rows())
        before = env.breaker_states
        # Re-asserting breaker 0's own state keeps every other agent still.
        keep = [close(0) if before[group[0]] else open_(0) for group in groups]
        for agent, group in enumerate(groups):
            for a in range(2 * len(group)):
                actions = list(keep)
                actions[agent] = a
                after = list(before)
                after[group[a >> 1]] = 1 - (a & 1)
                result = env.step(actions)
                assert env.breaker_states == tuple(after)
                assert np.array_equal(result.observations, expected_rows())
                actions[agent] = (close if before[group[a >> 1]] else open_)(a >> 1)
                env.step(actions)
                assert env.breaker_states == before
        steps = env.step_count
        for bad in (keep[:-1], keep + [1]):
            with pytest.raises(ValueError, match=f"{len(bad)} entries for {len(groups)} agents"):
                env.validate_joint(bad)
            with pytest.raises(ValueError, match=f"{len(bad)} entries"):
                env.step(bad)
        for agent, group in enumerate(groups):
            for a in (-1, 2 * len(group)):
                bad = list(keep)
                bad[agent] = a
                with pytest.raises(ValueError, match=f"index {a} out of range for agent {agent}"):
                    env.validate_joint(bad)
                with pytest.raises(ValueError, match=f"agent {agent}"):
                    env.step(bad)
        assert (env.breaker_states, env.step_count) == (before, steps)
        rows = env.step([int(rng.integers(n)) for n in env.action_space_sizes()]).observations


def test_a_valid_joint_action_always_exists(ieee13):
    # From any reachable masked state, every all-open-toggle joint action is
    # valid: opening only sheds load, so it preserves or relaxes feasibility.
    # This is the mask-loop termination guarantee.
    rng = np.random.default_rng(12)
    env = RestorationEnv(ieee13, max_steps=500)
    env.reset()
    sizes = env.action_space_sizes()
    checked = 0
    while checked < 60:
        opens = joint(*(2 * int(rng.integers(n // 2)) + 1 for n in sizes))
        assert env.validate_joint(opens)
        checked += 1
        candidate = joint(*(int(rng.integers(n)) for n in sizes))
        if env.validate_joint(candidate):
            env.step(candidate)


def count_evaluations(monkeypatch, env):
    """Record the candidate states of every verdict lookup ``env`` makes."""
    calls = []
    inner = env._feasibility

    def counting(states):
        calls.append(tuple(states.tolist()))
        return inner(states)

    monkeypatch.setattr(env, "_feasibility", counting)
    return calls


@pytest.mark.parametrize("mode", ["masked", "penalty"])
def test_validate_and_step_each_evaluate_their_joint_once(monkeypatch, ieee13, mode):
    # Validation is a pure query: a step looks its joint up again whatever was
    # validated before it (that joint, another one, or one before a reset).
    env = RestorationEnv(ieee13, reward_mode=mode)
    env.reset()
    calls = count_evaluations(monkeypatch, env)
    a, b = joint(close(2), close(0)), joint(close(1), 1)
    ops = [("validate_joint", a), ("step", a), ("step", a), ("validate_joint", a), ("step", b),
           ("validate_joint", b), ("reset", None), ("validate_joint", b), ("validate_joint", a),
           ("step", b)]
    for n, (op, actions) in enumerate(ops):
        before = len(calls)
        if op == "reset":
            env.reset()
            assert len(calls) == before
            continue
        result = getattr(env, op)(actions)
        assert len(calls) == before + 1, (n, op)
        if op == "step":
            assert calls[-1] == env.breaker_states
    assert calls[:2] == [(0, 0, 1, 0, 1, 0, 0, 0, 0)] * 2
    assert env.breaker_states == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert (result.served_kw, result.constraints_ok) == (170.0, True)
    assert env.violation_count == 0


def test_validated_invalid_joint_still_raises_in_masked_mode(monkeypatch, ieee13):
    env = RestorationEnv(ieee13)
    env.reset()
    env.step(joint(close(0), close(0)))
    env.step(joint(close(1), close(1)))
    calls = count_evaluations(monkeypatch, env)
    bad = joint(close(2), close(2))
    assert env.validate_joint(bad) is False
    with pytest.raises(InvalidJointAction):
        env.step(bad)
    assert len(calls) == 2
    assert env.breaker_states[2] == 0


@pytest.mark.parametrize("name", ["ieee13", "joined"])
def test_penalty_steps_are_the_same_with_and_without_validation(monkeypatch, request, name):
    # Penalty mode, invalid joints included: validating before a step (as
    # masked selection does) never changes what the step returns, and a
    # step without one evaluates its joint once, as ``execute`` steps.
    feeder = (request.getfixturevalue(name) if name != "joined"
              else joined_islands(np.random.default_rng(8)))
    plain = RestorationEnv(feeder, reward_mode="penalty", max_steps=80)
    checked = RestorationEnv(feeder, reward_mode="penalty", max_steps=80)
    calls = count_evaluations(monkeypatch, plain)
    rng = np.random.default_rng(4)
    sizes = plain.action_space_sizes()
    plain.reset(), checked.reset()
    for step in range(80):
        a = joint(*(int(rng.integers(n)) for n in sizes))
        if step % 3:
            checked.validate_joint(joint(*(int(rng.integers(n)) for n in sizes)))
        checked.validate_joint(a)
        want, got = plain.step(a), checked.step(a)
        assert len(calls) == step + 1
        assert np.array_equal(got.observations, want.observations)
        assert (got.reward, got.served_kw, got.weighted_kw, got.constraints_ok) == (
            want.reward, want.served_kw, want.weighted_kw, want.constraints_ok)
    assert checked.violation_count == plain.violation_count > 0


def whole_feeder_verdict(feeder, states):
    solution = solve(feeder, states)
    report = check_constraints(feeder, solution)
    return report.all_ok, solution.served_load_kw, solution.served_weighted_kw


def island_sum_verdict(feeder, states):
    """Single solves of each island's sub-state, ANDed and summed in island order."""
    ok, served, weighted = True, 0.0, 0.0
    for positions, sub in islands(feeder):
        f, s, w = whole_feeder_verdict(sub, states[list(positions)])
        ok, served, weighted = ok and f, served + s, weighted + w
    return ok, served, weighted


def test_island_verdicts_equal_whole_feeder_solves(monkeypatch, ieee13, ieee123):
    # Exact equality, no tolerance: on the built-ins (integral kW) the
    # per-island memo must reproduce the whole-feeder verdict and served
    # power bit for bit.
    env = RestorationEnv(ieee13)
    for bits in itertools.product((0, 1), repeat=9):
        states = np.array(bits, dtype=np.int8)
        assert env._feasibility(states) == whole_feeder_verdict(ieee13, states)
    env = RestorationEnv(ieee123)
    rng = np.random.default_rng(47)
    for _ in range(1000):
        states = rng.integers(0, 2, 26).astype(np.int8)
        assert env._feasibility(states) == whole_feeder_verdict(ieee123, states)
    # Seeded multi-island feeders: breakers interleaved across islands, one
    # agent spanning two, split multi-generator islands, p_min > 0, and
    # fractional kW. Budgets of 1 and 12 cells give one-row and 2- to 4-row
    # pages on these islands; a page's rows are fixed when its island is
    # indexed, so each budget reads a feeder object of its own. Island sums
    # add in island order, the whole feeder's in load order, so only their kW
    # may differ, in the last bits.
    rng = np.random.default_rng(59)
    for tree_of in (random_radial_feeder, random_multi_generator_feeder):
        for _ in range(5):
            feeder = joined_islands(rng, tree_of)
            all_states = [np.array(bits, dtype=np.int8)
                          for bits in itertools.product((0, 1), repeat=feeder.n_breakers)]
            expected = [island_sum_verdict(feeder, states) for states in all_states]
            for states, (ok, served, weighted) in zip(all_states, expected):
                whole = whole_feeder_verdict(feeder, states)
                assert ok == whole[0]
                assert (served, weighted) == pytest.approx(whole[1:], rel=1e-12, abs=1e-12)
            for cells in (1, 12, DEFAULT_CELLS):
                monkeypatch.setattr(powerflow, "_BATCH_CELLS", cells)
                env = RestorationEnv(dataclasses.replace(feeder), reward_mode="penalty")
                assert page_rows(env.feeder) == [max(1, cells // len(sub.buses))
                                                 for _, sub in islands(feeder)]
                assert [env._feasibility(states) for states in all_states] == expected
                assert_pages_are_whole(env.feeder)


def test_page_size_does_not_change_verdicts_or_training(monkeypatch, fresh_feeder):
    # One-row pages are the per-state memo; 7 x 45 cells give 7-row pages on
    # the 45-bus, 10-breaker microgrid 1 and the default 91-row pages. Each
    # budget runs on a feeder object indexed under it.
    states = np.random.default_rng(61).integers(0, 2, (300, 26)).astype(np.int8)
    cfg = TrainingConfig(episodes=5, hyper=Hyperparameters(seed=3, gamma=0.95),
                         schedule=EpsilonSchedule(decay=0.004))
    outcomes, rows = [], []
    for cells in (1, 7 * 45, DEFAULT_CELLS):
        monkeypatch.setattr(powerflow, "_BATCH_CELLS", cells)
        feeder = fresh_feeder("ieee123")
        env = RestorationEnv(feeder)
        verdicts = [env._feasibility(s) for s in states]
        models, logs = train(feeder, cfg)
        outcomes.append((verdicts, logs, weight_bytes(models)))
        rows.append(page_rows(feeder))
        assert_pages_are_whole(feeder)
    assert rows == [[1] * 5, [7, 12, 18, 19, 15], DEFAULT_ROWS_123]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def count_page_fills(monkeypatch, module=powerflow):
    """Record (feeder, first code, rows) of every ``solve_batch`` call made
    through ``module``: the page fills, for ``powerflow``. Each call must
    solve one whole page, ``page_states`` under the feeder's page rows."""
    fills = []
    inner = powerflow.solve_batch

    def counting(feeder, states):
        first = int(states[0] @ (1 << np.arange(states.shape[1])))  # row 0's code
        page, off = divmod(first, powerflow._network_index(feeder).page_rows)
        assert off == 0 and np.array_equal(states, powerflow.page_states(feeder, page))
        fills.append((feeder, first, len(states)))
        return inner(feeder, states)

    monkeypatch.setattr(module, "solve_batch", counting)
    return fills


def weight_bytes(models):
    return [w.tobytes() for pair in models for w in (*pair.main.weights, *pair.main.biases)]


@pytest.mark.parametrize("masking", [True, False])
def test_environments_on_one_feeder_object_share_its_pages(monkeypatch, fresh_feeder, masking):
    # A second train, and a second environment, on the feeder object of a
    # first run fill no page; every run is bit-identical to a run on a
    # feeder object of its own.
    cfg = TrainingConfig(episodes=8, masking=masking, hyper=Hyperparameters(seed=3, gamma=0.95),
                         schedule=EpsilonSchedule(decay=0.004))
    feeder = fresh_feeder("ieee123")
    fills = count_page_fills(monkeypatch)
    models, logs = train(feeder, cfg)
    assert fills
    first = (logs, weight_bytes(models))
    fills.clear()
    models, logs = train(feeder, cfg)
    assert fills == []
    assert (logs, weight_bytes(models)) == first
    mode = "masked" if masking else "penalty"
    states = np.random.default_rng(5).integers(0, 2, (100, 26)).astype(np.int8)
    first_env = RestorationEnv(feeder, reward_mode=mode)
    visited = [first_env._feasibility(s) for s in states]
    fills.clear()
    env = RestorationEnv(feeder, reward_mode=mode)
    assert [env._feasibility(s) for s in states] == visited
    assert fills == []
    models, logs = train(fresh_feeder("ieee123"), cfg)
    assert (logs, weight_bytes(models)) == first
    if masking:
        assert sum(log.violations for log in logs) == 0


def test_masked_env_requires_feasible_all_open(monkeypatch, fresh_feeder):
    # The replaced feeder is another object: it fills its own pages, although
    # the base feeder object holds every page of the same geometry.
    base = fresh_feeder("ieee13")
    all_states = [np.array(bits, dtype=np.int8) for bits in itertools.product((0, 1), repeat=9)]
    env = RestorationEnv(base)
    warm = [env._feasibility(s) for s in all_states]
    g1 = dataclasses.replace(base.generators[0], p_min=50.0)
    feeder = dataclasses.replace(base, generators=(g1, *base.generators[1:]))
    fills = count_page_fills(monkeypatch)
    with pytest.raises(ValueError, match="g1"):
        RestorationEnv(feeder)
    env = RestorationEnv(feeder, reward_mode="penalty")
    verdicts = [env._feasibility(s) for s in all_states]
    assert fills and {id(f) for f, *_ in fills} <= {id(i.feeder) for i in islands(feeder)}
    assert verdicts == [whole_feeder_verdict(feeder, s) for s in all_states] != warm
    fills.clear()
    RestorationEnv(base)
    assert fills == []  # base's pages are untouched and still feasible all open
    env.reset()
    result = env.step(NOOP13)
    assert not result.constraints_ok
    assert env.violation_count == 1


def test_pages_of_different_sizes_never_mix(monkeypatch, fresh_feeder):
    # Island pages of 91/163/240/256/204 rows, 7/12/18/19/15 rows and 1 row,
    # each on a feeder object indexed under its budget: each size fills
    # whole pages of its own islands only, and a return to the first feeder
    # object under another budget reads the pages already filled.
    states = np.random.default_rng(61).integers(0, 2, (300, 26)).astype(np.int8)
    fills = count_page_fills(monkeypatch)
    outcomes, feeders = [], []
    for cells, rows in ((DEFAULT_CELLS, DEFAULT_ROWS_123), (7 * 45, [7, 12, 18, 19, 15]),
                        (1, [1] * 5)):
        monkeypatch.setattr(powerflow, "_BATCH_CELLS", cells)
        fills.clear()
        feeder = fresh_feeder("ieee123")
        env = RestorationEnv(feeder)
        outcomes.append([env._feasibility(s) for s in states])
        assert page_rows(feeder) == rows
        subs = [sub for _, sub in islands(feeder)]
        assert fills and all(any(f is sub for sub in subs) for f, *_ in fills)
        feeders.append(feeder)
    fills.clear()
    env = RestorationEnv(feeders[0])
    outcomes.append([env._feasibility(s) for s in states])
    assert fills == []
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
    for feeder in feeders:
        assert_pages_are_whole(feeder)


def test_an_environment_keeps_its_page_rows_when_the_budget_changes(monkeypatch, fresh_feeder):
    # An island's page rows are fixed when its index is built. A budget
    # changed afterwards (7-row pages on microgrid 1, then one-row pages)
    # neither re-pages a feeder object already indexed nor changes a verdict,
    # for an environment with filled pages and for one without; a new feeder
    # object, from builtin_feeder or dataclasses.replace, pages by the new
    # budget and reads the same verdicts.
    states = np.random.default_rng(67).integers(0, 2, (300, 26)).astype(np.int8)
    warm = RestorationEnv(fresh_feeder("ieee123"))
    expected = [warm._feasibility(s) for s in states]
    cold = RestorationEnv(fresh_feeder("ieee123"), reward_mode="penalty")
    fills = count_page_fills(monkeypatch)
    feeders = [warm.feeder, cold.feeder]
    for cells, rows in ((7 * 45, [7, 12, 18, 19, 15]), (1, [1] * 5)):
        monkeypatch.setattr(powerflow, "_BATCH_CELLS", cells)
        fills.clear()
        assert [RestorationEnv(warm.feeder)._feasibility(s) for s in states] == expected
        assert fills == []  # the warm feeder's pages serve a new environment too
        assert [cold._feasibility(s) for s in states] == expected
        assert page_rows(warm.feeder) == page_rows(cold.feeder) == DEFAULT_ROWS_123
        for feeder in (fresh_feeder("ieee123"), dataclasses.replace(warm.feeder)):
            fills.clear()
            env = RestorationEnv(feeder, reward_mode="penalty")
            assert [env._feasibility(s) for s in states] == expected
            assert page_rows(feeder) == rows
            assert fills
            feeders.append(feeder)
    for feeder in feeders:
        assert_pages_are_whole(feeder)


def test_oracle_solves_the_pages_an_environment_fills(monkeypatch, fresh_feeder):
    # The oracle streams every island page through solve_batch without
    # keeping it; an environment that reads all 1,104 island sub-states
    # fills exactly the same pages, as (island, first code, rows).
    feeder = fresh_feeder("ieee123")
    index = {id(sub): k for k, (_, sub) in enumerate(islands(feeder))}
    batches = count_page_fills(monkeypatch, oracle)
    brute_force(feeder)
    assert not any(powerflow._network_index(sub).pages for _, sub in islands(feeder))
    fills = count_page_fills(monkeypatch)
    env = RestorationEnv(feeder)
    for code in range(2 ** 10):  # each island's codes cycle within the largest's 2^10
        states = np.zeros(26, dtype=np.int8)
        for positions, _ in islands(feeder):
            sub_code = code % 2 ** len(positions)
            states[list(positions)] = (sub_code >> np.arange(len(positions))) & 1
        env._feasibility(states)
    solved, filled = (sorted((index[id(f)], first, n) for f, first, n in calls)
                      for calls in (batches, fills))
    assert solved == filled
    assert len(solved) == 16 and sum(n for *_, n in solved) == 1104
    assert [(first, n) for k, first, n in solved if k == 0] == [
        *((91 * page, 91) for page in range(11)), (1001, 23)]


def test_a_page_is_the_solver_arrays_and_a_step_reads_python_values(fresh_feeder):
    # The memo keeps what solve_batch returned for a page; the environment
    # converts one row at the read, so its results carry no numpy scalars.
    feeder = fresh_feeder("ieee123")
    env = RestorationEnv(feeder)
    env.reset()
    valid = env.validate_joint(joint(1, 1, 1, 1, 1))
    assert type(valid) is bool and valid
    result = env.step(joint(1, 1, 1, 1, 1))
    for value in (result.reward, result.served_kw, result.weighted_kw):
        assert type(value) is float
    assert type(result.constraints_ok) is bool
    for _, sub in env._islands:
        pages = powerflow._network_index(sub).pages
        assert list(pages) == [0]
        page = pages[0]
        assert isinstance(page, powerflow.BatchVerdicts)
        want = powerflow.solve_batch(sub, powerflow.page_states(sub, 0))
        for got, expected in zip(page, want):
            assert type(got) is np.ndarray and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def test_the_memo_goes_with_its_feeder(fresh_feeder):
    feeder = fresh_feeder("ieee13")
    env = RestorationEnv(feeder)
    assert env.validate_joint(joint(close(0), close(0)))
    keys = {id(feeder), *(id(island.feeder) for island in islands(feeder))}
    assert keys <= set(powerflow._INDEXES)
    assert all(powerflow._INDEXES[id(island.feeder)].pages for island in islands(feeder))
    gone = weakref.ref(feeder)
    del env, feeder
    gc.collect()
    assert gone() is None
    assert not keys & set(powerflow._INDEXES)


def test_generator_only_island_counts_in_every_verdict():
    # Island "c" has a generator and nothing else: with p_min > 0 it can never
    # meet its minimum output, so no state of the feeder is feasible.
    feeder = Feeder(
        name="idle-generator",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(Line("l1", "a", "b", 0.001, 0.002, 500.0),),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(
            LoadPoint("ld", "b", 100.0, 30.0, 0.5, "cb"),
            LoadPoint("ld0", "a", 40.0, 12.0, 1.0, ""),
        ),
        generators=(
            Generator("g1", "a", 0.0, 300.0, 0.0, 200.0),
            Generator("g2", "c", 10.0, 300.0, 0.0, 200.0),
        ),
        partition=MicrogridPartition((("cb",),)),
    )
    env = RestorationEnv(feeder, reward_mode="penalty")
    for bits in ((0,), (1,)):
        states = np.array(bits, dtype=np.int8)
        verdict = env._feasibility(states)
        assert verdict == whole_feeder_verdict(feeder, states)
        assert verdict[0] is False
    with pytest.raises(ValueError, match="g2"):
        RestorationEnv(feeder)
