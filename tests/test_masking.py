import numpy as np
import pytest

from gridrestore import (
    MaskingError,
    RestorationEnv,
    exploit_joint,
    explore_joint,
)
from gridrestore.masking import EXPLORE_RESAMPLE_CAP
from gridrestore.training import accept_all


class CountingValidator:
    """Scripted validity oracle that records every query."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.queries: list[tuple[int, ...]] = []

    def __call__(self, joint):
        self.queries.append(joint)
        if self.verdicts:
            return self.verdicts.pop(0)
        return True


class ScriptedRng:
    """integers() pops from a fixed script; mirrors the Generator API used."""

    def __init__(self, script):
        self.script = list(script)

    def integers(self, n):
        value = self.script.pop(0)
        assert 0 <= value < n
        return value


def test_explore_returns_first_valid_sample():
    validator = CountingValidator([True])
    joint = explore_joint(validator, [8, 10], np.random.default_rng(0))
    assert len(validator.queries) == 1
    assert validator.queries[0] == joint
    assert all(type(a) is int for a in joint)
    assert 0 <= joint[0] < 8
    assert 0 <= joint[1] < 10


def test_explore_resamples_whole_joint_until_valid():
    validator = CountingValidator([False, True])
    joint = explore_joint(validator, [8, 10], np.random.default_rng(1))
    assert len(validator.queries) == 2
    assert validator.queries[1] == joint
    assert validator.queries[0] != joint  # a fresh joint, not a partial edit


def test_explore_gives_up_after_cap():
    validator = CountingValidator([False] * (EXPLORE_RESAMPLE_CAP + 5))
    with pytest.raises(MaskingError):
        explore_joint(validator, [4], np.random.default_rng(2))
    assert len(validator.queries) == EXPLORE_RESAMPLE_CAP


def test_exploit_valid_proposal_needs_single_validation():
    validator = CountingValidator([True])
    q = [np.array([5.0, 1.0]), np.array([7.0, 2.0])]
    joint = exploit_joint(validator, q, np.zeros((2, 1)), np.random.default_rng(0))
    assert joint == (0, 0) and all(type(a) is int for a in joint)
    assert len(validator.queries) == 1


def test_exploit_demotes_random_agents_current_maximum():
    validator = CountingValidator([False, True])
    q = [np.array([5.0, 1.0]), np.array([7.0, 2.0])]
    joint = exploit_joint(validator, q, np.zeros((2, 1)), ScriptedRng([0]))
    # Agent 0's 5.0 was pinned to -inf; agent 1 keeps its argmax.
    assert joint == (1, 0)
    assert q[0][0] == 5.0  # caller's vectors are untouched


def test_exploit_demotion_state_does_not_leak_between_calls():
    q = [np.array([5.0, 1.0]), np.array([7.0, 2.0])]
    rows = np.zeros((2, 1))
    first = exploit_joint(CountingValidator([False, True]), q, rows, ScriptedRng([0]))
    second = exploit_joint(CountingValidator([True]), q, rows, ScriptedRng([]))
    assert second == (0, 0)
    assert first == (1, 0)


def test_exploit_exhaustion_falls_back_to_best_original_noop():
    # Agent 0 keeps proposing invalid actions until its whole set is demoted;
    # the fallback pins it to the open no-op with the highest original value.
    # Both of agent 0's breakers read open, so toggles 1 and 3 are no-ops.
    verdicts = [False, False, False, False, True]
    validator = CountingValidator(verdicts)
    q = [np.array([9.0, 0.5, 4.0, 2.0]), np.array([1.0, 0.0])]
    rows = np.array([[0, 0], [0, 0]], dtype=np.int8)
    joint = exploit_joint(validator, q, rows, ScriptedRng([0, 0, 0, 0]))
    assert joint == (3, 0)  # original 2.0 beats 0.5 among no-ops
    # With breaker 1 closed only toggle 1 is a no-op; a padded column is ignored.
    rows = np.array([[0, 1, 0], [0, 0, 0]], dtype=np.int8)
    joint = exploit_joint(CountingValidator(verdicts), q, rows, ScriptedRng([0, 0, 0, 0]))
    assert joint == (1, 0)


def test_exploit_raises_when_nothing_is_ever_valid():
    q = [np.array([1.0, 0.0])]
    validator = CountingValidator([False] * 50)
    with pytest.raises(MaskingError):
        exploit_joint(validator, q, np.zeros((1, 1)), ScriptedRng([0] * 10))


def test_exploit_termination_within_action_budget():
    q = [np.array([3.0, 2.0, 1.0, 0.5]), np.array([4.0, 3.0, 2.0, 1.0])]
    validator = CountingValidator([False] * 7 + [True])
    rng = np.random.default_rng(5)
    joint = exploit_joint(validator, q, np.zeros((2, 2)), rng)
    assert len(validator.queries) <= sum(len(v) for v in q) + len(q) + 1
    assert joint is not None


def test_accept_all_selection_is_the_unmasked_draw_on_the_same_stream():
    # Unmasked training selects through explore_joint and exploit_joint under
    # accept_all; they must draw what the plain unmasked choice drew, and leave
    # the generator where it left it, or every unmasked run would change.
    counts = (8, 10, 6, 6, 10)
    rows = np.zeros((len(counts), 5), dtype=np.int8)
    q_source = np.random.default_rng(99)
    for seed in range(500):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            unmasked = tuple(int(twin.integers(n)) for n in counts)
            assert explore_joint(accept_all, counts, rng) == unmasked
            q = [q_source.integers(0, 4, n).astype(float) for n in counts]  # ties included
            assert exploit_joint(accept_all, q, rows, rng) == tuple(int(np.argmax(v)) for v in q)
            assert rng.random() == twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state


def test_exploit_under_accept_all_needs_no_generator():
    # Greedy execution passes no generator: the per-agent argmax draws nothing.
    q = [np.array([1.0, 3.0, 3.0, 0.0]), np.array([-2.0, -1.0]), np.array([0.5, 0.5])]
    joint = exploit_joint(accept_all, q, np.zeros((3, 2)), None)
    assert joint == (1, 1, 0) and all(type(a) is int for a in joint)


def test_masked_selection_only_returns_valid_joints(ieee13):
    env = RestorationEnv(ieee13)
    env.reset()
    rng = np.random.default_rng(8)
    counts = env.action_space_sizes()
    for _ in range(40):
        joint = explore_joint(env.validate_joint, counts, rng)
        assert env.validate_joint(joint)
        env.step(joint)
        if env.step_count == env.max_steps:
            env.reset()


def test_explore_on_zero_capacity_feeder_finds_open_toggles():
    # With no usable generation every closure is invalid; resampling must
    # still terminate by landing on open toggles only.
    from gridrestore import (
        Breaker, Bus, Feeder, Generator, Line, LoadPoint, MicrogridPartition,
    )

    feeder = Feeder(
        name="dead",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(
            Line("l1", "a", "b", 0.001, 0.002, 500.0),
            Line("l2", "a", "c", 0.001, 0.002, 500.0),
        ),
        breakers=(Breaker("cb1", "l1", 0), Breaker("cb2", "l2", 0)),
        loads=(
            LoadPoint("ld1", "b", 50.0, 15.0, 1.0, "cb1"),
            LoadPoint("ld2", "c", 60.0, 18.0, 1.0, "cb2"),
        ),
        generators=(Generator("g", "a", 0.0, 0.001, 0.0, 0.001),),
        partition=MicrogridPartition((("cb1", "cb2"),)),
    )
    env = RestorationEnv(feeder)
    env.reset()
    rng = np.random.default_rng(6)
    for _ in range(10):
        joint = explore_joint(env.validate_joint, env.action_space_sizes(), rng)
        assert all(a % 2 == 1 for a in joint)


def test_exploit_on_real_environment_respects_constraints(ieee13):
    env = RestorationEnv(ieee13)
    env.reset()
    rng = np.random.default_rng(4)
    # Q-vectors that greedily push every close at once (invalid jointly).
    q = [np.linspace(1.0, 0.1, 8) * np.tile([1.0, 0.01], 4),
         np.linspace(1.0, 0.1, 10) * np.tile([1.0, 0.01], 5)]
    rows = env.reset()
    for _ in range(6):
        joint = exploit_joint(env.validate_joint, q, rows, rng)
        assert env.validate_joint(joint)
        rows = env.step(joint).observations
    assert env.violation_count == 0
