import json
import math
import re

import numpy as np
import pytest

from gridrestore import (
    AgentPair,
    EpsilonSchedule,
    Hyperparameters,
    QNetwork,
    StackedLearner,
    UnderfilledBuffer,
    exploit_joint,
    explore_joint,
    load_checkpoint,
    save_checkpoint,
)
from reference import (
    Experience,
    numeric_gradient,
    padded_entries,
    padded_pairs,
    stacked_batch,
    sync_target,
    train_step,
)


def zero_network(sizes):
    weights = [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(o) for o in sizes[1:]]
    return QNetwork(weights, biases)


def random_network(sizes, seed):
    return QNetwork.initialized(sizes, np.random.default_rng(seed))


def test_zero_network_outputs_zeros():
    net = zero_network([4, 8, 8, 8])
    assert np.array_equal(net.forward([1, 0, 1, 1]), np.zeros(8))


def test_hand_worked_forward_pass():
    # 2-2-4 network with pencil-and-paper weights, input [1, 0]:
    #   hidden = relu([0.5 + 0.1, 1.0 - 0.2]) = [0.6, 0.8]
    #   out = [0.6, 0.8 + 0.05, 0.7 - 0.05, -0.6 + 0.8 + 0.2]
    net = QNetwork(
        [np.array([[0.5, -0.25], [1.0, 0.75]]),
         np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 1.0]])],
        [np.array([0.1, -0.2]), np.array([0.0, 0.05, -0.05, 0.2])],
    )
    out = net.forward([1.0, 0.0])
    assert out == pytest.approx([0.6, 0.85, 0.65, 0.4], abs=1e-12)


def test_forward_determinism_and_shapes():
    net = random_network([5, 16, 16, 10], seed=1)
    obs = [1, 0, 1, 1, 0]
    assert np.array_equal(net.forward(obs), net.forward(obs))
    assert net.forward(obs).shape == (10,)
    with pytest.raises(ValueError):
        net.forward([1, 0])


def test_initialization_bounds_and_seeding():
    net = random_network([9, 64, 64, 18], seed=7)
    again = random_network([9, 64, 64, 18], seed=7)
    for w, w2 in zip(net.weights, again.weights):
        assert np.array_equal(w, w2)
        bound = 1.0 / math.sqrt(w.shape[1])
        assert np.all(np.abs(w) <= bound)


def test_act_argmax_invariant_to_constant_shift():
    # Greedy selection with every joint valid is the argmax of the network's
    # output, ties to the lowest index, and a constant shift does not move it.
    net = zero_network([2, 5])
    net.biases[0] = np.array([0.3, -0.2, 0.9, 0.9, 0.0])

    def greedy():
        q = [net.forward([0, 0])]
        return exploit_joint(lambda joint: True, q, np.zeros((1, 2)), np.random.default_rng(0))

    base = greedy()
    net.biases[0] += 123.456
    assert greedy() == base == (2,)


def test_act_epsilon_one_is_seeded_uniform():
    # Exploration draws are seeded, and uniform over the indices the mask allows.
    def draw(seed):
        return explore_joint(lambda joint: True, [6], np.random.default_rng(seed))

    assert draw(42) == draw(42)
    rng = np.random.default_rng(9)
    seen = {explore_joint(lambda joint: joint[0] not in (0, 5), [6], rng) for _ in range(200)}
    assert seen == {(1,), (2,), (3,), (4,)}


def test_epsilon_schedule_values():
    sched = EpsilonSchedule(eps_min=0.01, eps_max=1.0, decay=0.01)
    assert sched.value(0) == pytest.approx(1.0, abs=1e-15)
    assert sched.value(100) == pytest.approx(0.01 + 0.99 * math.exp(-1.0), abs=1e-15)
    assert sched.value(100) == pytest.approx(0.37420064675972791, abs=1e-12)
    assert sched.value(10**6) - 0.01 < 1e-9


def test_epsilon_schedule_monotone():
    sched = EpsilonSchedule(eps_min=0.05, eps_max=0.9, decay=0.03)
    values = [sched.value(e) for e in range(200)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_epsilon_schedule_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule(eps_min=0.5, eps_max=0.5)
    with pytest.raises(ValueError):
        EpsilonSchedule(decay=0.0)
    for decay in (math.nan, math.inf):
        with pytest.raises(ValueError, match="decay must be positive and finite"):
            EpsilonSchedule(decay=decay)


def _ring(capacity, widths):
    pairs = [AgentPair.initialized([n, 2], np.random.default_rng(0)) for n in widths]
    return StackedLearner(pairs, capacity)


def test_replay_buffer_ring_eviction():
    ring = _ring(2, widths=(1,))
    for k in range(3):
        ring.push([[k]], [0], float(k), [[k]])
    assert ring.size == 2
    _, _, rewards = ring.sample(2, np.random.default_rng(0))
    assert set(rewards[0]) == {1.0, 2.0}


def test_replay_buffer_underfilled_and_determinism():
    ring = _ring(10, widths=(3, 1))
    with pytest.raises(UnderfilledBuffer):
        ring.sample(1, np.random.default_rng(0))
    for k in range(6):
        bits = [[k & 1, k >> 1 & 1, k >> 2], [k & 1, 0, 0]]
        ring.push(bits, [k, 5 - k], float(k), bits)
    assert ring.bits.dtype == np.int8
    a = ring.sample(4, np.random.default_rng(5))
    b = ring.sample(4, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # One rng.choice per agent, in agent order: the draws of per-agent buffers.
    rng = np.random.default_rng(5)
    picks = [rng.choice(6, size=4, replace=False) for _ in range(2)]
    bits, actions, rewards = a
    assert np.array_equal(rewards, np.array(picks, dtype=float))
    assert np.array_equal(actions, [picks[0], 5 - picks[1]])
    assert bits.dtype == float and bits.shape == (4, 4, 3)
    assert np.array_equal(bits[0, :, 2], picks[0] >> 2)
    assert np.array_equal(bits[1, :, 0], picks[1] & 1) and not bits[1, :, 1:].any()
    assert np.array_equal(bits[:2], bits[2:])  # next observations follow
    _, full, _ = ring.sample(6, np.random.default_rng(1))
    assert all(len(set(row)) == 6 for row in full)  # without replacement


def _learner(widths, hidden, seed):
    """A stacked learner of agents with ``widths`` breakers, main and target equal."""
    return StackedLearner([AgentPair.initialized([n, *hidden, 2 * n],
                                                 np.random.default_rng(seed + n))
                           for n in widths], capacity=1)


def _experiences(rng, widths, rows):
    """One list of ``rows`` random experiences per agent."""
    return [[Experience(tuple(rng.integers(0, 2, n)), int(rng.integers(2 * n)),
                        float(rng.uniform(-1, 1)), tuple(rng.integers(0, 2, n)))
             for _ in range(rows)] for n in widths]


@pytest.mark.parametrize("hidden", [(), (7,), (16, 8, 16), (64, 64)])
def test_stacked_step_equals_per_agent_reference(hidden):
    widths = (10, 5, 3, 3, 5)
    rng = np.random.default_rng(len(hidden))
    hp = Hyperparameters(gamma=0.9, alpha=0.7, eta=0.05, seed=0)
    reference = []
    for a, n in enumerate(widths):
        sizes = [n, *hidden, 2 * n]
        reference.append(AgentPair(main=random_network(sizes, 10 + a),
                                   target=random_network(sizes, 20 + a)))
    # Agent 2's next-state values are all negative: an unmasked padded 0
    # would win its max.
    reference[2].target.weights[-1][...] = 0.0
    reference[2].target.biases[-1][...] = rng.uniform(-2.0, -1.0, 6)
    learner = StackedLearner(reference, capacity=1)  # copies every network in
    padded = padded_entries(learner)

    for step, batch_size in enumerate((32, 2, 7)):
        batches = _experiences(rng, widths, batch_size)
        for p, b in zip(reference, batches):
            train_step(p, b, hp)
        learner.train_step(*stacked_batch(batches, 10), hp)
        if step == 1:
            learner.sync_target()
            for p in reference:
                sync_target(p)
        for got, want in zip(learner.pairs, reference):
            for net_got, net_want in ((got.main, want.main), (got.target, want.target)):
                for x, y in zip(net_got.weights + net_got.biases,
                                net_want.weights + net_want.biases):
                    assert x.tobytes() == y.tobytes()
        for row in (*learner.params, learner.grads):  # mains, targets, scaled gradient
            assert not row[padded].any() and not np.signbit(row[padded]).any()


def test_stacked_step_on_one_row_batches_agrees_to_rounding():
    # A one-row product goes to BLAS's matrix-vector kernel, which may sum
    # the zero-padded input in another order than the unpadded reference.
    widths = (10, 3)
    hp = Hyperparameters(seed=0)
    reference = [AgentPair.initialized([n, 8, 2 * n], np.random.default_rng(n))
                 for n in widths]
    learner = StackedLearner(reference, capacity=1)
    rng = np.random.default_rng(9)
    for _ in range(5):
        batches = _experiences(rng, widths, 1)
        for p, b in zip(reference, batches):
            train_step(p, b, hp)
        learner.train_step(*stacked_batch(batches, 10), hp)
    for got, want in zip(learner.pairs, reference):
        for x, y in zip(got.main.weights + got.main.biases, want.main.weights + want.main.biases):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
    assert not learner.params[:, padded_entries(learner)].any()


@pytest.mark.parametrize("hidden", [(), (7,), (64, 64)])
def test_tabled_and_per_row_bootstraps_step_as_the_per_agent_reference(hidden):
    # Ten agents of widths 1 to 10 in a seeded order. An agent of w breakers
    # reads its next-state value from a table when 2^w <= batch size (w <= 5
    # at 32 rows, w <= 2 at 7, w = 1 at 2, none at 1) and runs its target on
    # the sampled rows otherwise; the per-agent reference always does the
    # latter, at the stack's padded shapes. Padded next-observation bits are
    # random and must not change a code.
    rng = np.random.default_rng(1500 + len(hidden))
    widths = [int(w) for w in rng.permutation(np.arange(1, 11))]
    learner = StackedLearner([AgentPair(random_network([n, *hidden, 2 * n], 30 + n),
                                        random_network([n, *hidden, 2 * n], 40 + n))
                              for n in widths], capacity=1)
    reference = padded_pairs(learner)
    hp = Hyperparameters(gamma=0.9, alpha=0.7, eta=0.05, seed=0)
    for step, batch_size in enumerate((32, 32, 7, 2, 32, 1, 7, 7, 2, 32, 1, 32)):
        if step in (1, 4, 7, 9):
            learner.sync_target()
            for pair in reference:
                sync_target(pair)
        obs, actions, rewards = stacked_batch(_experiences(rng, widths, batch_size), 10)
        for a, n in enumerate(widths):
            obs[len(widths) + a, :, n:] = rng.integers(0, 2, (batch_size, 10 - n))
        want = [train_step(pair, [Experience(tuple(o), int(act), float(r), tuple(x))
                                  for o, act, r, x in zip(obs[a], actions[a], rewards[a],
                                                          obs[len(widths) + a])], hp)
                for a, pair in enumerate(reference)]
        assert learner.train_step(obs, actions, rewards, hp).tolist() == want
        for a, (pair, n) in enumerate(zip(reference, widths)):
            for row, net in enumerate((pair.main, pair.target)):
                for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
                    assert learner.weights[layer][row, a].tobytes() == w.tobytes()
                    used = slice(2 * n if layer == len(net.weights) - 1 else None)
                    assert learner.biases[layer][row, a, 0, used].tobytes() == b[used].tobytes()
    for pair in learner.pairs:  # a write would leave a table stale
        for array in pair.target.weights + pair.target.biases:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


# One agent, whose stack has no padding, and three agents of mixed widths.
WIDTHS = [(4,), (4, 2, 3)]


def test_sync_target_bit_equality_and_idempotence():
    for widths in WIDTHS:
        learner = _learner(widths, (8,), seed=3)
        batches = _experiences(np.random.default_rng(3), widths, 4)
        init_target = learner.params[1].copy()
        learner.train_step(*stacked_batch(batches, 4), Hyperparameters(seed=0))
        # targets untouched until an explicit sync
        assert learner.params[1].tobytes() == init_target.tobytes()
        assert learner.params[0].tobytes() != init_target.tobytes()
        learner.sync_target()
        assert learner.params[1].tobytes() == learner.params[0].tobytes()
        for pair, n in zip(learner.pairs, widths):
            obs = [k & 1 for k in range(n)]
            assert np.array_equal(pair.main.forward(obs), pair.target.forward(obs))
        snap = learner.params.copy()
        learner.sync_target()
        assert learner.params.tobytes() == snap.tobytes()


def test_train_step_alpha_one_uses_pure_bootstrap_label():
    for widths in WIDTHS:
        rng = np.random.default_rng(11)
        pairs = [AgentPair.initialized([n, 6, 2 * n], np.random.default_rng(11 + n))
                 for n in widths]
        for pair in pairs:  # targets that differ from the mains
            pair.target.weights[-1][...] = rng.uniform(-1, 1, pair.target.weights[-1].shape)
        learner = StackedLearner(pairs, capacity=1)
        batches = _experiences(rng, widths, 2)
        want = [np.mean([(e.reward + 0.95 * pair.target.forward(e.next_observation).max()
                          - pair.main.forward(e.observation)[e.action]) ** 2 for e in batch])
                for pair, batch in zip(learner.pairs, batches)]
        loss = learner.train_step(*stacked_batch(batches, 4),
                                  Hyperparameters(alpha=1.0, gamma=0.95, seed=0))
        assert loss.shape == (len(widths),)
        assert loss == pytest.approx(want, rel=1e-12)


def test_train_step_gamma_zero_ignores_next_observation():
    for widths in WIDTHS:
        hp = Hyperparameters(alpha=1.0, gamma=0.0, eta=0.01, seed=0)
        batches = _experiences(np.random.default_rng(2), widths, 3)
        stepped = []
        for flip in (False, True):
            learner = _learner(widths, (6,), seed=2)
            obs, actions, rewards = stacked_batch(batches, 4)
            if flip:  # other next observations, padding included
                obs[len(widths):] = 1.0 - obs[len(widths):]
            learner.train_step(obs, actions, rewards, hp)
            stepped.append(learner.params[0].tobytes())
        assert stepped[0] == stepped[1]


def test_train_step_fixed_point_leaves_weights_alone():
    # Zero networks, zero reward, gamma arbitrary: label == prediction == 0.
    for widths in WIDTHS:
        learner = StackedLearner([AgentPair(*[zero_network([n, 4, 2 * n])] * 2)
                                  for n in widths], capacity=1)
        batches = [[Experience(tuple(k & 1 for k in range(n)), 1, 0.0, (1,) * n)] * 2
                   for n in widths]
        loss = learner.train_step(*stacked_batch(batches, 4), Hyperparameters(seed=0))
        assert np.array_equal(loss, np.zeros(len(widths)))
        assert not learner.params.any() and not np.signbit(learner.params).any()
        assert not learner.grads.any()


def test_backprop_matches_central_finite_differences():
    # Stacks of one to three agents of random widths: the gradient in
    # ``grads`` matches finite differences in ``params[0]``, and padded
    # entries get exactly +0.0, as the finite differences do.
    rng = np.random.default_rng(2024)
    hp = Hyperparameters(gamma=0.9, alpha=0.7, seed=0)
    worst = 0.0
    for _ in range(100):
        widths = [int(n) for n in rng.integers(1, 5, int(rng.integers(1, 4)))]
        hidden = [int(h) for h in rng.integers(3, 9, 2)]
        learner = StackedLearner([
            AgentPair(*(QNetwork.initialized([n, *hidden, 2 * n],
                                             np.random.default_rng(int(rng.integers(1 << 30))))
                        for _ in range(2)))
            for n in widths
        ], capacity=1)
        batches = _experiences(rng, widths, int(rng.integers(1, 5)))
        learner.gradients(*stacked_batch(batches, max(widths)), hp)
        numeric = numeric_gradient(learner, batches, hp)
        padded = padded_entries(learner)
        assert padded.any() == (len(set(widths)) > 1)
        assert not learner.grads[padded].any() and not np.signbit(learner.grads[padded]).any()
        assert not numeric[padded].any()
        denom = np.maximum(np.maximum(np.abs(learner.grads), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(learner.grads - numeric) / denom)))
    assert worst < 1e-4


def test_checkpoint_round_trip(tmp_path):
    net = random_network([5, 16, 16, 10], seed=21)
    path = tmp_path / "checkpoint_agent0.json"
    save_checkpoint(path, 0, ["cb1", "cb2", "cb3", "cb4", "cb5"], net)
    agent_id, breakers, loaded = load_checkpoint(path)
    assert agent_id == 0
    assert breakers == ["cb1", "cb2", "cb3", "cb4", "cb5"]
    obs = [1, 0, 0, 1, 1]
    assert np.array_equal(loaded.forward(obs), net.forward(obs))


@pytest.mark.parametrize("breakers, wrong", [
    ([1, "cb2"], "breakers[0]"),
    (["cb1", True], "breakers[1]"),
    (["cb1", ["cb2"]], "breakers[1]"),
    ([None, 2.0], "breakers[0], breakers[1]"),
], ids=["integer", "boolean", "list", "null-and-float"])
def test_checkpoint_breaker_ids_must_be_strings(tmp_path, breakers, wrong):
    # An id is read as written, never stringified: 1 does not become "1".
    path = tmp_path / "checkpoint_agent0.json"
    save_checkpoint(path, 0, ["cb1", "cb2"], random_network([2, 4, 4], seed=22))
    doc = json.loads(path.read_text())
    doc["breakers"] = breakers
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"missing or mistyped {re.escape(wrong)}$"):
        load_checkpoint(path)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        Hyperparameters(gamma=1.0)
    with pytest.raises(ValueError):
        Hyperparameters(alpha=0.0)
    with pytest.raises(ValueError):
        Hyperparameters(eta=-1.0)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            Hyperparameters(eta=eta)
    with pytest.raises(ValueError):
        Hyperparameters(batch_size=0)
    with pytest.raises(ValueError, match="capacity"):
        Hyperparameters(capacity=0)
    with pytest.raises(ValueError, match="batch_size 33 exceeds the replay capacity 32"):
        Hyperparameters(batch_size=33, capacity=32)
    assert Hyperparameters(batch_size=32, capacity=32).capacity == 32
    # A count takes an int only: a float one failed later, inside numpy.
    for wrong in ({"batch_size": 2.5, "capacity": 10}, {"capacity": 100.5}, {"batch_size": True},
                  {"capacity": np.int64(64)}):
        name, value = next(iter(wrong.items()))
        with pytest.raises(ValueError, match=f"^{name} must be at least 1 and an int, not {re.escape(repr(value))}$"):
            Hyperparameters(**wrong)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(3), "3", None])
def test_seed_must_be_a_non_negative_int(seed):
    # numpy's generators take no negative seed, and a float one fails with a
    # TypeError deep in training; both are refused where the seed is set.
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        Hyperparameters(seed=seed)
    assert Hyperparameters(seed=0).seed == 0 and Hyperparameters(seed=2 ** 40).seed == 2 ** 40
