"""Deep-Q machinery: MLP value network with manual backprop, target-network
pair, the stacked learner of all agents, and the exponential exploration
schedule.

The network maps an agent's breaker-state observation to one value per toggle
action (2 per breaker). Training regresses the taken action's output toward a
blended label

    y      = r + gamma * max_a' Q_target(o', a')
    label  = (1 - alpha) * Q_main(o, a) + alpha * y

with labels held constant for the gradient step (plain SGD on the mean squared
error at the taken actions only). Keeping the optimizer to bare SGD makes the
gradient exactly checkable against central finite differences. ``train_step``
is the per-agent reference of one such step; training runs ``StackedLearner``,
which steps every agent at once on zero-padded parameter stacks, fed from one
replay ring that stores observation bits as int8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class UnderfilledBuffer(RuntimeError):
    """sample() needs at least batch_size stored experiences."""


@dataclass
class Hyperparameters:
    # Defaults are the measured sweet spot for the study feeders: a low
    # discount keeps Q magnitudes near the per-step reward scale, which is
    # what separates neighboring switching policies here.
    gamma: float = 0.5         # discount on the bootstrapped future value
    alpha: float = 0.5         # label blend rate toward the bootstrap target
    eta: float = 0.05          # SGD step size
    batch_size: int = 32
    capacity: int = 2000       # replay window; recency keeps targets fresh
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.batch_size > self.capacity:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds the replay capacity "
                f"{self.capacity}, so no batch could ever be drawn"
            )


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps(episode) = eps_min + (eps_max - eps_min) * exp(-decay * episode)."""

    eps_min: float = 0.01
    eps_max: float = 1.0
    decay: float = 0.02

    def __post_init__(self):
        if not (0 <= self.eps_min < self.eps_max <= 1):
            raise ValueError("need 0 <= eps_min < eps_max <= 1")
        if self.decay <= 0:
            raise ValueError("decay must be positive")

    def value(self, episode: int) -> float:
        return self.eps_min + (self.eps_max - self.eps_min) * float(
            np.exp(-self.decay * episode)
        )


class QNetwork:
    """Fully connected ReLU network with a linear output layer."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights  # each (out, in)
        self.biases = biases    # each (out,)

    @classmethod
    def initialized(cls, layer_sizes, rng: np.random.Generator) -> "QNetwork":
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
        weights, biases = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            biases.append(rng.uniform(-bound, bound, size=n_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "QNetwork":
        return QNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def forward(self, observation) -> np.ndarray:
        x = np.asarray(observation, dtype=float).reshape(-1)
        if x.shape[0] != self.n_inputs:
            raise ValueError(
                f"observation length {x.shape[0]} != network input {self.n_inputs}"
            )
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = np.maximum(w @ x + b, 0.0)
        return self.weights[-1] @ x + self.biases[-1]

    def forward_batch(self, x: np.ndarray):
        """Batched forward pass; returns (output, activation cache)."""
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ValueError("batch shape must be (n, n_inputs)")
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = h @ w.T + b
            h = np.maximum(z, 0.0)
            pre.append(z)
            post.append(h)
        out = h @ self.weights[-1].T + self.biases[-1]
        return out, (pre, post)

    def backward(self, cache, d_out: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output)."""
        pre, post = cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        grads_w[-1] = delta.T @ post[-1]
        grads_b[-1] = delta.sum(axis=0)
        for layer in range(len(self.weights) - 2, -1, -1):
            delta = (delta @ self.weights[layer + 1]) * (pre[layer] > 0.0)
            grads_w[layer] = delta.T @ post[layer]
            grads_b[layer] = delta.sum(axis=0)
        return grads_w, grads_b

    def apply_gradients(self, grads_w, grads_b, eta: float):
        for w, gw in zip(self.weights, grads_w):
            w -= eta * gw
        for b, gb in zip(self.biases, grads_b):
            b -= eta * gb


@dataclass
class AgentPair:
    """Main network plus its delayed target copy."""

    main: QNetwork
    target: QNetwork

    @classmethod
    def initialized(cls, layer_sizes, rng: np.random.Generator) -> "AgentPair":
        main = QNetwork.initialized(layer_sizes, rng)
        return cls(main=main, target=main.copy())

    def sync_target(self) -> None:
        """Copy main parameters into the target network (bit-equal)."""
        self.target = self.main.copy()


@dataclass(frozen=True)
class Experience:
    observation: tuple[int, ...]
    action: int
    reward: float
    next_observation: tuple[int, ...]


class StackedLearner:
    """Every agent's networks and replay in zero-padded stacks.

    Layer l of all networks is one ``(2 * agents, out, in)`` weight array and
    one ``(2 * agents, out)`` bias array, zero-padded to the widest agent:
    entry a is agent a's main network, entry agents + a its target. ``pairs``
    are ``AgentPair`` views into the stacks. Replay is one preallocated ring
    with a single write index, evicting oldest-first: slot k of ``bits[0]``
    and ``bits[1]`` (int8, ``(agents, capacity, width)``) holds a step's
    observations and next observations, ``actions`` and ``rewards`` its
    actions and shared reward.

    ``train_step`` is the per-agent ``train_step`` for all agents in one set
    of batched array calls. Padded weights get exactly zero gradient, and
    padded outputs are set to -inf before the next-state max. Padding adds
    zero terms to the sums over the input width, which OpenBLAS 0.3.31 keeps
    bit-exact on the study feeders' widths for batches of 2 or more rows; a
    one-row batch goes to a matrix-vector kernel that may sum a padded row in
    another order, so there it agrees to rounding.
    """

    def __init__(self, pairs: list[AgentPair], capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        sizes = np.array([p.main.layer_sizes for p in pairs])
        agents, widest = len(pairs), sizes.max(axis=0)
        self.weights = [np.zeros((2 * agents, o, i)) for i, o in zip(widest, widest[1:])]
        self.biases = [np.zeros(w.shape[:2]) for w in self.weights]
        self.pairs = [AgentPair(self._adopt(a, p.main), self._adopt(agents + a, p.target))
                      for a, p in enumerate(pairs)]
        self._padded = (np.arange(widest[-1]) >= sizes[:, -1:])[:, None, :]
        # Slots past ``size`` are never read, so the ring starts uninitialized.
        self.bits = np.empty((2, agents, capacity, widest[0]), dtype=np.int8)
        self.actions = np.empty((agents, capacity), dtype=np.intp)
        self.rewards = np.empty(capacity)
        self._offsets = np.arange(agents)[:, None] * capacity  # agent a's ring in the flat ring
        self.size = self._write = 0  # steps stored, next slot to write

    def _adopt(self, entry: int, net: QNetwork) -> QNetwork:
        """Copy ``net`` into stack entry ``entry``; returns its view there."""
        params = net.weights + net.biases
        views = [stack[(entry, *map(slice, p.shape))]
                 for stack, p in zip(self.weights + self.biases, params)]
        for view, p in zip(views, params):
            view[...] = p
        return QNetwork(views[: len(net.weights)], views[len(net.weights):])

    def push(self, observations, actions, reward: float, next_observations) -> None:
        """Store one step: (agents, width) bits before and after, one action per agent."""
        k = self._write
        self.bits[0, :, k] = observations
        self.bits[1, :, k] = next_observations
        self.actions[:, k] = actions
        self.rewards[k] = reward
        self._write = (k + 1) % len(self.rewards)
        self.size = max(self.size, k + 1)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """One ``rng.choice`` draw without replacement per agent, in agent
        order. Returns every agent's float observations followed by their next
        observations, ``(2 * agents, batch, width)``, then the actions and the
        rewards, ``(agents, batch)``."""
        if batch_size > self.size:
            raise UnderfilledBuffer(f"buffer holds {self.size} < batch_size {batch_size}")
        picks = np.array([rng.choice(self.size, size=batch_size, replace=False)
                          for _ in self._offsets])
        flat = picks + self._offsets
        width = self.bits.shape[-1]
        bits = self.bits.reshape(2, -1, width).take(flat, axis=1).astype(float)
        return (bits.reshape(-1, batch_size, width),
                self.actions.take(flat), self.rewards.take(picks))

    def sync_target(self) -> None:
        """Copy every main network into its target (bit-equal)."""
        for stack in self.weights + self.biases:
            stack[len(self.pairs):] = stack[: len(self.pairs)]

    def train_step(self, observations, actions, rewards, hp: Hyperparameters) -> None:
        """One SGD step of every agent on a batch shaped like ``sample``'s."""
        agents, n = actions.shape
        # In-place bias, ReLU and scaling keep the step's temporaries small;
        # ReLU outputs stand in for pre-activations, as relu(z) > 0 iff z > 0.
        post = [observations]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            post.append(post[-1] @ w.transpose(0, 2, 1))
            post[-1] += b[:, None, :]
            np.maximum(post[-1], 0.0, out=post[-1])
        q = post[-1] @ self.weights[-1].transpose(0, 2, 1)
        q += self.biases[-1][:, None, :]
        q_all, q_next = q[:agents], q[agents:]
        np.copyto(q_next, -np.inf, where=self._padded)
        bootstrapped = rewards + hp.gamma * q_next.max(axis=2)
        taken = (np.arange(agents * n).reshape(agents, n) * q.shape[2] + actions).ravel()
        q_taken = q_all.take(taken).reshape(agents, n)
        labels = (1.0 - hp.alpha) * q_taken + hp.alpha * bootstrapped
        residual = q_taken - labels
        delta = np.zeros_like(q_all)
        delta.put(taken, 2.0 * residual / n)
        for layer in range(len(self.weights) - 1, -1, -1):
            inputs = post.pop()[:agents]  # freed as the step goes down the layers
            grad_w = delta.transpose(0, 2, 1) @ inputs
            grad_b = delta.sum(axis=1)
            if layer:
                delta = delta @ self.weights[layer][:agents]
                delta *= inputs > 0.0
            grad_w *= hp.eta
            grad_b *= hp.eta
            self.weights[layer][:agents] -= grad_w
            self.biases[layer][:agents] -= grad_b


def train_step(pair: AgentPair, batch: list[Experience], hp: Hyperparameters) -> float:
    """One SGD step of the blended-label regression; returns the batch loss."""
    if not batch:
        raise ValueError("batch must be non-empty")
    n = len(batch)
    obs = np.array([e.observation for e in batch], dtype=float)
    nxt = np.array([e.next_observation for e in batch], dtype=float)
    actions = np.array([e.action for e in batch], dtype=np.intp)
    rewards = np.array([e.reward for e in batch], dtype=float)

    q_all, cache = pair.main.forward_batch(obs)
    q_next, _ = pair.target.forward_batch(nxt)
    bootstrapped = rewards + hp.gamma * q_next.max(axis=1)
    q_taken = q_all[np.arange(n), actions]
    labels = (1.0 - hp.alpha) * q_taken + hp.alpha * bootstrapped

    # Loss touches only the taken actions; every other output's label is its
    # own current prediction, so its error term is identically zero.
    residual = q_taken - labels
    d_out = np.zeros_like(q_all)
    d_out[np.arange(n), actions] = 2.0 * residual / n
    grads_w, grads_b = pair.main.backward(cache, d_out)
    pair.main.apply_gradients(grads_w, grads_b, hp.eta)
    return float(np.mean(residual**2))


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(path, agent_id: int, breaker_ids, net: QNetwork) -> None:
    """Dump architecture, parameters and partition binding as JSON."""
    doc = {
        "format_version": 1,
        "agent": agent_id,
        "breakers": list(breaker_ids),
        "layer_sizes": net.layer_sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[int, list[str], QNetwork]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version in {path}")
    net = QNetwork(
        [np.array(w, dtype=float) for w in doc["weights"]],
        [np.array(b, dtype=float) for b in doc["biases"]],
    )
    expected = [w.shape for w in net.weights]
    declared = [
        (b, a) for a, b in zip(doc["layer_sizes"][:-1], doc["layer_sizes"][1:])
    ]
    if expected != declared:
        raise ValueError(f"checkpoint {path} architecture mismatch")
    if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
        raise ValueError(f"checkpoint {path} holds non-finite weights or biases")
    return int(doc["agent"]), [str(b) for b in doc["breakers"]], net
