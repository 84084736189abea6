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
gradient exactly checkable against central finite differences.
``StackedLearner`` keeps every agent's main and target network in one
parameter buffer and steps all agents at once on zero-padded layer views of
it, fed from one replay ring that stores observation bits as int8. An agent
sees only its own w breakers, so between target syncs its ``max_a' Q_target``
takes at most 2^w values; when they fit in one batch the learner tabulates
them once per sync instead of running the target network every step. The
tests check it against the per-agent step in ``tests/reference.py``.
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
        if type(self.seed) is not int or self.seed < 0:  # bool is an int subclass
            raise ValueError(f"seed must be a non-negative int, not {self.seed!r}")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 < self.eta < np.inf:  # False for NaN too
            raise ValueError(f"eta must be positive and finite, not {self.eta}")
        for name in ("batch_size", "capacity"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be at least 1 and an int, not {value!r}")
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
        if not 0 < self.decay < np.inf:
            raise ValueError(f"decay must be positive and finite, not {self.decay}")

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


@dataclass
class AgentPair:
    """Main network plus its delayed target copy."""

    main: QNetwork
    target: QNetwork

    @classmethod
    def initialized(cls, layer_sizes, rng: np.random.Generator) -> "AgentPair":
        main = QNetwork.initialized(layer_sizes, rng)
        return cls(main=main, target=main.copy())


class StackedLearner:
    """Every agent's networks in one parameter buffer, and one replay ring.

    ``params`` is one ``(2, P)`` float64 buffer: row 0 holds every agent's
    main network and row 1 every target, laid out alike. Layer l is a
    ``(2, agents, out, in)`` view ``weights[l]`` and a ``(2, agents, 1, out)``
    view ``biases[l]`` of it, zero-padded to the widest agent. ``pairs`` are
    unpadded ``AgentPair`` views into ``params``. ``grads`` is one ``(P,)``
    buffer laid out like a row of ``params``: ``gradients`` fills it, and
    ``train_step`` leaves it scaled by the step size.

    Replay is one preallocated ring with a single write index, evicting
    oldest-first: slot k of ``bits[0]`` and ``bits[1]`` (int8,
    ``(agents, capacity, width)``) holds a step's observations and next
    observations, ``actions`` and ``rewards`` its actions and shared reward.

    ``gradients`` runs every agent's main forward and backward pass in one set
    of batched array calls on the ``weights[l][0]`` stacks; padded weights get
    exactly zero gradient. ``_target_max`` gives an agent's next-state value
    ``max_a' Q_target(o', a')`` at each row of an (n, widest) block through
    ``weights[l][1, a]``, the matrices, shapes and strides of a stacked call,
    with padded outputs set to -inf. An agent of w breakers with 2^w <= n (n
    the batch size) runs it once per sync on a block holding every
    observation code (bit j = its breaker j; padded bits do not count), and
    each step reads that table by code; a wider agent runs its n sampled next
    rows. Tables are kept per n until ``sync_target`` empties them; the
    target views in ``pairs`` are read-only, so none goes stale.

    Exactness rests on OpenBLAS 0.3.31 (SkylakeX kernels). A row of an n-row
    product does not depend on the other rows, so a table entry equals the value
    a stacked pass gives a row holding that code, given a block of exactly the
    batch's n rows (1,024 or 8 rows round apart). A zero-padded product may
    round apart from the unpadded per-agent step of ``tests/reference.py`` at
    any batch size (one row also takes a matrix-vector kernel); the tests pin
    bit-equality on the study widths (10, 5, 3, 3, 5) at the default 32 rows,
    and the golden digests pin training on both study feeders.
    """

    def __init__(self, pairs: list[AgentPair], capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        sizes = np.array([p.main.layer_sizes for p in pairs])
        agents, widest = len(pairs), sizes.max(axis=0)
        shapes = [s for i, o in zip(widest, widest[1:]) for s in ((agents, o, i), (agents, 1, o))]
        bounds = np.cumsum([0] + [np.prod(s) for s in shapes])
        self.params = np.zeros((2, bounds[-1]))
        self.grads = np.zeros(bounds[-1])
        blocks = [(slice(lo, hi), s) for lo, hi, s in zip(bounds, bounds[1:], shapes)]
        self.weights = [self.params[:, k].reshape(2, *s) for k, s in blocks[0::2]]
        self.biases = [self.params[:, k].reshape(2, *s) for k, s in blocks[1::2]]
        self._grad_w = [self.grads[k].reshape(s) for k, s in blocks[0::2]]
        self._grad_b = [self.grads[k].reshape(s) for k, s in blocks[1::2]]
        self.pairs = [AgentPair(self._adopt(0, a, p.main), self._adopt(1, a, p.target))
                      for a, p in enumerate(pairs)]
        self._padded = np.arange(widest[-1]) >= sizes[:, -1:]
        self._widths = sizes[:, 0]
        # Agent a's next-row place values: bit j counts 2^j, padded bits 0.
        self._place = np.where(np.arange(widest[0]) < self._widths[:, None],
                               2.0 ** np.arange(widest[0]), 0.0)
        self._tables = {}  # batch size -> per agent, its table or None; emptied on sync
        # Slots past ``size`` are never read, so the ring starts uninitialized.
        self.bits = np.empty((2, agents, capacity, widest[0]), dtype=np.int8)
        self.actions = np.empty((agents, capacity), dtype=np.intp)
        self.rewards = np.empty(capacity)
        self._offsets = np.arange(agents)[:, None] * capacity  # agent a's ring in the flat ring
        self.size = self._write = 0  # steps stored, next slot to write

    def _adopt(self, row: int, agent: int, net: QNetwork) -> QNetwork:
        """Copy ``net`` into ``params[row]`` as agent ``agent``'s network; returns its view there."""
        view = QNetwork([w[row, agent, : p.shape[0], : p.shape[1]]
                         for w, p in zip(self.weights, net.weights)],
                        [b[row, agent, 0, : p.shape[0]] for b, p in zip(self.biases, net.biases)])
        for dst, src in zip(view.weights + view.biases, net.weights + net.biases):
            dst[...] = src
            dst.flags.writeable = row == 0  # targets change only through sync_target
        return view

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
        self.params[1] = self.params[0]
        self._tables.clear()

    def _target_max(self, agent: int, block: np.ndarray) -> np.ndarray:
        """``max_a' Q_target(o', a')`` of one agent at each row of an
        ``(n, widest)`` block, computed as the stacked forward pass does."""
        x = block
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = x @ w[1, agent].T
            x += b[1, agent]
            np.maximum(x, 0.0, out=x)
        q = x @ self.weights[-1][1, agent].T
        q += self.biases[-1][1, agent]
        np.copyto(q, -np.inf, where=self._padded[agent])
        return q.max(axis=1)

    def _bootstrap_tables(self, n: int) -> list:
        """Per agent, its target max at every observation code when 2^w <= n, else None."""
        if n not in self._tables:  # row r of agent a's block holds code r mod 2^w
            bits = (np.arange(n)[:, None] >> np.arange(self._place.shape[1]) & 1).astype(float)
            self._tables[n] = [
                None if 1 << w > n else self._target_max(a, bits * (place > 0))[: 1 << w]
                for a, (w, place) in enumerate(zip(self._widths, self._place))]
        return self._tables[n]

    def gradients(self, observations, actions, rewards, hp: Hyperparameters) -> np.ndarray:
        """Fill ``grads`` with every main network's gradient on a batch shaped
        like ``sample``'s; returns each agent's mean squared residual."""
        agents, n = actions.shape
        nxt = observations[agents:]
        best = np.empty((agents, n))
        for a, table in enumerate(self._bootstrap_tables(n)):
            best[a] = (self._target_max(a, nxt[a]) if table is None
                       else table.take((nxt[a] @ self._place[a]).astype(np.intp)))
        bootstrapped = rewards + hp.gamma * best
        # In-place bias and ReLU keep the step's temporaries small; ReLU
        # outputs stand in for pre-activations, as relu(z) > 0 iff z > 0.
        post = [observations[:agents]]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            post.append(post[-1] @ w[0].transpose(0, 2, 1))
            post[-1] += b[0]
            np.maximum(post[-1], 0.0, out=post[-1])
        q_all = post[-1] @ self.weights[-1][0].transpose(0, 2, 1)
        q_all += self.biases[-1][0]
        taken = (np.arange(0, q_all.size, q_all.shape[2]).reshape(agents, n) + actions).ravel()
        q_taken = q_all.take(taken).reshape(agents, n)
        labels = (1.0 - hp.alpha) * q_taken + hp.alpha * bootstrapped
        residual = q_taken - labels
        delta = np.zeros_like(q_all)
        delta.put(taken, 2.0 * residual / n)
        for layer in range(len(self.weights) - 1, -1, -1):
            inputs = post.pop()  # freed as the pass goes down the layers
            np.matmul(delta.transpose(0, 2, 1), inputs, out=self._grad_w[layer])
            delta.sum(axis=1, keepdims=True, out=self._grad_b[layer])
            if layer:
                delta = delta @ self.weights[layer][0]
                delta *= inputs > 0.0
        return np.square(residual).sum(axis=1) / n

    def train_step(self, observations, actions, rewards, hp: Hyperparameters) -> np.ndarray:
        """One SGD step of every agent; returns ``gradients``' per-agent loss."""
        loss = self.gradients(observations, actions, rewards, hp)
        self.grads *= hp.eta
        self.params[0] -= self.grads
        return loss


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
    """Read a ``save_checkpoint`` file; a malformed one raises a ``ValueError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"checkpoint {path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path}: the top level must be a JSON object, "
                         f"not {type(doc).__name__}")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version in {path}")
    kinds = {"agent": int, "breakers": list, "layer_sizes": list, "weights": list, "biases": list}
    wrong = [key for key, kind in kinds.items() if type(doc.get(key)) is not kind]
    wrong = wrong or [f"breakers[{i}]" for i, b in enumerate(doc["breakers"]) if type(b) is not str]
    if wrong:
        raise ValueError(f"checkpoint {path}: missing or mistyped {', '.join(wrong)}")
    try:
        net = QNetwork([np.array(w, dtype=float) for w in doc["weights"]],
                       [np.array(b, dtype=float) for b in doc["biases"]])
    except (TypeError, ValueError) as e:  # ragged or non-numeric entries
        raise ValueError(f"checkpoint {path}: {e}") from None
    sizes = doc["layer_sizes"]
    declared = [(o, i) for i, o in zip(sizes, sizes[1:])]
    shapes = [a.shape for a in (*net.weights, *net.biases)]
    if not declared or shapes != declared + [(o,) for o, _ in declared]:
        raise ValueError(f"checkpoint {path} architecture mismatch")
    if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
        raise ValueError(f"checkpoint {path} holds non-finite weights or biases")
    return doc["agent"], doc["breakers"], net
