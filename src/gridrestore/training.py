"""End-to-end orchestration: centralized training, decentralized greedy
execution, and side-by-side variant comparison.

A training run is one sequential loop per the distributed deep-Q procedure: per
episode, reset to all-open; per step, one epsilon draw switches the whole joint
selection between random exploration and greedy exploitation under one oracle
(the mask, or ``accept_all``); the environment applies the joint action (one
action index per agent) and returns every agent's int8 observation row, which
go into one replay ring as they are; every agent takes one replay-batch
gradient step, all in one ``StackedLearner.train_step``; target networks are
refreshed every ``sync_interval`` environment steps; epsilon decays per
episode. Identical (feeder, config) pairs reproduce bit-for-bit.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import (
    AgentPair,
    EpsilonSchedule,
    Hyperparameters,
    QNetwork,
    StackedLearner,
    load_checkpoint,
    save_checkpoint,
)
from .environment import RestorationEnv, check_penalty
from .feeder import Feeder
from .masking import exploit_joint, explore_joint

EPISODES_HEADER = ["episode", "R", "restored_kw", "violations", "epsilon", "r_per_step"]
TRACE_HEADER = ["step", "agent", "breaker", "toggle", "served_kw", "reward", "violation"]
COMPARISON_HEADER = [
    "variant",
    "convergence_episode",
    "final50_mean",
    "final50_std",
    "violations",
    "wall_clock_s",
]


@dataclass
class TrainingConfig:
    episodes: int = 500
    steps_per_episode: int = 16
    sync_interval: int = 50          # environment steps between target syncs
    masking: bool = True
    agent_mode: str = "multi"        # "single" collapses the partition
    penalty: float = -1.0            # reward M when masking is off
    hidden_sizes: tuple[int, ...] = (64, 64)
    hyper: Hyperparameters = field(default_factory=Hyperparameters)
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        for name, least in (("episodes", 0), ("steps_per_episode", 1), ("sync_interval", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # bool is an int subclass
                raise ValueError(f"{name} must be at least {least} and an int, not {value!r}")
        if self.agent_mode not in ("multi", "single"):
            raise ValueError(f"unknown agent_mode {self.agent_mode!r}")
        check_penalty(self.penalty)
        if any(type(h) is not int or h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden layer sizes must be at least 1 and ints, got {self.hidden_sizes}")

    @property
    def seed(self) -> int:
        return self.hyper.seed


@dataclass(frozen=True)
class EpisodeLog:
    episode: int
    reward: float        # R, sum of step rewards
    restored_kw: float   # served power at episode end
    violations: int
    epsilon: float
    steps: int

    @property
    def r_per_step(self) -> float:
        return self.reward / self.steps if self.steps else 0.0


@dataclass(frozen=True)
class TraceEntry:
    step: int
    agent: int
    breaker: str
    toggle: str          # "close" | "open"
    served_kw: float
    reward: float        # normalized restored power of the post-step state
    violation: int


@dataclass
class RestorationTrace:
    entries: list[TraceEntry]
    step_states: list[tuple[int, ...]] = field(default_factory=list)

    def _steps(self) -> list[TraceEntry]:
        """One entry per step: a step's agents share its served kW and violation."""
        return list({e.step: e for e in self.entries}.values())

    def served_series(self) -> list[float]:
        return [e.served_kw for e in self._steps()]

    @property
    def final_served_kw(self) -> float:
        return self.entries[-1].served_kw if self.entries else 0.0

    @property
    def total_violations(self) -> int:
        return sum(e.violation for e in self._steps())

    def pickup_steps_to_states(self, states, tol: float = 1e-6) -> int | None:
        """Serving-increase steps until a breaker configuration is first hit."""
        target = tuple(states)
        pickups = 0
        prev = 0.0
        for served, reached in zip(self.served_series(), self.step_states):
            if served > prev + tol:
                pickups += 1
            prev = served
            if reached == target:
                return pickups
        return None


def agent_slots(feeder: Feeder, agent_mode: str) -> list[tuple[int, ...]]:
    """Breaker-index groups per learning agent.

    Multi-agent mode follows the microgrid partition; single-agent mode
    collapses it into one agent over all breakers, keeping partition order.
    """
    groups = [feeder.agent_breaker_indices(a) for a in range(feeder.n_agents)]
    if agent_mode == "single":
        return [tuple(i for g in groups for i in g)]
    return groups


def accept_all(joint) -> bool:
    """The validity oracle of unmasked training and greedy execution."""
    return True


def train(feeder: Feeder, cfg: TrainingConfig):
    """Run the full training loop; returns (models, per-episode logs)."""
    slots = agent_slots(feeder, cfg.agent_mode)
    env = RestorationEnv(
        feeder,
        reward_mode="masked" if cfg.masking else "penalty",
        penalty=cfg.penalty,
        max_steps=cfg.steps_per_episode,
        agent_breakers=slots,
    )
    rng = np.random.default_rng(cfg.seed)
    learner = StackedLearner([
        AgentPair.initialized([len(g), *cfg.hidden_sizes, 2 * len(g)],
                              np.random.default_rng([cfg.seed, i]))
        for i, g in enumerate(slots)
    ], cfg.hyper.capacity)
    counts = env.action_space_sizes()
    validate = env.validate_joint if cfg.masking else accept_all
    mains = [(pair.main, len(g)) for pair, g in zip(learner.pairs, slots)]
    logs: list[EpisodeLog] = []
    sync_clock = 0

    for episode in range(cfg.episodes):
        eps = cfg.schedule.value(episode)
        rows = env.reset()
        total_reward = 0.0
        violations = 0
        served_end = 0.0
        for _ in range(cfg.steps_per_episode):
            if rng.random() <= eps:
                joint = explore_joint(validate, counts, rng)
            else:
                q_vectors = [net.forward(rows[i, :n]) for i, (net, n) in enumerate(mains)]
                joint = exploit_joint(validate, q_vectors, rows, rng)
            result = env.step(joint)
            total_reward += result.reward
            if not result.constraints_ok:
                violations += 1
            learner.push(rows, joint, result.reward, result.observations)
            rows = result.observations
            served_end = result.served_kw
            sync_clock += 1
            if learner.size >= cfg.hyper.batch_size:
                learner.train_step(*learner.sample(cfg.hyper.batch_size, rng), cfg.hyper)
            if sync_clock % cfg.sync_interval == 0:
                learner.sync_target()
        logs.append(EpisodeLog(episode=episode, reward=total_reward, restored_kw=served_end,
                               violations=violations, epsilon=eps, steps=cfg.steps_per_episode))
    return [AgentPair(p.main.copy(), p.target.copy()) for p in learner.pairs], logs


def _slots_for_models(feeder: Feeder, nets: list[QNetwork]) -> list[tuple[int, ...]]:
    multi = agent_slots(feeder, "multi")
    if len(nets) == len(multi) and all(
        n.n_inputs == len(g) and n.n_outputs == 2 * len(g)
        for n, g in zip(nets, multi)
    ):
        return multi
    single = agent_slots(feeder, "single")
    if len(nets) == 1 and nets[0].n_inputs == len(single[0]):
        return single
    raise ValueError("models do not match the feeder's partition")


def execute(
    models,
    feeder: Feeder,
    max_steps: int = 16,
    slots: list[tuple[int, ...]] | None = None,
) -> RestorationTrace:
    """Greedy decentralized rollout from the all-open state.

    No validity pre-checks are made: each agent takes the argmax of its local
    observation's Q-values, through ``exploit_joint`` under ``accept_all``,
    and any constraint violation along the way is recorded in the trace. The
    reward column is the normalized restored power of the post-step state.
    """
    nets = [m.main if isinstance(m, AgentPair) else m for m in models]
    if slots is None:
        slots = _slots_for_models(feeder, nets)
    env = RestorationEnv(
        feeder, reward_mode="penalty", max_steps=max_steps, agent_breakers=slots
    )
    rows = env.reset()
    denominator = feeder.total_load_kw()
    entries: list[TraceEntry] = []
    step_states: list[tuple[int, ...]] = []
    for step in range(1, max_steps + 1):
        q_vectors = [net.forward(rows[i, :len(g)]) for i, (net, g) in enumerate(zip(nets, slots))]
        joint = exploit_joint(accept_all, q_vectors, rows, None)
        result = env.step(joint)
        reward = (
            result.weighted_kw / denominator if denominator > 0 else 0.0
        )
        for i, a in enumerate(joint):
            entries.append(
                TraceEntry(
                    step=step,
                    agent=i,
                    breaker=feeder.breakers[slots[i][a >> 1]].id,
                    toggle="open" if a & 1 else "close",
                    served_kw=result.served_kw,
                    reward=reward,
                    violation=0 if result.constraints_ok else 1,
                )
            )
        rows = result.observations
        step_states.append(env.breaker_states)
    return RestorationTrace(entries, step_states)


def convergence_episode(
    rewards, window: int = 50, fraction: float = 0.95
) -> int | None:
    """First episode whose forward ``window``-mean comes within
    ``1 - fraction`` of the run's best episode reward, as a share of its
    magnitude (``fraction * best``, or ``best - (1 - fraction) * |best|`` when
    the best is negative); None when the run never settles."""
    r = np.asarray(list(rewards), dtype=float)
    if len(r) < window or len(r) == 0:
        return None
    best = r.max()
    target = fraction * best if best >= 0 else best - (1 - fraction) * abs(best)
    sums = np.convolve(r, np.ones(window), mode="valid") / window
    hits = np.flatnonzero(sums >= target)
    return int(hits[0]) if len(hits) else None


def compare(feeder: Feeder, variants) -> list[dict]:
    """Train each (label, config) variant and tabulate the outcomes. The first
    variant's ``wall_clock_s`` includes the verdict page fills later ones reuse."""
    rows: list[dict] = []
    for label, cfg in variants:
        start = time.perf_counter()
        models, logs = train(feeder, cfg)
        wall = time.perf_counter() - start
        rewards = [log.reward for log in logs]
        tail = rewards[-50:] if rewards else []
        conv = convergence_episode(rewards)
        rows.append(
            {
                "variant": label,
                "convergence_episode": conv if conv is not None else -1,
                "final50_mean": float(np.mean(tail)) if tail else 0.0,
                "final50_std": float(np.std(tail)) if tail else 0.0,
                "violations": sum(log.violations for log in logs),
                "wall_clock_s": wall,
            }
        )
    return rows


# -- artifact emission -------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def write_episodes_csv(path, logs: list[EpisodeLog]) -> None:
    _write_csv(path, EPISODES_HEADER, ((log.episode, log.reward, log.restored_kw, log.violations,
                                        log.epsilon, log.r_per_step) for log in logs))


def write_trace_csv(path, trace: RestorationTrace) -> None:
    _write_csv(path, TRACE_HEADER, ((e.step, e.agent, e.breaker, e.toggle, e.served_kw,
                                     e.reward, e.violation) for e in trace.entries))


def write_comparison_csv(path, rows: list[dict]) -> None:
    _write_csv(path, COMPARISON_HEADER, ([row[c] for c in COMPARISON_HEADER] for row in rows))


def save_models(out_dir, feeder: Feeder, models) -> list[str]:
    """One checkpoint file per agent, carrying its partition binding, read
    from the models' shapes as ``execute`` reads it; models that match no
    partition of the feeder raise before any file is written."""
    nets = [m.main if isinstance(m, AgentPair) else m for m in models]
    slots = _slots_for_models(feeder, nets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (net, group) in enumerate(zip(nets, slots)):
        breaker_ids = [feeder.breakers[g].id for g in group]
        path = out / f"checkpoint_agent{i}.json"
        save_checkpoint(path, i, breaker_ids, net)
        paths.append(str(path))
    return paths


def load_models(checkpoint_dir, feeder: Feeder):
    """Load every checkpoint in a directory; returns (nets, slots) in agent order."""
    paths = sorted(Path(checkpoint_dir).glob("checkpoint_agent*.json"))
    if not paths:
        raise FileNotFoundError(f"no checkpoint_agent*.json under {checkpoint_dir}")
    index = {b.id: i for i, b in enumerate(feeder.breakers)}
    loaded = {}
    for path in paths:
        agent, breaker_ids, net = load_checkpoint(path)
        if agent in loaded:
            raise ValueError(f"checkpoints {loaded[agent][0]} and {path} both hold agent {agent}")
        unknown = [b for b in breaker_ids if b not in index]
        if unknown:
            raise ValueError(f"checkpoint {path} names breaker {unknown[0]!r}, "
                             f"which the feeder does not have")
        group = tuple(index[b] for b in breaker_ids)
        if net.n_inputs != len(group) or net.n_outputs != 2 * len(group):
            raise ValueError(f"checkpoint {path} does not match the feeder's breaker groups")
        loaded[agent] = path, net, group
    ordered = [loaded[a] for a in sorted(loaded)]
    return [net for _, net, _ in ordered], [group for _, _, group in ordered]
