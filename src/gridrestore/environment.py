"""Markov decision process over breaker switching in a partitioned feeder.

Each agent owns the breakers of one microgrid and sees only their states.
A joint action is a sequence of per-agent ints: index 2k closes the agent's
breaker k and 2k+1 opens it. A step applies every agent's toggle
simultaneously, looks up the power-flow verdict of the new state, and returns
the observations and the shared normalized reward (weighted restored power
over total rated load). The observations are one ``(agents, widest)`` int8
array: row i holds agent i's breaker bits in partition order, zero-padded to
the widest agent, the layout of the learner's replay ring.
Verdicts are solved and memoized per island (see ``powerflow.islands``): a
state is feasible when every island's sub-state is. An island's bits, read as
an integer code (bit j is its j-th breaker), are looked up in the island's
``powerflow.verdict_lookup``, held from construction, which solves a page of
codes (the oracle's batch) on a miss. The pages belong to the feeder object,
shared by every environment on it and freed with it; so in ``compare`` the
first variant pays the page fills. ``validate_joint`` is a pure query and
``step`` the only mutator; each looks up its joint's verdict once, from the
pages, whatever came before.

Two reward modes:

``masked``
    The caller must pre-validate joint actions (``validate_joint``); stepping
    an invalid one is a contract violation and raises. Rewards are always the
    normalized restored power, and the constraint-violation counter stays 0.
    Construction checks that the all-open reset state is feasible.
``penalty``
    Any action is applied. If the resulting state violates a constraint (or
    the power flow diverges), the reward is the penalty value M instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .feeder import Feeder
from .powerflow import islands, verdict_lookup


class EpisodeExhausted(RuntimeError):
    """step() was called after the per-episode step budget was spent."""


class InvalidJointAction(RuntimeError):
    """A masked-mode caller stepped a joint action that violates constraints."""


@dataclass(frozen=True)
class StepResult:
    observations: np.ndarray  # (agents, widest) int8 rows, as ``reset`` returns
    reward: float
    served_kw: float
    weighted_kw: float
    constraints_ok: bool


def check_penalty(penalty):
    """``penalty`` itself when it is a real number, not a bool, that is finite
    as a float: a penalized step returns it as its reward."""
    try:
        if isinstance(penalty, Real) and not isinstance(penalty, bool) and math.isfinite(penalty):
            return penalty
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"penalty must be finite and a real number, not {penalty!r}")


class RestorationEnv:
    """Environment state: a feeder, its breaker vector, and a step counter."""

    def __init__(
        self,
        feeder: Feeder,
        reward_mode: str = "masked",
        penalty: float = -1.0,
        max_steps: int = 16,
        agent_breakers: list[tuple[int, ...]] | None = None,
    ):
        if reward_mode not in ("masked", "penalty"):
            raise ValueError(f"unknown reward_mode {reward_mode!r}")
        if type(max_steps) is not int:  # bool is an int subclass
            raise ValueError(f"max_steps must be an int, not {max_steps!r}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {max_steps}")
        self.feeder = feeder
        self.reward_mode = reward_mode
        self.penalty = check_penalty(penalty)
        self.max_steps = max_steps
        if agent_breakers is None:
            agent_breakers = [
                feeder.agent_breaker_indices(a) for a in range(feeder.n_agents)
            ]
        self.agent_breakers = [tuple(g) for g in agent_breakers]
        covered = [i for grp in self.agent_breakers for i in grp]
        if sorted(covered) != list(range(feeder.n_breakers)):
            raise ValueError("agent breaker groups must partition all breakers")
        # The breaker states and one trailing 0 that padded observation slots
        # read; int64 as _place, so a lookup does not cast.
        self._states = np.zeros(feeder.n_breakers + 1, dtype=np.int64)
        width = max(map(len, self.agent_breakers), default=0)
        self._slots = np.full((self.n_agents, width), feeder.n_breakers, dtype=np.intp)
        for i, grp in enumerate(self.agent_breakers):
            self._slots[i, : len(grp)] = grp
        self.step_count = 0
        self.violation_count = 0
        self._denominator = feeder.total_load_kw()
        self._islands = islands(feeder)
        # Row k of _place holds island k's place values (bit j is its j-th
        # breaker), so _place @ states reads every island's bits as an integer.
        self._place = np.zeros((len(self._islands), feeder.n_breakers), dtype=np.int64)
        for k, (positions, _) in enumerate(self._islands):
            self._place[k, list(positions)] = 1 << np.arange(len(positions))
        self._verdicts = [verdict_lookup(sub) for _, sub in self._islands]
        if reward_mode == "masked":
            for (_, sub), verdict in zip(self._islands, self._verdicts):
                if not verdict(0)[0]:  # code 0: the island all open
                    raise ValueError(
                        f"the island of generators {', '.join(g.id for g in sub.generators)} "
                        "violates a constraint with all breakers open; masked mode needs "
                        "that state feasible"
                    )

    # -- geometry ---------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.agent_breakers)

    def action_space_sizes(self) -> list[int]:
        return [2 * len(g) for g in self.agent_breakers]

    @property
    def breaker_states(self) -> tuple[int, ...]:
        return tuple(self._states[:-1].tolist())

    # -- dynamics ---------------------------------------------------------------

    def reset(self) -> np.ndarray:
        """All breakers open (the post-outage state), step counter cleared;
        returns the observation rows."""
        self._states[:] = 0
        self.step_count = 0
        return self._states[self._slots].astype(np.int8)

    def _candidate_states(self, actions) -> np.ndarray:
        if len(actions) != self.n_agents:
            raise ValueError(f"joint action has {len(actions)} entries for {self.n_agents} agents")
        nxt = self._states.copy()
        for agent, (group, a) in enumerate(zip(self.agent_breakers, actions)):
            if not 0 <= a < 2 * len(group):
                raise ValueError(f"action index {a} out of range for agent {agent}")
            nxt[group[a >> 1]] = 1 - (a & 1)
        return nxt

    def _feasibility(self, states: np.ndarray) -> tuple[bool, float, float]:
        """The AND of the island verdicts and the sums of their served power."""
        ok, served, weighted = True, 0.0, 0.0
        for verdict, code in zip(self._verdicts, self._place.dot(states).tolist()):
            f, s, w = verdict(code)
            ok, served, weighted = ok and f, served + s, weighted + w
        return ok, served, weighted

    def validate_joint(self, actions) -> bool:
        """Would this joint action keep every constraint satisfied?

        Shadow evaluation on a copy; the live state is never touched.
        """
        return self._feasibility(self._candidate_states(actions)[:-1])[0]

    def step(self, actions) -> StepResult:
        if self.step_count >= self.max_steps:
            raise EpisodeExhausted(f"episode already ran {self.max_steps} steps; reset() first")
        nxt = self._candidate_states(actions)
        ok, served, weighted = self._feasibility(nxt[:-1])
        if self.reward_mode == "masked" and not ok:
            raise InvalidJointAction("masked-mode step of a constraint-violating joint action")
        if ok:
            reward = weighted / self._denominator if self._denominator > 0 else 0.0
        else:
            self.violation_count += 1
            reward = self.penalty
        self._states = nxt
        self.step_count += 1
        return StepResult(
            observations=nxt[self._slots].astype(np.int8),
            reward=reward,
            served_kw=served,
            weighted_kw=weighted,
            constraints_ok=ok,
        )
