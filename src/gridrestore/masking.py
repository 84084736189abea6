"""Joint action selection under invalid-action masking.

Exploration resamples the entire joint action until the environment's shadow
power flow accepts it. Exploitation starts from every agent's greedy proposal;
while the joint is invalid, one uniformly random agent pins its current best
action value to -inf and everyone reselects. Demotions never persist across
environment steps: each call starts from a fresh mask state.

Both procedures only ever return joint actions that pass the validity oracle,
which is what keeps masked training at zero constraint violations.
"""

from __future__ import annotations

import numpy as np

from .environment import AgentAction, JointAction

EXPLORE_RESAMPLE_CAP = 1000


class MaskingError(RuntimeError):
    """Selection failed to find a valid joint action. Exploitation falls back
    to no-op open toggles, which keep the current state, feasible since the
    all-open reset (checked when a masked ``RestorationEnv`` is built); an
    agent with every breaker closed has no no-op, so that can still fail."""


def explore_joint(validate, action_counts, rng: np.random.Generator) -> JointAction:
    """Uniform random joint action, resampled as a whole until valid."""
    for _ in range(EXPLORE_RESAMPLE_CAP):
        joint = JointAction(
            tuple(AgentAction(int(rng.integers(n))) for n in action_counts)
        )
        if validate(joint):
            return joint
    raise MaskingError(
        f"no valid joint action in {EXPLORE_RESAMPLE_CAP} resamples"
    )


def exploit_joint(
    validate,
    q_vectors,
    noop_actions,
    rng: np.random.Generator,
) -> JointAction:
    """Greedy joint action with iterative Q-demotion until valid.

    ``q_vectors``   one action-value vector per agent (not modified);
    ``noop_actions`` per agent, the open-toggle indices that are no-ops in the
    current state, used only by the exhaustion fallback.
    """
    n_agents = len(q_vectors)
    originals = [np.asarray(q, dtype=float) for q in q_vectors]
    working = [q.copy() for q in originals]
    forced: list[int | None] = [None] * n_agents

    def proposal(i: int) -> int:
        if forced[i] is not None:
            return forced[i]
        return int(np.argmax(working[i]))  # ties break to the lowest index

    cap = sum(len(q) for q in q_vectors) + n_agents + 1
    for _ in range(cap):
        joint = JointAction(tuple(AgentAction(proposal(i)) for i in range(n_agents)))
        if validate(joint):
            return joint
        live = [i for i in range(n_agents) if forced[i] is None]
        if not live:
            # Everyone is pinned to a no-op, which must preserve the feasible
            # current state; an invalid verdict here means the oracle is broken.
            break
        j = live[int(rng.integers(len(live)))]
        working[j][proposal(j)] = -np.inf
        if np.all(np.isneginf(working[j])):
            # Exhausted its whole action set: force the open no-op with the
            # highest original value (any open toggle if none is a no-op).
            candidates = list(noop_actions[j]) or [
                k for k in range(len(originals[j])) if k % 2 == 1
            ]
            forced[j] = max(candidates, key=lambda k: (originals[j][k], -k))
    raise MaskingError("mask demotion loop failed to reach a valid joint action")
