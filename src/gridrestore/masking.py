"""Joint action selection under invalid-action masking.

A joint action is a tuple of per-agent action indices (2k closes the agent's
breaker k, 2k+1 opens it). Exploration resamples the entire joint action until
the environment's shadow power flow accepts it. Exploitation starts from every
agent's greedy proposal; while the joint is invalid, one uniformly random agent
pins its current best action value to -inf and reselects. Demotions never
persist across environment steps: each call starts from a fresh mask state.

Both procedures only ever return joint actions that pass the validity oracle,
which is what keeps masked training at zero constraint violations. Masked
training passes the environment's ``validate_joint``; unmasked training, and
greedy execution with no generator, pass ``training.accept_all``, under which
the first sample is the plain uniform draw and the first proposal the argmax.
"""

from __future__ import annotations

import numpy as np

EXPLORE_RESAMPLE_CAP = 1000


class MaskingError(RuntimeError):
    """Selection failed to find a valid joint action. Exploitation falls back
    to no-op open toggles, which keep the current state, feasible since the
    all-open reset (checked when a masked ``RestorationEnv`` is built); an
    agent with every breaker closed has no no-op, so that can still fail."""


def explore_joint(validate, action_counts, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform random joint action, resampled as a whole until valid."""
    for _ in range(EXPLORE_RESAMPLE_CAP):
        joint = tuple(int(rng.integers(n)) for n in action_counts)
        if validate(joint):
            return joint
    raise MaskingError(
        f"no valid joint action in {EXPLORE_RESAMPLE_CAP} resamples"
    )


def exploit_joint(
    validate,
    q_vectors,
    observations,
    rng: np.random.Generator | None,
) -> tuple[int, ...]:
    """Greedy joint action with iterative Q-demotion until valid.

    ``rng``          read only after the oracle refuses a joint, so may be None;
    ``q_vectors``    one action-value vector per agent (not modified);
    ``observations`` per agent, its breaker bits (a row may be zero-padded past
    the agent's breakers); the exhaustion fallback reads the open breakers
    from them, whose open toggles are no-ops in the current state.
    """
    n_agents = len(q_vectors)
    originals = [np.asarray(q, dtype=float) for q in q_vectors]
    working = [q.copy() for q in originals]
    joint = [int(np.argmax(q)) for q in originals]  # ties break to the lowest index
    forced = [False] * n_agents

    cap = sum(len(q) for q in q_vectors) + n_agents + 1
    for _ in range(cap):
        if validate(tuple(joint)):
            return tuple(joint)
        live = [i for i in range(n_agents) if not forced[i]]
        if not live:
            # Everyone is pinned to a no-op, which must preserve the feasible
            # current state; an invalid verdict here means the oracle is broken.
            break
        j = live[int(rng.integers(len(live)))]
        working[j][joint[j]] = -np.inf
        if np.all(np.isneginf(working[j])):
            # Exhausted its whole action set: force the open no-op with the
            # highest original value (any open toggle if none is a no-op).
            odd = range(1, len(originals[j]), 2)
            candidates = [k for k in odd if not observations[j][k >> 1]] or list(odd)
            joint[j] = max(candidates, key=lambda k: (originals[j][k], -k))
            forced[j] = True
        else:
            joint[j] = int(np.argmax(working[j]))
    raise MaskingError("mask demotion loop failed to reach a valid joint action")
