"""Output checks that do not rely on the program's own solver or oracle.

Each check takes a program output and the independent model of
``independent.py`` and raises ``CheckFailed`` with the first discrepancy.
Floating-point comparisons use the stated margins below; every other
comparison is exact.
"""

from __future__ import annotations

import hashlib
import math

from independent import SERVED_TOLERANCE_KW

EPSILON_TOLERANCE = 1e-12   # math.exp and numpy's exp may differ in the last ulp
REWARD_TOLERANCE = 1e-9     # sums of per-step rewards of at most one each


class CheckFailed(AssertionError):
    """A program output disagrees with the independent expectation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_training_logs(logs, cfg, grid, optimum) -> None:
    """Per-episode log rows against the schedule formula and reward bounds.

    ``optimum`` is the independent ``Optimum``. A step earns the penalty or
    the normalized weighted power of a feasible state, and no feasible state
    beats the optimum, so R lies in [penalty x steps, steps x optimum share].
    """
    steps = cfg.steps_per_episode
    sched = cfg.schedule
    _require(len(logs) == cfg.episodes, f"{len(logs)} episode rows, expected {cfg.episodes}")
    step_cap = optimum.weighted_kw / grid.total_load_kw
    for i, log in enumerate(logs):
        where = f"episode {i}"
        _require(log.episode == i, f"{where}: numbered {log.episode}")
        _require(log.steps == steps, f"{where}: {log.steps} steps, expected {steps}")
        eps = sched.eps_min + (sched.eps_max - sched.eps_min) * math.exp(-sched.decay * i)
        _require(abs(log.epsilon - eps) <= EPSILON_TOLERANCE,
                 f"{where}: epsilon {log.epsilon!r}, schedule gives {eps!r}")
        low = cfg.penalty * steps - REWARD_TOLERANCE
        high = steps * step_cap + REWARD_TOLERANCE
        _require(low <= log.reward <= high,
                 f"{where}: R = {log.reward!r} outside [{low}, {high}]")
        _require(0 <= log.violations <= steps, f"{where}: {log.violations} violations")
        _require(0.0 <= log.restored_kw <= grid.total_load_kw + SERVED_TOLERANCE_KW,
                 f"{where}: restored {log.restored_kw} kW")
        if cfg.masking:
            _require(log.violations == 0, f"{where}: {log.violations} violations under masking")
            _require(log.restored_kw <= grid.capacity + SERVED_TOLERANCE_KW,
                     f"{where}: restored {log.restored_kw} kW above capacity {grid.capacity}")


def check_execution(trace, feeder, grid, max_steps: int, verdicts: dict) -> int:
    """Replay a greedy ``execute`` trace and re-check every visited state.

    The state sequence is rebuilt from the logged toggles, and each state's
    served kW, reward and violation flag are recomputed independently.
    ``verdicts`` memoizes independent evaluations across calls. Returns the
    number of near-limit states whose flag was not compared.
    """
    ids = [b.id for b in feeder.breakers]
    _require(len(trace.step_states) == max_steps,
             f"{len(trace.step_states)} states for {max_steps} steps")
    by_step: dict[int, list] = {}
    for e in trace.entries:
        by_step.setdefault(e.step, []).append(e)
    _require(sorted(by_step) == list(range(1, max_steps + 1)), "steps not numbered 1..n")
    state = [0] * len(ids)
    skipped = 0
    for step in range(1, max_steps + 1):
        entries = by_step[step]
        for e in entries:
            _require(e.toggle in ("close", "open"), f"step {step}: toggle {e.toggle!r}")
            state[ids.index(e.breaker)] = 1 if e.toggle == "close" else 0
        _require(tuple(trace.step_states[step - 1]) == tuple(state),
                 f"step {step}: logged state differs from the replayed toggles")
        key = tuple(state)
        if key not in verdicts:
            verdicts[key] = grid.evaluate(key)
        v = verdicts[key]
        for e in entries:
            _require(abs(e.served_kw - v.served_kw) <= SERVED_TOLERANCE_KW,
                     f"step {step}: served {e.served_kw} kW, independent {v.served_kw}")
            reward = v.weighted_kw / grid.total_load_kw
            _require(abs(e.reward - reward) <= REWARD_TOLERANCE,
                     f"step {step}: reward {e.reward}, independent {reward}")
            if v.near_limit:
                continue
            _require(e.violation == (0 if v.feasible else 1),
                     f"step {step}: violation flag {e.violation}, independent "
                     f"verdict {'feasible' if v.feasible else 'infeasible'}")
        skipped += v.near_limit
    return skipped


def check_oracle(result, feeder, grid, optimum) -> None:
    """The reported optimum against independent evaluation and enumeration."""
    n = feeder.n_breakers
    _require(result.evaluated_count == 2 ** n,
             f"evaluated {result.evaluated_count} of {2 ** n} configurations")
    v = grid.evaluate(result.best_states)
    _require(v.feasible or v.near_limit, "best state is infeasible")
    _require(abs(result.best_served_kw - v.served_kw) <= SERVED_TOLERANCE_KW,
             f"best served {result.best_served_kw} kW, independent {v.served_kw}")
    _require(abs(result.best_weighted_kw - v.weighted_kw) <= SERVED_TOLERANCE_KW,
             f"best weighted {result.best_weighted_kw} kW, independent {v.weighted_kw}")
    _require(abs(result.best_weighted_kw - optimum.weighted_kw) <= SERVED_TOLERANCE_KW,
             f"optimum {result.best_weighted_kw} kW, enumeration finds "
             f"{optimum.weighted_kw}")
    if optimum.near_limit_count == 0:
        _require(tuple(result.best_states) == optimum.states,
                 f"best state {result.best_states}, enumeration finds {optimum.states}")
        _require(result.feasible_count == optimum.feasible_count,
                 f"{result.feasible_count} feasible, enumeration finds "
                 f"{optimum.feasible_count}")


def fingerprint(*parts) -> str:
    """Bit-exact digest of nested outputs (floats by their hex form)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif hasattr(x, "tobytes"):
            h.update(str(x.dtype).encode() + str(x.shape).encode() + x.tobytes())
        else:
            h.update(repr(x).encode())
        h.update(b",")

    for p in parts:
        feed(p)
    return h.hexdigest()


def check_repeat(digest: str, first: str) -> None:
    _require(digest == first, "a repeat of the seeded unit of work differs from the first")
