"""Outside-in tracing: wrappers around the program's call-site names.

Each hook replaces one name that the program (or this benchmark) looks up at
call time, such as ``gridrestore.environment.solve`` or
``RestorationEnv.step``, with a wrapper that records a span and counts. A
hook whose target no longer exists is skipped, so a refactor of the program
cannot break the end-to-end run; its layer is listed by ``unhooked`` and its
metrics read 0, like those of a layer that did not run.

A layer's self time is its span duration minus the spans of wrapped calls
made inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

# (layer, module, attribute path) of every call-site name the trace wraps.
HOOKS = (
    ("powerflow.solve", "gridrestore.environment", "solve"),
    ("powerflow.solve", "gridrestore.oracle", "solve"),
    ("powerflow.check_constraints", "gridrestore.environment", "check_constraints"),
    ("powerflow.check_constraints", "gridrestore.oracle", "check_constraints"),
    ("environment.step", "gridrestore.environment", "RestorationEnv.step"),
    ("environment.validate_joint", "gridrestore.environment", "RestorationEnv.validate_joint"),
    ("masking.explore_joint", "gridrestore.training", "explore_joint"),
    ("masking.exploit_joint", "gridrestore.training", "exploit_joint"),
    ("agent.train_step", "gridrestore.training", "train_step"),
    ("agent.sample", "gridrestore.agent", "ReplayBuffer.sample"),
    ("agent.forward", "gridrestore.agent", "QNetwork.forward"),
    ("agent.backward", "gridrestore.agent", "QNetwork.backward"),
    ("agent.apply_gradients", "gridrestore.agent", "QNetwork.apply_gradients"),
    ("training.train", "gridrestore", "train"),
    ("oracle.brute_force", "gridrestore", "brute_force"),
    ("builtins.builtin_feeder", "gridrestore", "builtin_feeder"),
)

# Reported metric -> (layer it needs, unit). Counts are per round.
METRICS = {
    "powerflow.solve.calls": ("powerflow.solve", "count"),
    "powerflow.solve.s": ("powerflow.solve", "s"),
    "powerflow.solve.iterations": ("powerflow.solve", "count"),
    "powerflow.solve.repeat_calls": ("powerflow.solve", "count"),
    "powerflow.check_constraints.calls": ("powerflow.check_constraints", "count"),
    "powerflow.check_constraints.s": ("powerflow.check_constraints", "s"),
    "environment.step.calls": ("environment.step", "count"),
    "environment.step.self_s": ("environment.step", "s"),
    "environment.validate_joint.calls": ("environment.validate_joint", "count"),
    "environment.validate_joint.s": ("environment.validate_joint", "s"),
    "environment.memo.hits": ("environment.validate_joint", "count"),
    "environment.memo.misses": ("environment.validate_joint", "count"),
    "masking.explore_joint.calls": ("masking.explore_joint", "count"),
    "masking.explore_joint.resamples": ("masking.explore_joint", "count"),
    "masking.explore_joint.self_s": ("masking.explore_joint", "s"),
    "masking.exploit_joint.calls": ("masking.exploit_joint", "count"),
    "masking.exploit_joint.demotions": ("masking.exploit_joint", "count"),
    "masking.exploit_joint.self_s": ("masking.exploit_joint", "s"),
    "agent.train_step.calls": ("agent.train_step", "count"),
    "agent.train_step.s": ("agent.train_step", "s"),
    "agent.sample.s": ("agent.sample", "s"),
    "agent.forward.calls": ("agent.forward", "count"),
    "agent.forward.s": ("agent.forward", "s"),
    "agent.backward.s": ("agent.backward", "s"),
    "agent.apply_gradients.s": ("agent.apply_gradients", "s"),
    "training.train.self_s": ("training.train", "s"),
    "oracle.brute_force.s": ("oracle.brute_force", "s"),
    "oracle.brute_force.solves": ("oracle.brute_force", "count"),
    "builtins.builtin_feeder.s": ("builtins.builtin_feeder", "s"),
}


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) of a call-site name, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    # On a class, only a function defined there can be swapped and restored.
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, found) if callable(found) else None


class Tracer:
    """Counts and times per layer for one round, plus that round's spans."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.hooked: set[str] = set()
        self.record_spans = False
        self.new_round()

    def new_round(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self._solved: set[bytes] = set()
        self._stack: list[list] = []

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        for layer, module, path in HOOKS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr, original = target
            self._saved.append(target)
            setattr(owner, attr, self._wrap(layer, original))
            self.hooked.add(layer)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(layer, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
            if layer == "powerflow.solve":
                tracer.counts["powerflow.solve.iterations"] += result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans ----------------------------------------------------------------------

    def _enter(self, layer: str, args) -> list:
        c = self.counts
        c[layer + ".calls"] += 1
        if layer == "powerflow.solve":
            key = np.asarray(args[1], dtype=np.int8).tobytes()
            if key in self._solved:
                c["powerflow.solve.repeat_calls"] += 1
            self._solved.add(key)
        parent = self._stack[-1][4] if self._stack else -1
        index = len(self.spans)
        if self.record_spans:
            self.spans.append((layer, 0.0, 0.0, parent))
        # layer, start, solves and validations so far, span index, child time
        frame = [layer, 0.0, c["powerflow.solve.calls"],
                 c["environment.validate_joint.calls"], index, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        layer, start, solves, validates, index, children = frame
        self._stack.pop()
        duration = end - start
        c, s = self.counts, self.seconds
        s[layer + ".s"] += duration
        s[layer + ".self_s"] += duration - children
        if self._stack:
            self._stack[-1][5] += duration
        inner_solves = c["powerflow.solve.calls"] - solves
        inner_validates = c["environment.validate_joint.calls"] - validates
        if layer == "environment.validate_joint":
            c["environment.memo.hits" if inner_solves == 0 else "environment.memo.misses"] += 1
        elif layer == "masking.explore_joint":
            c["masking.explore_joint.resamples"] += inner_validates - 1
        elif layer == "masking.exploit_joint":
            c["masking.exploit_joint.demotions"] += inner_validates - 1
        elif layer == "oracle.brute_force":
            c["oracle.brute_force.solves"] += inner_solves
        if self.record_spans:
            self.spans[index] = (layer, start, end, self.spans[index][3])

    # -- report ---------------------------------------------------------------------

    def unhooked(self) -> list[str]:
        """Layers of ``HOOKS`` whose call-site name was not found."""
        return sorted({layer for layer, _, _ in HOOKS} - self.hooked)

    def round_counts(self) -> dict[str, int]:
        """Every count metric of this round (0 when its layer did not run)."""
        return {
            name: int(self.counts[name])
            for name, (_, unit) in METRICS.items() if unit == "count"
        }

    def round_seconds(self) -> dict[str, float]:
        """Every time metric of this round (0.0 when its layer did not run)."""
        return {
            name: float(self.seconds[name])
            for name, (_, unit) in METRICS.items() if unit == "s"
        }
