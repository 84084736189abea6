"""The control timing: a fixed reference loop that calls no program code.

Its work is shaped like the program's: the independent model's dense power
flow on a small fixed feeder of this file's own (topology walk in the
interpreter, complex admittance algebra in small numpy arrays) and a
replay-batch step of a 5-64-64-10 ReLU network. A host that runs slower for
a while slows it about as much as it slows the program. The benchmark times
it between rounds and reports program times in reference seconds: durations
scaled by ``REFERENCE_S`` over the control's measured duration. The loop
runs ``independent.Grid.evaluate``, so a change to that module changes the
scale: measure the baseline again after one.
"""

from __future__ import annotations

import time
from types import SimpleNamespace as NS

import numpy as np

from independent import Grid

REFERENCE_S = 0.1   # control duration, in seconds, that defines the scale

_PASSES = 13
_STATES = ((0, 1, 1, 0, 1), (1, 1, 0, 0, 1), (0, 0, 1, 1, 0), (1, 0, 1, 1, 1))


def _feeder():
    """A 12-bus radial island: a backbone chain with five breakered laterals."""
    buses = [NS(id=f"b{i}", v_min=0.95, v_max=1.05) for i in range(12)]
    lines = [NS(id=f"s{i}", from_bus=f"b{i - 1}", to_bus=f"b{i}", resistance=0.002,
                reactance=0.004, s_rating=3000.0) for i in range(1, 7)]
    lines += [NS(id=f"t{k}", from_bus=f"b{k}", to_bus=f"b{k + 6}", resistance=0.003,
                 reactance=0.006, s_rating=900.0) for k in range(1, 6)]
    return NS(
        s_base_kva=1000.0,
        buses=buses,
        lines=lines,
        breakers=[NS(id=f"cb{k}", line_id=f"t{k}") for k in range(1, 6)],
        loads=[NS(bus_id=f"b{k + 6}", p_rated=150.0 + 40 * k, q_rated=50.0 + 13 * k,
                  weight=1.0) for k in range(1, 6)],
        generators=[NS(bus_id="b0", p_min=0.0, p_max=1000.0, q_min=0.0, q_max=620.0)],
    )


_GRID = Grid(_feeder())


def reference_loop() -> float:
    """Wall seconds of one pass over the fixed reference work."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.3, 0.3, (64, 5))
    w2 = rng.uniform(-0.3, 0.3, (64, 64))
    w3 = rng.uniform(-0.3, 0.3, (10, 64))
    x = rng.integers(0, 2, (32, 5)).astype(float)
    rows = np.arange(32)
    start = time.perf_counter()
    for _ in range(_PASSES):
        for states in _STATES:
            _GRID.evaluate(states)
        for _ in range(60):
            h1 = np.maximum(x @ w1.T, 0.0)
            h2 = np.maximum(h1 @ w2.T, 0.0)
            out = h2 @ w3.T
            d = np.zeros_like(out)
            d[rows, 3] = out[:, 3] * 0.01
            d2 = (d @ w3) * (h2 > 0)
            d1 = (d2 @ w2) * (h1 > 0)
            w3 -= 0.01 * (d.T @ h2)
            w2 -= 0.01 * (d2.T @ h1)
            w1 -= 0.01 * (d1.T @ x)
    return time.perf_counter() - start
