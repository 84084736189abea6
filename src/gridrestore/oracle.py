"""Exhaustive ground truth for the restoration objective.

Enumerates breaker configurations, keeps those whose power flow satisfies
every operating constraint, and returns the maximum weighted restored power.
Ties are broken by fewer closed breakers, then by lexicographically smallest
state vector, which makes the result independent of enumeration order.

Three interchangeable strategies:

``naive``
    Plain binary-order enumeration, one full solve per configuration. The
    reference semantics.
``gray``
    Gray-code order with a sound capacity pre-screen on the solver's
    energization masks (a configuration whose topological served power
    already exceeds total generation cannot satisfy the power balance, since
    losses are non-negative); the rest are solved in batches. Identical
    results, fewer solves.
``decomposed``
    Per-island enumeration (see ``powerflow.islands``), exact on any feeder.
    No line joins two islands, so a state is feasible exactly when each
    island's sub-state is, weighted power is the sum over islands, and the
    optimum, feasible count and tie-breaks all decompose: 2^10 + 2^5 + 2^3 +
    2^3 + 2^5 island sub-states instead of 2^26 on the 123-node study feeder,
    each island's solved in a few batched calls of ``powerflow.solve_batch``.

``evaluated_count`` is always 2^B, the configurations the result covers;
``solved_count`` is how many power flows were actually run.

``auto`` picks ``decomposed`` when the feeder has two or more islands, else
``gray``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from .feeder import Feeder, feeder_hash
from .powerflow import _restored, check_constraints, islands, solve, solve_batch

MAX_BREAKERS = 26
_BATCH_CELLS = 4096  # rows x buses per batched solve: about 1 MB of sweep arrays


class TooManyBreakers(ValueError):
    """The feeder exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class OracleResult:
    best_states: tuple[int, ...]
    best_weighted_kw: float
    best_served_kw: float
    feasible_count: int
    evaluated_count: int
    method: str
    solved_count: int


def _key(weighted: float, states: tuple[int, ...]):
    # Total order: maximize weighted, then fewest closed, then smallest vector.
    return (-weighted, sum(states), states)


def _evaluate(feeder: Feeder, states: tuple[int, ...]):
    solution = solve(feeder, states)
    report = check_constraints(feeder, solution)
    return report.all_ok, solution.served_weighted_kw, solution.served_load_kw


def _enumerate_range(feeder: Feeder, start: int, stop: int):
    """Naive-order evaluation of configurations start..stop-1 (by index)."""
    n = feeder.n_breakers
    best = None
    feasible = 0
    for i in range(start, stop):
        states = tuple((i >> b) & 1 for b in range(n))
        ok, weighted, served = _evaluate(feeder, states)
        if ok:
            feasible += 1
            k = _key(weighted, states)
            if best is None or k < best[0]:
                best = (k, states, weighted, served)
    return best, feasible


def _enumerate_batches(feeder: Feeder, gray: bool = False):
    """(best, feasible count, solved count) over all 2^B configurations,
    solved in batches of at most ``_BATCH_CELLS`` rows x buses.

    With ``gray``: Gray order and a capacity pre-screen, which skips any
    configuration whose topological served power already exceeds total
    generation (it must fail the power balance: losses are non-negative).
    """
    n, capacity = feeder.n_breakers, feeder.total_capacity_kw()
    step = max(1, _BATCH_CELLS // len(feeder.buses))
    best, feasible, solved = None, 0, 0
    for lo in range(0, 2 ** n, step):
        i = np.arange(lo, min(lo + step, 2 ** n))
        rows = ((i ^ (i >> 1) if gray else i)[:, None] >> np.arange(n)) & 1
        if gray:
            rows = rows[~(_restored(feeder, rows)[0] > capacity + 1e-6)]
        verdicts = solve_batch(feeder, rows)
        ok, weighted = verdicts.feasible, verdicts.weighted_kw
        feasible, solved = feasible + int(ok.sum()), solved + len(rows)
        if ok.any():
            top = weighted[ok].max()
            for j in np.flatnonzero(ok & (weighted == top)):
                states = tuple(rows[j].tolist())
                k = _key(float(top), states)
                if best is None or k < best[0]:
                    best = (k, states, float(top), float(verdicts.served_kw[j]))
    return best, feasible, solved


def _brute_force_naive(feeder: Feeder, workers: int = 1) -> OracleResult:
    n = feeder.n_breakers
    total = 2 ** n
    if workers <= 1:
        best, feasible = _enumerate_range(feeder, 0, total)
    else:
        chunk = (total + workers - 1) // workers
        ranges = [(feeder, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.starmap(_enumerate_range, ranges)
        best, feasible = None, 0
        for b, f in parts:
            feasible += f
            if b is not None and (best is None or b[0] < best[0]):
                best = b
    if best is None:
        raise RuntimeError("no feasible configuration (not even all-open)")
    return OracleResult(best[1], best[2], best[3], feasible, total, "naive", total)


def _brute_force_gray(feeder: Feeder) -> OracleResult:
    best, feasible, solved = _enumerate_batches(feeder, gray=True)
    if best is None:
        raise RuntimeError("no feasible configuration (not even all-open)")
    return OracleResult(best[1], best[2], best[3], feasible, 2 ** feeder.n_breakers, "gray", solved)


def decomposed_optimum(feeder: Feeder) -> OracleResult:
    """Exact optimum via enumeration of each island's sub-feeder on its own."""
    best_states = [0] * feeder.n_breakers
    total_weighted = total_served = 0.0
    feasible_product, solved_total = 1, 0
    for k, (positions, sub) in enumerate(islands(feeder)):
        best, feasible, solved = _enumerate_batches(sub)
        if best is None:
            raise RuntimeError(f"island {k} has no feasible configuration")
        feasible_product *= feasible
        solved_total += solved
        for pos, bit in zip(positions, best[1]):
            best_states[pos] = bit
        total_weighted += best[2]
        total_served += best[3]
    return OracleResult(tuple(best_states), total_weighted, total_served, feasible_product,
                        2 ** feeder.n_breakers, "decomposed", solved_total)


def brute_force(feeder: Feeder, method: str = "auto", workers: int = 1) -> OracleResult:
    """Feasible maximizer of weighted restored power over all 2^B states."""
    if feeder.n_breakers > MAX_BREAKERS:
        raise TooManyBreakers(
            f"{feeder.n_breakers} breakers exceeds the {MAX_BREAKERS}-breaker cap"
        )
    if method == "auto":
        method = "decomposed" if len(islands(feeder)) >= 2 else "gray"
    if method == "naive":
        return _brute_force_naive(feeder, workers=workers)
    if method == "gray":
        return _brute_force_gray(feeder)
    if method == "decomposed":
        return decomposed_optimum(feeder)
    raise ValueError(f"unknown oracle method {method!r}")


# -- result cache ----------------------------------------------------------------


def save_result(path, feeder: Feeder, result: OracleResult) -> None:
    doc = {
        "format_version": 1,
        "feeder_hash": feeder_hash(feeder),
        "best_states": list(result.best_states),
        "best_weighted_kw": result.best_weighted_kw,
        "best_served_kw": result.best_served_kw,
        "feasible_count": result.feasible_count,
        "evaluated_count": result.evaluated_count,
        "method": result.method,
        "solved_count": result.solved_count,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_result(path, feeder: Feeder | None = None) -> OracleResult | None:
    """Load a cached oracle result; None if missing or for another feeder."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if feeder is not None and doc.get("feeder_hash") != feeder_hash(feeder):
        return None
    return OracleResult(
        tuple(int(s) for s in doc["best_states"]),
        float(doc["best_weighted_kw"]),
        float(doc["best_served_kw"]),
        int(doc["feasible_count"]),
        int(doc["evaluated_count"]),
        str(doc.get("method", "cached")),
        int(doc.get("solved_count", doc["evaluated_count"])),
    )
