"""Exhaustive ground truth for the restoration objective.

Enumerates breaker configurations, keeps those whose power flow satisfies
every operating constraint, and returns the maximum weighted restored power.
Ties are broken by fewer closed breakers, then by lexicographically smallest
state vector, which makes the result independent of enumeration order.

Two strategies:

``naive``
    Plain binary-order enumeration, one full solve per configuration. The
    reference semantics.
``decomposed``
    Per-island enumeration (see ``powerflow.islands``), exact on any feeder.
    No line joins two islands, so a state is feasible exactly when each
    island's sub-state is, weighted power is the sum over islands, and the
    optimum, feasible count and tie-breaks all decompose: 2^10 + 2^5 + 2^3 +
    2^3 + 2^5 island sub-states instead of 2^26 on the 123-node study feeder.
    Each island's pages (``powerflow.page_states``, the environment's verdict
    pages) are solved one ``powerflow.solve_batch`` call each and not kept.

``evaluated_count`` is always 2^B, the configurations the result covers;
``solved_count`` is how many power flows were actually run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .feeder import Feeder, feeder_hash
from .powerflow import check_constraints, islands, page_states, solve, solve_batch

MAX_BREAKERS = 26  # per island for ``decomposed``, per feeder for ``naive``


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


def _brute_force_naive(feeder: Feeder) -> OracleResult:
    n = feeder.n_breakers
    if n > MAX_BREAKERS:
        raise TooManyBreakers(f"{n} breakers exceeds the {MAX_BREAKERS}-breaker cap")
    total = 2 ** n
    best, feasible = None, 0
    for i in range(total):
        states = tuple((i >> b) & 1 for b in range(n))
        solution = solve(feeder, states)
        if check_constraints(feeder, solution).all_ok:
            feasible += 1
            weighted = solution.served_weighted_kw
            k = _key(weighted, states)
            if best is None or k < best[0]:
                best = (k, states, weighted, solution.served_load_kw)
    if best is None:
        raise RuntimeError("no feasible configuration (not even all-open)")
    return OracleResult(best[1], best[2], best[3], feasible, total, "naive", total)


def decomposed_optimum(feeder: Feeder) -> OracleResult:
    """Exact optimum via enumeration of each island's sub-feeder on its own,
    one ``solve_batch`` call per page of the island."""
    for _, sub in islands(feeder):
        if sub.n_breakers > MAX_BREAKERS:
            raise TooManyBreakers(
                f"the island of generators {', '.join(g.id for g in sub.generators)} has "
                f"{sub.n_breakers} breakers, over the {MAX_BREAKERS}-breaker cap"
            )
    best_states = [0] * feeder.n_breakers
    total_weighted = total_served = 0.0
    feasible_product, solved = 1, 0
    for k, (positions, sub) in enumerate(islands(feeder)):
        best, feasible = None, 0
        page = 0
        while len(rows := page_states(sub, page)):  # to the first page past 2^n
            page += 1
            verdicts = solve_batch(sub, rows)
            ok, weighted = verdicts.feasible, verdicts.weighted_kw
            feasible, solved = feasible + int(ok.sum()), solved + len(rows)
            if ok.any():
                top = weighted[ok].max()
                for j in np.flatnonzero(ok & (weighted == top)):
                    states = tuple(rows[j].tolist())
                    key = _key(float(top), states)
                    if best is None or key < best[0]:
                        best = (key, states, float(top), float(verdicts.served_kw[j]))
        if best is None:
            raise RuntimeError(f"island {k} has no feasible configuration")
        feasible_product *= feasible
        for pos, bit in zip(positions, best[1]):
            best_states[pos] = bit
        total_weighted += best[2]
        total_served += best[3]
    return OracleResult(tuple(best_states), total_weighted, total_served, feasible_product,
                        2 ** feeder.n_breakers, "decomposed", solved)


def brute_force(feeder: Feeder, method: str = "decomposed") -> OracleResult:
    """Feasible maximizer of weighted restored power over all 2^B states."""
    if method == "naive":
        return _brute_force_naive(feeder)
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
    """Load a cached oracle result; None if missing, malformed or for another feeder.
    Counts must be JSON integers, states 0s and 1s, one per breaker of ``feeder``, kW
    values finite, non-negative numbers, and a ``method``, if given, naive or decomposed."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or (
            feeder is not None and doc.get("feeder_hash") != feeder_hash(feeder)):
        return None
    try:
        states, counts = doc["best_states"], [doc["feasible_count"], doc["evaluated_count"]]
        counts.append(doc.get("solved_count", counts[1]))
        kws, method = [doc["best_weighted_kw"], doc["best_served_kw"]], doc.get("method", "cached")
        if (type(states) is not list or any(type(v) is not int for v in states + counts)
                or any(type(v) not in (int, float) or not 0 <= v < float("inf") for v in kws)
                or "method" in doc and method not in ("naive", "decomposed")
                or not set(states) <= {0, 1}
                or feeder is not None and len(states) != feeder.n_breakers):
            return None
        return OracleResult(tuple(states), *map(float, kws), *counts[:2], method, counts[2])
    except (KeyError, TypeError, ValueError, OverflowError):  # a field of the wrong type
        return None
