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
    Gray-code order with precomputed load-energization path masks and a sound
    capacity pre-screen (a configuration whose topological served power
    already exceeds total generation cannot satisfy the power balance, since
    losses are non-negative). Identical results, far fewer solves.
``decomposed``
    Per-island enumeration (see ``powerflow.islands``), exact on any feeder.
    No line joins two islands, so a state is feasible exactly when each
    island's sub-state is, weighted power is the sum over islands, and the
    optimum, feasible count and tie-breaks all decompose: 2^10 + 2^5 + 2^3 +
    2^3 + 2^5 island solves instead of 2^26 on the 123-node study feeder.

``auto`` picks ``decomposed`` when the feeder has two or more islands, else
``gray``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass

from .feeder import Feeder, feeder_hash
from .powerflow import _network_index, check_constraints, islands, solve

MAX_BREAKERS = 26


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


def _key(weighted: float, states: tuple[int, ...]):
    # Total order: maximize weighted, then fewest closed, then smallest vector.
    return (-weighted, sum(states), states)


def _evaluate(feeder: Feeder, states: tuple[int, ...]):
    solution = solve(feeder, states)
    report = check_constraints(feeder, solution)
    return report.all_ok, solution.served_weighted_kw, solution.served_load_kw


def gray_states(n_bits: int):
    """All n-bit state tuples in reflected-Gray order (one flip per step)."""
    state = [0] * n_bits
    yield tuple(state)
    for i in range(1, 2 ** n_bits):
        # Flip the bit at the position of the lowest set bit of i.
        flip = (i & -i).bit_length() - 1
        state[flip] ^= 1
        yield tuple(state)


def _load_path_masks(feeder: Feeder) -> list[list[int]]:
    """Per load: bitmasks of breakers on its path to each reachable generator."""
    idx = _network_index(feeder)
    line_breaker_mask = [0] * len(idx.line_ids)
    for li, brks in enumerate(idx.line_breakers):
        for bi in brks:
            line_breaker_mask[li] |= 1 << bi
    masks: list[list[int]] = [[] for _ in feeder.loads]
    for g in feeder.generators:
        # Parent pointers from this generator over the full-closure forest.
        root = idx.bus_pos[g.bus_id]
        parent_line = {root: -1}
        parent_bus = {root: -1}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for li, v in idx.adjacency[u]:
                if v not in parent_line:
                    parent_line[v] = li
                    parent_bus[v] = u
                    queue.append(v)
        for k, ld in enumerate(feeder.loads):
            b = idx.bus_pos[ld.bus_id]
            if b not in parent_line:
                continue
            mask = 0
            while parent_line[b] != -1:
                mask |= line_breaker_mask[parent_line[b]]
                b = parent_bus[b]
            masks[k].append(mask)
    return masks


def _served_by_mask(feeder: Feeder, path_masks, closed_mask: int):
    served_p = served_w = 0.0
    for ld, masks in zip(feeder.loads, path_masks):
        for m in masks:
            if closed_mask & m == m:
                served_p += ld.p_rated
                served_w += ld.p_rated * ld.weight
                break
    return served_p, served_w


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
    return OracleResult(best[1], best[2], best[3], feasible, total, "naive")


def _brute_force_gray(feeder: Feeder) -> OracleResult:
    n = feeder.n_breakers
    capacity = feeder.total_capacity_kw()
    path_masks = _load_path_masks(feeder)
    best = None
    feasible = 0
    closed_mask = 0
    for states in gray_states(n):
        closed_mask = 0
        for b, s in enumerate(states):
            closed_mask |= s << b
        served_p, weighted = _served_by_mask(feeder, path_masks, closed_mask)
        if served_p > capacity + 1e-6:
            continue  # (1b) must fail: losses are non-negative
        ok, weighted, served = _evaluate(feeder, states)
        if ok:
            feasible += 1
            k = _key(weighted, states)
            if best is None or k < best[0]:
                best = (k, states, weighted, served)
    if best is None:
        raise RuntimeError("no feasible configuration (not even all-open)")
    return OracleResult(best[1], best[2], best[3], feasible, 2 ** n, "gray")


def decomposed_optimum(feeder: Feeder) -> OracleResult:
    """Exact optimum via enumeration of each island's sub-feeder on its own."""
    best_states = [0] * feeder.n_breakers
    total_weighted = total_served = 0.0
    feasible_product = 1
    for k, (positions, sub) in enumerate(islands(feeder)):
        best, feasible = _enumerate_range(sub, 0, 2 ** len(positions))
        if best is None:
            raise RuntimeError(f"island {k} has no feasible configuration")
        feasible_product *= feasible
        for pos, bit in zip(positions, best[1]):
            best_states[pos] = bit
        total_weighted += best[2]
        total_served += best[3]
    return OracleResult(
        tuple(best_states),
        total_weighted,
        total_served,
        feasible_product,
        2 ** feeder.n_breakers,
        "decomposed",
    )


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
    )
