"""Steady-state power flow on the energized part of a switchable radial feeder.

The solver is a backward/forward sweep with current summation. For a given
breaker-state vector it determines the conducting sub-forest, finds the
islands that contain generation, and iterates

    backward:  branch currents from summed bus currents I = conj(S / V)
    forward:   bus voltages from the island root, V_child = V_parent - Z I

to a fixed point (max per-iteration voltage change < 1e-6 p.u., at most 100
iterations). Generation is dispatched proportionally to p_max among an
island's generators, each clipped to its box; the island root generator (the
largest by p_max) acts as slack and absorbs the loss residual, so total
generation equals served load plus losses exactly at the fixed point.

De-energized buses report 1.0 p.u. by convention, carry no load, and are
excluded from flows and from the voltage constraint. Divergence never raises;
it is flagged on the solution and counts as failing every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .feeder import Feeder, MicrogridPartition

MAX_ITERATIONS = 100
VOLTAGE_TOLERANCE = 1e-6
_SLACK_KW = 1e-6  # absolute float slack for constraint comparisons


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged (or flagged-divergent) operating point for one breaker state."""

    bus_voltages: dict[str, float]                      # p.u. magnitude per bus
    line_flows: dict[str, tuple[float, float, float]]   # sending-end (kW, kvar, kVA)
    gen_injections: dict[str, tuple[float, float]]      # (kW, kvar) per generator
    energized_buses: frozenset[str]
    total_losses_kw: float
    served_load_kw: float
    served_weighted_kw: float
    converged: bool
    iterations: int

    @property
    def total_generation_kw(self) -> float:
        return sum(p for p, _ in self.gen_injections.values())


@dataclass(frozen=True)
class ConstraintReport:
    """Pass/fail per operating constraint, with the worst offender named."""

    power_balance_ok: bool
    power_balance_margin_kw: float
    voltage_ok: bool
    worst_voltage_bus: str
    worst_voltage: float
    gen_p_ok: bool
    gen_q_ok: bool
    line_s_ok: bool
    worst_line: str
    worst_line_loading: float
    converged: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.converged
            and self.power_balance_ok
            and self.voltage_ok
            and self.gen_p_ok
            and self.gen_q_ok
            and self.line_s_ok
        )


class Island(NamedTuple):
    """One full-closure connected component of a feeder."""

    breakers: tuple[int, ...]  # global breaker positions, ascending
    feeder: Feeder             # the feeder restricted to this component


class _NetworkIndex:
    """Static arrays derived from a feeder, shared by every solve call."""

    def __init__(self, feeder: Feeder):
        self.feeder = feeder
        self.bus_pos = {b.id: i for i, b in enumerate(feeder.buses)}
        self.n_buses = len(feeder.buses)
        self.line_ids = [ln.id for ln in feeder.lines]
        self.line_from = np.array(
            [self.bus_pos[ln.from_bus] for ln in feeder.lines], dtype=np.intp
        )
        self.line_to = np.array(
            [self.bus_pos[ln.to_bus] for ln in feeder.lines], dtype=np.intp
        )
        self.line_z = np.array(
            [complex(ln.resistance, ln.reactance) for ln in feeder.lines]
        )
        self.line_rating_kva = np.array([ln.s_rating for ln in feeder.lines])
        self.line_breakers: list[list[int]] = [[] for _ in feeder.lines]
        line_pos = {lid: i for i, lid in enumerate(self.line_ids)}
        for bi, brk in enumerate(feeder.breakers):
            self.line_breakers[line_pos[brk.line_id]].append(bi)
        self.load_bus = np.array(
            [self.bus_pos[ld.bus_id] for ld in feeder.loads], dtype=np.intp
        )
        self.load_p_kw = np.array([ld.p_rated for ld in feeder.loads])
        self.load_q_kvar = np.array([ld.q_rated for ld in feeder.loads])
        self.load_weight = np.array([ld.weight for ld in feeder.loads])
        self.gen_bus = np.array(
            [self.bus_pos[g.bus_id] for g in feeder.generators], dtype=np.intp
        )
        self.gen_p_max = np.array([g.p_max for g in feeder.generators])
        self.gen_p_min = np.array([g.p_min for g in feeder.generators])
        self.gen_q_max = np.array([g.q_max for g in feeder.generators])
        self.gen_q_min = np.array([g.q_min for g in feeder.generators])
        self.v_min = np.array([b.v_min for b in feeder.buses])
        self.v_max = np.array([b.v_max for b in feeder.buses])
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.n_buses)]
        for li in range(len(feeder.lines)):
            f, t = int(self.line_from[li]), int(self.line_to[li])
            self.adjacency[f].append((li, t))
            self.adjacency[t].append((li, f))

    @cached_property
    def islands(self) -> tuple[Island, ...]:
        feeder = self.feeder
        comp = _components(self, np.ones(len(self.line_ids), dtype=bool)).tolist()
        bus_comp = dict(zip(self.bus_pos, comp))
        line_comp = {ln.id: bus_comp[ln.from_bus] for ln in feeder.lines}
        out = []
        for root in dict.fromkeys(comp):  # components in order of first bus
            positions = tuple(
                i for i, b in enumerate(feeder.breakers) if line_comp[b.line_id] == root
            )
            breakers = tuple(feeder.breakers[i] for i in positions)
            loads = tuple(ld for ld in feeder.loads if bus_comp[ld.bus_id] == root)
            gens = tuple(g for g in feeder.generators if bus_comp[g.bus_id] == root)
            if breakers or loads or gens:
                sub = replace(
                    feeder,
                    buses=tuple(b for b in feeder.buses if bus_comp[b.id] == root),
                    lines=tuple(ln for ln in feeder.lines if line_comp[ln.id] == root),
                    breakers=breakers,
                    loads=loads,
                    generators=gens,
                    partition=MicrogridPartition(
                        (tuple(b.id for b in breakers),) if breakers else ()
                    ),
                )
                out.append(Island(positions, sub))
        return tuple(out)


def _network_index(feeder: Feeder) -> _NetworkIndex:
    # Kept on the feeder object itself: a cache keyed by the frozen feeder
    # would hash every one of its elements on each lookup.
    idx = feeder.__dict__.get("_network_index")
    if idx is None:
        idx = feeder.__dict__["_network_index"] = _NetworkIndex(feeder)
    return idx


def islands(feeder: Feeder) -> tuple[Island, ...]:
    """Full-closure components that hold a breaker, a load or a generator.

    No line joins two islands, so a breaker state is feasible exactly when
    every island's sub-state is, and served power is the sum over islands.
    Computed once per feeder object, in order of each island's first bus.
    """
    return _network_index(feeder).islands


def _conducting(idx: _NetworkIndex, states) -> np.ndarray:
    """Line conducts when every breaker sitting on it is closed."""
    ok = np.ones(len(idx.line_ids), dtype=bool)
    for li, brks in enumerate(idx.line_breakers):
        for bi in brks:
            if not states[bi]:
                ok[li] = False
                break
    return ok


def _components(idx: _NetworkIndex, conducting: np.ndarray) -> np.ndarray:
    parent = np.arange(idx.n_buses)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for li in np.flatnonzero(conducting):
        a, b = find(int(idx.line_from[li])), find(int(idx.line_to[li]))
        if a != b:
            parent[a] = b
    return np.array([find(i) for i in range(idx.n_buses)])


def _served_mask(idx: _NetworkIndex, comp: np.ndarray) -> np.ndarray:
    energized_roots = set(comp[idx.gen_bus].tolist()) if len(idx.gen_bus) else set()
    if not energized_roots:
        return np.zeros(len(idx.load_bus), dtype=bool)
    energized = np.isin(comp, sorted(energized_roots))
    return energized[idx.load_bus] if len(idx.load_bus) else np.zeros(0, dtype=bool)


def restored_power(feeder: Feeder, states) -> tuple[float, float]:
    """Topological restored power: (served kW, weighted served kW).

    A load is served when its bus is connected to a generator through closed
    breakers; no power flow is run.
    """
    idx = _network_index(feeder)
    if len(states) != len(feeder.breakers):
        raise ValueError("breaker-state vector length mismatch")
    comp = _components(idx, _conducting(idx, states))
    served = _served_mask(idx, comp)
    return (
        float(idx.load_p_kw[served].sum()),
        float((idx.load_p_kw * idx.load_weight)[served].sum()),
    )


def solve(feeder: Feeder, states) -> PowerFlowSolution:
    """Backward/forward sweep power flow for one breaker-state vector."""
    idx = _network_index(feeder)
    if len(states) != len(feeder.breakers):
        raise ValueError("breaker-state vector length mismatch")
    s_base = feeder.s_base_kva
    conducting = _conducting(idx, states)
    comp = _components(idx, conducting)
    served = _served_mask(idx, comp)
    gen_roots = sorted(set(comp[idx.gen_bus].tolist())) if len(idx.gen_bus) else []
    energized_bus = (
        np.isin(comp, gen_roots) if gen_roots else np.zeros(idx.n_buses, dtype=bool)
    )

    # Net constant-power load per bus (p.u.).
    s_load = np.zeros(idx.n_buses, dtype=complex)
    for li in np.flatnonzero(served):
        s_load[idx.load_bus[li]] += complex(
            idx.load_p_kw[li], idx.load_q_kvar[li]
        ) / s_base

    served_kw = float(idx.load_p_kw[served].sum())
    served_weighted = float((idx.load_p_kw * idx.load_weight)[served].sum())

    voltages = np.ones(idx.n_buses, dtype=complex)
    line_current = np.zeros(len(idx.line_ids), dtype=complex)
    gen_p = np.zeros(len(idx.gen_bus))  # kW dispatch, root filled at the end
    gen_q = np.zeros(len(idx.gen_bus))

    # Per-island tree structure over conducting lines.
    islands = []
    for root_comp in gen_roots:
        members = np.flatnonzero(comp == root_comp)
        gens = [gi for gi in range(len(idx.gen_bus)) if comp[idx.gen_bus[gi]] == root_comp]
        root_gen = max(gens, key=lambda gi: (idx.gen_p_max[gi], -gi))
        root_bus = int(idx.gen_bus[root_gen])
        order: list[tuple[int, int]] = []  # (bus, line into bus), BFS from root
        seen = {root_bus}
        queue = [root_bus]
        while queue:
            u = queue.pop(0)
            for li, v in idx.adjacency[u]:
                if conducting[li] and v not in seen:
                    seen.add(v)
                    order.append((v, li))
                    queue.append(v)
        islands.append((members, gens, root_gen, root_bus, order))

    converged = not islands  # nothing energized = trivially converged
    iterations = 0
    island_losses = [0.0] * len(islands)  # p.u., fed back into dispatch

    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, MAX_ITERATIONS + 1):
            if not islands:
                break
            # Proportional dispatch, refreshed with the current loss estimate.
            s_inj = np.zeros(idx.n_buses, dtype=complex)
            for k, (members, gens, root_gen, root_bus, order) in enumerate(islands):
                island_p_kw = float(np.real(s_load[members]).sum()) * s_base
                island_q_kvar = float(np.imag(s_load[members]).sum()) * s_base
                p_cap = float(idx.gen_p_max[gens].sum())
                q_cap = float(idx.gen_q_max[gens].sum())
                demand_kw = island_p_kw + island_losses[k] * s_base
                f_p = min(1.0, demand_kw / p_cap) if p_cap > 0 else 0.0
                f_q = min(1.0, island_q_kvar / q_cap) if q_cap > 0 else 0.0
                for gi in gens:
                    if gi == root_gen:
                        continue
                    p = float(np.clip(idx.gen_p_max[gi] * f_p, idx.gen_p_min[gi], idx.gen_p_max[gi]))
                    q = float(np.clip(idx.gen_q_max[gi] * f_q, idx.gen_q_min[gi], idx.gen_q_max[gi]))
                    gen_p[gi], gen_q[gi] = p, q
                    s_inj[idx.gen_bus[gi]] += complex(p, q) / s_base

            max_dv = 0.0
            i_bus = np.conj((s_load - s_inj) / voltages)
            for k, (members, gens, root_gen, root_bus, order) in enumerate(islands):
                # Backward: accumulate branch currents leaf-to-root.
                for bus, li in reversed(order):
                    line_current[li] = i_bus[bus]
                    up = int(idx.line_from[li])
                    if up == bus:
                        up = int(idx.line_to[li])
                    i_bus[up] += i_bus[bus]
                # Forward: update voltages root-to-leaf.
                max_dv = max(max_dv, abs(voltages[root_bus] - 1.0))
                voltages[root_bus] = 1.0
                loss_k = 0.0
                for bus, li in order:
                    up = int(idx.line_from[li])
                    if up == bus:
                        up = int(idx.line_to[li])
                    new_v = voltages[up] - idx.line_z[li] * line_current[li]
                    max_dv = max(max_dv, abs(new_v - voltages[bus]))
                    voltages[bus] = new_v
                    loss_k += idx.line_z[li].real * abs(line_current[li]) ** 2
                island_losses[k] = loss_k
            if not np.all(np.isfinite(voltages)):
                converged = False
                break
            if max_dv < VOLTAGE_TOLERANCE:
                converged = True
                break
    losses_pu = sum(island_losses)

    with np.errstate(invalid="ignore"):
        # Root (slack) generator injections from the converged flows.
        for members, gens, root_gen, root_bus, order in islands:
            s_out = 0.0 + 0.0j
            for bus, li in order:
                up = int(idx.line_from[li])
                if up == bus:
                    up = int(idx.line_to[li])
                if up == root_bus:
                    s_out += voltages[root_bus] * np.conj(line_current[li])
            s_slack = s_out + s_load[root_bus]
            for gi in gens:
                if gi != root_gen and int(idx.gen_bus[gi]) == root_bus:
                    s_slack -= complex(gen_p[gi], gen_q[gi]) / s_base
            gen_p[root_gen] = s_slack.real * s_base
            gen_q[root_gen] = s_slack.imag * s_base

        bus_voltage = {
            b.id: (float(abs(voltages[i])) if energized_bus[i] else 1.0)
            for i, b in enumerate(feeder.buses)
        }
        flows: dict[str, tuple[float, float, float]] = {}
        for members, gens, root_gen, root_bus, order in islands:
            for bus, li in order:
                up = int(idx.line_from[li])
                if up == bus:
                    up = int(idx.line_to[li])
                s_send = voltages[up] * np.conj(line_current[li]) * s_base
                flows[idx.line_ids[li]] = (
                    float(s_send.real),
                    float(s_send.imag),
                    float(abs(s_send)),
                )
    injections = {
        g.id: (float(gen_p[gi]), float(gen_q[gi]))
        for gi, g in enumerate(feeder.generators)
    }
    energized_ids = frozenset(
        b.id for i, b in enumerate(feeder.buses) if energized_bus[i]
    )
    return PowerFlowSolution(
        bus_voltages=bus_voltage,
        line_flows=flows,
        gen_injections=injections,
        energized_buses=energized_ids,
        total_losses_kw=float(losses_pu * s_base) if gen_roots else 0.0,
        served_load_kw=served_kw,
        served_weighted_kw=served_weighted,
        converged=bool(converged),
        iterations=iterations,
    )


def check_constraints(feeder: Feeder, solution: PowerFlowSolution) -> ConstraintReport:
    """Evaluate the operating constraints against a solved state.

    Divergence fails everything. De-energized buses and generators are exempt
    from the voltage and injection-box checks (they are not operating).
    """
    idx = _network_index(feeder)
    if not solution.converged:
        return ConstraintReport(
            power_balance_ok=False,
            power_balance_margin_kw=float("-inf"),
            voltage_ok=False,
            worst_voltage_bus="",
            worst_voltage=float("nan"),
            gen_p_ok=False,
            gen_q_ok=False,
            line_s_ok=False,
            worst_line="",
            worst_line_loading=float("inf"),
            converged=False,
        )

    capacity = feeder.total_capacity_kw()
    demand = solution.served_load_kw + solution.total_losses_kw
    margin = capacity - demand
    balance_ok = demand <= capacity + _SLACK_KW

    voltage_ok = True
    worst_bus, worst_v, worst_dev = "", 1.0, -1.0
    for b in feeder.buses:
        if b.id not in solution.energized_buses:
            continue
        v = solution.bus_voltages[b.id]
        dev = max(b.v_min - v, v - b.v_max)
        if dev > worst_dev:
            worst_dev, worst_bus, worst_v = dev, b.id, v
        if dev > 1e-9:
            voltage_ok = False

    gen_p_ok = True
    gen_q_ok = True
    energized = solution.energized_buses
    for g in feeder.generators:
        if g.bus_id not in energized:
            continue
        p, q = solution.gen_injections[g.id]
        if not (g.p_min - _SLACK_KW <= p <= g.p_max + _SLACK_KW):
            gen_p_ok = False
        if not (g.q_min - _SLACK_KW <= q <= g.q_max + _SLACK_KW):
            gen_q_ok = False

    line_s_ok = True
    worst_line, worst_loading = "", 0.0
    for li, lid in enumerate(idx.line_ids):
        if lid not in solution.line_flows:
            continue
        s = solution.line_flows[lid][2]
        loading = s / idx.line_rating_kva[li]
        if loading > worst_loading:
            worst_loading, worst_line = loading, lid
        if s > idx.line_rating_kva[li] + _SLACK_KW:
            line_s_ok = False

    return ConstraintReport(
        power_balance_ok=balance_ok,
        power_balance_margin_kw=margin,
        voltage_ok=voltage_ok,
        worst_voltage_bus=worst_bus,
        worst_voltage=worst_v,
        gen_p_ok=gen_p_ok,
        gen_q_ok=gen_q_ok,
        line_s_ok=line_s_ok,
        worst_line=worst_line,
        worst_line_loading=worst_loading,
        converged=True,
    )
