"""Steady-state power flow on the energized part of a switchable radial feeder.

The solver is a backward/forward sweep with current summation, written in the
path-matrix (BIBC/BCBV) form of Teng, "A direct approach for distribution
system load flow solutions" (IEEE Trans. Power Delivery, 2003). For each
generator r, the full-closure tree rooted at r gives a path matrix A_r (buses
x lines) with A_r[b, l] = 1 when line l lies on the path from r to bus b, and
P_r = LB @ A_r.T (breakers x buses) counts the lines on that path carrying
each breaker (LB: breaker-by-line incidence). P_r comes from the tree walk
alone. A sweep builds A_r.T once, as a real C-contiguous (lines, buses)
matrix, and reads A_r as its view. A batch of breaker-state rows is solved at
once, bus-major (one column per row):

    energized buses:  reach_r = ((1 - bits) @ P_r == 0) & in_tree_r
    bus loads:        S = energized * S_bus       (S_bus: each bus's loads, summed)
    backward:         I = A_r.T @ (conj(S / V) * reach_r)
    forward:          V = 1 - A_r @ (z * I)

iterated to a fixed point (max per-iteration voltage change < 1e-6 p.u., at
most 100 iterations). Read as floats, a complex (buses, rows) array is a real
(buses, 2 rows) one, so each path product is one real matrix product. The
order-free reductions over buses (all, max) run bus-major; each row's losses
over lines and dispatch demand over buses, pairwise sums whose order sets the
bits, are taken row-major, in a one-row solve's order. A batch iterates until
its slowest row stops, and each row is read, back in row-major order, from the
arrays of the iteration where it stops. Roots are the generators, largest
p_max first (then lowest index), that no earlier root reaches, so every
energized island is rooted at its largest generator, also where an open
breaker splits a multi-generator island. Generation is dispatched
proportionally to p_max among an island's generators, each clipped to its box;
the root generator acts as slack and absorbs the loss residual, so total
generation equals served load plus losses exactly at the fixed point. A batch
in which every energized island is fed by its root alone skips the dispatch
arrays; its injections are 0.

A page solve (``solve_batch``) does only the work its verdicts read: the
sweep divides by no V at iteration 1, reads finiteness from the max voltage
change and sums each row's losses once, after the loop, from its per-root
currents at its stop; a one-root page with no dispatch skips the reach mask
and owns every energized line; served kW is summed per served-load count,
over one gathered block; the check keeps only each constraint's pass flag.
Every array it keeps equals that of the full evaluation bit for bit.

De-energized buses report 1.0 p.u. by convention, carry no load, and are
excluded from flows and from the voltage constraint. Divergence never raises;
it is flagged on the solution and counts as failing every constraint.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from .feeder import Feeder, MicrogridPartition

MAX_ITERATIONS = 100
VOLTAGE_TOLERANCE = 1e-6
_SLACK_KW = 1e-6  # absolute float slack for constraint comparisons
_BATCH_CELLS = 4096  # rows x buses per batched solve: about 1 MB of sweep arrays


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
    _row: _Sweep | None = field(default=None, repr=False, compare=False)  # solve's own row
    _ids: tuple = field(default=(), repr=False, compare=False)  # its bus, line, generator ids

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


class BatchVerdicts(NamedTuple):
    """Per-row outcome of ``solve_batch``."""

    feasible: np.ndarray     # bool: converged and every constraint holds
    served_kw: np.ndarray
    weighted_kw: np.ndarray
    iterations: np.ndarray


class _Root:
    """The full-closure tree rooted at one generator.

    Its topology comes from the tree walk alone, so ``_reach`` and
    ``restored_power`` never build a path matrix. The first sweep builds the
    one real (lines, buses) matrix its path products read (``paths``).
    """

    def __init__(self, idx: _NetworkIndex, gen: int):
        self.gen = gen
        self.bus = int(idx.gen_bus[gen])
        self.walk = idx.tree(self.bus)  # (bus, line into it, parent bus), breadth first
        self.n_lines = len(idx.line_ids)
        self.in_tree = np.zeros(idx.n_buses, dtype=bool)  # (buses,)
        self.in_tree[self.bus] = True
        counts, line_breakers = np.zeros((idx.n_buses, idx.n_breakers)), idx.breaker_line.T
        for v, li, u in self.walk:
            self.in_tree[v] = True
            counts[v] = counts[u] + line_breakers[li]
        self.on_path = counts.T  # (breakers, buses): the bus's path lines carrying each breaker

    @cached_property
    def paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p_t, up, at_root): A_r.T, filled in place as a real C-contiguous
        (lines, buses) matrix whose row l marks the buses below line l; each
        tree line's end nearer the root; and 1.0 on the lines leaving the root bus."""
        p_t = np.zeros((self.n_lines, len(self.in_tree)))
        up = np.zeros(self.n_lines, dtype=np.intp)
        at_root = np.zeros(self.n_lines)
        into = {v: li for v, li, _ in self.walk}  # the tree line into each bus
        for v, li, u in reversed(self.walk):
            p_t[li, v] = 1.0
            if u in into:
                p_t[into[u]] += p_t[li]  # disjoint subtrees: sums stay 0 or 1
            up[li] = u
            at_root[li] = u == self.bus
        return p_t, up, at_root


class _Sweep(NamedTuple):
    """Per-row arrays of a batched solve (rows x buses, lines or generators)."""

    voltage: np.ndarray    # |V| p.u., 1.0 where de-energized
    energized: np.ndarray  # bool per bus
    served: np.ndarray     # bool per load
    flow: np.ndarray       # complex sending-end kVA, 0 on lines not energized
    line_on: np.ndarray    # bool per line
    gen_p: np.ndarray      # kW
    gen_q: np.ndarray      # kvar
    losses_kw: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


class _NetworkIndex:
    """Static arrays derived from a feeder, shared by every solve call."""

    def __init__(self, feeder: Feeder):
        bus_pos = {b.id: i for i, b in enumerate(feeder.buses)}
        line_pos = {ln.id: i for i, ln in enumerate(feeder.lines)}
        self.s_base = feeder.s_base_kva
        self.capacity_kw = feeder.total_capacity_kw()
        self.n_buses = len(feeder.buses)
        self.n_breakers = len(feeder.breakers)
        self.bus_ids = [b.id for b in feeder.buses]
        self.line_ids = list(line_pos)
        self.gen_ids = [g.id for g in feeder.generators]
        self.line_from = np.array([bus_pos[ln.from_bus] for ln in feeder.lines], dtype=np.intp)
        self.line_to = np.array([bus_pos[ln.to_bus] for ln in feeder.lines], dtype=np.intp)
        self.line_z = np.array([complex(ln.resistance, ln.reactance) for ln in feeder.lines])
        self.line_rating_kva = np.array([ln.s_rating for ln in feeder.lines])
        self.breaker_line = np.zeros((self.n_breakers, len(feeder.lines)))
        for bi, brk in enumerate(feeder.breakers):
            self.breaker_line[bi, line_pos[brk.line_id]] = 1.0
        self.load_bus = np.array([bus_pos[ld.bus_id] for ld in feeder.loads], dtype=np.intp)
        load_p = np.array([ld.p_rated for ld in feeder.loads], dtype=float)
        # (2, loads): rated kW and weighted kW of each load
        self.load_kw = np.stack([load_p, load_p * np.array([ld.weight for ld in feeder.loads])])
        load_s = [complex(ld.p_rated, ld.q_rated) / self.s_base for ld in feeder.loads]
        self.bus_s = np.zeros(self.n_buses, dtype=complex)  # p.u. load per bus, in load order
        np.add.at(self.bus_s, self.load_bus, load_s)  # a bus's loads are served together
        self.gen_bus = np.array([bus_pos[g.bus_id] for g in feeder.generators], dtype=np.intp)
        self.gen_p_max = np.array([g.p_max for g in feeder.generators])
        self.gen_p_min = np.array([g.p_min for g in feeder.generators])
        self.gen_q_max = np.array([g.q_max for g in feeder.generators])
        self.gen_q_min = np.array([g.q_min for g in feeder.generators])
        self.gen_at_bus = np.zeros((len(feeder.generators), self.n_buses), dtype=complex)
        self.gen_at_bus[np.arange(len(feeder.generators)), self.gen_bus] = 1.0
        self.v_min = np.array([b.v_min for b in feeder.buses])
        self.v_max = np.array([b.v_max for b in feeder.buses])
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.n_buses)]
        for li, (f, t) in enumerate(zip(self.line_from.tolist(), self.line_to.tolist())):
            self.adjacency[f].append((li, t))
            self.adjacency[t].append((li, f))
        self.islands: tuple[Island, ...] | None = None
        # Codes per verdict page, fixed here: a later budget reaches new feeders only.
        self.page_rows = max(1, _BATCH_CELLS // max(1, self.n_buses))
        self.pages: dict[int, BatchVerdicts] = {}

    def tree(self, start: int) -> list[tuple[int, int, int]]:
        """(bus, line into it, parent bus) over all lines from ``start``, breadth first."""
        order, seen, queue = [], {start}, [start]
        for u in queue:
            for li, v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    order.append((v, li, u))
                    queue.append(v)
        return order

    @cached_property
    def roots(self) -> tuple[_Root, ...]:
        """One tree per generator, in root order (built at the first solve)."""
        order = sorted(range(len(self.gen_bus)), key=lambda g: (-self.gen_p_max[g], g))
        return tuple(_Root(self, g) for g in order)


_INDEXES: dict[int, _NetworkIndex] = {}


def _network_index(feeder: Feeder) -> _NetworkIndex:
    # Keyed by object identity: hashing the frozen feeder would visit every
    # element on each lookup. The entry goes when the feeder is collected.
    idx = _INDEXES.get(id(feeder))
    if idx is None:
        idx = _INDEXES[id(feeder)] = _NetworkIndex(feeder)
        weakref.finalize(feeder, _INDEXES.pop, id(feeder), None)
    return idx


def islands(feeder: Feeder) -> tuple[Island, ...]:
    """Full-closure components that hold a breaker, a load or a generator.

    No line joins two islands, so a breaker state is feasible exactly when
    every island's sub-state is, and served power is the sum over islands.
    Computed once per feeder object, in order of each island's first bus.
    """
    idx = _network_index(feeder)
    if idx.islands is None:
        comp = [-1] * idx.n_buses
        for start in range(idx.n_buses):
            if comp[start] < 0:
                comp[start] = start
                for v, _, _ in idx.tree(start):
                    comp[v] = start
        bus_comp = dict(zip(idx.bus_ids, comp))
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
        idx.islands = tuple(out)
    return idx.islands


def _closed(idx: _NetworkIndex, states) -> np.ndarray:
    closed = np.asarray(states) != 0
    if closed.ndim != 2 or closed.shape[1] != idx.n_breakers:
        raise ValueError("breaker-state vector length mismatch")
    return closed


def _reach(idx: _NetworkIndex, closed: np.ndarray):
    """Energized buses, and (root, energized-by-it mask) per active root."""
    opened = (~closed).astype(float)
    energized = np.zeros((len(closed), idx.n_buses), dtype=bool)
    reach = []
    for root in idx.roots:
        r = ((opened @ root.on_path) == 0) & root.in_tree  # no open breaker on the path
        r[energized[:, root.bus]] = False  # an earlier, larger root feeds this island
        if r.any():
            energized |= r
            reach.append((root, r))
    return energized, reach


def _served_power(idx: _NetworkIndex, served: np.ndarray):
    """(served kW, weighted kW) per row of a (rows, loads) served mask.

    Bit-identical to ``kw[mask].sum()`` row by row: the kW and weighted kW of
    the k rows serving c > 0 loads are gathered, in load order, into one
    C-ordered (2, k, c) block, whose sums on its last axis add as a 1-D sum
    does. Padding rows to one width would not, as numpy's pairwise summation
    groups values by position from 8 values on; nor would ``kw[:, col]``,
    whose block is not C-ordered.
    """
    count = served.sum(axis=1)
    out = np.zeros((2, len(served)))
    for c in (np.flatnonzero(np.bincount(count)[1:]) + 1).tolist():  # the counts above 0
        rows = np.flatnonzero(count == c)
        col = np.nonzero(served[rows])[1].reshape(len(rows), c)  # each row's loads in load order
        out[:, rows] = idx.load_kw.take(col, axis=1).sum(axis=2)
    return out


def _restored(feeder: Feeder, states):
    """(served kW, weighted kW) per row of a (rows, breakers) state array."""
    idx = _network_index(feeder)
    energized, _ = _reach(idx, _closed(idx, states))
    return _served_power(idx, energized[:, idx.load_bus])


def restored_power(feeder: Feeder, states) -> tuple[float, float]:
    """Topological restored power: (served kW, weighted served kW).

    A load is served when its bus is connected to a generator through closed
    breakers; no power flow is run.
    """
    served, weighted = _restored(feeder, [states])
    return float(served[0]), float(weighted[0])


def _sweep(idx: _NetworkIndex, closed: np.ndarray) -> _Sweep:
    """Batched backward/forward sweep over (rows, breakers) closed masks."""
    s_base, z = idx.s_base, idx.line_z[:, None]  # (lines, 1)
    rows, n_gens = len(closed), len(idx.gen_bus)
    energized, reach = _reach(idx, closed)
    served = energized[:, idx.load_bus]
    s_load = np.multiply(energized.T, idx.bus_s[:, None], order="C")  # (buses, rows) p.u.
    slack = np.zeros((rows, n_gens), dtype=bool)
    for root, r in reach:
        slack[:, root.gen] = r[:, root.bus]
    # Some generator follows a proportional share. Else every injection but
    # the roots' is 0, and the sweep skips the dispatch arrays.
    dispatch = not slack.all()
    gen_p, gen_q = np.zeros((rows, n_gens)), np.zeros((rows, n_gens))
    shares = []  # per root when dispatching: member generators, island demand kW and p_max
    if dispatch:
        for _, r in reach:
            member = r[:, idx.gen_bus]
            demand = np.multiply(s_load.T, r, order="C").sum(axis=1)
            q_cap = member @ idx.gen_q_max
            with np.errstate(divide="ignore", invalid="ignore"):
                f_q = np.where(q_cap > 0, np.minimum(1.0, demand.imag * s_base / q_cap), 0.0)
            gen_q = np.where(member, f_q[:, None], gen_q)  # the share, boxed below
            shares.append((member, demand.real * s_base, member @ idx.gen_p_max))
        box = np.minimum(np.maximum(idx.gen_q_max * gen_q, idx.gen_q_min), idx.gen_q_max)
        gen_q = np.where(slack, 0.0, box)  # reactive shares do not read the loss estimate
    lean = len(reach) == 1 and not dispatch  # no load off the reach; every line on is the root's

    def branch_loss(i_k):  # p.u. per row of (..., rows, lines) currents, summed row-major
        return (idx.line_z.real * np.abs(i_k, order="C") ** 2).sum(axis=-1)

    voltage = np.empty((rows, idx.n_buses), dtype=complex)  # each row set at its stop
    currents = np.zeros((len(reach), rows, len(z)), dtype=complex)  # per root
    s_inj = np.zeros((rows, idx.n_buses), dtype=complex) if dispatch else None
    iterations, converged = np.zeros(rows, dtype=int), np.zeros(rows, dtype=bool)
    sweeps = [(root.paths[0], r.T.copy()) for root, r in reach]
    # The page runs, bus-major, until its slowest row stops; each row's outputs and the
    # per-root currents its losses are summed from are taken at the iteration it stops.
    running, i_ks, v = np.ones(rows, bool), [], np.ones_like(s_load)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, MAX_ITERATIONS + 1 if rows else 1):  # an empty page runs none
            i_bus = s_load
            if dispatch:  # real shares, refreshed with the last iteration's losses
                fp = np.zeros_like(gen_p)
                for k, (member, demand_kw, p_cap) in enumerate(shares):
                    loss_kw = branch_loss(i_ks[k].T) * s_base if i_ks else 0.0
                    f_p = np.minimum(1.0, (demand_kw + loss_kw) / p_cap)
                    fp = np.where(member, np.where(p_cap > 0, f_p, 0.0)[:, None], fp)
                box = np.minimum(np.maximum(idx.gen_p_max * fp, idx.gen_p_min), idx.gen_p_max)
                p = np.where(slack, 0.0, box)
                inj = ((p + 1j * gen_q) / s_base) @ idx.gen_at_bus
                i_bus = s_load - inj.T
            i_bus = np.conj(i_bus if it == 1 else i_bus / v)  # v is all ones at iteration 1
            v_new, i_ks = v, []
            for p_t, r in sweeps:  # backward, then forward
                i_k = (p_t @ (i_bus if lean else i_bus * r).view(float)).view(complex)
                v_new = np.where(r, 1.0 - (p_t.T @ (z * i_k).view(float)).view(complex), v_new)
                i_ks.append(i_k)
            # A running row's v is finite: only a non-finite max change needs a bus-by-bus check.
            change = np.abs(v_new - v).max(axis=0, initial=0.0)
            done, diverged = change < VOLTAGE_TOLERANCE, running & ~np.isfinite(change)
            if diverged.any():
                diverged[diverged] = ~np.isfinite(v_new[:, diverged]).all(axis=0)
                if lean and diverged.any():  # a non-finite current: take the masked product's nans
                    i_ks = [(p_t @ (i_bus * r).view(float)).view(complex)]
                    v_new = np.where(r, 1.0 - (p_t.T @ (z * i_ks[0]).view(float)).view(complex), v)
            stop = running & (done | diverged | (it == MAX_ITERATIONS))
            if stop.any():
                voltage[stop], iterations[stop], converged[stop] = v_new[:, stop].T, it, done[stop]
                for k, i_k in enumerate(i_ks):
                    currents[k, stop] = i_k[:, stop].T
                if dispatch:
                    s_inj[stop], gen_p[stop] = inj[stop], p[stop]
                running &= ~stop
                if not running.any():
                    break
            v = v_new
        v = v_new = i_bus = i_k = i_ks = None  # released, so the flows reuse their memory
        losses = branch_loss(currents)
        current = currents.sum(axis=0, initial=0)  # added root by root onto 0, as they stop

        # Root (slack) injections and sending-end flows from the final sweep.
        line_on = (((~closed) @ idx.breaker_line) == 0) & energized[:, idx.line_from]
        flow, conj_i = np.zeros_like(current), np.conj(current)
        for root, r in reach:
            _, up, at_root = root.paths
            owned = line_on if lean else line_on & r[:, idx.line_from]
            flow = np.where(owned, voltage[:, up] * conj_i * s_base, flow)
            s_root = conj_i @ at_root + s_load[root.bus] - (s_inj[:, root.bus] if dispatch else 0)
            rooted = r[:, root.bus]
            gen_p[rooted, root.gen] = s_root.real[rooted] * s_base
            gen_q[rooted, root.gen] = s_root.imag[rooted] * s_base
    return _Sweep(np.where(energized, np.abs(voltage), 1.0), energized, served, flow, line_on,
                  gen_p, gen_q, losses.sum(axis=0) * s_base, converged, iterations)


def _worst(key: np.ndarray, floor: float, shown: np.ndarray, default: float):
    """The first position whose key is largest and above ``floor`` (-1 if
    none), and ``shown`` there (``default`` if none), for one row."""
    col = int(key.argmax()) if key.size else -1
    return (col, shown[col].item()) if col >= 0 and key[col] > floor else (-1, default)


def _checks(idx: _NetworkIndex, sw: _Sweep, served_kw: np.ndarray):
    """Every operating constraint of every row, evaluated once in array form.

    Returns all_ok, the pass flag of each constraint, and the demand (kW),
    voltage deviations (p.u.) and line |S| (kVA) that ``check_constraints``
    reads its margin and worst offenders from.
    """
    demand = served_kw + sw.losses_kw
    balance_ok = demand <= idx.capacity_kw + _SLACK_KW
    v = sw.voltage
    dev = np.where(sw.energized, np.maximum(idx.v_min - v, v - idx.v_max), -np.inf)
    voltage_ok = ~(dev > 1e-9).any(axis=1)
    gen_off = ~sw.energized[:, idx.gen_bus]
    gen_p_ok = (gen_off | ((idx.gen_p_min - _SLACK_KW <= sw.gen_p)
                           & (sw.gen_p <= idx.gen_p_max + _SLACK_KW))).all(axis=1)
    gen_q_ok = (gen_off | ((idx.gen_q_min - _SLACK_KW <= sw.gen_q)
                           & (sw.gen_q <= idx.gen_q_max + _SLACK_KW))).all(axis=1)
    s = np.abs(sw.flow)
    line_ok = ~(sw.line_on & (s > idx.line_rating_kva + _SLACK_KW)).any(axis=1)
    all_ok = sw.converged & balance_ok & voltage_ok & gen_p_ok & gen_q_ok & line_ok
    return all_ok, (balance_ok, voltage_ok, gen_p_ok, gen_q_ok, line_ok), (demand, dev, s)


def solve_batch(feeder: Feeder, states) -> BatchVerdicts:
    """Solve and check every row of a (rows, breakers) array of states at once.

    The same sweep and constraint evaluation as ``solve`` followed by
    ``check_constraints``, vectorized over rows; no worst offender is sought.
    """
    idx = _network_index(feeder)
    sw = _sweep(idx, _closed(idx, states))
    served, weighted = _served_power(idx, sw.served)
    return BatchVerdicts(_checks(idx, sw, served)[0], served, weighted, sw.iterations)


def page_states(feeder: Feeder, page: int) -> np.ndarray:
    """State rows of the feeder's verdict page ``page``: ``page_rows`` codes
    from ``page * page_rows``, cut at 2^breakers (no rows past the last page);
    bit j of a code is breaker j."""
    n, rows = len(feeder.breakers), _network_index(feeder).page_rows
    codes = np.arange(page * rows, min((page + 1) * rows, 1 << n))
    return (codes[:, None] >> np.arange(n)) & 1


def verdict_lookup(feeder: Feeder):
    """``code -> (feasible, served kW, weighted kW)`` as Python values, bit j of
    ``code`` being breaker j, read from the memo every lookup on the feeder
    object shares: ``solve_batch``'s arrays per ``page_states`` page, solved on a miss."""
    idx = _network_index(feeder)
    pages, rows = idx.pages, idx.page_rows

    def verdict(code: int) -> tuple[bool, float, float]:
        page, row = divmod(code, rows)
        v = pages.get(page) or pages.setdefault(page, solve_batch(feeder, page_states(feeder, page)))
        return v.feasible.item(row), v.served_kw.item(row), v.weighted_kw.item(row)

    return verdict


def solve(feeder: Feeder, states) -> PowerFlowSolution:
    """Backward/forward sweep power flow for one breaker-state vector."""
    idx = _network_index(feeder)
    sw = _sweep(idx, _closed(idx, [states]))
    served, weighted = _served_power(idx, sw.served)
    flows = np.stack([sw.flow.real, sw.flow.imag, np.abs(sw.flow)], axis=-1)[0].tolist()
    return PowerFlowSolution(
        bus_voltages=dict(zip(idx.bus_ids, sw.voltage[0].tolist())),
        line_flows={lid: tuple(f) for lid, f in compress(zip(idx.line_ids, flows), sw.line_on[0])},
        gen_injections=dict(zip(idx.gen_ids, zip(sw.gen_p[0].tolist(), sw.gen_q[0].tolist()))),
        energized_buses=frozenset(compress(idx.bus_ids, sw.energized[0])),
        total_losses_kw=float(sw.losses_kw[0]),
        served_load_kw=float(served[0]),
        served_weighted_kw=float(weighted[0]),
        converged=bool(sw.converged[0]),
        iterations=int(sw.iterations[0]),
        _row=sw,
        _ids=(idx.bus_ids, idx.line_ids, idx.gen_ids),
    )


_DIVERGED = ConstraintReport(
    False, float("-inf"), False, "", float("nan"), False, False, False, "", float("inf"), False
)


def check_constraints(feeder: Feeder, solution: PowerFlowSolution) -> ConstraintReport:
    """Evaluate the operating constraints at the row ``solve`` kept on the
    solution, against the limits of ``feeder``, which must have the solution's
    bus, line and generator ids; edits to its dicts do not count. Divergence
    fails everything. De-energized buses and generators are exempt from the
    voltage and injection-box checks (they are not operating).
    """
    if solution._row is None:
        raise ValueError("check_constraints needs a PowerFlowSolution made by solve")
    idx = _network_index(feeder)
    for kind, solved, own in zip(("bus", "line", "generator"), solution._ids,
                                 (idx.bus_ids, idx.line_ids, idx.gen_ids)):
        if solved != own:
            raise ValueError(f"the solution's {kind} ids are not those of feeder {feeder.name!r}")
    if not solution.converged:
        return _DIVERGED
    return _report(idx, solution._row, solution.served_load_kw)


def _report(idx: _NetworkIndex, sw: _Sweep, served_kw: float) -> ConstraintReport:
    """The report of a converged one-row sweep, with its margin and worst offenders."""
    _, oks, (demand, dev, s) = _checks(idx, sw, np.array([served_kw]))
    with np.errstate(divide="ignore", invalid="ignore"):
        loading = np.where(sw.line_on[0], s[0] / idx.line_rating_kva, -np.inf)
    bus, v_worst = _worst(dev[0], -1.0, sw.voltage[0], 1.0)
    line, worst_loading = _worst(loading, 0.0, loading, 0.0)
    balance, v_ok, p_ok, q_ok, s_ok = (ok.item() for ok in oks)
    return ConstraintReport(
        balance, (idx.capacity_kw - demand).item(), v_ok, idx.bus_ids[bus] if bus >= 0 else "",
        v_worst, p_ok, q_ok, s_ok, idx.line_ids[line] if line >= 0 else "", worst_loading, True,
    )
