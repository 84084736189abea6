"""Feasibility model written apart from the program, used to check its outputs.

Nothing here calls ``gridrestore.powerflow``, the environment or the oracle.
The feeder value is read as plain data. Topology comes from this file's own
breadth-first walk, and each energized island is solved with a dense Z-bus
Gauss fixed point on its bus admittance matrix instead of the program's
backward/forward tree sweep. The modelling rules are the documented ones: a
line conducts when every breaker on it is closed, an island without
generation is dead, generation is dispatched in proportion to ``p_max`` with
the largest generator as slack, and the operating limits are voltage band,
generator P/Q boxes, line kVA ratings and total capacity.

The two solvers stop at different tolerances, so a state whose margin to any
limit is smaller than the margins below is reported as ``near_limit`` and its
verdict is not compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

VOLTAGE_MARGIN_PU = 1e-5     # near-limit band for bus voltages
POWER_MARGIN_KW = 0.05       # near-limit band for kW / kvar / kVA limits
SERVED_TOLERANCE_KW = 1e-6   # served-kW sums may differ only by summation order
_TOL_PU = 1e-11
_MAX_ITER = 300


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    near_limit: bool
    served_kw: float
    weighted_kw: float


@dataclass(frozen=True)
class Optimum:
    states: tuple[int, ...]
    weighted_kw: float
    served_kw: float
    feasible_count: int
    near_limit_count: int


class Grid:
    """Static arrays of one feeder, indexed by this module's own numbering."""

    def __init__(self, feeder):
        self.feeder = feeder
        self.bus_ids = [b.id for b in feeder.buses]
        pos = {bid: i for i, bid in enumerate(self.bus_ids)}
        self.n = len(self.bus_ids)
        self.s_base = float(feeder.s_base_kva)
        self.v_min = [b.v_min for b in feeder.buses]
        self.v_max = [b.v_max for b in feeder.buses]
        self.ends = [(pos[ln.from_bus], pos[ln.to_bus]) for ln in feeder.lines]
        self.z = [complex(ln.resistance, ln.reactance) for ln in feeder.lines]
        if any(z == 0 for z in self.z):
            raise ValueError("zero-impedance lines are outside this model")
        self.rating = [ln.s_rating for ln in feeder.lines]
        line_of = {ln.id: k for k, ln in enumerate(feeder.lines)}
        self.line_breakers = [[] for _ in feeder.lines]
        for bi, brk in enumerate(feeder.breakers):
            self.line_breakers[line_of[brk.line_id]].append(bi)
        self.loads = [(pos[ld.bus_id], ld.p_rated, ld.q_rated, ld.weight)
                      for ld in feeder.loads]
        self.gens = [(pos[g.bus_id], g.p_min, g.p_max, g.q_min, g.q_max)
                     for g in feeder.generators]
        self.capacity = sum(g[2] for g in self.gens)
        self.total_load_kw = sum(ld[1] for ld in self.loads)

    # -- topology -----------------------------------------------------------------

    def conducting(self, states) -> list[bool]:
        return [all(states[b] for b in brks) for brks in self.line_breakers]

    def components(self, conducting, buses=None) -> list[list[int]]:
        """Connected bus sets over conducting lines (restricted to ``buses``)."""
        allowed = set(range(self.n)) if buses is None else set(buses)
        adj: dict[int, list[int]] = {b: [] for b in allowed}
        for (f, t), on in zip(self.ends, conducting):
            if on and f in allowed and t in allowed:
                adj[f].append(t)
                adj[t].append(f)
        seen: set[int] = set()
        out = []
        for start in sorted(allowed):
            if start in seen:
                continue
            seen.add(start)
            comp, stack = [], [start]
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def islands(self) -> list[tuple[list[int], list[int]]]:
        """(buses, breaker indices) of each component with every line closed."""
        comps = self.components([True] * len(self.ends))
        where = {b: k for k, comp in enumerate(comps) for b in comp}
        breakers: list[list[int]] = [[] for _ in comps]
        for li, brks in enumerate(self.line_breakers):
            breakers[where[self.ends[li][0]]].extend(brks)
        return [(comp, sorted(brks)) for comp, brks in zip(comps, breakers)]

    def served(self, states, buses=None) -> tuple[float, float]:
        """Topological (served kW, weighted kW): loads that reach a generator."""
        live = self._energized(self.components(self.conducting(states), buses))
        served = weighted = 0.0
        for bus, p, _, w in self.loads:
            if bus in live:
                served += p
                weighted += p * w
        return served, weighted

    def _energized(self, comps) -> set[int]:
        gen_buses = {g[0] for g in self.gens}
        return {b for comp in comps if gen_buses & set(comp) for b in comp}

    # -- power flow -----------------------------------------------------------------

    def evaluate(self, states, buses=None) -> Verdict:
        """Independent feasibility verdict of one breaker state.

        With ``buses`` given, only that bus set (a full-closure island) is
        solved and judged; the global capacity check then applies to it alone.
        """
        conducting = self.conducting(states)
        comps = self.components(conducting, buses)
        feasible, near = True, False
        demand = 0.0
        for comp in comps:
            gens = [k for k, g in enumerate(self.gens) if g[0] in set(comp)]
            if not gens:
                continue
            ok, close, served_losses = self._solve_island(comp, gens, conducting)
            feasible &= ok
            near |= close
            demand += served_losses
        slack = self.capacity - demand
        feasible &= slack >= -1e-6
        near |= abs(slack) < POWER_MARGIN_KW
        served, weighted = self.served(states, buses)
        return Verdict(bool(feasible), bool(near), served, weighted)

    def _solve_island(self, comp, gens, conducting):
        """Dense Gauss fixed point on one energized island.

        Returns (limits ok, some margin inside the near-limit band,
        served kW + losses kW).
        """
        local = {b: i for i, b in enumerate(comp)}
        m = len(comp)
        root = max(gens, key=lambda k: (self.gens[k][2], -k))
        slack = local[self.gens[root][0]]
        lines = [li for li, (f, t) in enumerate(self.ends)
                 if conducting[li] and f in local and t in local]
        y = np.zeros((m, m), dtype=complex)
        for li in lines:
            f, t = local[self.ends[li][0]], local[self.ends[li][1]]
            a = 1.0 / self.z[li]
            y[f, f] += a
            y[t, t] += a
            y[f, t] -= a
            y[t, f] -= a
        s_load = np.zeros(m, dtype=complex)
        for bus, p, q, _ in self.loads:
            if bus in local:
                s_load[local[bus]] += complex(p, q) / self.s_base
        p_cap = sum(self.gens[k][2] for k in gens)
        q_cap = sum(self.gens[k][4] for k in gens)
        load_p = float(s_load.real.sum()) * self.s_base
        load_q = float(s_load.imag.sum()) * self.s_base
        others = [i for i in range(m) if i != slack]
        inv = np.linalg.inv(y[np.ix_(others, others)]) if others else None
        coupling = y[others, slack] if others else None
        v = np.ones(m, dtype=complex)
        losses_kw = 0.0
        dispatch = {}
        converged = False
        for _ in range(_MAX_ITER):
            f_p = min(1.0, (load_p + losses_kw) / p_cap) if p_cap > 0 else 0.0
            f_q = min(1.0, load_q / q_cap) if q_cap > 0 else 0.0
            s_inj = np.zeros(m, dtype=complex)
            for k in gens:
                if k == root:
                    continue
                _, p_min, p_max, q_min, q_max = self.gens[k]
                p = min(max(p_max * f_p, p_min), p_max)
                q = min(max(q_max * f_q, q_min), q_max)
                dispatch[k] = (p, q)
                s_inj[local[self.gens[k][0]]] += complex(p, q) / self.s_base
            new = v.copy()
            if others:
                current = np.conj((s_inj - s_load) / v)
                new[others] = inv @ (current[others] - coupling * v[slack])
            new[slack] = 1.0
            change = float(np.max(np.abs(new - v)))
            v = new
            losses_kw = self.s_base * sum(
                self.z[li].real * abs((v[local[self.ends[li][0]]]
                                       - v[local[self.ends[li][1]]]) / self.z[li]) ** 2
                for li in lines
            )
            if not np.all(np.isfinite(v)):
                break
            if change < _TOL_PU:
                converged = True
                break
        if not converged:
            return False, False, load_p
        margins_kw = []
        margins_v = []
        for b in comp:
            mag = abs(v[local[b]])
            margins_v.append(min(mag - self.v_min[b], self.v_max[b] - mag))
        s_gen_slack = (v[slack] * np.conj((y @ v)[slack]) + s_load[slack]) * self.s_base
        for k in gens:
            if k != root and self.gens[k][0] == self.gens[root][0]:
                s_gen_slack -= complex(*dispatch[k])
        outputs = dict(dispatch)
        outputs[root] = (s_gen_slack.real, s_gen_slack.imag)
        for k, (p, q) in outputs.items():
            _, p_min, p_max, q_min, q_max = self.gens[k]
            box = [p - p_min, p_max - p, q - q_min, q_max - q]
            # A dispatched generator clipped to its box sits on the bound
            # exactly in both solvers; only the slack's figures are iterated.
            margins_kw += box if k == root else [x for x in box if x != 0.0]
        upstream = self._parents(comp, lines, self.gens[root][0])
        for li in lines:
            f, t = self.ends[li]
            up, down = (f, t) if upstream.get(t) == li else (t, f)
            current = (v[local[up]] - v[local[down]]) / self.z[li]
            s_send = abs(v[local[up]] * np.conj(current)) * self.s_base
            margins_kw.append(self.rating[li] - s_send)
        ok = min(margins_v) >= -1e-9 and min(margins_kw) >= -1e-6
        # An island without load carries no current, so its figures are exact
        # and no margin of it can be in doubt.
        near = bool(load_p or load_q) and (
            min(abs(x) for x in margins_v) < VOLTAGE_MARGIN_PU
            or min(abs(x) for x in margins_kw) < POWER_MARGIN_KW)
        return ok, near, load_p + losses_kw

    def _parents(self, comp, lines, root_bus) -> dict[int, int]:
        """Bus -> line that feeds it, walking out from the slack bus."""
        adj: dict[int, list[tuple[int, int]]] = {b: [] for b in comp}
        for li in lines:
            f, t = self.ends[li]
            adj[f].append((li, t))
            adj[t].append((li, f))
        parent = {root_bus: -1}
        queue = [root_bus]
        while queue:
            u = queue.pop()
            for li, w in adj[u]:
                if w not in parent:
                    parent[w] = li
                    queue.append(w)
        return parent

    # -- enumeration ----------------------------------------------------------------

    def optimum(self) -> Optimum:
        """Feasible maximizer of weighted served power, one island at a time.

        Islands with every line closed share no bus, line or generator, so a
        state is feasible exactly when each island's part is, and the
        objective is a sum over islands. Ties break as documented for the
        program's oracle: fewer closed breakers, then the smaller vector.
        """
        n_b = len(self.feeder.breakers)
        best = [0] * n_b
        weighted = served = 0.0
        feasible_count = 1
        near_count = 0
        for buses, brks in self.islands():
            top = None
            count = 0
            for bits in product((0, 1), repeat=len(brks)):
                states = [0] * n_b
                for b, s in zip(brks, bits):
                    states[b] = s
                verdict = self.evaluate(states, buses)
                near_count += verdict.near_limit
                if not verdict.feasible:
                    continue
                count += 1
                key = (-verdict.weighted_kw, sum(bits), bits)
                if top is None or key < top[0]:
                    top = (key, bits, verdict)
            if top is None:
                raise ValueError("an island has no feasible configuration")
            feasible_count *= count
            for b, s in zip(brks, top[1]):
                best[b] = s
            weighted += top[2].weighted_kw
            served += top[2].served_kw
        return Optimum(tuple(best), weighted, served, feasible_count, near_count)
