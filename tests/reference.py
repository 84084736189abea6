"""Independent reference implementations used only by the tests.

These deliberately avoid the package's tree-sweep, enumeration and stacked
learning code paths: the power-flow reference is a dense Gauss fixed point on
the bus admittance matrix, the restoration maximizer is a plain recursive tree
search, and the learning step is one agent's unpadded forward pass, manual
backprop and SGD update. They exist so the production implementations can be
checked against independently written logic.

It also holds ``train_in_workers``, which the acceptance fixtures use to run
independent seeded trainings in parallel processes, and ``verdict_pages`` and
``digest``, the page loop and the hash the solver's pinned digests share.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from gridrestore.agent import AgentPair, Hyperparameters, QNetwork, StackedLearner
from gridrestore.builtins import builtin_feeder
from gridrestore.feeder import (
    Breaker,
    Bus,
    Feeder,
    Generator,
    Line,
    LoadPoint,
    MicrogridPartition,
)
from gridrestore import powerflow
from gridrestore.powerflow import (
    ConstraintReport,
    PowerFlowSolution,
    check_constraints,
    islands,
    page_states,
    solve,
    solve_batch,
)
from gridrestore.training import TrainingConfig, train


def random_radial_feeder(
    rng: np.random.Generator,
    max_buses: int = 10,
    max_breakers: int = 10,
) -> Feeder:
    """Small random tree feeder that passes validate_feeder.

    Generation is budgeted so the all-open state is always feasible (loads
    that have no breaker on their path are served in every configuration).
    """
    n_buses = int(rng.integers(3, max_buses + 1))
    buses = [Bus(f"b{i}") for i in range(n_buses)]
    lines = []
    parents = {0: None}
    for i in range(1, n_buses):
        parent = int(rng.integers(0, i))
        parents[i] = parent
        lines.append(
            Line(
                f"l{i}",
                f"b{parent}",
                f"b{i}",
                float(rng.uniform(0.001, 0.006)),
                float(rng.uniform(0.002, 0.012)),
                float(rng.uniform(2500.0, 6000.0)),
            )
        )
    loads = []
    for i in range(1, n_buses):
        if rng.random() < 0.7:
            p = float(np.round(rng.uniform(30.0, 300.0), 1))
            loads.append(
                LoadPoint(f"ld{i}", f"b{i}", p, round(p * 0.33, 1), 1.0, "")
            )
    if not loads:
        loads.append(LoadPoint("ld1", "b1", 100.0, 33.0, 1.0, ""))
    n_breakers = int(rng.integers(1, min(max_breakers, len(lines)) + 1))
    picked = rng.choice(len(lines), size=n_breakers, replace=False)
    breakers = [Breaker(f"cb{k}", lines[int(li)].id, 0) for k, li in enumerate(sorted(picked))]
    breakered_buses = {int(lines[int(li)].id[1:]) for li in picked}
    switchable = 0.0
    always_served = 0.0
    for ld in loads:
        bus = int(ld.bus_id[1:])
        on_path = False
        while bus is not None:
            if bus in breakered_buses:
                on_path = True
                break
            bus = parents[bus]
        if on_path:
            switchable += ld.p_rated
        else:
            always_served += ld.p_rated
    capacity = (
        always_served * float(rng.uniform(1.1, 1.4))
        + switchable * float(rng.uniform(0.2, 1.2))
        + 50.0
    )
    generators = [
        Generator("g0", "b0", 0.0, round(capacity, 1), 0.0, round(0.7 * capacity, 1))
    ]
    n_agents = int(rng.integers(1, min(3, n_breakers) + 1))
    split = sorted(rng.choice(range(1, n_breakers), size=n_agents - 1, replace=False)) if n_agents > 1 else []
    bounds = [0, *[int(s) for s in split], n_breakers]
    assignments = tuple(
        tuple(b.id for b in breakers[bounds[k]:bounds[k + 1]])
        for k in range(n_agents)
    )
    return Feeder(
        name="random",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=tuple(buses),
        lines=tuple(lines),
        breakers=tuple(breakers),
        loads=tuple(loads),
        generators=tuple(generators),
        partition=MicrogridPartition(assignments),
    )


def random_multi_generator_feeder(
    rng: np.random.Generator,
    max_buses: int = 10,
    max_breakers: int = 6,
) -> Feeder:
    """Random tree feeder with two or three generators in one island.

    One extra generator sits behind a breaker as seen from ``g0``, so opening
    that breaker splits the island into parts energized separately, each
    rooted at its own largest generator. Its p_max sometimes ties ``g0``'s,
    to exercise the tie-break by generator order. The all-open state need
    not be feasible.
    """
    base = random_radial_feeder(rng, max_buses=max_buses, max_breakers=max_breakers)
    breakered = {b.line_id for b in base.breakers}
    behind = [ln.to_bus for ln in base.lines if ln.id in breakered]
    others = [b.id for b in base.buses[1:] if b.id not in behind]
    sites = [str(rng.choice(behind))]
    if others and rng.random() < 0.5:
        sites.append(str(rng.choice(others)))
    g0 = base.generators[0]
    extra = []
    for k, bus in enumerate(sites, start=1):
        p_max = g0.p_max if rng.random() < 0.3 else round(g0.p_max * float(rng.uniform(0.2, 1.5)), 1)
        p_min = round(p_max * float(rng.uniform(0.0, 0.1)), 1)
        extra.append(Generator(f"g{k}", bus, p_min, p_max, 0.0, round(0.7 * p_max, 1)))
    return dataclasses.replace(base, generators=(g0, *extra))


def _prefixed(tree: Feeder, prefix: str, load=lambda ld: {}, generator=lambda g: {}) -> Feeder:
    """``tree`` with ``prefix`` on every id and reference; ``load(ld)`` and
    ``generator(g)`` give more fields to replace, called in element order."""
    def rename(name):
        return prefix + name

    return dataclasses.replace(
        tree,
        buses=tuple(dataclasses.replace(b, id=rename(b.id)) for b in tree.buses),
        lines=tuple(
            dataclasses.replace(
                ln, id=rename(ln.id), from_bus=rename(ln.from_bus), to_bus=rename(ln.to_bus)
            )
            for ln in tree.lines
        ),
        breakers=tuple(
            dataclasses.replace(b, id=rename(b.id), line_id=rename(b.line_id))
            for b in tree.breakers
        ),
        loads=tuple(
            dataclasses.replace(ld, id=rename(ld.id), bus_id=rename(ld.bus_id), **load(ld))
            for ld in tree.loads
        ),
        generators=tuple(
            dataclasses.replace(g, id=rename(g.id), bus_id=rename(g.bus_id), **generator(g))
            for g in tree.generators
        ),
    )


def joined_islands(rng, tree_of=random_radial_feeder):
    """2-3 random trees as one feeder: breakers interleaved across islands,
    agent 0 owning a breaker in two of them, p_min > 0 and weights < 1."""
    parts = [
        _prefixed(
            tree_of(rng, max_buses=5, max_breakers=3), f"t{t}",
            load=lambda ld: {"weight": float(np.round(rng.uniform(0.2, 1.0), 2))},
            generator=lambda g: {
                "p_min": float(np.round(max(0.0, rng.uniform(-0.2, 0.2)) * g.p_max, 1))
            },
        )
        for t in range(int(rng.integers(2, 4)))
    ]
    breakers = [b for part in parts for b in part.breakers]
    order = rng.permutation(len(breakers))
    shared = (parts[0].breakers[0].id, parts[1].breakers[0].id)
    rest = tuple(
        ids for part in parts
        if (ids := tuple(b.id for b in part.breakers if b.id not in shared))
    )
    return Feeder(
        name="joined",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=tuple(b for part in parts for b in part.buses),
        lines=tuple(ln for part in parts for ln in part.lines),
        breakers=tuple(breakers[i] for i in order),
        loads=tuple(ld for part in parts for ld in part.loads),
        generators=tuple(g for part in parts for g in part.generators),
        partition=MicrogridPartition((shared, *rest)),
    )


def crowded(rng, feeder: Feeder) -> Feeder:
    """``feeder`` with two more loads on one bus that holds no generator (any
    bus if every one does) and a second generator on a generator's bus, so a
    bus carries two loads (three if it had one) and a bus two generators."""
    taken = {g.bus_id for g in feeder.generators}
    bus = str(rng.choice([b.id for b in feeder.buses if b.id not in taken]
                         or [b.id for b in feeder.buses]))
    loads = tuple(
        LoadPoint(f"ldx{k}", bus, p, round(p * 0.33, 1), float(np.round(rng.uniform(0.2, 1.0), 2)), "")
        for k, p in enumerate(np.round(rng.uniform(20.0, 150.0, size=2), 1).tolist())
    )
    twin = feeder.generators[int(rng.integers(len(feeder.generators)))]
    p_max = round(twin.p_max * float(rng.uniform(0.3, 0.8)), 1)
    generator = Generator("gx", twin.bus_id, 0.0, p_max, 0.0, round(0.7 * p_max, 1))
    return dataclasses.replace(feeder, loads=feeder.loads + loads,
                               generators=feeder.generators + (generator,))


def study_feeder_8500(n_trees: int = 10) -> Feeder:
    """A seeded feeder of the shape of the paper's 8500-node study.

    Ten ``random_radial_feeder`` trees of 700-850 buses and 7-8 breakers,
    drawn from ``default_rng(8500)`` by rejection, each tree's ids prefixed
    ``t<k>``, loads and generators scaled by 1/200 so that the sweeps
    converge over trees this deep, and one agent per tree. ``n_trees`` keeps
    only the first trees drawn.
    """
    rng = np.random.default_rng(8500)
    trees = []
    while len(trees) < n_trees:
        tree = random_radial_feeder(rng, max_buses=850, max_breakers=8)
        if len(tree.buses) >= 700 and len(tree.breakers) >= 7:
            trees.append(tree)
    scaled = ("p_rated", "q_rated", "p_min", "p_max", "q_min", "q_max")
    parts = [
        _prefixed(tree, f"t{k}",
                  load=lambda ld: {f: getattr(ld, f) / 200 for f in scaled[:2]},
                  generator=lambda g: {f: getattr(g, f) / 200 for f in scaled[2:]})
        for k, tree in enumerate(trees)
    ]
    return Feeder(
        name="study-8500",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        **{key: tuple(x for part in parts for x in getattr(part, key))
           for key in ("buses", "lines", "breakers", "loads", "generators")},
        partition=MicrogridPartition(tuple(tuple(b.id for b in part.breakers) for part in parts)),
    )


def verdict_pages(feeder: Feeder):
    """(island feeder, page states, ``solve_batch`` verdicts) for every verdict
    page of every island of ``feeder``, in island order, then page order."""
    for _, sub in islands(feeder):
        page = 0
        while len(states := page_states(sub, page)):
            yield sub, states, solve_batch(sub, states)
            page += 1


def digest(arrays) -> str:
    """One sha256 over dtype, shape and bytes of every array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def served_loads(feeder: Feeder, states) -> list[bool]:
    """Per load: is its bus joined to a generator through conducting lines?

    A plain union-find over the lines whose breakers are all closed.
    """
    parent = {b.id: b.id for b in feeder.buses}

    def find(b):
        while parent[b] != b:
            b = parent[b]
        return b

    open_lines = {brk.line_id for brk, s in zip(feeder.breakers, states) if not s}
    for ln in feeder.lines:
        if ln.id not in open_lines:
            parent[find(ln.from_bus)] = find(ln.to_bus)
    fed = {find(g.bus_id) for g in feeder.generators}
    return [find(ld.bus_id) in fed for ld in feeder.loads]


def dense_reference_solve(feeder: Feeder, states, tol: float = 1e-8, max_iter: int = 300):
    """Implicit Z-bus Gauss power flow (dense linear algebra, no tree sweeps).

    Same modeling semantics as the production solver: conducting lines need
    every breaker closed, islands without generation are de-energized at
    1.0 p.u., generation is dispatched proportionally to p_max with the
    largest generator as slack. Returns (voltage magnitudes by bus id,
    total losses kW, converged).
    """
    s_base = feeder.s_base_kva
    bus_pos = {b.id: i for i, b in enumerate(feeder.buses)}
    n = len(feeder.buses)
    breakers_by_line: dict[str, list[int]] = {}
    for bi, brk in enumerate(feeder.breakers):
        breakers_by_line.setdefault(brk.line_id, []).append(bi)
    conducting = [
        all(states[bi] for bi in breakers_by_line.get(ln.id, []))
        for ln in feeder.lines
    ]

    # Components by repeated BFS.
    adj: list[list[int]] = [[] for _ in range(n)]
    lines_between: list[tuple[int, int, complex]] = []
    for ln, cond in zip(feeder.lines, conducting):
        if not cond:
            continue
        f, t = bus_pos[ln.from_bus], bus_pos[ln.to_bus]
        adj[f].append(t)
        adj[t].append(f)
        lines_between.append((f, t, complex(ln.resistance, ln.reactance)))
    comp = [-1] * n
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = start
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if comp[v] == -1:
                    comp[v] = start
                    queue.append(v)

    gen_comp = {comp[bus_pos[g.bus_id]] for g in feeder.generators}
    volts = {b.id: 1.0 for b in feeder.buses}
    total_loss_kw = 0.0
    converged = True

    for island in sorted(gen_comp):
        members = [i for i in range(n) if comp[i] == island]
        gens = [g for g in feeder.generators if comp[bus_pos[g.bus_id]] == island]
        root_gen = max(gens, key=lambda g: (g.p_max, -feeder.generators.index(g)))
        slack = bus_pos[root_gen.bus_id]
        local = {b: k for k, b in enumerate(members)}
        m = len(members)
        y = np.zeros((m, m), dtype=complex)
        island_lines = [
            (f, t, z) for (f, t, z) in lines_between if comp[f] == island
        ]
        for f, t, z in island_lines:
            a = 1.0 / z if z != 0 else 1e12
            y[local[f], local[f]] += a
            y[local[t], local[t]] += a
            y[local[f], local[t]] -= a
            y[local[t], local[f]] -= a
        s_load = np.zeros(m, dtype=complex)
        for ld in feeder.loads:
            b = bus_pos[ld.bus_id]
            if comp[b] == island:
                s_load[local[b]] += complex(ld.p_rated, ld.q_rated) / s_base
        others = [k for k in range(m) if k != local[slack]]
        v = np.ones(m, dtype=complex)
        loss_pu = 0.0
        ok = False
        for _ in range(max_iter):
            island_p = float(s_load.real.sum())
            island_q = float(s_load.imag.sum())
            p_cap = sum(g.p_max for g in gens)
            q_cap = sum(g.q_max for g in gens)
            f_p = min(1.0, (island_p + loss_pu) * s_base / p_cap) if p_cap else 0.0
            f_q = min(1.0, island_q * s_base / q_cap) if q_cap else 0.0
            s_inj = np.zeros(m, dtype=complex)
            for g in gens:
                if g is root_gen:
                    continue
                p = float(np.clip(g.p_max * f_p, g.p_min, g.p_max))
                q = float(np.clip(g.q_max * f_q, g.q_min, g.q_max))
                s_inj[local[bus_pos[g.bus_id]]] += complex(p, q) / s_base
            current = np.conj((s_inj - s_load) / v)
            if others:
                rhs = current[others] - y[np.ix_(others, [local[slack]])] @ np.array(
                    [v[local[slack]]]
                )
                v_new = v.copy()
                v_new[others] = np.linalg.solve(y[np.ix_(others, others)], rhs)
            else:
                v_new = v.copy()
            v_new[local[slack]] = 1.0
            dv = float(np.max(np.abs(v_new - v))) if m else 0.0
            v = v_new
            loss_pu = 0.0
            for f, t, z in island_lines:
                if z == 0:
                    continue
                i_line = (v[local[f]] - v[local[t]]) / z
                loss_pu += z.real * abs(i_line) ** 2
            if dv < tol:
                ok = True
                break
        if not ok or not np.all(np.isfinite(v)):
            converged = False
        total_loss_kw += loss_pu * s_base
        for b in members:
            volts[feeder.buses[b].id] = float(abs(v[local[b]]))
    return volts, total_loss_kw, converged


def recursive_best(feeder: Feeder):
    """Recursive tree search over breaker assignments (reference maximizer).

    Identical objective and tie-break semantics to the oracle: maximize
    weighted restored power, then fewest closed breakers, then smallest
    state vector lexicographically.
    """
    n = feeder.n_breakers
    best: dict = {"key": None, "states": None, "weighted": 0.0, "served": 0.0}

    def descend(prefix: list[int]):
        if len(prefix) == n:
            states = tuple(prefix)
            solution = solve(feeder, states)
            report = check_constraints(feeder, solution)
            if not report.all_ok:
                return
            key = (-solution.served_weighted_kw, sum(states), states)
            if best["key"] is None or key < best["key"]:
                best.update(
                    key=key,
                    states=states,
                    weighted=solution.served_weighted_kw,
                    served=solution.served_load_kw,
                )
            return
        for bit in (0, 1):
            descend(prefix + [bit])

    descend([])
    return best["states"], best["weighted"], best["served"]


def dict_check_constraints(feeder: Feeder, solution: PowerFlowSolution) -> ConstraintReport:
    """The constraint report rebuilt from a solution's dicts, by bus, line and
    generator id, and checked by the solver's own ``_report``: the evaluation
    ``check_constraints`` made before it read the row ``solve`` keeps."""
    idx = powerflow._network_index(feeder)
    if not solution.converged:
        return powerflow._DIVERGED
    flows = [solution.line_flows.get(lid) for lid in idx.line_ids]
    gens = np.array([solution.gen_injections[g] for g in idx.gen_ids]).reshape(1, -1, 2)
    sw = powerflow._Sweep(
        np.array([[solution.bus_voltages[b] for b in idx.bus_ids]]),
        np.array([[b in solution.energized_buses for b in idx.bus_ids]], dtype=bool),
        None,
        np.array([[complex(f[0], f[1]) if f else 0j for f in flows]]),
        np.array([[f is not None for f in flows]], dtype=bool),
        gens[..., 0], gens[..., 1], np.array([solution.total_losses_kw]), np.array([True]), None,
    )
    return powerflow._report(idx, sw, solution.served_load_kw)


# -- per-agent learning step -------------------------------------------------------


@dataclass(frozen=True)
class Experience:
    observation: tuple[int, ...]
    action: int
    reward: float
    next_observation: tuple[int, ...]


def forward_batch(net: QNetwork, x: np.ndarray):
    """Batched forward pass; returns (output, activation cache)."""
    if x.ndim != 2 or x.shape[1] != net.n_inputs:
        raise ValueError("batch shape must be (n, n_inputs)")
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w.T + b
        h = np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
    out = h @ net.weights[-1].T + net.biases[-1]
    return out, (pre, post)


def backward(net: QNetwork, cache, d_out: np.ndarray):
    """Gradients of a scalar loss given d(loss)/d(output)."""
    pre, post = cache
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    delta = d_out
    grads_w[-1] = delta.T @ post[-1]
    grads_b[-1] = delta.sum(axis=0)
    for layer in range(len(net.weights) - 2, -1, -1):
        delta = (delta @ net.weights[layer + 1]) * (pre[layer] > 0.0)
        grads_w[layer] = delta.T @ post[layer]
        grads_b[layer] = delta.sum(axis=0)
    return grads_w, grads_b


def apply_gradients(net: QNetwork, grads_w, grads_b, eta: float) -> None:
    for w, gw in zip(net.weights, grads_w):
        w -= eta * gw
    for b, gb in zip(net.biases, grads_b):
        b -= eta * gb


def sync_target(pair: AgentPair) -> None:
    """Copy main parameters into the target network (bit-equal)."""
    pair.target = pair.main.copy()


def train_step(pair: AgentPair, batch: list[Experience], hp: Hyperparameters) -> float:
    """One SGD step of the blended-label regression; returns the batch loss."""
    if not batch:
        raise ValueError("batch must be non-empty")
    n = len(batch)
    obs = np.array([e.observation for e in batch], dtype=float)
    nxt = np.array([e.next_observation for e in batch], dtype=float)
    actions = np.array([e.action for e in batch], dtype=np.intp)
    rewards = np.array([e.reward for e in batch], dtype=float)

    q_all, cache = forward_batch(pair.main, obs)
    q_next, _ = forward_batch(pair.target, nxt)
    bootstrapped = rewards + hp.gamma * q_next.max(axis=1)
    q_taken = q_all[np.arange(n), actions]
    labels = (1.0 - hp.alpha) * q_taken + hp.alpha * bootstrapped

    # Loss touches only the taken actions; every other output's label is its
    # own current prediction, so its error term is identically zero.
    residual = q_taken - labels
    d_out = np.zeros_like(q_all)
    d_out[np.arange(n), actions] = 2.0 * residual / n
    grads_w, grads_b = backward(pair.main, cache, d_out)
    apply_gradients(pair.main, grads_w, grads_b, hp.eta)
    return float(np.mean(residual**2))


# -- checking the stacked learner --------------------------------------------------


def stacked_batch(batches: list[list[Experience]], width: int):
    """A ``StackedLearner.sample``-shaped batch of equally long per-agent experience lists."""
    bits = np.zeros((2, len(batches), len(batches[0]), width))
    for a, batch in enumerate(batches):
        for row, e in enumerate(batch):
            bits[0, a, row, : len(e.observation)] = e.observation
            bits[1, a, row, : len(e.observation)] = e.next_observation
    return (bits.reshape(-1, len(batches[0]), width),
            np.array([[e.action for e in b] for b in batches]),
            np.array([[e.reward for e in b] for b in batches]))


def padded_entries(learner: StackedLearner) -> np.ndarray:
    """Mask of the entries of a ``params`` row that no agent's network uses."""
    ones = [AgentPair(*[QNetwork([np.ones_like(w) for w in p.main.weights],
                                 [np.ones_like(b) for b in p.main.biases])] * 2)
            for p in learner.pairs]
    return StackedLearner(ones, capacity=1).params[0] == 0.0


def padded_pairs(learner: StackedLearner) -> list[AgentPair]:
    """Copies of every agent's main and target network at the stack's
    zero-padded shapes, so that ``train_step`` on one of them makes each
    product at the shapes of the stacked call. A padded output's bias is
    -1e300, so no next-state max picks it."""
    pairs = []
    for a in range(len(learner.pairs)):
        nets = [QNetwork([w[row, a].copy() for w in learner.weights],
                         [b[row, a, 0].copy() for b in learner.biases]) for row in (0, 1)]
        out = learner.pairs[a].main.n_outputs
        for net in nets:
            net.biases[-1][out:] = -1e300
        pairs.append(AgentPair(*nets))
    return pairs


def numeric_gradient(learner: StackedLearner, batches: list[list[Experience]],
                     hp: Hyperparameters, h: float = 1e-5) -> np.ndarray:
    """Central finite differences in every entry of ``learner.params[0]`` of the
    sum over agents of each one's mean squared error at the taken actions.

    Labels are held at their values before any perturbation. The loss reads
    the main networks through ``learner.pairs`` with ``forward_batch``, so an
    entry that no agent's network uses gets a numeric gradient of exactly 0.
    """
    cases = []
    for pair, batch in zip(learner.pairs, batches):
        obs = np.array([e.observation for e in batch], dtype=float)
        nxt = np.array([e.next_observation for e in batch], dtype=float)
        actions = np.array([e.action for e in batch], dtype=np.intp)
        rewards = np.array([e.reward for e in batch], dtype=float)
        rows = np.arange(len(batch))
        y = rewards + hp.gamma * forward_batch(pair.target, nxt)[0].max(axis=1)
        q_taken = forward_batch(pair.main, obs)[0][rows, actions]
        cases.append((pair.main, obs, rows, actions, (1 - hp.alpha) * q_taken + hp.alpha * y))

    def loss() -> float:
        return sum(float(np.mean((forward_batch(net, obs)[0][rows, actions] - labels) ** 2))
                   for net, obs, rows, actions, labels in cases)

    main = learner.params[0]
    numeric = np.empty_like(main)
    for k, value in enumerate(main.copy()):
        main[k] = value + h
        up = loss()
        main[k] = value - h
        numeric[k] = (up - loss()) / (2 * h)
        main[k] = value
    return numeric


def train_builtin(name: str, cfg: TrainingConfig):
    """``train(builtin_feeder(name), cfg)``: the worker of ``train_in_workers``.
    It builds its own feeder object, so no verdict page crosses processes."""
    return train(builtin_feeder(name), cfg)


def train_in_workers(name: str, cfgs: list[TrainingConfig]) -> list:
    """``train_builtin(name, cfg)`` for each config, in min(runs, cores)
    spawned worker processes; (models, logs) come back by pickle, in order.

    Each run is seeded and reads no other, so it gives the same bits as the
    same call in this process.
    """
    workers = min(len(cfgs), os.cpu_count() or 1)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(train_builtin, [name] * len(cfgs), cfgs))
