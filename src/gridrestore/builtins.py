"""Built-in study feeders.

Two balanced single-phase-equivalent feeders are shipped:

``ieee13``
    13 buses, two microgrid islands. Microgrid 1 carries loads
    [230, 170, 400, 200] kW behind breakers cb1..cb4; microgrid 2 carries
    [170, 128, 1150, 170, 843] kW behind cb5..cb9. Total demand 3461 kW
    against 2600 kW of distributed generation (590 + 1010 + 1000).

``ieee123``
    123 buses, five microgrid islands with [10, 5, 3, 3, 5] breakers (26 in
    total), 3025 kW of load against 2400 kW of generation. Per-load ratings
    and impedances are synthesized constants chosen to reproduce those
    aggregates; each island's load steps share a granularity so the best
    feasible pickup sits strictly below its generator capacity.

Each microgrid is an electrically independent island (its own generation and
lines); breakers sit on the load laterals, one load per breaker. Load power
factor is 0.95 (q = 0.328684 p).
"""

from __future__ import annotations

from .feeder import (
    Breaker,
    Bus,
    Feeder,
    Generator,
    Line,
    LoadPoint,
    MicrogridPartition,
)

BUILTIN_NAMES = ("ieee13", "ieee123")

_PF_TAN = 0.328684  # tan(acos(0.95)), rounded

# Synthesized 123-node islands: (backbone bus count, load list kW, capacity kW).
# Load granularities 35/40/45/50/10 kW make the feasible optimum per island
# [770, 480, 315, 300, 440] = 2305 kW = 96.04% of the 2400 kW capacity.
_IEEE123_ISLANDS = (
    (35, (105.0, 140.0, 70.0, 175.0, 70.0, 35.0, 105.0, 140.0, 70.0, 70.0), 795.0),
    (20, (160.0, 200.0, 120.0, 80.0, 40.0), 500.0),
    (14, (180.0, 135.0, 90.0), 330.0),
    (13, (200.0, 150.0, 100.0), 315.0),
    (15, (240.0, 160.0, 120.0, 40.0, 30.0), 460.0),
)


def _q_for(p_kw: float) -> float:
    return round(p_kw * _PF_TAN, 3)


def _ieee13() -> Feeder:
    buses = [Bus("mg1"), Bus("mg1b"), Bus("mg2"), Bus("mg2b")]
    lines = [
        Line("bb1", "mg1", "mg1b", 0.004, 0.008, 1500.0),
        Line("bb2", "mg2", "mg2b", 0.003, 0.006, 2500.0),
    ]
    breakers: list[Breaker] = []
    loads: list[LoadPoint] = []

    # (load kW, lateral tail bus, lateral head bus, lateral r, x, rating); the optimum
    # subset is {170, 400} + {1150, 843} = 2563 kW = 98.6% of 2600 kW.
    laterals = [
        (230.0, "ld1", "mg1", 0.003, 0.006, 400.0),
        (170.0, "ld2", "mg1", 0.003, 0.006, 300.0),
        (400.0, "ld3", "mg1b", 0.003, 0.006, 650.0),
        (200.0, "ld4", "mg1b", 0.003, 0.006, 350.0),
        (170.0, "ld5", "mg2", 0.003, 0.006, 300.0),
        (128.0, "ld6", "mg2", 0.003, 0.006, 250.0),
        (1150.0, "ld7", "mg2", 0.002, 0.004, 1800.0),
        (170.0, "ld8", "mg2b", 0.003, 0.006, 300.0),
        (843.0, "ld9", "mg2b", 0.002, 0.004, 1300.0),
    ]
    for k, (p, leaf, head, r, x, rating) in enumerate(laterals, start=1):
        buses.append(Bus(leaf))
        lines.append(Line(f"lat{k}", head, leaf, r, x, rating))
        breakers.append(Breaker(f"cb{k}", f"lat{k}", 0))
        loads.append(LoadPoint(f"load{k}", leaf, p, _q_for(p), 1.0, f"cb{k}"))

    generators = [
        Generator("g1", "mg1", 0.0, 590.0, 0.0, 360.0),
        Generator("g2", "mg2", 0.0, 1010.0, 0.0, 620.0),
        Generator("g3", "mg2b", 0.0, 1000.0, 0.0, 610.0),
    ]
    partition = MicrogridPartition(
        (
            ("cb1", "cb2", "cb3", "cb4"),
            ("cb5", "cb6", "cb7", "cb8", "cb9"),
        )
    )
    return Feeder(
        name="ieee13",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=tuple(buses),
        lines=tuple(lines),
        breakers=tuple(breakers),
        loads=tuple(loads),
        generators=tuple(generators),
        partition=partition,
    )


def _ieee123() -> Feeder:
    buses: list[Bus] = []
    lines: list[Line] = []
    breakers: list[Breaker] = []
    loads: list[LoadPoint] = []
    generators: list[Generator] = []
    assignments: list[tuple[str, ...]] = []

    for mg, (n_backbone, island_loads, capacity) in enumerate(_IEEE123_ISLANDS, start=1):
        backbone = [f"mg{mg}_b{j}" for j in range(1, n_backbone + 1)]
        buses.extend(Bus(b) for b in backbone)
        for j in range(1, n_backbone):
            lines.append(
                Line(
                    f"mg{mg}_s{j}",
                    backbone[j - 1],
                    backbone[j],
                     0.0008,
                    0.0016,
                    round(capacity * 1.4, 1),
                )
            )
        generators.append(
            Generator(
                f"dg{mg}",
                backbone[0],
                0.0,
                capacity,
                0.0,
                round(capacity * 0.62, 1),
            )
        )
        agent_breakers: list[str] = []
        n_loads = len(island_loads)
        for t, p in enumerate(island_loads, start=1):
            # Spread laterals along the backbone chain.
            attach = backbone[((t - 1) * n_backbone) // n_loads]
            leaf = f"mg{mg}_l{t}"
            buses.append(Bus(leaf))
            lines.append(
                Line(f"mg{mg}_lat{t}", attach, leaf, 0.002, 0.004, round(p * 1.6, 1))
            )
            cb = f"mg{mg}_cb{t}"
            breakers.append(Breaker(cb, f"mg{mg}_lat{t}", 0))
            loads.append(LoadPoint(f"mg{mg}_load{t}", leaf, p, _q_for(p), 1.0, cb))
            agent_breakers.append(cb)
        assignments.append(tuple(agent_breakers))

    return Feeder(
        name="ieee123",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=tuple(buses),
        lines=tuple(lines),
        breakers=tuple(breakers),
        loads=tuple(loads),
        generators=tuple(generators),
        partition=MicrogridPartition(tuple(assignments)),
    )


_BUILDERS = {"ieee13": _ieee13, "ieee123": _ieee123}


def builtin_feeder(name: str) -> Feeder:
    """Return a built-in study feeder by name (``ieee13`` or ``ieee123``)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in feeder {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder()
