import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gridrestore import (
    Breaker,
    Bus,
    Feeder,
    Generator,
    Line,
    LoadPoint,
    MicrogridPartition,
    OracleResult,
    TooManyBreakers,
    brute_force,
    check_constraints,
    decomposed_optimum,
    islands,
    restored_power,
    solve,
    validate_feeder,
)
from gridrestore import oracle, powerflow
from gridrestore.oracle import load_result, save_result
from reference import (
    crowded,
    dense_reference_solve,
    digest,
    joined_islands,
    random_multi_generator_feeder,
    random_radial_feeder,
    recursive_best,
    study_feeder_8500,
    verdict_pages,
)

IEEE13_BEST = (0, 1, 1, 0, 0, 0, 1, 0, 1)  # cb2, cb3, cb7, cb9


def strip_method(result: OracleResult) -> tuple:
    return (
        result.best_states,
        result.best_weighted_kw,
        result.best_served_kw,
        result.feasible_count,
        result.evaluated_count,
    )


def test_ieee13_optimum_matches_case_study(ieee13):
    result = brute_force(ieee13, method="naive")
    assert result.best_states == IEEE13_BEST
    assert result.best_served_kw == 2563.0
    assert result.best_weighted_kw == 2563.0
    assert result.evaluated_count == 512
    # The optimum is feasible and restores 98.6% of the 2600 kW capacity.
    report = check_constraints(ieee13, solve(ieee13, result.best_states))
    assert report.all_ok
    assert result.best_served_kw / 2600.0 == pytest.approx(0.986, abs=0.001)


def test_ieee13_strategies_agree(ieee13):
    naive = brute_force(ieee13, method="naive")
    decomposed = brute_force(ieee13, method="decomposed")
    assert strip_method(naive) == strip_method(decomposed)


@pytest.mark.parametrize("method", ["auto", "gray"])
def test_retired_method_names_are_rejected(ieee13, method):
    with pytest.raises(ValueError, match=f"unknown oracle method '{method}'"):
        brute_force(ieee13, method=method)


def test_auto_uses_decomposition_on_islands(ieee13, ieee123):
    assert brute_force(ieee13).method == "decomposed"
    assert len(islands(ieee123)) == 5


def test_ieee123_decomposed_optimum(ieee123):
    result = brute_force(ieee123, method="decomposed")
    assert result.best_served_kw == 2305.0
    assert result.best_weighted_kw == 2305.0
    assert result.evaluated_count == 2**26
    # 96.04% of the 2400 kW capacity, and feasible.
    assert result.best_served_kw / 2400.0 == pytest.approx(0.9604, abs=1e-4)
    assert check_constraints(ieee123, solve(ieee123, result.best_states)).all_ok


def test_decomposed_equals_naive_on_random_feeders():
    rng = np.random.default_rng(17)
    for _ in range(20):
        feeder = random_radial_feeder(rng, max_buses=8, max_breakers=6)
        naive = brute_force(feeder, method="naive")
        decomposed = brute_force(feeder, method="decomposed")
        assert strip_method(naive) == strip_method(decomposed)


def test_matches_recursive_reference_maximizer():
    rng = np.random.default_rng(29)
    for _ in range(20):
        feeder = random_radial_feeder(rng, max_buses=8, max_breakers=6)
        result = brute_force(feeder)
        states, weighted, served = recursive_best(feeder)
        assert result.best_states == states
        assert result.best_weighted_kw == pytest.approx(weighted, abs=1e-9)
        assert result.best_served_kw == pytest.approx(served, abs=1e-9)


def _one_breaker_feeder(p_max):
    return Feeder(
        name="t",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b")),
        lines=(Line("l1", "a", "b", 0.001, 0.002, 500.0),),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(LoadPoint("ld", "b", 100.0, 30.0, 1.0, "cb"),),
        generators=(Generator("g", "a", 0.0, p_max, 0.0, 0.6 * p_max),),
        partition=MicrogridPartition((("cb",),)),
    )


def test_zero_capacity_keeps_everything_open():
    result = brute_force(_one_breaker_feeder(p_max=0.001), method="naive")
    assert result.best_states == (0,)
    assert result.best_served_kw == 0.0
    assert result.feasible_count == 1


def test_ample_capacity_closes_everything():
    result = brute_force(_one_breaker_feeder(p_max=500.0), method="naive")
    assert result.best_states == (1,)
    assert result.best_served_kw == 100.0
    assert result.feasible_count == 2


def test_oracle_dominates_random_feasible_configurations(ieee13):
    best = brute_force(ieee13).best_weighted_kw
    rng = np.random.default_rng(41)
    for _ in range(60):
        states = tuple(int(s) for s in rng.integers(0, 2, 9))
        solution = solve(ieee13, states)
        if check_constraints(ieee13, solution).all_ok:
            assert solution.served_weighted_kw <= best + 1e-9


def test_breaker_cap_enforced():
    buses = [Bus("a")] + [Bus(f"b{i}") for i in range(27)]
    lines = [Line(f"l{i}", "a", f"b{i}", 0.001, 0.002, 500.0) for i in range(27)]
    breakers = [Breaker(f"cb{i}", f"l{i}", 0) for i in range(27)]
    loads = [LoadPoint(f"ld{i}", f"b{i}", 10.0, 3.0, 1.0, f"cb{i}") for i in range(27)]
    feeder = Feeder(
        name="wide",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=tuple(buses),
        lines=tuple(lines),
        breakers=tuple(breakers),
        loads=tuple(loads),
        generators=(Generator("g", "a", 0.0, 500.0, 0.0, 300.0),),
        partition=MicrogridPartition((tuple(b.id for b in breakers),)),
    )
    with pytest.raises(TooManyBreakers, match="the island of generators g has 27"):
        brute_force(feeder)
    with pytest.raises(TooManyBreakers, match="27 breakers"):
        brute_force(feeder, method="naive")


def test_breaker_cap_applies_per_island(monkeypatch):
    # Islands of 2 and 1 breakers: decomposed costs 2^2 + 2^1 solves, so a
    # cap of 2 admits it, while naive still counts all 3 breakers.
    feeder = Feeder(
        name="capped",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c"), Bus("d"), Bus("e")),
        lines=(
            Line("l1", "a", "b", 0.001, 0.002, 500.0),
            Line("l2", "a", "c", 0.001, 0.002, 500.0),
            Line("l3", "d", "e", 0.001, 0.002, 500.0),
        ),
        breakers=(Breaker("cb1", "l1", 0), Breaker("cb2", "l2", 0), Breaker("cb3", "l3", 0)),
        loads=(
            LoadPoint("ld1", "b", 50.0, 15.0, 1.0, "cb1"),
            LoadPoint("ld2", "c", 60.0, 18.0, 1.0, "cb2"),
            LoadPoint("ld3", "e", 70.0, 21.0, 1.0, "cb3"),
        ),
        generators=(
            Generator("g1", "a", 0.0, 300.0, 0.0, 200.0),
            Generator("g2", "d", 0.0, 300.0, 0.0, 200.0),
        ),
        partition=MicrogridPartition((("cb1", "cb2"), ("cb3",))),
    )
    monkeypatch.setattr(oracle, "MAX_BREAKERS", 2)
    result = brute_force(feeder)
    assert (result.best_served_kw, result.solved_count) == (180.0, 4 + 2)
    with pytest.raises(TooManyBreakers, match="3 breakers"):
        brute_force(feeder, method="naive")
    monkeypatch.setattr(oracle, "MAX_BREAKERS", 1)
    with pytest.raises(TooManyBreakers, match="generators g1 has 2 breakers"):
        brute_force(feeder)


def test_decomposition_is_exact_on_entangled_microgrids():
    # Two breakers on one island split across two agents: one island, so
    # decomposed enumerates the whole feeder.
    feeder = Feeder(
        name="entangled",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(
            Line("l1", "a", "b", 0.001, 0.002, 500.0),
            Line("l2", "a", "c", 0.001, 0.002, 500.0),
        ),
        breakers=(Breaker("cb1", "l1", 0), Breaker("cb2", "l2", 0)),
        loads=(
            LoadPoint("ld1", "b", 50.0, 15.0, 1.0, "cb1"),
            LoadPoint("ld2", "c", 60.0, 18.0, 1.0, "cb2"),
        ),
        generators=(Generator("g", "a", 0.0, 300.0, 0.0, 200.0),),
        partition=MicrogridPartition((("cb1",), ("cb2",))),
    )
    assert len(islands(feeder)) == 1
    assert strip_method(decomposed_optimum(feeder)) == strip_method(
        brute_force(feeder, method="naive")
    )
    assert brute_force(feeder).method == "decomposed"


def assert_matches_naive(feeder, result):
    naive = brute_force(feeder, method="naive")
    assert result.best_states == naive.best_states
    assert result.feasible_count == naive.feasible_count
    assert result.best_weighted_kw == pytest.approx(naive.best_weighted_kw, abs=1e-9)
    assert result.best_served_kw == pytest.approx(naive.best_served_kw, abs=1e-9)


def test_auto_is_exact_when_all_open_is_infeasible(ieee13):
    # With g1 held at 50 kW or more, microgrid 1 all-open is infeasible;
    # enumerating it with the other island all-open found nothing feasible.
    g1 = dataclasses.replace(ieee13.generators[0], p_min=50.0)
    feeder = dataclasses.replace(ieee13, generators=(g1, *ieee13.generators[1:]))
    result = brute_force(feeder)
    assert result.method == "decomposed"
    assert result.best_served_kw == 2563.0
    assert_matches_naive(feeder, result)


def _two_island_feeder():
    # Island 1 also carries a 40 kW load on its generator bus, behind no
    # breaker; it is served in every state and must be counted once.
    return Feeder(
        name="two-islands",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c"), Bus("d")),
        lines=(
            Line("l1", "a", "b", 0.001, 0.002, 500.0),
            Line("l2", "c", "d", 0.001, 0.002, 500.0),
        ),
        breakers=(Breaker("cb1", "l1", 0), Breaker("cb2", "l2", 0)),
        loads=(
            LoadPoint("ld1", "b", 50.0, 15.0, 1.0, "cb1"),
            LoadPoint("ld2", "d", 60.0, 18.0, 1.0, "cb2"),
            LoadPoint("ld0", "a", 40.0, 12.0, 1.0, ""),
        ),
        generators=(
            Generator("g1", "a", 0.0, 300.0, 0.0, 200.0),
            Generator("g2", "c", 0.0, 300.0, 0.0, 200.0),
        ),
        partition=MicrogridPartition((("cb1",), ("cb2",))),
    )


def test_auto_counts_a_hard_wired_load_once():
    feeder = _two_island_feeder()
    result = brute_force(feeder)
    assert result.method == "decomposed"
    assert result.best_served_kw == pytest.approx(150.0, abs=1e-9)
    assert_matches_naive(feeder, result)


def test_decomposed_equals_naive_on_multi_island_feeders():
    rng = np.random.default_rng(43)
    solved = 0
    for _ in range(15):
        feeder = joined_islands(rng)
        assert len(islands(feeder)) >= 2
        try:
            result = brute_force(feeder)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                brute_force(feeder, method="naive")
            continue
        assert result.method == "decomposed"
        assert_matches_naive(feeder, result)
        solved += 1
    assert solved >= 10


def test_decomposed_equals_naive_on_multi_generator_islands():
    rng = np.random.default_rng(47)
    solved = 0
    for _ in range(12):
        feeder = joined_islands(rng, tree_of=random_multi_generator_feeder)
        try:
            result = brute_force(feeder)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                brute_force(feeder, method="naive")
            continue
        assert result.method == "decomposed"
        assert_matches_naive(feeder, result)
        solved += 1
    assert solved >= 5


def test_strategies_agree_on_multi_generator_feeders():
    rng = np.random.default_rng(53)
    agreed = 0
    for _ in range(15):
        feeder = random_multi_generator_feeder(rng)
        try:
            naive = brute_force(feeder, method="naive")
        except RuntimeError:
            with pytest.raises(RuntimeError):
                brute_force(feeder, method="decomposed")
            continue
        decomposed = brute_force(feeder, method="decomposed")
        assert strip_method(naive) == strip_method(decomposed)
        agreed += 1
    assert agreed >= 8


def test_loads_and_generators_sharing_a_bus():
    # The sweep sums each bus's loads once, as one per-bus rating; that is
    # exact because a bus's loads are served together. Two loads (three where
    # the bus had one) share a bus, and two generators share another.
    rng = np.random.default_rng(59)
    solved = checked = total = 0
    for make in (random_radial_feeder, random_multi_generator_feeder) * 8:
        feeder = crowded(rng, make(rng, max_breakers=6))
        assert max(Counter(ld.bus_id for ld in feeder.loads).values()) >= 2
        assert max(Counter(g.bus_id for g in feeder.generators).values()) == 2
        n = feeder.n_breakers
        states = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        total += len(states)
        served_kw = powerflow.solve_batch(feeder, states).served_kw
        assert served_kw.tolist() == [restored_power(feeder, s)[0] for s in states]
        for s in states:
            sol = solve(feeder, s)
            volts, _, ref_ok = dense_reference_solve(feeder, s)
            if sol.converged and ref_ok:
                checked += 1
                assert max(abs(sol.bus_voltages[b] - v) for b, v in volts.items()) < 1e-5
        try:
            result = brute_force(feeder)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                brute_force(feeder, method="naive")
            continue
        assert_matches_naive(feeder, result)
        solved += 1
    assert solved >= 10 and checked >= 0.9 * total and total >= 150


@pytest.mark.slow
def test_study_feeder_8500_islands_and_oracle_stay_small():
    # Ten ~800-bus trees, the shape of the paper's 8500-node study. No index
    # may hold a (loads x buses) matrix or a second copy of a path matrix:
    # one such load matrix for the whole feeder takes about 650 MiB.
    feeder = study_feeder_8500()
    assert validate_feeder(feeder) == []
    assert (len(feeder.buses), feeder.n_breakers, feeder.partition.n_agents) == (7715, 76, 10)
    peaks = []  # MiB: islands() first, then the oracle on the indexed islands
    for run in (islands, brute_force):
        tracemalloc.start()
        try:
            result = run(feeder)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 50 and peaks[1] < 250, f"tracemalloc peaks {peaks} MiB"
    assert (result.method, result.solved_count, result.evaluated_count) == ("decomposed", 2048, 2 ** 76)
    # The optimum and every page verdict, bit for bit. The sweep's products
    # may round differently on trees this deep, but no verdict may move.
    optimum = float.fromhex("0x1.1666bc6a7ef9dp+12")  # 4,454.42 kW
    assert (result.best_weighted_kw, result.best_served_kw) == (optimum, optimum)
    assert result.feasible_count == 75557863725914323419136
    pages = [a for _, _, verdicts in verdict_pages(feeder) for a in verdicts]
    assert len(pages) == 1760 and digest(pages) == (
        "eca0d60491f6453f0cc5f46eeb9acecb5f49001fd414a673e462ec20936e2e9d")


def test_solved_count_per_method(ieee13, ieee123):
    results = {m: brute_force(ieee13, method=m) for m in ("naive", "decomposed")}
    assert {m: r.solved_count for m, r in results.items()} == {"naive": 512, "decomposed": 16 + 32}
    assert [r.method for r in results.values()] == ["naive", "decomposed"]
    result = brute_force(ieee123)
    assert (result.solved_count, result.evaluated_count) == (1104, 2**26)


def test_batch_size_does_not_change_the_result(monkeypatch, ieee123, fresh_feeder):
    # 7-row batches on microgrid 1, then one-row batches: page rows are fixed
    # when an island is indexed, so each budget solves a new feeder object.
    default = brute_force(ieee123)
    for cells, rows in ((7 * 45, [7, 12, 18, 19, 15]), (1, [1] * 5)):
        monkeypatch.setattr(powerflow, "_BATCH_CELLS", cells)
        feeder = fresh_feeder("ieee123")
        assert brute_force(feeder) == default
        assert [powerflow._network_index(sub).page_rows for _, sub in islands(feeder)] == rows


def test_result_cache_round_trip(tmp_path, ieee13):
    result = brute_force(ieee13)
    path = tmp_path / "oracle.json"
    save_result(path, ieee13, result)
    loaded = load_result(path, ieee13)
    assert loaded is not None
    assert strip_method(loaded) == strip_method(result)
    # A different feeder does not match the cached hash.
    from gridrestore import builtin_feeder

    assert load_result(path, builtin_feeder("ieee123")) is None
    assert load_result(tmp_path / "missing.json", ieee13) is None
    assert loaded.solved_count == result.solved_count == 48
    # A cache written before solved_count existed still loads; the count
    # falls back to evaluated_count, an upper bound.
    doc = json.loads(path.read_text())
    del doc["solved_count"]
    path.write_text(json.dumps(doc))
    assert load_result(path, ieee13).solved_count == 512
    # So does one written without its method, which loads as "cached".
    assert loaded.method == result.method == "decomposed"
    del doc["method"]
    path.write_text(json.dumps(doc))
    assert load_result(path, ieee13).method == "cached"


def _two_states(doc):
    return {**doc, "best_states": [0, 1]}


@pytest.mark.parametrize("edit", [
    lambda doc: [1, 2],
    lambda doc: {**doc, "best_states": 5},
    lambda doc: {**doc, "feasible_count": None},
    lambda doc: {**doc, "best_weighted_kw": [1.0]},
    lambda doc: {**doc, "best_states": [0.7] * 9},
    lambda doc: {**doc, "best_states": [True] + [0] * 8},
    lambda doc: {**doc, "best_states": [2] + [0] * 8},
    lambda doc: {**doc, "feasible_count": 12.9},
    lambda doc: {**doc, "solved_count": 48.5},
    lambda doc: {**doc, "evaluated_count": True},
    lambda doc: {**doc, "best_weighted_kw": "2563"},
    lambda doc: {**doc, "best_served_kw": True},
    lambda doc: {**doc, "method": 7},
    lambda doc: {**doc, "method": "cached"},
    lambda doc: {**doc, "best_weighted_kw": float("nan")},
    lambda doc: {**doc, "best_served_kw": float("inf")},
    lambda doc: {**doc, "best_served_kw": -1e300},
    lambda doc: {**doc, "best_weighted_kw": 10 ** 400},
    _two_states,
], ids=["top-level-list", "int-states", "null-count", "list-kw", "fractional-states",
        "bool-state", "state-of-2", "fractional-feasible-count", "fractional-solved-count",
        "bool-evaluated-count", "string-weighted-kw", "bool-served-kw", "integer-method",
        "unknown-method", "nan-weighted-kw", "infinite-served-kw", "negative-served-kw",
        "overflowing-weighted-kw", "two-states-for-nine-breakers"])
def test_result_cache_that_is_malformed_is_a_miss(tmp_path, ieee13, edit):
    path = tmp_path / "oracle.json"
    save_result(path, ieee13, brute_force(ieee13))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert load_result(path, ieee13) is None
    # Without a feeder there is no breaker count to hold the states to.
    assert (load_result(path) is None) != (edit is _two_states)
