import dataclasses
import tracemalloc

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
    PowerFlowSolution,
    check_constraints,
    islands,
    restored_power,
    solve,
)
from gridrestore import powerflow
from gridrestore.powerflow import page_states, solve_batch
from reference import (
    dense_reference_solve,
    digest,
    dict_check_constraints,
    joined_islands,
    random_multi_generator_feeder,
    random_radial_feeder,
    served_loads,
    study_feeder_8500,
    verdict_pages,
)


def two_bus(resistance=0.01, reactance=0.0, p_kw=100.0, q_kvar=0.0, p_max=500.0):
    return Feeder(
        name="two",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b")),
        lines=(Line("l1", "a", "b", resistance, reactance, 5000.0),),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(LoadPoint("ld", "b", p_kw, q_kvar, 1.0, "cb"),),
        generators=(Generator("g", "a", 0.0, p_max, 0.0, 0.6 * p_max),),
        partition=MicrogridPartition((("cb",),)),
    )


def test_zero_impedance_line_is_lossless():
    sol = solve(two_bus(resistance=0.0), [1])
    assert sol.bus_voltages["b"] == pytest.approx(1.0, abs=1e-12)
    assert sol.total_losses_kw == pytest.approx(0.0, abs=1e-12)
    assert sol.served_load_kw == 100.0


def test_two_bus_hand_iterated_fixed_point():
    # Hand backward/forward sweep, frozen before the build:
    # V = 1 - 0.01 * conj(0.1/V) reaches |dV| < 1e-6 on iteration 3 with
    # V2 = 0.998998997996 and series losses 0.10020050 kW.
    sol = solve(two_bus(), [1])
    assert sol.converged
    assert sol.iterations == 3
    assert sol.bus_voltages["b"] == pytest.approx(0.998998997996, abs=1e-9)
    assert sol.total_losses_kw == pytest.approx(0.10020050, abs=1e-6)


def test_two_bus_with_reactance_fixed_point():
    # Same hand iteration with z = 0.01 + 0.02j and 100 kW + 50 kvar.
    sol = solve(two_bus(reactance=0.02, q_kvar=50.0), [1])
    assert sol.converged
    assert sol.bus_voltages["b"] == pytest.approx(0.9979948521, abs=1e-8)
    assert sol.total_losses_kw == pytest.approx(0.12550280, abs=1e-6)


def test_all_breakers_open_denergized(ieee13):
    sol = solve(ieee13, [0] * 9)
    assert sol.served_load_kw == 0.0
    assert sol.total_losses_kw == 0.0
    assert all(v == 1.0 for v in sol.bus_voltages.values())
    report = check_constraints(ieee13, sol)
    assert report.all_ok


def test_flow_apparent_power_identity(ieee13):
    sol = solve(ieee13, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    for p, q, s in sol.line_flows.values():
        assert s == pytest.approx(np.hypot(p, q), rel=1e-9)


def test_energy_conservation_builtins(ieee13, ieee123):
    rng = np.random.default_rng(5)
    for feeder in (ieee13, ieee123):
        for _ in range(25):
            states = rng.integers(0, 2, size=feeder.n_breakers)
            sol = solve(feeder, states)
            if sol.converged:
                gap = sol.total_generation_kw - sol.served_load_kw - sol.total_losses_kw
                assert abs(gap) < 1e-3


def test_monotone_served_power_in_breaker_closures():
    rng = np.random.default_rng(7)
    for _ in range(40):
        feeder = random_radial_feeder(rng)
        states = list(rng.integers(0, 2, size=feeder.n_breakers))
        served, _ = restored_power(feeder, states)
        open_positions = [i for i, s in enumerate(states) if s == 0]
        if not open_positions:
            continue
        flip = int(rng.choice(open_positions))
        more = list(states)
        more[flip] = 1
        served_more, _ = restored_power(feeder, more)
        assert served_more >= served - 1e-9


def test_matches_dense_reference_on_random_feeders():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(50):
        feeder = random_radial_feeder(rng)
        states = rng.integers(0, 2, size=feeder.n_breakers)
        sol = solve(feeder, states)
        volts, loss_kw, ref_ok = dense_reference_solve(feeder, states)
        if not (sol.converged and ref_ok):
            continue
        checked += 1
        for bus_id, v in volts.items():
            assert sol.bus_voltages[bus_id] == pytest.approx(v, abs=1e-5)
        assert sol.total_losses_kw == pytest.approx(loss_kw, abs=1e-3)
    assert checked >= 45


def test_power_balance_fails_when_overloaded(ieee13):
    sol = solve(ieee13, [1] * 9)
    assert sol.converged
    report = check_constraints(ieee13, sol)
    assert not report.power_balance_ok
    assert report.power_balance_margin_kw < 0
    assert not report.all_ok


def test_island_limit_violation_shows_as_generator_limit(ieee13):
    # Closing 230+170+200 kW in microgrid 1 exceeds its 590 kW source, but
    # not the global 2600 kW balance; the slack injection breaks its box.
    sol = solve(ieee13, [1, 1, 0, 1, 0, 0, 0, 0, 0])
    report = check_constraints(ieee13, sol)
    assert report.power_balance_ok
    assert not report.gen_p_ok
    assert not report.all_ok


def test_voltage_violation_names_worst_bus():
    # Long weak lateral: 350 kW + 170 kvar behind 0.08 + j0.15 p.u. sags
    # below 0.95.
    feeder = two_bus(resistance=0.08, reactance=0.15, p_kw=350.0, q_kvar=170.0,
                     p_max=600.0)
    sol = solve(feeder, [1])
    assert sol.converged
    report = check_constraints(feeder, sol)
    assert not report.voltage_ok
    assert report.worst_voltage_bus == "b"
    assert report.worst_voltage < 0.95


def test_line_rating_violation():
    feeder = Feeder(
        name="tight",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b")),
        lines=(Line("l1", "a", "b", 0.001, 0.002, 80.0),),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(LoadPoint("ld", "b", 100.0, 30.0, 1.0, "cb"),),
        generators=(Generator("g", "a", 0.0, 500.0, 0.0, 300.0),),
        partition=MicrogridPartition((("cb",),)),
    )
    report = check_constraints(feeder, solve(feeder, [1]))
    assert not report.line_s_ok
    assert report.worst_line == "l1"
    assert report.worst_line_loading > 1.0


def test_divergence_is_flagged_and_fails_all():
    # r * P = 0.5 p.u. has no power-flow fixed point.
    feeder = two_bus(resistance=1.0, p_kw=500.0, p_max=5000.0)
    sol = solve(feeder, [1])
    assert not sol.converged
    report = check_constraints(feeder, sol)
    assert not report.all_ok
    assert not report.power_balance_ok and not report.voltage_ok


def test_check_constraints_is_pure(ieee13):
    sol = solve(ieee13, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    assert check_constraints(ieee13, sol) == check_constraints(ieee13, sol)


def _fields(report):
    # repr round-trips a float exactly, so equal reprs are equal bits.
    return [(type(x), repr(x)) for x in dataclasses.astuple(report)]


def _reports_match_the_dict_reference(feeder, rows):
    reports = []
    for states in rows:
        sol = solve(feeder, states)
        report = check_constraints(feeder, sol)
        assert _fields(report) == _fields(dict_check_constraints(feeder, sol)), states
        reports.append(report)
    return reports


def test_check_constraints_matches_the_dict_reference(ieee13, ieee123):
    # The report read from solve's own row equals, field for field and bit
    # for bit, the one rebuilt from the solution's dicts by id: every ieee13
    # state, every ieee123 island sub-state on its island's sub-feeder,
    # every state of seeded random feeders and the diverging two-bus feeder.
    reports = _reports_match_the_dict_reference(ieee13, all_states(9))
    for island in islands(ieee123):
        reports += _reports_match_the_dict_reference(island.feeder,
                                                     all_states(len(island.breakers)))
    rng = np.random.default_rng(71)
    for make in (random_radial_feeder, random_multi_generator_feeder):
        for _ in range(8):
            feeder = make(rng, max_breakers=6)
            reports += _reports_match_the_dict_reference(feeder, all_states(feeder.n_breakers))
    reports += _reports_match_the_dict_reference(two_bus(resistance=1.0, p_kw=500.0,
                                                         p_max=5000.0), [[1]])
    # Every constraint both holds and fails somewhere, and divergence occurs.
    for name in ("all_ok", "power_balance_ok", "voltage_ok", "gen_p_ok", "gen_q_ok",
                 "line_s_ok", "converged"):
        assert {getattr(r, name) for r in reports} == {True, False}, name


def test_check_constraints_refuses_a_solution_solve_did_not_make(ieee13):
    sol = solve(ieee13, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    copy = PowerFlowSolution(**{f.name: getattr(sol, f.name)
                                for f in dataclasses.fields(sol) if f.name != "_row"})
    assert copy == sol
    with pytest.raises(ValueError, match="made by solve"):
        check_constraints(ieee13, copy)


def test_check_constraints_refuses_a_solution_of_another_feeder(ieee13, ieee123, fresh_feeder):
    # ieee123 islands of 45 and 25 buses: other bus ids, and other counts.
    first, second = (sub for _, sub in islands(ieee123)[:2])
    assert (len(first.buses), len(second.buses)) == (45, 25)
    with pytest.raises(ValueError, match="the solution's bus ids are not those of feeder"):
        check_constraints(first, solve(second, [1] * second.n_breakers))
    # Equal counts, one id renamed: a check by position would read the wrong
    # element without a word.
    states = [0, 1, 1, 0, 0, 0, 1, 0, 1]
    sol = solve(ieee13, states)
    switched = {b.line_id for b in ieee13.breakers}
    free = next(ln for ln in ieee13.lines if ln.id not in switched)
    renamed = {
        "line": dataclasses.replace(ieee13, lines=tuple(
            dataclasses.replace(ln, id="renamed") if ln is free else ln for ln in ieee13.lines)),
        "generator": dataclasses.replace(ieee13, generators=(
            dataclasses.replace(ieee13.generators[0], id="renamed"), *ieee13.generators[1:])),
    }
    for kind, feeder in renamed.items():
        with pytest.raises(ValueError, match=f"the solution's {kind} ids are not those"):
            check_constraints(feeder, sol)
        assert check_constraints(feeder, solve(feeder, states)).all_ok
    # Another feeder object with the same ids is accepted.
    assert check_constraints(fresh_feeder("ieee13"), sol) == check_constraints(ieee13, sol)


def test_a_report_does_not_follow_edits_to_the_dicts(ieee13):
    sol = solve(ieee13, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    sagged = dataclasses.replace(sol, bus_voltages=dict.fromkeys(sol.bus_voltages, 0.5))
    assert check_constraints(ieee13, sagged) == check_constraints(ieee13, sol)
    assert check_constraints(ieee13, sol).voltage_ok


def test_restored_power_examples(ieee13):
    assert restored_power(ieee13, [0] * 9) == (0.0, 0.0)
    assert restored_power(ieee13, [1] * 9) == (3461.0, 3461.0)
    served, weighted = restored_power(ieee13, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    assert served == 2563.0 and weighted == 2563.0


def test_state_vector_length_checked(ieee13):
    with pytest.raises(ValueError):
        solve(ieee13, [1, 0])
    with pytest.raises(ValueError):
        restored_power(ieee13, [1] * 8)


def test_solve_never_hashes_the_feeder(monkeypatch, ieee13):
    # The network index lives on the feeder object, so no lookup hashes it.
    def refuse(self):
        raise AssertionError("feeder hashed")

    monkeypatch.setattr(Feeder, "__hash__", refuse)
    feeder = dataclasses.replace(ieee13)  # a fresh object with no index yet
    report = check_constraints(feeder, solve(feeder, [0, 1, 1, 0, 0, 0, 1, 0, 1]))
    assert report.all_ok
    sub = islands(feeder)[0].feeder
    assert check_constraints(sub, solve(sub, [0, 1, 1, 0])).all_ok


def all_states(n):
    return (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1


def test_multi_generator_islands_match_dense_reference():
    # Every state of feeders whose extra generator sits behind a breaker, so
    # opening it splits one island into two separately rooted parts.
    rng = np.random.default_rng(37)
    checked = total = 0
    for _ in range(25):
        feeder = random_multi_generator_feeder(rng)
        for states in all_states(feeder.n_breakers):
            total += 1
            sol = solve(feeder, states)
            volts, loss_kw, ref_ok = dense_reference_solve(feeder, states)
            if not (sol.converged and ref_ok):
                continue
            checked += 1
            for bus_id, v in volts.items():
                assert sol.bus_voltages[bus_id] == pytest.approx(v, abs=1e-5)
            assert sol.total_losses_kw == pytest.approx(loss_kw, abs=1e-3)
            gap = sol.total_generation_kw - sol.served_load_kw - sol.total_losses_kw
            assert abs(gap) < 1e-3
    assert checked >= 0.9 * total and total >= 200


def _split_feeder(p_max_b):
    # g_a at bus a feeds a 50 kW load; g_b sits behind cb and feeds 100 kW at c.
    return Feeder(
        name="split",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(Line("l1", "a", "b", 0.01, 0.02, 5000.0), Line("l2", "b", "c", 0.01, 0.02, 5000.0)),
        breakers=(Breaker("cb", "l1", 0),),
        loads=(LoadPoint("la", "a", 50.0, 15.0, 1.0, ""), LoadPoint("lc", "c", 100.0, 30.0, 1.0, "")),
        generators=(Generator("g_a", "a", 0.0, 500.0, 0.0, 300.0),
                    Generator("g_b", "b", 0.0, p_max_b, 0.0, 0.6 * p_max_b)),
        partition=MicrogridPartition((("cb",),)),
    )


@pytest.mark.parametrize("p_max_b", [300.0, 500.0], ids=["smaller", "tied"])
def test_open_breaker_splits_an_island_into_two_rooted_parts(p_max_b):
    feeder = _split_feeder(p_max_b)
    split = solve(feeder, [0])
    assert split.energized_buses == {"a", "b", "c"}
    assert split.served_load_kw == 150.0
    # Each part's generator is its slack: g_a carries its lossless 50 kW,
    # g_b carries 100 kW plus the losses on l2.
    assert split.gen_injections["g_a"][0] == pytest.approx(50.0, abs=1e-9)
    assert split.gen_injections["g_b"][0] == pytest.approx(100.0 + split.total_losses_kw, abs=1e-6)
    joined = solve(feeder, [1])
    # One island rooted at g_a (larger, or first on a tie); g_b takes its
    # proportional share of load plus losses.
    share = p_max_b * (150.0 + joined.total_losses_kw) / (500.0 + p_max_b)
    assert joined.gen_injections["g_b"][0] == pytest.approx(share, abs=1e-4)
    for states in ([0], [1]):
        sol = solve(feeder, states)
        volts, loss_kw, _ = dense_reference_solve(feeder, states)
        assert sol.total_losses_kw == pytest.approx(loss_kw, abs=1e-6)
        for bus_id, v in volts.items():
            assert sol.bus_voltages[bus_id] == pytest.approx(v, abs=1e-7)


def _overloaded_feeders():
    """Six seeded random feeders with every load at 150 times its rating."""
    rng = np.random.default_rng(43)
    for make in (random_radial_feeder, random_multi_generator_feeder) * 3:
        feeder = make(rng)
        yield dataclasses.replace(feeder, loads=tuple(
            dataclasses.replace(ld, p_rated=150 * ld.p_rated, q_rated=150 * ld.q_rated)
            for ld in feeder.loads))


def _batch_matches_single(feeder, rows):
    batch = solve_batch(feeder, rows)
    for k, states in enumerate(rows):
        sol = solve(feeder, states)
        assert batch.feasible[k] == check_constraints(feeder, sol).all_ok
        assert batch.served_kw[k] == sol.served_load_kw
        assert batch.weighted_kw[k] == sol.served_weighted_kw
        assert batch.iterations[k] == sol.iterations


def test_batched_solve_matches_single_solves(ieee13):
    _batch_matches_single(ieee13, all_states(9))
    rng = np.random.default_rng(41)
    for _ in range(10):
        feeder = random_multi_generator_feeder(rng)
        _batch_matches_single(feeder, all_states(feeder.n_breakers))
    # Loads 150 times their rating: in one batch some rows diverge, and the
    # others converge at their own iterations while it runs on.
    converged = []
    for feeder in _overloaded_feeders():
        rows = all_states(feeder.n_breakers)
        _batch_matches_single(feeder, rows)
        converged += [solve(feeder, states).converged for states in rows]
    _batch_matches_single(two_bus(resistance=1.0, p_kw=500.0, p_max=5000.0), [[1], [0], [1]])
    assert 0.2 < np.mean(converged) < 0.8
    # The ieee13 island of g2 and g3, with g3 moved behind cb8. Where cb8 is
    # open each generator is its own island's root, so a one-row solve skips
    # the dispatch, which the page's batch runs for every row.
    _, island = islands(ieee13)[1]
    g2, g3 = island.generators
    assert island.breakers[3] == Breaker("cb8", "lat8", 0) and g3.bus_id == "mg2b"
    feeder = dataclasses.replace(island, generators=(g2, dataclasses.replace(g3, bus_id="ld8")))
    rows = page_states(feeder, 0)
    _batch_matches_single(feeder, rows)
    idx = powerflow._network_index(feeder)
    roots = [len(powerflow._reach(idx, states[None] != 0)[1]) for states in rows]
    assert roots == [2 - ((code >> 3) & 1) for code in range(32)]


def test_page_verdicts_are_unchanged(fresh_feeder):
    # Every solve_batch output of every verdict page of every ieee13 and
    # ieee123 island, then all 512 ieee13 states in one batch. Any change to
    # a page's verdict, served kW, weighted kW or iteration count shows here.
    feeders = [fresh_feeder(name) for name in ("ieee13", "ieee123")]
    pages = [a for feeder in feeders for _, _, verdicts in verdict_pages(feeder) for a in verdicts]
    assert digest([*pages, *solve_batch(feeders[0], all_states(9))]) == (
        "238f37f0b03f2535658c0d80ff26d80b0811820e7d3e363f64e87241affdd7e4")


def test_sweep_arrays_are_unchanged(fresh_feeder):
    # Every _sweep output (voltages, flows, injections, losses and flags) of
    # the same pages, so the solver's arrays cannot drift where the verdicts
    # do not read them. The ieee13 island of g2 and g3 dispatches.
    arrays = [a for name in ("ieee13", "ieee123")
              for sub, states, _ in verdict_pages(fresh_feeder(name))
              for a in powerflow._sweep(powerflow._network_index(sub), states != 0)]
    assert digest(arrays) == (
        "e0dce80d8be0f67c81194716576e1e54ea2a841aba9d5932414b54687ea4fd75")


def _diverging_fork(p_max_c):
    """Laterals a-b (cb1) and a-c (cb2) off the generator at a. Closed, cb1
    drives bus b's voltage to exactly 0 at iteration 2, so its rows turn
    non-finite and stop at 3, while a row with only cb2 closed converges at
    5. A generator of ``p_max_c`` kW at c (if any) takes a dispatched share."""
    gens = (Generator("g", "a", 0.0, 5000.0, 0.0, 3000.0),)
    if p_max_c:
        gens += (Generator("gc", "c", 0.0, p_max_c, 0.0, 0.6 * p_max_c),)
    return Feeder(
        name="fork", s_base_kva=1000.0, v_base_kv=4.16, buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(Line("l1", "a", "b", 1.0, 0.0, 5000.0), Line("l2", "a", "c", 0.05, 0.1, 5000.0)),
        breakers=(Breaker("cb1", "l1", 0), Breaker("cb2", "l2", 0)),
        loads=(LoadPoint("lb", "b", 500.0, 0.0, 1.0, ""), LoadPoint("lc", "c", 500.0, 150.0, 1.0, "")),
        generators=gens, partition=MicrogridPartition((("cb1", "cb2"),)),
    )


def test_sweep_arrays_are_unchanged_where_the_builtin_pages_do_not_reach():
    # Every _sweep output over all states of feeders the built-in pages never
    # show: overloaded ones, whose rows run to MAX_ITERATIONS; ones whose rows
    # turn non-finite; multi-generator ones, whose pages dispatch;
    # one-generator radial ones; and joined islands, whose pages have several
    # roots and no dispatch.
    rng = np.random.default_rng(61)
    feeders = [*_overloaded_feeders(), _diverging_fork(0), _diverging_fork(300.0),
               two_bus(resistance=1.0, p_kw=500.0, p_max=5000.0),
               *(random_multi_generator_feeder(rng) for _ in range(10)),
               *(random_radial_feeder(rng) for _ in range(10)),
               *(joined_islands(rng) for _ in range(4))]
    arrays = [a for feeder in feeders
              for a in powerflow._sweep(powerflow._network_index(feeder),
                                        all_states(feeder.n_breakers) != 0)]
    assert digest(arrays) == (
        "886a4a31f9339265d3218f3d74b94fd8a3e2886426de0333b93c8252157d90af")


def _split_batches_match(feeder, rows, cuts):
    """Solve ``rows`` whole and in the parts between ``cuts``; every output
    of each part must equal the whole batch's rows bit for bit."""
    whole = solve_batch(feeder, rows)
    for start, stop in zip((0, *cuts), (*cuts, len(rows))):
        part = solve_batch(feeder, rows[start:stop])
        for a, b in zip(part, whole):
            assert np.array_equal(a, b[start:stop])
    return whole


def test_batched_solve_does_not_depend_on_batch_size(ieee13, ieee123):
    # 1,024 states: neither one batch nor single rows divide into the
    # oracle's batches of 91 rows evenly.
    island = islands(ieee123)[0]
    rows = all_states(len(island.breakers))
    _split_batches_match(island.feeder, rows, (1, 92, 1000))
    assert len(solve_batch(island.feeder, rows[:0]).feasible) == 0
    # A dispatching page: g3 never roots its own part of the ieee13 island
    # of g2 and g3, so every row dispatches a share to it.
    sub = islands(ieee13)[1].feeder
    rows = page_states(sub, 0)
    idx = powerflow._network_index(sub)
    assert [root.gen for root, _ in powerflow._reach(idx, rows != 0)[1]] == [0]
    _split_batches_match(sub, rows, (1, 3, 20))
    # Overloaded pages, in which rows stop at different iterations: the first
    # one has rows stopping at 1, 7 and 100 iterations.
    stops = []
    for feeder in _overloaded_feeders():
        rows = all_states(feeder.n_breakers)
        n = len(rows)
        whole = _split_batches_match(feeder, rows, sorted({1, n // 3 + 1, n - 1}))
        stops.append(set(whole.iterations.tolist()))
    assert stops[0] == {1, 7, 100}


def _loads_feeder(p_kw, weights):
    """A chain a-b0-b1-... with one load per bus; loads need no valid network
    for the restored-power sums."""
    n = len(p_kw)
    buses = (Bus("a"), *(Bus(f"b{i}") for i in range(n)))
    lines = tuple(Line(f"l{i}", buses[i].id, buses[i + 1].id, 0.001, 0.002, 5000.0)
                  for i in range(n))
    return Feeder(
        name="loads", s_base_kva=1000.0, v_base_kv=4.16, buses=buses, lines=lines,
        breakers=(), loads=tuple(LoadPoint(f"ld{i}", f"b{i}", float(p), 0.0, float(w), "")
                                 for i, (p, w) in enumerate(zip(p_kw, weights))),
        generators=(Generator("g", "a", 0.0, 1e6, 0.0, 1e6),),
        partition=MicrogridPartition(()),
    )


def _per_row_sums(feeder, served):
    p = np.array([ld.p_rated for ld in feeder.loads])
    w = p * np.array([ld.weight for ld in feeder.loads])
    return (np.array([p[m].sum() for m in served], dtype=float),
            np.array([w[m].sum() for m in served], dtype=float))


def _assert_bits_equal(got, want):
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("n_loads", [0, 1, 7, 8, 9, 16, 23, 40, 129, 300])
def test_served_power_is_bit_identical_to_per_row_sums(n_loads):
    # Fractional kW, so summation order shows in the last bit. Every count
    # from 0 to n_loads occurs, which runs each of numpy's summation paths:
    # under 8 values, 8 to 128, and the pairwise recursion past its 128-value
    # block (the study feeder's islands serve about 537 loads). Wide feeders
    # get a few rows per count, to keep the arrays small.
    rng = np.random.default_rng(900 + n_loads)
    feeder = _loads_feeder(rng.uniform(0.1, 500.0, n_loads),
                           rng.uniform(0.05, 3.0, n_loads))
    idx = powerflow._network_index(feeder)
    rows = (40 if n_loads <= 40 else 3) * (n_loads + 1)
    keep = np.arange(rows) % (n_loads + 1)  # each row serves a seeded subset of this size
    served = np.argsort(rng.random((rows, n_loads)), axis=1) < keep[:, None]
    served[:2] = [[True] * n_loads, [False] * n_loads]  # full and empty rows
    assert sorted(set(served.sum(axis=1).tolist())) == list(range(n_loads + 1))
    _assert_bits_equal(powerflow._served_power(idx, served), _per_row_sums(feeder, served))
    empty = served[:0]
    _assert_bits_equal(powerflow._served_power(idx, empty), _per_row_sums(feeder, empty))
    # Row sets with no empty row, in which only some counts occur: every row
    # with loads, the rows of one count (all loads, and about half of them),
    # and each such row alone. A sum that skips the smallest count present,
    # or a block gathered out of C order, fails here.
    count = served.sum(axis=1)
    some = served[count > 0]
    for part in (some, served[count == n_loads], served[count == (n_loads + 1) // 2],
                 *(some[k:k + 1] for k in range(len(some)))):
        _assert_bits_equal(powerflow._served_power(idx, part), _per_row_sums(feeder, part))


def test_restored_power_needs_no_path_matrix():
    # The first two trees of the study feeder: 1,537 buses. One real (lines,
    # buses) path matrix per generator keeps 36 MiB here and peaks at 54 MiB
    # while built (the complex matrix kept 72); the topology alone takes a
    # (breakers, buses) count matrix per generator.
    feeder = study_feeder_8500(n_trees=2)
    assert (len(feeder.buses), feeder.n_breakers) == (1537, 15)
    rows = [[1] * 15, [k % 2 for k in range(15)], [0] * 15]
    tracemalloc.start()
    try:
        got = powerflow._restored(feeder, rows)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 10, f"tracemalloc peak {peak:.1f} MiB"
    served = np.array([served_loads(feeder, s) for s in rows])
    _assert_bits_equal(got, _per_row_sums(feeder, served))


def test_path_matrix_is_filled_in_place():
    # One root's (lines, buses) path matrix on a seeded feeder of 382 buses:
    # the build peaks within 1.1 times the arrays it keeps, with no second
    # matrix, and bus v's column is its parent's plus the line into v.
    feeder = random_radial_feeder(np.random.default_rng(71), max_buses=400)
    assert len(feeder.buses) == 382
    root = powerflow._network_index(feeder).roots[0]
    tracemalloc.start()
    try:
        p_t, up, at_root = root.paths
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (p_t.nbytes + up.nbytes + at_root.nbytes), f"tracemalloc peak {peak} B"
    assert p_t.shape == (len(feeder.lines), len(feeder.buses)) and p_t.flags.c_contiguous
    assert not p_t[:, root.bus].any()
    for v, li, u in root.walk:
        assert np.array_equal(p_t[:, v], p_t[:, u] + (np.arange(len(feeder.lines)) == li))
        assert up[li] == u and at_root[li] == (u == root.bus)


def test_restored_power_sums_match_reference_on_random_feeders():
    # Every state of seeded random feeders (many fractional-kW loads on some,
    # weights below 1 on joined ones), each with its served loads found by
    # the reference's own topology walk.
    rng = np.random.default_rng(53)
    feeders = [random_radial_feeder(rng, max_buses=40, max_breakers=8) for _ in range(12)]
    feeders += [joined_islands(rng) for _ in range(6)]
    assert max(len(f.loads) for f in feeders) >= 16
    for feeder in feeders:
        rows = all_states(feeder.n_breakers)
        served = np.array([served_loads(feeder, s) for s in rows]).reshape(len(rows), -1)
        _assert_bits_equal(powerflow._restored(feeder, rows), _per_row_sums(feeder, served))
