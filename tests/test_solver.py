import dataclasses
import functools
import itertools
import json
import math
import random
import time
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tousched import (
    Instance,
    InputError,
    MachineStateSet,
    SpacesTable,
    TransitionSpec,
    assemble_schedule,
    build_graph,
    compute_spaces,
    compute_tec,
    generate_family,
    generate_instance,
    job_cost,
    solve_exact,
    validate_schedule,
)
from tousched import isg, solver
from tousched.datagen import FAMILY_MULTIPLES
from tousched.model import COST_LIMIT, InfeasibleError

from conftest import (
    WORKED_COSTS,
    WORKED_OMEGA,
    WORKED_SIGMA,
    WORKED_TEC,
    nosby_instance,
    preset_nosby,
    preset_twosby,
    random_instance,
    random_machine,
    worked_instance,
)
from oracles import brute_force_schedule, brute_force_switching

HERE = Path(__file__).resolve().parent


def make_table(inst):
    return compute_spaces(inst, build_graph(inst))


def test_worked_optimum(worked):
    res = solve_exact(worked, make_table(worked))
    assert res.status == "optimal"
    assert res.tec == WORKED_TEC
    assert res.schedule.sigma == WORKED_SIGMA
    assert tuple(res.schedule.omega) == WORKED_OMEGA
    assert validate_schedule(worked, res.schedule) == []
    assert res.stats.lower_bound == WORKED_TEC
    assert res.stats.stop_reason == "optimal"
    assert res.stats.states > 0 and res.stats.wall_time >= 0


def test_the_benchmark_solver_families_solve_as_pinned():
    # The exact-small and timeout-gap families of perfbench/workloads.json,
    # in generated job order and untimed, so that no answer depends on the
    # machine's speed, against the answers and the cells filled that
    # solver_pins.json records. A change to the DP's layout or order must
    # leave every one of them as it is.
    pins = json.loads((HERE / "solver_pins.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE.parent / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    presets = {"nosby": preset_nosby, "twosby": preset_twosby}
    got = {}
    for workload in ("exact-small", "timeout-gap"):
        for fam in spec["workloads"][workload]["families"]:
            members = generate_family(fam["n"], presets[fam["preset"]](), fam["seed"])
            for multiple, inst in zip(FAMILY_MULTIPLES, members):
                res = solve_exact(inst, make_table(inst))
                s = res.stats
                got[f"{fam['preset']}/{fam['n']}/{fam['seed']}/{float(multiple)}"] = {
                    "status": res.status, "tec": res.tec, "lower_bound": s.lower_bound,
                    "states": s.states, "certifier": s.certifier,
                    "sigma": list(res.schedule.sigma)}
    assert got == pins


def test_worked_cost_decomposition(worked):
    # lead bridge + three blocks + two interior bridges + trailing bridge
    tab = make_table(worked)
    parts = [
        tab.phi(1, 4),        # ramp up before the first block
        job_cost(worked, 2, 4),
        tab.phi(4, 10),
        job_cost(worked, 1, 10),
        tab.phi(11, 13),
        job_cost(worked, 3, 13),
        tab.phi(14, 16),      # ramp down to the end
    ]
    assert parts == [24, 6, 48, 48, 20, 30, 1]
    assert sum(parts) == WORKED_TEC


def test_assemble_schedule_worked(worked):
    tab = make_table(worked)
    sched = assemble_schedule(worked, [(1, 10), (2, 4), (3, 13)], tab)
    assert sched.sigma == WORKED_SIGMA
    assert tuple(sched.omega) == WORKED_OMEGA
    assert compute_tec(worked, sched) == WORKED_TEC


def test_assemble_schedule_rejects_overlap(worked):
    tab = make_table(worked)
    with pytest.raises(InfeasibleError):
        assemble_schedule(worked, [(1, 10), (2, 10), (3, 13)], tab)


def test_assemble_schedule_names_blocks_at_the_horizon_ends(worked):
    # Derived gaps: a block at interval 1 or h leaves no room for the
    # boundary gap, so the interval is named instead.
    tab = make_table(worked)
    with pytest.raises(InfeasibleError, match=r"interval 1 labeled twice"):
        assemble_schedule(worked, [(1, 1), (2, 4), (3, 13)], tab)
    with pytest.raises(InfeasibleError, match=r"interval 16 labeled twice"):
        assemble_schedule(worked, [(1, 10), (2, 4), (3, 15)], tab)
    with pytest.raises(InfeasibleError, match=r"interval 17 out of range"):
        assemble_schedule(worked, [(1, 10), (2, 4), (3, 16)], tab)
    with pytest.raises(InfeasibleError, match=r"interval 10 labeled twice"):
        assemble_schedule(worked, [(1, 10), (2, 10), (3, 13)], tab)


def test_assemble_schedule_explicit_gaps_match_derived(worked):
    tab = make_table(worked)
    auto = assemble_schedule(worked, [(1, 10), (2, 4), (3, 13)], tab)
    explicit = assemble_schedule(worked, [(1, 10), (2, 4), (3, 13)], tab,
                                 spaces=[(1, 4), (4, 10), (11, 13), (14, 16)])
    assert auto == explicit


def test_equal_jobs_keep_index_order(worked):
    inst = Instance(16, worked.costs, (2, 2), worked.state_set, worked.transitions)
    res = solve_exact(inst, make_table(inst))
    assert res.status == "optimal"
    assert res.schedule.sigma == (9, 12)
    assert res.tec == 139


def test_infeasible_overload(worked):
    inst = Instance(10, worked.costs[:10], (4, 4, 4), worked.state_set,
                    worked.transitions)
    tab = make_table(inst)
    res = solve_exact(inst, tab)
    assert res.status == "infeasible" and res.tec is None and res.schedule is None
    assert res.stats.stop_reason == "infeasible"
    assert brute_force_schedule(inst, tab).status == "infeasible"


def test_brute_force_switching_worked(worked):
    assert brute_force_switching(worked, 4, 10, "proc", "proc") == 48
    assert brute_force_switching(worked, 1, 4, "off", "proc") == 24
    assert brute_force_switching(worked, 11, 13, "proc", "proc") == 20


def test_brute_force_switching_guard(worked):
    with pytest.raises(InputError):
        brute_force_switching(worked, 1, 16, "off", "off")


def test_brute_force_schedule_worked(worked):
    res = brute_force_schedule(worked)
    assert res.status == "optimal" and res.tec == WORKED_TEC
    res2 = brute_force_schedule(worked, evaluator="bruteforce")
    assert res2.status == "optimal" and res2.tec == WORKED_TEC


def test_brute_force_schedule_guards(worked):
    big = Instance(30, (1,) * 30, (1,), worked.state_set, worked.transitions)
    with pytest.raises(InputError):
        brute_force_schedule(big)
    with pytest.raises(InputError):
        brute_force_schedule(worked, evaluator="magic")


def test_solver_matches_brute_force():
    rng = random.Random(41)
    for _ in range(25):
        inst = random_instance(rng, n_max=4, h_max=16, require_room=False)
        tab = make_table(inst)
        got = solve_exact(inst, tab)
        want = brute_force_schedule(inst, tab)
        assert got.status == want.status
        if got.status == "optimal":
            assert got.tec == want.tec
            assert validate_schedule(inst, got.schedule) == []
            assert compute_tec(inst, got.schedule) == got.tec


@pytest.mark.parametrize("scale, spike, wide", [(1, None, np.int16), (2 ** 16, None, np.int32),
                                                (2 ** 40, None, np.int64), (1, 5000, np.int32)])
def test_the_sweep_in_each_width_matches_brute_force(scale, spike, wide, monkeypatch):
    # Prices scaled so that max(2 cap, cap + heaviest_path) puts every
    # sweep of the solve in int16, int32 or int64, with heaviest_path
    # below COST_LIMIT; the DP alone and the relaxation first each give
    # the brute force's status, TEC and bound, and a valid schedule. A
    # spike of 5000 at interval 12 of the worked example leaves the cap at
    # 279, twice which fits int16, but its steps weigh up to 40,024.
    widths = set()
    real = isg.ClassPlan.ring

    def ring(plan, width, fill, dtype):
        widths.add(np.dtype(dtype))
        return real(plan, width, fill, dtype)

    monkeypatch.setattr(isg.ClassPlan, "ring", ring)
    rng = random.Random(47)
    if spike:
        instances = [dataclasses.replace(
            worked_instance(), costs=WORKED_COSTS[:11] + (spike,) + WORKED_COSTS[12:])]
    else:
        instances = [random_instance(rng, n_max=4, h_max=16) for _ in range(6)]
    for inst in instances:
        inst = dataclasses.replace(inst, costs=tuple(scale * c for c in inst.costs))
        assert inst.heaviest_path < COST_LIMIT
        tab = make_table(inst)
        want = brute_force_schedule(inst, tab)
        for alone in (solver._DP_ALONE_CELLS, 0):
            monkeypatch.setattr(solver, "_DP_ALONE_CELLS", alone)
            got = solve_exact(inst, tab)
            assert (got.status, got.tec, got.stats.lower_bound) == (
                want.status, want.tec, want.stats.lower_bound)
            if got.status == "optimal":
                assert validate_schedule(inst, got.schedule) == []
                assert compute_tec(inst, got.schedule) == got.tec
    assert widths == {np.dtype(wide)}


def test_solve_exact_widens_only_the_slices_of_phi_it_reads(worked, monkeypatch):
    # Rows and column h of phi as solve_exact widens them, INF where the
    # int8 table marks no switching, against the whole int64 matrix; a
    # solve in either order, untimed or at once expired, never builds it.
    full = make_table(worked).phi_matrix
    tab = make_table(worked)
    assert tab.stored.dtype == np.int8 and (tab.stored == tab.mark).any()
    h = worked.horizon
    for i in range(h + 1):
        assert np.array_equal(solver._phi(tab, i, slice(None)), full[i])
    assert np.array_equal(solver._phi(tab, slice(2, h + 1), h), full[2:, h])

    def widen(table):
        raise AssertionError("phi widened to int64")

    monkeypatch.setattr(SpacesTable, "phi_matrix", property(widen))
    for alone in (solver._DP_ALONE_CELLS, 0):
        monkeypatch.setattr(solver, "_DP_ALONE_CELLS", alone)
        assert solve_exact(worked, tab).tec == WORKED_TEC
        assert solve_exact(worked, tab, time_limit=0.0).status == "timeout"


def test_solution_schedules_are_feasible():
    rng = random.Random(43)
    for _ in range(25):
        inst = nosby_instance(rng, n_max=5, h_max=18)
        res = solve_exact(inst, make_table(inst))
        if res.status != "optimal":
            continue
        assert validate_schedule(inst, res.schedule) == []
        assert compute_tec(inst, res.schedule) == res.tec
        assert res.stats.lower_bound == res.tec


def test_timeout_returns_valid_incumbent():
    rng = random.Random(4)
    from tousched.datagen import preset_nosby
    pre = preset_nosby()
    jobs = tuple(rng.randint(1, 4) for _ in range(14))
    h = 120
    costs = tuple(rng.randint(1, 12) for _ in range(h))
    inst = Instance(h, costs, jobs, pre.state_set, pre.transitions)
    tab = make_table(inst)
    res = solve_exact(inst, tab, time_limit=0.0)
    assert res.status == "timeout"
    assert res.schedule is not None
    assert validate_schedule(inst, res.schedule) == []
    assert compute_tec(inst, res.schedule) == res.tec
    assert res.stats.lower_bound is not None
    assert res.stats.lower_bound <= res.tec


@pytest.mark.parametrize("alone", [solver._DP_ALONE_CELLS, 0])
def test_a_schedule_priced_off_the_search_raises_at_a_limit_and_at_an_optimum(
        worked, alone, monkeypatch):
    # Every answer's schedule is re-priced: one that costs more than the
    # search found is a fault, reported alike whether the solve ended at
    # the time limit (the one-block incumbent) or at an optimum (the DP's
    # or the fit's), and not by an assert, which python -O strips.
    tab = make_table(worked)
    real = solver.compute_tec
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", alone)
    monkeypatch.setattr(solver, "compute_tec", lambda inst, sched: real(inst, sched) + 1)
    for limit in (0.0, None):
        with pytest.raises(RuntimeError, match="assembled schedule costs"):
            solve_exact(worked, tab, time_limit=limit)


def test_generous_time_limit_still_optimal(worked):
    res = solve_exact(worked, make_table(worked), time_limit=60.0)
    assert res.status == "optimal" and res.tec == WORKED_TEC


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_time_limit_below_zero_or_nan_is_an_input_error(worked, limit):
    with pytest.raises(InputError, match="time limit must be >= 0"):
        solve_exact(worked, make_table(worked), time_limit=limit)


def test_infinite_time_limit_sets_no_limit(worked):
    res = solve_exact(worked, make_table(worked), time_limit=float("inf"))
    assert (res.status, res.tec, res.stats.stop_reason) == ("optimal", WORKED_TEC, "optimal")


def fourteen_jobs_h120():
    rng = random.Random(4)
    pre = preset_nosby()
    jobs = tuple(rng.randint(1, 4) for _ in range(14))
    costs = tuple(rng.randint(1, 12) for _ in range(120))
    return Instance(120, costs, jobs, pre.state_set, pre.transitions)


# nosby/30/3001 at multiple 1.3 (h=130): its relaxation is 3022 against an
# optimum of 3026, so the jobs do not fit the relaxed blocks.
NO_FIT_RELAXED, NO_FIT_OPTIMUM = 3022, 3026


@functools.cache
def no_fit_member():
    inst = generate_family(30, preset_nosby(), 3001)[0]
    return inst, make_table(inst)


def relaxed_cells(inst, tab):
    """Cells of the relaxation: sum(p) layers of F and sum(p) - 1 of G,
    one row each, over the band."""
    t_on, t_off = tab.window
    return (2 * sum(inst.jobs) - 1) * (t_off - t_on + 2 - sum(inst.jobs))


def test_cell_limit_answers_like_an_expired_time_limit(monkeypatch):
    # Without a fit: the incumbent of an expired time limit, under the
    # relaxed bound, and no DP cell filled beyond the relaxation's.
    inst, tab = no_fit_member()
    expired = solve_exact(inst, tab, time_limit=0.0)
    assert (expired.status, expired.stats.stop_reason) == ("timeout", "time_limit")
    fits = fourteen_jobs_h120()
    fits_tab = make_table(fits)
    full = solve_exact(fits, fits_tab)
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", 1000)
    for limit in (None, 60.0):
        res = solve_exact(inst, tab, time_limit=limit)
        assert (res.status, res.stats.stop_reason) == ("timeout", "cell_limit")
        assert res.stats.states == relaxed_cells(inst, tab)
        assert validate_schedule(inst, res.schedule) == []
        assert res.stats.lower_bound <= res.tec
        assert (res.tec, res.stats.lower_bound) == (expired.tec, NO_FIT_RELAXED)
        assert expired.stats.lower_bound < NO_FIT_RELAXED
        # With a fit: the relaxed blocks hold the jobs, and that schedule
        # is the DP's optimum, 1050.
        res = solve_exact(fits, fits_tab, time_limit=limit)
        assert (res.status, res.stats.stop_reason) == ("optimal", "optimal")
        assert (res.tec, res.stats.lower_bound) == (full.tec, full.tec) == (1050, 1050)
        assert res.stats.states == relaxed_cells(fits, fits_tab)
        assert validate_schedule(fits, res.schedule) == []
        assert compute_tec(fits, res.schedule) == 1050


def test_cell_limit_counts_multisets_times_band_width(worked, monkeypatch):
    # jobs (2, 1, 2): (1 + 1) * (2 + 1) multisets, band width slack + 1
    tab = make_table(worked)
    t_on, t_off = tab.window
    cells = 6 * (t_off - t_on + 2 - 5)
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells)
    assert solve_exact(worked, tab).tec == WORKED_TEC
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells - 1)
    res = solve_exact(worked, tab)  # the relaxation, and the jobs fit its blocks
    assert (res.status, res.stats.stop_reason, res.stats.certifier) == ("optimal", "optimal", "fit")
    assert (res.tec, res.schedule.sigma) == (WORKED_TEC, WORKED_SIGMA)
    # nosby/30/3001 at 1.3: (6 + 1)(4 + 1)(4 + 1)(9 + 1)(7 + 1) multisets
    inst, tab = no_fit_member()
    t_on, t_off = tab.window
    cells = 7 * 5 * 5 * 10 * 8 * (t_off - t_on + 2 - sum(inst.jobs))
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells)
    assert solve_exact(inst, tab).tec == NO_FIT_OPTIMUM
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells - 1)
    assert solve_exact(inst, tab).stats.stop_reason == "cell_limit"


def test_the_band_alone_picks_the_dp_or_the_relaxation(worked, monkeypatch):
    # jobs (2, 1, 2): 6 multisets times the band width. At the constant
    # the DP runs alone; one cell over it, the relaxation and its fit.
    tab = make_table(worked)
    t_on, t_off = tab.window
    cells = 6 * (t_off - t_on + 2 - 5)
    for alone, certifier in ((cells, "dp"), (cells - 1, "fit")):
        monkeypatch.setattr(solver, "_DP_ALONE_CELLS", alone)
        for limit in (None, 60.0):
            res = solve_exact(worked, tab, time_limit=limit)
            assert (res.status, res.stats.certifier) == ("optimal", certifier)
            assert (res.tec, res.schedule.sigma) == (WORKED_TEC, WORKED_SIGMA)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_a_time_limit_only_stops_work(machine_seed, jobs, data):
    # A solve that ends within its time limit gives the untimed answer,
    # field for field, whichever order the band picks.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(24, sum(jobs) + 2), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    for alone in (solver._DP_ALONE_CELLS, 0):
        with mock.patch.object(solver, "_DP_ALONE_CELLS", alone):
            answers = [solve_exact(inst, tab, time_limit=limit) for limit in (None, 1e6)]
        untimed, timed = ((r.status, r.tec, r.stats.lower_bound, r.stats.stop_reason,
                           r.stats.certifier, r.schedule) for r in answers)
        assert untimed == timed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_a_deadline_at_any_clock_reading_leaves_a_valid_answer(machine_seed, jobs, data):
    # A fake clock that ticks once per reading puts the deadline after a
    # drawn number of readings, in whichever step of either order the band
    # picks, the DP after the relaxation included (with the fit off). Every answer is a
    # valid schedule that compute_tec prices as stated, under a bound no
    # higher than the optimum; only an optimal answer names a certifier,
    # and it is the untimed answer.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(24, sum(jobs) + 6), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    readings = [0]

    def tick():
        readings[0] += 1
        return readings[0]

    def fields(r):
        s = r.stats
        return (r.status, r.tec, r.schedule, s.lower_bound, s.stop_reason, s.certifier,
                s.states)

    configs = ((solver._DP_ALONE_CELLS, solver._fit), (0, solver._fit),
               (0, lambda *args: None))  # the last with the fit off
    for alone, fit in configs:
        with mock.patch.object(solver, "_DP_ALONE_CELLS", alone), \
                mock.patch.object(solver, "_fit", fit):
            untimed = solve_exact(inst, tab)
            with mock.patch.object(solver, "time", types.SimpleNamespace(monotonic=tick)):
                readings[0] = 0
                solve_exact(inst, tab, time_limit=1e9)
                deadline = data.draw(st.integers(1, readings[0]))
                readings[0] = 0
                res = solve_exact(inst, tab, time_limit=deadline - 0.5)
        if untimed.status == "infeasible":
            assert fields(res) == fields(untimed)
            continue
        assert validate_schedule(inst, res.schedule) == []
        assert compute_tec(inst, res.schedule) == res.tec
        assert res.stats.lower_bound <= untimed.tec <= res.tec
        if res.status == "optimal":
            assert fields(res) == fields(untimed)
        else:
            assert (res.status, res.stats.certifier) == ("timeout", None)


def test_deadline_mid_fill_gives_the_same_answer(monkeypatch):
    # A fake clock that ticks once per reading makes the deadline fall
    # after a fixed number of checks: before and between the intervals of
    # the relaxation's sweep (readings 1 to 183), then, on a member
    # without a fit, the exact DP's sweep. nosby/30/3001 at 1.9 (h=188):
    # the jobs fit its 17 relaxed blocks, and the fit reads no clock.
    inst = generate_family(30, preset_nosby(), 3001)[2]
    tab = make_table(inst)
    no_fit, no_fit_tab = no_fit_member()
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", solver._DP_CELL_LIMIT)  # the full DP
    full = solve_exact(inst, tab)
    no_fit_full = solve_exact(no_fit, no_fit_tab)
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    expired = solve_exact(inst, tab, time_limit=0.0)
    no_fit_expired = solve_exact(no_fit, no_fit_tab, time_limit=0.0)
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    filled = []
    for checks in (1, 2, 5, 70, 183):  # inside the relaxation
        res = solve_exact(inst, tab, time_limit=checks - 0.5)
        assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
        assert (res.tec, res.stats.lower_bound) == (expired.tec, expired.stats.lower_bound)
        filled.append(res.stats.states)
    assert filled[0] == 0 and 0 < filled[-1] < relaxed_cells(inst, tab) < full.stats.states
    assert filled == sorted(filled)
    # A deadline after the relaxation's sweep gives the fit's optimum,
    # over the cell limit too.
    for limit in (solver._DP_CELL_LIMIT, 1000):
        with monkeypatch.context() as m:
            m.setattr(solver, "_DP_CELL_LIMIT", limit)
            res = solve_exact(inst, tab, time_limit=184 - 0.5)
        assert (res.status, res.stats.certifier, res.tec) == ("optimal", "fit", full.tec)
        assert res.stats.states == relaxed_cells(inst, tab)
    # After a relaxation without a fit: one check after the fit, then the
    # exact DP's sweep (readings 127 to 251). A deadline at either of the
    # first two has filled nothing more; one inside the sweep keeps the
    # relaxed bound and the one-block incumbent, and one past it is the
    # optimum.
    for checks in (126, 127):
        res = solve_exact(no_fit, no_fit_tab, time_limit=checks - 0.5)
        assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
        assert (res.tec, res.stats.lower_bound) == (no_fit_expired.tec, NO_FIT_RELAXED)
        assert res.stats.states == relaxed_cells(no_fit, no_fit_tab)
    filled = []
    for checks in (128, 191, 251):  # inside the DP's sweep
        res = solve_exact(no_fit, no_fit_tab, time_limit=checks - 0.5)
        assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
        assert (res.tec, res.stats.lower_bound) == (no_fit_expired.tec, NO_FIT_RELAXED)
        filled.append(res.stats.states)
    assert relaxed_cells(no_fit, no_fit_tab) < filled[0] < filled[-1]
    assert filled[-1] < relaxed_cells(no_fit, no_fit_tab) + no_fit_full.stats.states
    res = solve_exact(no_fit, no_fit_tab, time_limit=252 - 0.5)  # past the sweep
    assert (res.status, res.stats.certifier) == ("optimal", "dp")
    assert (res.tec, res.schedule) == (no_fit_full.tec, no_fit_full.schedule)
    assert res.tec == NO_FIT_OPTIMUM
    assert res.stats.states == relaxed_cells(no_fit, no_fit_tab) + no_fit_full.stats.states


@pytest.mark.parametrize("member, tec", [(0, NO_FIT_OPTIMUM), (1, 3001)])
def test_elimination_rounds_match_the_full_dp(member, tec, monkeypatch):
    # nosby/30/3001 at 1.3 and 1.6: no fit, so the band, over
    # _DP_ALONE_CELLS, runs the relaxation and then the exact DP; raised,
    # the constant runs the DP alone. Both give one answer, and the first
    # fills the relaxation's cells on top of the DP's.
    inst = generate_family(30, preset_nosby(), 3001)[member]
    tab = make_table(inst)
    with monkeypatch.context() as m:
        m.setattr(solver, "_DP_ALONE_CELLS", solver._DP_CELL_LIMIT)
        full = solve_exact(inst, tab)
    res = solve_exact(inst, tab, time_limit=60.0)
    assert (full.status, full.tec, full.stats.certifier) == ("optimal", tec, "dp")
    assert (res.status, res.stats.stop_reason, res.stats.certifier) == ("optimal", "optimal", "dp")
    assert (res.tec, res.stats.lower_bound) == (full.tec, full.stats.lower_bound)
    assert res.schedule == full.schedule
    assert res.stats.states == relaxed_cells(inst, tab) + full.stats.states


def test_the_cell_limit_counts_the_whole_band_before_the_rounds(monkeypatch):
    # nosby/250/3 at 2.2 (h=1636), 181 relaxed blocks: with the fit off,
    # the band is over the cell limit, and so is the relaxation that
    # counts the shortest length alone (31,455,270 cells), so neither it
    # nor the exact DP runs, even under a time limit; the bound is the
    # relaxed value. With the fit on, the jobs fit those blocks, and the
    # relaxed value is the optimum.
    inst = generate_family(250, preset_nosby(), 3)[3]
    tab = make_table(inst)
    res = solve_exact(inst, tab, time_limit=60.0)
    assert (res.status, res.stats.certifier, res.stats.counted) == ("optimal", "fit", [])
    assert (res.tec, res.stats.lower_bound) == (21531, 21531)
    assert res.stats.states == relaxed_cells(inst, tab)
    assert validate_schedule(inst, res.schedule) == []
    monkeypatch.setattr(solver, "_fit", lambda *args: None)
    res = solve_exact(inst, tab, time_limit=60.0)
    assert (res.status, res.stats.stop_reason) == ("timeout", "cell_limit")
    assert res.stats.states == relaxed_cells(inst, tab)
    assert (res.stats.lower_bound, res.tec, res.stats.certifier) == (21531, 23957, None)
    assert res.stats.counted == []


def rows_by_enumeration(ps, counts, counted):
    """The rows of _rows one at a time: every multiset of the counted
    lengths, as its mixed-radix code (the shortest length fastest), at
    every W from its work to its work plus the other jobs' total, sorted
    by W and then code; returns (first, succ) as lists."""
    radix = [c + 1 if k else 1 for c, k in zip(counts, counted)]
    spare = sum(p * c for p, c, k in zip(ps, counts, counted) if not k)
    rows = []
    for m in itertools.product(*(range(r) for r in radix)):
        code = sum(d * math.prod(radix[:a]) for a, d in enumerate(m))
        work = sum(d * p for d, p in zip(m, ps))
        rows += [(work + r, code, m) for r in range(spare + 1)]
    rows.sort()
    where = {(W, m): pos for pos, (W, _code, m) in enumerate(rows)}
    top = sum(p * c for p, c in zip(ps, counts))
    first = [sum(W < w for W, _code, _m in rows) for w in range(top + 2)]
    succ = []
    for j, p in enumerate(ps):
        succ.append([])
        for W, _code, m in rows:
            if counted[j]:
                nxt = m[:j] + (m[j] - 1,) + m[j + 1:]
            else:  # the job comes out of the work beyond m's
                nxt = m if W - p >= sum(d * q for d, q in zip(m, ps)) else None
            succ[-1].append(where.get((W - p, nxt), -1))
    return first, succ


def test_rows_are_every_multiset_of_the_counted_lengths_at_every_work_it_allows():
    rng = random.Random(17)
    for _ in range(300):
        jobs = [rng.randint(1, 5) for _ in range(rng.randint(1, 7))]
        ps, counts = np.unique(jobs, return_counts=True)
        counted = np.array([rng.random() < 0.5 for _ in ps])
        for mask in (counted, np.ones(len(ps), dtype=bool), np.zeros(len(ps), dtype=bool)):
            first, succ = solver._rows(ps, counts, mask)
            want_first, want_succ = rows_by_enumeration(ps.tolist(), counts.tolist(),
                                                        mask.tolist())
            assert (first.tolist(), succ.tolist()) == (want_first, want_succ)
        # all counted: each multiset once, at W = its work; none: one row per W
        all_first, _ = solver._rows(ps, counts, np.ones(len(ps), dtype=bool))
        assert all_first[-1] == np.prod(counts + 1)
        none_first, none_succ = solver._rows(ps, counts, np.zeros(len(ps), dtype=bool))
        left = np.arange(sum(jobs) + 1)
        assert np.array_equal(none_first, np.arange(sum(jobs) + 2))
        assert np.array_equal(none_succ, np.where(left >= ps[:, None], left - ps[:, None], -1))


def band_of(inst, tab):
    """The band and the cap that solve_exact sweeps for the instance."""
    swept = []
    real = solver._sweep

    def record(band, rows, cap, expired):
        swept.append((band, cap))
        return real(band, rows, cap, expired)

    with mock.patch.object(solver, "_sweep", record):
        solve_exact(inst, tab)
    return swept[0]


def band_optimum(band, rows, cap):
    """The band DP's (value, pieces) over rows: one sweep and its walk."""
    H, _ = solver._sweep(band, rows, cap, lambda: False)
    return solver._walk(band, rows, H)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_counting_more_lengths_raises_the_bound_from_the_relaxation_to_the_optimum(
        machine_seed, jobs, data):
    # Rows that count a set of the lengths relax the DP less as the set
    # grows: the band optimum starts at the relaxed value, never falls as
    # lengths are added in any order, and ends at the optimum.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(24, sum(jobs) + 2), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    full = solve_exact(inst, tab)
    if full.status == "infeasible":
        return
    with mock.patch.object(solver, "_DP_CELL_LIMIT", 0), \
            mock.patch.object(solver, "_DP_ALONE_CELLS", 0):
        relaxed = solve_exact(inst, tab).stats.lower_bound
    band, cap = band_of(inst, tab)
    ps, counts = np.unique(jobs, return_counts=True)
    counted = np.zeros(len(ps), dtype=bool)
    values = []
    for j in [None] + data.draw(st.permutations(range(len(ps)))):
        if j is not None:
            counted[j] = True
        values.append(band_optimum(band, solver._rows(ps, counts, counted), cap)[0])
    const = solver._boundary_constant(inst)
    assert values == sorted(values)
    assert (values[0] + const, values[-1] + const) == (relaxed, full.tec)


def relaxed_costs_to_the_horizon(band):
    """H[W][d] of the relaxation, one cell at a time over W ascending, with
    every gap priced by phi: the cheapest relaxed cost from a block that
    ends just before offset d with W work left to the horizon (H[0] is the
    trailing gap), through F, that from a block that starts there."""
    phi, runs, R, huge = band.table.phi_matrix.tolist(), band.runs.tolist(), band.R, solver._HUGE
    top = band.t_end - band.t_on
    h = len(phi) - 1
    F = [[huge] * R for _ in range(top + 1)]
    H = [[huge] * R for _ in range(top + 1)]
    H[0] = [phi[band.t_end - 1 + d][h] for d in range(R)]
    for W in range(1, top + 1):
        s0 = band.t_end - W  # the block starts at interval s0 + d
        F[W] = [min([huge] + [runs[j][s0 + d] + H[W - p][d]
                              for j, p in enumerate(band.ps.tolist()) if p <= W])
                for d in range(R)]
        if W < top:  # merge, or a gap to a later start
            H[W] = [min([F[W][d]] + [phi[s0 - 1 + d][s0 + e] + F[W][e] for e in range(d + 1, R)])
                    for d in range(R)]
    return np.minimum(H, huge)


def band_dp_by_cells(band, rows):
    """The band DP over rows one cell at a time, every gap priced by phi;
    returns (value, pieces). F at a cell is the first cheapest job length,
    shortest first, over the successors' H; G the first cheapest gap end,
    the nearest; H takes G only where it is strictly cheaper than F. The
    root is the first cheapest gap after interval 1, and the pieces are
    walked from it over the cells' choices."""
    phi, runs, R, huge = band.table.phi_matrix.tolist(), band.runs.tolist(), band.R, solver._HUGE
    ps = band.ps.tolist()
    first, succ = rows[0].tolist(), rows[1].T.tolist()
    top = band.t_end - band.t_on
    h = len(phi) - 1
    F = [[huge] * R for _ in range(first[-1])]
    H = [[huge] * R for _ in range(first[-1])]
    f_arg = [[0] * R for _ in range(first[-1])]
    g_arg = [[0] * R for _ in range(first[-1])]
    H[0] = [min(phi[band.t_end - 1 + d][h], huge) for d in range(R)]
    for W in range(1, top + 1):
        s0 = band.t_end - W  # the block starts at interval s0 + d
        for pos in range(first[W], first[W + 1]):
            for d in range(R):
                cost = [runs[j][s0 + d] + (H[s][d] if s >= 0 else huge)
                        for j, s in enumerate(succ[pos])]
                F[pos][d], f_arg[pos][d] = min(min(cost), huge), cost.index(min(cost))
            for d in range(R if W < top else 0):
                ends = [phi[s0 - 1 + d][s0 + e] + F[pos][e] for e in range(d + 1, R)]
                if ends and min(ends) < F[pos][d]:
                    H[pos][d], g_arg[pos][d] = min(ends), d + 1 + ends.index(min(ends))
                else:
                    H[pos][d] = F[pos][d]
    pos, W = first[top], top
    root = [phi[1][band.t_on + d] + F[pos][d] for d in range(R)]
    value = min(root)
    d = root.index(value)
    pieces = []
    while W and value < huge:
        j = f_arg[pos][d]
        pieces.append((band.t_end - W + d, ps[j]))
        pos, W = succ[pos][j], W - ps[j]
        if W:
            d = g_arg[pos][d] or d
    return value, pieces


def assert_walk_is_the_band_optimum(band, rows, cap, walked):
    """The sweep and walk's (value, pieces) against band_dp_by_cells: equal
    where a schedule exists, and cap or more with no pieces where none does."""
    value, pieces = band_dp_by_cells(band, rows)
    if value >= solver._HUGE:
        assert walked[0] >= cap and walked[1] == []
    else:
        assert walked == (value, pieces)


def machine_with_off_power_and_one_way_pairs(machine_seed, off_power, one_way, data):
    """A random machine whose off state may draw power and whose standby
    state sb1, where it has one, may reach proc at time 0 one way only, a
    time-0 pair between two classes."""
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    entries = dict(trans.entries)
    entries[("off", "off")] = (1, off_power)
    if one_way is not None and "sb1" in states.states:
        power = data.draw(st.integers(0, 4))
        into, out = ((0, 0), (1, power)) if one_way == "into proc" else ((1, power), (0, 0))
        entries[("sb1", "proc")], entries[("proc", "sb1")] = into, out
    return states, TransitionSpec(entries)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       off_power=st.integers(0, 2),
       one_way=st.sampled_from([None, "into proc", "out of proc"]),
       data=st.data())
def test_the_relaxation_sweep_gives_the_cheapest_costs_to_the_horizon(
        machine_seed, jobs, off_power, one_way, data):
    # Over rows that count no length, the sweep over the machine's
    # zero-time classes fills the relaxation's H as the recurrence over phi
    # does, cell by cell, capped at the solve's cap, and the walk over it
    # gives the relaxed band optimum's value and pieces.
    states, trans = machine_with_off_power_and_one_way_pairs(machine_seed, off_power, one_way,
                                                             data)
    h = data.draw(st.integers(min(24, sum(jobs) + 2), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    t_on, t_off = tab.window
    if t_off - t_on + 1 < sum(jobs):
        return  # no band
    band, cap = band_of(inst, tab)
    ps, counts = np.unique(jobs, return_counts=True)
    rows = solver._rows(ps, counts, np.zeros(len(ps), dtype=bool))
    H, states_filled = solver._sweep(band, rows, cap, lambda: False)
    top = band.t_end - band.t_on
    assert np.array_equal(H[:top], np.minimum(relaxed_costs_to_the_horizon(band)[:top], cap))
    assert (H[top:] == cap).all()  # the top layer, and the row of no successor
    assert states_filled == (2 * top - 1) * band.R
    assert_walk_is_the_band_optimum(band, rows, cap, solver._walk(band, rows, H))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       off_power=st.integers(0, 2),
       one_way=st.sampled_from([None, "into proc", "out of proc"]),
       data=st.data())
def test_the_sweep_and_its_walk_give_the_band_optimum_cell_by_cell(
        machine_seed, jobs, off_power, one_way, data):
    # Over rows that count no length, a drawn set of lengths and every
    # length, one sweep capped at the solve's cap, and one capped at
    # _HUGE in int64, and its walk give the value and the pieces of the
    # band DP filled one cell at a time, uncapped, ties included. Prices
    # scaled by up to 10^4 put the cap in int8, int16 or int32.
    states, trans = machine_with_off_power_and_one_way_pairs(machine_seed, off_power, one_way,
                                                             data)
    h = data.draw(st.integers(sum(jobs) + 4, sum(jobs) + 12))
    scale = data.draw(st.sampled_from([1, 100, 10 ** 4]))
    costs = [scale * c for c in data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))]
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    t_on, t_off = tab.window
    if t_off - t_on + 1 < sum(jobs):
        return  # no band
    band, cap = band_of(inst, tab)
    ps, counts = np.unique(jobs, return_counts=True)
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps))))
    for counted in (np.zeros(len(ps), dtype=bool), drawn, np.ones(len(ps), dtype=bool)):
        rows = solver._rows(ps, counts, counted)
        for limit in (cap, solver._HUGE):
            assert_walk_is_the_band_optimum(band, rows, limit, band_optimum(band, rows, limit))


# nosby/120/12001 at 2.2 (h=800), proved by the fit on the relaxed
# blocks; its long band diagonals are the relaxation sweep's longest in
# tier-1.
PAPER_SCALE_SIGMA = [
    123, 76, 252, 69, 66, 315, 87, 115, 327, 80, 94, 84, 345, 105, 349, 245, 250, 353, 72,
    100, 265, 74, 298, 300, 104, 248, 111, 403, 431, 263, 128, 320, 117, 446, 323, 358,
    225, 444, 342, 257, 360, 369, 537, 391, 436, 267, 222, 335, 362, 526, 302, 451, 305,
    558, 308, 371, 524, 311, 539, 379, 550, 563, 552, 394, 408, 573, 596, 605, 555, 584,
    673, 594, 412, 384, 618, 397, 621, 438, 653, 541, 601, 531, 675, 655, 659, 729, 664,
    544, 683, 686, 688, 725, 779, 782, 694, 731, 697, 704, 789, 735, 699, 567, 706, 578,
    795, 587, 667, 710, 763, 677, 717, 766, 761, 738, 776, 769, 772, 791, 720, 784
]


def test_a_paper_scale_member_solves_as_pinned():
    inst = generate_family(120, preset_nosby(), 12001)[3]
    res = solve_exact(inst, make_table(inst))
    s = res.stats
    assert (res.status, s.certifier) == ("optimal", "fit")
    assert (res.tec, s.lower_bound, s.states) == (9800, 9800, 313_782)
    assert list(res.schedule.sigma) == PAPER_SCALE_SIGMA
    assert validate_schedule(inst, res.schedule) == []


@pytest.mark.parametrize("n, seed, multiple, relaxed, tec, states", [
    (45, 4, "1.6", 4277, 4281, 163_370),
    (60, 10, "1.9", 5745, 5749, 567_720),  # 5749 is also the HiGHS optimum
])
def test_counting_the_shortest_length_proves_what_the_relaxation_does_not(
        n, seed, multiple, relaxed, tec, states, monkeypatch):
    # nosby/45/4 at 1.6 and nosby/60/10 at 1.9: the jobs do not fit the
    # relaxed blocks, but they fit the blocks of the relaxation that counts
    # the jobs of length 1, whose bound is the optimum.
    inst = generate_instance(n, preset_nosby(), multiple, seed=seed)
    tab = make_table(inst)
    res = solve_exact(inst, tab)
    s = res.stats
    assert (res.status, s.certifier, s.counted) == ("optimal", "fit", [1])
    assert (res.tec, s.lower_bound, s.states) == (tec, tec, states)
    assert validate_schedule(inst, res.schedule) == []
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", 0)  # the relaxation alone
    res = solve_exact(inst, tab)
    assert (res.stats.stop_reason, res.stats.lower_bound, res.stats.counted) == (
        "cell_limit", relaxed, [])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_elimination_rounds_without_a_fit_match_the_full_dp(machine_seed, jobs, data):
    # With the fit switched off every timed solve runs the relaxation and
    # then the exact DP: the same status, TEC, bound, sigma and omega as
    # the DP alone, ties included.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(24, sum(jobs) + 2), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    full = solve_exact(inst, tab)
    with mock.patch.object(solver, "_fit", lambda *args: None), \
            mock.patch.object(solver, "_DP_ALONE_CELLS", 0):
        res = solve_exact(inst, tab, time_limit=1e6)
    assert (res.status, res.tec, res.stats.lower_bound) == (full.status, full.tec,
                                                           full.stats.lower_bound)
    assert res.schedule == full.schedule
    if res.status == "optimal":
        assert res.stats.certifier == "dp"


def test_fifteen_hundred_unit_jobs():
    pre = preset_nosby()
    h = 1520
    inst = Instance(h, tuple(1 + 7 * i % 5 for i in range(h)), (1,) * 1500,
                    pre.state_set, pre.transitions)
    res = solve_exact(inst, make_table(inst))
    assert res.status == "optimal"
    assert validate_schedule(inst, res.schedule) == []


def test_pruning_flags_on_used_gaps_are_not_read(worked):
    # The band reaches no gap that apply_pruning flags, so the solver
    # ignores the flags; a table edited by hand cannot hide the optimum.
    tab = make_table(worked)
    tab.pruned_mask[4, 10] = True  # the optimum's interior gap
    res = solve_exact(worked, tab)
    assert (res.status, res.tec, res.stats.lower_bound) == ("optimal", WORKED_TEC, WORKED_TEC)
    assert res.schedule.sigma == WORKED_SIGMA


def test_a_relaxed_gap_that_phi_prices_off_its_machine_is_an_input_error(worked, monkeypatch):
    # The relaxation sweeps the machine itself and reads phi only to walk
    # its gaps, so a table edited by hand on a gap of the relaxed optimum
    # is refused there, as the assembly refuses one on a gap of an answer.
    phi = make_table(worked).phi_matrix.copy()
    phi[4, 10] += 1  # the optimum's interior gap
    tab = SpacesTable(phi, build_graph(worked))
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    with pytest.raises(InputError, match="after interval 4 costs 49 in phi.*does not match"):
        solve_exact(worked, tab)


def int16_table_with(inst, gap, value):
    """inst's table as an int16 array, whose own maximum still means no
    switching, with phi at gap set to value."""
    stored = make_table(inst).stored
    phi = stored.astype(np.int16)
    phi[stored == np.iinfo(stored.dtype).max] = np.iinfo(np.int16).max
    phi[gap] = value
    return SpacesTable(phi, build_graph(inst))


@pytest.mark.parametrize("gap, value", [((4, 10), 1000), ((4, 10), 1), ((1, 4), 1)],
                         ids=["interior-raised", "interior-lowered", "root-lowered"])
def test_a_gap_of_the_optimum_edited_in_phi_is_an_input_error(worked, gap, value):
    # The optimum's interior gap (4, 10), 48 by the machine, raised or
    # lowered, is refused by the walk; its root gap (1, 4), 24, lowered is
    # refused by the assembly.
    with pytest.raises(InputError, match="does not match its instance"):
        solve_exact(worked, int16_table_with(worked, gap, value))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: solve_exact prices the root and trailing gaps "
                          "from phi without checking them against the machine")
@pytest.mark.parametrize("gap", [(1, 4), (14, 16)], ids=["root", "trailing"])
def test_a_raised_root_or_trailing_gap_in_phi_is_refused_or_priced_right(worked, gap):
    # The optimum's root gap (1, 4) and trailing gap (14, 16), 24 and 1 by
    # the machine, raised to 1000, steer the solve to 179 and 194, answered
    # as optimal.
    try:
        res = solve_exact(worked, int16_table_with(worked, gap, 1000))
    except InputError:
        return
    assert (res.status, res.tec) == ("optimal", WORKED_TEC)


def test_flagged_root_gaps_still_solve(worked):
    tab = make_table(worked)
    tab.pruned_mask[1, :] = True
    res = solve_exact(worked, tab)
    assert (res.status, res.tec) == ("optimal", WORKED_TEC)
    res = solve_exact(worked, tab, time_limit=0.0)
    assert res.status == "timeout"
    assert (res.stats.lower_bound, res.tec) == (54, 278)  # a bound below the incumbent


def test_extra_pruned_gap_off_the_optimum_keeps_177(worked):
    # Flagging any one more interior gap, here those the optimum does not
    # use, leaves the optimum and its tie-broken schedule unchanged.
    tab = make_table(worked)
    used = {(4, 10), (11, 13)}
    pairs = [(i, ip) for i in range(tab.window[0], 16) for ip in range(i + 2, 16)
             if tab.phi(i, ip) is not None and not tab.is_pruned(i, ip) and (i, ip) not in used]
    assert len(pairs) == 43
    for i, ip in pairs:
        flagged = make_table(worked)
        flagged.pruned_mask[i, ip] = True
        res = solve_exact(worked, flagged)
        assert (res.status, res.tec, res.schedule.sigma) == ("optimal", WORKED_TEC, WORKED_SIGMA)


def optimal_piece_sequences(inst, tab):
    """Every cheapest placement as its (start, length) pieces in start
    order, found by enumerating all placements inside the window and
    pricing each gap with phi (back-to-back blocks pay no gap)."""
    h = inst.horizon
    t_on, t_off = tab.window
    p_proc = inst.transitions.power("proc", "proc")
    C = inst.cost_prefix
    found: list[tuple[int, list[tuple[int, int]]]] = []

    def go(last_end, rem, pieces, cost):
        if not rem:
            tail = tab.phi(last_end, h)
            if tail is not None:
                found.append((cost + tail, list(pieces)))
            return
        for start in range(max(t_on, last_end + 1), t_off + 1):
            gap = 0 if pieces and start == last_end + 1 else tab.phi(last_end, start)
            if gap is None:
                continue
            for p in sorted(set(rem)):
                end = start + p - 1
                if end > t_off:
                    continue
                rest = list(rem)
                rest.remove(p)
                pieces.append((start, p))
                go(end, rest, pieces, cost + gap + (C[end] - C[start - 1]) * p_proc)
                pieces.pop()

    go(1, list(inst.jobs), [], 0)
    if not found:
        return []
    best = min(cost for cost, _pieces in found)
    return [pieces for cost, pieces in found if cost == best]


def test_tight_bound_tie_takes_the_nearest_gap_end():
    # Stopping draws no power, so a start's bound is exact from the cheap
    # stretch on. Starts 4, 5 and 6 all cost 30; 6 has the lowest bound
    # and is tried first, and 4, whose bound only equals the best so far,
    # must still be tried to win the tie.
    states = MachineStateSet(("off", "proc"))
    trans = TransitionSpec({("off", "off"): (1, 0), ("proc", "proc"): (1, 6),
                            ("off", "proc"): (2, 6), ("proc", "off"): (2, 0)})
    inst = Instance(10, (1, 1, 2, 1, 1, 1, 2, 2, 1, 1), (2,), states, trans)
    tab = make_table(inst)
    assert optimal_piece_sequences(inst, tab) == [[(4, 2)], [(5, 2)], [(6, 2)]]
    res = solve_exact(inst, tab)
    assert (res.tec, res.schedule.sigma) == (30, (3,))


def test_ties_go_to_the_lexicographically_smallest_pieces():
    rng = random.Random(53)
    machines = [(pre.state_set, pre.transitions) for pre in (preset_nosby(), preset_twosby())]
    solved = tied = 0
    for k in range(600):
        states, trans = machines[k % 3] if k % 3 < 2 else random_machine(rng, max_extra=3)
        jobs = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        h = rng.randint(min(14, sum(jobs) + 4), 14)
        inst = Instance(h, tuple(rng.choice((1, 2)) for _ in range(h)), jobs, states, trans)
        try:
            tab = make_table(inst)
        except InfeasibleError:
            continue
        optima = optimal_piece_sequences(inst, tab)
        res = solve_exact(inst, tab)
        if not optima:
            assert res.status == "infeasible"
            continue
        pieces = sorted((a + 1, p) for a, p in zip(res.schedule.sigma, inst.jobs))
        assert pieces == min(optima)
        solved += 1
        tied += len(optima) > 1
    assert solved >= 350 and tied >= 200


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       data=st.data())
def test_solver_matches_brute_force_on_random_machines(machine_seed, jobs, data):
    # zero-time transitions and up to three standby states come from
    # random_machine; prices may be zero
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(20, sum(jobs) + 2), 20))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    got = solve_exact(inst, tab)
    want = brute_force_schedule(inst, tab)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.tec == want.tec
        pieces = sorted((a + 1, p) for a, p in zip(got.schedule.sigma, inst.jobs))
        assert pieces == min(optimal_piece_sequences(inst, tab))


def test_deadline_in_the_rounds_leaves_a_valid_answer(monkeypatch):
    # With the fit off and a fake clock, a deadline at any reading of a
    # solve that runs the relaxation and then the exact DP gives the DP
    # alone's answer or the one-block incumbent, with lb <= optimum <= tec;
    # inside the DP's sweep, the bound is the relaxed value.
    monkeypatch.setattr(solver, "_fit", lambda *args: None)
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    rng = random.Random(11)
    readings = [0]

    def tick():
        readings[0] += 1
        return readings[0]

    in_the_dp = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=7, h_max=32, max_extra=3)
        try:
            tab = make_table(inst)
        except InfeasibleError:
            continue
        with mock.patch.object(solver, "_DP_ALONE_CELLS", solver._DP_CELL_LIMIT):
            full = solve_exact(inst, tab)
        with mock.patch.object(solver, "_DP_CELL_LIMIT", 0):
            relaxed = solve_exact(inst, tab).stats.lower_bound
        one_block = solve_exact(inst, tab, time_limit=0.0)
        monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=tick))
        readings[0] = 0
        solve_exact(inst, tab, time_limit=1e9)
        for reading in sorted({rng.randint(1, readings[0]) for _ in range(6)}):
            readings[0] = 0
            res = solve_exact(inst, tab, time_limit=reading - 0.5)
            if res.status != "timeout":
                assert (res.status, res.tec, res.schedule) == (full.status, full.tec, full.schedule)
                continue
            assert validate_schedule(inst, res.schedule) == []
            assert compute_tec(inst, res.schedule) == res.tec
            assert (res.tec, res.schedule) == (one_block.tec, one_block.schedule)
            if full.status == "optimal":
                assert res.stats.lower_bound <= full.tec <= res.tec
            if res.stats.states > relaxed_cells(inst, tab):
                assert res.stats.lower_bound == relaxed
                in_the_dp += 1
        monkeypatch.setattr(solver, "time", time)
    assert in_the_dp >= 20


def split_exists(jobs, lengths):
    """Whether the jobs split exactly into blocks of the given lengths:
    each job in turn goes into a block with room for it."""
    jobs = sorted(jobs, reverse=True)

    @functools.cache
    def go(i, room):
        if i == len(jobs):
            return not any(room)
        return any(go(i + 1, tuple(sorted(room[:k] + (r - jobs[i],) + room[k + 1:])))
                   for k, r in enumerate(room) if r >= jobs[i])

    return go(0, tuple(sorted(lengths)))


def fit(jobs, lengths):
    """_fit's split of the jobs into blocks of the given lengths, checked:
    exactly the jobs, at the blocks' own lengths, each block ascending."""
    ps, counts = np.unique(jobs, return_counts=True)
    split = solver._fit(ps, counts, lengths)
    if split is not None:
        assert [sum(held) for held in split] == lengths
        assert sorted(p for held in split for p in held) == sorted(jobs)
        assert all(held == sorted(held) for held in split)
    return split


def test_fit_splits_the_jobs_exactly_when_they_fit():
    rng = random.Random(5)
    found = 0
    for _ in range(400):
        jobs = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
        cuts = sorted(rng.sample(range(1, sum(jobs)), min(sum(jobs) - 1, rng.randint(0, 3))))
        lengths = [b - a for a, b in zip([0] + cuts, cuts + [sum(jobs)])]
        split = fit(jobs, lengths)
        assert (split is not None) == split_exists(jobs, lengths)
        found += split is not None
    assert 100 <= found <= 300
    # Blocks shortest first, each the longest jobs that leave a fill: the
    # block of 6 takes the two 3s, after which no fill of 10 is left, then
    # three 2s; each block of 10 takes a 3 and a 7. Nine nodes: these four
    # vectors and five dead ends.
    jobs, lengths = [2, 2, 2, 3, 3, 7, 7], [10, 6, 10]
    assert fit(jobs, lengths) == [[3, 7], [2, 2, 2], [3, 7]]
    # Twelve blocks of 7 after blocks of 2 and 6 split in 1458 nodes,
    # which the failed states kept allow: without them, 10^5 nodes find
    # no split.
    jobs2 = [1] + [2] * 12 + [3] * 7 + [5] * 5 + [7] * 3
    lengths2 = [7] * 12 + [2, 6]
    for budget, fits in ((9, True), (8, False)):
        with mock.patch.object(solver, "_FIT_NODES", budget):
            assert (fit(jobs, lengths) is not None) == fits
    for budget, fits in ((1458, True), (1457, False)):
        with mock.patch.object(solver, "_FIT_NODES", budget):
            assert (fit(jobs2, lengths2) is not None) == fits


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(jobs=st.lists(st.integers(1, 5), min_size=1, max_size=14)
       | st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=14)
       | st.lists(st.integers(1, 10), min_size=1, max_size=14),
       data=st.data())
def test_fit_finds_a_split_exactly_where_one_exists(jobs, data):
    # Random cuts of the jobs' work, shortest length 1 or above it, with a
    # split or without: _fit splits exactly where brute force finds a
    # split, so a stop at its node budget fails too, and every split holds
    # exactly the jobs, at its blocks' own lengths, each block ascending.
    # One block of all the work is split within one node.
    total = sum(jobs)
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=6))) if total > 1 else []
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    assert (fit(jobs, lengths) is not None) == split_exists(jobs, lengths)
    with mock.patch.object(solver, "_FIT_NODES", 1):
        assert fit(jobs, [total]) == [sorted(jobs)]


def test_the_fit_reads_no_clock_and_needs_no_recursion(monkeypatch):
    # Any clock reading raises while _fit runs. 2,100 jobs into 1,050
    # blocks of 3 and 6, more than the default recursion limit of 1,000
    # frames, split with one node per block: the blocks of 3 take the 3s, and
    # those of 6, in order, 2s while three are left, then the last 2 with
    # four 1s, then 1s. Jobs of lengths 2 and 3 fill no block of 1.
    monkeypatch.setattr(solver, "time", None)
    jobs = [1, 2, 3] * 700
    lengths = [3, 6] * 350 + [3] * 350
    with mock.patch.object(solver, "_FIT_NODES", len(lengths)):
        split = fit(jobs, lengths)
    assert split[:700:2] + split[700:] == [[3]] * 700
    assert split[1:700:2] == [[2, 2, 2]] * 233 + [[1, 1, 1, 1, 2]] + [[1] * 6] * 116
    assert fit([1, 2] * 800, [3] * 800) == [[1, 2]] * 800
    assert fit([2, 3] * 600, [1] + [5] * 599 + [4]) is None
    # Jobs of even lengths 2 to 20 fill no block of 301, and counting the
    # partial vectors that can grow no further stops the search at the
    # budget; the vectors that fill a block alone never reach it.
    jobs = [p for p in range(2, 21, 2) for _ in range(30)]
    assert fit(jobs, [301, sum(jobs) - 301]) is None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       data=st.data())
def test_relaxation_bounds_the_optimum_and_its_fit_is_optimal(machine_seed, jobs, data):
    # With no cell to spare the solve is the relaxation, then its fit or
    # the incumbent; either way its lower bound is the relaxed value.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(20, sum(jobs) + 2), 20))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    want = brute_force_schedule(inst, tab)
    with mock.patch.object(solver, "_DP_CELL_LIMIT", 0), \
            mock.patch.object(solver, "_DP_ALONE_CELLS", 0):
        relaxed = solve_exact(inst, tab)
    assert (relaxed.status == "infeasible") == (want.status == "infeasible")
    if want.status == "infeasible":
        return
    assert relaxed.stats.lower_bound <= want.tec
    if relaxed.status == "optimal":
        assert relaxed.stats.stop_reason == "optimal"
        assert relaxed.tec == relaxed.stats.lower_bound == solve_exact(inst, tab).tec
        assert validate_schedule(inst, relaxed.schedule) == []
        assert compute_tec(inst, relaxed.schedule) == relaxed.tec
    else:
        assert relaxed.stats.stop_reason == "cell_limit"


def merged_blocks(pieces):
    """[start, length] of the blocks that back-to-back pieces form."""
    blocks = []
    for a, p in pieces:
        if blocks and sum(blocks[-1]) == a:
            blocks[-1][1] += p
        else:
            blocks.append([a, p])
    return blocks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_every_set_of_the_shortest_lengths_bounds_the_optimum_and_its_fit_is_optimal(
        machine_seed, seed):
    # Rows that count the k shortest lengths, k = 0 up to all of them, the
    # sets the solve grows: each band optimum is at most the brute-force
    # optimum, and where the jobs fit its merged blocks the fitted
    # schedule costs the untimed TEC. A band optimum as costly as all jobs
    # in one block at t_on is walked as that block, which always fits, so
    # the solve needs no stop for a bound that meets the one-block
    # incumbent. A solve whose subsets may spend any share of the DP's
    # cells stops at the first fit and says which set gave its bound.
    # Prices of 0 or 9 make short blocks in cheap spells pay, which the
    # relaxation fills with more short jobs than exist.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    rng = random.Random(seed)
    jobs = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
    h = rng.randint(min(20, sum(jobs) + 4), 20)
    costs = [rng.choice((0, 9)) for _ in range(h)]
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    want = brute_force_schedule(inst, tab)
    if want.status == "infeasible":
        return
    untimed = solve_exact(inst, tab)
    one_block = solve_exact(inst, tab, time_limit=0.0).tec
    band, cap = band_of(inst, tab)
    ps, counts = np.unique(jobs, return_counts=True)
    const = solver._boundary_constant(inst)
    expected = None  # the (certifier, counted) of the grown solve
    for k in range(len(ps) + 1):
        counted = np.arange(len(ps)) < k
        value, pieces = band_optimum(band, solver._rows(ps, counts, counted), cap)
        assert value + const <= want.tec
        blocks = merged_blocks(pieces)
        if value + const == one_block:
            assert blocks == [[band.t_on, sum(jobs)]]
        split = solver._fit(ps, counts, [L for _a, L in blocks])
        if split is not None:
            fitted = [(a + sum(held[:i]), p) for (a, _L), held in zip(blocks, split)
                      for i, p in enumerate(held)]
            sched = assemble_schedule(inst, solver._job_assignment(inst, fitted), tab)
            assert validate_schedule(inst, sched) == []
            assert compute_tec(inst, sched) == value + const == untimed.tec == want.tec
            expected = expected or ("fit", ps[:k].tolist())
    with mock.patch.object(solver, "_DP_ALONE_CELLS", 0), \
            mock.patch.object(solver, "_SUBSET_SHARE", 0):
        grown = solve_exact(inst, tab)
    assert (grown.status, grown.tec, grown.stats.lower_bound) == ("optimal", want.tec, want.tec)
    assert (grown.stats.certifier, grown.stats.counted) == expected
    assert compute_tec(inst, grown.schedule) == grown.tec
