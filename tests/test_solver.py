import functools
import random
import time
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tousched import (
    Instance,
    InputError,
    MachineStateSet,
    TransitionSpec,
    assemble_schedule,
    brute_force_schedule,
    brute_force_switching,
    build_graph,
    compute_spaces,
    compute_tec,
    generate_family,
    job_cost,
    solve_exact,
    validate_schedule,
)
from tousched import solver
from tousched.model import InfeasibleError

from conftest import (
    WORKED_OMEGA,
    WORKED_SIGMA,
    WORKED_TEC,
    nosby_instance,
    preset_nosby,
    preset_twosby,
    random_instance,
    random_machine,
)


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
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells)
    assert solve_exact(worked, tab).tec == WORKED_TEC
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells - 1)
    res = solve_exact(worked, tab)  # the relaxation, and the jobs fit its blocks
    assert (res.status, res.stats.stop_reason) == ("optimal", "optimal")
    assert (res.tec, res.schedule.sigma) == (WORKED_TEC, WORKED_SIGMA)
    # nosby/30/3001 at 1.3: (6 + 1)(4 + 1)(4 + 1)(9 + 1)(7 + 1) multisets
    inst, tab = no_fit_member()
    t_on, t_off = tab.window
    cells = 7 * 5 * 5 * 10 * 8 * (t_off - t_on + 2 - sum(inst.jobs))
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells)
    assert solve_exact(inst, tab).tec == NO_FIT_OPTIMUM
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", cells - 1)
    assert solve_exact(inst, tab).stats.stop_reason == "cell_limit"


def test_deadline_mid_fill_gives_the_same_answer(monkeypatch):
    # A fake clock that ticks once per reading makes the deadline fall
    # after a fixed number of checks: before, between and inside layers,
    # first of the relaxation, then of the fit and the DP.
    inst = fourteen_jobs_h120()
    tab = make_table(inst)
    full = solve_exact(inst, tab)
    expired = solve_exact(inst, tab, time_limit=0.0)
    no_fit, no_fit_tab = no_fit_member()
    no_fit_full = solve_exact(no_fit, no_fit_tab)
    no_fit_expired = solve_exact(no_fit, no_fit_tab, time_limit=0.0)
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    filled = []
    for checks in (1, 2, 5, 40):  # inside the relaxation
        res = solve_exact(inst, tab, time_limit=checks - 0.5)
        assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
        assert (res.tec, res.stats.lower_bound) == (expired.tec, expired.stats.lower_bound)
        filled.append(res.stats.states)
    assert filled[0] == 0 and 0 < filled[-1] < relaxed_cells(inst, tab) < full.stats.states
    assert filled == sorted(filled)
    res = solve_exact(inst, tab, time_limit=70 - 0.5)  # inside the fit
    assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
    assert (res.tec, res.stats.lower_bound) == (expired.tec, full.tec)
    res = solve_exact(inst, tab, time_limit=200 - 0.5)  # past the fit
    assert (res.status, res.tec) == ("optimal", full.tec)
    # After a relaxation without a fit: the forward sweep, then the first
    # elimination round (readings 310 to 424).
    res = solve_exact(no_fit, no_fit_tab, time_limit=250 - 0.5)
    assert (res.status, res.stats.stop_reason, res.stats.rounds) == ("timeout", "time_limit", 0)
    assert (res.tec, res.stats.lower_bound) == (no_fit_expired.tec, NO_FIT_RELAXED)
    assert res.stats.states == relaxed_cells(no_fit, no_fit_tab)
    filled = []
    for checks in (330, 370, 410):  # inside the first round
        res = solve_exact(no_fit, no_fit_tab, time_limit=checks - 0.5)
        assert (res.status, res.stats.stop_reason) == ("timeout", "time_limit")
        assert (res.tec, res.stats.lower_bound) == (no_fit_expired.tec, NO_FIT_RELAXED)
        assert res.stats.rounds == 1
        filled.append(res.stats.states)
    assert relaxed_cells(no_fit, no_fit_tab) < filled[0]
    assert filled[-1] < relaxed_cells(no_fit, no_fit_tab) + no_fit_full.stats.states
    assert filled == sorted(filled)


def test_deadline_in_the_second_round_keeps_the_raised_bound(monkeypatch):
    # The first round, at the relaxed value 3022, keeps no schedule below
    # the next cut, 3026: that is the bound from then on, and its best
    # schedule (3034) an incumbent. The second round starts at reading 425.
    inst, tab = no_fit_member()
    expired = solve_exact(inst, tab, time_limit=0.0)
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    res = solve_exact(inst, tab, time_limit=500 - 0.5)
    assert (res.status, res.stats.stop_reason, res.stats.rounds) == ("timeout", "time_limit", 2)
    assert res.stats.lower_bound == NO_FIT_OPTIMUM > NO_FIT_RELAXED
    assert res.tec == min(expired.tec, 3034)
    assert validate_schedule(inst, res.schedule) == []
    assert compute_tec(inst, res.schedule) == res.tec
    assert res.stats.certifier is None


@pytest.mark.parametrize("member, tec", [(0, NO_FIT_OPTIMUM), (1, 3001)])
def test_elimination_rounds_match_the_full_dp(member, tec):
    # nosby/30/3001 at 1.3 and 1.6: no fit, so a time limit runs the rounds
    inst = generate_family(30, preset_nosby(), 3001)[member]
    tab = make_table(inst)
    full = solve_exact(inst, tab)
    res = solve_exact(inst, tab, time_limit=60.0)
    assert (full.status, full.tec, full.stats.certifier) == ("optimal", tec, "dp")
    assert (res.status, res.stats.stop_reason) == ("optimal", "optimal")
    assert res.stats.certifier == "rounds"
    assert (res.tec, res.stats.lower_bound) == (full.tec, full.stats.lower_bound)
    assert res.schedule == full.schedule
    assert res.stats.rounds == 2
    assert res.stats.states < full.stats.states / 2


def test_the_cell_limit_counts_the_whole_band_before_the_rounds():
    # nosby/60/6001 at 1.9: no fit, and the band is over the cell limit,
    # so no round runs even under a time limit; the bound is the relaxed
    # value, which is the optimum.
    inst = generate_family(60, preset_nosby(), 6001)[2]
    res = solve_exact(inst, make_table(inst), time_limit=60.0)
    assert (res.status, res.stats.stop_reason, res.stats.rounds) == ("timeout", "cell_limit", 0)
    assert (res.stats.lower_bound, res.tec, res.stats.certifier) == (5324, 6152, None)


def test_a_round_at_the_next_cut_is_not_final():
    # The first round's value, 348, equals the next cut and so is optimal,
    # but an equal schedule that the tie-break prefers passes a cell at
    # that cut: the second round must run to find it.
    states = MachineStateSet(("off", "proc", "sb1", "sb2", "sb3"))
    trans = TransitionSpec({("off", "off"): (1, 1), ("proc", "proc"): (1, 6),
                            ("off", "proc"): (2, 3), ("proc", "off"): (2, 2),
                            ("sb1", "sb1"): (1, 1), ("proc", "sb1"): (0, 0),
                            ("sb1", "proc"): (0, 0), ("sb2", "sb2"): (1, 5),
                            ("proc", "sb2"): (0, 0), ("sb2", "proc"): (0, 0),
                            ("sb3", "sb3"): (1, 2), ("proc", "sb3"): (0, 0),
                            ("sb3", "proc"): (0, 0)})
    inst = Instance(16, (5, 2, 8, 7, 9, 7, 4, 4, 9, 7, 11, 11, 3, 1, 9, 6), (2, 1, 4),
                    states, trans)
    tab = make_table(inst)
    full = solve_exact(inst, tab)
    with mock.patch.object(solver, "_fit", lambda *args: None):
        res = solve_exact(inst, tab, time_limit=1e6)
    assert (full.tec, full.schedule.sigma) == (348, (3, 12, 5))
    assert (res.tec, res.schedule, res.stats.rounds) == (full.tec, full.schedule, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(machine_seed=st.integers(0, 2 ** 32 - 1),
       jobs=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       data=st.data())
def test_elimination_rounds_without_a_fit_match_the_full_dp(machine_seed, jobs, data):
    # With the fit switched off every timed solve ends in the rounds: the
    # same status, TEC, sigma and omega as the untimed DP, ties included.
    states, trans = random_machine(random.Random(machine_seed), max_extra=3)
    h = data.draw(st.integers(min(24, sum(jobs) + 2), 24))
    costs = data.draw(st.lists(st.integers(0, 6), min_size=h, max_size=h))
    inst = Instance(h, tuple(costs), tuple(jobs), states, trans)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        return
    full = solve_exact(inst, tab)
    with mock.patch.object(solver, "_fit", lambda *args: None):
        res = solve_exact(inst, tab, time_limit=1e6)
    assert (res.status, res.tec, res.stats.lower_bound) == (full.status, full.tec,
                                                           full.stats.lower_bound)
    assert res.schedule == full.schedule
    if res.status == "optimal":
        assert res.stats.certifier == "rounds" and res.stats.rounds >= 1


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
    # timed solve gives the full DP's answer or a valid incumbent, that of
    # a failed round included, with lb <= optimum <= tec.
    monkeypatch.setattr(solver, "_fit", lambda *args: None)
    rng = random.Random(11)
    readings = [0]

    def tick():
        readings[0] += 1
        return readings[0]

    incumbents = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=7, h_max=32, max_extra=3)
        try:
            tab = make_table(inst)
        except InfeasibleError:
            continue
        full = solve_exact(inst, tab)
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
            if full.status == "optimal":
                assert res.stats.lower_bound <= full.tec <= res.tec
            incumbents += res.tec < one_block.tec
        monkeypatch.setattr(solver, "time", time)
    assert incumbents >= 5


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
    ps, counts = np.unique(jobs, return_counts=True)
    split = solver._fit(ps, counts, lengths, lambda: False)
    if split is not None:
        assert [sum(held) for held in split] == lengths
        assert sorted(p for held in split for p in held) == sorted(jobs)
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
    # 70 jobs of the longest length: its packed axis spans two 64-bit words
    jobs = [1] * 3 + [2] * 5 + [3] * 70
    assert fit(jobs, [3 * 65 + 2 + 1, 3 * 5 + 2 * 4 + 1 * 2]) is not None
    assert fit(jobs[3:], [1, 3 * 70 + 2 * 5 - 1]) is None
    # its budget: 6 x 2 words per set, kept for 2 blocks and 3 + 1 layers,
    # and 16 bytes for each of the 6 x 71 count vectors
    need = 8 * 6 * 2 * (2 + 3 + 1) + 16 * 6 * 71
    for budget, fits in ((need, True), (need - 1, False)):
        with mock.patch.object(solver, "_FIT_BYTES", budget):
            assert (fit(jobs, [3 * 65 + 2 + 1, 3 * 5 + 2 * 4 + 1 * 2]) is not None) == fits


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
    with mock.patch.object(solver, "_DP_CELL_LIMIT", 0):
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
