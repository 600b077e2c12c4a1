"""Ten acceptance checks, one test per criterion, each printing a single
pass or fail line under pytest -v.

The last check drives an external mixed-integer solver and is skipped
when that solver is unavailable.
"""

import random
import time

import numpy as np
import pytest

from tousched import (
    build_graph,
    compute_spaces,
    emit_ilp_spaces,
    expand_space,
    generate_family,
    generate_instance,
    import_solution,
    preset_nosby,
    preset_twosby,
    proc_window,
    solve_exact,
    validate_schedule,
)
from tousched.model import InfeasibleError

from conftest import WORKED_TEC, lp_to_arrays, random_instance, worked_instance
from oracles import apsp_oracle, brute_force_schedule, brute_force_switching


def pipeline_table(inst):
    return compute_spaces(inst, build_graph(inst))


def block_placements(jobs, lo, hi):
    """Every placement of the jobs, in any order and without overlap, inside
    intervals lo..hi, as its (start, end) blocks in interval order."""
    if not jobs:
        yield []
        return
    for k, p in enumerate(jobs):
        if p in jobs[:k]:
            continue  # an equal length earlier in the list gives the same blocks
        rest = jobs[:k] + jobs[k + 1:]
        for start in range(lo, hi - p - sum(rest) + 2):
            for tail in block_placements(rest, start + p, hi):
                yield [(start, start + p - 1)] + tail


def placement_gaps(blocks, h):
    """The gaps assemble_schedule derives for the blocks: the root gap from
    interval 1, one between blocks that do not touch, and the trailing gap."""
    gaps, prev_end = [], 1
    for k, (start, end) in enumerate(blocks):
        if k == 0 or start > prev_end + 1:
            gaps.append((prev_end, start))
        prev_end = end
    return gaps + [(prev_end, h)]


def endpoint_states(i, ip, h):
    s = "off" if i == 1 else "proc"
    sp = "off" if ip == h else "proc"
    return s, sp


def test_criterion_01_worked_example_optimum():
    inst = worked_instance()
    t0 = time.perf_counter()
    res = solve_exact(inst, pipeline_table(inst))
    elapsed = time.perf_counter() - t0
    assert res.status == "optimal"
    assert res.tec == WORKED_TEC
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_switching_cost_and_expansion():
    inst = worked_instance()
    tab = pipeline_table(inst)
    assert tab.phi(4, 10) == 48
    labels = expand_space(tab, 4, 10)
    assert len(labels) == 5
    priced = sum(inst.costs[k - 1] * inst.transitions.power(*lab)
                 for k, lab in enumerate(labels, start=5))
    assert priced == 48


def test_criterion_03_processing_window():
    inst = worked_instance()
    assert proc_window(build_graph(inst)) == (4, 14)


def test_criterion_04_phi_matches_all_pairs_oracle():
    rng = random.Random(104)
    t0 = time.perf_counter()
    checked = 0
    while checked < 100:
        inst = random_instance(rng, n_max=3, h_max=30, max_extra=2,
                               require_room=False)
        g = build_graph(inst)
        try:
            tab = compute_spaces(inst, g)
        except InfeasibleError:
            continue
        oracle = apsp_oracle(g)
        h = inst.horizon
        for i in range(1, h):
            for ip in range(i + 1, h + 1):
                # None on both sides where no switching exists
                src = (2, "off") if i == 1 else (i + 1, "proc")
                dst = (h, "off") if ip == h else (ip, "proc")
                got, want = tab.phi(i, ip), oracle.get(src, dst)
                assert got == want, (checked, i, ip, got, want)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_05_phi_matches_exhaustive_enumeration():
    rng = random.Random(105)
    checked = 0
    while checked < 50:
        inst = random_instance(rng, n_max=2, h_max=10, max_extra=1,
                               require_room=False)
        try:
            tab = compute_spaces(inst, build_graph(inst))
        except InfeasibleError:
            continue
        h = inst.horizon
        for i in range(1, h):
            for ip in range(i + 1, h + 1):
                s, sp = endpoint_states(i, ip, h)
                want = brute_force_switching(inst, i, ip, s, sp)
                assert tab.phi(i, ip) == want, (checked, i, ip)
        checked += 1


def test_criterion_06_solver_matches_brute_force():
    rng = random.Random(106)
    t0 = time.perf_counter()
    solved = 0
    for _ in range(50):
        inst = random_instance(rng, n_max=4, h_max=18, require_room=False)
        try:
            tab = pipeline_table(inst)
        except InfeasibleError:
            continue
        got = solve_exact(inst, tab)
        want = brute_force_schedule(inst, tab)
        assert got.status == want.status
        if got.status == "optimal":
            assert got.tec == want.tec
            solved += 1
    assert solved >= 25  # the draw must actually exercise the solver
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_pruning_is_neutral():
    # The export always leaves the flagged gaps out. That loses no feasible
    # schedule because no placement of the jobs inside the window, in any
    # order, needs a flagged gap, with or without instantaneous transitions.
    rng = random.Random(107)
    placements = flagged = zero_time = 0
    for _ in range(400):
        inst = random_instance(rng, n_max=4, h_max=14, max_extra=2)
        zero_time += any(t == 0 for t, _pw in inst.transitions.entries.values())
        tab = pipeline_table(inst)
        mask = tab.pruned_mask
        flagged += int(mask.sum())
        t_on, t_off = tab.window
        for blocks in block_placements(list(inst.jobs), t_on, t_off):
            used = [gap for gap in placement_gaps(blocks, inst.horizon) if mask[gap]]
            assert not used, (inst, blocks, used)
            placements += 1
    assert placements > 5_000 and flagged > 10_000 and zero_time > 100


def test_criterion_08_preprocessing_scale_and_parallelism():
    # seed 10 draws 190 processing times summing to 577, putting the
    # largest family member at h = 1275
    fam = generate_family(190, preset_twosby(), seed=10)
    inst = fam[-1]
    assert abs(inst.horizon - 1277) <= 5
    g = build_graph(inst)
    t0 = time.perf_counter()
    compute_spaces(inst, g)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_generator_reproduces_reference_rows():
    fam = generate_family(30, preset_nosby(), seed=7)
    assert sum(fam[0].jobs) == 77
    assert [inst.horizon for inst in fam] == [104, 127, 150, 173]
    for preset, seed in [(preset_nosby(), 7), (preset_nosby(), 1),
                         (preset_nosby(), 2), (preset_twosby(), 10)]:
        fam = generate_family(25 if seed != 10 else 190, preset, seed=seed)
        longest = fam[-1].costs
        for inst in fam:
            assert inst.jobs == fam[0].jobs
            assert inst.costs == longest[:inst.horizon]


def test_criterion_10_model_round_trip_via_external_milp():
    scipy_opt = pytest.importorskip("scipy.optimize")
    cases = [(preset_nosby, 3, "1.6", 31), (preset_nosby, 5, "1.3", 32),
             (preset_nosby, 8, "2.2", 33), (preset_nosby, 12, "1.9", 34),
             (preset_nosby, 30, "1.3", 7), (preset_twosby, 4, "1.3", 35),
             (preset_twosby, 6, "1.6", 36), (preset_twosby, 9, "1.9", 37),
             (preset_twosby, 12, "2.2", 38)]
    for preset, n, multiple, seed in cases:
        inst = generate_instance(n, preset(), multiple, seed=seed)
        tab = pipeline_table(inst)
        exact = solve_exact(inst, tab)
        assert exact.status == "optimal"
        art = emit_ilp_spaces(inst, tab)
        names, c, rows, rhs = lp_to_arrays(art.lp_text)
        res = scipy_opt.milp(
            c=c,
            constraints=scipy_opt.LinearConstraint(rows, rhs, rhs),
            integrality=np.ones(len(names)),
            bounds=scipy_opt.Bounds(0, 1),
        )
        assert res.status == 0, (preset.__name__, n, seed, res.message)
        assert round(res.fun) + art.constant_term == exact.tec
        back = import_solution(inst, tab, art,
                               dict(zip(names, res.x)))
        assert back.status == "imported"
        assert back.tec == exact.tec
        assert validate_schedule(inst, back.schedule) == []
