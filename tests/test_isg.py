import dataclasses
import hashlib
import heapq
import random
from collections import Counter

import pytest

from tousched import (
    Instance,
    InputError,
    MachineStateSet,
    TransitionSpec,
    apsp_oracle,
    build_graph,
    proc_window,
    sssp,
    to_dot,
)
from tousched import isg
from tousched.datagen import MachinePreset, switch_durations
from tousched.isg import tree_path
from tousched.model import InfeasibleError, validate_instance

from conftest import (WORKED_WINDOW, arbitrary_machine, nosby_instance, preset_nosby,
                      preset_twosby, random_instance, random_machine)


def lex_dijkstra_oracle(edges, source):
    """Plain-dict shortest paths over an explicit edge list, written
    independently of the package graph structures. Labels are
    (distance, edges) pairs compared lexicographically."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
    best = {source: (0, 0)}
    heap = [(0, 0, repr(source), source)]
    while heap:
        d, hops, _, u = heapq.heappop(heap)
        if (d, hops) > best[u]:
            continue
        for v, w in adj.get(u, ()):
            label = (d + w, hops + 1)
            if v not in best or label < best[v]:
                best[v] = label
                heapq.heappush(heap, (*label, repr(v), v))
    return best


def dijkstra_oracle(edges, source):
    return {v: d for v, (d, _hops) in lex_dijkstra_oracle(edges, source).items()}


def oracle_pred(edges, labels, source):
    """The documented tie-break: among the edges that realize a vertex's
    (distance, edges) label, the one from the smallest vertex, compared
    as (interval, state name)."""
    pred = {}
    for u, v, w in edges:
        if v == source or u not in labels or v not in labels:
            continue
        if labels[v] == (labels[u][0] + w, labels[u][1] + 1):
            if v not in pred or u < pred[v][0]:
                pred[v] = (u, (u[1], v[1]))
    return pred


def tie_heavy_instance(rng, inst):
    """The same machine with its states listed in a random order, so index
    order and name order disagree, over zero and unit prices, so many
    paths tie on cost and the tie-break decides."""
    states = list(inst.state_set.states)
    rng.shuffle(states)
    costs = tuple(rng.choice((0, 0, 1)) for _ in range(inst.horizon))
    return Instance(inst.horizon, costs, inst.jobs, MachineStateSet(tuple(states)),
                    inst.transitions)


def test_worked_graph_shape(worked):
    g = build_graph(worked)
    # boundary vertices plus one vertex per (interval, state) from 2..h
    assert len(g.vertices) == 1 + (worked.horizon - 1) * 3 + 1
    assert (1, "off") in g.vertices
    assert (worked.horizon + 1, "off") in g.vertices
    assert (5, "idle") in g.vertices


def test_worked_boundary_edges(worked):
    g = build_graph(worked)
    weights = {(u, v): w for u, v, w in g.edges}
    # the off stays on the boundary intervals price those intervals
    p_off = worked.transitions.power("off", "off")
    assert weights[((1, "off"), (2, "off"))] == worked.costs[0] * p_off
    assert weights[((16, "off"), (17, "off"))] == worked.costs[15] * p_off


def test_edges_respect_interior_deadline(worked):
    g = build_graph(worked)
    h = worked.horizon
    for (i, s), (ip, sp), w in g.edges:
        t = worked.transitions.time(s, sp)
        if (i, s) == (1, "off") or (ip, sp) == (h + 1, "off"):
            continue  # boundary stays are the only edges touching 1 or h+1
        assert ip == i + t
        assert (i - 1) + t <= h - 1, ((i, s), (ip, sp))


def test_edge_weights_price_covered_intervals(worked):
    g = build_graph(worked)
    for (i, s), (ip, sp), w in g.edges:
        pw = worked.transitions.power(s, sp)
        t = worked.transitions.time(s, sp)
        if (i, s) == (1, "off") or (ip, sp) == (17, "off"):
            continue
        covered = sum(worked.costs[k - 1] for k in range(i, i + t))
        assert w == covered * pw


def test_zero_duration_edges_stay_on_interval(worked):
    g = build_graph(worked)
    zero = [(u, v, w) for u, v, w in g.edges
            if worked.transitions.time(u[1], v[1]) == 0]
    assert zero, "the idle bridges should appear"
    for (i, s), (ip, sp), w in zero:
        assert i == ip and w == 0


def test_build_graph_rejects_invalid_instance(worked):
    bad = Instance(16, worked.costs[:-1], worked.jobs, worked.state_set,
                   worked.transitions)
    with pytest.raises(InputError):
        build_graph(bad)


def price_steps(inst, first_interval, steps):
    """Independently price a transition sequence applied from an interval."""
    total, i = 0, first_interval
    for s, sp in steps:
        t = inst.transitions.time(s, sp)
        pw = inst.transitions.power(s, sp)
        total += sum(inst.costs[k - 1] for k in range(i, i + t)) * pw
        i += t
    return total, i


def test_sssp_worked_distances(worked):
    g = build_graph(worked)
    dm = sssp(g, (2, "off"))
    # entering processing at interval 4 costs the cheapest ramp-up
    assert dm.dist[(4, "proc")] == 24
    steps = tree_path(dm, (4, "proc"))
    assert steps == [("off", "proc")]
    total, end = price_steps(worked, 2, steps)
    assert total == 24 and end == 4
    # consecutive steps join up state to state
    for (_, b), (c, _) in zip(steps, steps[1:]):
        assert b == c
    assert tree_path(dm, (3, "idle")) is None


def test_sssp_matches_independent_dijkstra():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, n_max=3, h_max=14, require_room=False)
        g = build_graph(inst)
        src = g.vertices[rng.randrange(len(g.vertices))]
        dm = sssp(g, src)
        want = dijkstra_oracle(g.edges, src)
        got = {v: int(d) for v, d in dm.dist.items()}
        assert got == want


def test_apsp_matches_sssp():
    rng = random.Random(6)
    for _ in range(10):
        inst = random_instance(rng, n_max=3, h_max=12, require_room=False)
        g = build_graph(inst)
        oracle = apsp_oracle(g)
        for src in g.vertices[::3]:
            dm = sssp(g, src)
            for v in g.vertices:
                assert oracle.get(src, v) == (int(dm.dist[v]) if v in dm.dist else None)


def test_sssp_predecessors_follow_tie_break():
    rng = random.Random(11)
    for k in range(60):
        if k % 3 == 0:
            inst = nosby_instance(rng, n_max=2, h_max=14)  # idle < off < proc by name
        else:
            inst = random_instance(rng, n_max=3, h_max=14, max_extra=3, require_room=False)
        g = build_graph(tie_heavy_instance(rng, inst))
        for src in rng.sample(g.vertices, 3):
            labels = lex_dijkstra_oracle(g.edges, src)
            dm = sssp(g, src)
            assert dm.dist == {v: d for v, (d, _hops) in labels.items()}
            assert dm.pred == oracle_pred(g.edges, labels, src)


def test_sssp_last_restricts_unbounded_run():
    rng = random.Random(12)
    for _ in range(30):
        inst = random_instance(rng, n_max=3, h_max=16, max_extra=3, require_room=False)
        g = build_graph(inst)
        src = g.vertices[rng.randrange(len(g.vertices))]
        full = sssp(g, src)
        for last in range(src[0], inst.horizon + 2):
            part = sssp(g, src, last=last)
            assert part.dist == {v: d for v, d in full.dist.items() if v[0] <= last}
            assert part.pred == {v: p for v, p in full.pred.items() if v[0] <= last}


def test_sssp_rejects_unknown_source(worked):
    g = build_graph(worked)
    for bad in [(1, "proc"), (17, "idle"), (18, "off"), (5, "standby"), "x"]:
        with pytest.raises(InputError):
            sssp(g, bad)


def test_apsp_guard():
    rng = random.Random(1)
    inst = nosby_instance(rng, n_max=2, h_max=12)
    g = build_graph(inst)
    with pytest.raises(InputError):
        apsp_oracle(g, max_vertices=3)


def test_apsp_indexing(worked):
    g = build_graph(worked)
    oracle = apsp_oracle(g)
    assert oracle[(2, "off"), (4, "proc")] == 24
    with pytest.raises(KeyError):
        oracle[(4, "proc"), (2, "off")]  # off ramp-down cannot go back in time


def test_proc_window_worked(worked):
    assert proc_window(build_graph(worked)) == WORKED_WINDOW


def test_proc_window_shrinks_with_slow_ramps():
    rng = random.Random(9)
    inst = nosby_instance(rng, n_max=2, h_max=16)
    t_on, t_off = proc_window(build_graph(inst))
    # the three-state preset needs two intervals to warm up and one to stop
    assert t_on == 4 and t_off == inst.horizon - 2


def test_proc_window_infeasible():
    from tousched import MachineStateSet, TransitionSpec
    states = MachineStateSet(("off", "proc"))
    trans = TransitionSpec({
        ("off", "off"): (1, 0),
        ("proc", "proc"): (1, 5),
        ("off", "proc"): (9, 4),
        ("proc", "off"): (9, 1),
    })
    inst = Instance(6, (1,) * 6, (1,), states, trans)
    with pytest.raises(InfeasibleError):
        proc_window(build_graph(inst))


def test_proc_window_crossing_is_infeasible():
    # switching on reaches proc at interval 5 at the earliest, but the
    # three-interval switch-off must start by interval 4 to be off by h = 7,
    # so processing has to end by interval 3
    states = MachineStateSet(("off", "proc"))
    trans = TransitionSpec({
        ("off", "off"): (1, 0),
        ("proc", "proc"): (1, 5),
        ("off", "proc"): (3, 4),
        ("proc", "off"): (3, 1),
    })
    inst = Instance(7, (1,) * 7, (1,), states, trans)
    g = build_graph(inst)
    assert min(i for i, s in sssp(g, (2, "off")).dist if s == "proc") == 5
    assert (7, "off") in sssp(g, (4, "proc")).dist
    assert (7, "off") not in sssp(g, (5, "proc")).dist
    with pytest.raises(InfeasibleError):
        proc_window(g)


def test_proc_window_on_flat_costs_is_switch_durations():
    rng = random.Random(13)
    machines = [(p.state_set, p.transitions) for p in (preset_nosby(), preset_twosby())]
    machines += [random_machine(rng, max_extra=3) for _ in range(40)]
    machines.append((MachineStateSet(("off", "proc")), TransitionSpec({
        ("off", "off"): (1, 0), ("proc", "proc"): (1, 5),
        ("off", "proc"): (2, 4), ("proc", "off"): (0, 0),  # instantaneous stop
    })))
    for states, trans in machines:
        d_on, d_off = switch_durations(MachinePreset("m", states, trans))
        h = 30
        inst = Instance(h, (1,) * h, (1,), states, trans)
        assert proc_window(build_graph(inst)) == (2 + d_on, h - 1 - d_off)


def two_sweep_window(g):
    """The window read off two label sweeps, or None when there is none:
    t_on is the first interval at which (2, off) reaches proc, and t_off
    is h + 1 - k for the first k in 2..h-1 at which (2, proc) reaches off,
    since below the last interval the edges depend only on interval
    differences."""
    h = g.horizon
    off, proc = g.states[g.off_index], g.states[g.proc_index]
    if h < 2:
        return None
    on = sssp(g, (2, off)).dist
    t_on = next((i for i in range(2, h + 1) if (i, proc) in on), None)
    off_run = sssp(g, (2, proc)).dist
    k = next((k for k in range(2, h) if (k, off) in off_run), None)
    t_off = None if k is None else h + 1 - k
    if t_on is None or t_off is None or t_off < t_on:
        return None
    return t_on, t_off


def test_proc_window_matches_two_sweeps_on_arbitrary_machines(monkeypatch):
    # validation is bypassed so that machines with no switch-on or no
    # switch-off chain reach proc_window too
    monkeypatch.setattr(isg, "require_valid", lambda inst: inst)
    rng = random.Random(53)
    kinds = Counter()
    for _ in range(2000):
        states, trans = arbitrary_machine(rng)
        h = rng.randint(1, 24)
        inst = Instance(h, tuple(rng.randint(0, 6) for _ in range(h)), (1,), states, trans)
        g = build_graph(inst)
        want = two_sweep_window(g)
        if want is None:
            kinds["no chain" if validate_instance(inst) else "no room"] += 1
            with pytest.raises(InfeasibleError):
                proc_window(g)
        else:
            kinds["window"] += 1
            assert proc_window(g) == want
    assert min(kinds["no chain"], kinds["no room"], kinds["window"]) >= 200


def test_to_dot_lists_vertices_and_edges(worked):
    g = build_graph(worked)
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"2:off"' in dot and "->" in dot and dot.rstrip().endswith("}")


def test_worked_dot_is_pinned(worked):
    # vertex and edge order follow state index order; this digest pins both
    dot = to_dot(build_graph(worked))
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "69d5afec76525a0abcb6957eacec05d2e71ec67b7258fc419cbf1646d23aed5e")


def test_graph_is_a_view_of_its_instance():
    rng = random.Random(29)
    for _ in range(30):
        inst = tie_heavy_instance(rng, random_instance(rng))
        g = build_graph(inst)
        assert [f.name for f in dataclasses.fields(g)] == ["inst"]
        ss = inst.state_set
        assert g.states == ss.states
        assert g.states[g.off_index] == "off" and g.states[g.proc_index] == "proc"
        index = ss.index
        assert g.steps == sorted((index(s), index(sp), t, pw)
                                 for (s, sp), (t, pw) in inst.transitions.entries.items())
        assert [(s, sp) for s, sp, _t, _pw in g.steps] == sorted(
            (index(s), index(sp)) for s, sp in inst.transitions.entries)
        assert g.steps is g.steps  # built once
