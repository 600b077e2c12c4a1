"""The interval-state graph and its shortest path sweep.

Vertices are (interval, state) pairs: v(1, off), v(i, s) for every interval
i in 2..h and state s, and v(h+1, off). An edge v(i, s) -> v(i+t, sp)
exists for every allowed transition (s, sp) of time t that completes by the
start of the last interval, weighted by the cost of the intervals it covers
times its power. Two boundary (off, off) edges tie the off runs to the
horizon ends. Time-0 transitions give weight-0 edges that stay at the same
interval index, so all weights are non-negative and paths never move
backwards in time.

So every shortest path is a sweep in interval order, closing the zero-time
edges at each interval. `sweep_labels` is that sweep from one source over
states, into a flat list of labels: `sssp` turns it into a `DistanceMap`
for tests and oracles, and `shortest_path` walks it back from one target,
which is how `spaces.switching_path` bridges a gap. The phi table
is the same recurrence run the other way: `spaces.compute_spaces` sweeps
backward from every gap end at once, over zero-time classes, the sets of
states that reach each other by time-0 edges, in blocks of intervals
whose min-plus steps it composes. The classes, their time-0 pairs and
their merged steps are one cached `class_plan`, which the solver's band
DP sweeps one interval at a time (`ClassPlan.pull`).

Which vertices a path reaches depends only on transition times, never on
prices: inside the horizon, v(k, s) reaches v(k+d, sp) exactly when some
chain of transitions takes s to sp in at most d intervals, since a stay of
time 1 pads any chain. `proc_window` therefore needs no sweep, only the
shortest switch-on and switch-off times from `model.switch_times`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (InfeasibleError, InputError, Instance, MachineStateSet, StatePair,
                    require_valid, switch_times, zero_time_closure)

Vertex = tuple[int, str]
OFF, PROC = MachineStateSet.off_state, MachineStateSet.proc_state

INF = np.int64(2) ** 62  # unreachable sentinel; far above any real distance


class ClassPlan(NamedTuple):
    """What a backward sweep over zero-time classes reads of the machine
    (`IntervalStateGraph.class_plan`). A class is a set of states that
    reach each other by time-0 transitions, so once the closure at an
    interval is done all of its states hold one cost."""

    off: int  # the class of off
    proc: int  # the class of proc
    # (c, cp) where c reaches cp by time-0 chains and not back: transitively
    # closed, so one minimum per pair closes an interval in any order
    zero: list[tuple[int, int]]
    # each class's positive-time steps (time, class reached, weights),
    # shortest first, where weights[k - 1] is the cost of a step that
    # starts at interval k; steps between the same two classes with the
    # same time are merged at their cheapest power
    out: list[list[tuple[int, int, list[int]]]]

    def ring(self, width: int | tuple[int, ...], fill: int, dtype) -> list[list[np.ndarray]]:
        """Cost rows for a backward sweep in dtype, all fill, the value
        that stands for no path: ring[k % len(ring)][c] is class c's row
        at interval k, kept while a step can reach it, of width entries or,
        for a tuple, of that shape. dtype must hold fill plus the weight
        of any path."""
        slots = max(t for steps in self.out for t, _cp, _w in steps) + 1
        return [[np.full(width, fill, dtype=dtype) for _ in self.out] for _ in range(slots)]

    def pull(self, ring: list[list[np.ndarray]], k: int, cols: slice, last: int,
             tmp: np.ndarray, fill: int) -> list[np.ndarray]:
        """Every class's row at interval k over cols, written in place in
        the ring: the cheapest of its steps that end by interval last,
        each read from the row of the class it reaches where it ends, fill
        where none does. The first step writes the row and later ones are
        min-ed into it, and a step of weight 0 (power 0, or intervals that
        cost nothing) adds nothing. tmp is scratch as long as the rows, in
        the ring's type."""
        slots = len(ring)
        cur = [row[cols] for row in ring[k % slots]]
        for row, steps in zip(cur, self.out):
            first = True
            for t, cp, weights in steps:
                if k + t > last:
                    break
                nxt, w = ring[(k + t) % slots][cp][cols], weights[k - 1]
                if first:
                    if w:
                        np.add(nxt, w, out=row)
                    else:
                        row[:] = nxt
                    first = False
                elif w:
                    np.minimum(row, np.add(nxt, w, out=tmp), out=row)
                else:
                    np.minimum(row, nxt, out=row)
            if first:
                row.fill(fill)
        return cur

    def close(self, cur: list[np.ndarray]) -> None:
        """The time-0 closure at one interval: each class takes the
        minimum of every class it reaches by time-0 chains."""
        for c, cp in self.zero:
            np.minimum(cur[c], cur[cp], out=cur[c])


@dataclass
class IntervalStateGraph:
    """The interval-state graph of an instance, read off the instance
    itself. The explicit vertex and edge lists are built on first read and
    then cached; only oracles and drawings need them."""

    inst: Instance

    @property
    def horizon(self) -> int:
        return self.inst.horizon

    @property
    def states(self) -> tuple[str, ...]:
        return self.inst.state_set.states

    @property
    def off_index(self) -> int:
        return self.inst.state_set.index(OFF)

    @property
    def proc_index(self) -> int:
        return self.inst.state_set.index(PROC)

    @cached_property
    def steps(self) -> list[tuple[int, int, int, int]]:
        """Allowed transitions as (s, sp, time, power) with state indices,
        sorted by (s, sp)."""
        index = self.inst.state_set.index
        return sorted((index(s), index(sp), t, pw)
                      for (s, sp), (t, pw) in self.inst.transitions.entries.items())

    @cached_property
    def vertices(self) -> list[Vertex]:
        h = self.horizon
        return [(1, OFF), *((i, s) for i in range(2, h + 1) for s in self.states), (h + 1, OFF)]

    @cached_property
    def edges(self) -> list[tuple[Vertex, Vertex, int]]:
        h, C, names, off = self.horizon, self.inst.cost_prefix, self.states, self.off_index
        return [((i, names[s]), (i + t, names[sp]), (C[i + t - 1] - C[i - 1]) * pw)
                for i in range(1, h + 1) for s, sp, t, pw in self.steps
                if 2 <= i and i + t <= h or s == sp == off and i in (1, h)]

    @cached_property
    def sweep_plan(self) -> tuple[tuple[str, ...], list[int], tuple[list, list, list]]:
        """What `sweep_labels` reads of the machine: the state names in
        sorted order, each state's rank in it, and the (time, r, rp, power)
        steps over ranks that leave the first, an inner and the last
        interval. Zero-time steps stay on the interval; an optimal chain
        of them visits each state at most once, so nS - 1 rounds of them
        come first wherever they apply. From the first and the last
        interval only the (off, off) stay moves on."""
        names = tuple(sorted(self.states))
        rank = [names.index(s) for s in self.states]
        steps = [(t, rank[s], rank[sp], pw) for s, sp, t, pw in self.steps]
        zero = [step for step in steps if step[0] == 0] * (len(names) - 1)
        off = rank[self.off_index]
        boundary = [(1, off, off, self.inst.transitions.power(OFF, OFF))]
        inner = zero + [step for step in steps if step[0] >= 1]
        return names, rank, (boundary, inner, zero + boundary)

    @cached_property
    def class_plan(self) -> ClassPlan:
        """The machine's zero-time classes, the time-0 pairs between them
        and their merged positive-time steps, weighted at every interval:
        what the phi sweep and the solver's band DP read. Two states
        share a class exactly when they reach the same states at time 0.
        Costs and powers are non-negative, so merging steps at their
        cheapest power keeps the cheapest weight."""
        reach = zero_time_closure(self.inst)
        class_id: dict[frozenset[str], int] = {}
        cls = [class_id.setdefault(frozenset(reach[s]), len(class_id)) for s in self.states]
        index = self.inst.state_set.index
        zero = sorted({(cls[index(s)], cls[index(sp)]) for s in self.states for sp in reach[s]
                       if cls[index(s)] != cls[index(sp)]})
        power: dict[tuple[int, int, int], int] = {}
        for s, sp, t, pw in self.steps:
            if t >= 1:
                key = (cls[s], cls[sp], t)
                power[key] = min(pw, power.get(key, pw))
        h = self.horizon
        C = np.asarray(self.inst.cost_prefix, dtype=np.int64)
        out: list[list[tuple[int, int, list[int]]]] = [[] for _ in class_id]
        for (c, cp, t), pw in sorted(power.items(), key=lambda item: item[0][2]):
            out[c].append((t, cp, ((C[t:] - C[:h + 1 - t]) * pw).tolist()))
        return ClassPlan(cls[self.off_index], cls[self.proc_index], zero, out)

    def source_vertex(self, i: int) -> Vertex:
        """Start vertex of the gap after interval i: on the off boundary for
        i = 1, otherwise in proc right after the interval."""
        return (2, OFF) if i == 1 else (i + 1, PROC)

    def target_vertex(self, ip: int) -> Vertex:
        """End vertex of the gap before interval ip: on the off boundary for
        ip = h, otherwise in proc at the start of the interval."""
        return (ip, OFF if ip == self.horizon else PROC)


def build_graph(inst: Instance) -> IntervalStateGraph:
    return IntervalStateGraph(require_valid(inst))


@dataclass
class DistanceMap:
    """Shortest distances from one source; unreachable vertices are absent.

    pred holds the shortest path tree: pred[v] = (previous vertex, step),
    with ties broken toward fewer edges and then smaller vertices, which
    compare as (interval, state name), so path reconstruction is
    deterministic.
    """

    source: Vertex
    dist: dict[Vertex, int]
    pred: dict[Vertex, tuple[Vertex, StatePair]] = field(repr=False, default_factory=dict)

    def get(self, v: Vertex) -> int | None:
        return self.dist.get(v)


def sweep_labels(g: IntervalStateGraph, source: Vertex,
                 last: int | None = None) -> list[tuple[int, int, int] | None]:
    """Shortest path labels from source by one sweep in interval order;
    with last, only vertices of intervals up to last are settled.

    Labels live in one flat list indexed by (k - k_source) * nS + r, where
    r ranks the states in name order (`sweep_plan`), so comparing two
    indices compares the vertices as (interval, state name). A label is
    (distance, edges, index of the predecessor or -1), None where nothing
    arrives; the smaller label wins, so ties break toward fewer edges and
    then smaller vertices.
    """
    h = g.horizon
    names, rank, (first, inner, closing) = g.sweep_plan
    n_s = len(names)
    k0 = int(source[0])
    end = h + 1 if last is None else min(h + 1, last)
    # C[j + t] - C[j] is the cost of the t intervals that start at k0 + j
    C = g.inst.cost_prefix[k0 - 1:end + 1]
    labels: list[tuple[int, int, int] | None] = [None] * (max(0, end - k0 + 1) * n_s)
    if labels:
        labels[rank[g.states.index(source[1])]] = (0, 0, -1)
    for k in range(k0, min(h, end) + 1):
        j = k - k0
        u0 = j * n_s
        moves, reach = ((inner, min(h, end) - k) if 1 < k < h
                        else (first if k == 1 else closing, end - k))
        for t, r, rp, pw in moves:
            lab = labels[u0 + r]
            if lab is not None and t <= reach:
                v = u0 + t * n_s + rp
                offer = (lab[0] + (C[j + t] - C[j]) * pw, lab[1] + 1, u0 + r)
                if labels[v] is None or offer < labels[v]:
                    labels[v] = offer
    return labels


def sssp(g: IntervalStateGraph, source: Vertex, last: int | None = None) -> DistanceMap:
    """Shortest paths from source, `sweep_labels` as a DistanceMap; with
    last, only vertices of intervals up to last are settled."""
    h = g.horizon
    if source not in ((1, OFF), (h + 1, OFF)) and not (
            isinstance(source, tuple) and len(source) == 2 and source[1] in g.states
            and isinstance(source[0], (int, np.integer)) and 2 <= source[0] <= h):
        raise InputError(f"unknown vertex {source!r}")

    labels = sweep_labels(g, source, last)
    names = g.sweep_plan[0]
    n_s = len(names)
    k0 = int(source[0])
    verts = [(k0 + x // n_s, name) for x in range(0, len(labels), n_s) for name in names]
    reached = [(verts[x], lab) for x, lab in enumerate(labels) if lab is not None]
    return DistanceMap(source=source, dist={v: lab[0] for v, lab in reached},
                       pred={v: (verts[lab[2]], (verts[lab[2]][1], v[1]))
                             for v, lab in reached if lab[2] >= 0})


def shortest_path(g: IntervalStateGraph, source: Vertex,
                  target: Vertex) -> tuple[int, list[StatePair]] | None:
    """Distance and transition steps from source to target, walked back
    along the predecessor indices of one `sweep_labels` run stopped at
    target's interval; None when target is not reached. The steps are
    the ones the predecessor map of the same `sssp` gives."""
    labels = sweep_labels(g, source, last=target[0])
    names, rank = g.sweep_plan[:2]
    n_s = len(names)
    x = (target[0] - source[0]) * n_s + rank[g.states.index(target[1])]
    if not 0 <= x < len(labels) or labels[x] is None:
        return None
    dist = labels[x][0]
    steps: list[StatePair] = []
    while (u := labels[x][2]) >= 0:
        steps.append((names[u % n_s], names[x % n_s]))
        x = u
    steps.reverse()
    return dist, steps


def proc_window(g: IntervalStateGraph) -> tuple[int, int]:
    """(t_on, t_off): the earliest and latest interval in which the machine
    can be processing, given it starts and ends the horizon in off.

    Which vertices a path reaches does not depend on prices, so the window
    is the horizon less the shortest switch-on and switch-off times."""
    h = g.horizon
    d_on = switch_times(g.inst.transitions, g.states, OFF).get(PROC)
    d_off = switch_times(g.inst.transitions, g.states, PROC).get(OFF)
    if h < 2 or d_on is None or d_off is None or h - 1 - d_off < 2 + d_on:
        raise InfeasibleError("no feasible processing window")
    return 2 + d_on, h - 1 - d_off


def to_dot(g: IntervalStateGraph) -> str:
    """DOT text for visual inspection of small graphs."""
    lines = ["digraph interval_state {", "  rankdir=LR;"]
    for i, s in g.vertices:
        lines.append(f'  "{i}:{s}";')
    for (i, s), (ip, sp), w in g.edges:
        lines.append(f'  "{i}:{s}" -> "{ip}:{sp}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
