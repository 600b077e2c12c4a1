"""Test oracles: exhaustive enumeration and the all-pairs relaxation.

None of these run in the pipeline; they re-derive its answers by
independent, slow means on instances small enough to enumerate.
`brute_force_switching` prices one gap by walking every transition
sequence, `brute_force_schedule` tries every start assignment,
`apsp_oracle` relaxes all pairs of the interval-state graph's vertices,
and `tree_path` walks an `isg.sssp` predecessor map back from a target.
"""

from __future__ import annotations

import time

import numpy as np

from tousched.isg import DistanceMap, IntervalStateGraph, Vertex, build_graph
from tousched.model import (InfeasibleError, InputError, Instance, StatePair, compute_tec,
                            validate_schedule)
from tousched.solver import (SolveResult, SolveStats, _boundary_constant, _job_assignment,
                             assemble_schedule)
from tousched.spaces import SpacesTable, compute_spaces

_APSP_INF = np.int64(2) ** 61  # halved so sentinel + sentinel cannot overflow


def brute_force_switching(inst: Instance, i: int, ip: int, s: str, sp: str) -> int | None:
    """Cheapest cost of the gap body by exhaustive enumeration of every
    valid transition sequence from s after interval i to sp at interval ip.
    Guarded: gap body at most 12 intervals, at most 4 states."""
    h = inst.horizon
    states = inst.state_set.states
    if ip - i - 1 > 12 or len(states) > 4:
        raise InputError("resource guard: gap body <= 12 intervals and <= 4 states")
    if not 1 <= i < ip <= h:
        raise InputError(f"need 1 <= i < ip <= {h}, got ({i}, {ip})")
    tr = inst.transitions
    C = inst.cost_prefix
    best: int | None = None
    seen: set[tuple[int, str]] = set()

    def go(k: int, cur: str, acc: int) -> None:
        nonlocal best
        if best is not None and acc >= best:
            return
        if k == ip and cur == sp:
            best = acc
            return
        key = (k, cur)
        if key in seen:
            return
        seen.add(key)
        for nxt in states:
            if nxt == cur:
                continue
            t = tr.time(cur, nxt)
            if t == 0:
                go(k, nxt, acc)
        if k < ip:
            for nxt in states:
                t = tr.time(cur, nxt)
                if t is None or t == 0 or k + t > ip:
                    continue
                w = (C[k + t - 1] - C[k - 1]) * tr.power(cur, nxt)
                go(k + t, nxt, acc + w)
        seen.discard(key)

    go(i + 1, s, 0)
    return best


def brute_force_schedule(inst: Instance, table: SpacesTable | None = None,
                         evaluator: str = "phi") -> SolveResult:
    """Optimal schedule by enumerating every start assignment; the testing
    oracle for the exact solver. Guarded: at most 5 jobs, horizon 20.

    evaluator selects how gap costs are priced: "phi" reads the table,
    "bruteforce" re-derives each gap by exhaustive enumeration.
    """
    t0 = time.monotonic()
    if inst.n_jobs > 5 or inst.horizon > 20:
        raise InputError("resource guard: at most 5 jobs and horizon 20")
    if evaluator not in ("phi", "bruteforce"):
        raise InputError(f"unknown evaluator {evaluator!r}")

    def done(status, tec=None, sched=None, states=0) -> SolveResult:
        return SolveResult(tec=tec, schedule=sched, status=status,
                           stats=SolveStats(states=states, wall_time=time.monotonic() - t0,
                                            lower_bound=tec, stop_reason=status))

    if table is None:
        try:
            table = compute_spaces(inst, build_graph(inst))
        except InfeasibleError:
            return done("infeasible")
    h = inst.horizon
    t_on, t_off = table.window
    off = inst.state_set.off_state
    proc = inst.state_set.proc_state
    const = _boundary_constant(inst)

    def gap_cost(e: int, s2: int) -> int | None:
        if evaluator == "phi":
            return table.phi(e, s2)
        return brute_force_switching(inst, e, s2,
                                     off if e == 1 else proc,
                                     off if s2 == h else proc)

    p_proc = inst.transitions.power(proc, proc)
    Cp = inst.cost_prefix
    flat = sorted(inst.jobs)  # equal lengths adjacent, so symmetry breaks below
    best: int | None = None
    best_pieces: list[tuple[int, int]] | None = None
    evaluated = 0

    def evaluate(pieces: list[tuple[int, int]]) -> int | None:
        cost = gap_cost(1, pieces[0][0])
        if cost is None:
            return None
        for idx, (a, p) in enumerate(pieces):
            e = a + p - 1
            cost += (Cp[e] - Cp[a - 1]) * p_proc
            s2 = pieces[idx + 1][0] if idx + 1 < len(pieces) else h
            if idx + 1 < len(pieces) and s2 == e + 1:
                continue  # merged blocks, no gap
            gp = gap_cost(e, s2)
            if gp is None:
                return None
            cost += gp
        return cost + const

    def place(idx: int, taken: list[tuple[int, int]]) -> None:
        nonlocal best, best_pieces, evaluated
        if idx == len(flat):
            evaluated += 1
            pieces = sorted(taken)
            tec = evaluate(pieces)
            if tec is not None and (best is None or tec < best):
                best = tec
                best_pieces = pieces
            return
        p = flat[idx]
        floor = t_on
        if idx > 0 and flat[idx - 1] == p:
            floor = taken[-1][0] + 1  # ascending starts among equal lengths
        for a in range(floor, t_off - p + 2):
            if any(a < b + q and b < a + p for b, q in taken):
                continue
            taken.append((a, p))
            place(idx + 1, taken)
            taken.pop()

    place(0, [])

    if best is None or best_pieces is None:
        return done("infeasible", states=evaluated)
    sched = assemble_schedule(inst, _job_assignment(inst, best_pieces), table)
    tec = compute_tec(inst, sched)
    if tec != best:
        raise RuntimeError(f"assembled schedule costs {tec}, enumeration found {best}")
    if validate_schedule(inst, sched):
        raise RuntimeError("enumerated optimum fails feasibility checks")
    return done("optimal", tec=best, sched=sched, states=evaluated)


class ApspResult:
    """All-pairs distances with mapping-style access; unreachable pairs
    return None from get and raise KeyError from indexing."""

    def __init__(self, index: dict[Vertex, int], dist: np.ndarray):
        self._index = index
        self._dist = dist

    def get(self, u: Vertex, v: Vertex) -> int | None:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return None
        d = self._dist[iu, iv]
        return None if d >= _APSP_INF else int(d)

    def __getitem__(self, pair: tuple[Vertex, Vertex]) -> int:
        d = self.get(*pair)
        if d is None:
            raise KeyError(pair)
        return d


def apsp_oracle(g: IntervalStateGraph, max_vertices: int = 2000) -> ApspResult:
    """All-pairs shortest distances by the cubic relaxation scheme; a
    testing oracle, guarded against large graphs."""
    n = len(g.vertices)
    if n > max_vertices:
        raise InputError(f"graph has {n} vertices, oracle limit is {max_vertices}")
    index = {v: k for k, v in enumerate(g.vertices)}
    # The sentinel is far above any real distance yet small enough that
    # sentinel + sentinel stays inside int64 during the relaxation.
    dist = np.full((n, n), _APSP_INF, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v, w in g.edges:
        iu, iv = index[u], index[v]
        if w < dist[iu, iv]:
            dist[iu, iv] = w
    for k in range(n):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    return ApspResult(index, dist)


def tree_path(dm: DistanceMap, target: Vertex) -> list[StatePair] | None:
    """Transition steps along the shortest path tree, source to target."""
    if target not in dm.dist:
        return None
    steps: list[StatePair] = []
    v = target
    while v != dm.source:
        v, step = dm.pred[v]
        steps.append(step)
    steps.reverse()
    return steps
