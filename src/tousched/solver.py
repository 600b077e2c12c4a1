"""Exact schedule search over the switching cost table.

The search is a memoized recursion over (interval, remaining jobs). Within
one contiguous processing block the job order never changes the cost (the
same intervals are covered either way), so only the multiset of remaining
processing times matters, not which job is which. Blocks either continue
back to back or are separated by a gap whose cost comes from the phi
table. Candidate gap ends are visited best-bound first with an admissible
bound (remaining work times processing power times the cheapest
still-reachable interval cost), which prunes without ever cutting the
optimum; memoized values are always fully resolved, so the search stays
exact. Each memo entry records the choice that reached its value, so the
schedule is read back from the entries without searching again; ties go
to the lexicographically smallest sequence of (start, length) pieces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .isg import build_graph
from .model import (InfeasibleError, InputError, Instance, Schedule, StatePair,
                    compute_tec, validate_schedule)
from .spaces import SpacesTable, _UNREACHABLE, compute_spaces, expand_space

_HUGE = int(_UNREACHABLE)


@dataclass(frozen=True)
class JobMultiset:
    """Remaining jobs as (processing time, count) pairs, sorted by time."""

    counts: tuple[tuple[int, int], ...]
    total: int

    @classmethod
    def from_jobs(cls, jobs) -> "JobMultiset":
        acc: dict[int, int] = {}
        for p in jobs:
            acc[p] = acc.get(p, 0) + 1
        counts = tuple(sorted(acc.items()))
        return cls(counts=counts, total=sum(p * c for p, c in counts))

    def remove(self, p: int) -> "JobMultiset":
        counts = tuple((q, c - 1 if q == p else c) for q, c in self.counts if not (q == p and c == 1))
        return JobMultiset(counts=counts, total=self.total - p)

    def distinct(self) -> list[int]:
        return [p for p, _c in self.counts]

    @property
    def empty(self) -> bool:
        return not self.counts


@dataclass
class SolveStats:
    states: int = 0
    wall_time: float = 0.0
    lower_bound: int | None = None


@dataclass
class SolveResult:
    tec: int | None
    schedule: Schedule | None
    status: str  # optimal | infeasible | timeout | imported
    stats: SolveStats = field(default_factory=SolveStats)


class _Deadline(Exception):
    pass


def _boundary_constant(inst: Instance) -> int:
    off = inst.state_set.off_state
    pw = inst.transitions.power(off, off)
    return (inst.costs[0] + inst.costs[-1]) * pw


def assemble_schedule(inst: Instance, placement: list[tuple[int, int]], table: SpacesTable,
                      spaces: list[tuple[int, int]] | None = None) -> Schedule:
    """Build the full (sigma, omega) pair from job placements and gaps.

    placement lists (job index, start interval). When spaces is omitted it
    is derived from the gaps between consecutive blocks plus the two
    boundary gaps; an explicit list lets callers keep gap splits that pass
    through proc instantaneously. Raises when the pieces do not tile the
    horizon exactly.
    """
    h = inst.horizon
    off = inst.state_set.off_state
    proc = inst.state_set.proc_state
    n = inst.n_jobs

    if sorted(j for j, _i in placement) != list(range(1, n + 1)):
        raise InfeasibleError("inconsistent placement: each job must appear exactly once")

    sigma = [0] * n
    blocks: list[tuple[int, int]] = []  # (start interval, end interval)
    for j, start in placement:
        p = inst.jobs[j - 1]
        sigma[j - 1] = start - 1
        blocks.append((start, start + p - 1))
    blocks.sort()

    if spaces is None:
        spaces = []
        prev_end = 1
        first = True
        for start, end in blocks:
            if first or start > prev_end + 1:
                spaces.append((prev_end, start))
            elif start != prev_end + 1:
                raise InfeasibleError("inconsistent placement: overlapping blocks")
            prev_end = end
            first = False
        spaces.append((prev_end, h))

    omega: list[StatePair | None] = [None] * h
    omega[0] = (off, off)
    omega[h - 1] = (off, off)

    def put(i: int, label: StatePair) -> None:
        if i < 1 or i > h or omega[i - 1] is not None:
            raise InfeasibleError(f"inconsistent placement: interval {i} labeled twice "
                                  f"or out of range")
        omega[i - 1] = label

    for start, end in blocks:
        for i in range(start, end + 1):
            put(i, (proc, proc))
    for i, ip in spaces:
        for k, label in enumerate(expand_space(table, i, ip), start=i + 1):
            put(k, label)

    if any(lab is None for lab in omega):
        missing = [i + 1 for i, lab in enumerate(omega) if lab is None]
        raise InfeasibleError(f"inconsistent placement: intervals {missing[:5]} uncovered")
    return Schedule(sigma=tuple(sigma), omega=tuple(omega))


def _job_assignment(inst: Instance, block_jobs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Turn (start, p) pieces into (job index, start) pairs, giving equal
    processing times ascending job indices by ascending start."""
    by_p: dict[int, list[int]] = {}
    for j, p in enumerate(inst.jobs, start=1):
        by_p.setdefault(p, []).append(j)
    for js in by_p.values():
        js.sort()
    placement = []
    for start, p in sorted(block_jobs):
        placement.append((by_p[p].pop(0), start))
    return placement


def solve_exact(inst: Instance, table: SpacesTable, time_limit: float | None = None) -> SolveResult:
    """Provably optimal schedule for the instance, or infeasible.

    Every memo entry stores its cost with the choice that reached it: f
    the job length placed next (negated when the next block follows
    without a gap), g the end of the gap. The root is the gap after
    interval 1, and the schedule is read back by walking these choices.
    Among equal-cost schedules the one whose (start, length) pieces,
    sorted by start, form the lexicographically smallest sequence wins.

    With a time limit, expiry yields the greedy incumbent plus an
    admissible lower bound under status "timeout".
    """
    t0 = time.monotonic()
    h = inst.horizon
    t_on, t_off = table.window
    phi = table.phi_matrix
    pruned = table.pruned_mask
    proc = inst.state_set.proc_state
    p_proc = inst.transitions.power(proc, proc)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    const = _boundary_constant(inst)

    full = JobMultiset.from_jobs(inst.jobs)
    sum_p = full.total

    def done(status: str, tec=None, sched=None, states=0, lb=None) -> SolveResult:
        return SolveResult(tec=tec, schedule=sched, status=status,
                           stats=SolveStats(states=states, wall_time=time.monotonic() - t0,
                                            lower_bound=lb))

    if t_off - t_on + 1 < sum_p:
        return done("infeasible")

    # cheapest interval cost from i through t_off, admissible for any
    # remaining processing placed at or after i
    suf_min = np.full(h + 2, _HUGE, dtype=np.int64)
    costs = np.asarray(inst.costs, dtype=np.int64)
    suf_min[1:t_off + 1] = np.minimum.accumulate(costs[:t_off][::-1])[::-1]

    deadline = None if time_limit is None else t0 + time_limit
    tick = 0

    def check_time() -> None:
        nonlocal tick
        tick += 1
        if deadline is not None and tick % 2048 == 0 and time.monotonic() > deadline:
            raise _Deadline

    def block_cost(i: int, p: int) -> int:
        return int(C[i + p - 1] - C[i - 1]) * p_proc

    def gap_ends(e: int, rem: JobMultiset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reachable, unpruned ends of the gap after e that leave room for
        rem, with phi and an admissible completion bound; only the gap
        after interval 1 may have an empty body."""
        lo, hi = (2 if e == 1 else e + 2), t_off - rem.total + 1
        seg = phi[e, lo:hi + 1]
        ok = np.nonzero((seg < _UNREACHABLE) & ~pruned[e, lo:hi + 1])[0]
        return lo + ok, seg[ok], seg[ok] + rem.total * p_proc * suf_min[lo + ok]

    f_memo: dict[tuple[int, tuple], tuple[int, int]] = {}
    g_memo: dict[tuple[int, tuple], tuple[int, int]] = {}

    def f(i: int, rem: JobMultiset) -> int:
        """Cheapest completion given a block begins at interval i; shorter
        jobs first and a merged block before a gap on equal cost."""
        key = (i, rem.counts)
        hit = f_memo.get(key)
        if hit is not None:
            return hit[0]
        check_time()
        best, choice = _HUGE, 0
        for p in rem.distinct():
            e = i + p - 1
            if e > t_off:
                continue
            rest = rem.remove(p)
            bc = block_cost(i, p)
            if bc >= best:
                continue
            if rest.empty:
                tail = phi[e, h]
                if tail < _UNREACHABLE and not pruned[e, h] and bc + int(tail) < best:
                    best, choice = bc + int(tail), p
                continue
            if e + rest.total <= t_off:
                val = bc + f(i + p, rest)
                if val < best:
                    best, choice = val, -p
            val = bc + g(e, rest)
            if val < best:
                best, choice = val, p
        f_memo[key] = (best, choice)
        return best

    def g(e: int, rem: JobMultiset) -> int:
        """Cheapest completion given a real gap (non-empty body, except at
        the root) follows interval e; the nearer end on equal cost."""
        key = (e, rem.counts)
        hit = g_memo.get(key)
        if hit is not None:
            return hit[0]
        check_time()
        best, target = _HUGE, 0
        ends, gap_phi, bound = gap_ends(e, rem)
        for r in np.argsort(bound, kind="stable"):
            if int(bound[r]) > best:
                break
            end = int(ends[r])
            val = int(gap_phi[r]) + f(end, rem)
            if val < best or val == best and end < target:
                best, target = val, end
        g_memo[key] = (best, target)
        return best

    try:
        best_core = g(1, full)
    except _Deadline:
        e = t_on + sum_p - 1
        ub_core = int(phi[1, t_on]) + block_cost(t_on, sum_p) + int(phi[e, h])
        lb_core = int(min(gap_ends(1, full)[2], default=_HUGE))
        pieces = []
        at = t_on
        for p in sorted(full.distinct()):
            for _ in range(dict(full.counts)[p]):
                pieces.append((at, p))
                at += p
        sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
        tec = compute_tec(inst, sched)
        assert tec == ub_core + const
        return done("timeout", tec=tec, sched=sched, states=len(f_memo) + len(g_memo),
                    lb=lb_core + const)

    states = len(f_memo) + len(g_memo)
    if best_core >= _HUGE:
        return done("infeasible", states=states)

    pieces: list[tuple[int, int]] = []
    i, rem = g_memo[(1, full.counts)][1], full
    while True:
        choice = f_memo[(i, rem.counts)][1]
        p = abs(choice)
        pieces.append((i, p))
        rem = rem.remove(p)
        if rem.empty:
            break
        i = i + p if choice < 0 else g_memo[(i + p - 1, rem.counts)][1]

    sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
    tec = best_core + const
    check = compute_tec(inst, sched)
    if check != tec:
        raise RuntimeError(f"assembled schedule costs {check}, search found {tec}")
    return done("optimal", tec=tec, sched=sched, states=states, lb=tec)


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
                                            lower_bound=tec))

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
