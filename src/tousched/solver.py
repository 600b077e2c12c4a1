"""Exact schedule search over the switching cost table.

Within one contiguous processing block the job order never changes the
cost (the same intervals are covered either way), so only the multiset of
remaining processing times matters, not which job is which. Blocks either
continue back to back or are separated by a gap whose cost comes from the
phi table.

The search is a bottom-up DP over remaining multisets, encoded in mixed
radix over the distinct processing times and filled in increasing
remaining work W. Let the window be (t_on, t_off) and its slack
s = t_off - t_on + 1 - sum(p). A block that begins with W work left
starts at interval t_on + sum(p) - W + d for a band offset d in 0..s, so
every table is indexed by (multiset m, offset d):

- F_W[m, d], a block starts there: the first minimum over job lengths p
  ascending of the block cost plus the merged next block F_{W-p}[m-p, d],
  then plus the gap G_{W-p}[m-p, d]; the last block pays the trailing gap
  to the horizon instead. Both successors sit at the same (m-p, d), so a
  layer only keeps H_W = min(F_W, G_W), merged on ties.
- G_W[m, d], a gap follows the block that ended just before offset d: a
  min-plus product of F_W[m, .] with the band's block of phi, unreachable
  gaps left out; the nearer end wins ties.

The root is the gap after interval 1 against F of all jobs. Every cell
stores its choice, so the schedule is a walk over the choices, and ties
go to the lexicographically smallest sequence of (start, length) pieces.
Values are kept only for the last max(p) layers, and the min-plus runs in
fixed-size chunks. The band holds prod(count_p + 1) * (s + 1) cells; above
_DP_CELL_LIMIT, or once the time limit expires, the solver answers with a
one-block incumbent and an admissible lower bound instead.
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
_DP_CELL_LIMIT = 2 ** 23  # band cells the DP may fill, prod(count_p + 1) * (slack + 1)
_CHUNK = 2 ** 16  # int64 elements per min-plus chunk
_BAND_ROWS = 16  # gap starts per min-plus strip; strips skip most ends before their starts


@dataclass
class SolveStats:
    states: int = 0  # DP cells filled (solve_exact), placements tried (brute force)
    wall_time: float = 0.0
    lower_bound: int | None = None
    stop_reason: str | None = None  # optimal | infeasible | time_limit | cell_limit


@dataclass
class SolveResult:
    tec: int | None
    schedule: Schedule | None
    status: str  # optimal | infeasible | timeout | imported
    stats: SolveStats = field(default_factory=SolveStats)


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

    Fills the band DP of the module docstring layer by layer, storing the
    argmin of every cell, then walks those choices from the root, the gap
    after interval 1. Among equal-cost schedules the one whose (start,
    length) pieces, sorted by start, form the lexicographically smallest
    sequence wins. stats.states counts the DP cells filled.

    When the band holds more than _DP_CELL_LIMIT cells, or the time limit
    expires before the fill completes, the answer is the one-block
    incumbent at t_on with an admissible lower bound under status
    "timeout"; stats.stop_reason says which limit stopped the solve.
    A time limit must be >= 0; inf, like None, sets no limit.
    """
    if time_limit is not None and not time_limit >= 0:  # NaN fails this test too
        raise InputError(f"time limit must be >= 0, got {time_limit}")
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    h = inst.horizon
    t_on, t_off = table.window
    # The pruning flags are not read: every gap the band reaches has the
    # work already done on its left and the rest on its right, and
    # pruned_mask flags no such gap.
    phi = np.minimum(table.phi_matrix, _HUGE)  # an unreachable gap costs _HUGE
    proc = inst.state_set.proc_state
    p_proc = inst.transitions.power(proc, proc)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    const = _boundary_constant(inst)
    ps, counts = np.unique(inst.jobs, return_counts=True)
    sum_p = sum(inst.jobs)
    R = t_off - t_on + 2 - sum_p  # band width: window slack + 1

    def done(status: str, tec=None, sched=None, states=0, lb=None, reason=None) -> SolveResult:
        return SolveResult(tec=tec, schedule=sched, status=status,
                           stats=SolveStats(states=states, wall_time=time.monotonic() - t0,
                                            lower_bound=lb, stop_reason=reason or status))

    if R < 1:
        return done("infeasible")

    def incumbent(reason: str, states: int) -> SolveResult:
        """All jobs in one block at t_on, shorter first, with the cheapest
        root gap plus all work at the cheapest later price as the bound."""
        ends = np.arange(2, t_on + R)
        costs = np.asarray(inst.costs[:t_off], dtype=np.int64)
        suf_min = np.minimum.accumulate(costs[::-1])[::-1]  # cheapest price from i on
        lb = int(np.min(phi[1, ends] + sum_p * p_proc * suf_min[ends - 1], initial=_HUGE))
        pieces, at = [], t_on
        for p in sorted(inst.jobs):
            pieces.append((at, p))
            at += p
        sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
        tec = compute_tec(inst, sched)
        e = t_on + sum_p - 1
        assert tec == const + int(phi[1, t_on] + phi[e, h] + (C[e] - C[t_on - 1]) * p_proc)
        return done("timeout", tec=tec, sched=sched, states=states, lb=lb + const, reason=reason)

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    radix = counts + 1
    if int(np.prod(radix, dtype=object)) * R > _DP_CELL_LIMIT:
        return incumbent("cell_limit", 0)

    # Multiset codes in mixed radix, the shortest length varying fastest.
    # Layer W, the codes with W work left in ascending order, is
    # order[first[W]:first[W + 1]].
    stride = np.cumprod(radix) // radix
    work = np.zeros(1, dtype=np.int32)
    for p, c in zip(ps[::-1].tolist(), counts[::-1].tolist()):
        work = np.add.outer(work, np.arange(0, p * c + 1, p, dtype=np.int32)).ravel()
    order = np.argsort(work, kind="stable").astype(np.int32)
    first = np.concatenate(([0], np.cumsum(np.bincount(work, minlength=sum_p + 1))))

    def row_of(W: int, codes):
        return np.searchsorted(order[first[W]:first[W + 1]], codes)

    d = np.arange(R)
    upper = d[None, :] > d[:, None]  # a real gap ends at least two past its start
    # H keeps the last max(p) layers; the choices of every layer are the
    # job length index of F and the band offset of the gap end where a gap
    # beats merging, 0 where it does not (a real gap ends at offset 1 or
    # later).
    H: dict[int, np.ndarray] = {}
    f_arg: dict[int, np.ndarray] = {}
    g_arg: dict[int, np.ndarray] = {}
    g_type = np.min_scalar_type(R - 1)
    buf = np.empty(max(_CHUNK, _BAND_ROWS * R), dtype=np.int64)
    states, top = 0, int(ps[-1])
    for W in range(1, sum_p + 1):
        H.pop(W - top - 1, None)
        if expired():
            return incumbent("time_limit", states)
        rows = order[first[W]:first[W + 1]]
        if rows.size == 0:
            continue
        start = t_on + sum_p - W + d
        cand = np.full((len(ps), rows.size, R), _HUGE, dtype=np.int64)
        for j, p in enumerate(ps.tolist()):
            has = np.nonzero(rows // stride[j] % radix[j])[0]
            if has.size == 0:
                continue
            if W == p:
                rest = phi[start + p - 1, h]  # the last block pays the trailing gap
            else:
                rest = H[W - p][row_of(W - p, rows[has] - stride[j])]
            cand[j, has] = (C[start + p - 1] - C[start - 1]) * p_proc + rest
        F = np.minimum(cand.min(axis=0), _HUGE)
        f_arg[W] = np.zeros(F.shape, dtype=np.uint8)  # the cell limit allows at most 23 lengths
        for j in range(len(ps) - 1, -1, -1):  # the shortest length wins ties
            np.copyto(f_arg[W], j, where=cand[j] == F)
        states += F.size
        if W == sum_p:
            break
        e0 = start[0] - 1  # gap starts e0 + d, ends e0 + 1 + d''
        phi_blk = np.where(upper, phi[e0:e0 + R, e0 + 1:e0 + 1 + R], _HUGE)
        G = np.full(F.shape, _HUGE, dtype=np.int64)
        g_arg[W] = np.zeros(F.shape, dtype=g_type)
        for lo in range(0, R - 1, _BAND_ROWS):  # one strip's ends all lie past lo
            hi = min(lo + _BAND_ROWS, R - 1)
            blk = phi_blk[lo:hi, lo + 1:]
            step = max(1, _CHUNK // blk.size)
            for a in range(0, rows.size, step):
                if expired():
                    return incumbent("time_limit", states)
                part = F[a:a + step, None, lo + 1:]
                out = buf[:len(part) * blk.size].reshape(len(part), *blk.shape)
                tot = np.add(part, blk, out=out)
                end = tot.argmin(axis=2)
                g_arg[W][a:a + step, lo:hi] = end + lo + 1
                G[a:a + step, lo:hi] = np.take_along_axis(tot, end[..., None], 2)[..., 0]
        np.copyto(g_arg[W], 0, where=G >= F)
        H[W] = np.minimum(F, G)
        states += G.size

    root = phi[1, t_on + d] + F[0]  # the last layer holds only the full multiset
    slot = int(root.argmin())
    best_core = int(root[slot])
    if best_core >= _HUGE:
        return done("infeasible", states=states)

    pieces: list[tuple[int, int]] = []
    W, m = sum_p, order.size - 1
    while W:
        j = int(f_arg[W][row_of(W, m), slot])
        pieces.append((t_on + sum_p - W + slot, int(ps[j])))
        m, W = m - int(stride[j]), W - int(ps[j])
        if W:
            slot = int(g_arg[W][row_of(W, m), slot]) or slot

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
