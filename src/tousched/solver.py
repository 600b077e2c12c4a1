"""Exact schedule search over the switching cost table.

Within one contiguous processing block the job order never changes the
cost (the same intervals are covered either way), so only the multiset of
remaining processing times matters, not which job is which. Blocks either
continue back to back or are separated by a gap, a shortest path in the
interval-state graph, which phi prices.

The search is a band DP over remaining multisets, encoded in mixed radix
over the distinct processing times. Let the window be (t_on, t_off) and
its slack s = t_off - t_on + 1 - sum(p). A block that begins with W work
left starts at interval t_end - W + d, t_end = t_on + sum(p), for a band
offset d in 0..s, so every table is indexed by a row, a multiset at its
W, and an offset d:

- F[m, d], a block starts there: the cheapest over job lengths p of the
  block cost plus H[m - p, d], where the next block starts or a gap
  begins.
- H[m, d] = min(F[m, d], G[m, d]), G a gap that follows the block ending
  just before offset d and ends where a later block of m starts. Layer
  0, the empty multiset, is the trailing gap to the horizon, so the last
  block is no special case.

Rows are positions (_rows): each layer's rows are consecutive, and one
table gives the position a row continues in after each job length. Rows
that count a set of the job lengths let a block hold any sequence of the
others: counting all is the exact DP, and counting none, one row per W,
a state-space relaxation (Christofides, Mingozzi and Toth, Networks 11,
1981) whose optimum is a lower bound.

Every band DP is one backward sweep over intervals (_sweep). Cell (m, d)
lies at interval t_end - W + d, so the cells of one interval are the
consecutive positions of the layers on its diagonal; F there is one
gather of H, and the gaps come from the machine's zero-time classes, as
phi's do (`spaces._sweep_blocks`). Only H is stored, capped at one more
than the one-block incumbent, which no cell of an optimal schedule
passes, in the narrowest integer type that holds the cap. The walk
(_walk) re-derives F where it goes and reads the schedule with these tie
rules: the shortest length first, a gap only where it is strictly
cheaper than merging, and the nearest of its cheapest ends, priced by
phi. So ties go to the lexicographically smallest sequence of (start,
length) pieces, and a phi that disagrees with the sweep is refused.

A band of at most _DP_ALONE_CELLS cells runs the exact DP alone. A larger
one runs the relaxation first. TEC depends only on which intervals
process, so if the jobs split exactly into the relaxed optimum's merged
blocks (_fit), that schedule proves the bound optimal. The fit, an exact
search under a node budget (_FIT_NODES), fills the blocks shortest first,
each with the longest jobs that still leave a fill. Without a fit, the
rows count one more length, the shortest not yet counted, and the fit is
tried on that optimum's blocks: a decremental state-space relaxation
(Righini and Salani, Networks 51, 2008; Boland, Dethridge and Dumitrescu,
Oper. Res. Lett. 34, 2006), whose bound never falls as lengths are
counted. The sets grow while the cells they fill stay within
1/_SUBSET_SHARE of the exact DP's and each set's within _DP_CELL_LIMIT.
Then, at most _DP_CELL_LIMIT cells, the exact DP follows. The steps
update one search state and every answer leaves by one exit. A time limit
picks none of this; it only stops the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .isg import ClassPlan
from .isg import build_graph  # noqa: F401  (perfbench wraps solver.build_graph)
from .model import InfeasibleError, InputError, Instance, Schedule, StatePair, compute_tec
from .model import validate_schedule  # noqa: F401  (perfbench wraps solver.validate_schedule)
from .spaces import SpacesTable, _UNREACHABLE, expand_space
from .spaces import compute_spaces  # noqa: F401  (perfbench wraps solver.compute_spaces)

_HUGE = int(_UNREACHABLE)
_DP_CELL_LIMIT = 2 ** 23  # band cells the DP may fill, prod(count_p + 1) * (slack + 1)
_DP_ALONE_CELLS = 2 ** 14  # band cells up to which the DP alone is faster than relaxation first
_SUBSET_SHARE = 32  # relaxations that count a subset of the lengths may fill 1/32 of the DP's cells
_FIT_NODES = 10 ** 5  # nodes the fit may spend: vectors that fill a block, and dead ends


@dataclass
class SolveStats:
    states: int = 0  # band DP cells filled
    wall_time: float = 0.0
    lower_bound: int | None = None
    stop_reason: str | None = None  # optimal | infeasible | time_limit | cell_limit
    certifier: str | None = None  # what proved an optimum: dp | fit
    counted: list[int] | None = None  # the job lengths counted by the step that gave lower_bound


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
    through proc instantaneously. When the pieces do not tile the horizon
    exactly, raises one InfeasibleError naming every interval labeled
    twice, out of range or left uncovered.
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
        # A gap before the first block, between blocks that do not touch
        # and after the last. A block at interval 1 or h, past either end
        # or overlapping another leaves no room for its gap and is named
        # below.
        spaces = []
        prev_end = 1
        for k, (start, end) in enumerate(blocks):
            if (k == 0 or start > prev_end + 1) and 1 <= prev_end < start <= h:
                spaces.append((prev_end, start))
            prev_end = end
        if 1 <= prev_end < h:
            spaces.append((prev_end, h))

    omega: list[StatePair | None] = [None] * h
    omega[0] = (off, off)
    omega[h - 1] = (off, off)
    bad: list[int] = []  # intervals labeled twice or out of range

    def put(i: int, label: StatePair) -> None:
        if 1 <= i <= h and omega[i - 1] is None:
            omega[i - 1] = label
        else:
            bad.append(i)

    for start, end in blocks:
        for i in range(start, end + 1):
            put(i, (proc, proc))
    for i, ip in spaces:
        for k, label in enumerate(expand_space(table, i, ip), start=i + 1):
            put(k, label)

    faults = [f"interval {i} {'labeled twice' if 1 <= i <= h else 'out of range'}"
              for i in dict.fromkeys(bad)]
    faults += [f"interval {i} uncovered" for i, lab in enumerate(omega, start=1) if lab is None]
    if faults:
        more = f" and {len(faults) - 10} more" if len(faults) > 10 else ""
        raise InfeasibleError("inconsistent placement: " + ", ".join(faults[:10]) + more)
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


class _Band(NamedTuple):
    """What every band DP shares. A block that begins with W work left
    starts at interval t_end - W + d, band offset d in 0..R-1, where
    t_end = t_on + sum(p)."""

    # the table's, INF = 2^62 where no switching exists; F is a run plus at
    # most cap, both below COST_LIMIT = 2^61, so phi + F stays below 2^63
    phi: np.ndarray
    runs: np.ndarray  # runs[j, i]: processing cost of a job of length ps[j] from interval i
    tail: np.ndarray  # tail[d]: the trailing gap after a block that ends at t_end - 1 + d
    plan: ClassPlan  # the machine's zero-time classes, which the sweep runs over
    t_on: int
    t_end: int
    R: int
    ps: np.ndarray  # the distinct job lengths, ascending


def _sweep(band: _Band, rows, cap: int, expired):
    """H of the band DP over rows by one backward sweep over intervals;
    returns (H, states), H None when the deadline expired first.

    rows = (first, succ) gives every row of the DP a position: layer W
    holds positions first[W] .. first[W + 1] - 1, position 0 alone is
    layer 0, and succ[j, pos] is the position a row continues in after a
    job of length ps[j], or -1 where it holds no such job. H[pos, d] is
    the cheapest cost from a block boundary at cell (pos, d) to the
    horizon, at most cap, in the narrowest signed integer type that holds
    cap: the trailing gap at layer 0, and cap in the top layer, which has
    no boundary, and in an extra last row, which succ's -1 reads. states
    counts an F per cell and, below the top layer, a G.

    Cell (pos, d) of layer W lies at interval k = t_end - W + d, so the
    cells of one interval are the consecutive positions of the layers on
    its diagonal, and a row lies one offset further at each later
    interval. From the last interval a block may start at down to t_on,
    each step fills that diagonal below the top layer: F from H of the
    successors at k + p, a job of length p done, one gather over every
    length, capped at cap; then each zero-time class of the band's plan
    takes its cheapest cost from the start of k for every position, as in
    phi's sweep (`spaces._sweep_blocks`): its steps pull the costs of the
    classes they reach at k + t (`ClassPlan.pull`), proc's class takes F
    at k, where a block may start, and the time-0 closure follows. F
    reads H of later intervals, so unlike phi's steps these do not
    compose over a block of intervals, and the sweep runs one interval
    at a time. Proc's cost is then H at k, the gap
    or the block start, whichever is cheaper. The clock is read once per
    interval.

    Class costs are never clamped: they hold INF, or F plus the weight of
    a path, and no path weighs as much as COST_LIMIT = 2^61, so each stays
    below 2^63. The cap changes no value below it: every F and H is
    min(its cost, cap)."""
    plan, R, t_end = band.plan, band.R, band.t_end
    first, succ = rows
    top = t_end - band.t_on
    n = int(first[-1])  # positions
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= cap)
    # H lies in hp after top leading cells, so that the cells of interval
    # k, (pos, d = k - t_end + W), are at[k][pos * R + W] for at[k] = hp
    # from k - t_on on, and their successors' cells at at[k][after[:, pos]]
    hp = np.full(top + (n + 1) * R, cap, dtype=dtype)
    H = hp[top:].reshape(n + 1, R)
    H[0] = np.minimum(band.tail, cap)
    index = np.int32 if hp.size <= np.iinfo(np.int32).max else np.int64  # holds every index of hp
    W = np.repeat(np.arange(top + 1, dtype=index), np.diff(first))
    cell = np.arange(n, dtype=index) * index(R) + W
    # no successor: the last row
    after = np.where(succ < 0, index(n), succ.astype(index, copy=False))
    after *= index(R)
    after += W
    runs = band.runs.T[:, :, None]  # runs[k, j]: a job of length ps[j] from interval k
    last = t_end + R - 2  # the last interval a block may start at
    # ring[k % slots][c][pos]: class c's cost at interval k at the cell of
    # pos on its diagonal. A diagonal's positions rise as k falls, so a
    # position that interval k + t does not hold reads INF there
    ring = plan.ring(n)
    scratch = np.empty(n, dtype=np.int64)
    first = first.tolist()
    states = 0
    for k in range(last, band.t_on - 1, -1):
        if expired():
            return None, states
        w0, w1 = max(1, t_end - k), min(top, last + 1 - k)  # the W of k's diagonal
        a, b = first[w0], first[min(w1, top - 1) + 1]  # the positions with a G
        states += first[w1 + 1] - a + max(b - a, 0)
        if b <= a:
            continue
        at = hp[k - band.t_on:]
        F = (at.take(after[:, a:b]) + runs[k]).min(axis=0, initial=cap)
        cur = plan.pull(ring, k, slice(a, b), last, scratch[:b - a])
        proc = cur[plan.proc]
        np.minimum(proc, F, out=proc)  # at most cap: the closure only lowers it
        plan.close(cur)
        at[cell[a:b]] = proc
    return H, states


def _walk(band: _Band, rows, H: np.ndarray):
    """The band DP's (value, pieces) from its H (_sweep), walked from the
    cheapest root, the gap after interval 1, with F re-derived from H at
    the cells the walk visits: the first cheapest job length, shortest
    first; a gap only where it is strictly cheaper than merging; and the
    nearest of its cheapest ends, priced by phi. A gap that phi prices off
    the sweep's cost raises InputError: the table does not match its
    instance. pieces are the (start, length) of every job in start order;
    value is H's cap or more when no schedule exists."""
    phi, runs, R, t_end = band.phi, band.runs, band.R, band.t_end
    first, succ = rows
    ps = band.ps.tolist()
    cap = H.item(-1, 0)
    W = t_end - band.t_on
    pos = int(first[W])  # the top layer has one row
    runs_at = np.ascontiguousarray(runs.T)  # runs_at[k]: a job of each length from interval k

    def f_row(lo: int) -> np.ndarray:
        """F at the offsets lo.. of row pos."""
        return (runs[:, t_end - W + lo:t_end - W + R] + H[succ[:, pos], lo:]).min(axis=0)

    def f_cell(k: int) -> list[int]:
        """F at cell (pos, d), which lies at interval k, one cost per job
        length over the row's successors nxt."""
        return [r + H.item(s, d) for r, s in zip(runs_at[k].tolist(), nxt)]

    root = phi[1, band.t_on:band.t_on + R] + f_row(0)
    d = int(root.argmin())
    value = int(root[d])
    pieces: list[tuple[int, int]] = []
    nxt = succ[:, pos].tolist()
    cost = f_cell(band.t_on + d)
    while W and value < cap:
        j = cost.index(min(cost))
        k = t_end - W + d  # the block starts at interval k
        pieces.append((k, ps[j]))
        k += ps[j]  # where a merged block would start
        pos, W = nxt[j], W - ps[j]
        if not W:
            break
        nxt = succ[:, pos].tolist()
        cost = f_cell(k)
        if H.item(pos, d) < min(cost):  # a gap after interval k - 1 is cheaper than merging
            i = k - 1
            ends = phi[i, k + 1:t_end - W + R] + f_row(d + 1)  # a gap ends two or more past i
            e = int(ends.argmin())
            if ends[e] != H.item(pos, d):
                raise InputError(f"the gap after interval {i} costs {int(phi[i, k + 1 + e])} in "
                                 f"phi at ({i}, {k + 1 + e}), its cheapest end there: "
                                 f"{int(ends[e])} to the horizon, against {H.item(pos, d)} by "
                                 f"the machine's own switching; the table does not match its "
                                 f"instance")
            d += 1 + e
            cost = f_cell(k + 1 + e)
    return value, pieces


def _rows(ps: np.ndarray, counts: np.ndarray, counted: np.ndarray):
    """The rows of a band DP in _sweep's (first, succ) form: one per (W, m),
    m a multiset of the jobs of the counted lengths (a bool per length)
    and work(m) <= W <= work(m) + the other jobs' total. All counted is the
    exact DP, none the relaxation (one row per W, at position W), and a
    subset a decremental state-space relaxation (Righini and Salani,
    Networks 51, 2008). m is a code in mixed radix, the shortest length
    varying fastest, and a layer holds its rows in ascending code."""
    tally = np.where(counted, counts, 0)
    # A row's code has one more digit, the fastest: the work it has left
    # beyond its multiset's, up to the other jobs' total.
    radix = np.concatenate(([int(ps @ (counts - tally)) + 1], tally + 1))
    stride = np.cumprod(radix) // radix
    work = np.zeros(1, dtype=np.int32)
    for p, r in zip(ps[::-1].tolist() + [1], radix[::-1].tolist()):
        work = np.add.outer(work, np.arange(0, p * r, p, dtype=np.int32)).ravel()
    order = np.argsort(work, kind="stable").astype(np.int32)
    first = np.concatenate(([0], np.cumsum(np.bincount(work))))
    position = np.empty_like(order)  # each code's index in order
    position[order] = np.arange(order.size, dtype=np.int32)
    succ = np.full((len(ps), order.size), -1, dtype=np.int32)
    for j, p in enumerate(ps.tolist()):
        a, step = (j + 1, 1) if counted[j] else (0, p)  # the digit a job of length p takes from
        has = order // stride[a] % radix[a] >= step  # the row holds a job of length p
        succ[j, has] = position[order[has] - step * stride[a]]
    return first, succ


def _fit(ps: np.ndarray, counts: np.ndarray, lengths: list[int]) -> list[list[int]] | None:
    """Split the jobs into blocks of the given lengths, which sum to the
    jobs' work: for each block, the lengths of the jobs it holds,
    ascending. None when no split exists or the search spends its
    _FIT_NODES nodes first.

    A depth-first search over the blocks, shortest first, on an explicit
    stack. A block's count vectors come lazily, the longest length's count
    first and descending, then the next longest's, so each block takes the
    longest jobs that still leave a fill; a count that leaves more room than
    the shorter lengths' jobs fill is skipped. Every (block, jobs left)
    state whose vectors all failed is kept and not entered again. A node is
    a vector that fills its block or a partial vector that can grow no
    further, so the budget bounds all the work. No clock is read.
    """
    ps, m = ps.tolist(), len(ps)
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    nodes = 0

    def fills(L: int, left: tuple[int, ...]):
        """The count vectors that fill a block of length L from left, until
        the budget is spent. room is what length j and the shorter ones
        fill, below[j] the work of the jobs left shorter than ps[j]."""
        nonlocal nodes
        below = list(accumulate((p * k for p, k in zip(ps, left)), initial=0))
        x, j, room = [0] * m, m - 1, L
        x[j] = min(left[j], L // ps[j]) + 1
        while nodes < _FIT_NODES:
            x[j] -= 1
            if x[j] < 0 or room - x[j] * ps[j] > below[j]:  # length j's counts are spent
                nodes += 1
                j += 1
                if j == m:
                    return
                room += x[j] * ps[j]
            elif j:
                room -= x[j] * ps[j]
                j -= 1
                x[j] = min(left[j], room // ps[j]) + 1
            else:  # below[0] = 0, so the room is filled exactly
                nodes += 1
                yield x

    left = tuple(counts.tolist())
    stack = [(left, fills(lengths[order[0]], left))]  # each block entered: jobs left, vectors
    failed = set()  # (block, jobs left) whose vectors all failed
    while stack and nodes < _FIT_NODES:
        b = len(stack) - 1
        left, vectors = stack[b]
        x = next(vectors, None)
        if x is None:
            failed.add((b, left))
            stack.pop()
            continue
        rest = tuple(k - a for k, a in zip(left, x))
        if b + 1 == len(order):
            lefts = [left for left, _vectors in stack] + [rest]
            held = {block: [p for p, k, a in zip(ps, lefts[b], lefts[b + 1]) for _ in range(k - a)]
                    for b, block in enumerate(order)}
            return [held[block] for block in range(len(order))]
        if (b + 1, rest) not in failed:
            stack.append((rest, fills(lengths[order[b + 1]], rest)))
    return None


def solve_exact(inst: Instance, table: SpacesTable, time_limit: float | None = None) -> SolveResult:
    """Provably optimal schedule for the instance, or infeasible.

    The band's cell count alone picks the order. At most _DP_ALONE_CELLS
    cells: the exact band DP of the module docstring, swept and walked
    from the root, the gap after interval 1. Among equal-cost schedules
    the one whose (start, length) pieces, sorted by start, form the
    lexicographically smallest sequence wins. More cells: the relaxation
    first, the same sweep over rows that count no length, and the fit's
    schedule when the jobs fit its blocks (_fit): the blocks shortest
    first, each taking the longest jobs that still leave a fill, each
    block's jobs ascending. Without a fit, the rows count the shortest
    uncounted length too, and the fit is tried again, until the next
    set's cells, (uncounted work + 1) * prod over the counted of (count +
    1) * R, would pass _DP_CELL_LIMIT or take the cells filled by these
    sets past 1/_SUBSET_SHARE of the exact DP's. A bound that meets the
    one-block incumbent needs no stop of its own: the walk then merges
    every piece into that block, which the fit splits at its first node.
    Then, at most _DP_CELL_LIMIT cells, the exact DP.
    The steps share one search state and leave by one exit, stop, which
    assembles the answer and re-prices it (RuntimeError when the price is
    off). Over the cell limit, or once the time limit expires, the answer
    has status "timeout": all jobs in one block at t_on, shortest first,
    under the last relaxed value (before the relaxation completes, the
    cheapest root gap plus all work at the cheapest later price). A solve
    that ends within the time limit gives the untimed answer.
    stats.stop_reason says which limit stopped the solve, stats.certifier
    what proved an optimum ("dp" or "fit"), stats.counted the job lengths
    counted by the step that gave the lower bound ([] for the relaxation,
    every length for the exact DP, None before a step completes), and
    stats.states the cells filled, the relaxations' included: an F and,
    below the top layer, a G per cell. A time limit must be >= 0; inf,
    like None, sets no limit.
    The sweep reads the clock once per interval; the fit reads none.
    """
    if time_limit is not None and not time_limit >= 0:  # NaN fails this test too
        raise InputError(f"time limit must be >= 0, got {time_limit}")
    t0 = time.monotonic()
    deadline = None if time_limit is None or time_limit == float("inf") else t0 + time_limit
    h = inst.horizon
    t_on, t_off = table.window
    # The pruning flags are not read: every gap the band reaches has the
    # work already done on its left and the rest on its right, and
    # pruned_mask flags no such gap.
    phi = table.phi_matrix
    proc = inst.state_set.proc_state
    p_proc = inst.transitions.power(proc, proc)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    const = _boundary_constant(inst)
    ps, counts = np.unique(inst.jobs, return_counts=True)
    sum_p = sum(inst.jobs)
    R = t_off - t_on + 2 - sum_p  # band width: window slack + 1
    # The search state: cells filled, the best lower bound and found, the
    # (value, pieces) answered: all jobs in one block at t_on, shortest
    # first, until a step proves a schedule optimal. Before the relaxed
    # value, which is never below it, the bound is the cheapest root gap
    # plus all work at the cheapest later price.
    ends = np.arange(2, t_on + R)
    suf_min = np.minimum.accumulate(np.diff(C[:t_off + 1])[::-1])[::-1]  # cheapest price from i on
    bound = int(np.min(phi[1, ends] + sum_p * p_proc * suf_min[ends - 1], initial=_HUGE))
    bound_counted = None  # the lengths counted by the step that gave bound
    states = 0

    def stop(reason: str) -> SolveResult:
        """The answer of the search state, for "infeasible", a limit
        ("time_limit" or "cell_limit") or what proved found optimal ("dp"
        or "fit")."""
        proved = reason in ("dp", "fit")
        status = "optimal" if proved else "infeasible" if reason == "infeasible" else "timeout"
        tec = sched = lb = None
        if status != "infeasible":
            value, pieces = found
            sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
            tec, lb = value + const, (value if proved else bound) + const
            check = compute_tec(inst, sched)
            if check != tec:
                raise RuntimeError(f"assembled schedule costs {check}, search found {tec}")
        stats = SolveStats(states=states, wall_time=time.monotonic() - t0, lower_bound=lb,
                           stop_reason="optimal" if proved else reason,
                           certifier=reason if proved else None,
                           counted=None if lb is None else bound_counted)
        return SolveResult(tec=tec, schedule=sched, status=status, stats=stats)

    if R < 1:
        return stop("infeasible")
    pieces, at = [], t_on
    for p in sorted(inst.jobs):
        pieces.append((at, p))
        at += p
    found = (int(phi[1, t_on]) + int(phi[at - 1, h]) + int(C[at - 1] - C[t_on - 1]) * p_proc, pieces)

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    runs = np.full((len(ps), h + 1), _HUGE, dtype=np.int64)
    for j, p in enumerate(ps.tolist()):
        runs[j, 1:h + 2 - p] = (C[p:] - C[:h + 1 - p]) * p_proc
    band = _Band(phi=phi, runs=runs, tail=phi[t_on + sum_p - 1:t_on + sum_p - 1 + R, h],
                 plan=table.graph.class_plan, t_on=t_on, t_end=t_on + sum_p, R=R, ps=ps)
    # No cell of a schedule as cheap as found costs more than found.
    cap = min(found[0] + 1, _HUGE)

    def optimum(counted: np.ndarray):
        """The band DP's (value, pieces) over rows that count the lengths
        flagged, or None when the deadline expired first."""
        nonlocal states
        rows = _rows(ps, counts, counted)
        H, filled = _sweep(band, rows, cap, expired)
        states += filled
        return None if H is None else _walk(band, rows, H)

    def size(counted: np.ndarray) -> int:
        """The cells of the band DP over rows that count the lengths flagged:
        (uncounted work + 1) * prod over the counted of (count + 1) * R."""
        tally = np.where(counted, counts, 0)
        return (int(ps @ (counts - tally)) + 1) * int(np.prod(tally + 1, dtype=object)) * R

    every = np.ones(len(ps), dtype=bool)
    cells = size(every)
    if cells > _DP_ALONE_CELLS:
        # The relaxation, then ever more counted lengths, the shortest
        # uncounted first, while the cells spent on these subsets stay
        # within 1/_SUBSET_SHARE of the exact DP's and each one within
        # the cell limit.
        counted, spent = ~every, 0
        while True:
            relaxed = optimum(counted)
            if relaxed is None:
                return stop("time_limit")
            if relaxed[0] >= cap:
                return stop("infeasible")
            bound, bound_counted = relaxed[0], ps[counted].tolist()
            blocks: list[list[int]] = []  # [start, length] of the merged blocks
            for a, p in relaxed[1]:
                if blocks and sum(blocks[-1]) == a:
                    blocks[-1][1] += p
                else:
                    blocks.append([a, p])
            split = _fit(ps, counts, [L for _a, L in blocks])
            if split is not None:
                found = (bound, [(a + sum(held[:k]), p) for (a, _L), held in zip(blocks, split)
                                 for k, p in enumerate(held)])
                return stop("fit")
            if expired():
                return stop("time_limit")
            spent += size(counted)
            counted = counted.copy()
            counted[counted.argmin()] = True
            step = size(counted)
            if step > _DP_CELL_LIMIT or (spent + step) * _SUBSET_SHARE > cells:
                break
        if cells > _DP_CELL_LIMIT:
            return stop("cell_limit")
    best = optimum(every)
    if best is None:
        return stop("time_limit")
    if best[0] >= cap:
        return stop("infeasible")
    found, bound_counted = best, ps.tolist()
    return stop("dp")
