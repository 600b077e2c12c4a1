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
  then plus the gap G_{W-p}[m-p, d]. Both successors sit at the same
  (m-p, d), so a layer only keeps H_W = min(F_W, G_W), merged on ties.
  Layer 0, the empty multiset, is the trailing gap from the block's end
  to the horizon, so the last block is no special case.
- G_W[m, d], a gap follows the block that ended just before offset d: a
  min-plus product of F_W[m, .] with the band's block of phi, unreachable
  gaps left out; the nearer end wins ties.

The root is the gap after interval 1 against F of all jobs. Every cell
stores its choice, so the schedule is a walk over the choices, and ties
go to the lexicographically smallest sequence of (start, length) pieces.
Rows are positions: each layer's rows are consecutive, and one table
gives the position a row continues in after each job length, so a
layer's F is one gather over H. H is kept as a ring of the last max(p)
layers, and the min-plus runs in fixed-size chunks. The band holds
prod(count_p + 1) * (s + 1) cells.

The exact DP and its rounds are this fill over rows that count a set of
the job lengths (_rows). Counting none, one row per W, lets a block hold
any sequence of job lengths: a state-space relaxation (Christofides,
Mingozzi and Toth, Networks 11, 1981) whose optimum is a lower bound.
With one row per W, the relaxation's cell (W, d) lies at interval
t_end - W + d, and a gap is a shortest path in the interval-state graph,
so the relaxation is no fill: it is one backward sweep over intervals
and the machine's zero-time classes (_relaxation), as phi itself is
(`spaces._sweep_rows`), and its walk re-derives the pieces from the
values with the fill's tie rules (_relaxed_optimum). TEC depends only on
which intervals process, so if the jobs split exactly into the relaxed
optimum's merged blocks (_fit), that schedule proves the bound optimal.

A band of at most _DP_ALONE_CELLS cells runs the DP alone. A larger one
runs the relaxation and the fit first and, without a fit and at most
_DP_CELL_LIMIT cells, eliminates cells by reduced cost. The
relaxation's values are costs to the horizon; the same sweep over the
time-reversed band and class plan (_reversed), read at the mirrored
cells, gives the costs from the root, and the two sum to the cheapest
relaxed schedule through every cell. Deepening rounds fill the DP on
the cells whose value is at most a cut ub, the distinct values taken in
ascending order from the relaxed bound: in each layer, the one slice of
offsets from the first such cell to the last (_spans). Every schedule below the next cut
lies on a round's cells, so a round whose value is below it has the
optimum and the full DP's walk; otherwise the bound rises to that cut.
The steps update one search state and every answer leaves by one exit.
A time limit picks none of this; it only stops the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .isg import ClassPlan, build_graph
from .model import (InfeasibleError, InputError, Instance, Schedule, StatePair,
                    compute_tec, validate_schedule)
from .spaces import SpacesTable, _UNREACHABLE, compute_spaces, expand_space

_HUGE = int(_UNREACHABLE)
_DP_CELL_LIMIT = 2 ** 23  # band cells the DP may fill, prod(count_p + 1) * (slack + 1)
_DP_ALONE_CELLS = 2 ** 14  # band cells up to which the DP alone is faster than relaxation first
_FIT_BYTES = 2 ** 28  # the fit's packed sets kept, plus 16 bytes per lattice cell walking back
_CHUNK = 2 ** 16  # int64 elements per min-plus chunk
_BAND_ROWS = 16  # fewest gap starts per min-plus strip; strips skip most ends before their starts


@dataclass
class SolveStats:
    states: int = 0  # DP cells filled (solve_exact), placements tried (brute force)
    wall_time: float = 0.0
    lower_bound: int | None = None
    stop_reason: str | None = None  # optimal | infeasible | time_limit | cell_limit
    certifier: str | None = None  # what proved an optimum: dp | fit | rounds
    rounds: int = 0  # elimination rounds begun


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
    """What every layer of a band DP shares. A block that begins with W
    work left starts at interval t_end - W + d, band offset d in 0..R-1,
    where t_end = t_on + sum(p)."""

    # capped at _HUGE, and _HUGE at ip < i + 2 below row 1 and left of
    # column h; None in the time-reversed band, which only the relaxation reads
    phi: np.ndarray | None
    runs: np.ndarray  # runs[j, i]: processing cost of a job of length ps[j] from interval i
    tail: np.ndarray  # tail[d]: the trailing gap after a block that ends at t_end - 1 + d
    plan: ClassPlan  # the machine's zero-time classes, which the relaxation sweeps
    t_on: int
    t_end: int
    R: int
    ps: np.ndarray  # the distinct job lengths, ascending


def _fill(band: _Band, rows, cols, expired):
    """Fill the layers W = 1..sum(p) of a band DP; returns (F, f_arg,
    g_arg, states) with F the top layer's, or None when the deadline
    expired first.

    rows = (first, succ) gives every row of the DP a position: layer W
    holds positions first[W] .. first[W + 1] - 1, position 0 alone is
    layer 0, and succ[j, pos] is the position a row continues in after a
    job of length ps[j], or -1 where it holds no such job. cols(W) gives
    the band offsets of layer W that are filled, two slices with explicit
    bounds: where a block may start (F) and where one may have just ended
    (H), slice(0, R) for all. Every other cell is left out as if it cost
    _HUGE. The choices of every layer are stored for those columns only:
    the job length index of F, and the band offset of the gap end where a
    gap beats merging, 0 where it does not (a real gap ends at offset 1 or
    later).

    H is one ring of rows over the last max(p) layers, a position at row
    pos % size, where size is the most positions any max(p) + 1
    consecutive layers hold; its extra last row is all _HUGE and stands
    for "no successor". Layer 0 is the trailing gap from a block ending at
    t_end - 1 + d to the horizon, so a block that ends the schedule pays
    it like any other successor.
    """
    phi, R, ps = band.phi, band.R, band.ps
    first, succ = rows
    top = band.t_end - band.t_on
    back = first[np.maximum(np.arange(top + 1) - int(ps[-1]), 0)]
    size = int((first[1:] - back).max())
    hbuf = np.full((size + 1, R), _HUGE, dtype=np.int64)
    hbuf[0] = band.tail
    ring = np.arange(first[-1] + 1, dtype=np.int32) % size  # the hbuf row of each position
    ring[-1] = size  # and of succ's -1, the _HUGE row
    slot = ring[succ]
    f_arg: dict[int, np.ndarray] = {}
    g_arg: dict[int, np.ndarray] = {}
    f_type, g_type = np.min_scalar_type(len(ps) - 1), np.min_scalar_type(R - 1)
    buf = np.empty(max(_CHUNK, _BAND_ROWS * R), dtype=np.int64)
    states = 0
    for W in range(1, top + 1):
        if expired():
            return None, f_arg, g_arg, states
        r0, r1 = int(first[W]), int(first[W + 1])
        n_rows = r1 - r0
        if n_rows == 0:
            continue
        s0 = band.t_end - W  # the block starts at interval s0 + d
        fc, hc = cols(W)
        f0, f1, h0, h1 = fc.start, fc.stop, hc.start, hc.stop
        cand = hbuf[slot[:, r0:r1], f0:f1]
        cand += band.runs[:, None, s0 + f0:s0 + f1]
        F = np.minimum(cand.min(axis=0), _HUGE)
        f_arg[W] = cand.argmin(axis=0).astype(f_type)  # the shortest length wins ties
        states += F.size
        if W == top:
            break
        e0 = s0 - 1  # gap starts e0 + d, ends e0 + 1 + d''
        phi_blk = phi[e0:, e0 + 1:][hc, fc]
        G = np.full((n_rows, h1 - h0), _HUGE, dtype=np.int64)
        g_arg[W] = np.zeros(G.shape, dtype=g_type)
        # taller strips for few rows
        strip = max(_BAND_ROWS, _CHUNK // (n_rows * max(f1 - f0, 1)))
        some = max(0, min(h1, f1 - 1) - h0)  # the starts with an end past them
        for lo in range(0, some, strip):
            hi = min(lo + strip, some)
            b = max(0, h0 + lo + 1 - f0)  # one strip's ends all lie past its first start
            blk = phi_blk[lo:hi, b:]
            step = max(1, _CHUNK // blk.size)
            for a in range(0, n_rows, step):
                if expired():
                    return None, f_arg, g_arg, states
                part = F[a:a + step, None, b:]
                out = buf[:len(part) * blk.size].reshape(len(part), *blk.shape)
                tot = np.add(part, blk, out=out)
                g_arg[W][a:a + step, lo:hi] = tot.argmin(axis=2) + (b + f0)
                G[a:a + step, lo:hi] = tot.min(axis=2)
        states += G.size
        if fc == hc:
            F_g = F
        else:  # F at G's columns: _HUGE off the overlap, which may be empty
            F_g = np.full(G.shape, _HUGE, dtype=np.int64)
            x0, x1 = max(f0, h0), min(f1, h1)
            if x0 < x1:
                F_g[:, x0 - h0:x1 - h0] = F[:, x0 - f0:x1 - f0]
        np.copyto(g_arg[W], 0, where=G >= F_g)
        if h1 - h0 < R:  # H at G's columns only: a block ends nowhere else
            hbuf[ring[r0:r1]] = _HUGE
        hbuf[ring[r0:r1], h0:h1] = np.minimum(F_g, G)
    return F, f_arg, g_arg, states


def _band_optimum(band: _Band, rows, cols, expired):
    """Fill a band DP and walk its choices from the cheapest root, the gap
    after interval 1; returns (value, pieces, states). value is None when
    the deadline expired first and _HUGE or more when no schedule exists;
    pieces are the (start, length) of every job in start order. rows and
    cols are _fill's; the walk moves from position to position along
    rows' succ."""
    F, f_arg, g_arg, states = _fill(band, rows, cols, expired)
    if F is None:
        return None, [], states
    first, succ = rows
    W = band.t_end - band.t_on
    pos = int(first[W])  # the top layer has one row
    fc = cols(W)[0]
    root = band.phi[1, band.t_on:][fc] + F[0]
    k = int(root.argmin())
    value, slot = int(root[k]), fc.start + k
    pieces: list[tuple[int, int]] = []
    while W and value < _HUGE:
        j = int(f_arg[W][pos - first[W], slot - cols(W)[0].start])
        pieces.append((band.t_end - W + slot, int(band.ps[j])))
        pos, W = int(succ[j, pos]), W - int(band.ps[j])
        if W:
            slot = int(g_arg[W][pos - first[W], slot - cols(W)[1].start]) or slot
    return value, pieces, states


def _relaxation(band: _Band, expired):
    """The relaxation's costs to the horizon by one backward sweep over
    intervals; returns (F, H, states), F and H None when the deadline
    expired first. F[W, d] and H[W, d] are the cheapest relaxed costs from a block
    start and from a block boundary at band cell (W, d), _fill's F_W and
    H_W over rows that count no length, capped at _HUGE: F is _HUGE at
    W = 0, H is the trailing gap there and _HUGE at W = sum(p). states
    counts the cells as _fill does, an F and (below the top) a G each.

    Cell (W, d) lies at interval k = t_end - W + d, so the cells of one
    interval are one diagonal of each table, a strided slice. From the
    last interval a block may start at down to t_on, each step fills that
    diagonal: F from H at k + p, a job of length p done, one gather over
    every length; then each zero-time class of the band's plan takes its
    cheapest cost from the start of k for every W of the diagonal, as in
    `spaces._sweep_rows`: its steps pull the costs of the classes they
    reach at k + t, proc's class takes F at k, where a block may start,
    and the time-0 closure follows. Proc's cost is then H at k, the gap
    or the block start, whichever is cheaper. The clock is read once per
    interval.

    Class costs are never clamped: they hold INF, or F plus the weight of
    a path, and no path weighs as much as COST_LIMIT = 2^61, so each stays
    below 2^63."""
    plan, R, t_end, ps = band.plan, band.R, band.t_end, band.ps
    top = t_end - band.t_on
    stride = R + 1  # from (W, d) to (W + 1, d + 1), the next cell of a diagonal
    # H(W - p, d) lies p * R before (W, d) in the flat tables; H has max(p)
    # rows of _HUGE above it, which a length longer than W reads
    pad = int(ps[-1]) * R
    hp = np.full(pad + (top + 1) * R, _HUGE, dtype=np.int64)
    F = np.full((top + 1, R), _HUGE, dtype=np.int64)
    H = hp[pad:].reshape(top + 1, R)
    H[0] = band.tail
    f = F.reshape(-1)
    back = pad - ps[:, None] * R + np.arange(min(R, top)) * stride  # H of each length, in hp
    runs = band.runs.T[:, :, None]  # runs[k, j]: a job of length ps[j] from interval k
    last = t_end + R - 2  # the last interval a block may start at
    # ring[k % slots][c][W]: class c's cost at interval k, at the W of its
    # diagonal; entries above them belong to later intervals and stay INF
    ring = plan.ring(top)
    scratch = np.empty(top, dtype=np.int64)
    states = 0
    for k in range(last, band.t_on - 1, -1):
        if expired():
            return None, None, states
        w0, w1 = max(1, t_end - k), min(top, last + 1 - k)  # the W of k's diagonal
        at, n = k - t_end + w0 * stride, w1 - w0 + 1  # (w0, d) in the flat tables; cells
        diag = f[at:at + n * stride - R:stride]
        np.minimum(diag, (hp[back[:, :n] + at] + runs[k]).min(axis=0), out=diag)
        states += n
        m = min(w1, top - 1) - w0 + 1  # the cells with a G: not the top layer
        if m <= 0:
            continue
        cur = plan.pull(ring, k, slice(w0, w0 + m), last, scratch[:m])
        np.minimum(cur[plan.proc], diag[:m], out=cur[plan.proc])
        plan.close(cur)
        hp[pad + at:pad + at + m * stride - R:stride] = cur[plan.proc]
        states += m
    return F, H, states


def _relaxed_optimum(band: _Band, F: np.ndarray, H: np.ndarray):
    """The relaxation's (value, pieces) from its costs to the horizon,
    walked from the cheapest root as _band_optimum walks _fill's choices:
    the first cheapest job length, shortest first; a gap only where it is
    cheaper than merging; and the nearest of its cheapest ends, priced by
    phi. A gap that phi prices off the sweep's cost raises InputError:
    the table does not match its instance. Returns (value, pieces) as
    _band_optimum does."""
    phi, R, t_end, ps = band.phi, band.R, band.t_end, band.ps.tolist()
    W = t_end - band.t_on
    root = phi[1, band.t_on:band.t_on + R] + F[W]
    d = int(root.argmin())
    value = int(root[d])
    pieces: list[tuple[int, int]] = []
    Hd = None  # H and F at offset d and W or less, as lists, read again after each gap
    while W and value < _HUGE:
        if Hd is None:
            Hd, Fd = H[:W + 1, d].tolist(), F[:W + 1, d].tolist()
        k = t_end - W + d  # the block starts at interval k
        run = band.runs[:, k].tolist()
        cost = [run[j] + Hd[W - p] for j, p in enumerate(ps) if p <= W]
        j = cost.index(min(cost))
        pieces.append((k, ps[j]))
        W -= ps[j]
        if W and Hd[W] < Fd[W]:
            i = k + ps[j] - 1  # the gap starts after interval i
            ends = phi[i, t_end - W:t_end - W + R] + F[W]
            e = int(ends.argmin())
            if ends[e] != Hd[W]:
                raise InputError(f"the gap after interval {i} costs {int(ends[e] - F[W, e])} in "
                                 f"phi, not its cheapest switching cost: the table does not "
                                 f"match its instance")
            d, Hd = e, None
    return value, pieces


def _rows(ps: np.ndarray, counts: np.ndarray, counted: np.ndarray):
    """The rows of a band DP in _fill's (first, succ) form: one per (W, m),
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


def _spans(mask: np.ndarray) -> list[slice]:
    """For each row of mask, the slice from its first held offset to its
    last, or an empty slice where it holds nowhere."""
    held = mask.any(axis=1)
    first = np.where(held, mask.argmax(axis=1), 0).tolist()
    stop = np.where(held, mask.shape[1] - mask[:, ::-1].argmax(axis=1), 0).tolist()
    return [slice(a, b) for a, b in zip(first, stop)]


def _reversed(band: _Band) -> _Band:
    """The band of the time-reversed instance, interval k becoming
    h + 1 - k, for the relaxation alone: a job run is read backwards,
    the machine's plan is turned round (`ClassPlan.reversed`), t_on
    becomes h + 1 - t_off, R stays, and the trailing gap of a block end
    at offset d is the root gap to offset R - 1 - d. It has no phi. A
    block start at offset d with W work left becomes a block end just
    before offset R - 1 - d with sum(p) - W left, and a block end just
    before d a block start at R - 1 - d."""
    h = band.runs.shape[1] - 1
    runs = np.full_like(band.runs, _HUGE)
    for j, p in enumerate(band.ps.tolist()):
        runs[j, 1:h + 2 - p] = band.runs[j, h + 1 - p:0:-1]
    t_on = h + 3 - band.t_end - band.R  # h + 1 - t_off
    return band._replace(phi=None, runs=runs, tail=band.phi[1, band.t_on:band.t_on + band.R][::-1],
                         plan=band.plan.reversed(), t_on=t_on,
                         t_end=t_on + band.t_end - band.t_on)


def _fit(ps: np.ndarray, counts: np.ndarray, lengths: list[int], expired) -> list[list[int]] | None:
    """Split the jobs into blocks of the given lengths: for each block, the
    lengths of the jobs it holds. None when no split exists, its memory
    would pass _FIT_BYTES, or the deadline expired.

    A knapsack over the lattice of count vectors of every length but the
    shortest, q: block by block, layer[l] = layer[l - q] | (layer[l - p]
    one step along p's axis) for every other length p, from layer[0] = the
    vectors reachable before the block. The jobs fill the blocks exactly
    when the full count vector is reachable after the last one. The
    longest length's axis is packed 64 counts to a word, and only the set
    before each block is kept. Walking back, a block holds what takes the
    current vector down to any vector of that set with no more work than
    the block's length. Jobs of length q fill the rest, always a multiple
    of q: every vector of a set is reached with the work before its block.
    """
    q, others, c = int(ps[0]), ps[1:].tolist(), counts[1:].tolist()
    if not others:
        if any(L % q for L in lengths):
            return None
        return [[q] * (L // q) for L in lengths]
    shape = tuple(k + 1 for k in c[:-1]) + (c[-1] // 64 + 1,)
    longest = others[-1]
    cells = int(np.prod([k + 1 for k in c], dtype=object))
    words = cells // (c[-1] + 1) * shape[-1]
    if 8 * words * (len(lengths) + longest + 1) + 16 * cells > _FIT_BYTES:
        return None

    def grow(S: np.ndarray, L: int) -> np.ndarray:
        """The vectors reachable after a block of length L from those in S."""
        layers = [S]
        for l in range(1, L + 1):
            cur = layers[l - q].copy() if l >= q else np.zeros_like(S)
            for a, p in enumerate(others):
                if p > l:
                    break
                src = layers[l - p]
                if p < longest:
                    lead = (slice(None),) * a
                    cur[lead + (slice(1, None),)] |= src[lead + (slice(None, -1),)]
                else:  # the packed axis: one bit up, carried across words
                    cur |= src << 1
                    cur[..., 1:] |= src[..., :-1] >> 63
            layers.append(cur)
            if l >= longest:
                layers[l - longest] = None
        return layers[L]

    def box(S: np.ndarray, lo: list[int], hi: list[int]) -> np.ndarray:
        """S unpacked to booleans over the count vectors from lo to hi."""
        w0 = lo[-1] // 64
        words = S[tuple(slice(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))
                  + (slice(w0, hi[-1] // 64 + 1),)]
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1,
                             bitorder="little")
        return bits[..., lo[-1] - 64 * w0:hi[-1] - 64 * w0 + 1].view(bool)

    S = np.zeros(shape, dtype=np.uint64)
    S[(0,) * len(shape)] = 1
    before = []
    for L in lengths:
        if expired():
            return None
        before.append(S)
        S = grow(S, L)
        if not S.any():
            return None
    if not box(S, c, c).all():
        return None

    split = []
    v = c
    for S, L in zip(before[::-1], lengths[::-1]):
        lo = [max(0, k - L // p) for k, p in zip(v, others)]
        share = np.zeros((), dtype=np.int32)  # the work a step from lo + i to v puts in the block
        for a, k, p in zip(lo, v, others):
            share = np.add.outer(share, np.arange((k - a) * p, -1, -p, dtype=np.int32))
        fits = box(S, lo, v) & (share <= L)
        prev = [a + i for a, i in zip(lo, np.unravel_index(int(fits.argmax()), fits.shape))]
        held = [p for p, k, a in zip(others, v, prev) for _ in range(k - a)]
        split.append([q] * ((L - sum(held)) // q) + held)
        v = prev
    return split[::-1]


def solve_exact(inst: Instance, table: SpacesTable, time_limit: float | None = None) -> SolveResult:
    """Provably optimal schedule for the instance, or infeasible.

    The band's cell count alone picks the order. At most _DP_ALONE_CELLS
    cells: the band DP of the module docstring, its choices walked from
    the root, the gap after interval 1. Among equal-cost schedules the
    one whose (start, length) pieces, sorted by start, form the
    lexicographically smallest sequence wins. More cells: the relaxation
    first, one sweep over intervals and the machine's zero-time classes
    (_relaxation), and the fit's schedule when the jobs fit its blocks
    (_fit); without a fit, at most _DP_CELL_LIMIT cells, the elimination
    rounds, which end in the full DP's schedule. The steps share one search state
    and leave by one exit, stop, which assembles the answer and re-prices
    it (RuntimeError when the price is off). Over the cell limit, or once
    the time limit expires, the answer has status "timeout": the cheaper
    of a failed round's schedule and the one-block incumbent at t_on,
    under the cut the rounds reached or the relaxed value (before the
    relaxation completes, the cheapest root gap plus all work at the
    cheapest later price). A solve that ends within the time limit gives
    the untimed answer.
    stats.stop_reason says which limit stopped the solve, stats.certifier
    what proved an optimum ("dp", "fit" or "rounds"), stats.rounds how
    many rounds began, and stats.states the DP cells filled, the
    relaxation's included, counted as the fill counts them (an F and,
    below the top layer, a G per cell). A time limit must be >= 0; inf,
    like None, sets no limit. The relaxation reads the clock once per
    interval, the fill once per layer and per min-plus chunk.
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
    phi = np.minimum(table.phi_matrix, _HUGE)  # an unreachable gap costs _HUGE
    proc = inst.state_set.proc_state
    p_proc = inst.transitions.power(proc, proc)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    const = _boundary_constant(inst)
    ps, counts = np.unique(inst.jobs, return_counts=True)
    sum_p = sum(inst.jobs)
    R = t_off - t_on + 2 - sum_p  # band width: window slack + 1
    # The search state: DP cells filled, rounds begun, the best lower
    # bound and the cheapest (value, pieces) found, which a step that
    # proves it optimal sets. Before the relaxed value, which is never
    # below it, the bound is the cheapest root gap plus all work at the
    # cheapest later price.
    ends = np.arange(2, t_on + R)
    suf_min = np.minimum.accumulate(np.diff(C[:t_off + 1])[::-1])[::-1]  # cheapest price from i on
    bound = int(np.min(phi[1, ends] + sum_p * p_proc * suf_min[ends - 1], initial=_HUGE))
    states, rounds, found = 0, 0, None

    def stop(reason: str) -> SolveResult:
        """The answer of the search state, for "infeasible", a limit
        ("time_limit" or "cell_limit") or what proved found optimal ("dp",
        "fit" or "rounds"). At a limit: the cheaper of found and all jobs
        in one block at t_on, shorter first, under bound."""
        proved = reason in ("dp", "fit", "rounds")
        status = "optimal" if proved else "infeasible" if reason == "infeasible" else "timeout"
        tec = sched = lb = None
        if proved:
            value, pieces = found
        elif status == "timeout":
            pieces, at = [], t_on
            for p in sorted(inst.jobs):
                pieces.append((at, p))
                at += p
            value = int(phi[1, t_on] + phi[at - 1, h] + (C[at - 1] - C[t_on - 1]) * p_proc)
            if found is not None and found[0] < value:
                value, pieces = found
        if status != "infeasible":
            sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
            tec, lb = value + const, (value if proved else bound) + const
            check = compute_tec(inst, sched)
            if check != tec:
                raise RuntimeError(f"assembled schedule costs {check}, search found {tec}")
        stats = SolveStats(states=states, wall_time=time.monotonic() - t0, lower_bound=lb,
                           stop_reason="optimal" if proved else reason,
                           certifier=reason if proved else None, rounds=rounds)
        return SolveResult(tec=tec, schedule=sched, status=status, stats=stats)

    if R < 1:
        return stop("infeasible")

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    # A gap between blocks ends at least two past its start; the root gaps
    # (row 1) and the trailing gaps (column h) keep every entry.
    for i in range(2, h):
        phi[i, :min(i + 2, h)] = _HUGE
    runs = np.full((len(ps), h + 1), _HUGE, dtype=np.int64)
    for j, p in enumerate(ps.tolist()):
        runs[j, 1:h + 2 - p] = (C[p:] - C[:h + 1 - p]) * p_proc
    band = _Band(phi=phi, runs=runs, tail=phi[t_on + sum_p - 1:t_on + sum_p - 1 + R, h],
                 plan=table.graph.class_plan, t_on=t_on, t_end=t_on + sum_p, R=R, ps=ps)
    every = np.ones(len(ps), dtype=bool)
    cells = int(np.prod(counts + 1, dtype=object)) * R
    if cells <= _DP_ALONE_CELLS:
        value, pieces, states = _band_optimum(band, _rows(ps, counts, every),
                                              lambda W: (slice(0, R),) * 2, expired)
        if value is None:
            return stop("time_limit")
        if value >= _HUGE:
            return stop("infeasible")
        found = (value, pieces)
        return stop("dp")

    F, H, states = _relaxation(band, expired)
    if F is None:
        return stop("time_limit")
    relaxed, pieces = _relaxed_optimum(band, F, H)
    if relaxed >= _HUGE:
        return stop("infeasible")
    bound = relaxed
    blocks: list[list[int]] = []  # [start, length] of the merged blocks
    for a, p in pieces:
        if blocks and sum(blocks[-1]) == a:
            blocks[-1][1] += p
        else:
            blocks.append([a, p])
    split = _fit(ps, counts, [L for _a, L in blocks], expired)
    if split is not None:
        found = (relaxed, [(a + sum(held[:k]), p) for (a, _L), held in zip(blocks, split)
                           for k, p in enumerate(held)])
        return stop("fit")
    if expired():
        return stop("time_limit")
    if cells > _DP_CELL_LIMIT:
        return stop("cell_limit")

    # Reduced-cost elimination: a cell whose cheapest relaxed schedule
    # costs more than ub lies on no schedule of cost ub or less. Each round
    # fills the DP on the cells at or below a cut, one of those costs,
    # ascending from the relaxed value; the rounds share the rows. A
    # round at the cut of a schedule already found cannot fail, and is
    # taken next unless it keeps more than twice the cells of the next
    # cut. Once the rounds have filled as many cells as the whole DP would
    # (an F and a G per band cell), the next round keeps every cell.
    # The cheapest relaxed cost from the root to a block start at (W, d),
    # A_W[d], is the reversed relaxation's H at the start's mirror (at
    # W = sum(p), its trailing gap: the root gap), and to a block end,
    # B_W[d], its F there. A + F and B + H are the cheapest relaxed
    # schedules through each cell. H_0, the trailing gap, is no cell of a
    # round: every round fills it whole.
    F_rev, H_rev, filled = _relaxation(_reversed(band), expired)
    states += filled
    if F_rev is None:
        return stop("time_limit")
    through = (H_rev[::-1, ::-1] + F, F_rev[::-1, ::-1] + H)
    through[1][0] = _HUGE
    alive = np.sort(np.concatenate([via.ravel() for via in through]))
    alive = alive[:np.searchsorted(alive, _HUGE)]
    cuts = alive[np.diff(alive, prepend=alive[0] - 1) > 0].tolist()  # the relaxed value first
    below = np.searchsorted(alive, cuts, side="right")  # the cells at or below each cut
    rows = _rows(ps, counts, every)
    k = spent = 0
    while True:
        cols = list(zip(*(_spans(via <= cuts[k]) for via in through)))
        value, pieces, filled = _band_optimum(band, rows, cols.__getitem__, expired)
        states, spent, rounds = states + filled, spent + filled, rounds + 1
        if value is None:
            return stop("time_limit")
        # Every schedule below the next cut lies on this round's cells, so a
        # value below it is the optimum, reached by the full DP's walk.
        bound = cuts[k + 1] if k + 1 < len(cuts) else _HUGE
        if value < bound:
            found = (value, pieces)
            return stop("rounds")
        if bound >= _HUGE:
            return stop("infeasible")
        if value < _HUGE and (found is None or value < found[0]):
            found = (value, pieces)
        k += 1
        if spent >= 2 * cells:
            k = len(cuts) - 1
        elif found is not None:
            last = int(np.searchsorted(cuts, found[0], side="right")) - 1
            if below[last] <= 2 * below[k]:
                k = last


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
