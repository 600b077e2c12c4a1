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
fixed-size chunks. The band holds prod(count_p + 1) * (s + 1) cells.

The relaxation is the same fill (_fill) with one row per W instead of one
per multiset, so a block may hold any sequence of job lengths: a
state-space relaxation (Christofides, Mingozzi and Toth, Networks 11,
1981) whose optimum is a lower bound. TEC depends only on which intervals
process, so if the jobs split exactly into the relaxed optimum's merged
blocks (_fit), that schedule proves the bound optimal.

With no time limit and at most _DP_CELL_LIMIT band cells the DP runs
alone. Otherwise the relaxation and the fit run first. Without a fit, a
timed solve under the cell limit eliminates cells by reduced cost: one
forward sweep over the relaxation (_through) gives the cheapest relaxed
schedule through every cell, and deepening rounds fill the DP only on
the cells whose value is at most a cut ub, the distinct values taken in
ascending order from the relaxed bound. Every schedule below the next
cut lies on a round's cells, so a round whose value is below it has the
optimum and the full DP's walk; otherwise the bound rises to that cut.
Above the cell limit, or once the time limit expires, the solver answers
with its incumbent (a failed round's schedule or one block) and the best
bound it has (before the relaxation completes, a cruder admissible one).
"""

from __future__ import annotations

import bisect
import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .isg import build_graph
from .model import (InfeasibleError, InputError, Instance, Schedule, StatePair,
                    compute_tec, validate_schedule)
from .spaces import SpacesTable, _UNREACHABLE, compute_spaces, expand_space

_HUGE = int(_UNREACHABLE)
_DP_CELL_LIMIT = 2 ** 23  # band cells the DP may fill, prod(count_p + 1) * (slack + 1)
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

    phi: np.ndarray  # capped at _HUGE, and _HUGE at ip < i + 2 below row 1 and left of column h
    runs: np.ndarray  # runs[j, i]: processing cost of a job of length ps[j] from interval i
    t_on: int
    t_end: int
    R: int
    ps: np.ndarray  # the distinct job lengths, ascending


def _fill(band: _Band, links, cols, expired, keep: bool = False):
    """Fill the layers W = 1..sum(p) of a band DP; returns (F, f_arg,
    g_arg, states, values) with F the top layer's, or None when the
    deadline expired first.

    links(W) gives layer W's row count and, for each job length p in
    turn, the rows that can start a block with a job of length p and the
    row of layer W - p each of them continues in, or None when no row
    can (index arrays or slices either way). cols(W) gives the band
    offsets of layer W that are filled: where a block may start (F) and
    where one may have just ended (G), each an ascending index array or
    slice(None) for all. Every other cell is left out as if it cost
    _HUGE. The choices of every layer are stored for the kept columns
    only: the job length index of F, and the band offset of the gap end
    where a gap beats merging, 0 where it does not (a real gap ends at
    offset 1 or later). With keep, which needs one row per layer and
    every column, values[0][W] and values[1][W] are F_W and H_W of every
    layer; without, values is None.
    """
    phi, R, ps = band.phi, band.R, band.ps
    h = phi.shape[0] - 1
    every = np.arange(R)
    after = every + 1  # the first gap end past each start, with every column kept
    H: dict[int, np.ndarray] = {}  # min(F, G) of the last max(p) layers, at every offset
    top = band.t_end - band.t_on
    values = np.full((2, top + 1, R), _HUGE, dtype=np.int64) if keep else None
    f_arg: dict[int, np.ndarray] = {}
    g_arg: dict[int, np.ndarray] = {}
    f_type, g_type = np.min_scalar_type(len(ps) - 1), np.min_scalar_type(R - 1)
    buf = np.empty(max(_CHUNK, _BAND_ROWS * R), dtype=np.int64)
    states, longest = 0, int(ps[-1])
    for W in range(1, top + 1):
        H.pop(W - longest - 1, None)
        if expired():
            return None, f_arg, g_arg, states, values
        n_rows, succ = links(W)
        if n_rows == 0:
            continue
        s0 = band.t_end - W  # the block starts at interval s0 + d
        fc, hc = cols(W)
        whole = isinstance(fc, slice) and isinstance(hc, slice)
        ends = every[fc]
        runs = band.runs[:, s0:s0 + R] if whole else band.runs[:, s0:s0 + R][:, fc]
        cand = np.full((len(ps), n_rows, len(ends)), _HUGE, dtype=np.int64)
        for j, (p, link) in enumerate(zip(ps.tolist(), succ)):
            if link is None:
                continue
            has, nxt = link
            if W == p:
                rest = phi[s0 + p - 1 + ends, h]  # the last block pays the trailing gap
            else:
                rest = H[W - p][nxt] if whole else H[W - p][:, fc][nxt]
            cand[j, has] = runs[j] + rest
        F = np.minimum(cand.min(axis=0), _HUGE, out=values[0][W:W + 1] if keep else None)
        f_arg[W] = cand.argmin(axis=0).astype(f_type)  # the shortest length wins ties
        states += F.size
        if W == top:
            break
        e0 = s0 - 1  # gap starts e0 + d, ends e0 + 1 + d''
        phi_blk = phi[e0:e0 + R, e0 + 1:e0 + 1 + R]
        if whole:
            begins = every
            past, some = after, R - 1
        else:
            begins = every[hc]
            phi_blk = phi_blk[hc][:, fc]
            past = np.searchsorted(ends, begins, side="right")  # each start's first end column
            some = int(np.searchsorted(past, len(ends)))  # the starts with an end past them
        G = np.full((n_rows, len(begins)), _HUGE, dtype=np.int64)
        g_arg[W] = np.zeros(G.shape, dtype=g_type)
        # taller strips for few rows
        strip = max(_BAND_ROWS, _CHUNK // (n_rows * max(len(ends), 1)))
        for lo in range(0, some, strip):
            hi = min(lo + strip, some)
            b = int(past[lo])  # one strip's ends all lie past its first start
            blk = phi_blk[lo:hi, b:]
            step = max(1, _CHUNK // blk.size)
            for a in range(0, n_rows, step):
                if expired():
                    return None, f_arg, g_arg, states, values
                part = F[a:a + step, None, b:]
                out = buf[:len(part) * blk.size].reshape(len(part), *blk.shape)
                tot = np.add(part, blk, out=out)
                end = tot.argmin(axis=2) + b
                g_arg[W][a:a + step, lo:hi] = end if whole else ends[end]
                G[a:a + step, lo:hi] = tot.min(axis=2)
        states += G.size
        if whole:
            np.copyto(g_arg[W], 0, where=G >= F)
            H[W] = np.minimum(F, G, out=values[1][W:W + 1] if keep else None)
        else:  # F at G's columns, and H there only: a block ends nowhere else
            F_g = np.full((n_rows, R), _HUGE, dtype=np.int64)
            F_g[:, fc] = F
            F_g = F_g[:, hc]
            np.copyto(g_arg[W], 0, where=G >= F_g)
            H[W] = np.full((n_rows, R), _HUGE, dtype=np.int64)
            H[W][:, hc] = np.minimum(F_g, G)
    return F, f_arg, g_arg, states, values


def _band_optimum(band: _Band, links, cols, top_code: int, row_of, stride, expired,
                  keep: bool = False):
    """Fill a band DP and walk its choices from the cheapest root, the gap
    after interval 1; returns (value, pieces, states, values). value is
    None when the deadline expired first and _HUGE or more when no
    schedule exists; pieces are the (start, length) of every job in start
    order. links, cols, keep and values are _fill's.

    Rows are multiset codes: top_code is the top layer's, a job of length
    index j takes stride[j] off a code, and row_of(code) is the code's
    row in its layer."""
    F, f_arg, g_arg, states, values = _fill(band, links, cols, expired, keep)
    if F is None:
        return None, [], states, values
    every = np.arange(band.R)

    def column(c, d: int) -> int:
        return d if isinstance(c, slice) else int(np.searchsorted(c, d))

    W, code = band.t_end - band.t_on, top_code
    fc = cols(W)[0]
    root = band.phi[1, band.t_on:band.t_on + band.R][fc] + F[0]  # the top layer has one row
    k = int(root.argmin())
    value, slot = int(root[k]), int(every[fc][k])
    pieces: list[tuple[int, int]] = []
    while W and value < _HUGE:
        j = int(f_arg[W][row_of(code), column(cols(W)[0], slot)])
        pieces.append((band.t_end - W + slot, int(band.ps[j])))
        code, W = code - int(stride[j]), W - int(band.ps[j])
        if W:
            slot = int(g_arg[W][row_of(code), column(cols(W)[1], slot)]) or slot
    return value, pieces, states, values


def _columns(mask: np.ndarray) -> list:
    """For each row of mask, the offsets where it holds, or slice(None)
    where it holds everywhere."""
    rows, offsets = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(len(mask) + 1)).tolist()
    return [slice(None) if b - a == mask.shape[1] else offsets[a:b]
            for a, b in zip(ends, ends[1:])]


def _through(band: _Band, values, expired):
    """The cheapest relaxed schedule through every cell of the relaxation,
    from the values its _fill keeps: two arrays indexed [W, d], A_W + F_W
    and B_W + H_W, where A_W[d] is the cheapest relaxed cost from the root
    to a block that starts at offset d, and B_W[d] to a block that ended
    just before it, both from one forward sweep. None when the deadline
    expired first."""
    phi, R, ps = band.phi, band.R, band.ps
    top = band.t_end - band.t_on
    B = np.full((top + 1, R), _HUGE, dtype=np.int64)
    via_f, via_h = np.full((2, top + 1, R), _HUGE, dtype=np.int64)
    for W in range(top, 0, -1):
        if expired():
            return None
        s0 = band.t_end - W
        F, H = values[0][W], values[1][W]
        if W == top:
            A = phi[1, s0:s0 + R]  # the root gap
        else:
            e0 = s0 - 1
            Bw = np.minimum(B[W], _HUGE)
            gap = (Bw[:, None] + phi[e0:e0 + R, e0 + 1:e0 + 1 + R]).min(axis=0)
            A = np.minimum(np.minimum(Bw, gap), _HUGE)  # merge, or a gap from an earlier end
            via_h[W] = Bw + H
        via_f[W] = A + F
        for j, p in enumerate(ps.tolist()):
            if p < W:
                np.minimum(B[W - p], A + band.runs[j, s0:s0 + R], out=B[W - p])
    return via_f, via_h


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

    With no time limit and a band of at most _DP_CELL_LIMIT cells, fills
    the band DP of the module docstring, storing the argmin of every cell,
    then walks those choices from the root, the gap after interval 1.
    Among equal-cost schedules the one whose (start, length) pieces,
    sorted by start, form the lexicographically smallest sequence wins.

    Otherwise the relaxation runs first. When the jobs fit its blocks
    (_fit) the answer is that schedule, proved optimal by the bound.
    Without a fit, a timed solve under the cell limit runs the
    elimination rounds of the module docstring; they end in the same
    schedule as the full DP. Over the cell limit, or when the time limit
    expires first, the answer has status "timeout": the cheaper of a
    failed round's schedule and the one-block incumbent at t_on, under
    the cut the rounds reached or the relaxed value (or, when the
    deadline expires during the relaxation, the cheapest root gap plus
    all work at the cheapest later price).
    stats.stop_reason says which limit stopped the solve, stats.certifier
    what proved an optimum ("dp", "fit" or "rounds"), stats.rounds how
    many rounds began, and stats.states the DP cells filled, the
    relaxation's included. A time limit must be >= 0; inf, like None,
    sets no limit.
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

    def done(status: str, tec=None, sched=None, states=0, lb=None, reason=None,
             certifier=None, rounds=0) -> SolveResult:
        return SolveResult(tec=tec, schedule=sched, status=status,
                           stats=SolveStats(states=states, wall_time=time.monotonic() - t0,
                                            lower_bound=lb, stop_reason=reason or status,
                                            certifier=certifier, rounds=rounds))

    if R < 1:
        return done("infeasible")

    def incumbent(reason: str, states: int, bound: int | None = None, found=None,
                  rounds: int = 0) -> SolveResult:
        """The cheaper of found, the (value, pieces) of a schedule a round
        found, and all jobs in one block at t_on, shorter first. The bound
        is the round's or the relaxed value or, without one, the cheapest
        root gap plus all work at the cheapest later price (the relaxed
        value is never below it)."""
        if bound is None:
            ends = np.arange(2, t_on + R)
            costs = np.asarray(inst.costs[:t_off], dtype=np.int64)
            suf_min = np.minimum.accumulate(costs[::-1])[::-1]  # cheapest price from i on
            bound = int(np.min(phi[1, ends] + sum_p * p_proc * suf_min[ends - 1], initial=_HUGE))
        pieces, at = [], t_on
        for p in sorted(inst.jobs):
            pieces.append((at, p))
            at += p
        e = t_on + sum_p - 1
        value = int(phi[1, t_on] + phi[e, h] + (C[e] - C[t_on - 1]) * p_proc)
        if found is not None and found[0] < value:
            value, pieces = found
        sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
        tec = compute_tec(inst, sched)
        assert tec == const + value
        return done("timeout", tec=tec, sched=sched, states=states, lb=bound + const,
                    reason=reason, rounds=rounds)

    def optimal(pieces: list[tuple[int, int]], value: int, states: int, certifier: str,
                rounds: int = 0) -> SolveResult:
        sched = assemble_schedule(inst, _job_assignment(inst, pieces), table)
        tec = value + const
        check = compute_tec(inst, sched)
        if check != tec:
            raise RuntimeError(f"assembled schedule costs {check}, search found {tec}")
        return done("optimal", tec=tec, sched=sched, states=states, lb=tec,
                    certifier=certifier, rounds=rounds)

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    # A gap between blocks ends at least two past its start; the root gaps
    # (row 1) and the trailing gaps (column h) keep every entry.
    for i in range(2, h):
        phi[i, :min(i + 2, h)] = _HUGE
    runs = np.full((len(ps), h + 1), _HUGE, dtype=np.int64)
    for j, p in enumerate(ps.tolist()):
        runs[j, 1:h + 2 - p] = (C[p:] - C[:h + 1 - p]) * p_proc
    band = _Band(phi=phi, runs=runs, t_on=t_on, t_end=t_on + sum_p, R=R, ps=ps)
    every = (slice(None), slice(None))  # all rows of a relaxed layer, or all columns

    def whole(W: int):
        return every

    radix = counts + 1
    cells = int(np.prod(radix, dtype=object)) * R
    over = cells > _DP_CELL_LIMIT
    if deadline is not None or over:
        # One row per remaining work W: a block may hold any sequence of
        # job lengths, so the value is a lower bound.
        relaxed, pieces, states, layers = _band_optimum(
            band, lambda W: (1, [every if W >= p else None for p in ps.tolist()]),
            whole, sum_p, lambda code: 0, ps, expired, keep=True)
        if relaxed is None:
            return incumbent("time_limit", states)
        if relaxed >= _HUGE:
            return done("infeasible", states=states)
        blocks: list[list[int]] = []  # [start, length] of the merged blocks
        for a, p in pieces:
            if blocks and sum(blocks[-1]) == a:
                blocks[-1][1] += p
            else:
                blocks.append([a, p])
        split = _fit(ps, counts, [L for _a, L in blocks], expired)
        if split is not None:
            fitted = [(a + sum(held[:k]), p) for (a, _L), held in zip(blocks, split)
                      for k, p in enumerate(held)]
            return optimal(fitted, relaxed, states, "fit")
        if over:
            return incumbent("cell_limit", states, relaxed)

    # Multiset codes in mixed radix, the shortest length varying fastest.
    # Layer W, the codes with W work left in ascending order, is
    # order[first[W]:first[W + 1]].
    stride = np.cumprod(radix) // radix
    work = np.zeros(1, dtype=np.int32)
    for p, c in zip(ps[::-1].tolist(), counts[::-1].tolist()):
        work = np.add.outer(work, np.arange(0, p * c + 1, p, dtype=np.int32)).ravel()
    order = np.argsort(work, kind="stable").astype(np.int32)
    first = np.concatenate(([0], np.cumsum(np.bincount(work, minlength=sum_p + 1))))
    rank = np.empty_like(order)  # each code's row in its layer
    rank[order] = np.arange(order.size) - first[work[order]]
    # holds[j][i]: the multiset order[i] holds a job of length ps[j]
    holds = [order // stride[j] % radix[j] > 0 for j in range(len(ps))]

    def links(W: int):
        rows = order[first[W]:first[W + 1]]
        succ = []
        for j, p in enumerate(ps.tolist()):
            has = np.flatnonzero(holds[j][first[W]:first[W + 1]])
            if has.size:
                succ.append((has, rank[rows[has] - stride[j]] if W > p else None))
            else:
                succ.append(None)
        return rows.size, succ

    if deadline is None:
        value, pieces, filled, _ = _band_optimum(band, links, whole, order.size - 1,
                                                 rank.__getitem__, stride, expired)
        if value >= _HUGE:
            return done("infeasible", states=filled)
        return optimal(pieces, value, filled, "dp")

    # Reduced-cost elimination: a cell whose cheapest relaxed schedule
    # costs more than ub lies on no schedule of cost ub or less. Each round
    # fills the DP on the cells at or below a cut, one of those costs,
    # ascending from the relaxed value; the rounds share the row links. A
    # round at the cut of a schedule already found cannot fail, and is
    # taken next unless it keeps more than twice the cells of the next
    # cut. Once the rounds have filled as many cells as the whole DP would
    # (an F and a G per band cell), the next round keeps every cell.
    through = _through(band, layers, expired)
    if through is None:
        return incumbent("time_limit", states, relaxed)
    alive = np.sort(np.concatenate([via.ravel() for via in through]))
    alive = alive[:np.searchsorted(alive, _HUGE)]
    cuts = alive[np.diff(alive, prepend=alive[0] - 1) > 0].tolist()  # the relaxed value first

    def kept(k: int) -> int:
        return int(np.searchsorted(alive, cuts[k], side="right"))

    links = functools.cache(links)
    k, bound, found, spent, rounds = 0, relaxed, None, 0, 0
    while True:
        cols = list(zip(*(_columns(via <= cuts[k]) for via in through)))
        value, pieces, filled, _ = _band_optimum(band, links, cols.__getitem__, order.size - 1,
                                                 rank.__getitem__, stride, expired)
        states, spent, rounds = states + filled, spent + filled, rounds + 1
        if value is None:
            return incumbent("time_limit", states, bound, found, rounds)
        # Every schedule below the next cut lies on this round's cells, so a
        # value below it is the optimum, reached by the full DP's walk.
        bound = cuts[k + 1] if k + 1 < len(cuts) else _HUGE
        if value < bound:
            return optimal(pieces, value, states, "rounds", rounds)
        if bound >= _HUGE:
            return done("infeasible", states=states, rounds=rounds)
        if value < _HUGE and (found is None or value < found[0]):
            found = (value, pieces)
        k += 1
        if spent >= 2 * cells:
            k = len(cuts) - 1
        elif found is not None:
            last = bisect.bisect_right(cuts, found[0]) - 1
            if kept(last) <= 2 * kept(k):
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
