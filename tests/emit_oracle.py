"""The LP emitter as it was before each section of the text was built from
piece lists: a bisect per wrapped line and one string operation per term.
Kept verbatim as the oracle that the current emitter must match byte for
byte."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from tousched.model import InfeasibleError, Instance
from tousched.modelgen import _WRAP, IlpModelArtifact
from tousched.solver import _boundary_constant
from tousched.spaces import SpacesTable, _UNREACHABLE


def _wrap(text: str, cuts: list[int]) -> str:
    """Break one row, written on a single line, into lines of at most _WRAP
    characters where it can.

    cuts[b] is where piece b starts in text, and cuts[-1] where the last
    piece ends; a tail may follow it. Every piece after the first starts
    with a space and its sign. A line takes the next piece unless that
    would take it past _WRAP characters, and always takes at least one; a
    continuation line is three spaces and its first piece without the
    leading space."""
    lines, b, start, room = [], 0, 0, _WRAP
    while True:
        b = max(b + 1, bisect_right(cuts, room) - 1)
        if b >= len(cuts) - 1:
            lines.append(text[start:])
            return "\n  ".join(lines)
        lines.append(text[start:cuts[b]])
        start = cuts[b]
        room = start + _WRAP - 2


def _wrap_terms(head: str, pieces: list[str], tail: str) -> str:
    """One row of signed pieces (" + term" or " - term"), wrapped. The
    first piece is written without its " + " or its leading space; it is
    replaced in the list."""
    first = pieces[0]
    pieces[0] = head + (first[3:] if first.startswith(" + ") else first[1:])
    return _wrap("".join(pieces) + tail, list(accumulate(map(len, pieces), initial=0)))


def _flow_rows(h: int, names: list[str], first: np.ndarray, end: np.ndarray) -> list[str]:
    """The flow rows 2..h-1, wrapped, of columns that cover first..end-1.

    Flow term 2c is +column c in row first[c] and 2c + 1 is -column c in
    row end[c]; one stable sort by row keeps each row's terms in column
    order. A row without terms would state 0 = 0 and is not written."""
    rows = np.stack((first, end), axis=1).ravel()
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(2, h + 1))
    # a term is its sign and its column's name: " + ", " - ", or for the
    # first term of a row "" and "- "
    sign = order & 1
    sign[bounds[:-1][bounds[:-1] < bounds[1:]]] += 2
    col = order >> 1
    size = np.array([3, 3, 0, 2])[sign] + np.fromiter(map(len, names), np.int64, len(names))[col]
    cum = np.concatenate(([0], np.cumsum(size)))  # length of the terms before each term
    parts = np.empty(2 * len(order), dtype=object)
    parts[0::2] = np.array([" + ", " - ", "", "- "], dtype=object)[sign]
    parts[1::2] = np.array(names, dtype=object)[col]
    bounds = bounds.tolist()
    out = []
    for k in range(2, h):
        lo, hi = bounds[k - 2], bounds[k - 1]
        if lo < hi:
            head = f" flow_{k}: "
            text = head + "".join(parts[2 * lo:2 * hi].tolist()) + (" = 1" if k == 2 else " = 0")
            out.append(_wrap(text, (cum[lo:hi + 1] - (cum[lo] - len(head))).tolist()))
    return out


def emit_ilp_spaces(inst: Instance, table: SpacesTable) -> IlpModelArtifact:
    """Build the LP text, the columns and the objective constant."""
    h = inst.horizon
    t_on, t_off = table.window
    phi = table.phi_matrix
    pw = inst.transitions.power(inst.state_set.proc_state, inst.state_set.proc_state)
    C = inst.cost_prefix
    num = [str(k) for k in range(h + 1)]  # interval numbers as text, formatted once

    # the columns in order, x per job and start, then y per gap: name,
    # cost, first covered interval and end = last covered interval + 1
    names, costs, xs, firsts, ends, assign = [], [], [], [], [], []
    for j, p in enumerate(inst.jobs, start=1):
        if t_on > t_off - p + 1:
            raise InfeasibleError(f"infeasible window: job {j} has no admissible start")
        starts = range(t_on, t_off - p + 2)
        job_names = list(map(f"x_{j}_".__add__, num[t_on:t_off - p + 2]))
        names += job_names
        costs += [(C[i + p - 1] - C[i - 1]) * pw for i in starts]
        xs.append([j, t_on, t_off - p + 1])
        firsts.append(np.arange(t_on, t_off - p + 2))
        ends.append(firsts[-1] + p)
        assign.append(_wrap_terms(f" assign_{j}: ", [" + " + name for name in job_names], " = 1"))
    gi, gip = np.nonzero(np.triu(phi < _UNREACHABLE, 2) & ~table.pruned_mask)
    firsts.append(gi + 1)
    ends.append(gip)
    costs += phi[gi, gip].tolist()
    # the gaps as runs of consecutive ends: a run starts at the first gap
    # and wherever the start changes or the end jumps
    opens = np.ones(gi.size, dtype=bool)
    opens[1:] = (gi[1:] != gi[:-1]) | (gip[1:] != gip[:-1] + 1)
    head = np.flatnonzero(opens)
    first_ip = gip[head]
    gaps = np.stack((gi[head], first_ip, first_ip + np.diff(head, append=gi.size) - 1),
                    axis=1).tolist()
    for i, lo, hi in gaps:
        names += map(f"y_{i}_".__add__, num[lo:hi + 1])

    # the window and the gap bodies keep every column inside 2..h-1, so
    # interval k is open to the columns with first <= k < end
    first, end = np.concatenate(firsts), np.concatenate(ends)
    open_cols = np.cumsum(np.bincount(first, minlength=h + 1) - np.bincount(end, minlength=h + 1))
    shut = np.flatnonzero(open_cols[2:h] == 0)
    if shut.size:
        raise InfeasibleError(f"interval {shut[0] + 2} can be neither processed nor bridged")

    obj = _wrap_terms(" obj: ", [f" + {c} {name}" for c, name in zip(costs, names)], "")
    lines = ["Minimize", obj, "Subject To", *assign, *_flow_rows(h, names, first, end),
             "Binary", " " + "\n ".join(names), "End"]
    return IlpModelArtifact("\n".join([*lines, ""]), _boundary_constant(inst), xs, gaps)
