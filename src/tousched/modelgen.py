"""Emit the schedule problem as an LP-format integer program and import
external solutions back into schedules.

Variables: x_<j>_<i> places job j at start interval i (only admissible
starts inside the processing window are created); y_<i>_<ip> activates the
gap (i, ip) at its switching cost (only gaps with a non-empty body, a
defined switching cost and no pruning flag). One assignment equality per
job. Each interior interval is processed by one job or bridged by one gap.

Every column covers a run of intervals first..last: x_<j>_<i> covers
i..i+p_j-1 and y_<i>_<ip> its body i+1..ip-1. The column has +1 in
flow_<first> and -1 in flow_<last+1>, so row k of these flow rows is
covering row k minus covering row k - 1 (a row left without terms, 0 = 0,
is not written); the right-hand side is 1 in flow_2 and 0 after. The
transform is invertible over the integers, so the feasible set and the LP
bound are those of the covering rows.

The two boundary off intervals contribute a constant that is deliberately
kept out of the LP text and reported in the sidecar instead, so any
LP-format reader consumes the file unchanged. The sidecar stores the
columns as runs [a, first, last] of consecutive second indices: x per job,
and the gaps of one start i whose ends follow each other. The import
looks up only the names the assignment sets.
"""

from __future__ import annotations

import json
import re
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import (InfeasibleError, InputError, Instance, _integer, compute_tec, job_cost,
                    read_json, validate_schedule)
from .solver import SolveResult, SolveStats, _boundary_constant, assemble_schedule
from .spaces import SpacesTable, _UNREACHABLE

_WRAP = 200  # keep LP lines comfortably under common reader limits
_COLUMN = re.compile(r"([xy])_(0|-?[1-9]\d*)_(0|-?[1-9]\d*)", re.ASCII)  # as f"x_{j}_{i}" writes


@dataclass
class IlpModelArtifact:
    """The LP text, the objective constant and the columns in order: in x
    [j, first start, last start] per job, in gaps [i, first ip, last ip]
    per run of consecutive gap ends, a start holding one run or more."""
    lp_text: str
    constant_term: int
    x: list[list[int]]
    gaps: list[list[int]]

    @property
    def varmap(self) -> dict[str, dict]:
        """Every column name, in column order, with its kind and indices."""
        out = {f"x_{j}_{i}": {"kind": "x", "j": j, "i": i}
               for j, lo, hi in self.x for i in range(lo, hi + 1)}
        out.update((f"y_{i}_{ip}", {"kind": "y", "i": i, "ip": ip})
                   for i, lo, hi in self.gaps for ip in range(lo, hi + 1))
        return out


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


def write_artifact(artifact: IlpModelArtifact, lp_path) -> tuple[str, str]:
    """Write the LP text and its sidecar, the LP path plus .varmap.json;
    returns both paths."""
    lp_path = str(lp_path)
    map_path = lp_path + ".varmap.json"
    with open(lp_path, "w", encoding="utf-8") as fh:
        fh.write(artifact.lp_text)
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"constant_term": artifact.constant_term,
                             "x": artifact.x, "gaps": artifact.gaps}) + "\n")
    return lp_path, map_path


def _runs_ok(rows) -> bool:
    """rows is a list of [a, first, last] rows of integers (a bool is not one)."""
    return type(rows) is list and all(
        type(row) is list and len(row) == 3 and set(map(type, row)) <= {int} for row in rows)


def load_varmap(map_path) -> IlpModelArtifact:
    """Read a sidecar written by write_artifact: constant_term, in x one
    [j, first start, last start] row per job and in gaps [i, first ip,
    last ip] runs, all integers (a bool is not one)."""
    doc = read_json(map_path)
    if "variables" in doc or "y" in doc:
        old = "one object per variable" if "variables" in doc else "gaps as two lists under y"
        raise InputError(f"{map_path}: a variable map in the old format, {old}; re-run "
                         "emit-lp to write the current one")
    try:
        x, gaps = doc["x"], doc["gaps"]
        constant = _integer(doc["constant_term"], "constant_term")
        if not _runs_ok(x) or len({row[0] for row in x}) < len(x):
            raise TypeError("x must hold one [j, first start, last start] integer row per job")
        if not _runs_ok(gaps):
            raise TypeError("gaps must hold [i, first ip, last ip] integer runs")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{map_path}: malformed variable map: {exc}") from exc
    return IlpModelArtifact("", constant, x, gaps)


def parse_solution_text(text: str) -> dict[str, float]:
    """Read whitespace-separated "name value" lines, the common solver dump
    shape; lines that do not parse as a name plus a number are skipped."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2 or parts[0].startswith("#"):
            continue
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            pass
    return out


def import_solution(inst: Instance, table: SpacesTable, artifact: IlpModelArtifact,
                    assignment: dict[str, float]) -> SolveResult:
    """Decode a 0/1 assignment over the model variables into a schedule.

    Values must sit within 1e-6 of 0 or 1; variables missing from the
    assignment count as 0. The rebuilt schedule is re-priced from scratch
    and must match the assignment's objective plus the constant term.
    """
    t0 = time.monotonic()
    tol = 1e-6

    # the assignment's non-zero columns, checked below in column order; other
    # names are ignored. A column is x_j_i with i in job j's row or y_i_ip
    # with ip in one of i's runs. Rows are numbered x first, then the runs,
    # and a name is found in the last row that holds it, so a pair listed
    # twice is found at its later column
    rows: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for k, (a, lo, hi) in enumerate(artifact.x + artifact.gaps):
        rows.setdefault(("x" if k < len(artifact.x) else "y", a), []).append((k, lo, hi))

    hits = []
    for name, val in assignment.items():
        if abs(val) <= tol or not (m := _COLUMN.fullmatch(name)):
            continue
        kind, a, b = m[1], int(m[2]), int(m[3])
        k = next((k for k, lo, hi in reversed(rows.get((kind, a), ())) if lo <= b <= hi), None)
        if k is not None:
            hits.append(((k, b), name, val, kind, a, b))

    starts, gaps, objective = {}, [], 0
    for _, name, val, kind, a, b in sorted(hits):
        if not abs(val - 1.0) <= tol:  # NaN fails this test too
            raise InputError(f"non-integral assignment: {name} = {val}")
        if kind == "x":
            if a in starts:
                raise InfeasibleError(f"cover violated: job {a} assigned twice")
            starts[a] = b
            objective += job_cost(inst, a, b)
        else:
            cost = table.phi(a, b)
            if cost is None:
                raise InputError(f"variable {name} refers to a gap with no switching")
            gaps.append((a, b))
            objective += cost

    missing = [j for j in range(1, inst.n_jobs + 1) if j not in starts]
    if missing:
        raise InfeasibleError(f"cover violated: jobs {missing} unassigned")

    sched = assemble_schedule(inst, sorted(starts.items()), table, spaces=sorted(gaps))
    problems = validate_schedule(inst, sched)
    if problems:
        raise InfeasibleError("imported solution is infeasible: "
                              + "; ".join(str(v) for v in problems[:3]))
    tec = compute_tec(inst, sched)
    if tec != objective + artifact.constant_term:
        raise InputError(f"assignment objective {objective} + constant {artifact.constant_term} "
                         f"does not match the re-priced schedule cost {tec}")
    stats = SolveStats(states=0, wall_time=time.monotonic() - t0, lower_bound=None)
    return SolveResult(tec=tec, schedule=sched, status="imported", stats=stats)
