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

Each section (the objective, the assignment rows, the flow rows) is one
list of sign, coefficient and name pieces joined once. One rule breaks its
lines: over the running total cum of the term lengths, a row's head in its
first term, a line opening at term b ends before term max(b + 1, k), k the
last term with cum[k] <= cum[b] + _WRAP - 2, + 2 on a row's first line (a
continuation line opens with two spaces); one search finds every k.

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
from dataclasses import dataclass

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


def _text(heads: list[str], tails: list[str], starts: list[int], sign: list[str],
          size: np.ndarray, *words: list[str]) -> str:
    """Rows of terms, wrapped as the module docstring says, one row after
    another. Row r is heads[r], terms starts[r] .. starts[r + 1] - 1 (the
    last row runs to the last term) and tails[r], which no break counts.
    Term t is sign[t] (" + " or " - ") and words[0][t], words[1][t], ...;
    size[t] is its length; a head replaces its row's first sign. A line
    takes the next term unless that would take it past _WRAP characters,
    and always takes at least one. sign and size are edited in place."""
    size[starts] += np.fromiter(map(len, heads), np.int64, len(heads)) - 3
    cum = np.concatenate(([0], np.cumsum(size)))
    reach = np.searchsorted(cum, cum[:-1] + (_WRAP - 2), "right") - 1
    np.maximum(reach, np.arange(1, size.size + 1), out=reach)
    first = np.maximum(np.add(starts, 1), np.searchsorted(cum, cum[starts] + _WRAP, "right") - 1)
    for r, (b, end) in enumerate(zip(first.tolist(), [*starts[1:], size.size])):
        sign[starts[r]] = heads[r] if r == 0 else tails[r - 1] + "\n" + heads[r]
        while b < end:
            sign[b] = "\n  " + sign[b]
            b = reach.item(b)
    del cum, reach
    parts = [""] * ((1 + len(words)) * size.size)
    for k, column in enumerate((sign, *words)):
        parts[k::1 + len(words)] = column
    return "".join(parts) + tails[-1]


def emit_ilp_spaces(inst: Instance, table: SpacesTable) -> IlpModelArtifact:
    """Build the LP text, the columns and the objective constant."""
    h = inst.horizon
    t_on, t_off = table.window
    phi = table.phi_matrix
    pw = inst.transitions.power(inst.state_set.proc_state, inst.state_set.proc_state)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    num = [str(k) for k in range(h + 1)]  # interval numbers as text, formatted once
    digits = np.fromiter(map(len, num), np.int64, h + 1)

    # the columns in order, x per job and start, then y per gap: name, its
    # length, cost, and first covered interval and end = last covered one + 1
    names, sizes, costs, spans, xs, job_starts = [], [], [], [], [], []
    for j, p in enumerate(inst.jobs, start=1):
        if t_on > t_off - p + 1:
            raise InfeasibleError(f"infeasible window: job {j} has no admissible start")
        starts = np.arange(t_on, t_off - p + 2)
        job_starts.append(len(names))
        names += map(f"x_{j}_".__add__, num[t_on:t_off - p + 2])
        sizes.append(len(f"x_{j}_") + digits[starts])
        costs.append((C[starts + p - 1] - C[starts - 1]) * pw)
        spans.append(np.stack((starts, starts + p), axis=1))
        xs.append([j, t_on, t_off - p + 1])
    assign = _text([f" assign_{j}: " for j, _lo, _hi in xs], [" = 1"] * len(xs), job_starts,
                   [" + "] * len(names), 3 + np.concatenate(sizes), names)
    gi, gip = np.nonzero(np.triu(phi < _UNREACHABLE, 2) & ~table.pruned_mask)
    sizes.append(3 + digits[gi] + digits[gip])
    costs.append(phi[gi, gip])
    spans.append(np.stack((gi + 1, gip), axis=1))
    # the gaps as runs of consecutive ends: a run starts at the first gap
    # and wherever the start changes or the end jumps
    opens = np.ones(gi.size, dtype=bool)
    opens[1:] = (gi[1:] != gi[:-1]) | (gip[1:] != gip[:-1] + 1)
    head = np.flatnonzero(opens)
    first_ip = gip[head]
    gaps = np.stack((gi[head], first_ip, first_ip + np.diff(head, append=gi.size) - 1),
                    axis=1).tolist()
    del gi, gip, opens, head, first_ip
    for i, lo, hi in gaps:
        names += map(f"y_{i}_".__add__, num[lo:hi + 1])

    # the window and the gap bodies keep every column inside 2..h-1, so
    # interval k is open to the columns with first <= k < end
    rows = np.concatenate(spans).ravel()
    open_cols = np.cumsum(np.bincount(rows[0::2], minlength=h + 1)
                          - np.bincount(rows[1::2], minlength=h + 1))
    shut = np.flatnonzero(open_cols[2:h] == 0)
    if shut.size:
        raise InfeasibleError(f"interval {shut[0] + 2} can be neither processed nor bridged")
    name_size = np.concatenate(sizes)
    del spans, sizes

    # each distinct cost is formatted once, with the space that follows it
    values, which = np.unique(np.concatenate(costs), return_inverse=True)
    del costs
    coef = np.array([f"{c} " for c in values.tolist()], dtype=object)
    size = 3 + np.fromiter(map(len, coef), np.int64, coef.size)[which] + name_size
    obj = _text([" obj: "], [""], [0], [" + "] * len(names), size, coef[which].tolist(), names)
    del which, size

    # flow term 2c is +column c in row first[c] and 2c + 1 is -column c in
    # row end[c]; one stable sort by row keeps each row's terms in column
    # order. Terms in row h are not written, nor is a row without terms,
    # which would state 0 = 0
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(2, h + 1))
    del rows
    order = order[:bounds[-1]]
    kept = np.flatnonzero(bounds[:-1] < bounds[1:])
    row_starts = bounds[kept].tolist()
    heads = [f" flow_{k}: " + ("- " if m else "")
             for k, m in zip((kept + 2).tolist(), (order[row_starts] & 1).tolist())]
    flow = _text(heads, [" = 1" if k == 0 else " = 0" for k in kept.tolist()], row_starts,
                 np.array([" + ", " - "], dtype=object)[order & 1].tolist(),
                 3 + name_size[order >> 1], np.array(names, dtype=object)[order >> 1].tolist())
    del order

    lines = ["Minimize", obj, "Subject To", assign, flow, "Binary", " " + "\n ".join(names), "End"]
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
