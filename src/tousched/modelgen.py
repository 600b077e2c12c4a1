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
LP-format reader consumes the file unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .model import (InfeasibleError, InputError, Instance, _integer, compute_tec, job_cost,
                    read_json, validate_schedule)
from .solver import SolveResult, SolveStats, _boundary_constant, assemble_schedule
from .spaces import SpacesTable, _UNREACHABLE

_WRAP = 200  # keep LP lines comfortably under common reader limits


@dataclass
class IlpModelArtifact:
    lp_text: str
    varmap: dict[str, dict]
    constant_term: int


def _wrap_terms(head: str, terms: list[str], tail: str) -> list[str]:
    """Join terms into wrapped lines; a term that starts with "- " is subtracted."""
    lines = []
    cur = head
    for k, term in enumerate(terms):
        piece = term if k == 0 else " " + (term if term[0] == "-" else "+ " + term)
        if len(cur) + len(piece) > _WRAP and cur != head:
            lines.append(cur)
            cur = "   " + piece.lstrip()
        else:
            cur += piece
    lines.append(cur + tail)
    return lines


def emit_ilp_spaces(inst: Instance, table: SpacesTable) -> IlpModelArtifact:
    """Build the LP text, the variable map and the objective constant."""
    h = inst.horizon
    t_on, t_off = table.window
    phi = table.phi_matrix

    columns: list[tuple[str, int, int, int]] = []  # name, cost, first, last
    assign: list[str] = []
    for j, p in enumerate(inst.jobs, start=1):
        if t_on > t_off - p + 1:
            raise InfeasibleError(f"infeasible window: job {j} has no admissible start")
        starts = range(t_on, t_off - p + 2)
        columns += [(f"x_{j}_{i}", job_cost(inst, j, i), i, i + p - 1) for i in starts]
        assign += _wrap_terms(f" assign_{j}: ", [f"x_{j}_{i}" for i in starts], " = 1")
    gi, gip = np.nonzero(np.triu(phi < _UNREACHABLE, 2) & ~table.pruned_mask)
    columns += [(f"y_{i}_{ip}", cost, i + 1, ip - 1)
                for i, ip, cost in zip(gi.tolist(), gip.tolist(), phi[gi, gip].tolist())]

    # the window and the gap bodies keep every column inside 2..h-1
    flow: list[list[str]] = [[] for _ in range(h + 1)]
    for name, _cost, first, last in columns:
        flow[first].append(name)
        flow[last + 1].append("- " + name)  # row h does not exist
    obj = [f"{cost} {name}" for name, cost, _f, _l in columns]
    lines = ["Minimize", *_wrap_terms(" obj: ", obj, ""), "Subject To", *assign]
    open_cols = 0
    for k in range(2, h):
        open_cols += sum(1 if t[0] != "-" else -1 for t in flow[k])
        if open_cols == 0:
            raise InfeasibleError(f"interval {k} can be neither processed nor bridged")
        if flow[k]:  # a row without terms would state 0 = 0
            lines += _wrap_terms(f" flow_{k}: ", flow[k], " = 1" if k == 2 else " = 0")
    lines += ["Binary", *(f" {name}" for name, _c, _f, _l in columns), "End"]

    varmap = {name: {"kind": "x", "j": int(name.split("_")[1]), "i": first} if name[0] == "x"
              else {"kind": "y", "i": first - 1, "ip": last + 1}
              for name, _c, first, last in columns}
    return IlpModelArtifact(lp_text="\n".join(lines) + "\n", varmap=varmap,
                            constant_term=_boundary_constant(inst))


def write_artifact(artifact: IlpModelArtifact, lp_path) -> tuple[str, str]:
    """Write the LP text and its sidecar, the LP path plus .varmap.json;
    returns both paths."""
    lp_path = str(lp_path)
    map_path = lp_path + ".varmap.json"
    with open(lp_path, "w", encoding="utf-8") as fh:
        fh.write(artifact.lp_text)
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"constant_term": artifact.constant_term,
                             "variables": artifact.varmap}) + "\n")
    return lp_path, map_path


_VARMAP_KEYS = {"x": ("j", "i"), "y": ("i", "ip")}  # the integer fields of each kind


def load_varmap(map_path) -> IlpModelArtifact:
    """Read a sidecar written by write_artifact. Every entry must be an x
    with integer j and i or a y with integer i and ip."""
    doc = read_json(map_path)
    try:
        artifact = IlpModelArtifact(lp_text="", varmap=dict(doc["variables"]),
                                    constant_term=_integer(doc["constant_term"], "constant_term"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{map_path}: malformed variable map: {exc}") from exc
    for name, meta in artifact.varmap.items():
        kind = meta.get("kind") if isinstance(meta, dict) else None
        keys = _VARMAP_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None or any(type(meta.get(k)) is not int for k in keys):
            raise InputError(f"{map_path}: variable {name!r} is neither an x entry with "
                             f"integer j and i nor a y entry with integer i and ip")
    return artifact


def parse_solution_text(text: str) -> dict[str, float]:
    """Read whitespace-separated "name value" lines, the common solver dump
    shape; lines that do not parse as a name plus a number are skipped."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            continue
        try:
            val = float(parts[1])
        except ValueError:
            continue
        out[parts[0]] = val
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

    starts: dict[int, int] = {}
    gaps: list[tuple[int, int]] = []
    objective = 0
    for name, meta in artifact.varmap.items():
        val = assignment.get(name, 0.0)
        if abs(val) <= tol:
            continue
        if not abs(val - 1.0) <= tol:  # NaN fails this test too
            raise InputError(f"non-integral assignment: {name} = {val}")
        if meta["kind"] == "x":
            j, i = int(meta["j"]), int(meta["i"])
            if j in starts:
                raise InfeasibleError(f"cover violated: job {j} assigned twice")
            starts[j] = i
            objective += job_cost(inst, j, i)
        elif meta["kind"] == "y":
            i, ip = int(meta["i"]), int(meta["ip"])
            cost = table.phi(i, ip)
            if cost is None:
                raise InputError(f"variable {name} refers to a gap with no switching")
            gaps.append((i, ip))
            objective += cost
        else:
            raise InputError(f"unknown variable kind for {name}")

    missing = [j for j in range(1, inst.n_jobs + 1) if j not in starts]
    if missing:
        raise InfeasibleError(f"cover violated: jobs {missing} unassigned")

    placement = sorted(starts.items())
    sched = assemble_schedule(inst, placement, table, spaces=sorted(gaps))
    problems = validate_schedule(inst, sched)
    if problems:
        raise InfeasibleError("imported solution is infeasible: "
                              + "; ".join(str(v) for v in problems[:3]))
    tec = compute_tec(inst, sched)
    if tec != objective + artifact.constant_term:
        raise InputError(f"assignment objective {objective} + constant "
                         f"{artifact.constant_term} does not match the "
                         f"re-priced schedule cost {tec}")
    return SolveResult(tec=tec, schedule=sched, status="imported",
                       stats=SolveStats(states=0, wall_time=time.monotonic() - t0,
                                        lower_bound=None))
