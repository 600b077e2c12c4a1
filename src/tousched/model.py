"""Domain types for energy-aware single machine scheduling.

An instance couples a horizon of unit-length intervals, each carrying an
energy cost, with a list of jobs and a machine that moves between power
states. A schedule fixes job start times and the per-interval machine
behavior; its quality is the total energy cost, the sum over intervals of
the interval cost times the power drawn in that interval.

Intervals and jobs are indexed 1-based in every public signature and file
format. Start times in a schedule are 0-based instants: a job with start
time sigma occupies intervals sigma+1 .. sigma+p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Mapping

StatePair = tuple[str, str]

# Every energy total must stay below this: the switching cost table reads
# values at or above it as "no path", and its sums must fit in int64.
COST_LIMIT = 2 ** 61


class InputError(ValueError):
    """Malformed input data or a violated operation precondition."""


class InfeasibleError(RuntimeError):
    """No feasible result exists for the given data."""


@dataclass(frozen=True)
class Violation:
    """One violated rule, as data rather than an exception.

    code is a short stable identifier ("C1".."C4" for the four schedule
    feasibility conditions, "instance" for instance-level problems),
    where points at the offending job or interval.
    """

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


@dataclass(frozen=True)
class MachineStateSet:
    """Ordered machine states. The two roles are fixed names: off_state is
    held at both horizon boundaries; proc_state is the only state in which
    jobs execute.
    """

    states: tuple[str, ...]
    off_state: ClassVar[str] = "off"
    proc_state: ClassVar[str] = "proc"

    def index(self, state: str) -> int:
        return self.states.index(state)


@dataclass(frozen=True)
class TransitionSpec:
    """Partial map (from_state, to_state) -> (time, power).

    Absent pairs are forbidden transitions. time counts the intervals a
    transition occupies; power is the energy drawn per covered interval.
    Every state must carry a self entry (s, s) with time exactly 1: staying
    in a state for one interval is a unit move.
    """

    entries: Mapping[StatePair, tuple[int, int]]

    def allowed(self, s: str, sp: str) -> bool:
        return (s, sp) in self.entries

    def time(self, s: str, sp: str) -> int | None:
        e = self.entries.get((s, sp))
        return None if e is None else e[0]

    def power(self, s: str, sp: str) -> int | None:
        e = self.entries.get((s, sp))
        return None if e is None else e[1]


@dataclass(frozen=True)
class Instance:
    """One scheduling problem: tariff, jobs and machine."""

    horizon: int
    costs: tuple[int, ...]
    jobs: tuple[int, ...]
    state_set: MachineStateSet
    transitions: TransitionSpec

    @cached_property
    def cost_prefix(self) -> tuple[int, ...]:
        """Prefix sums C with C[0] = 0 and C[k] = c_1 + ... + c_k."""
        acc = [0]
        for c in self.costs:
            acc.append(acc[-1] + c)
        return tuple(acc)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @cached_property
    def heaviest_path(self) -> int:
        """sum(costs) times the largest transition power: no path over the
        intervals weighs more."""
        return sum(self.costs) * max((pw for _t, pw in self.transitions.entries.values()),
                                     default=0)


@dataclass(frozen=True)
class Schedule:
    """A solution: start time per job plus the per-interval machine behavior.

    sigma[j-1] is the 0-based start time of job j. omega[i-1] is the state
    pair active in interval i: (s, s) while staying in s, (s, sp) while a
    transition from s to sp is underway.
    """

    sigma: tuple[int, ...]
    omega: tuple[StatePair, ...]


def switch_times(transitions: TransitionSpec, states: tuple[str, ...], src: str) -> dict[str, int]:
    """Shortest total transition time from src to every state it can reach,
    following only transitions between the given states."""
    known = set(states)
    steps = [(s, sp, t) for (s, sp), (t, _pw) in transitions.entries.items()
             if s in known and sp in known]
    best = {src: 0}
    # |states| - 1 rounds of relaxation settle every simple chain
    for _ in range(len(states) - 1):
        for s, sp, t in steps:
            if s in best and best[s] + t < best.get(sp, best[s] + t + 1):
                best[sp] = best[s] + t
    return best


def validate_instance(inst: Instance) -> list[Violation]:
    """Check every instance invariant; an empty list means valid."""
    out: list[Violation] = []
    ss = inst.state_set

    if inst.horizon < 1:
        out.append(Violation("instance", "horizon", "horizon must be >= 1"))
    if len(inst.costs) != inst.horizon:
        out.append(Violation("instance", "costs",
                             f"expected {inst.horizon} interval costs, got {len(inst.costs)}"))
    for i, c in enumerate(inst.costs, start=1):
        if c < 0:
            out.append(Violation("instance", f"interval {i}", "interval cost must be >= 0"))
    if len(inst.jobs) < 1:
        out.append(Violation("instance", "jobs", "at least one job is required"))
    for j, p in enumerate(inst.jobs, start=1):
        if p < 1:
            out.append(Violation("instance", f"job {j}", "processing time must be >= 1"))

    if len(set(ss.states)) != len(ss.states):
        out.append(Violation("instance", "states", "state identifiers must be unique"))
    if ss.off_state not in ss.states:
        out.append(Violation("instance", "states", f"off state {ss.off_state!r} not in state set"))
    if ss.proc_state not in ss.states:
        out.append(Violation("instance", "states", f"proc state {ss.proc_state!r} not in state set"))

    for (s, sp), (t, pw) in inst.transitions.entries.items():
        where = f"transition ({s}, {sp})"
        if s not in ss.states or sp not in ss.states:
            out.append(Violation("instance", where, "endpoint is not a known state"))
        if t < 0:
            out.append(Violation("instance", where, "transition time must be >= 0"))
        if pw < 0:
            out.append(Violation("instance", where, "transition power must be >= 0"))
    for s in ss.states:
        t = inst.transitions.time(s, s)
        if t is None:
            out.append(Violation("instance", f"state {s}", "missing self entry (s, s)"))
        elif t != 1:
            out.append(Violation("instance", f"state {s}", "self entry must have time 1"))

    if inst.heaviest_path >= COST_LIMIT:
        out.append(Violation("instance", "costs", "total interval cost times the largest "
                             f"transition power must stay below {COST_LIMIT}"))

    if ss.off_state in ss.states and ss.proc_state in ss.states:
        if ss.proc_state not in switch_times(inst.transitions, ss.states, ss.off_state):
            out.append(Violation("instance", "transitions", "proc unreachable from off"))
        if ss.off_state not in switch_times(inst.transitions, ss.states, ss.proc_state):
            out.append(Violation("instance", "transitions", "off unreachable from proc"))

    return out


def require_valid(inst: Instance) -> Instance:
    """inst itself when validate_instance finds nothing; otherwise an
    InputError listing the first problems."""
    problems = validate_instance(inst)
    if problems:
        raise InputError("invalid instance: " + "; ".join(str(v) for v in problems[:3]))
    return inst


def job_cost(inst: Instance, j: int, i: int) -> int:
    """Energy cost of job j starting at interval i: the covered interval
    costs summed, times the processing power. O(1) via prefix sums."""
    if not 1 <= j <= inst.n_jobs:
        raise InputError(f"job index {j} out of range 1..{inst.n_jobs}")
    p = inst.jobs[j - 1]
    if i < 1 or i + p - 1 > inst.horizon:
        raise InputError(f"job {j} (length {p}) does not fit at interval {i}")
    pw = inst.transitions.power(inst.state_set.proc_state, inst.state_set.proc_state)
    if pw is None:
        raise InputError("machine has no (proc, proc) entry")
    C = inst.cost_prefix
    return (C[i + p - 1] - C[i - 1]) * pw


def compute_tec(inst: Instance, sched: Schedule) -> int:
    """Total energy cost: sum over intervals of cost times drawn power."""
    if len(sched.omega) != inst.horizon:
        raise InputError(f"omega has {len(sched.omega)} entries, expected {inst.horizon}")
    total = 0
    for i, (s, sp) in enumerate(sched.omega, start=1):
        pw = inst.transitions.power(s, sp)
        if pw is None:
            raise InputError(f"undefined transition in omega at interval {i}: ({s}, {sp})")
        total += inst.costs[i - 1] * pw
    return total


def zero_time_closure(inst: Instance) -> dict[str, set[str]]:
    """For each state, the states reachable through instantaneous
    (time 0) transitions alone, itself included."""
    states = inst.state_set.states
    zero = TransitionSpec({k: v for k, v in inst.transitions.entries.items() if v[0] == 0})
    return {s: set(switch_times(zero, states, s)) for s in states}


def _check_transition_chain(inst: Instance, omega: tuple[StatePair, ...]) -> list[Violation]:
    """Walk omega as a transition automaton (feasibility condition 4).

    Each stay (s, s) occupies one interval; each move (s, sp) with time d
    occupies exactly d consecutive intervals labeled (s, sp); time-0 moves
    occupy no interval and are implied wherever adjacent labels need them.
    Returns at the first parse failure since later labels are then
    meaningless.
    """
    tr = inst.transitions
    zc = zero_time_closure(inst)
    cur = inst.state_set.off_state
    h = len(omega)
    i = 1
    while i <= h:
        s, sp = omega[i - 1]
        d = tr.time(s, sp)
        if d is None:
            return [Violation("C4", f"interval {i}", f"transition ({s}, {sp}) is not allowed")]
        if s not in zc[cur]:
            return [Violation("C4", f"interval {i}",
                              f"machine is in {cur} and cannot begin ({s}, {sp})")]
        if s == sp:
            cur = sp
            i += 1
            continue
        if d == 0:
            return [Violation("C4", f"interval {i}",
                              f"instantaneous transition ({s}, {sp}) cannot occupy an interval")]
        run = omega[i - 1:i - 1 + d]
        if len(run) < d or any(lab != (s, sp) for lab in run):
            return [Violation("C4", f"interval {i}",
                              f"transition ({s}, {sp}) must occupy exactly {d} intervals")]
        cur = sp
        i += d
    return []


def validate_schedule(inst: Instance, sched: Schedule) -> list[Violation]:
    """Check the four feasibility conditions; an empty list means feasible.

    1. No two jobs overlap and every job lies inside the horizon.
    2. Every processing interval is labeled (proc, proc).
    3. The first and last intervals are labeled (off, off).
    4. omega decomposes into allowed transitions of the right lengths.
    """
    out: list[Violation] = []
    h = inst.horizon
    off = inst.state_set.off_state
    proc = inst.state_set.proc_state

    if len(sched.sigma) != inst.n_jobs:
        return [Violation("shape", "sigma",
                          f"expected {inst.n_jobs} start times, got {len(sched.sigma)}")]
    if len(sched.omega) != h:
        return [Violation("shape", "omega",
                          f"expected {h} interval labels, got {len(sched.omega)}")]

    occupied: dict[int, int] = {}
    for j, (start, p) in enumerate(zip(sched.sigma, inst.jobs), start=1):
        if start < 0 or start + p > h:
            out.append(Violation("C1", f"job {j}", "job runs outside the horizon"))
            continue
        for i in range(start + 1, start + p + 1):
            if i in occupied:
                out.append(Violation("C1", f"interval {i}",
                                     f"jobs {occupied[i]} and {j} overlap"))
            else:
                occupied[i] = j

    for i in sorted(occupied):
        if sched.omega[i - 1] != (proc, proc):
            out.append(Violation("C2", f"interval {i}",
                                 f"processing interval must be ({proc}, {proc}), "
                                 f"got {sched.omega[i - 1]}"))

    if sched.omega[0] != (off, off):
        out.append(Violation("C3", "interval 1", f"first interval must be ({off}, {off})"))
    if sched.omega[h - 1] != (off, off):
        out.append(Violation("C3", f"interval {h}", f"last interval must be ({off}, {off})"))

    out.extend(_check_transition_chain(inst, sched.omega))
    return out


# --- file formats ---

def read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are an InputError naming
    the file. OSError (missing, a directory, no permission) passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path) -> dict:
    """The JSON object a file holds. Every way the text can fail to be
    one is an InputError naming the file."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def instance_to_dict(inst: Instance) -> dict:
    order = {s: k for k, s in enumerate(inst.state_set.states)}
    transitions = [
        {"from": s, "to": sp, "time": t, "power": pw}
        for (s, sp), (t, pw) in sorted(inst.transitions.entries.items(),
                                       key=lambda kv: (order[kv[0][0]], order[kv[0][1]]))
    ]
    return {
        "horizon": inst.horizon,
        "costs": list(inst.costs),
        "jobs": list(inst.jobs),
        "states": list(inst.state_set.states),
        "transitions": transitions,
    }


def _integer(value, field: str) -> int:
    """value itself when it is a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def _string(value, field: str) -> str:
    """value itself when it is a JSON string."""
    if type(value) is not str:
        raise InputError(f"{field} must be a string, got {value!r}")
    return value


def instance_from_dict(doc: dict) -> Instance:
    """Build an instance from its JSON document. Every number must be a
    JSON integer and every state name a JSON string; anything else is an
    InputError naming the field."""
    try:
        horizon, costs, jobs = doc["horizon"], list(doc["costs"]), list(doc["jobs"])
        states = tuple(_string(s, "state name") for s in doc["states"])
        raw = list(doc["transitions"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    horizon = _integer(horizon, "horizon")
    costs = tuple(_integer(c, f"interval {i} cost") for i, c in enumerate(costs, start=1))
    jobs = tuple(_integer(p, f"job {j} processing time") for j, p in enumerate(jobs, start=1))
    if MachineStateSet.off_state not in states or MachineStateSet.proc_state not in states:
        raise InputError('instance states must contain "off" and "proc"')
    entries: dict[StatePair, tuple[int, int]] = {}
    for row in raw:
        try:
            key = (_string(row["from"], "transition from"), _string(row["to"], "transition to"))
            t, pw = row["time"], row["power"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed transition entry {row!r}") from exc
        if key in entries:
            raise InputError(f"duplicate transition entry for {key}")
        entries[key] = (_integer(t, f"transition {key} time"),
                        _integer(pw, f"transition {key} power"))
    return Instance(horizon=horizon, costs=costs, jobs=jobs,
                    state_set=MachineStateSet(states=states),
                    transitions=TransitionSpec(entries=entries))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> Instance:
    """The valid instance a file holds; any InputError names the file."""
    doc = read_json(path)
    try:
        return require_valid(instance_from_dict(doc))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def schedule_to_dict(sched: Schedule, tec: int, stats: dict | None = None) -> dict:
    doc = {
        "sigma": list(sched.sigma),
        "omega": [list(pair) for pair in sched.omega],
        "tec": tec,
    }
    if stats is not None:
        doc["stats"] = stats
    return doc


def schedule_from_dict(doc: dict) -> tuple[Schedule, int | None]:
    """A schedule and its claimed tec, None when absent. Start times and tec
    must be integers, and each omega label a list of two state names."""
    try:
        sigma, tec, omega = list(doc["sigma"]), doc.get("tec"), list(doc["omega"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed schedule document: {exc}") from exc
    sigma = tuple(_integer(t, f"job {j} start time") for j, t in enumerate(sigma, start=1))
    for i, label in enumerate(omega, start=1):
        if type(label) is not list or len(label) != 2 or any(type(s) is not str for s in label):
            raise InputError(f"interval {i} label must be a list of two state names, "
                             f"got {label!r}")
    return Schedule(sigma=sigma, omega=tuple(map(tuple, omega))), (None if tec is None else _integer(tec, "tec"))


def save_schedule(sched: Schedule, tec: int, path, stats: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(sched, tec, stats), fh, indent=2)
        fh.write("\n")


def load_schedule(path) -> tuple[Schedule, int | None]:
    """The schedule a file holds; any InputError names the file."""
    doc = read_json(path)
    try:
        return schedule_from_dict(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
