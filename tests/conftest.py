import random
import re

import numpy as np
import pytest

from tousched import (
    Instance,
    MachineStateSet,
    Schedule,
    TransitionSpec,
    build_graph,
    proc_window,
)
from tousched.datagen import SplitMix64, preset_nosby, preset_twosby
from tousched.model import InfeasibleError

# A small published benchmark instance used as a fixed anchor throughout
# the suite: three jobs on a 16-interval horizon with a machine that has
# an off state, a processing state, and an idle state.
WORKED_COSTS = (2, 1, 2, 1, 8, 16, 14, 3, 2, 5, 3, 10, 3, 2, 1, 2)
WORKED_JOBS = (2, 1, 2)
WORKED_TEC = 177
WORKED_SIGMA = (9, 3, 12)
WORKED_OMEGA = (
    ("off", "off"),
    ("off", "proc"),
    ("off", "proc"),
    ("proc", "proc"),
    ("proc", "off"),
    ("off", "off"),
    ("off", "off"),
    ("off", "proc"),
    ("off", "proc"),
    ("proc", "proc"),
    ("proc", "proc"),
    ("idle", "idle"),
    ("proc", "proc"),
    ("proc", "proc"),
    ("proc", "off"),
    ("off", "off"),
)
WORKED_WINDOW = (4, 14)


def worked_instance() -> Instance:
    pre = preset_nosby()
    return Instance(16, WORKED_COSTS, WORKED_JOBS, pre.state_set, pre.transitions)


@pytest.fixture(scope="session")
def worked() -> Instance:
    return worked_instance()


@pytest.fixture(scope="session")
def worked_schedule() -> Schedule:
    return Schedule(WORKED_SIGMA, WORKED_OMEGA)


def random_machine(rng: random.Random, max_extra: int = 2):
    """Draw a valid machine: off and proc always exist with direct
    transitions both ways, plus up to max_extra standby states that
    bridge to and from proc (sometimes instantaneously, mirroring the
    zero-length bridges of the shipped presets)."""
    n_extra = rng.randint(0, max_extra)
    names = ["off", "proc"] + [f"sb{k}" for k in range(1, n_extra + 1)]
    entries = {
        ("off", "off"): (1, rng.choice((0, 0, 1))),
        ("proc", "proc"): (1, rng.randint(2, 9)),
        ("off", "proc"): (rng.randint(1, 3), rng.randint(1, 9)),
        ("proc", "off"): (rng.randint(1, 3), rng.randint(0, 5)),
    }
    for k in range(1, n_extra + 1):
        s = f"sb{k}"
        entries[(s, s)] = (1, rng.randint(1, 5))
        if rng.random() < 0.5:
            entries[("proc", s)] = (0, 0)
            entries[(s, "proc")] = (0, 0)
        else:
            entries[("proc", s)] = (rng.randint(0, 2), rng.randint(0, 4))
            entries[(s, "proc")] = (rng.randint(0, 2), rng.randint(0, 4))
        if rng.random() < 0.3:
            entries[(s, "off")] = (rng.randint(1, 2), rng.randint(0, 3))
    return MachineStateSet(tuple(names)), TransitionSpec(entries)


def arbitrary_machine(rng: random.Random, max_extra: int = 3):
    """Draw a machine with any transition graph: off, proc and up to
    max_extra more states in a shuffled order, a time-1 stay on every
    state and each other ordered pair present at random with time 0-4.
    Nothing guarantees that proc and off reach each other, so many of
    these machines fail validate_instance."""
    names = ["off", "proc"] + [f"s{k}" for k in range(1, rng.randint(0, max_extra) + 1)]
    rng.shuffle(names)
    entries = {(s, s): (1, rng.randint(0, 5)) for s in names}
    density = rng.choice((0.2, 0.4, 0.7))
    for s in names:
        for sp in names:
            if s != sp and rng.random() < density:
                entries[(s, sp)] = (rng.randint(0, 4), rng.randint(0, 5))
    return MachineStateSet(tuple(names)), TransitionSpec(entries)


def random_instance(rng: random.Random, n_max: int = 4, h_max: int = 18,
                    max_extra: int = 2, require_room: bool = True) -> Instance:
    """Draw a random valid instance; when require_room is set, retry until
    the processing window has capacity for every job."""
    for _ in range(500):
        states, trans = random_machine(rng, max_extra=max_extra)
        n = rng.randint(1, n_max)
        jobs = tuple(rng.randint(1, 4) for _ in range(n))
        h_lo = min(h_max, sum(jobs) + 6)
        h = rng.randint(h_lo, h_max)
        costs = tuple(rng.randint(1, 12) for _ in range(h))
        inst = Instance(h, costs, jobs, states, trans)
        if not require_room:
            return inst
        try:
            t_on, t_off = proc_window(build_graph(inst))
        except InfeasibleError:
            continue
        if t_off - t_on + 1 >= sum(jobs):
            return inst
    raise RuntimeError("could not draw an instance with processing room")


def nosby_instance(rng: random.Random, n_max: int = 4, h_max: int = 18) -> Instance:
    """Random instance on the fixed three-state preset machine."""
    pre = preset_nosby()
    for _ in range(500):
        n = rng.randint(1, n_max)
        jobs = tuple(rng.randint(1, 4) for _ in range(n))
        h = rng.randint(min(h_max, sum(jobs) + 6), h_max)
        costs = tuple(rng.randint(1, 12) for _ in range(h))
        inst = Instance(h, costs, jobs, pre.state_set, pre.transitions)
        try:
            t_on, t_off = proc_window(build_graph(inst))
        except InfeasibleError:
            continue
        if t_off - t_on + 1 >= sum(jobs):
            return inst
    raise RuntimeError("could not draw an instance with processing room")


def lp_to_arrays(text):
    """Test-local reader of the emitted model text."""
    m = re.search(r"Minimize\s+obj:(.*?)Subject To(.*?)Binary(.*?)End",
                  text, re.S)
    objs, cons, binsec = m.group(1), m.group(2), m.group(3)
    names = binsec.split()
    idx = {nm: k for k, nm in enumerate(names)}
    c = np.zeros(len(names))
    for coef, name in re.findall(r"([+-]?\s*\d+)\s+([xy]_\d+_\d+)", objs):
        c[idx[name]] = float(coef.replace(" ", ""))
    rows, rhs = [], []
    for block in re.split(r"\n(?=\s*\w+:)", cons.strip()):
        body = block.split(":", 1)[1]
        lhs, r = body.split("=")
        row = np.zeros(len(names))
        for sign_coef, name in re.findall(r"([+-]?\s*\d*)\s*([xy]_\d+_\d+)", lhs):
            s = sign_coef.replace(" ", "") or "+"
            if s in ("+", "-"):
                s += "1"
            row[idx[name]] = float(s)
        rows.append(row)
        rhs.append(float(r))
    return names, c, np.array(rows), np.array(rhs)


# One entry per kind of non-integer number in an instance document: where
# to plant it, the value, and the field the error must name.
NON_INTEGERS = {
    "half_cost": (("costs", 4), 8.5, "interval 5 cost"),
    "float_job": (("jobs", 0), 2.9, "job 1 processing time"),
    "integral_float": (("horizon",), 16.0, "horizon"),
    "string_job": (("jobs", 2), "2", "job 3 processing time"),
    "bool_cost": (("costs", 0), True, "interval 1 cost"),
    "null_time": (("transitions", 1, "time"), None, "transition ('off', 'proc') time"),
}


def plant_non_integer(doc: dict, kind: str) -> str:
    """Put the kind's number into an instance document of the worked
    machine; returns the field an error must name."""
    path, value, field = NON_INTEGERS[kind]
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return field


# File contents that are no JSON object, each with the reason read_json gives
NOT_JSON_OBJECTS = {
    "bad_syntax": (b"{oops", "not valid JSON"),
    "a_list": (b"[1]", "expected a JSON object, got list"),
    "a_string": (b'"abc"', "expected a JSON object, got str"),
    "not_utf8": (b'{"note": "\xff"}', "not UTF-8 text"),
    "nested_too_deep": (b"[" * 100_000, "not valid JSON"),
    "integer_too_long": (b"1" * 5000, "not valid JSON"),
}


def write_each_non_object(tmp_path):
    """One file per NOT_JSON_OBJECTS entry: yields (path, reason)."""
    for kind, (content, reason) in NOT_JSON_OBJECTS.items():
        path = tmp_path / f"{kind}.json"
        path.write_bytes(content)
        yield path, reason


# A machine whose powers are all 0: no horizon reaches the cost limit on it.
ZERO_POWER_MACHINE = {
    "states": ["off", "proc"],
    "transitions": [{"from": s, "to": sp, "time": 1, "power": 0}
                    for s in ("off", "proc") for sp in ("off", "proc")],
}


def limit_draws(monkeypatch, budget: int) -> None:
    """Let SplitMix64.uniform_int answer budget calls and fail on the next,
    so a generator that goes on to draw a huge horizon's costs fails at
    once instead of running until memory is gone."""
    draw = SplitMix64.uniform_int
    calls = [0]

    def counted(self, lo, hi):
        calls[0] += 1
        if calls[0] > budget:
            raise AssertionError(f"more than {budget} draws")
        return draw(self, lo, hi)

    monkeypatch.setattr(SplitMix64, "uniform_int", counted)


__all__ = [
    "WORKED_COSTS", "WORKED_JOBS", "WORKED_TEC", "WORKED_SIGMA",
    "WORKED_OMEGA", "WORKED_WINDOW", "worked_instance", "arbitrary_machine", "random_machine",
    "random_instance", "nosby_instance", "preset_nosby", "preset_twosby", "lp_to_arrays",
    "NON_INTEGERS", "plant_non_integer", "NOT_JSON_OBJECTS", "write_each_non_object",
    "ZERO_POWER_MACHINE", "limit_draws",
]
