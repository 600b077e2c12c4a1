"""Machine presets and the seeded benchmark instance generator.

Random draws come from a splitmix-style 64-bit generator with rejection
sampling, so any implementation of the same recipe reproduces identical
instances from the same seed. Processing times are uniform on {1..5},
interval costs uniform on {1..10}.

Horizons are derived from the total processing time: for a multiple m the
horizon is round(m * sum_p) + d_on + d_off + 1, where d_on and d_off are
the shortest switch-on and switch-off durations of the machine and
rounding is half-up. A family shares one cost stream across its four
multiples, so shorter members' costs are prefixes of longer ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (COST_LIMIT, Instance, InputError, MachineStateSet, TransitionSpec,
                    instance_from_dict, read_json, switch_times)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

FAMILY_MULTIPLES = (Fraction(13, 10), Fraction(16, 10), Fraction(19, 10), Fraction(22, 10))

# The longest horizon a generated instance may have. phi is an (h+1)^2
# matrix, 8 GiB at 2^16 intervals in the int16 it is stored in there and
# 32 GiB more once a reader of the whole matrix widens it to int64, and
# the paper's largest horizon is 1277; below the cost limit a horizon is
# otherwise unbounded (a machine whose powers are all 0 has no cost limit
# at all).
HORIZON_LIMIT = 1 << 16


class SplitMix64:
    """Deterministic 64-bit generator; the reproducibility contract of
    every generated instance."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Unbiased draw from {lo..hi} by rejection."""
        m = hi - lo + 1
        if m < 1:
            raise InputError(f"empty range {{{lo}..{hi}}}")
        limit = ((1 << 64) // m) * m
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % m)


@dataclass(frozen=True)
class MachinePreset:
    name: str
    state_set: MachineStateSet
    transitions: TransitionSpec


def preset_nosby() -> MachinePreset:
    """Machine without a standby state: off, proc and a parking idle state
    reachable instantaneously from proc.

    Switching on takes 2 intervals at power 8; switching off takes 1 at
    power 1. Holding proc draws 6 per interval, idle 2, off nothing.
    """
    states = MachineStateSet(states=("off", "proc", "idle"))
    entries = {
        ("off", "off"): (1, 0),
        ("proc", "proc"): (1, 6),
        ("idle", "idle"): (1, 2),
        ("off", "proc"): (2, 8),
        ("proc", "off"): (1, 1),
        ("proc", "idle"): (0, 0),
        ("idle", "proc"): (0, 0),
    }
    return MachinePreset(name="nosby", state_set=states,
                         transitions=TransitionSpec(entries=entries))


def preset_twosby() -> MachinePreset:
    """Machine with two standby states offering a cost-dependent choice.

    sb1 is cheap to hold (1 per interval) but takes a paid interval to
    enter and to leave; sb2 is entered and left instantaneously but holds
    at 3 per interval. Short gaps favor sb2, long cheap gaps favor sb1.
    Switching on takes 3 intervals, switching off 2.
    """
    states = MachineStateSet(states=("off", "proc", "sb1", "sb2"))
    entries = {
        ("off", "off"): (1, 0),
        ("proc", "proc"): (1, 6),
        ("sb1", "sb1"): (1, 1),
        ("sb2", "sb2"): (1, 3),
        ("off", "proc"): (3, 8),
        ("proc", "off"): (2, 2),
        ("proc", "sb1"): (1, 4),
        ("sb1", "proc"): (1, 4),
        ("proc", "sb2"): (0, 0),
        ("sb2", "proc"): (0, 0),
    }
    return MachinePreset(name="twosby", state_set=states,
                         transitions=TransitionSpec(entries=entries))


def load_custom_preset(path) -> MachinePreset:
    """Read a machine description from a JSON file with "states" and
    "transitions" fields shaped like the instance format; any InputError
    names the file."""
    doc = {"horizon": 1, "costs": [0], "jobs": [1], **read_json(path)}
    try:
        inst = instance_from_dict(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    name = str(doc.get("name", "custom"))
    return MachinePreset(name=name, state_set=inst.state_set, transitions=inst.transitions)


def switch_durations(preset: MachinePreset) -> tuple[int, int]:
    """Shortest off->proc and proc->off durations, through any chain of
    the preset's states."""

    def shortest(src: str, dst: str) -> int:
        times = switch_times(preset.transitions, preset.state_set.states, src)
        if dst not in times:
            raise InputError(f"preset {preset.name}: no {src}->{dst} transition chain")
        return times[dst]

    off = preset.state_set.off_state
    proc = preset.state_set.proc_state
    return shortest(off, proc), shortest(proc, off)


def _as_multiple(multiple) -> Fraction:
    """The multiple as an exact positive fraction; anything but a Fraction or
    an int goes through its text, so 1.3 means the decimal 1.3."""
    try:
        m = Fraction(multiple if isinstance(multiple, (Fraction, int)) else str(multiple))
    except (ValueError, ZeroDivisionError):
        m = None
    if m is None or m <= 0:
        raise InputError(f"horizon multiple must be a finite positive decimal, got {multiple!r}")
    return m


def horizon_for(total_p: int, multiple, d_on: int, d_off: int) -> int:
    """round(multiple * total_p) half-up, plus the switch overhead + 1."""
    m = _as_multiple(multiple)
    core = (2 * m.numerator * total_p + m.denominator) // (2 * m.denominator)
    return int(core) + d_on + d_off + 1


def _draw(n: int, preset: MachinePreset, multiples, seed: int) -> list[Instance]:
    """One instance per multiple. Draw order: n processing times, then one
    cost per interval of the longest horizon; shorter horizons take a
    prefix of that cost stream. Every cost is at least 1, so a horizon
    that times the largest power reaches COST_LIMIT is rejected before
    any cost is drawn: validate_instance would reject its instance. So is
    a horizon above HORIZON_LIMIT, and n above it before any job is drawn,
    as h > sum_p >= n."""
    if n < 1:
        raise InputError("n must be >= 1")
    if n > HORIZON_LIMIT:
        raise InputError(f"n = {n} jobs need a horizon above the limit of "
                         f"{HORIZON_LIMIT} intervals")
    multiples = [_as_multiple(m) for m in multiples]
    d_on, d_off = switch_durations(preset)
    rng = SplitMix64(seed)
    jobs = tuple(rng.uniform_int(1, 5) for _ in range(n))
    horizons = [horizon_for(sum(jobs), m, d_on, d_off) for m in multiples]
    max_power = max((pw for _t, pw in preset.transitions.entries.values()), default=0)
    if max(horizons) * max_power >= COST_LIMIT:
        raise InputError(f"a horizon of {max(horizons)} intervals, each costing at least 1, "
                         f"at power {max_power} reaches the cost limit {COST_LIMIT}")
    if max(horizons) > HORIZON_LIMIT:
        raise InputError(f"a horizon of {max(horizons)} intervals is above the limit of "
                         f"{HORIZON_LIMIT}")
    stream = tuple(rng.uniform_int(1, 10) for _ in range(max(horizons)))
    return [Instance(horizon=h, costs=stream[:h], jobs=jobs, state_set=preset.state_set,
                     transitions=preset.transitions) for h in horizons]


def generate_instance(n: int, preset: MachinePreset, multiple, seed: int) -> Instance:
    """One instance, identical to the matching family member."""
    return _draw(n, preset, [multiple], seed)[0]


def generate_family(n: int, preset: MachinePreset, seed: int) -> list[Instance]:
    """Four instances, one per canonical multiple, sharing processing times
    and a common cost stream so shorter horizons are cost prefixes."""
    return _draw(n, preset, FAMILY_MULTIPLES, seed)


def instance_filename(preset_name: str, n: int, h: int, seed: int) -> str:
    return f"inst_{preset_name}_{n}_{h}_{seed}.json"
