import json
import re
from fractions import Fraction

import pytest

from tousched import datagen, model
from tousched import (
    InputError,
    Instance,
    SplitMix64,
    generate_family,
    generate_instance,
    instance_to_dict,
    preset_nosby,
    preset_twosby,
    validate_instance,
)
from tousched.datagen import (
    FAMILY_MULTIPLES,
    horizon_for,
    instance_filename,
    load_custom_preset,
    switch_durations,
)

from conftest import ZERO_POWER_MACHINE, limit_draws, write_each_non_object


def test_stream_matches_published_reference():
    # the first outputs of this generator are fixed by its published
    # reference implementation
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(2)] == [
        6457827717110365317, 3203168211198807973,
    ]


def test_stream_is_deterministic():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    assert a.next_u64() != SplitMix64(100).next_u64()


def test_uniform_int_bounds_and_balance():
    r = SplitMix64(2024)
    n = 100_000
    counts = {v: 0 for v in range(1, 6)}
    for _ in range(n):
        counts[r.uniform_int(1, 5)] += 1
    assert sum(counts.values()) == n
    for v, c in counts.items():
        assert abs(c / n - 0.2) < 0.01, (v, c)


def test_uniform_int_degenerate_and_bad_ranges():
    r = SplitMix64(5)
    assert all(r.uniform_int(7, 7) == 7 for _ in range(10))
    with pytest.raises(InputError):
        r.uniform_int(5, 4)


def test_preset_nosby_exact():
    pre = preset_nosby()
    assert pre.name == "nosby"
    assert pre.state_set.states == ("off", "proc", "idle")
    assert pre.transitions.entries == {
        ("off", "off"): (1, 0),
        ("proc", "proc"): (1, 6),
        ("idle", "idle"): (1, 2),
        ("off", "proc"): (2, 8),
        ("proc", "off"): (1, 1),
        ("proc", "idle"): (0, 0),
        ("idle", "proc"): (0, 0),
    }
    assert switch_durations(pre) == (2, 1)


def test_preset_twosby_exact():
    pre = preset_twosby()
    assert pre.name == "twosby"
    assert pre.state_set.states == ("off", "proc", "sb1", "sb2")
    assert pre.transitions.entries == {
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
    assert switch_durations(pre) == (3, 2)


def test_horizon_formula_exact():
    # horizon = round-half-up(multiple * total) + warmup + cooldown + 1
    assert horizon_for(77, Fraction(13, 10), 2, 1) == 104
    assert horizon_for(77, Fraction(16, 10), 2, 1) == 127
    assert horizon_for(77, Fraction(19, 10), 2, 1) == 150
    assert horizon_for(77, Fraction(22, 10), 2, 1) == 173
    # half-way points round up
    assert horizon_for(10, "1.35", 0, 0) == 15
    assert horizon_for(10, 1.25, 0, 0) == 14  # 12.5 -> 13
    assert horizon_for(10, 2, 1, 1) == 23


def test_family_multiples():
    assert FAMILY_MULTIPLES == (Fraction(13, 10), Fraction(16, 10),
                                Fraction(19, 10), Fraction(22, 10))


def test_generate_instance_shape():
    inst = generate_instance(30, preset_nosby(), "1.3", seed=1)
    assert inst.n_jobs == 30
    assert all(1 <= p <= 5 for p in inst.jobs)
    assert all(1 <= c <= 10 for c in inst.costs)
    assert inst.horizon == horizon_for(sum(inst.jobs), "1.3", 2, 1)
    assert validate_instance(inst) == []


def test_generate_instance_matches_family_member():
    for preset in (preset_nosby(), preset_twosby()):
        fam = generate_family(30, preset, seed=1)
        for member, multiple in zip(fam, FAMILY_MULTIPLES):
            for spelled in (multiple, str(float(multiple)), float(multiple)):
                assert generate_instance(30, preset, spelled, seed=1) == member


def test_family_shares_jobs_and_cost_prefixes():
    for seed in (1, 2, 3):
        fam = generate_family(25, preset_nosby(), seed=seed)
        assert len(fam) == 4
        jobs = fam[0].jobs
        horizons = [inst.horizon for inst in fam]
        assert horizons == sorted(horizons)
        longest = fam[-1].costs
        for inst in fam:
            assert inst.jobs == jobs
            assert inst.costs == longest[:inst.horizon]
            assert validate_instance(inst) == []


def test_family_determinism_bytes():
    a = generate_family(12, preset_twosby(), seed=77)
    b = generate_family(12, preset_twosby(), seed=77)
    for x, y in zip(a, b):
        assert json.dumps(instance_to_dict(x)) == json.dumps(instance_to_dict(y))


def test_known_seed_hits_reference_row():
    # 30 draws under seed 7 sum to 77, reproducing the published n=30
    # horizon ladder
    fam = generate_family(30, preset_nosby(), seed=7)
    assert sum(fam[0].jobs) == 77
    assert [inst.horizon for inst in fam] == [104, 127, 150, 173]


def test_instance_filename():
    assert instance_filename("nosby", 30, 104, 7) == "inst_nosby_30_104_7.json"


def test_load_custom_preset(tmp_path, worked):
    doc = {
        "name": "bespoke",
        "states": ["off", "proc"],
        "transitions": [
            {"from": "off", "to": "off", "time": 1, "power": 0},
            {"from": "proc", "to": "proc", "time": 1, "power": 4},
            {"from": "off", "to": "proc", "time": 1, "power": 2},
            {"from": "proc", "to": "off", "time": 1, "power": 1},
        ],
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    pre = load_custom_preset(path)
    assert pre.name == "bespoke"
    assert switch_durations(pre) == (1, 1)
    inst = generate_instance(3, pre, 2, seed=5)
    assert validate_instance(inst) == []
    assert inst.horizon == horizon_for(sum(inst.jobs), 2, 1, 1)


def test_switch_durations_follow_declared_states_only(tmp_path):
    # the only switch-on chain passes through "warm", which the machine
    # does not list among its states
    doc = {
        "states": ["off", "proc"],
        "transitions": [
            {"from": "off", "to": "off", "time": 1, "power": 0},
            {"from": "proc", "to": "proc", "time": 1, "power": 4},
            {"from": "off", "to": "warm", "time": 1, "power": 2},
            {"from": "warm", "to": "proc", "time": 1, "power": 2},
            {"from": "proc", "to": "off", "time": 1, "power": 1},
        ],
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="off->proc"):
        switch_durations(load_custom_preset(path))


def test_load_custom_preset_rejects_junk(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(InputError):
        load_custom_preset(path)
    for path, reason in write_each_non_object(tmp_path):
        with pytest.raises(InputError, match=re.escape(f"{path}: {reason}")):
            load_custom_preset(path)


def test_generate_rejects_bad_n():
    with pytest.raises(InputError):
        generate_instance(0, preset_nosby(), 2, seed=1)
    with pytest.raises(InputError):
        generate_family(0, preset_nosby(), seed=1)


@pytest.mark.parametrize("multiple", ["abc", "nan", "inf", float("nan"), float("inf"), "-1", -1,
                                      0, "0", Fraction(0), "1/0", None])
def test_generate_rejects_a_multiple_that_is_no_positive_decimal(multiple):
    with pytest.raises(InputError, match="horizon multiple must be"):
        generate_instance(3, preset_nosby(), multiple, seed=1)


def test_generate_rejects_horizons_that_reach_the_cost_limit(monkeypatch):
    pre = preset_nosby()
    max_power = max(pw for _t, pw in pre.transitions.entries.values())
    h = generate_instance(4, pre, "1.3", 6).horizon
    monkeypatch.setattr(datagen, "COST_LIMIT", h * max_power + 1)
    assert generate_instance(4, pre, "1.3", 6).horizon == h
    monkeypatch.setattr(datagen, "COST_LIMIT", h * max_power)
    with pytest.raises(InputError, match="cost limit"):
        generate_instance(4, pre, "1.3", 6)
    with pytest.raises(InputError, match="cost limit"):
        generate_family(4, pre, 6)  # the longest member decides
    # such a horizon is invalid under the same limit even at the lowest costs
    monkeypatch.setattr(model, "COST_LIMIT", h * max_power)
    low = Instance(h, (1,) * h, (1,), pre.state_set, pre.transitions)
    assert any(v.where == "costs" for v in validate_instance(low))


def test_generate_rejects_a_huge_multiple_before_drawing_costs():
    with pytest.raises(InputError, match="cost limit"):
        generate_instance(9, preset_nosby(), "1e400", 1)


@pytest.mark.parametrize("n, machine, multiple", [
    (30, "nosby", "1e15"),  # h about 8.6e16, whose costs stay below the cost limit
    (3, "zero_power", "1e6"),  # no cost limit at all
    (datagen.HORIZON_LIMIT + 1, "nosby", "1.3"),  # h > sum_p >= n, caught before any draw
])
def test_generate_rejects_a_horizon_above_the_limit(monkeypatch, tmp_path, n, machine, multiple):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(ZERO_POWER_MACHINE))
    pre = preset_nosby() if machine == "nosby" else load_custom_preset(path)
    limit_draws(monkeypatch, 30)  # the job lengths at most, never a horizon's costs
    with pytest.raises(InputError, match=f"above the limit of {datagen.HORIZON_LIMIT}"):
        generate_instance(n, pre, multiple, seed=1)


def test_horizon_limit_is_inclusive(monkeypatch):
    pre = preset_nosby()
    h = generate_instance(4, pre, "1.3", 6).horizon
    monkeypatch.setattr(datagen, "HORIZON_LIMIT", h)
    assert generate_instance(4, pre, "1.3", 6).horizon == h
    with pytest.raises(InputError, match="above the limit"):
        generate_family(4, pre, 6)  # the longest member decides
    monkeypatch.setattr(datagen, "HORIZON_LIMIT", h - 1)
    with pytest.raises(InputError, match=f"a horizon of {h} intervals is above the limit"):
        generate_instance(4, pre, "1.3", 6)


def test_custom_preset_state_names_are_strings(tmp_path):
    doc = {"states": ["off", "proc", 3],
           "transitions": [{"from": "off", "to": "off", "time": 1, "power": 0},
                           {"from": "proc", "to": "proc", "time": 1, "power": 6},
                           {"from": "off", "to": "proc", "time": 1, "power": 8},
                           {"from": "proc", "to": "off", "time": 1, "power": 1}]}
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="state name must be a string"):
        load_custom_preset(path)
