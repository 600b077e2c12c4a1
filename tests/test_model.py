import dataclasses
import json
import random
import re

import pytest

from tousched import (
    Instance,
    InputError,
    MachineStateSet,
    Schedule,
    TransitionSpec,
    Violation,
    apply_pruning,
    build_graph,
    compute_spaces,
    compute_tec,
    instance_from_dict,
    instance_to_dict,
    job_cost,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    solve_exact,
    validate_instance,
    validate_schedule,
)
from tousched import spaces
from tousched.model import COST_LIMIT, switch_times, zero_time_closure

from conftest import (
    WORKED_OMEGA,
    WORKED_SIGMA,
    WORKED_TEC,
    NON_INTEGERS,
    arbitrary_machine,
    nosby_instance,
    plant_non_integer,
    random_instance,
    write_each_non_object,
)


def chain_accepts_oracle(inst: Instance, omega) -> bool:
    """Independent nondeterministic re-simulation of feasibility
    condition 4: breadth-first search over (position, state) where a stay
    consumes one interval, a timed move consumes exactly its duration in
    identical labels, and instantaneous moves consume nothing."""
    tr = inst.transitions
    states = inst.state_set.states
    h = len(omega)
    start = (1, inst.state_set.off_state)
    seen = {start}
    frontier = [start]
    while frontier:
        pos, cur = frontier.pop()
        if pos == h + 1:
            return True
        nxt = []
        for sp in states:
            d = tr.time(cur, sp)
            if d is None:
                continue
            if d == 0 and sp != cur:
                nxt.append((pos, sp))
            elif d >= 1:
                run = omega[pos - 1:pos - 1 + d]
                if len(run) == d and all(lab == (cur, sp) for lab in run):
                    nxt.append((pos + d, sp))
        for item in nxt:
            if item not in seen:
                seen.add(item)
                frontier.append(item)
    return False


def test_worked_instance_is_valid(worked):
    assert validate_instance(worked) == []


def test_worked_schedule_is_feasible(worked, worked_schedule):
    assert validate_schedule(worked, worked_schedule) == []


def test_worked_tec(worked, worked_schedule):
    assert compute_tec(worked, worked_schedule) == WORKED_TEC


def test_tec_matches_direct_sum(worked, worked_schedule):
    # independent pricing: sum interval cost times transition power
    total = 0
    for i, lab in enumerate(worked_schedule.omega, start=1):
        total += worked.costs[i - 1] * worked.transitions.power(*lab)
    assert total == compute_tec(worked, worked_schedule) == WORKED_TEC


def test_job_cost_worked(worked):
    # job 2 has length 1; its cheapest-looking slot covers interval 4 only
    p_proc = worked.transitions.power("proc", "proc")
    assert job_cost(worked, 2, 4) == worked.costs[3] * p_proc == 6
    # job 1 has length 2; placed at interval 10 it covers 10 and 11
    assert job_cost(worked, 1, 10) == (worked.costs[9] + worked.costs[10]) * p_proc == 48


def test_job_cost_matches_naive_sum():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, require_room=False)
        p_proc = inst.transitions.power("proc", "proc")
        for j, p in enumerate(inst.jobs, start=1):
            for first in range(1, inst.horizon - p + 2):
                naive = sum(inst.costs[i - 1] for i in range(first, first + p)) * p_proc
                assert job_cost(inst, j, first) == naive


def test_compute_tec_rejects_undefined_transition(worked, worked_schedule):
    omega = list(worked_schedule.omega)
    omega[5] = ("idle", "off")  # not an entry of this machine
    with pytest.raises(InputError):
        compute_tec(worked, Schedule(WORKED_SIGMA, tuple(omega)))


def test_violation_str_format():
    v = Violation("C1", "interval 6", "jobs 1 and 2 overlap")
    assert str(v) == "[C1] interval 6: jobs 1 and 2 overlap"


def test_validate_instance_catches_bad_shapes(worked):
    bad = Instance(16, worked.costs[:-1], worked.jobs, worked.state_set, worked.transitions)
    assert any(v.where == "costs" for v in validate_instance(bad))

    bad = Instance(16, worked.costs, (2, 0, 2), worked.state_set, worked.transitions)
    assert any(v.where == "job 2" for v in validate_instance(bad))

    costs = list(worked.costs)
    costs[4] = -1
    bad = Instance(16, tuple(costs), worked.jobs, worked.state_set, worked.transitions)
    assert any(v.where == "interval 5" for v in validate_instance(bad))


def test_validate_instance_catches_bad_machine(worked):
    dup = MachineStateSet(("off", "proc", "off"))
    bad = Instance(16, worked.costs, worked.jobs, dup, worked.transitions)
    assert any("unique" in v.message for v in validate_instance(bad))

    # self entry with the wrong duration
    entries = dict(worked.transitions.entries)
    entries[("off", "off")] = (2, 0)
    bad = Instance(16, worked.costs, worked.jobs, worked.state_set, TransitionSpec(entries))
    assert any("self entry" in v.message for v in validate_instance(bad))

    # drop the only way of reaching proc
    entries = dict(worked.transitions.entries)
    del entries[("off", "proc")]
    del entries[("idle", "proc")]
    bad = Instance(16, worked.costs, worked.jobs, worked.state_set, TransitionSpec(entries))
    assert any("proc unreachable from off" in v.message for v in validate_instance(bad))


def test_cost_limit_is_the_phi_sentinel():
    assert COST_LIMIT == int(spaces._UNREACHABLE)


def test_costs_near_the_int64_limit(worked):
    # sum(costs) = 75 and the largest power is 8: x2^54 reaches 2^61
    huge = dataclasses.replace(worked, costs=tuple(c << 54 for c in worked.costs))
    assert any(v.where == "costs" for v in validate_instance(huge))
    with pytest.raises(InputError, match="costs"):
        build_graph(huge)

    big = dataclasses.replace(worked, costs=tuple(c << 51 for c in worked.costs))
    assert validate_instance(big) == []
    tab = apply_pruning(compute_spaces(big, build_graph(big)), big)
    res = solve_exact(big, tab)
    assert (res.status, res.tec, res.schedule.sigma) == ("optimal", WORKED_TEC << 51, WORKED_SIGMA)


def test_validate_schedule_shape_short_circuits(worked, worked_schedule):
    out = validate_schedule(worked, Schedule((9, 3), worked_schedule.omega))
    assert len(out) == 1 and out[0].code == "shape"
    out = validate_schedule(worked, Schedule(WORKED_SIGMA, worked_schedule.omega[:-1]))
    assert len(out) == 1 and out[0].code == "shape"


def test_validate_schedule_detects_overlap(worked, worked_schedule):
    out = validate_schedule(worked, Schedule((9, 9, 12), worked_schedule.omega))
    assert any(v.code == "C1" for v in out)


def test_validate_schedule_detects_out_of_horizon(worked, worked_schedule):
    out = validate_schedule(worked, Schedule((9, 3, 15), worked_schedule.omega))
    assert any(v.code == "C1" and "horizon" in v.message for v in out)


def test_validate_schedule_detects_wrong_processing_label(worked, worked_schedule):
    omega = list(worked_schedule.omega)
    omega[3] = ("idle", "idle")  # interval 4 is a processing interval
    out = validate_schedule(worked, Schedule(WORKED_SIGMA, tuple(omega)))
    assert any(v.code == "C2" and v.where == "interval 4" for v in out)


def test_validate_schedule_detects_bad_boundary(worked, worked_schedule):
    omega = list(worked_schedule.omega)
    omega[0] = ("off", "proc")
    omega[1] = ("proc", "proc")
    out = validate_schedule(worked, Schedule(WORKED_SIGMA, tuple(omega)))
    assert any(v.code == "C3" and v.where == "interval 1" for v in out)


def test_validate_schedule_detects_broken_chain(worked, worked_schedule):
    omega = list(worked_schedule.omega)
    omega[11] = ("off", "off")  # the machine cannot be off inside this bridge
    out = validate_schedule(worked, Schedule(WORKED_SIGMA, tuple(omega)))
    assert any(v.code == "C4" for v in out)
    assert not chain_accepts_oracle(worked, tuple(omega))


def test_chain_check_agrees_with_nondeterministic_oracle(worked, worked_schedule):
    rng = random.Random(23)
    assert chain_accepts_oracle(worked, worked_schedule.omega)
    # mutate single labels and compare acceptance against the oracle
    pairs = [(s, sp) for s in worked.state_set.states for sp in worked.state_set.states]
    for _ in range(300):
        omega = list(worked_schedule.omega)
        k = rng.randrange(len(omega))
        omega[k] = rng.choice(pairs)
        omega = tuple(omega)
        out = validate_schedule(worked, Schedule(WORKED_SIGMA, omega))
        got = not any(v.code == "C4" for v in out)
        want = chain_accepts_oracle(worked, omega)
        assert got == want, (k, omega[k])


def test_zero_time_closure(worked):
    zc = zero_time_closure(worked)
    assert zc["proc"] == {"proc", "idle"}
    assert zc["idle"] == {"idle", "proc"}
    assert zc["off"] == {"off"}


def plain_reach(states, linked, src) -> set:
    """States reachable from src along the pairs linked accepts, by
    depth-first search."""
    seen, stack = {src}, [src]
    while stack:
        s = stack.pop()
        for sp in states:
            if sp not in seen and linked(s, sp):
                seen.add(sp)
                stack.append(sp)
    return seen


def test_state_graph_answers_match_plain_searches():
    """On arbitrary machines, zero_time_closure and the reachability
    messages of validate_instance agree with depth-first searches, and
    switch_times agrees with Floyd-Warshall over the transition times."""
    rng = random.Random(59)
    none = 10 ** 9
    unreachable = 0
    for _ in range(2000):
        states, tr = arbitrary_machine(rng)
        names = states.states
        inst = Instance(3, (1, 1, 1), (1,), states, tr)
        assert zero_time_closure(inst) == {
            s: plain_reach(names, lambda a, b: tr.time(a, b) == 0, s) for s in names}
        messages = [v.message for v in validate_instance(inst)]
        for src, dst in (("off", "proc"), ("proc", "off")):
            missing = dst not in plain_reach(names, tr.allowed, src)
            assert (f"{dst} unreachable from {src}" in messages) == missing
        unreachable += bool(messages)
        dist = {(a, b): none for a in names for b in names}
        dist.update({pair: t for pair, (t, _pw) in tr.entries.items()})
        dist.update({(a, a): 0 for a in names})
        for k in names:
            for a in names:
                for b in names:
                    dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
        for src in names:
            assert switch_times(tr, names, src) == {
                b: dist[src, b] for b in names if dist[src, b] < none}
    assert unreachable >= 200


def test_switch_times_ignores_undeclared_states(worked):
    # a detour through a state the machine does not list is no chain
    tr = TransitionSpec({**worked.transitions.entries, ("off", "x"): (0, 0), ("x", "proc"): (0, 0)})
    assert switch_times(tr, worked.state_set.states, "off") == {"off": 0, "proc": 2, "idle": 2}


def test_instance_dict_round_trip(worked):
    doc = instance_to_dict(worked)
    back = instance_from_dict(doc)
    assert back == worked
    text = json.dumps(doc)
    assert json.loads(text) == doc


def test_instance_file_round_trip(tmp_path, worked):
    path = tmp_path / "inst.json"
    save_instance(worked, path)
    assert load_instance(path) == worked
    for bad, reason in write_each_non_object(tmp_path):
        for load in (load_instance, load_schedule):
            with pytest.raises(InputError, match=re.escape(f"{bad}: {reason}")):
                load(bad)


def test_load_instance_rejects_an_invalid_instance(tmp_path, worked):
    # the file parses, but holds 15 costs for a horizon of 16
    path = tmp_path / "short.json"
    save_instance(dataclasses.replace(worked, costs=worked.costs[:-1]), path)
    with pytest.raises(InputError, match=re.escape(f"{path}: invalid instance: ") + ".*"
                       "expected 16 interval costs, got 15"):
        load_instance(path)


def test_instance_from_dict_rejects_duplicates(worked):
    doc = instance_to_dict(worked)
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(InputError):
        instance_from_dict(doc)


def test_instance_from_dict_requires_off_and_proc(worked):
    doc = instance_to_dict(worked)
    doc["states"] = ["sleep", "proc", "idle"]
    with pytest.raises(InputError):
        instance_from_dict(doc)


def test_instance_from_dict_rejects_transitions_that_are_no_list(worked):
    doc = instance_to_dict(worked)
    doc["transitions"] = 5
    with pytest.raises(InputError, match="malformed instance document"):
        instance_from_dict(doc)


@pytest.mark.parametrize("kind", NON_INTEGERS)
def test_instance_from_dict_accepts_integers_only(worked, kind):
    doc = instance_to_dict(worked)
    field = plant_non_integer(doc, kind)
    with pytest.raises(InputError, match=re.escape(f"{field} must be an integer")):
        instance_from_dict(doc)


def test_schedule_round_trip(tmp_path, worked, worked_schedule):
    doc = schedule_to_dict(worked_schedule, WORKED_TEC, stats={"states": 5})
    back, tec = schedule_from_dict(doc)
    assert back == worked_schedule and tec == WORKED_TEC

    path = tmp_path / "sched.json"
    save_schedule(worked_schedule, WORKED_TEC, path)
    back, tec = load_schedule(path)
    assert back == worked_schedule and tec == WORKED_TEC


@pytest.mark.parametrize("field, value, name", [
    ("sigma", [9.7, 3, 12], "job 1 start time"), ("sigma", [9, 3.0, 12], "job 2 start time"),
    ("sigma", [9, 3, "12"], "job 3 start time"), ("sigma", [True, 3, 12], "job 1 start time"),
    ("tec", 177.9, "tec"), ("tec", 177.0, "tec"), ("tec", "177", "tec"), ("tec", True, "tec"),
])
def test_schedule_from_dict_accepts_integers_only(worked_schedule, field, value, name):
    doc = schedule_to_dict(worked_schedule, WORKED_TEC)
    doc[field] = value
    with pytest.raises(InputError, match=re.escape(f"{name} must be an integer")):
        schedule_from_dict(doc)


@pytest.mark.parametrize("label", ["xy", [1, 2], ["off"], ["off", "off", "off"], ["off", None],
                                   {"off": "off"}, 5])
def test_schedule_from_dict_takes_labels_of_two_names(worked_schedule, label):
    doc = schedule_to_dict(worked_schedule, WORKED_TEC)
    doc["omega"][5] = label
    with pytest.raises(InputError, match="interval 6"):
        schedule_from_dict(doc)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["states"].append(7),
    lambda doc: doc["transitions"][0].update({"from": 1}),
    lambda doc: doc["transitions"][0].update({"to": ["off"]}),
])
def test_instance_from_dict_takes_string_names_only(worked, edit):
    doc = instance_to_dict(worked)
    edit(doc)
    with pytest.raises(InputError, match="must be a string"):
        instance_from_dict(doc)


def test_machine_roles_are_fixed_names():
    ss = MachineStateSet(("proc", "idle", "off"))
    assert (ss.off_state, ss.proc_state) == (MachineStateSet.off_state,
                                             MachineStateSet.proc_state) == ("off", "proc")
    with pytest.raises(TypeError):
        MachineStateSet(("sleep", "run"), off_state="sleep", proc_state="run")


def test_schedule_tec_may_be_absent(worked_schedule):
    doc = schedule_to_dict(worked_schedule, WORKED_TEC)
    del doc["tec"]
    assert schedule_from_dict(doc) == (worked_schedule, None)


def test_random_instances_validate_clean():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, require_room=False)
        assert validate_instance(inst) == []


def test_cost_prefix_matches_running_sum():
    rng = random.Random(3)
    for _ in range(20):
        inst = nosby_instance(rng)
        pref = inst.cost_prefix
        assert pref[0] == 0
        for i in range(1, inst.horizon + 1):
            assert pref[i] == sum(inst.costs[:i])
