import dataclasses
import hashlib
import json
import random
import re
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tousched import (
    InputError,
    TransitionSpec,
    apply_pruning,
    build_graph,
    compute_spaces,
    expand_space,
    load_table,
    proc_window,
    save_table,
    solve_exact,
    sssp,
    switching_path,
    write_phi_csv,
)
from tousched import datagen, spaces
from tousched.isg import INF, tree_path
from tousched.model import InfeasibleError, Instance, MachineStateSet, zero_time_closure

from conftest import arbitrary_machine, nosby_instance, random_instance
from oracles import apsp_oracle


def make_table(inst):
    return compute_spaces(inst, build_graph(inst))


def phi_from_apsp(inst, g, oracle, i, ip):
    """Re-derive one switching cost straight from the all-pairs oracle;
    None when the oracle has no path."""
    h = inst.horizon
    src = (2, "off") if i == 1 else (i + 1, "proc")
    dst = (h, "off") if ip == h else (ip, "proc")
    return oracle.get(src, dst)


def price_expansion(inst, labels, first_interval):
    total = 0
    for k, lab in enumerate(labels, start=first_interval):
        total += inst.costs[k - 1] * inst.transitions.power(*lab)
    return total


def test_worked_phi_anchors(worked):
    tab = make_table(worked)
    assert tab.phi(4, 10) == 48
    assert tab.phi(1, 4) == 24
    assert tab.phi(11, 13) == 20
    assert tab.phi(14, 16) == 1
    assert tab.phi(1, 16) == 0  # staying off across the whole horizon is free
    assert tab.phi(5, 7) == 32  # one idle interval at cost 16 and power 2
    for i in range(2, 16):
        # back-to-back blocks bridge for free; outside the window the
        # pair is not a gap at all
        assert tab.phi(i, i + 1) in (0, None)
    assert tab.phi(4, 5) == 0
    assert tab.phi(15, 16) is None  # processing cannot end after t_off


def test_worked_window(worked):
    tab = make_table(worked)
    assert tab.window == (4, 14)


def test_phi_range_checks(worked):
    tab = make_table(worked)
    with pytest.raises(InputError):
        tab.phi(0, 5)
    with pytest.raises(InputError):
        tab.phi(5, 5)
    with pytest.raises(InputError):
        tab.phi(5, 17)


def test_worked_expansions(worked):
    tab = make_table(worked)
    assert expand_space(tab, 4, 10) == [
        ("proc", "off"), ("off", "off"), ("off", "off"),
        ("off", "proc"), ("off", "proc"),
    ]
    assert expand_space(tab, 11, 13) == [("idle", "idle")]


def test_worked_switching_path(worked):
    tab = make_table(worked)
    assert switching_path(tab, 4, 10) == [
        ("proc", "off"), ("off", "off"), ("off", "off"), ("off", "proc"),
    ]
    # before the window opens the machine cannot be processing at all
    with pytest.raises(InfeasibleError):
        switching_path(tab, 1, 2)


def test_expansion_prices_match_phi():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_instance(rng, n_max=3, h_max=16)
        tab = make_table(inst)
        h = inst.horizon
        for i in range(1, h):
            for ip in range(i + 2, h + 1):
                val = tab.phi(i, ip)
                if val is None:
                    continue
                labels = expand_space(tab, i, ip)
                assert len(labels) == ip - i - 1
                assert price_expansion(inst, labels, i + 1) == val


def assert_phi_matches_oracle(inst):
    g = build_graph(inst)
    tab = compute_spaces(inst, g)
    oracle = apsp_oracle(g)
    h = inst.horizon
    for i in range(1, h):
        for ip in range(i + 1, h + 1):
            assert tab.phi(i, ip) == phi_from_apsp(inst, g, oracle, i, ip), (i, ip)


def zero_time_shape(inst):
    """Which zero-time structures the machine has: classes of more than
    one state, and states joined by time-0 chains one way only."""
    reach = zero_time_closure(inst)
    pairs = [(s, sp) for s in reach for sp in reach[s] if s != sp]
    shape = set()
    if any(s in reach[sp] for s, sp in pairs):
        shape.add("shared class")
    if any(s not in reach[sp] for s, sp in pairs):
        shape.add("one-way")
    return shape


def test_phi_matches_all_pairs_oracle():
    rng = random.Random(19)
    for _ in range(25):
        assert_phi_matches_oracle(random_instance(rng, n_max=3, h_max=18))


def test_phi_matches_all_pairs_oracle_on_arbitrary_machines():
    # any transition graph: one-way time-0 chains, several zero-time
    # classes, class members held at different powers, and intervals
    # that cost nothing
    rng = random.Random(23)
    seen = Counter()
    while seen["checked"] < 200:
        states, trans = arbitrary_machine(rng)
        h = rng.randint(4, 18)
        costs = tuple(0 if rng.random() < 0.15 else rng.randint(1, 9) for _ in range(h))
        inst = Instance(h, costs, (1,), states, trans)
        try:
            assert_phi_matches_oracle(inst)
        except (InputError, InfeasibleError):
            continue  # no switch-on or switch-off chain, or no window
        seen["checked"] += 1
        seen.update(zero_time_shape(inst))
        seen["zero cost"] += 0 in costs
    assert min(seen["shared class"], seen["one-way"], seen["zero cost"]) >= 25, seen


def test_switching_path_is_the_sssp_tree_path_on_arbitrary_machines():
    # the machines of the oracle test above, drawn from the same seed: the
    # path read off the sweep's labels is the shortest path tree's, tie
    # break included, and a phi cell lowered below its path's cost is
    # refused as a table that does not match its instance
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        states, trans = arbitrary_machine(rng)
        h = rng.randint(4, 18)
        costs = tuple(0 if rng.random() < 0.15 else rng.randint(1, 9) for _ in range(h))
        inst = Instance(h, costs, (1,), states, trans)
        try:
            tab = make_table(inst)
        except (InputError, InfeasibleError):
            continue
        checked += 1
        g = tab.graph
        finite = []
        for i in range(1, h):
            for ip in range(i + 1, h + 1):
                want = tree_path(sssp(g, g.source_vertex(i), last=ip), g.target_vertex(ip))
                if tab.phi(i, ip) is None:
                    assert want is None
                    with pytest.raises(InfeasibleError):
                        switching_path(tab, i, ip)
                else:
                    assert switching_path(tab, i, ip) == want, (i, ip)
                    finite.append((i, ip))
        i, ip = rng.choice(finite)
        lowered = tab.phi_matrix.copy()
        lowered[i, ip] -= 1
        with pytest.raises(InputError, match="does not match its instance"):
            switching_path(spaces.SpacesTable(lowered, g), i, ip)


@pytest.mark.parametrize("off_power", [0, 1])
def test_phi_of_costs_near_the_cost_limit_keeps_unreachable_at_inf(worked, off_power):
    # costs << 51 put the worked example's paths just under COST_LIMIT =
    # 2^61, the headroom the backward sweep's unclamped rows rely on: every
    # finite cell scales exactly and every other cell is INF, not an
    # overflowed or unclamped sum. A free off stay (the worked machine)
    # keeps unreachable rows at INF exactly; at power 1 they carry INF plus
    # the weight of a path until phi is written.
    entries = {**worked.transitions.entries, ("off", "off"): (1, off_power)}
    inst = dataclasses.replace(worked, transitions=TransitionSpec(entries))
    base = make_table(inst).phi_matrix
    big = make_table(dataclasses.replace(inst, costs=tuple(c << 51 for c in inst.costs)))
    finite = base < spaces._UNREACHABLE
    assert np.array_equal(big.phi_matrix[finite], base[finite] << 51)
    assert (big.phi_matrix[~finite] == INF).all()
    if off_power == 0:
        assert big.phi(4, 10) == 48 << 51


@pytest.mark.parametrize("off_power", [0, 1])
def test_phi_of_costs_near_the_cost_limit_keeps_unreachable_at_inf_across_blocks(worked, off_power):
    # the worked costs eight times over, h = 128: seven blocks of 19
    # intervals on this machine, so a row's cells past its block are sums
    # of its cost to a boundary state and that state's row, both of them
    # INF where no path exists. Scaled << 48, the paths come just under
    # COST_LIMIT = 2^61 again; every finite cell scales exactly and every
    # other cell is exactly INF, not a wrapped or unclamped sum
    entries = {**worked.transitions.entries, ("off", "off"): (1, off_power)}
    inst = dataclasses.replace(worked, horizon=8 * worked.horizon, costs=worked.costs * 8,
                               transitions=TransitionSpec(entries))
    g = build_graph(inst)
    B = spaces._blocks(g.class_plan, inst.horizon)[0]
    assert -(-(inst.horizon - 1) // B) >= 3
    base = compute_spaces(inst, g).phi_matrix
    scaled = dataclasses.replace(inst, costs=tuple(c << 48 for c in inst.costs))
    assert 2 ** 60 < sum(scaled.costs) * 8 < 2 ** 61  # 8, the machine's highest power
    big = make_table(scaled)
    finite = base < spaces._UNREACHABLE
    assert 0 < finite.sum() < finite.size
    assert np.array_equal(big.phi_matrix[finite], base[finite] << 48)
    assert (big.phi_matrix[~finite] == INF).all()


def phi_from_sssp(g):
    """The full phi matrix from one `sssp` per gap start, INF where no
    path reaches the gap end."""
    h = g.horizon
    want = np.full((h + 1, h + 1), INF)
    for i in range(1, h):
        dist = sssp(g, g.source_vertex(i))
        for ip in range(i + 1, h + 1):
            d = dist.get(g.target_vertex(ip))
            if d is not None:
                want[i, ip] = d
    return want


def test_phi_in_blocks_matches_per_source_sssp_on_arbitrary_machines():
    # horizons of three blocks or more under the sweep's block size: every
    # cell of phi is the distance one `sssp` from its gap's start gives at
    # the gap's end, INF where it gives none, and sssp shares no code with
    # the sweep. The machines have steps of every time up to 4, so steps
    # leave a block from each of its last four offsets, and one-way
    # time-0 chains, several zero-time classes and intervals that cost
    # nothing. Half the horizons leave the top block one interval, h alone:
    # where that is shorter than the switch-off, the block below holds
    # rows that reach no gap end at h, INF as sums over every boundary state
    rng = random.Random(29)
    seen = Counter()
    while seen["checked"] < 60:
        states, trans = arbitrary_machine(rng)
        h = rng.randint(60, 150)
        try:
            if rng.random() < 0.5:
                plan = build_graph(Instance(h, (1,) * h, (1,), states, trans)).class_plan
                while (h - 2) % spaces._blocks(plan, h)[0]:
                    h += 1
            costs = tuple(0 if rng.random() < 0.15 else rng.randint(1, 9) for _ in range(h))
            inst = Instance(h, costs, (1,), states, trans)
            g = build_graph(inst)
            phi = compute_spaces(inst, g).phi_matrix
        except (InputError, InfeasibleError):
            continue  # no switch-on or switch-off chain, or no window
        B, slot = spaces._blocks(g.class_plan, h)
        if -(-(h - 1) // B) < 3:
            continue
        assert np.array_equal(phi, phi_from_sssp(g))
        seen["checked"] += 1
        seen.update(zero_time_shape(inst))
        seen["several classes"] += len(g.class_plan.out) >= 3
        seen["zero cost"] += 0 in costs
        seen["longest step 4"] += max(u for u, _c in slot) == 4
        seen["short top block"] += (h - 2) % B + 1 < h - 1 - proc_window(g)[1]
    assert min(seen["shared class"], seen["one-way"], seen["several classes"],
               seen["zero cost"], seen["longest step 4"], seen["short top block"]) >= 5, seen


def three_interval_switch_off(costs, off_power=1):
    """A machine that switches off in three intervals, proc -> cool ->
    cold -> off, with every stay at power 1 but off's at off_power, and
    switching on at power 2, over the given costs."""
    names = ("off", "proc", "cool", "cold")
    entries = {(s, s): (1, 1) for s in names}
    entries.update({("off", "off"): (1, off_power), ("off", "proc"): (1, 2),
                    ("proc", "cool"): (1, 1), ("cool", "cold"): (1, 1), ("cold", "off"): (1, 1)})
    return Instance(len(costs), tuple(costs), (1, 2), MachineStateSet(names),
                    TransitionSpec(entries))


def test_phi_past_a_block_with_no_path_is_inf():
    # switching off takes three intervals, staying off costs, and the top
    # block holds h - 1 and h: the gap after h - 3 reaches the horizon's
    # off from no state, and its cell at h, past the block below, is a
    # minimum of sums that each pass INF (a positive cost and INF, or INF
    # and the cost of staying off from h - 1), clamped back to INF
    h = 103
    inst = three_interval_switch_off([1 + k % 7 for k in range(h)])
    g = build_graph(inst)
    B = spaces._blocks(g.class_plan, h)[0]
    assert (h - 2) % B == 1 and (h - 2) // B >= 3  # the top block is h - 1 and h
    phi = compute_spaces(inst, g).phi_matrix
    assert phi[h - 3, h] == INF and phi[h - 4, h] < INF
    assert np.array_equal(phi, phi_from_sssp(g))


@pytest.mark.parametrize("off_power", [0, 1])
@pytest.mark.parametrize("heaviest, dtype", [
    (2 ** 13 - 2, np.int16), (2 ** 13, np.int32), (2 ** 29 - 2, np.int32), (2 ** 29, np.int64),
])
def test_phi_at_each_sweep_width_boundary_matches_per_source_sssp(heaviest, dtype, off_power):
    # the sweep runs in the narrowest of 16, 32 and 64 bits whose 2^(w-3)
    # is above sum(costs) * max power (2 here), with no path at 2^(w-2):
    # the machine above, its costs scaled so that the bound sits just below
    # and at 2^13 and 2^29. Every cell equals one sssp's distance, and every
    # cell with no path, the one past a block among them, is exactly INF
    h = 103
    base = [1 + k % 7 for k in range(h)]
    scale, extra = divmod(heaviest // 2, sum(base))
    costs = [c * scale for c in base]
    costs[0] += extra
    inst = three_interval_switch_off(costs, off_power)
    assert inst.heaviest_path == heaviest
    assert spaces._sweep_types(inst)[0] == dtype
    g = build_graph(inst)
    assert -(-(h - 1) // spaces._blocks(g.class_plan, h)[0]) >= 3
    phi = compute_spaces(inst, g).phi_matrix
    assert phi[h - 3, h] == INF
    assert np.array_equal(phi, phi_from_sssp(g))
    assert (phi[phi >= spaces._UNREACHABLE] == INF).all()


def test_phi_in_64_bits_at_paper_scale_scales_exactly():
    # nosby/190/19002/2.2 (h=1273) with its costs << 32: the sweep's bound
    # passes 2^29, so it runs in 64 bits, and phi is the 32-bit sweep's
    # phi << 32 on every finite cell and INF on every other
    inst = datagen.generate_instance(190, datagen.preset_nosby(), "2.2", seed=19002)
    big = dataclasses.replace(inst, costs=tuple(c << 32 for c in inst.costs))
    assert [spaces._sweep_types(x)[0] for x in (inst, big)] == [np.int32, np.int64]
    base = make_table(inst).phi_matrix
    phi = make_table(big).phi_matrix
    finite = base < spaces._UNREACHABLE
    assert np.array_equal(phi[finite], base[finite] << 32)
    assert (phi[~finite] == INF).all()


# The long-horizon benchmark stores a digest of phi and the pruning flags
# per instance; these two are its longest nosby and twosby horizons.
BENCH_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


@pytest.mark.parametrize("preset, n, seed, multiple, h", [
    ("nosby", 190, 19002, "2.2", 1273),
    ("twosby", 190, 19001, "1.9", 1068),
])
def test_phi_at_paper_scale_matches_the_benchmark_digest(preset, n, seed, multiple, h):
    refs = json.loads(BENCH_REFS.read_text(encoding="utf-8"))
    ref = refs["workloads"]["long-horizon"]["references"][f"{preset}/{n}/{seed}/{multiple}"]
    members = datagen.generate_family(n, getattr(datagen, f"preset_{preset}")(), seed)
    inst = members[[str(float(m)) for m in datagen.FAMILY_MULTIPLES].index(multiple)]
    assert inst.horizon == ref["h"] == h
    tab = make_table(inst)
    digest = hashlib.sha256(tab.phi_matrix.astype("<i8").tobytes())
    digest.update(tab.pruned_mask.astype("u1").tobytes())
    assert digest.hexdigest() == ref["digest"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(4, 60),
       scale=st.sampled_from([1, 20, 3000, 10**6, 10**9, 10**12]))
def test_stored_phi_is_the_narrowest_and_agrees_with_phi_and_the_matrix(seed, h, scale):
    # every cell of the stored array, phi(i, ip) and the widened matrix
    # tell the same cost or its absence, and the stored type is the
    # narrowest whose maximum is above every finite cost, that maximum
    # marking the rest. The scales reach each of the four types
    rng = random.Random(seed)
    states, trans = arbitrary_machine(rng)
    costs = tuple(0 if rng.random() < 0.15 else rng.randint(1, 9) * scale for _ in range(h))
    try:
        tab = make_table(Instance(h, costs, (1,), states, trans))
    except (InputError, InfeasibleError):
        assume(False)
    stored, phi = tab.stored, tab.phi_matrix
    mark = np.iinfo(stored.dtype).max
    finite = stored != mark
    assert np.array_equal(finite, phi != INF)
    assert np.array_equal(stored[finite], phi[finite]) and (stored[finite] >= 0).all()
    assert not finite[0].any() and not np.tril(finite).any()  # padding and ip <= i
    top = int(stored[finite].max(initial=0))
    k = STORED_TYPES.index(stored.dtype.type)
    assert mark > top and (k == 0 or np.iinfo(STORED_TYPES[k - 1]).max <= top)
    for i in range(1, h):
        for ip in range(i + 1, h + 1):
            assert tab.phi(i, ip) == (int(stored[i, ip]) if finite[i, ip] else None)


def test_phi_matrix_is_widened_once_and_read_only(worked):
    tab = make_table(worked)
    phi = tab.phi_matrix
    assert tab.phi_matrix is phi
    assert (phi.dtype, tab.stored.dtype) == (np.int64, np.int8)
    assert not phi.flags.writeable and not tab.stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        phi[4, 10] += 1
    with pytest.raises(ValueError, match="read-only"):
        tab.stored[4, 10] += 1


def paper_member():
    """nosby/190/19002/2.2, h=1273: the longest long-horizon member."""
    return datagen.generate_instance(190, datagen.preset_nosby(), "2.2", seed=19002)


@pytest.mark.parametrize("which, dtype, digest", [
    ("worked", np.int8, "bb2d40c407d89daf4b679ed9085effda4b27a593ad95b0ddd053d6bbb35653aa"),
    ("paper", np.int16, "f9c05a2537a644b1ece8f83e689d8c3cf0b1018f8245a7312832645dc4742bff"),
])
def test_saved_phi_member_is_pinned(tmp_path, worked, which, dtype, digest):
    # the phi member's type and bytes as save_table wrote them when it
    # narrowed an int64 phi in one pass: the stored table is written as it is
    inst = worked if which == "worked" else paper_member()
    stored = stored_phi(save_table(make_table(inst), tmp_path / "tab.npz"))
    assert stored.dtype == dtype
    assert hashlib.sha256(stored.tobytes()).hexdigest() == digest


def test_table_round_trip_allocates_no_int64_matrix(tmp_path):
    # compute, save and load keep phi in its stored type, int16 here: the
    # traced peak stays below one (h + 1)^2 int64 array, which the first
    # read of phi_matrix then allocates
    inst = paper_member()
    g = build_graph(inst)
    size = 8 * (inst.horizon + 1) ** 2
    tracemalloc.start()
    try:
        back = load_table(save_table(compute_spaces(inst, g), tmp_path / "tab.npz"), inst, graph=g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back.phi_matrix
        widened = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.stored.dtype == np.int16
    assert peak < size <= widened, (peak, size, widened)


def test_worked_pruning(worked):
    tab = make_table(worked)
    assert tab.is_pruned(2, 15)
    assert not tab.is_pruned(4, 10)
    assert (2, 15) in tab.pruned_pairs()


def test_pruning_matches_plain_loop_oracle():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng, n_max=4, h_max=18)
        tab = make_table(inst)
        t_on, t_off = tab.window
        h = inst.horizon
        max_p, sum_p = max(inst.jobs), sum(inst.jobs)
        for i in range(1, h):
            for ip in range(i + 1, h + 1):
                left = 0 if i == 1 else i - t_on + 1
                right = 0 if ip == h else t_off - ip + 1
                pc1 = max_p > left and max_p > right
                pc2 = left + right < sum_p
                assert tab.is_pruned(i, ip) == (pc1 or pc2), (i, ip)


def pruned_mask_in_five_passes(table):
    """The PC1/PC2 flags as five whole-table passes over left and right:
    the oracle for SpacesTable.pruned_mask."""
    h = table.horizon
    t_on, t_off = table.window
    jobs = table.graph.inst.jobs
    max_p, sum_p = max(jobs), sum(jobs)
    idx = np.arange(h + 1, dtype=np.int64)
    left = idx - t_on + 1
    left[1] = 0
    right = t_off - idx + 1
    right[h] = 0
    mask = right[None, :] < (sum_p - left)[:, None]  # PC2
    mask |= (max_p > left)[:, None] & (max_p > right)[None, :]  # PC1
    mask &= idx[None, :] > idx[:, None]
    mask[0] = False
    return mask


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), nosby=st.booleans(), h_max=st.sampled_from([8, 18, 40]))
def test_pruned_mask_matches_the_five_pass_formula(seed, nosby, h_max):
    rng = random.Random(seed)
    inst = nosby_instance(rng, n_max=5, h_max=h_max) if nosby else \
        random_instance(rng, n_max=5, h_max=h_max)
    try:
        tab = make_table(inst)
    except InfeasibleError:
        assume(False)
    assert np.array_equal(tab.pruned_mask, pruned_mask_in_five_passes(tab))


def test_pruning_shares_phi_values(worked):
    raw = make_table(worked)
    pruned = apply_pruning(raw, worked)
    assert pruned.phi_matrix is raw.phi_matrix
    assert pruned.window == raw.window


def test_table_round_trip(tmp_path, worked):
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab")
    assert out.endswith(".npz")
    back = load_table(out, worked)
    assert np.array_equal(back.phi_matrix, tab.phi_matrix)
    assert np.array_equal(back.pruned_mask, tab.pruned_mask)
    assert back.window == tab.window
    assert back.phi(4, 10) == 48


STORED_TYPES = (np.int8, np.int16, np.int32, np.int64)


def stored_phi(path):
    with np.load(path) as doc:
        return doc["phi"]


def assert_narrowest(stored, tab):
    """stored is phi in the narrowest signed type whose maximum is above
    every finite value, with that maximum in every cell without switching."""
    finite = tab.phi_matrix < spaces._UNREACHABLE
    top = int(tab.phi_matrix[finite].max())
    k = STORED_TYPES.index(stored.dtype.type)
    assert np.iinfo(stored.dtype).max > top
    assert k == 0 or np.iinfo(STORED_TYPES[k - 1]).max <= top
    assert np.array_equal(stored[finite], tab.phi_matrix[finite])
    assert (stored[~finite] == np.iinfo(stored.dtype).max).all()


def test_table_round_trip_on_random_instances(tmp_path):
    rng = random.Random(41)
    for k in range(40):
        inst = random_instance(rng, n_max=4, h_max=rng.randint(6, 40))
        tab = make_table(inst)
        out = save_table(tab, tmp_path / f"tab{k}.npz")
        assert_narrowest(stored_phi(out), tab)
        back = load_table(out, inst)
        assert back.phi_matrix.dtype == np.int64
        assert np.array_equal(back.phi_matrix, tab.phi_matrix)
        assert np.array_equal(back.pruned_mask, tab.pruned_mask)


@pytest.mark.parametrize("scale, dtype", [(1, np.int8), (2, np.int16), (1000, np.int32),
                                          (2 ** 30, np.int64)])
def test_table_round_trip_in_each_stored_type(tmp_path, worked, scale, dtype):
    # phi is linear in the costs: the worked example's largest finite
    # value, 106, stored as int8, then scaled past 127, 32767 and 2^31 - 1
    inst = dataclasses.replace(worked, costs=tuple(c * scale for c in worked.costs))
    tab = make_table(inst)
    out = save_table(tab, tmp_path / "tab.npz")
    stored = stored_phi(out)
    assert stored.dtype == dtype
    assert_narrowest(stored, tab)
    back = load_table(out, inst)
    assert np.array_equal(back.phi_matrix, tab.phi_matrix)
    assert np.array_equal(back.pruned_mask, tab.pruned_mask)
    assert back.phi(4, 10) == 48 * scale


@pytest.mark.parametrize("dtype", STORED_TYPES)
def test_cells_without_switching_are_stored_as_the_type_maximum(tmp_path, worked, dtype):
    # save_table narrows phi in one pass, a minimum cast into the stored
    # type: a cell without switching holds 2^61 or more, whatever its
    # value, and is stored as the type's maximum, int64's included, which
    # is above INF; it loads back as INF, and every finite cell unchanged.
    # A finite cost at the next narrower type's maximum picks the type
    tab = make_table(worked)
    phi = tab.phi_matrix.copy()
    k = STORED_TYPES.index(dtype)
    if k:
        phi[4, 10] = np.iinfo(STORED_TYPES[k - 1]).max
    marks = [2 ** 61, 2 ** 61 + 1, int(INF), int(INF) + 2 ** 61, 2 ** 63 - 1]
    cells = np.argwhere(np.triu(phi == INF, 1))
    assert len(cells) >= len(marks)
    for (i, ip), mark in zip(cells[::len(cells) // len(marks)], marks):
        phi[i, ip] = mark
    assert set(marks) <= set(phi.ravel().tolist())
    out = save_table(spaces.SpacesTable(phi, tab.graph), tmp_path / "tab.npz")
    stored = stored_phi(out)
    assert stored.dtype == dtype
    finite = phi < spaces._UNREACHABLE
    assert np.array_equal(stored[finite], phi[finite])
    assert (stored[~finite] == np.iinfo(dtype).max).all()
    back = load_table(out, worked)
    assert np.array_equal(back.phi_matrix, np.where(finite, phi, INF))


def test_finite_phi_at_a_type_maximum_is_stored_wider(tmp_path, worked):
    tab = make_table(worked)
    phi = tab.phi_matrix.copy()
    phi[4, 10] = np.iinfo(np.int8).max  # a cost, not the no-switching mark
    edited = spaces.SpacesTable(phi, tab.graph)
    out = save_table(edited, tmp_path / "tab.npz")
    assert stored_phi(out).dtype == np.int16
    back = load_table(out, worked)
    assert np.array_equal(back.phi_matrix, phi)
    assert back.phi(4, 10) == 127


def test_table_file_of_older_versions_loads(tmp_path, worked):
    # older versions stored int64 phi with INF = 2^62 as the no-switching mark
    tab = make_table(worked)
    out = str(tmp_path / "old.npz")
    np.savez_compressed(out, phi=tab.phi_matrix, fingerprint=np.str_(spaces._fingerprint(worked)))
    assert stored_phi(out).dtype == np.int64
    back = load_table(out, worked)
    assert np.array_equal(back.phi_matrix, tab.phi_matrix)
    res = solve_exact(worked, back)
    assert (res.status, res.tec) == ("optimal", 177)


def write_deflated_level_1(path, **members):
    """The archive save_table wrote before its members were stored
    uncompressed: np.savez's members, deflated at level 1."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for name, arr in members.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def test_table_file_of_np_savez_compressed_loads(tmp_path):
    # save_table stores its members uncompressed, as np.savez does; the
    # deflated archives of older versions and of np.savez_compressed
    # holding the same members read the same
    inst = nosby_instance(random.Random(7), n_max=4, h_max=40)
    tab = make_table(inst)
    out = save_table(tab, tmp_path / "tab.npz")
    with zipfile.ZipFile(out) as zf:
        assert sorted(zf.namelist()) == ["fingerprint.npy", "phi.npy"]
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
    members = {"phi": stored_phi(out), "fingerprint": np.str_(spaces._fingerprint(inst))}
    for write in (write_deflated_level_1, np.savez_compressed, np.savez):
        old = str(tmp_path / f"{write.__name__}.npz")
        write(old, **members)
        back = load_table(old, inst)
        assert np.array_equal(back.phi_matrix, load_table(out, inst).phi_matrix)
        assert np.array_equal(back.phi_matrix, tab.phi_matrix)


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a.astype(a.dtype.newbyteorder())],
                         ids=["fortran-order", "swapped-bytes"])
def test_table_file_in_fortran_order_or_swapped_bytes_loads(tmp_path, worked, layout):
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab.npz")
    rewrite_table_file(out, phi=layout(stored_phi(out)))
    assert np.array_equal(load_table(out, worked).phi_matrix, tab.phi_matrix)


def test_corrupt_table_file_is_input_error_or_loads_unchanged(tmp_path, worked):
    # every flipped byte and every truncation of the worked table, as
    # save_table writes it and as older versions deflated it with
    # np.savez_compressed, either raises InputError naming the file or,
    # where the archive reader does not read the byte, loads the same phi
    tab = make_table(worked)
    old = str(tmp_path / "old.npz")
    np.savez_compressed(old, phi=tab.phi_matrix, fingerprint=np.str_(spaces._fingerprint(worked)))
    bad = str(tmp_path / "bad.npz")
    outcomes = Counter()
    for path in (save_table(tab, tmp_path / "new.npz"), old):
        data = Path(path).read_bytes()
        variants = [data[:k] for k in range(len(data))]
        variants += [data[:k] + bytes([data[k] ^ 0xFF]) + data[k + 1:] for k in range(len(data))]
        for variant in variants:
            Path(bad).write_bytes(variant)
            try:
                back = load_table(bad, worked, tab.graph)
            except InputError as exc:
                assert bad in str(exc)
                outcomes["refused"] += 1
            else:
                assert np.array_equal(back.phi_matrix, tab.phi_matrix)
                outcomes["same"] += 1
    assert outcomes["refused"] > outcomes["same"] > 0


def test_npy_file_is_not_a_table(tmp_path, worked):
    # a bare .npy of phi, which np.load would return as an array
    path = str(tmp_path / "phi.npy")
    np.save(path, make_table(worked).phi_matrix)
    with pytest.raises(InputError, match=re.escape(path)):
        load_table(path, worked)


def test_directory_is_not_a_table(tmp_path, worked):
    path = tmp_path / "tab.npz"
    path.mkdir()
    with pytest.raises(InputError, match=re.escape(str(path))):
        load_table(str(path), worked)


def test_table_file_without_a_fingerprint_is_input_error(tmp_path, worked):
    out = save_table(make_table(worked), tmp_path / "tab.npz")
    with np.load(out) as doc:
        kept = {k: doc[k] for k in doc.files if k != "fingerprint"}
    np.savez(out, **kept)
    with pytest.raises(InputError, match=re.escape(out) + ".*fingerprint"):
        load_table(out, worked)


def test_table_file_with_a_negative_cost_is_input_error(tmp_path, worked):
    out = save_table(make_table(worked), tmp_path / "tab.npz")
    phi = stored_phi(out)
    phi[4, 6] = -5
    rewrite_table_file(out, phi=phi)
    with pytest.raises(InputError, match=re.escape(out) + ".*negative"):
        load_table(out, worked)


@pytest.mark.parametrize("member", ["phi", "fingerprint"])
def test_table_header_of_a_huge_array_allocates_nothing(tmp_path, worked, member):
    # a member whose .npy header announces 10^10 int64 values (74.5 GiB)
    # but holds none is refused from its header
    tab = make_table(worked)
    path = save_table(tab, tmp_path / "tab.npz")
    with np.load(path) as doc:
        members = {name: doc[name] for name in doc.files}
    crafted = str(tmp_path / "huge.npz")
    with zipfile.ZipFile(crafted, "w") as zf:
        for name, arr in members.items():
            with zf.open(name + ".npy", "w") as fh:
                if name == member:
                    np.lib.format.write_array_header_1_0(
                        fh, {"descr": "<i8", "fortran_order": False, "shape": (100000, 100000)})
                else:
                    np.lib.format.write_array(fh, arr)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=re.escape(crafted)):
            load_table(crafted, worked, tab.graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("old_format", [False, True])
def test_hand_set_type_maximum_reads_as_no_switching(tmp_path, worked, old_format):
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab.npz")
    phi = tab.phi_matrix.copy() if old_format else stored_phi(out)
    phi[4, 10] = np.iinfo(phi.dtype).max
    rewrite_table_file(out, phi=phi)
    back = load_table(out, worked)
    assert back.phi(4, 10) is None
    assert back.phi_matrix[4, 10] == spaces.INF
    assert back.phi(1, 4) == 24


def test_table_file_in_a_wider_type_than_it_needs_loads_as_it_is(tmp_path, worked):
    # the worked table, which save_table writes as int8, rewritten as int16
    # with int16's maximum for no switching: the same costs, kept as read
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab.npz")
    narrow = stored_phi(out)
    wide = narrow.astype(np.int16)
    wide[narrow == np.iinfo(narrow.dtype).max] = np.iinfo(np.int16).max
    rewrite_table_file(out, phi=wide)
    back = load_table(out, worked)
    assert back.stored.dtype == np.int16
    assert np.array_equal(back.phi_matrix, tab.phi_matrix)
    res = solve_exact(worked, back)
    assert (res.status, res.tec) == ("optimal", 177)


@pytest.mark.parametrize("gap", [(4, 6), (4, 10)], ids=["off-the-optimum", "on-the-optimum"])
def test_table_file_whose_old_pruned_key_flags_a_gap_solves_to_the_optimum(tmp_path, worked,
                                                                           gap):
    # older versions stored a pruned mask; one that flags a gap on top of
    # the derived flags, (4, 6), which the optimum does not use, or (4, 10),
    # which it does, is not read
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab.npz")
    pruned = tab.pruned_mask.copy()
    pruned[gap] = True
    rewrite_table_file(out, pruned=pruned)
    back = load_table(out, worked)
    assert np.array_equal(back.pruned_mask, tab.pruned_mask)
    res = solve_exact(worked, back)
    assert (res.status, res.tec) == ("optimal", 177)


def test_table_load_rejects_other_instance(tmp_path, worked):
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "tab.npz")
    costs = list(worked.costs)
    costs[0] += 1
    other = Instance(16, tuple(costs), worked.jobs, worked.state_set,
                     worked.transitions)
    with pytest.raises(InputError):
        load_table(out, other)


def rewrite_table_file(path, **fields):
    """Add or replace fields of an .npz that save_table wrote."""
    with np.load(path) as doc:
        kept = {k: doc[k] for k in doc.files}
    np.savez_compressed(path, **{**kept, **fields})


def test_table_file_holds_no_derived_fields(tmp_path, worked):
    out = save_table(make_table(worked), tmp_path / "tab.npz")
    with np.load(out) as doc:
        assert sorted(doc.files) == ["fingerprint", "phi"]


def test_table_load_derives_window_and_horizon(tmp_path, worked):
    # files written with the old window and horizon keys still load, and
    # those keys are not read: a stored (5, 14) once hid the optimum
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "old.npz")
    rewrite_table_file(out, window=np.asarray((5, 14), dtype=np.int64), horizon=np.int64(15))
    back = load_table(out, worked)
    assert (back.window, back.horizon) == ((4, 14), 16)
    assert np.array_equal(back.pruned_mask, tab.pruned_mask)
    res = solve_exact(worked, back)
    assert (res.status, res.tec) == ("optimal", 177)


def test_table_load_rejects_wrong_shapes(tmp_path, worked):
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "phi.npz")
    rewrite_table_file(out, phi=np.zeros((10, 10), dtype=np.int64))
    with pytest.raises(InputError, match=re.escape(out)):
        load_table(out, worked)
    # an old file's pruned key is not read, whatever its shape
    out = save_table(tab, tmp_path / "pruned.npz")
    rewrite_table_file(out, pruned=np.zeros((17, 16), dtype=bool))
    assert np.array_equal(load_table(out, worked).pruned_mask, tab.pruned_mask)


@pytest.mark.parametrize("phi_dtype", [np.float64, np.bool_, np.str_])
def test_table_load_takes_integer_phi_only(tmp_path, worked, phi_dtype):
    # a float phi is refused, not truncated: 47.9 would read as 47
    tab = make_table(worked)
    out = save_table(tab, tmp_path / "phi.npz")
    phi = tab.phi_matrix.astype(phi_dtype)
    if phi_dtype is np.float64:
        phi[4, 10] = 47.9
    rewrite_table_file(out, phi=phi)
    with pytest.raises(InputError, match=re.escape(out) + ".*integers"):
        load_table(out, worked)
    rewrite_table_file(out, phi=tab.phi_matrix.astype(np.uint64))
    assert np.array_equal(load_table(out, worked).phi_matrix, tab.phi_matrix)


def test_phi_csv_dump(tmp_path, worked):
    tab = make_table(worked)
    path = tmp_path / "phi.csv"
    write_phi_csv(tab, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,ip,phi"
    rows = {tuple(map(int, ln.split(",")[:2])): int(ln.split(",")[2])
            for ln in lines[1:]}
    assert rows[(4, 10)] == 48
    defined = sum(1 for i in range(1, 16) for ip in range(i + 1, 17)
                  if tab.phi(i, ip) is not None)
    assert len(rows) == defined


def test_worked_phi_csv_is_pinned(tmp_path, worked):
    path = tmp_path / "phi.csv"
    write_phi_csv(make_table(worked), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5cb113f07cac0e2d695e29491f28905e0f5f7dbe8d7b3ced8948fbb25ca8514d"


def test_phi_csv_matches_a_row_by_row_dump(tmp_path):
    rng = random.Random(43)
    for _ in range(10):
        inst = random_instance(rng, n_max=4, h_max=30)
        tab = make_table(inst)
        path = tmp_path / "phi.csv"
        write_phi_csv(tab, path)
        h = inst.horizon
        rows = [f"{i},{ip},{tab.phi(i, ip)}\n" for i in range(1, h) for ip in range(i + 1, h + 1)
                if tab.phi(i, ip) is not None]
        assert path.read_text() == "i,ip,phi\n" + "".join(rows)


def test_window_follows_phi_rule():
    """t_on is the first ip with phi(1, ip) finite and t_off the last i in
    2..h-1 with phi(i, h) finite. phi comes from the all-pairs oracle, so
    machines without a window are covered too."""
    rng = random.Random(37)
    infeasible = 0
    for _ in range(150):
        inst = random_instance(rng, n_max=3, h_max=rng.randint(3, 16), max_extra=3,
                               require_room=False)
        g = build_graph(inst)
        oracle = apsp_oracle(g)
        h = inst.horizon

        def phi(i, ip):
            return oracle.get(g.source_vertex(i), g.target_vertex(ip))

        t_on = next((ip for ip in range(2, h + 1) if phi(1, ip) is not None), None)
        t_off = next((i for i in range(h - 1, 1, -1) if phi(i, h) is not None), None)
        if t_on is None or t_off is None or t_off < t_on:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                proc_window(g)
            continue
        assert proc_window(g) == (t_on, t_off)
        tab = compute_spaces(inst, g)
        assert t_on == min(ip for ip in range(2, h + 1) if tab.phi(1, ip) is not None)
        assert t_off == max(i for i in range(2, h) if tab.phi(i, h) is not None)
    assert infeasible > 0
