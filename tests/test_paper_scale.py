"""The paper's scale: optimal schedules for up to 190 jobs and about 1275
intervals, and past it. Each check rebuilds its members from datagen's
seeds and compares with values stored here: the optima, the LP text's
digest, and phi's type and bytes through a save and a load. Together they
take a few seconds."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from tousched import (build_graph, compute_spaces, emit_ilp_spaces, generate_family,
                      generate_instance, load_table, preset_nosby, preset_twosby, save_table,
                      solve_exact, write_artifact)
from tousched.isg import INF

# the n=190 members of the paper-scale ladder (h 731-1275), each proved
# optimal by the fit on the relaxed blocks: {(preset, seed): the optima at
# multiples 1.3, 1.6, 1.9 and 2.2}
LADDER = {
    ("nosby", 19001): (17468, 17161, 16796, 16570),
    ("twosby", 19002): (18110, 17823, 17395, 17279),
}
MULTIPLES = ("1.3", "1.6", "1.9", "2.2")
PRESETS = {"nosby": preset_nosby, "twosby": preset_twosby}
MEMBERS = [(name, seed, k) for name, seed in LADDER for k in range(len(MULTIPLES))]
MEMBER_IDS = [f"{name}/190/{seed}/{MULTIPLES[k]}" for name, seed, k in MEMBERS]

# nosby members at multiple 2.2 {(n, seed): optimum} whose jobs fit neither
# the relaxed blocks nor, at these sizes, the exact DP's cell limit:
# counting the jobs of length 1 proves each optimal (8091 is also HiGHS's
# optimum). n=250 and n=300 fit the relaxed blocks and are proved by that
# fit
DECREMENTAL = {(60, 3): 5502, (60, 9): 5092, (90, 9): 8091, (120, 3): 10471, (120, 9): 10257,
               (120, 10): 10786, (150, 3): 13168, (250, 3): 21531, (300, 3): 25482}

# sha256 of the LP text of nosby/190/19002/2.2 (h=1273, 880,401 columns,
# 47.8 MB), the text of the emitter kept in tests/emit_oracle.py
LP_DIGEST = "dd2b26470356751ff62b84f230a1f5734579615790e0b4e6b7ccd0a344a72f39"


def ladder_member(name, seed, k):
    return generate_family(190, PRESETS[name](), seed)[k]


def make_table(inst):
    return compute_spaces(inst, build_graph(inst))


@pytest.mark.parametrize("name, seed, k", MEMBERS, ids=MEMBER_IDS)
def test_ladder_member_is_solved_to_its_optimum(name, seed, k):
    inst = ladder_member(name, seed, k)
    res = solve_exact(inst, make_table(inst))
    assert (res.status, res.tec) == ("optimal", LADDER[name, seed][k])


@pytest.mark.parametrize("n, seed", DECREMENTAL, ids=[f"nosby/{n}/{s}/2.2" for n, s in DECREMENTAL])
def test_decremental_member_is_solved_to_its_optimum(n, seed):
    inst = generate_instance(n, preset_nosby(), "2.2", seed=seed)
    res = solve_exact(inst, make_table(inst))
    assert (res.status, res.tec) == ("optimal", DECREMENTAL[n, seed])


def assert_round_trip_keeps_phi(tmp_path, inst):
    """phi saved and loaded is the built one's stored array, in its type
    and byte for byte."""
    g = build_graph(inst)
    table = compute_spaces(inst, g)
    loaded = load_table(save_table(table, tmp_path / "phi.npz"), inst, graph=g)
    assert loaded.stored.dtype == table.stored.dtype
    assert loaded.stored.tobytes() == table.stored.tobytes()


@pytest.mark.parametrize("name, seed, k", MEMBERS, ids=MEMBER_IDS)
def test_ladder_phi_round_trip_keeps_type_and_bytes(tmp_path, name, seed, k):
    assert_round_trip_keeps_phi(tmp_path, ladder_member(name, seed, k))


def test_phi_round_trip_past_the_paper_scale_keeps_type_and_bytes(tmp_path):
    # nosby/1000/100001/2.2, h=6516: phi is about 81 MB as int16
    assert_round_trip_keeps_phi(tmp_path, generate_instance(1000, preset_nosby(), "2.2",
                                                            seed=100001))


@pytest.mark.parametrize("name, seed, k", MEMBERS, ids=MEMBER_IDS)
def test_ladder_phi_at_costs_shifted_by_32_bits_is_phi_shifted(name, seed, k):
    # the costs << 32 move the sweep from 32 to 64 bits
    inst = ladder_member(name, seed, k)
    phi = make_table(inst).phi_matrix
    wide = make_table(dataclasses.replace(inst, costs=tuple(c << 32 for c in inst.costs)))
    finite = phi < INF
    assert np.array_equal(wide.phi_matrix[finite], phi[finite] << 32)
    assert (wide.phi_matrix[~finite] == INF).all()


def test_lp_export_at_the_paper_scale_matches_its_digest(tmp_path):
    inst = generate_instance(190, preset_nosby(), "2.2", seed=19002)
    assert inst.horizon == 1273
    lp_path, _ = write_artifact(emit_ilp_spaces(inst, make_table(inst)), tmp_path / "model.lp")
    assert hashlib.sha256(Path(lp_path).read_bytes()).hexdigest() == LP_DIGEST
