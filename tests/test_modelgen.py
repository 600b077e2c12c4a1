import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from tousched import (
    Instance,
    InputError,
    build_graph,
    compute_spaces,
    emit_ilp_spaces,
    generate_instance,
    import_solution,
    load_varmap,
    parse_solution_text,
    preset_twosby,
    solve_exact,
    validate_schedule,
    write_artifact,
)
from tousched.model import InfeasibleError

from conftest import (WORKED_TEC, lp_to_arrays, nosby_instance, random_instance,
                      write_each_non_object)

WORKED_OPTIMAL_ASSIGNMENT = {
    "x_1_10": 1, "x_2_4": 1, "x_3_13": 1,
    "y_1_4": 1, "y_4_10": 1, "y_11_13": 1, "y_14_16": 1,
}


def make_table(inst):
    return compute_spaces(inst, build_graph(inst))


def test_worked_artifact_shape(worked):
    art = emit_ilp_spaces(worked, make_table(worked))
    assert len(art.varmap) == 102
    assert art.constant_term == 0
    text = art.lp_text
    assert text.index("Minimize") < text.index("Subject To") < \
        text.index("Binary") < text.index("End")
    assert all(len(line) <= 200 for line in text.splitlines())


def test_export_is_pinned(worked):
    # sha256 of the LP text and of json.dumps(varmap): these pin the terms,
    # the row and column order and the varmap key order
    pinned = [
        (worked, "942434e983b6f574e0d4d9202f65300e1245722c41ec464555852f62997db144",
         "ebf3003e4471027ace270d8b670a0fd09f9b12d37fcd6add6319cff24f7e20b1"),
        (generate_instance(8, preset_twosby(), "1.9", seed=42),
         "e5723494986394299094584e7918db32b0b5538f5737079916f5e5033efd34f7",
         "dd80c4ac7a17a3c6e9c082a9902682e88735f5fb1d169a479c17bb69aab73ba6"),
    ]
    for inst, lp_digest, varmap_digest in pinned:
        art = emit_ilp_spaces(inst, make_table(inst))
        assert hashlib.sha256(art.lp_text.encode()).hexdigest() == lp_digest
        assert hashlib.sha256(json.dumps(art.varmap).encode()).hexdigest() == varmap_digest
        assert art.constant_term == 0


def test_worked_objective_coefficients(worked):
    text = emit_ilp_spaces(worked, make_table(worked)).lp_text
    obj = text[text.index("Minimize"):text.index("Subject To")]
    for term in ("48 x_1_10", "6 x_2_4", "30 x_3_13",
                 "24 y_1_4", "48 y_4_10", "20 y_11_13", "1 y_14_16"):
        assert term in obj, term


def test_worked_constraint_rows(worked):
    text = emit_ilp_spaces(worked, make_table(worked)).lp_text
    for j in (1, 2, 3):
        assert f"assign_{j}:" in text
    for k in range(2, 16):
        assert f"flow_{k}:" in text
    assert "flow_1:" not in text and "flow_16:" not in text and "cover_" not in text


def test_worked_variable_domain(worked):
    names = set(emit_ilp_spaces(worked, make_table(worked)).varmap)
    # placements stay inside the processing window
    assert "x_1_4" in names and "x_1_13" in names
    assert "x_1_3" not in names and "x_1_14" not in names
    assert "x_2_14" in names  # the length-1 job can run on the window edge
    # the flagged gap is not offered to the model
    assert "y_2_15" not in names
    assert "y_4_10" in names and "y_1_4" in names and "y_14_16" in names


def check_flow_rows(inst, art):
    """The flow rows are T times the covering rows, T the lower bidiagonal
    matrix with 1 on the diagonal and -1 below it, and the right-hand side
    is e_1; a row of T times the covering rows that is all zero (0 = 0) is
    left out. The covering rows are rebuilt here from the variable map.
    Returns the number of rows left out."""
    names, _c, rows, rhs = lp_to_arrays(art.lp_text)
    h, n = inst.horizon, inst.n_jobs
    cover = np.zeros((h - 2, len(names)))  # rows for intervals 2 .. h-1
    for col, name in enumerate(names):
        meta = art.varmap[name]
        if meta["kind"] == "x":
            first, last = meta["i"], meta["i"] + inst.jobs[meta["j"] - 1] - 1
        else:
            first, last = meta["i"] + 1, meta["ip"] - 1
        cover[first - 2:last - 1, col] = 1
    want = (np.eye(h - 2) - np.eye(h - 2, k=-1)) @ cover
    kept = [int(k) - 2 for k in re.findall(r"^ flow_(\d+):", art.lp_text, re.M)]
    left_out = sorted(set(range(h - 2)) - set(kept))
    assert kept == sorted(kept) and 0 in kept
    assert np.array_equal(rows[n:], want[kept])
    assert not want[left_out].any()
    assert np.array_equal(rhs[n:], np.eye(h - 2)[0][kept])
    assert (np.count_nonzero(rows[n:], axis=0) <= 2).all()
    return len(left_out)


def check_gap_columns(table, art):
    """The y columns, in order, are the gaps with a body of at least one
    interval, a switching cost and no pruning flag, found pair by pair."""
    h = table.horizon
    want = [(i, ip) for i in range(1, h) for ip in range(i + 2, h + 1)
            if table.phi(i, ip) is not None and not table.is_pruned(i, ip)]
    assert [(m["i"], m["ip"]) for m in art.varmap.values() if m["kind"] == "y"] == want


def test_flow_rows_are_differenced_covering_rows(worked):
    assert check_flow_rows(worked, emit_ilp_spaces(worked, make_table(worked))) == 0
    rng = random.Random(61)
    left_out = 0
    for k in range(50):
        inst = random_instance(rng, n_max=5, h_max=30) if k % 2 else \
            nosby_instance(rng, n_max=5, h_max=30)
        table = make_table(inst)
        art = emit_ilp_spaces(inst, table)
        left_out += check_flow_rows(inst, art)
        check_gap_columns(table, art)
    assert left_out > 0  # the draw includes rows that would state 0 = 0


def test_emit_rejects_an_interval_nothing_covers(worked):
    # Two jobs of 6 need 12 intervals, one more than the window 4..14
    # holds: PC2 flags every root gap from y_1_4 on, y_1_3 has no
    # switching, and no job can start before 4, so nothing covers 2.
    inst = Instance(16, worked.costs, (6, 6), worked.state_set, worked.transitions)
    with pytest.raises(InfeasibleError, match="interval 2 can be neither processed nor bridged"):
        emit_ilp_spaces(inst, make_table(inst))


def test_import_worked_optimum(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    res = import_solution(worked, tab, art, WORKED_OPTIMAL_ASSIGNMENT)
    assert res.status == "imported"
    assert res.tec == WORKED_TEC
    assert validate_schedule(worked, res.schedule) == []


def test_import_accepts_solver_noise(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    noisy = {name: v + 3e-7 for name, v in WORKED_OPTIMAL_ASSIGNMENT.items()}
    noisy["y_1_10"] = 1e-9  # a zero the solver printed imprecisely
    res = import_solution(worked, tab, art, noisy)
    assert res.tec == WORKED_TEC


def test_import_rejects_fractional(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT, x_1_10=0.5)
    with pytest.raises(InputError):
        import_solution(worked, tab, art, bad)


def test_import_rejects_missing_job(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT)
    del bad["x_2_4"]
    with pytest.raises(InfeasibleError):
        import_solution(worked, tab, art, bad)


def test_import_rejects_double_assignment(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT, x_2_5=1)
    with pytest.raises(InfeasibleError):
        import_solution(worked, tab, art, bad)


def test_import_rejects_uncovered_interval(worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT)
    del bad["y_11_13"]
    with pytest.raises(InfeasibleError):
        import_solution(worked, tab, art, bad)


def test_import_rejects_a_gap_over_a_job(worked):
    # y_1_6 bridges intervals 2..5, which y_1_4 and job 2 at 4 already cover
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT, y_1_6=1)
    with pytest.raises(InfeasibleError, match="interval 2 labeled twice"):
        import_solution(worked, tab, art, bad)


def test_import_rejects_a_sidecar_that_moves_a_job(worked):
    # a hand edit renames x_1_10 to x_1_1: job 1 at interval 1 overlaps
    # the leading off interval and y_1_4, and leaves 10 and 11 uncovered
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    del art.varmap["x_1_10"]
    art.varmap["x_1_1"] = {"kind": "x", "j": 1, "i": 1}
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT, x_1_1=1)
    del bad["x_1_10"]
    with pytest.raises(InfeasibleError, match="interval 1 labeled twice") as err:
        import_solution(worked, tab, art, bad)
    for named in ("interval 2 labeled twice", "interval 10 uncovered", "interval 11 uncovered"):
        assert named in str(err.value)


def test_import_round_trips_solver_output():
    rng = random.Random(53)
    for _ in range(10):
        inst = nosby_instance(rng, n_max=4, h_max=18)
        tab = make_table(inst)
        res = solve_exact(inst, tab)
        if res.status != "optimal":
            continue
        art = emit_ilp_spaces(inst, tab)
        # rebuild the variable assignment the exact schedule corresponds to
        assignment = {}
        blocks = sorted((start + 1, j) for j, start in
                        enumerate(res.schedule.sigma, start=1))
        for i, j in blocks:
            assignment[f"x_{j}_{i}"] = 1
        edges = [1] + [i + inst.jobs[j - 1] - 1
                       for i, j in blocks] + [inst.horizon]
        starts = [i for i, _ in blocks] + [inst.horizon]
        for e, s2 in zip(edges, starts):
            if s2 > e + 1 or (e == 1 and s2 > e) or s2 == inst.horizon:
                if e != s2:
                    assignment[f"y_{e}_{s2}"] = 1
        back = import_solution(inst, tab, art, assignment)
        assert back.tec == res.tec


def test_write_artifact_and_load_varmap(tmp_path, worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    lp_path, map_path = write_artifact(art, tmp_path / "model.lp")
    assert lp_path.endswith("model.lp")
    assert map_path.endswith("model.lp.varmap.json")
    doc = json.loads(Path(map_path).read_text())
    assert set(doc) == {"constant_term", "variables"}
    back = load_varmap(map_path)
    assert back.varmap == art.varmap
    assert back.constant_term == art.constant_term
    with pytest.raises(TypeError):  # the sidecar path is not settable
        write_artifact(art, tmp_path / "other.lp", map_path=tmp_path / "elsewhere.json")


def test_load_varmap_rejects_junk(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_varmap(bad)
    for path, reason in write_each_non_object(tmp_path):
        with pytest.raises(InputError, match=re.escape(f"{path}: {reason}")):
            load_varmap(path)
    bad.write_text(json.dumps({"constant_term": 3.5, "variables": {}}))
    with pytest.raises(InputError, match="constant_term must be an integer"):
        load_varmap(bad)


def test_parse_solution_text():
    text = """
    # a comment line
    x_1_10 1
    x_2_4 1.0000000
    y_1_4  0.9999998
    Objective 177

    garbage-without-number one
    lonely
    """
    out = parse_solution_text(text)
    assert out["x_1_10"] == 1
    assert out["y_1_4"] == pytest.approx(0.9999998)
    assert out["Objective"] == 177
    assert "garbage-without-number" not in out
    assert "lonely" not in out


def test_emit_rejects_job_without_room(worked):
    inst = Instance(8, worked.costs[:8], (6,), worked.state_set,
                    worked.transitions)
    with pytest.raises(InfeasibleError):
        emit_ilp_spaces(inst, make_table(inst))


def test_line_wrap_on_wide_models():
    rng = random.Random(59)
    inst = nosby_instance(rng, n_max=5, h_max=18)
    art = emit_ilp_spaces(inst, make_table(inst))
    assert all(len(line) <= 200 for line in art.lp_text.splitlines())
