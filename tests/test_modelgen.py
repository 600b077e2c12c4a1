import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    preset_nosby,
    preset_twosby,
    solve_exact,
    validate_schedule,
    write_artifact,
)
from tousched.model import InfeasibleError, compute_tec, job_cost
from tousched.modelgen import _WRAP, _text
from tousched.solver import assemble_schedule

from conftest import (WORKED_TEC, lp_to_arrays, nosby_instance, random_instance,
                      write_each_non_object)
import emit_oracle

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
        # h=139, 9,446 variables: each flow row wraps over up to 9 lines
        (generate_instance(30, preset_twosby(), "1.6", seed=3002),
         "f039238861b80c2a72b21336a951c15f2a3fa790a3536f020ab8d8635156fe01",
         "284253d2f74715a7e42442e9b0941e464886fa6ef298827f9c3a06152a170004"),
        # flow_9 starts with "- x_1_5" and wraps onto a second line
        (generate_instance(6, preset_nosby(), "1.3", seed=5),
         "16367dc06e97606a7caef59511c1e4f5a83cc2ca4c31857dcdd2b5ed4357bff2",
         "af79948b0c9a4ef130728c5f9247685ecc5525e1295794e2fd2080fd25c59508"),
        # h=339, 60,470 variables, 3.1 MB of text: the largest lp-roundtrip
        # member of the benchmark
        (generate_instance(60, preset_twosby(), "1.9", seed=6002),
         "5490186effd7b6c64a124e3473ab57786331d7aa2ae86a541902ea6bf575028f",
         "70f5aca6d17c42cceb985798ab8ced2391f91d8caaa82f4382a4bf9d5902363b"),
    ]
    for inst, lp_digest, varmap_digest in pinned:
        art = emit_ilp_spaces(inst, make_table(inst))
        assert hashlib.sha256(art.lp_text.encode()).hexdigest() == lp_digest
        assert hashlib.sha256(json.dumps(art.varmap).encode()).hexdigest() == varmap_digest
        assert art.constant_term == 0


def wrap_terms_one_piece_at_a_time(head, terms, tail):
    """The line wrap of one row as a loop that adds one piece at a time:
    the oracle for _text."""
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


# names of 1 to 205 characters, so single terms reach past the wrap width
_NAMES = st.builds(lambda c, k: c * k, st.sampled_from("xy_7"),
                   st.one_of(st.integers(1, 12), st.integers(_WRAP - 12, _WRAP + 5)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.sampled_from([" obj: ", " assign_3: ", " flow_1273: "]),
                               st.lists(st.tuples(st.booleans(), _NAMES), min_size=1,
                                        max_size=60),
                               st.sampled_from(["", " = 0", " = 1"])),
                     min_size=1, max_size=4))
def test_wrap_terms_matches_the_piece_by_piece_loop(rows):
    # _text over several rows at once, each row against the loop; a row
    # that opens with a minus term carries its "- " in the head, as flow
    # rows do
    heads, tails, starts, sign, words, want = [], [], [], [], [], []
    for head, terms, tail in rows:
        heads.append(head + ("- " if terms[0][0] else ""))
        tails.append(tail)
        starts.append(len(words))
        sign += [" - " if minus else " + " for minus, _ in terms]
        words += [name for _, name in terms]
        want += wrap_terms_one_piece_at_a_time(
            head, [("- " if minus else "") + name for minus, name in terms], tail)
    size = np.array([3 + len(name) for name in words])
    assert _text(heads, tails, starts, sign, size, words) == "\n".join(want)


def test_emit_matches_the_emitter_it_replaced():
    # the emitter kept in emit_oracle: a bisect per wrapped line and one
    # string operation per term; the text, the columns and the gap runs
    # must come out the same
    rng = random.Random(26)
    minus_first = jumps = 0
    for _ in range(100):
        preset = rng.choice([preset_nosby, preset_twosby])()
        multiple = rng.choice(["1.3", "1.6", "1.9", "2.2"])
        inst = generate_instance(rng.randint(3, 25), preset, multiple, seed=rng.randrange(10 ** 6))
        table = make_table(inst)
        art, want = emit_ilp_spaces(inst, table), emit_oracle.emit_ilp_spaces(inst, table)
        assert (art.lp_text, art.x, art.gaps, art.constant_term) == \
            (want.lp_text, want.x, want.gaps, want.constant_term)
        minus_first += len(re.findall(r"^ flow_\d+: - ", art.lp_text, re.M))
        jumps += sum(a[0] == b[0] for a, b in zip(art.gaps, art.gaps[1:]))
    assert minus_first > 0 and jumps > 0  # rows that open with -x, gap ends that jump


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
    # a hand edit widens job 1's starts 4..13 to 1..13, so x_1_1 is a
    # column: job 1 at interval 1 overlaps the leading off interval and
    # y_1_4, and leaves 10 and 11 uncovered
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    assert art.x[0] == [1, 4, 13]
    bad = dict(WORKED_OPTIMAL_ASSIGNMENT, x_1_1=1)
    del bad["x_1_10"]
    with pytest.raises(InfeasibleError, match=re.escape("jobs [1] unassigned")):
        import_solution(worked, tab, art, bad)  # x_1_1 is no column yet
    art.x[0] = [1, 1, 13]
    with pytest.raises(InfeasibleError, match="interval 1 labeled twice") as err:
        import_solution(worked, tab, art, bad)
    for named in ("interval 2 labeled twice", "interval 10 uncovered", "interval 11 uncovered"):
        assert named in str(err.value)


def schedule_assignment(inst, sigma):
    """The variable assignment a schedule's job starts correspond to."""
    assignment = {}
    blocks = sorted((start + 1, j) for j, start in enumerate(sigma, start=1))
    for i, j in blocks:
        assignment[f"x_{j}_{i}"] = 1
    edges = [1] + [i + inst.jobs[j - 1] - 1
                   for i, j in blocks] + [inst.horizon]
    starts = [i for i, _ in blocks] + [inst.horizon]
    for e, s2 in zip(edges, starts):
        if s2 > e + 1 or (e == 1 and s2 > e) or s2 == inst.horizon:
            if e != s2:
                assignment[f"y_{e}_{s2}"] = 1
    return assignment


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
        assignment = schedule_assignment(inst, res.schedule.sigma)
        back = import_solution(inst, tab, art, assignment)
        assert back.tec == res.tec


def import_by_walking_the_varmap(inst, table, varmap, constant_term, assignment):
    """The import as it was when the sidecar held one object per variable:
    walk every column of the variable map in order and look its value up
    in the assignment. The oracle for import_solution; returns the TEC and
    the schedule."""
    tol = 1e-6
    starts, gaps, objective = {}, [], 0
    for name, meta in varmap.items():
        val = assignment.get(name, 0.0)
        if abs(val) <= tol:
            continue
        if not abs(val - 1.0) <= tol:
            raise InputError(f"non-integral assignment: {name} = {val}")
        if meta["kind"] == "x":
            j, i = meta["j"], meta["i"]
            if j in starts:
                raise InfeasibleError(f"cover violated: job {j} assigned twice")
            starts[j] = i
            objective += job_cost(inst, j, i)
        else:
            i, ip = meta["i"], meta["ip"]
            cost = table.phi(i, ip)
            if cost is None:
                raise InputError(f"variable {name} refers to a gap with no switching")
            gaps.append((i, ip))
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
    if tec != objective + constant_term:
        raise InputError(f"assignment objective {objective} + constant {constant_term} "
                         f"does not match the re-priced schedule cost {tec}")
    return tec, sched


def varmap_by_last_occurrence(art):
    """art.varmap, with a y pair listed twice at its later column, the one
    the import takes it for."""
    ys = [(i, ip) for i, lo, hi in art.gaps for ip in range(lo, hi + 1)]
    last = {pair: k for k, pair in enumerate(ys)}
    out = {name: meta for name, meta in art.varmap.items() if meta["kind"] == "x"}
    out.update((f"y_{i}_{ip}", {"kind": "y", "i": i, "ip": ip})
               for k, (i, ip) in enumerate(ys) if last[i, ip] == k)
    return out


def outcome(run):
    """(TEC, sigma, omega) of a successful import, else the exception's
    class and message."""
    try:
        tec, sched = run()
    except (InputError, InfeasibleError) as exc:
        return type(exc), str(exc)
    return tec, sched.sigma, sched.omega


def out_of_range_pairs(h):
    """y pairs no model has, below 0, past h + 1 and past int64."""
    return [(-3, 4), (2, h + 3), (2 ** 70, 1)]


def out_of_range_runs(h):
    """Gap runs no model has: the out-of-range pairs one run each, a run
    from h on past h + 1, and an empty run, last ip before first."""
    return [[a, b, b] for a, b in out_of_range_pairs(h)] + [[2, h, h + 4], [1, h, 3]]


# exact and noisy 0s and 1s, a fraction, NaN and a value past 1
_VALUES = st.sampled_from([0, 1, 1 + 3e-7, 1 - 3e-7, 1e-9, -1e-9, 0.5, float("nan"), 2])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), nosby=st.booleans(), data=st.data())
def test_import_matches_the_varmap_walk(tmp_path_factory, seed, nosby, data):
    # the oracle walks the varmap the artifact derives; import_solution
    # reads the arrays back from a sidecar file. Both see the same
    # assignment: an optimum's columns with up to three edits, each a
    # model column set to a value, an assigned column dropped, or a name
    # outside the model set to a value. The sidecar is as written, or its
    # gap runs shuffled, or part of one listed again further on, or runs
    # outside the horizon added; the oracle then walks the edited columns,
    # a pair listed twice at its later one.
    rng = random.Random(seed)
    inst = nosby_instance(rng, n_max=4, h_max=18) if nosby else random_instance(rng, n_max=4)
    table = make_table(inst)
    res = solve_exact(inst, table)
    assume(res.status == "optimal")
    art = emit_ilp_spaces(inst, table)
    _lp, map_path = write_artifact(art, tmp_path_factory.mktemp("lp") / "model.lp")

    columns = list(art.varmap)
    pairs = {(m["i"], m["ip"]) for m in art.varmap.values() if m["kind"] == "y"}
    j, lo, hi = art.x[rng.randrange(len(art.x))]
    i = rng.randint(1, inst.horizon - 2)
    outside = ["x_0_3", "x_01_5", f"x_{j}_{lo - 1}", f"x_{j}_{hi + 1}", f"x_{j}_0{lo}",
               "y_5_5", f"y_{i}_{i + 1}", "Objective", "assign_1", f"x_{j}_-{lo}",
               *(f"y_{a}_{b}" for a, b in out_of_range_pairs(inst.horizon)),
               *(f"y_{a}_{b}" for a, b in [(1, inst.horizon), (2, 7)] if (a, b) not in pairs)]
    assignment = {name: float(v) for name, v in
                  schedule_assignment(inst, res.schedule.sigma).items()}
    for kind in data.draw(st.lists(st.sampled_from(["column", "drop", "outside"]), max_size=3)):
        if kind == "column":
            assignment[data.draw(st.sampled_from(columns))] = data.draw(_VALUES)
        elif kind == "drop" and assignment:
            del assignment[data.draw(st.sampled_from(sorted(assignment)))]
        elif kind == "outside":
            assignment[data.draw(st.sampled_from(outside))] = data.draw(_VALUES)
    assignment = dict(data.draw(st.permutations(list(assignment.items()))))
    sidecar = data.draw(st.sampled_from(["as written", "runs shuffled", "part of a run twice",
                                         "runs out of range"]))
    doc = json.loads(Path(map_path).read_text())
    runs = doc["gaps"]
    if sidecar == "runs shuffled":
        rng.shuffle(runs)
    elif sidecar == "part of a run twice" and runs:
        k = rng.randrange(len(runs))
        i, lo, hi = runs[k]
        lo = rng.randint(lo, hi)
        runs.insert(rng.randint(k + 1, len(runs)), [i, lo, rng.randint(lo, hi)])
    elif sidecar == "runs out of range":
        runs += out_of_range_runs(inst.horizon)
    Path(map_path).write_text(json.dumps(doc))
    loaded = load_varmap(map_path)
    varmap = varmap_by_last_occurrence(loaded)
    if sidecar == "as written":
        assert varmap == art.varmap

    def new():
        back = import_solution(inst, table, loaded, assignment)
        return back.tec, back.schedule

    want = outcome(lambda: import_by_walking_the_varmap(inst, table, varmap,
                                                        art.constant_term, assignment))
    assert outcome(new) == want


def test_import_takes_a_pair_listed_twice_at_its_later_column(tmp_path, worked):
    # two faults: the one in the earlier column is named, and a pair listed
    # again at the end is a column after every other
    art = emit_ilp_spaces(worked, make_table(worked))
    _lp, map_path = write_artifact(art, tmp_path / "model.lp")
    doc = json.loads(Path(map_path).read_text())
    a, b, _last = doc["gaps"][0]
    c, d = a, b + 1  # the first two pairs, (a, b) and (c, d), in the first run
    assignment = {f"y_{a}_{b}": 0.5, f"y_{c}_{d}": 0.5}
    with pytest.raises(InputError, match=f"non-integral assignment: y_{a}_{b} = 0.5"):
        import_solution(worked, make_table(worked), load_varmap(map_path), assignment)
    doc["gaps"].append([a, b, b])
    Path(map_path).write_text(json.dumps(doc))
    with pytest.raises(InputError, match=f"non-integral assignment: y_{c}_{d} = 0.5"):
        import_solution(worked, make_table(worked), load_varmap(map_path), assignment)


def test_write_artifact_and_load_varmap(tmp_path, worked):
    tab = make_table(worked)
    art = emit_ilp_spaces(worked, tab)
    lp_path, map_path = write_artifact(art, tmp_path / "model.lp")
    assert lp_path.endswith("model.lp")
    assert map_path.endswith("model.lp.varmap.json")
    doc = json.loads(Path(map_path).read_text())
    assert set(doc) == {"constant_term", "x", "gaps"}
    assert doc["x"] == [[1, 4, 13], [2, 4, 14], [3, 4, 13]]  # [j, first start, last start]
    # [i, first ip, last ip]: 71 gaps in 14 runs, one per start
    assert doc["gaps"][:3] == [[1, 4, 10], [2, 4, 9], [3, 5, 10]]
    assert len(doc["gaps"]) == 14 and sum(hi - lo + 1 for _i, lo, hi in doc["gaps"]) == 71
    back = load_varmap(map_path)
    assert back.varmap == art.varmap
    assert (back.x, back.gaps) == (art.x, art.gaps)
    assert back.constant_term == art.constant_term
    with pytest.raises(TypeError):  # the sidecar path is not settable
        write_artifact(art, tmp_path / "other.lp", map_path=tmp_path / "elsewhere.json")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), nosby=st.booleans())
def test_the_sidecar_gives_back_every_column(tmp_path_factory, seed, nosby):
    # emit, write and load give the varmap back; each column set alone is
    # found as that column, the fraction naming it, and a name in no row
    # or run is ignored, so that no job is assigned. About half the
    # random_instance models have a start whose gaps form two runs.
    rng = random.Random(seed)
    inst = nosby_instance(rng, n_max=5, h_max=30) if nosby else \
        random_instance(rng, n_max=5, h_max=30)
    table = make_table(inst)
    try:
        art = emit_ilp_spaces(inst, table)
    except InfeasibleError:
        assume(False)
    _lp, map_path = write_artifact(art, tmp_path_factory.mktemp("lp") / "model.lp")
    loaded = load_varmap(map_path)
    varmap = art.varmap
    assert json.dumps(loaded.varmap) == json.dumps(varmap)
    found = []
    for name in varmap:
        try:
            import_solution(inst, table, loaded, {name: 0.5})
        except InputError as exc:
            found.append(str(exc))
    assert found == [f"non-integral assignment: {name} = 0.5" for name in varmap]
    h = inst.horizon
    outside = {f"{kind}_{a}_{b}": 0.5 for kind in "xy" for a in range(-1, h + 3)
               for b in range(-1, h + 3)}
    outside = {name: v for name, v in outside.items() if name not in varmap}
    outside[f"y_{2 ** 70}_{h}"] = 0.5
    unassigned = re.escape(f"jobs {list(range(1, inst.n_jobs + 1))} unassigned")
    with pytest.raises(InfeasibleError, match=unassigned):
        import_solution(inst, table, loaded, outside)


def test_load_varmap_rejects_junk(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_varmap(bad)
    for path, reason in write_each_non_object(tmp_path):
        with pytest.raises(InputError, match=re.escape(f"{path}: {reason}")):
            load_varmap(path)
    good = {"constant_term": 0, "x": [[1, 4, 13], [2, 4, 14]], "gaps": [[1, 4, 4], [4, 10, 10]]}
    bad.write_text(json.dumps(good))
    assert load_varmap(bad).varmap == {
        **{f"x_1_{i}": {"kind": "x", "j": 1, "i": i} for i in range(4, 14)},
        **{f"x_2_{i}": {"kind": "x", "j": 2, "i": i} for i in range(4, 15)},
        "y_1_4": {"kind": "y", "i": 1, "ip": 4}, "y_4_10": {"kind": "y", "i": 4, "ip": 10}}
    x_rows = "x must hold one [j, first start, last start] integer row per job"
    gap_runs = "gaps must hold [i, first ip, last ip] integer runs"
    for edit, reason in [
            # an object of rows by job would convert to a list; x must be one
            ({"x": {"1": [4, 13], "2": [4, 14]}}, x_rows),
            ({"x": [[True, 4, 13], [2, 4, 14]]}, x_rows),
            ({"x": [[1, 4, "13"], [2, 4, 14]]}, x_rows),
            ({"x": [[1, 4, 13.0], [2, 4, 14]]}, x_rows),
            ({"x": [[1, 4], [2, 4, 14]]}, x_rows),
            ({"x": [[1, 4, 13, 1], [2, 4, 14]]}, x_rows),
            ({"x": [7, [2, 4, 14]]}, x_rows),
            ({"x": [[1, 4, 13], [1, 5, 14]]}, x_rows),  # job 1 twice
            ({"gaps": {"1": [4, 4], "4": [10, 10]}}, gap_runs),
            ({"gaps": [[1, 4, 4], [4, 10, True]]}, gap_runs),
            ({"gaps": [["1", 4, 4], [4, 10, 10]]}, gap_runs),
            ({"gaps": [[1, 4, 4], [4, 10, 10, 11]]}, gap_runs),
            ({"gaps": [[1, 4, 4], [4, 10]]}, gap_runs),
            ({"gaps": [[1, 4, 4], 4]}, gap_runs),
            ({"gaps": [[1, 4, 4], [[4], 10, 10]]}, gap_runs),
            ({"gaps": [[1, 4.0, 4], [4, 10, 10]]}, gap_runs),
            ({"constant_term": 3.5}, "constant_term must be an integer"),
            ({"constant_term": False}, "constant_term must be an integer")]:
        bad.write_text(json.dumps({**good, **edit}))
        with pytest.raises(InputError, match=re.escape(f"{bad}: malformed variable map: {reason}")):
            load_varmap(bad)
    for key in good:
        bad.write_text(json.dumps({k: v for k, v in good.items() if k != key}))
        with pytest.raises(InputError, match=re.escape(f"{bad}: malformed variable map: ")):
            load_varmap(bad)
    # a sidecar in the old format, one object per variable, is refused
    # with the way out: the LP text is the same, so emit-lp rewrites it
    bad.write_text(json.dumps({"constant_term": 0,
                               "variables": {"x_1_10": {"kind": "x", "j": 1, "i": 10}}}))
    with pytest.raises(InputError, match=re.escape(f"{bad}: a variable map in the old format")) \
            as err:
        load_varmap(bad)
    assert "re-run emit-lp" in str(err.value)
    # so is one that lists the gaps as two lists, i and ip, under y
    bad.write_text(json.dumps({"constant_term": 0, "x": good["x"], "y": [[1, 4], [4, 10]]}))
    with pytest.raises(InputError, match=re.escape(f"{bad}: a variable map in the old format, "
                                                   "gaps as two lists under y; re-run emit-lp")):
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
