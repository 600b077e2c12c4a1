import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tousched import (compute_spaces, load_schedule, save_instance, save_schedule, solver,
                      spaces, validate_schedule)
from tousched.cli import BenchRecord, main

from conftest import (NON_INTEGERS, WORKED_SIGMA, WORKED_TEC, ZERO_POWER_MACHINE, limit_draws,
                      plant_non_integer, worked_instance)


@pytest.fixture()
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    save_instance(worked_instance(), path)
    return str(path)


WORKED_SOLUTION = "x_1_10 1\nx_2_4 1\nx_3_13 1\ny_1_4 1\ny_4_10 1\ny_11_13 1\ny_14_16 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_family_writes_four_files(tmp_path, capsys):
    out = tmp_path / "insts"
    code, stdout, _ = run(capsys, "gen", "--jobs", "4", "--preset", "nosby",
                          "--seed", "42", "--out", str(out))
    assert code == 0
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == [
        "inst_nosby_4_24_42.json", "inst_nosby_4_28_42.json",
        "inst_nosby_4_33_42.json", "inst_nosby_4_37_42.json",
    ]
    for name in names:
        assert name in stdout


def test_gen_single_multiple(tmp_path, capsys):
    out = tmp_path / "one"
    code, stdout, _ = run(capsys, "gen", "--jobs", "4", "--preset", "twosby",
                          "--seed", "3", "--multiple", "1.6", "--out", str(out))
    assert code == 0
    assert len(list(out.glob("*.json"))) == 1


def test_pipeline_closure(tmp_path, capsys, worked_file):
    tab = tmp_path / "tab.npz"
    sched = tmp_path / "sched.json"

    code, stdout, _ = run(capsys, "preprocess", "--instance", worked_file,
                          "--out", str(tab))
    assert code == 0 and tab.exists()
    assert "window (4, 14)" in stdout

    code, stdout, _ = run(capsys, "solve", "--instance", worked_file, "--out", str(sched))
    assert code == 0
    assert "TEC 177" in stdout

    back, tec = load_schedule(sched)
    assert tec == WORKED_TEC and back.sigma == WORKED_SIGMA

    code, stdout, _ = run(capsys, "validate", "--instance", worked_file,
                          "--schedule", str(sched))
    assert code == 0 and "valid" in stdout


def test_preprocess_extras(tmp_path, capsys, worked_file):
    tab = tmp_path / "tab"  # suffix added automatically
    csv = tmp_path / "phi.csv"
    dot = tmp_path / "graph.dot"
    code, stdout, _ = run(capsys, "preprocess", "--instance", worked_file,
                          "--out", str(tab), "--dump-csv", str(csv),
                          "--dump-dot", str(dot))
    assert code == 0
    assert (tmp_path / "tab.npz").exists()
    assert "tab.npz" in stdout
    assert csv.read_text().startswith("i,ip,phi")
    assert dot.read_text().startswith("digraph")


def test_preprocess_prints_build_and_save_cpu_ms(tmp_path, capsys, worked_file):
    # the table's build and its write are timed apart, in CPU milliseconds
    code, stdout, _ = run(capsys, "preprocess", "--instance", worked_file,
                          "--out", str(tmp_path / "tab.npz"))
    assert code == 0
    assert re.search(r"compute_spaces \d+\.\d ms, save_table \d+\.\d ms CPU -> \S+tab\.npz$",
                     stdout.strip()), stdout


def test_validate_rejects_overlap(tmp_path, capsys, worked_file):
    inst = worked_instance()
    from tousched import Schedule
    from conftest import WORKED_OMEGA
    bad = tmp_path / "bad.json"
    save_schedule(Schedule((9, 9, 12), WORKED_OMEGA), WORKED_TEC, bad)
    code, _, stderr = run(capsys, "validate", "--instance", worked_file,
                          "--schedule", str(bad))
    assert code == 1
    assert "C1" in stderr


def test_validate_rejects_wrong_tec_claim(tmp_path, capsys, worked_file):
    from tousched import Schedule
    from conftest import WORKED_OMEGA
    bad = tmp_path / "claim.json"
    save_schedule(Schedule(WORKED_SIGMA, WORKED_OMEGA), WORKED_TEC + 5, bad)
    code, _, stderr = run(capsys, "validate", "--instance", worked_file,
                          "--schedule", str(bad))
    assert code == 1
    assert "177" in stderr


def test_emit_lp_and_import_solution(tmp_path, capsys, worked_file):
    lp = tmp_path / "model.lp"
    code, _, _ = run(capsys, "emit-lp", "--instance", worked_file,
                     "--out", str(lp))
    assert code == 0
    assert lp.exists() and (tmp_path / "model.lp.varmap.json").exists()
    assert "Minimize" in lp.read_text()

    sol = tmp_path / "sol.txt"
    sol.write_text(WORKED_SOLUTION)
    sched = tmp_path / "imported.json"
    code, stdout, _ = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(tmp_path / "model.lp.varmap.json"),
                          "--solution", str(sol), "--out", str(sched))
    assert code == 0
    assert "TEC 177" in stdout
    back, tec = load_schedule(sched)
    assert tec == WORKED_TEC
    assert validate_schedule(worked_instance(), back) == []


def test_emit_lp_has_no_prune_switch(tmp_path, capsys, worked_file):
    # the flags are sound, so the export always drops the flagged gaps
    with pytest.raises(SystemExit) as exc:
        main(["emit-lp", "--instance", worked_file, "--no-prune", "--out", str(tmp_path / "m.lp")])
    assert exc.value.code == 2
    assert "--no-prune" in capsys.readouterr().err


def test_import_solution_rejects_partial_cover(tmp_path, capsys, worked_file):
    lp = tmp_path / "model.lp"
    run(capsys, "emit-lp", "--instance", worked_file, "--out", str(lp))
    sol = tmp_path / "sol.txt"
    sol.write_text("x_1_10 1\nx_2_4 1\nx_3_13 1\n")
    code, _, stderr = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(tmp_path / "model.lp.varmap.json"),
                          "--solution", str(sol))
    assert code == 1
    assert stderr.strip()


def import_edited(tmp_path, capsys, worked_file, job_1=None, solution=WORKED_SOLUTION):
    """import-solution after emit-lp, with job 1's row of the sidecar's x,
    [1, 4, 13] as written, and the solution dump replaced by the given
    ones."""
    lp = tmp_path / "model.lp"
    run(capsys, "emit-lp", "--instance", worked_file, "--out", str(lp))
    map_path = tmp_path / "model.lp.varmap.json"
    if job_1 is not None:
        doc = json.loads(map_path.read_text())
        assert doc["x"][0] == [1, 4, 13]
        doc["x"][0] = job_1
        map_path.write_text(json.dumps(doc))
    sol = tmp_path / "sol.txt"
    sol.write_text(solution)
    code, _, stderr = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(map_path), "--solution", str(sol))
    return code, stderr, str(map_path)


# job 1's x row: too short, not a list, a string, the old format's object,
# a nested list, a bool
@pytest.mark.parametrize("entry", [[1, 4], 7, [1, 4, "13"], {"kind": "x", "j": 1, "i": 10},
                                   [[1], 4, 13], [True, 4, 13]])
def test_import_solution_with_a_bad_varmap_entry_is_exit_2(tmp_path, capsys, worked_file, entry):
    code, stderr, map_path = import_edited(tmp_path, capsys, worked_file, entry)
    assert code == 2
    assert map_path in stderr and "x must hold one [j, first start, last start]" in stderr


def test_import_solution_with_an_old_format_sidecar_is_exit_2(tmp_path, capsys, worked_file):
    map_path = tmp_path / "model.lp.varmap.json"
    map_path.write_text(json.dumps({"constant_term": 0, "variables": {
        "x_1_10": {"kind": "x", "j": 1, "i": 10}, "y_1_4": {"kind": "y", "i": 1, "ip": 4}}}))
    sol = tmp_path / "sol.txt"
    sol.write_text(WORKED_SOLUTION)
    code, _, stderr = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(map_path), "--solution", str(sol))
    assert code == 2
    assert str(map_path) in stderr and "old format" in stderr and "re-run emit-lp" in stderr


def test_import_solution_with_a_two_list_sidecar_is_exit_2(tmp_path, capsys, worked_file):
    # the gap columns as they were once stored: every gap's i and ip in two
    # lists under y, in place of the runs under gaps
    lp = tmp_path / "model.lp"
    run(capsys, "emit-lp", "--instance", worked_file, "--out", str(lp))
    map_path = tmp_path / "model.lp.varmap.json"
    doc = json.loads(map_path.read_text())
    pairs = [(i, ip) for i, lo, hi in doc.pop("gaps") for ip in range(lo, hi + 1)]
    doc["y"] = [[i for i, _ip in pairs], [ip for _i, ip in pairs]]
    map_path.write_text(json.dumps(doc))
    sol = tmp_path / "sol.txt"
    sol.write_text(WORKED_SOLUTION)
    code, _, stderr = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(map_path), "--solution", str(sol))
    assert code == 2
    assert str(map_path) in stderr and "old format" in stderr and "re-run emit-lp" in stderr


def test_import_solution_with_a_gap_over_a_job_is_exit_1(tmp_path, capsys, worked_file):
    # y_1_6 bridges intervals 2..5, which y_1_4 and job 2 at 4 already cover
    code, stderr, _ = import_edited(tmp_path, capsys, worked_file,
                                    solution=WORKED_SOLUTION + "y_1_6 1\n")
    assert code == 1
    assert "interval 2 labeled twice" in stderr


def test_import_solution_with_a_moved_job_in_the_sidecar_is_exit_1(tmp_path, capsys,
                                                                   worked_file):
    # job 1's starts widened to 1..13: job 1 at interval 1 overlaps the
    # leading off interval and y_1_4, and leaves 10 and 11 uncovered
    code, stderr, _ = import_edited(tmp_path, capsys, worked_file, [1, 1, 13],
                                    WORKED_SOLUTION.replace("x_1_10 1", "x_1_1 1"))
    assert code == 1
    assert "interval 1 labeled twice" in stderr


def test_import_solution_with_a_nan_value_is_exit_2(tmp_path, capsys, worked_file):
    solution = WORKED_SOLUTION.replace("x_1_10 1", "x_1_10 nan")
    code, stderr, _ = import_edited(tmp_path, capsys, worked_file, solution=solution)
    assert code == 2
    assert "non-integral" in stderr and "x_1_10" in stderr


def test_bench_report(tmp_path, capsys):
    insts = tmp_path / "insts"
    run(capsys, "gen", "--jobs", "3", "--preset", "nosby", "--seed", "8",
        "--out", str(insts))
    csv = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", "--dir", str(insts),
                          "--out", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "instance,n,h,ub,lb,t,gap"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[1] == "3"
        assert fields[3] == fields[4]  # exact solves prove their own bound
        assert fields[6] == "0.00"


def test_bench_writes_each_row_as_it_is_solved(tmp_path, capsys, monkeypatch):
    insts = tmp_path / "insts"
    run(capsys, "gen", "--jobs", "3", "--preset", "nosby", "--seed", "8", "--out", str(insts))
    report = tmp_path / "bench.csv"
    seen = []
    solve_exact = solver.solve_exact

    def spy(*args, **kwargs):
        seen.append(len(report.read_text().splitlines()))
        return solve_exact(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_exact", spy)
    code, _, _ = run(capsys, "bench", "--dir", str(insts), "--out", str(report))
    assert code == 0
    assert seen == [1, 2, 3, 4]  # the header, then one row per earlier solve
    assert len(report.read_text().splitlines()) == 5


def test_bench_into_a_directory_fails_before_solving(tmp_path, capsys):
    insts = tmp_path / "insts"
    run(capsys, "gen", "--jobs", "3", "--preset", "nosby", "--seed", "8", "--out", str(insts))
    code, stdout, stderr = run(capsys, "bench", "--dir", str(insts), "--out", str(insts))
    assert (code, stdout) == (2, "")
    assert str(insts) in stderr


@pytest.mark.parametrize("argv", [
    ["gen", "--jobs", "3", "--preset", "nosby", "--family", "--out", "{out}"],
    ["solve", "--instance", "{W}", "--method", "bruteforce"],
    ["bench", "--dir", "{dir}", "--method", "dp", "--out", "{out}"],
    ["solve", "--instance", "{W}", "--phi", "{out}"],
    ["emit-lp", "--instance", "{W}", "--phi", "{out}", "--out", "{out}"],
    ["import-solution", "--instance", "{W}", "--model-map", "{out}", "--solution", "{out}",
     "--phi", "{out}"],
])
def test_removed_switches_are_rejected(tmp_path, capsys, worked_file, argv):
    files = {"out": str(tmp_path / "out"), "W": worked_file, "dir": str(tmp_path)}
    flag = next(a for a in argv if a in ("--family", "--method", "--phi"))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_rejects_a_horizon_past_the_cost_limit_at_once(tmp_path, capsys):
    # every generated cost is at least 1, so this horizon could only give
    # an instance that validation rejects
    out = tmp_path / "x"
    code, stdout, stderr = run(capsys, "gen", "--jobs", "9", "--preset", "nosby",
                               "--multiple", "1e400", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "cost limit" in stderr
    assert not out.exists()


@pytest.mark.parametrize("jobs, machine, multiple", [
    ("30", "nosby", "1e15"),  # h about 8.6e16, below the cost limit
    ("3", "zero_power", "1e6"),  # no cost limit at all
    ("65537", "nosby", "1.3"),  # n jobs need a horizon above n
])
def test_gen_rejects_a_horizon_past_the_horizon_limit_at_once(tmp_path, capsys, monkeypatch,
                                                               jobs, machine, multiple):
    machine_file = tmp_path / "machine.json"
    machine_file.write_text(json.dumps(ZERO_POWER_MACHINE))
    preset = "nosby" if machine == "nosby" else str(machine_file)
    limit_draws(monkeypatch, 30)  # the job lengths at most, never a horizon's costs
    out = tmp_path / "x"
    code, stdout, stderr = run(capsys, "gen", "--jobs", jobs, "--preset", preset,
                               "--multiple", multiple, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "above the limit of 65536" in stderr
    assert not out.exists()


def test_bench_record_row_format():
    rec = BenchRecord(instance="x", n=3, h=20, ub=100, lb=90, t=0.5, gap=10.0)
    assert ",".join(rec.row()) == "x,3,20,100,90,0.500,10.00"
    hole = BenchRecord(instance="y", n=1, h=8, ub=None, lb=None, t=0.1, gap=None)
    assert ",".join(hole.row()) == "y,1,8,,,0.100,"


def test_missing_file_is_exit_2(capsys):
    code, _, stderr = run(capsys, "solve", "--instance", "/nonexistent.json")
    assert code == 2
    assert "/nonexistent.json" in stderr


def test_preprocess_and_import_solution_never_widen_phi(tmp_path, capsys, worked_file,
                                                       monkeypatch):
    # preprocess counts the defined cells and dumps them, and
    # import-solution prices its gaps, all in the stored type: neither
    # builds the int64 matrix
    lp = tmp_path / "model.lp"
    assert run(capsys, "emit-lp", "--instance", worked_file, "--out", str(lp))[0] == 0
    sol = tmp_path / "sol.txt"
    sol.write_text(WORKED_SOLUTION)

    def widen(table):
        raise AssertionError("phi widened to int64")

    monkeypatch.setattr(spaces.SpacesTable, "phi_matrix", property(widen))
    tab, csv = tmp_path / "tab.npz", tmp_path / "phi.csv"
    code, stdout, _ = run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab),
                          "--dump-csv", str(csv))
    defined = len(csv.read_text().splitlines()) - 1
    assert code == 0 and f"{defined} switching costs" in stdout
    code, stdout, _ = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(tmp_path / "model.lp.varmap.json"),
                          "--solution", str(sol))
    assert (code, stdout) == (0, f"TEC {WORKED_TEC}\n")


@pytest.mark.parametrize("command", ["preprocess", "solve"])
def test_out_of_memory_is_exit_2_naming_the_horizon(tmp_path, capsys, worked_file, monkeypatch,
                                                    command):
    # phi holds (h + 1)^2 values: a table too large for memory is one line
    # naming the horizon, not a traceback. No large table is allocated here
    def compute_spaces(inst, g):
        raise MemoryError

    monkeypatch.setattr(spaces, "compute_spaces", compute_spaces)
    argv = ["--out", str(tmp_path / "tab.npz")] if command == "preprocess" else []
    code, stdout, stderr = run(capsys, command, "--instance", worked_file, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == "error: out of memory at horizon 16\n"


def test_overflowing_costs_are_exit_2(tmp_path, capsys):
    import dataclasses
    inst = worked_instance()
    path = tmp_path / "huge.json"
    save_instance(dataclasses.replace(inst, costs=tuple(c << 54 for c in inst.costs)), path)
    code, _, stderr = run(capsys, "solve", "--instance", str(path))
    assert code == 2
    assert "costs" in stderr


def test_bad_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, stderr = run(capsys, "solve", "--instance", str(bad))
    assert code == 2
    assert str(bad) in stderr


@pytest.mark.parametrize("kind", NON_INTEGERS)
def test_non_integer_instance_numbers_are_exit_2_everywhere(tmp_path, capsys, worked_file, kind):
    doc = json.loads(Path(worked_file).read_text())
    field = plant_non_integer(doc, kind)
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    bad = bad_dir / "bad.json"
    bad.write_text(json.dumps(doc))
    run(capsys, "emit-lp", "--instance", worked_file, "--out", str(tmp_path / "m.lp"))
    (tmp_path / "sol.txt").write_text(WORKED_SOLUTION)
    out = str(tmp_path / "out")
    commands = [
        ["preprocess", "--instance", str(bad), "--out", out],
        ["solve", "--instance", str(bad)],
        ["validate", "--instance", str(bad), "--schedule", worked_file],
        ["emit-lp", "--instance", str(bad), "--out", out],
        ["import-solution", "--instance", str(bad), "--model-map",
         str(tmp_path / "m.lp.varmap.json"), "--solution", str(tmp_path / "sol.txt")],
        ["bench", "--dir", str(bad_dir), "--out", out],
    ]
    for argv in commands:
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert f"{field} must be an integer" in stderr, argv


def test_custom_preset_with_a_float_time_is_exit_2(tmp_path, capsys):
    preset = {"states": ["off", "proc"],
              "transitions": [{"from": "off", "to": "off", "time": 1, "power": 0},
                              {"from": "proc", "to": "proc", "time": 1, "power": 6},
                              {"from": "off", "to": "proc", "time": 1.5, "power": 8},
                              {"from": "proc", "to": "off", "time": 1, "power": 1}]}
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(preset))
    code, _, stderr = run(capsys, "gen", "--jobs", "3", "--preset", str(path),
                          "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "transition ('off', 'proc') time must be an integer, got 1.5" in stderr


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_solve_with_a_bad_time_limit_is_exit_2(capsys, worked_file, limit):
    code, stdout, stderr = run(capsys, "solve", "--instance", worked_file, "--time-limit", limit)
    assert (code, stdout) == (2, "")
    assert "time limit must be >= 0" in stderr


def test_bench_names_offending_file(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--jobs", "3", "--preset", "nosby",
                     "--seed", "5", "--multiple", "1.3", "--out", str(tmp_path))
    assert code == 0
    (tmp_path / "notes.json").write_text(json.dumps({"kind": "not an instance"}))
    code, _, stderr = run(capsys, "bench", "--dir", str(tmp_path),
                          "--out", str(tmp_path / "report.csv"))
    assert code == 2
    assert "notes.json" in stderr


def test_infeasible_instance_is_exit_1(tmp_path, capsys):
    inst = worked_instance()
    from tousched import Instance
    packed = Instance(10, inst.costs[:10], (4, 4, 4), inst.state_set,
                      inst.transitions)
    path = tmp_path / "packed.json"
    save_instance(packed, path)
    code, _, stderr = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert "infeasible" in stderr


def test_unknown_preset_is_exit_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "gen", "--jobs", "3", "--preset", "mystery",
                          "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 2


def test_console_entry_point(worked_file):
    proc = subprocess.run(
        [sys.executable, "-m", "tousched.cli", "solve", "--instance", worked_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "TEC 177" in proc.stdout


def test_solve_time_limit_note(tmp_path, capsys):
    insts = tmp_path / "insts"
    run(capsys, "gen", "--jobs", "14", "--preset", "nosby", "--seed", "4",
        "--multiple", "2.2", "--out", str(insts))
    inst_file = next(insts.glob("*.json"))
    code, stdout, stderr = run(capsys, "solve", "--instance", str(inst_file),
                               "--time-limit", "0.0")
    assert code == 0
    assert stdout.startswith("TEC ")
    assert "time limit" in stderr


def test_solve_out_records_the_stop_reason(tmp_path, capsys, worked_file, monkeypatch):
    out = tmp_path / "sched.json"
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--out", str(out))
    assert code == 0 and stderr == ""
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["status"], stats["stop_reason"]) == ("optimal", "optimal")
    assert stats["certifier"] == "dp" and "rounds" not in stats
    assert stats["counted"] == [1, 2]  # the exact DP counts every job length
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--time-limit", "0.0",
                          "--out", str(out))
    assert code == 0 and "time limit reached" in stderr
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["status"], stats["stop_reason"]) == ("timeout", "time_limit")
    assert (stats["certifier"], stats["counted"]) == (None, None)  # no step completed
    # a time limit picks no order: the worked band is small enough for the DP
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--time-limit", "60",
                          "--out", str(out))
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (code, stats["status"], stats["certifier"]) == (0, "optimal", "dp")
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--time-limit", "60",
                          "--out", str(out))
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (code, stats["status"], stats["certifier"]) == (0, "optimal", "fit")
    assert stats["counted"] == []  # the relaxation counts no length


def test_solve_out_records_the_elimination_rounds(tmp_path, capsys):
    # nosby/30/3001 at 1.3 has no fit: the relaxation gives 3022, and the
    # exact DP after it proves 3026.
    no_fit = gen_one(capsys, tmp_path / "insts", "nosby", 30, 3001, "1.3")
    out = tmp_path / "sched.json"
    code, stdout, stderr = run(capsys, "solve", "--instance", no_fit, "--time-limit", "60",
                               "--out", str(out))
    assert (code, stdout, stderr) == (0, "TEC 3026\n", "")
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["status"], stats["stop_reason"]) == ("optimal", "optimal")
    assert (stats["certifier"], stats["lower_bound"]) == ("dp", 3026)
    assert stats["counted"] == [1, 2, 3, 4, 5]


def test_solve_out_records_the_lengths_counted_for_the_bound(tmp_path, capsys):
    # nosby/45/4 at 1.6 does not fit the relaxed blocks (4277); counting
    # the jobs of length 1 gives 4281, and the jobs fit those blocks.
    inst_file = gen_one(capsys, tmp_path / "insts", "nosby", 45, 4, "1.6")
    out = tmp_path / "sched.json"
    code, stdout, stderr = run(capsys, "solve", "--instance", inst_file, "--out", str(out))
    assert (code, stdout, stderr) == (0, "TEC 4281\n", "")
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["certifier"], stats["counted"], stats["lower_bound"]) == ("fit", [1], 4281)


def gen_one(capsys, out, preset, jobs, seed, multiple):
    run(capsys, "gen", "--jobs", str(jobs), "--preset", preset, "--seed", str(seed),
        "--multiple", multiple, "--out", str(out))
    return str(next(out.glob("*.json")))


def test_solve_names_the_cell_limit(tmp_path, capsys, worked_file, monkeypatch):
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", 1)
    monkeypatch.setattr(solver, "_DP_ALONE_CELLS", 0)
    out = tmp_path / "sched.json"
    # nosby/30/3001 at 1.3 does not fit its relaxed blocks (3022, optimum 3026)
    no_fit = gen_one(capsys, tmp_path / "insts", "nosby", 30, 3001, "1.3")
    code, stdout, stderr = run(capsys, "solve", "--instance", no_fit, "--out", str(out))
    assert code == 0 and stdout.startswith("TEC ")
    assert "cell limit reached" in stderr and "time limit" not in stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["stats"]["status"], doc["stats"]["stop_reason"]) == ("timeout", "cell_limit")
    assert doc["stats"]["lower_bound"] <= doc["tec"]
    assert doc["stats"]["lower_bound"] == 3022
    assert (doc["stats"]["certifier"], doc["stats"]["counted"]) == (None, [])
    # the worked example fits: its relaxed value is the optimum
    code, stdout, stderr = run(capsys, "solve", "--instance", worked_file, "--out", str(out))
    assert (code, stdout, stderr) == (0, "TEC 177\n", "")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["stats"]["status"], doc["stats"]["stop_reason"]) == ("optimal", "optimal")
    assert doc["stats"]["lower_bound"] == doc["tec"] == WORKED_TEC
    assert doc["stats"]["certifier"] == "fit"
    assert tuple(doc["sigma"]) == WORKED_SIGMA


def test_solve_certifies_a_190_job_member(tmp_path, capsys):
    # The paper's scale: nosby/190/19002 at 1.6 (h=927). The jobs fit the
    # relaxed blocks, which proves 17051 optimal.
    inst_file = gen_one(capsys, tmp_path / "insts", "nosby", 190, 19002, "1.6")
    out = tmp_path / "sched.json"
    code, stdout, stderr = run(capsys, "solve", "--instance", inst_file, "--out", str(out))
    assert (code, stdout, stderr) == (0, "TEC 17051\n", "")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["stats"]["status"] == "optimal"
    assert doc["stats"]["lower_bound"] == doc["tec"] == 17051



NOT_UTF8 = b'{"horizon": 16, "note": "\xff\xfe"}'
A_DIR = "a directory"


def set_field(key, value, index=None):
    def edit(doc):
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
    return edit


# (command, bad input): the argv, in which {bad} is the offending path,
# and what that path holds: a directory, raw bytes, or a (source, edit)
# pair for an edited copy of a good file. None marks a bad option value.
# {W} is the worked instance, {sched} its optimal schedule, {sol} and
# {map} a solution dump and variable map for it; {out} is never written.
BAD_INPUTS = {
    "instance_is_a_dir": (["solve", "--instance", "{bad}"], A_DIR),
    "schedule_is_a_dir": (["validate", "--instance", "{W}", "--schedule", "{bad}"], A_DIR),
    "model_map_is_a_dir": (["import-solution", "--instance", "{W}", "--model-map", "{bad}",
                            "--solution", "{sol}"], A_DIR),
    "solution_is_a_dir": (["import-solution", "--instance", "{W}", "--model-map", "{map}",
                           "--solution", "{bad}"], A_DIR),
    "solve_out_is_a_dir": (["solve", "--instance", "{W}", "--out", "{bad}"], A_DIR),
    "emit_out_is_a_dir": (["emit-lp", "--instance", "{W}", "--out", "{bad}"], A_DIR),
    "gen_out_is_a_file": (["gen", "--jobs", "3", "--preset", "nosby", "--out", "{bad}"], b"{}"),
    "instance_not_utf8": (["solve", "--instance", "{bad}"], NOT_UTF8),
    "schedule_not_utf8": (["validate", "--instance", "{W}", "--schedule", "{bad}"], NOT_UTF8),
    "preset_not_utf8": (["gen", "--jobs", "3", "--preset", "{bad}", "--out", "{out}"], NOT_UTF8),
    "dump_not_utf8": (["import-solution", "--instance", "{W}", "--model-map", "{map}",
                       "--solution", "{bad}"], b"x_1_10 1\n\xff 1\n"),
    "preset_is_a_list": (["gen", "--jobs", "3", "--preset", "{bad}", "--out", "{out}"], b"[1]"),
    "preset_is_a_string": (["gen", "--jobs", "3", "--preset", "{bad}", "--out", "{out}"],
                           b'"abc"'),
    "sigma_is_a_float": (["validate", "--instance", "{W}", "--schedule", "{bad}"],
                         ("{sched}", set_field("sigma", 9.7, index=0))),
    "tec_is_a_float": (["validate", "--instance", "{W}", "--schedule", "{bad}"],
                       ("{sched}", set_field("tec", 177.9))),
    "tec_is_a_string": (["validate", "--instance", "{W}", "--schedule", "{bad}"],
                        ("{sched}", set_field("tec", "177"))),
    "validate_15_costs_for_h_16": (["validate", "--instance", "{bad}", "--schedule", "{sched}"],
                                   ("{W}", lambda doc: doc["costs"].pop())),
    "omega_label_is_a_string": (["validate", "--instance", "{W}", "--schedule", "{bad}"],
                                ("{sched}", lambda doc: doc["omega"].__setitem__(5, "xy"))),
    "omega_label_holds_numbers": (["validate", "--instance", "{W}", "--schedule", "{bad}"],
                                  ("{sched}", lambda doc: doc["omega"].__setitem__(5, [1, 2]))),
    "state_name_is_a_number": (["solve", "--instance", "{bad}"],
                               ("{W}", lambda doc: doc["transitions"][0].update({"from": 1}))),
    **{f"multiple_{m}": (["gen", "--jobs", "3", "--preset", "nosby", "--multiple", m,
                          "--out", "{out}"], None) for m in ["abc", "nan", "inf", "-1", "0"]},
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_exit_2_naming_it(tmp_path, capsys, worked_file, case):
    argv, content = BAD_INPUTS[case]
    files = {"W": worked_file, "bad": tmp_path / "bad.json", "out": tmp_path / "out",
             "sched": tmp_path / "sched.json", "sol": tmp_path / "sol.txt",
             "map": tmp_path / "m.lp.varmap.json"}
    run(capsys, "solve", "--instance", worked_file, "--out", str(files["sched"]))
    run(capsys, "emit-lp", "--instance", worked_file, "--out", str(tmp_path / "m.lp"))
    files["sol"].write_text(WORKED_SOLUTION)
    files = {k: str(v) for k, v in files.items()}
    bad = Path(files["bad"])
    if content == A_DIR:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        source, edit = content
        doc = json.loads(Path(source.format(**files)).read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
    argv = [a.format(**files) for a in argv]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, ""), stderr
    named = repr(argv[argv.index("--multiple") + 1]) if content is None else str(bad)
    assert named in stderr
    assert not Path(files["out"]).exists()
