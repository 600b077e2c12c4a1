import json
import subprocess
import sys

import pytest

from tousched import load_schedule, save_instance, save_schedule, solver, validate_schedule
from tousched.cli import BenchRecord, main

from conftest import WORKED_SIGMA, WORKED_TEC, worked_instance


@pytest.fixture()
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    save_instance(worked_instance(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_family_writes_four_files(tmp_path, capsys):
    out = tmp_path / "insts"
    code, stdout, _ = run(capsys, "gen", "--jobs", "4", "--preset", "nosby",
                          "--seed", "42", "--family", "--out", str(out))
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

    code, stdout, _ = run(capsys, "solve", "--instance", worked_file,
                          "--phi", str(tab), "--method", "dp", "--out", str(sched))
    assert code == 0
    assert "TEC 177" in stdout

    back, tec = load_schedule(sched)
    assert tec == WORKED_TEC and back.sigma == WORKED_SIGMA

    code, stdout, _ = run(capsys, "validate", "--instance", worked_file,
                          "--schedule", str(sched))
    assert code == 0 and "valid" in stdout


def test_solve_without_phi_matches(capsys, worked_file):
    code1, out1, _ = run(capsys, "solve", "--instance", worked_file,
                         "--method", "dp")
    code2, out2, _ = run(capsys, "solve", "--instance", worked_file,
                         "--method", "bruteforce")
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0] == "TEC 177"


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
    sol.write_text("""x_1_10 1
x_2_4 1
x_3_13 1
y_1_4 1
y_4_10 1
y_11_13 1
y_14_16 1
""")
    sched = tmp_path / "imported.json"
    code, stdout, _ = run(capsys, "import-solution", "--instance", worked_file,
                          "--model-map", str(tmp_path / "model.lp.varmap.json"),
                          "--solution", str(sol), "--out", str(sched))
    assert code == 0
    assert "TEC 177" in stdout
    back, tec = load_schedule(sched)
    assert tec == WORKED_TEC
    assert validate_schedule(worked_instance(), back) == []


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


def test_bench_report(tmp_path, capsys):
    insts = tmp_path / "insts"
    run(capsys, "gen", "--jobs", "3", "--preset", "nosby", "--seed", "8",
        "--family", "--out", str(insts))
    csv = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", "--dir", str(insts),
                          "--method", "dp", "--out", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "instance,n,h,ub,lb,t,gap"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[1] == "3"
        assert fields[3] == fields[4]  # exact solves prove their own bound
        assert fields[6] == "0.00"


def test_bench_record_row_format():
    rec = BenchRecord(instance="x", n=3, h=20, ub=100, lb=90, t=0.5, gap=10.0)
    assert ",".join(rec.row()) == "x,3,20,100,90,0.500,10.00"
    hole = BenchRecord(instance="y", n=1, h=8, ub=None, lb=None, t=0.1, gap=None)
    assert ",".join(hole.row()) == "y,1,8,,,0.100,"


def test_missing_file_is_exit_2(capsys):
    code, _, stderr = run(capsys, "solve", "--instance", "/nonexistent.json")
    assert code == 2
    assert stderr.strip()


def test_truncated_phi_table_is_exit_2(tmp_path, capsys, worked_file):
    tab = tmp_path / "tab.npz"
    run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab))
    tab.write_bytes(tab.read_bytes()[:200])
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--phi", str(tab))
    assert code == 2
    assert str(tab) in stderr


def test_phi_table_missing_key_is_exit_2(tmp_path, capsys, worked_file):
    import numpy as np
    tab = tmp_path / "tab.npz"
    run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab))
    with np.load(tab) as doc:
        kept = {k: doc[k] for k in doc.files if k != "fingerprint"}
    np.savez(tab, **kept)
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--phi", str(tab))
    assert code == 2
    assert str(tab) in stderr and "fingerprint" in stderr


def test_phi_table_with_extra_pruned_gap_solves(tmp_path, capsys, worked_file):
    import numpy as np
    tab = tmp_path / "tab.npz"
    run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab))
    with np.load(tab) as doc:
        kept = {k: doc[k] for k in doc.files}
    kept["pruned"][4, 6] = True  # a gap the optimum does not use
    np.savez(tab, **kept)
    code, stdout, _ = run(capsys, "solve", "--instance", worked_file, "--phi", str(tab))
    assert code == 0
    assert "TEC 177" in stdout


def test_phi_table_with_the_optimum_gap_pruned_solves(tmp_path, capsys, worked_file):
    import numpy as np
    tab = tmp_path / "tab.npz"
    run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab))
    with np.load(tab) as doc:
        kept = {k: doc[k] for k in doc.files}
    kept["pruned"][4, 10] = True  # a gap the optimum uses
    np.savez(tab, **kept)
    code, stdout, _ = run(capsys, "solve", "--instance", worked_file, "--phi", str(tab))
    assert code == 0
    assert "TEC 177" in stdout


def test_phi_table_of_the_wrong_shape_is_exit_2(tmp_path, capsys, worked_file):
    import numpy as np
    tab = tmp_path / "tab.npz"
    run(capsys, "preprocess", "--instance", worked_file, "--out", str(tab))
    with np.load(tab) as doc:
        kept = {k: doc[k] for k in doc.files}
    kept["phi"] = kept["phi"][:10, :10]
    np.savez(tab, **kept)
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--phi", str(tab))
    assert code == 2
    assert str(tab) in stderr and "shape" in stderr


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
                          "--seed", "1", "--family", "--out", str(tmp_path / "x"))
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


def test_solve_out_records_the_stop_reason(tmp_path, capsys, worked_file):
    out = tmp_path / "sched.json"
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--out", str(out))
    assert code == 0 and stderr == ""
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["status"], stats["stop_reason"]) == ("optimal", "optimal")
    code, _, stderr = run(capsys, "solve", "--instance", worked_file, "--time-limit", "0.0",
                          "--out", str(out))
    assert code == 0 and "time limit reached" in stderr
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert (stats["status"], stats["stop_reason"]) == ("timeout", "time_limit")


def test_solve_names_the_cell_limit(tmp_path, capsys, worked_file, monkeypatch):
    monkeypatch.setattr(solver, "_DP_CELL_LIMIT", 1)
    out = tmp_path / "sched.json"
    code, stdout, stderr = run(capsys, "solve", "--instance", worked_file, "--out", str(out))
    assert code == 0 and stdout.startswith("TEC ")
    assert "cell limit reached" in stderr and "time limit" not in stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["stats"]["status"], doc["stats"]["stop_reason"]) == ("timeout", "cell_limit")
    assert doc["stats"]["lower_bound"] <= doc["tec"]
