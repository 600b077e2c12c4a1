"""
Exporting the schedule problem to an integer program and back
=============================================================

The emitter writes a plain LP-format file with binary placement
variables (x_j_i: job j's block starts at interval i) and gap variables
(y_i_ip: the machine bridges intervals i to ip). Any MILP solver can
consume it; a name-value dump of the optimum imports back into a
checked schedule.
"""

from pathlib import Path

from tousched import (
    apply_pruning,
    build_graph,
    compute_spaces,
    emit_ilp_spaces,
    generate_instance,
    import_solution,
    load_varmap,
    parse_solution_text,
    preset_nosby,
    solve_exact,
    validate_schedule,
    write_artifact,
)

inst = generate_instance(6, preset_nosby(), "1.6", seed=5)
table = apply_pruning(compute_spaces(inst, build_graph(inst)), inst)

artifact = emit_ilp_spaces(inst, table)
# the columns: one x per job and admissible start, one y per gap; both
# are stored as rows [j or i, first, last] of consecutive starts or ends
n_columns = sum(hi - lo + 1 for _a, lo, hi in artifact.x + artifact.gaps)
print(f"model: {n_columns} binary variables ({len(artifact.gaps)} runs of gaps), "
      f"constant term {artifact.constant_term}")
print("first lines:")
for line in artifact.lp_text.splitlines()[:4]:
    print("   ", line)

workdir = Path("lp_round_trip_files")  # under the working directory, kept for a look
workdir.mkdir(exist_ok=True)
lp_path, map_path = write_artifact(artifact, workdir / "model.lp")
print("wrote", lp_path)
print("wrote", map_path)

# normally an external solver produces this dump; here we cheat and ask
# the built-in exact solver, then write its answer in solver-dump form
exact = solve_exact(inst, table)
assignment_lines = []
blocks = sorted((start + 1, j) for j, start in enumerate(exact.schedule.sigma, 1))
prev_end = 1
for i, j in blocks:
    assignment_lines.append(f"x_{j}_{i} 1")
    if i > prev_end + 1 or prev_end == 1:
        assignment_lines.append(f"y_{prev_end}_{i} 1")
    prev_end = i + inst.jobs[j - 1] - 1
if prev_end < inst.horizon:
    assignment_lines.append(f"y_{prev_end}_{inst.horizon} 1")
sol_path = workdir / "solution.txt"
sol_path.write_text("\n".join(assignment_lines) + "\n")
print("solver dump:")
print("   ", " | ".join(assignment_lines))

# the import path: read the sidecar, parse the dump, rebuild the schedule
art_back = load_varmap(map_path)
values = parse_solution_text(sol_path.read_text())
imported = import_solution(inst, table, art_back, values)
print("imported TEC:", imported.tec, "| exact TEC:", exact.tec)
assert imported.tec == exact.tec
assert validate_schedule(inst, imported.schedule) == []
print("round trip closed")
