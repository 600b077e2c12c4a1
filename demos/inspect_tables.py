"""
Looking inside the pre-processing artifacts
===========================================

The bridging table, the pruning map, and the interval-state graph can
all be dumped to plain files for inspection: CSV for the costs, DOT for
the graph, a compressed archive for reuse across runs.
"""

from pathlib import Path

import numpy as np

from tousched import (
    apply_pruning,
    apsp_oracle,
    build_graph,
    compute_spaces,
    generate_instance,
    load_table,
    preset_nosby,
    save_table,
    to_dot,
    write_phi_csv,
)

inst = generate_instance(4, preset_nosby(), "1.9", seed=11)
g = build_graph(inst)
table = apply_pruning(compute_spaces(inst, g), inst)
workdir = Path("inspect_tables_files")  # under the working directory, kept for a look
workdir.mkdir(exist_ok=True)

# 1. the graph as DOT text, ready for graphviz
dot_path = workdir / "graph.dot"
dot_path.write_text(to_dot(g))
print("graph dump:", dot_path, f"({len(g.vertices)} vertices)")

# 2. every defined bridging cost as CSV
csv_path = workdir / "phi.csv"
write_phi_csv(table, csv_path)
rows = csv_path.read_text().splitlines()
print("cost rows:", len(rows) - 1, "| first:", rows[1])

# 3. the pruning map: how many candidate gaps survive
total = sum(1 for i in range(1, inst.horizon)
            for ip in range(i + 1, inst.horizon + 1))
flagged = len(table.pruned_pairs())
print(f"gaps: {total} candidates, {flagged} flagged as useless")

# 4. the archive round trip, fingerprinted against the instance
npz_path = save_table(table, workdir / "table")
again = load_table(npz_path, inst)
assert np.array_equal(again.phi_matrix, table.phi_matrix)
print("archive round trip ok:", npz_path)

# 5. spot-check one bridging cost against the all-pairs oracle
oracle = apsp_oracle(g)
i, ip = table.window[0], table.window[0] + 3
want = oracle.get((i + 1, "proc"), (ip, "proc"))
print(f"phi({i}, {ip}) = {table.phi(i, ip)}, oracle says {want}")
assert table.phi(i, ip) == want
