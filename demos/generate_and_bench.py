"""
Reproducible benchmark families and a small solve loop
======================================================

The generator draws processing times and interval prices from a fixed
64-bit stream, so the same seed always yields byte-identical instances.
A family holds four horizons over shared draws: tighter and looser
versions of the same workload.
"""

import time

from tousched import (
    apply_pruning,
    build_graph,
    compute_spaces,
    generate_family,
    preset_nosby,
    preset_twosby,
    solve_exact,
)

# four instances, 12 jobs each, horizons scaling with total work
family = generate_family(12, preset_nosby(), seed=2024)
print("jobs:", family[0].jobs)
print("horizons:", [inst.horizon for inst in family])

# shorter horizons are strict prefixes of the longest cost vector
longest = family[-1].costs
assert all(inst.costs == longest[:inst.horizon] for inst in family)

print()
print(f"{'h':>5} {'TEC':>6} {'states':>8} {'seconds':>8}")
for inst in family:
    table = apply_pruning(compute_spaces(inst, build_graph(inst)), inst)
    t0 = time.perf_counter()
    res = solve_exact(inst, table)
    dt = time.perf_counter() - t0
    print(f"{inst.horizon:>5} {res.tec:>6} {res.stats.states:>8} {dt:>8.3f}")

# the same machinery scales to the four-state machine with two standby
# modes; pre-processing stays fast even on a four-digit horizon
big = generate_family(190, preset_twosby(), seed=10)[-1]
t0 = time.perf_counter()
table = compute_spaces(big, build_graph(big))
dt = time.perf_counter() - t0
print()
print(f"twosby h={big.horizon}: bridging table in {dt:.2f}s, "
      f"window {table.window}")
