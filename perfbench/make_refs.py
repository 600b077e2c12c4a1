"""Recompute the stored references in workloads.json.

    python3 perfbench/make_refs.py

Run from the root of a checkout. For every pool instance it stores the
horizon and:

- exact-small: the optimum from solve_exact, cross-checked against an
  independent MILP solve (scipy/HiGHS) when scipy is installed;
- timeout-gap: the MILP optimum where HiGHS proves one within
  HIGHS_LIMIT_S;
  instances it cannot close keep only the run-time check lb <= ub;
- long-horizon: the sha256 digest of phi_matrix and pruned_mask.

The MILP is the aggregated form of the exported ILP: one variable per
(processing time, start) with a count row per processing time in place of
one assignment row per job, the same covering rows and the same gap
variables. Equal-length jobs are interchangeable, so the optimum is the
same and the model is n/|P| times smaller.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# The covering rows hold about h^3/6 entries; above this horizon the MILP
# is too large to build and solve here.
MILP_MAX_H = 250
# Seconds HiGHS may spend on one instance. It decides which timeout-gap
# members get a stored optimum.
HIGHS_LIMIT_S = 120.0


def milp_optimum(inst, table) -> int | None:
    """Proved optimal TEC of the aggregated MILP, or None (no scipy, or
    not proved within the limit)."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_matrix
    except ImportError:
        return None
    h = inst.horizon
    t_on, t_off = table.window
    proc, off = inst.state_set.proc_state, inst.state_set.off_state
    p_proc = inst.transitions.power(proc, proc)
    C = np.asarray(inst.cost_prefix, dtype=np.int64)
    counts = sorted(Counter(inst.jobs).items())

    if h > MILP_MAX_H:
        return None
    from tousched import spaces

    cost, rows, cols = [], [], []
    n_cover = h - 2  # rows 0..h-3 cover intervals 2..h-1, then one count row per p
    for r, (p, _c) in enumerate(counts):
        for i in range(t_on, t_off - p + 2):
            k = len(cost)
            cost.append(int(C[i + p - 1] - C[i - 1]) * p_proc)
            for iv in range(max(2, i), min(h - 1, i + p - 1) + 1):
                rows.append(iv - 2)
                cols.append(k)
            rows.append(n_cover + r)
            cols.append(k)

    idx = np.arange(h + 1)
    gap = ((table.phi_matrix < int(spaces._UNREACHABLE)) & ~table.pruned_mask
           & (idx[None, :] >= idx[:, None] + 2))
    gap[0, :] = False
    gi, gip = np.nonzero(gap)
    first = np.maximum(2, gi + 1)
    length = np.minimum(h - 1, gip - 1) - first + 1
    var = np.arange(len(cost), len(cost) + len(gi))
    offset = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
    rows = np.concatenate([np.asarray(rows, dtype=np.int64),
                           np.repeat(first - 2, length) + offset])
    cols = np.concatenate([np.asarray(cols, dtype=np.int64), np.repeat(var, length)])
    cost = np.concatenate([np.asarray(cost, dtype=float),
                           table.phi_matrix[gi, gip].astype(float)])

    n_rows = n_cover + len(counts)
    a = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_rows, len(cost))).tocsr()
    rhs = np.array([1] * n_cover + [c for _p, c in counts], dtype=float)
    res = milp(c=cost, constraints=LinearConstraint(a, rhs, rhs),
               integrality=np.ones(len(cost)), bounds=Bounds(0, 1),
               options={"time_limit": HIGHS_LIMIT_S})
    if res.status != 0:
        return None
    const = (inst.costs[0] + inst.costs[-1]) * inst.transitions.power(off, off)
    return int(round(res.fun)) + const


def main() -> int:
    run.bootstrap()
    import workloads
    from tousched import solver

    spec_path = workloads.HERE / "workloads.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        for name, wl in spec["workloads"].items():
            refs = {}
            for item in workloads.make_pool(name, 0, refs={}):
                inst = item.inst
                table = workloads.build_table(inst, Path(tmp))
                ref = {"h": inst.horizon}
                t0 = time.perf_counter()
                if name == "exact-small":
                    res = solver.solve_exact(inst, table)
                    if res.status != "optimal":
                        raise SystemExit(f"{item.key}: solve_exact ended {res.status}")
                    ref["tec"] = res.tec
                    opt = milp_optimum(inst, table)
                    if opt is not None and opt != res.tec:
                        raise SystemExit(f"{item.key}: solve_exact {res.tec}, MILP {opt}")
                elif name == "timeout-gap":
                    opt = milp_optimum(inst, table)
                    if opt is not None:
                        ref["opt"] = opt
                elif name == "long-horizon":
                    ref["digest"] = workloads.table_digest(table)
                elif name == "lp-roundtrip":
                    if inst.horizon > spec["lp_max_horizon"]:
                        raise SystemExit(f"{item.key}: h over the export memory guard")
                refs[item.key] = ref
                print(f"{name} {item.key} {ref} {time.perf_counter() - t0:.1f}s", flush=True)
            wl["references"] = dict(sorted(refs.items()))
    spec["environment"] = run.environment()
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
