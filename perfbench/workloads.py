"""The benchmark's workloads: instance pools, per-instance pipelines and
the correctness gates applied to every output.

Each workload draws on a fixed pool of generated instances, listed with
their stored references in ``workloads.json``. The run's seed orders the
pool, permutes every instance's job list (which changes no optimum) and,
where a workload places jobs itself, decides which gaps of the spread
placement get the spare intervals. The pool stays whole in every run so
that medians compare like with like across seeds.

Every library call goes through the module attribute (``spaces.sssp``,
not a name imported from it), so the traced run sees it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
import time
from pathlib import Path

from tousched import datagen, isg, model, modelgen, solver, spaces

HERE = Path(__file__).resolve().parent

PRESETS = {"nosby": datagen.preset_nosby, "twosby": datagen.preset_twosby}
MULTIPLES = [str(float(m)) for m in datagen.FAMILY_MULTIPLES]

# The worked example (h=16, optimum 177): the warm-up input of every
# workload and the whole pool of the self-test's "example" workload.
EXAMPLE_KEY = "example"
EXAMPLE_TEC = 177


@functools.cache
def spec() -> dict:
    """Pools, limits and references from workloads.json."""
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def example_instance() -> model.Instance:
    m = datagen.preset_nosby()
    return model.Instance(horizon=16, costs=(2, 1, 2, 1, 8, 16, 14, 3, 2, 5, 3, 10, 3, 2, 1, 2),
                          jobs=(2, 1, 2), state_set=m.state_set, transitions=m.transitions)


class GateError(Exception):
    """An output failed a correctness check."""


@dataclasses.dataclass
class Item:
    key: str  # preset/n/seed/multiple of the generated instance
    inst: model.Instance
    ref: dict
    rng_seed: int  # drives this item's seed-dependent placement


def family_key(fam: dict, multiple: str) -> str:
    return f"{fam['preset']}/{fam['n']}/{fam['seed']}/{multiple}"


def make_pool(workload: str, seed: int, refs: dict | None = None) -> list[Item]:
    """Generate the workload's instances and apply the seed's choices."""
    rng = random.Random(seed)
    if workload == EXAMPLE_KEY:
        insts = [(EXAMPLE_KEY, example_instance())]
    else:
        insts = []
        for fam in spec()["workloads"][workload]["families"]:
            members = datagen.generate_family(fam["n"], PRESETS[fam["preset"]](), fam["seed"])
            insts += [(family_key(fam, m), inst) for m, inst in zip(MULTIPLES, members)
                      if m in fam.get("multiples", MULTIPLES)]
    if refs is None:
        refs = spec()["workloads"].get(workload, {}).get("references",
                                                        {EXAMPLE_KEY: {"tec": EXAMPLE_TEC}})
    items = []
    for key, inst in insts:
        jobs = list(inst.jobs)
        rng.shuffle(jobs)
        items.append(Item(key=key, inst=dataclasses.replace(inst, jobs=tuple(jobs)),
                          ref=refs.get(key, {}), rng_seed=rng.getrandbits(32)))
    rng.shuffle(items)
    return items


def build_table(inst: model.Instance, workdir: Path) -> spaces.SpacesTable:
    """build_graph -> compute_spaces -> apply_pruning -> save -> load, the
    path a table takes from `tousched preprocess` to `tousched solve`."""
    g = isg.build_graph(inst)
    table = spaces.apply_pruning(spaces.compute_spaces(inst, g), inst)
    path = spaces.save_table(table, workdir / "table.npz")
    return spaces.load_table(path, inst, graph=g)


def check_schedule(inst: model.Instance, sched: model.Schedule | None, tec: int | None) -> list[str]:
    if sched is None:
        return ["no schedule returned"]
    problems = [str(v) for v in model.validate_schedule(inst, sched)]
    priced = model.compute_tec(inst, sched)
    if priced != tec:
        problems.append(f"compute_tec gives {priced}, reported tec is {tec}")
    return problems


def spread_placement(inst: model.Instance, window: tuple[int, int],
                     rng: random.Random) -> list[tuple[int, int]]:
    """Jobs in index order from t_on to t_off, the window's spare
    intervals shared evenly between the n-1 inner gaps; the seed picks
    which gaps take one interval more."""
    t_on, t_off = window
    n = inst.n_jobs
    slack = (t_off - t_on + 1) - sum(inst.jobs)
    if slack < 0:
        raise GateError(f"jobs do not fit in the window {window}")
    gaps = [0] * max(n - 1, 0)
    if gaps:
        base, extra = divmod(slack, n - 1)
        wide = set(rng.sample(range(n - 1), extra))
        gaps = [base + (k in wide) for k in range(n - 1)]
    placement = []
    at = t_on
    for j in range(1, n + 1):
        placement.append((j, at))
        at += inst.jobs[j - 1] + (gaps[j - 1] if j < n else 0)
    return placement


def placement_gaps(inst: model.Instance, placement) -> list[tuple[int, int]]:
    """(i, ip) of every gap with a non-empty body, boundary gaps included."""
    blocks = sorted((start, start + inst.jobs[j - 1] - 1) for j, start in placement)
    out = []
    prev_end = 1
    for start, end in blocks:
        if start > prev_end + 1:
            out.append((prev_end, start))
        prev_end = end
    out.append((prev_end, inst.horizon))
    return out


def price_placement(inst: model.Instance, table: spaces.SpacesTable, placement) -> int:
    """TEC of a placement from job costs and phi alone, independent of
    schedule assembly."""
    off = inst.state_set.off_state
    total = (inst.costs[0] + inst.costs[-1]) * inst.transitions.power(off, off)
    total += sum(model.job_cost(inst, j, i) for j, i in placement)
    for i, ip in placement_gaps(inst, placement):
        cost = table.phi(i, ip)
        if cost is None:
            raise GateError(f"placement uses gap ({i}, {ip}) with no switching")
        total += cost
    return total


def table_digest(table: spaces.SpacesTable) -> str:
    h = hashlib.sha256()
    h.update(table.phi_matrix.astype("<i8").tobytes())
    h.update(table.pruned_mask.astype("u1").tobytes())
    return h.hexdigest()


def clock() -> tuple[float, float]:
    """Wall and CPU seconds of this process now."""
    return time.perf_counter(), time.process_time()


def span(*marks: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds from each clock() mark to the next one, summed
    over the pairs (first, second), (third, fourth) and so on."""
    return (sum(b[0] - a[0] for a, b in zip(marks[::2], marks[1::2])),
            sum(b[1] - a[1] for a, b in zip(marks[::2], marks[1::2])))


def solution_dump(inst: model.Instance, placement) -> str:
    """A solver-style "name value" dump setting the placement's variables."""
    lines = [f"x_{j}_{i} 1" for j, i in placement]
    lines += [f"y_{i}_{ip} 1" for i, ip in placement_gaps(inst, placement)]
    return "\n".join(lines) + "\n"


@dataclasses.dataclass
class Outcome:
    """Stage timings (wall and CPU seconds) of one instance, its gate
    failures and, for solver workloads, whether it was proved optimal, its
    reported gap (ub - lb) / ub and its bound ratio lb / ub. `limit` is the
    part of solve_s spent in a solve that ran into its wall-clock time
    limit: machine speed does not scale it."""

    times: dict[str, tuple[float, float]]
    problems: list[str]
    optimal: bool | None = None
    gap: float | None = None
    bound_ratio: float | None = None
    limit: tuple[float, float] = (0.0, 0.0)


def run_solve(item: Item, workdir: Path, time_limit: float | None) -> Outcome:
    inst = item.inst
    t0 = clock()
    table = build_table(inst, workdir)
    t1 = clock()
    res = solver.solve_exact(inst, table, time_limit=time_limit)
    t_solved = clock()
    problems = check_schedule(inst, res.schedule, res.tec)
    t2 = clock()

    lb, ub = res.stats.lower_bound, res.tec
    if res.status not in ("optimal", "timeout") or lb is None or ub is None:
        return Outcome({"solve_s": span(t0, t2), "table_s": span(t0, t1)},
                       problems + [f"status {res.status}, tec {ub}, lower bound {lb}"])
    if lb > ub:
        problems.append(f"lower bound {lb} exceeds incumbent {ub}")
    if "tec" in item.ref:
        if res.status != "optimal" or ub != item.ref["tec"]:
            problems.append(f"{res.status} tec {ub}, reference optimum {item.ref['tec']}")
    if "opt" in item.ref and not lb <= item.ref["opt"] <= ub:
        problems.append(f"reference optimum {item.ref['opt']} outside [{lb}, {ub}]")
    return Outcome({"solve_s": span(t0, t2), "table_s": span(t0, t1)}, problems,
                   optimal=res.status == "optimal", gap=(ub - lb) / ub if ub else 0.0,
                   bound_ratio=lb / ub if ub else 1.0,
                   limit=span(t1, t_solved) if res.status == "timeout" else (0.0, 0.0))


def run_long(item: Item, workdir: Path) -> Outcome:
    inst = item.inst
    t0 = clock()
    table = build_table(inst, workdir)
    t1 = clock()
    placement = spread_placement(inst, table.window, random.Random(item.rng_seed))
    sched = solver.assemble_schedule(inst, placement, table)
    problems = [str(v) for v in model.validate_schedule(inst, sched)]
    tec = model.compute_tec(inst, sched)
    t2 = clock()

    if "digest" in item.ref and table_digest(table) != item.ref["digest"]:
        problems.append("phi/pruning digest differs from the stored reference")
    priced = price_placement(inst, table, placement)
    if tec != priced:
        problems.append(f"assembled schedule costs {tec}, the placement prices at {priced}")
    return Outcome({"solve_s": span(t0, t2), "table_s": span(t0, t1),
                    "assemble_s": span(t1, t2)}, problems)


def run_lp(item: Item, workdir: Path) -> Outcome:
    inst = item.inst
    guard = spec()["lp_max_horizon"]
    if inst.horizon > guard:
        # emit_ilp_spaces grows about as h^3 in time and memory
        raise GateError(f"h={inst.horizon} is over the export memory guard of {guard}")
    t0 = clock()
    table = build_table(inst, workdir)
    t1 = clock()
    art = modelgen.emit_ilp_spaces(inst, table)
    _lp_path, map_path = modelgen.write_artifact(art, workdir / "model.lp")
    del art
    t2 = clock()

    placement = spread_placement(inst, table.window, random.Random(item.rng_seed))
    dump = workdir / "solution.txt"
    dump.write_text(solution_dump(inst, placement), encoding="utf-8")

    # the read side gets a table with a cold path cache, as `tousched
    # import-solution` would after loading one
    table = spaces.load_table(workdir / "table.npz", inst, graph=table.graph)
    t3 = clock()
    loaded = modelgen.load_varmap(map_path)
    assignment = modelgen.parse_solution_text(dump.read_text(encoding="utf-8"))
    res = modelgen.import_solution(inst, table, loaded, assignment)
    problems = check_schedule(inst, res.schedule, res.tec)
    t4 = clock()

    priced = price_placement(inst, table, placement)
    if res.tec != priced:
        problems.append(f"imported tec {res.tec}, the placement prices at {priced}")
    return Outcome({"solve_s": span(t0, t2, t3, t4), "table_s": span(t0, t1),
                    "emit_s": span(t1, t2), "import_s": span(t3, t4)}, problems)


def run_example(item: Item, workdir: Path) -> Outcome:
    """Every stage on one tiny instance: the self-test's workload."""
    parts = [run_solve(item, workdir, None), run_long(item, workdir), run_lp(item, workdir)]
    times: dict[str, tuple[float, float]] = {}
    for part in parts:
        for k, (wall, cpu) in part.times.items():
            w0, c0 = times.get(k, (0.0, 0.0))
            times[k] = (w0 + wall, c0 + cpu)
    return Outcome(times, [p for part in parts for p in part.problems],
                   optimal=parts[0].optimal, gap=parts[0].gap,
                   bound_ratio=parts[0].bound_ratio)


def runner(workload: str):
    """The per-instance pipeline of a workload."""
    if workload == EXAMPLE_KEY:
        return run_example
    if workload == "long-horizon":
        return run_long
    if workload == "lp-roundtrip":
        return run_lp
    limit = spec()["workloads"][workload]["time_limit_s"]
    return lambda item, workdir: run_solve(item, workdir, limit)


def warm_up(workload: str, workdir: Path) -> None:
    """One pass of the workload's pipeline on the worked example, so lazy
    imports and first-call costs land in set-up, not in the first sample."""
    runner(workload)(make_pool(EXAMPLE_KEY, 0)[0], workdir)
