"""Command line front end tying the pipeline together.

Exit codes: 0 success, 1 infeasible or failed validation, 2 bad input: a file
that cannot be read, decoded, parsed or written, data it rejects, or an
instance whose tables do not fit in memory.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import datagen, isg, model, modelgen, solver, spaces


@dataclass
class BenchRecord:
    """One benchmark row: best cost found (ub), proved lower bound (lb),
    wall seconds and the optimality gap percentage."""

    instance: str
    n: int
    h: int
    ub: int | None
    lb: int | None
    t: float
    gap: float | None

    def row(self) -> list[str]:
        fmt = lambda v: "" if v is None else str(v)
        gap = "" if self.gap is None else f"{self.gap:.2f}"
        return [self.instance, str(self.n), str(self.h), fmt(self.ub), fmt(self.lb),
                f"{self.t:.3f}", gap]


def _resolve_preset(name: str) -> datagen.MachinePreset:
    if name == "nosby":
        return datagen.preset_nosby()
    if name == "twosby":
        return datagen.preset_twosby()
    path = Path(name)
    if path.exists():
        return datagen.load_custom_preset(path)
    raise model.InputError(f"unknown preset {name!r} (expected nosby, twosby or a "
                           f"machine JSON file)")


def _load_instance(args, path) -> model.Instance:
    """The instance at path; its horizon goes on args for main's
    out-of-memory message."""
    inst = model.load_instance(path)
    args.horizon = inst.horizon
    return inst


def _table_for(inst: model.Instance, phi_path: str | None) -> spaces.SpacesTable:
    """The instance's phi table, computed, or loaded from phi_path and
    refused unless it equals the computed one: the solver's root and
    trailing gaps and bounds and every gap of the LP export are priced
    from phi, so a loaded table must be the instance's own."""
    g = isg.build_graph(inst)
    if not phi_path:
        return spaces.compute_spaces(inst, g)
    table = spaces.load_table(phi_path, inst, graph=g)
    own = spaces.compute_spaces(inst, g)
    if table.stored.dtype == own.stored.dtype:
        rows, cols = (table.stored != own.stored).nonzero()
    else:  # a file in a wider type than its values need
        rows, cols = (table.phi_matrix != own.phi_matrix).nonzero()
    if rows.size:
        raise model.InputError(f"{phi_path}: phi at ({rows[0]}, {cols[0]}) differs from the "
                               "switching cost of the instance; the table does not match "
                               "its instance")
    return table


def cmd_gen(args) -> int:
    preset = _resolve_preset(args.preset)
    if args.multiple is not None:
        insts = [datagen.generate_instance(args.jobs, preset, args.multiple, args.seed)]
    else:
        insts = datagen.generate_family(args.jobs, preset, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        name = datagen.instance_filename(preset.name, args.jobs, inst.horizon, args.seed)
        path = out_dir / name
        model.save_instance(inst, path)
        print(path)
    return 0


def cmd_preprocess(args) -> int:
    inst = _load_instance(args, args.instance)
    g = isg.build_graph(inst)
    t0 = time.process_time()
    table = spaces.compute_spaces(inst, g)
    t1 = time.process_time()
    out = spaces.save_table(table, args.out)
    t2 = time.process_time()
    defined = int((table.stored != table.mark).sum())
    print(f"window {table.window}, {defined} switching costs, "
          f"{int(table.pruned_mask.sum())} pruned, compute_spaces {1000 * (t1 - t0):.1f} ms, "
          f"save_table {1000 * (t2 - t1):.1f} ms CPU -> {out}")
    if args.dump_csv:
        spaces.write_phi_csv(table, args.dump_csv)
        print(args.dump_csv)
    if args.dump_dot:
        Path(args.dump_dot).write_text(isg.to_dot(g), encoding="utf-8")
        print(args.dump_dot)
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args, args.instance)
    result = solver.solve_exact(inst, _table_for(inst, args.phi), time_limit=args.time_limit)
    if result.status == "infeasible":
        print("infeasible: no schedule fits the processing window", file=sys.stderr)
        return 1
    if args.out:
        stats = {"status": result.status, "stop_reason": result.stats.stop_reason,
                 "certifier": result.stats.certifier, "counted": result.stats.counted,
                 "states": result.stats.states,
                 "wall_time": round(result.stats.wall_time, 6),
                 "lower_bound": result.stats.lower_bound}
        model.save_schedule(result.schedule, result.tec, args.out, stats=stats)
    print(f"TEC {result.tec}")
    if result.status == "timeout":
        limit = result.stats.stop_reason.replace("_", " ")
        print(f"{limit} reached; best bound {result.stats.lower_bound}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    inst = _load_instance(args, args.instance)
    sched, tec = model.load_schedule(args.schedule)
    problems = model.validate_schedule(inst, sched)
    if not problems and tec is not None:
        actual = model.compute_tec(inst, sched)
        if actual != tec:
            problems.append(model.Violation("tec", "schedule",
                                            f"file claims tec {tec}, recomputed {actual}"))
    if problems:
        for v in problems:
            print(v, file=sys.stderr)
        return 1
    print("valid")
    return 0


def cmd_emit_lp(args) -> int:
    inst = _load_instance(args, args.instance)
    table = _table_for(inst, args.phi)
    lp_path, map_path = modelgen.write_artifact(modelgen.emit_ilp_spaces(inst, table), args.out)
    print(lp_path)
    print(map_path)
    return 0


def cmd_import_solution(args) -> int:
    inst = _load_instance(args, args.instance)
    table = _table_for(inst, args.phi)
    artifact = modelgen.load_varmap(args.model_map)
    assignment = modelgen.parse_solution_text(model.read_text(args.solution))
    result = modelgen.import_solution(inst, table, artifact, assignment)
    if args.out:
        model.save_schedule(result.schedule, result.tec, args.out,
                            stats={"status": result.status})
    print(f"TEC {result.tec}")
    return 0


def cmd_bench(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        raise model.InputError(f"no instance files in {args.dir}")
    # line buffered, so each row reaches the file as soon as it is solved
    with open(args.out, "w", encoding="utf-8", newline="", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "n", "h", "ub", "lb", "t", "gap"])
        for path in paths:
            inst = _load_instance(args, path)
            t0 = time.monotonic()
            try:
                table = _table_for(inst, None)
            except model.InfeasibleError:
                result = solver.SolveResult(tec=None, schedule=None, status="infeasible")
            else:
                result = solver.solve_exact(inst, table, time_limit=args.time_limit)
            dt = time.monotonic() - t0
            if result.status == "infeasible":
                rec = BenchRecord(path.stem, inst.n_jobs, inst.horizon, None, None, dt, None)
            else:
                ub = result.tec
                lb = result.stats.lower_bound if result.stats.lower_bound is not None else ub
                gap = 0.0 if ub == 0 else max(0.0, min(100.0, (ub - lb) / ub * 100.0))
                rec = BenchRecord(path.stem, inst.n_jobs, inst.horizon, ub, lb, dt, gap)
            writer.writerow(rec.row())
            print(",".join(rec.row()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tousched",
                                     description="Single machine scheduling under "
                                                 "time-of-use tariffs with machine "
                                                 "power states.")
    sub = parser.add_subparsers(dest="command", required=True)
    time_limit_help = ("seconds (>= 0; inf for none). It only stops the search: a solve that "
                       "ends in time gives the untimed answer, one that does not its best "
                       "schedule and bound. Ties: the DP takes the lexicographically "
                       "smallest (start, length) pieces; a band of more than 2^14 cells "
                       "whose jobs fit a relaxation's blocks takes the fit's split: the "
                       "blocks shortest first, each with the longest jobs that still leave "
                       "a fill, each block's jobs by ascending length")

    p = sub.add_parser("gen", help="generate benchmark instances")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--preset", required=True,
                   help="nosby, twosby, or a machine JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multiple", type=str, default=None,
                   help="one horizon multiple, a positive decimal such as 1.6; "
                        "without it, all four canonical multiples")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("preprocess", help="compute the switching cost table")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True, help="table output (.npz)")
    p.add_argument("--dump-csv", default=None, help="also dump phi as CSV")
    p.add_argument("--dump-dot", default=None, help="also dump the graph as DOT")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("solve", help="find an optimal schedule")
    p.add_argument("--instance", required=True)
    p.add_argument("--phi", default=None, help="precomputed table (.npz)")
    p.add_argument("--time-limit", type=float, default=None, help=time_limit_help)
    p.add_argument("--out", default=None, help="schedule output (JSON)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("emit-lp", help="write the integer program")
    p.add_argument("--instance", required=True)
    p.add_argument("--phi", default=None)
    p.add_argument("--out", required=True,
                   help="LP file; its sidecar, the path plus .varmap.json, holds the columns "
                        "as JSON: x [j, first start, last start] per job, gaps [i, first ip, "
                        "last ip] per run of consecutive gap ends, and constant_term")
    p.set_defaults(func=cmd_emit_lp)

    p = sub.add_parser("import-solution", help="turn a solver dump into a schedule")
    p.add_argument("--instance", required=True)
    p.add_argument("--model-map", required=True,
                   help="the .varmap.json sidecar emit-lp wrote: x [j, first start, last "
                        "start] rows, gaps [i, first ip, last ip] runs and constant_term; "
                        "one in an older format exits 2")
    p.add_argument("--solution", required=True, help="name value lines")
    p.add_argument("--phi", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_import_solution)

    p = sub.add_parser("bench", help="solve a directory of instances to CSV")
    p.add_argument("--dir", required=True)
    p.add_argument("--time-limit", type=float, default=None,
                   help="per instance, " + time_limit_help)
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except model.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (model.InputError, OSError) as exc:  # OSError: a file could not be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # phi alone holds (h + 1)^2 values
        horizon = getattr(args, "horizon", None)
        print(f"error: out of memory{'' if horizon is None else f' at horizon {horizon}'}",
              file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
