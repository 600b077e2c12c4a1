"""Run one workload of the tousched benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 20 --trace 0

Workloads: exact-small, timeout-gap, long-horizon, lp-roundtrip (see
README.md); "all" runs the four one after another, each in its own
process; "example" is the worked example through every stage, for the
self-test. Run from the root of a checkout: the library is imported from
its src/ directory.

The run sets up (imports, instance generation, warm-up) several times,
then processes the workload's whole instance pool in passes, closed loop
and single-threaded, for about --seconds. It prints every end-to-end
metric with its unit, better direction and sample count, writes a JSON
report to perfbench/out/ and ends with one JSON line: the end-to-end
metrics, or with --trace 1 the per-layer metrics of a traced second half
of the run (spans are written to perfbench/out/ too).

Exit status: 0 when the run completed, whether or not outputs failed
their checks (failures are counted in the result); 2 on bad arguments or
a checkout without the library sources.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("exact-small", "timeout-gap", "long-horizon", "lp-roundtrip")
# setup_s is the median CPU time of a library import in a fresh interpreter
# plus the median CPU time of a set-up round. Over eight runs of 15 imports
# each, the median import spread by 0.07-0.09 in CPU time and by 0.47-0.62
# in wall time (quartile distance over median). Scaling it by the speed
# probe below made it worse: the probe does not follow import time, which is
# mostly reading and executing numpy's modules. The run's own import is not
# a sample: the standard modules it shares with the library are already
# loaded by then, so it runs faster than a fresh one.
SETUP_ROUNDS = 5
IMPORT_SAMPLES = 16
# One thread per process, children included: numpy's BLAS pool would
# otherwise start one per core, and its start-up spins count as CPU time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The shared 2-core machine this was built on changes speed by up to 2-3x over
# minutes, with other tenants' load; raw timings then spread far beyond any
# usable regression bound. The gated timings are therefore also reported in
# reference seconds (ref-s): the CPU seconds of this single-threaded process,
# which leave out the time other tenants hold the core, scaled by CAL_REF_S
# over the median CPU time of the speed probe `calibrate` run after every
# instance of the passes, which follows slower cores. One probe varies by
# about +-15% from the next, so one median for the passes scales far more
# steadily than the probes next to each instance. One ref-s is one second on
# a machine that runs the probe in CAL_REF_S CPU seconds.
CAL_REF_S = 0.010
PROBES_MAX = 5

# Every end-to-end metric: name, unit, better direction. BENCHMARK.json
# gates the ones that are defined and never 0 on every workload; stage
# timings, optimal_frac and gap_pct.mean read n/a where a workload lacks
# the stage.
E2E = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("solve_s.p50", "s", "lower"),
    ("solve_ref_s.p50", "ref-s", "lower"),
    ("solve_s.tail", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("instances_per_ref_s", "1/ref-s", "higher"),
    ("optimal_frac", "ratio", "higher"),
    ("gap_pct.mean", "%", "lower"),
    ("lb_ub_ratio.mean", "ratio", "higher"),
    ("table_s.p50", "s", "lower"),
    ("table_ref_s.p50", "ref-s", "lower"),
    ("assemble_s.p50", "s", "lower"),
    ("emit_s.p50", "s", "lower"),
    ("import_s.p50", "s", "lower"),
]
STAGES = ("solve_s", "table_s", "assemble_s", "emit_s", "import_s")


def bootstrap() -> None:
    """Put the checkout's src/ first on the path and import the library.
    Raises ImportError when src/ has no library."""
    src = ROOT / "src"
    if not (src / "tousched" / "__init__.py").is_file():
        raise ImportError(f"no tousched package under {src}")
    sys.path.insert(0, str(src))
    import tousched
    if Path(tousched.__file__).resolve().parent != (src / "tousched").resolve():
        raise ImportError(f"tousched was imported from {tousched.__file__}, not {src}")


def import_times() -> dict[str, list[float]]:
    """IMPORT_SAMPLES library import CPU times, each taken in a fresh
    interpreter, since a module imports only once per process. The set-up
    rounds add their CPU times to the same record."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
            "import tousched; print(time.process_time() - t)")
    setup: dict[str, list[float]] = {"import_s": [], "round_s": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=60)
        setup["import_s"].append(float(proc.stdout))
    return setup


def tail(values: list[float]) -> tuple[float | None, int | None]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and that percentile; None when there are ten or fewer."""
    n = len(values)
    if n <= 10:
        return None, None
    q = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(q * n / 100))
    return sorted(values)[rank - 1], q


def calibrate() -> float:
    """CPU seconds one fixed piece of work takes right now: interpreter work
    like the solver's and sssp's (dicts, heaps, tuples), a numpy pass and
    string building. The garbage collector is off meanwhile, so the
    library's live heap cannot slow the probe."""
    import numpy as np

    gc_on = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        d: dict[tuple[int, str], int] = {}
        heap: list[tuple[int, int]] = []
        for i in range(3000):
            d[(i, "s")] = i
            heapq.heappush(heap, ((i * 7919) % 3001, i))
        while heap:
            k, i = heapq.heappop(heap)
            d[(i, "s")] += k
        a = np.arange(200_000, dtype=np.int64)
        np.minimum(a, a[::-1], out=a)
        "".join(str(x) for x in range(20_000))
        return process_time() - t0
    finally:
        if gc_on:
            gc.enable()


def run_passes(items, run_one, workdir: Path, seconds: float, tracer=None) -> dict:
    """Process the whole pool pass after pass, stopping at the pass count
    whose end lies nearest to `seconds` (at least one pass). Speed probes
    run after every instance, one per started half second of it, at most
    PROBES_MAX. Stage times are kept in wall and in CPU seconds, and so is
    each solve's time spent running into its wall-clock limit."""
    samples: dict[str, list[float]] = {k: [] for k in STAGES}
    cpu: dict[str, list[float]] = {k: [] for k in STAGES}
    ops: list[tuple[float, float]] = []
    limits: list[tuple[float, float]] = []
    optimal: list[bool] = []
    gaps: list[float] = []
    ratios: list[float] = []
    probes: list[float] = []
    attempted = failed = passes = 0
    start = perf_counter()
    while True:
        for item in items:
            if tracer is not None:
                tracer.instance = item.key
            attempted += 1
            gc.collect()  # the previous instance's garbage is not this one's cost
            w0, c0 = perf_counter(), process_time()
            try:
                out = run_one(item, workdir)
            except Exception:  # one instance's failure must not end the run
                out = None
                failed += 1
                print(f"perfbench: {item.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            finally:
                if tracer is not None:
                    tracer.instance = None
            op = (perf_counter() - w0, process_time() - c0)
            probes += [calibrate() for _ in range(min(PROBES_MAX, 1 + int(op[0] / 0.5)))]
            if out is None:
                continue
            if out.problems:
                failed += 1
                print(f"perfbench: {item.key} failed checks: {out.problems[:3]}", file=sys.stderr)
            ops.append(op)
            limits.append(out.limit)
            for k, (wall, cpu_s) in out.times.items():
                samples[k].append(wall)
                cpu[k].append(cpu_s)
            if out.optimal is not None:
                optimal.append(out.optimal)
                gaps.append(out.gap)
                ratios.append(out.bound_ratio)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (2 * passes + 1) >= 2 * passes * seconds:
            break
    return {"samples": samples, "cpu": cpu, "ops": ops, "limits": limits, "optimal": optimal,
            "gaps": gaps, "ratios": ratios, "attempted": attempted, "failed": failed,
            "passes": passes, "elapsed": elapsed, "probes": probes}


def ref_seconds(res: dict) -> tuple[dict[str, list[float]], float]:
    """Every stage sample and the summed instance time in ref-s. A solve
    that ran into its time limit counts that solve at its wall time,
    unscaled, since the limit is wall time."""
    scale = CAL_REF_S / statistics.median(res["probes"])

    def ref(cpu_s: float, limit: tuple[float, float]) -> float:
        return (cpu_s - limit[1]) * scale + limit[0]

    scaled = {k: [c * scale for c in v] for k, v in res["cpu"].items()}
    scaled["solve_s"] = [ref(c, lim) for c, lim in zip(res["cpu"]["solve_s"], res["limits"])]
    return scaled, sum(ref(c, lim) for (_w, c), lim in zip(res["ops"], res["limits"]))


def e2e_metrics(res: dict, setup: dict[str, list[float]]) -> dict[str, dict]:
    """Value and sample count of every end-to-end metric; value None where
    the workload has no such stage. lb_ub_ratio.mean is 1.0 where no
    solver runs: there is no gap to report."""
    s = res["samples"]
    scaled, busy_ref_s = ref_seconds(res)
    busy_s = sum(w for w, _c in res["ops"])

    def p50(k, src=s):
        return statistics.median(src[k]) if src[k] else None

    tail_v, tail_q = tail(s["solve_s"])
    values = {
        "setup_s": (statistics.median(setup["import_s"]) + statistics.median(setup["round_s"]),
                    len(setup["round_s"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "fail_frac": (res["failed"] / res["attempted"], res["attempted"]),
        "solve_s.p50": (p50("solve_s"), len(s["solve_s"])),
        "solve_ref_s.p50": (p50("solve_s", scaled), len(s["solve_s"])),
        "solve_s.tail": (tail_v, len(s["solve_s"])),
        "instances_per_s": (len(s["solve_s"]) / busy_s if s["solve_s"] else None,
                            len(s["solve_s"])),
        "instances_per_ref_s": (len(s["solve_s"]) / busy_ref_s if s["solve_s"] else None,
                                len(s["solve_s"])),
        "optimal_frac": (statistics.fmean(res["optimal"]) if res["optimal"] else None,
                         len(res["optimal"])),
        "gap_pct.mean": (100 * statistics.fmean(res["gaps"]) if res["gaps"] else None,
                         len(res["gaps"])),
        "lb_ub_ratio.mean": (statistics.fmean(res["ratios"]) if res["ratios"] else 1.0,
                             len(res["ratios"])),
        "table_s.p50": (p50("table_s"), len(s["table_s"])),
        "table_ref_s.p50": (p50("table_s", scaled), len(s["table_s"])),
        "assemble_s.p50": (p50("assemble_s"), len(s["assemble_s"])),
        "emit_s.p50": (p50("emit_s"), len(s["emit_s"])),
        "import_s.p50": (p50("import_s"), len(s["import_s"])),
    }
    out = {}
    for name, unit, better in E2E:
        v, n = values[name]
        out[name] = {"value": v, "unit": unit, "better": better, "samples": n}
    out["solve_s.tail"]["percentile"] = tail_q
    return out


def print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    print(f"  {'metric':<32} {'value':>14} {'unit':<6} {'better':<7} samples")
    for name, m in metrics.items():
        v = m["value"]
        text = "n/a" if v is None else f"{v:.6g}"
        if m.get("percentile") is not None:
            text += f" (p{m['percentile']})"
        print(f"  {name:<32} {text:>14} {m['unit']:<6} {m.get('better', ''):<7} {m['samples']}")


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool, refs: dict | None = None,
            setup: dict[str, list[float]] | None = None) -> dict:
    """One benchmark run; returns the report."""
    import spans
    import workloads

    run_one = workloads.runner(workload)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if setup is None:
            setup = {"import_s": [0.0], "round_s": []}
        for _ in range(SETUP_ROUNDS):
            t0 = process_time()
            items = workloads.make_pool(workload, seed, refs)
            workloads.warm_up(workload, workdir)
            setup["round_s"].append(process_time() - t0)

        budget = seconds / 2 if trace else seconds
        res = run_passes(items, run_one, workdir, budget)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(), "instances": len(items),
                  "passes": res["passes"], "probe_ms": 1000 * statistics.median(res["probes"]),
                  "attempted": res["attempted"],
                  "failed": res["failed"], "setup": setup, "e2e": e2e_metrics(res, setup)}
        if not trace:
            return report

        with spans.Tracer() as tracer:
            items = workloads.make_pool(workload, seed, refs)
            workloads.warm_up(workload, workdir)
            traced = run_passes(items, run_one, workdir, budget, tracer)
    traced_e2e = e2e_metrics(traced, setup)
    n_traced = traced["attempted"] - traced["failed"]
    layers = spans.layer_metrics(tracer.spans, n_traced)
    traced_ref, untraced_ref = ref_seconds(traced)[0], ref_seconds(res)[0]
    for stage in STAGES:  # tracing overhead: traced minus untraced p50, in ref-s
        a, b = traced_ref[stage], untraced_ref[stage]
        layers[f"trace.{stage}_overhead"] = (statistics.median(a) - statistics.median(b)
                                             if a and b else 0.0)
    report.update(attempted=res["attempted"] + traced["attempted"],
                  failed=res["failed"] + traced["failed"], traced_passes=traced["passes"],
                  traced_instances=n_traced, traced_e2e=traced_e2e, layers=layers,
                  spans=tracer.spans)
    return report


def gated_names() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all", "example"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode for w in WORKLOADS]
        return max(codes)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        bootstrap()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    e2e_names, layer_names = gated_names()

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     setup=import_times())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = report.pop("spans", None)
    if spans_out is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans_out), encoding="utf-8")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print_table(f"perfbench {args.workload} seed={args.seed}: {report['instances']} instances, "
                f"{report['passes']} untraced passes, {report['failed']} of "
                f"{report['attempted']} failed, speed probe {report['probe_ms']:.2f} CPU ms "
                f"(1 ref-s = {CAL_REF_S * 1000:g} ms probe)", report["e2e"])
    if args.trace:
        rows = {k: {"value": report["layers"][k], "unit": u,
                    "samples": report["traced_instances"]} for k, u in layer_names}
        print_table("per-layer (traced passes; times and counts per instance)", rows)
        chosen = {k: {"value": r["value"], "unit": r["unit"]} for k, r in rows.items()}
    else:
        # the gated metrics are None only when no instance completed
        chosen = {k: {"value": report["e2e"][k]["value"] or 0.0, "unit": u}
                  for k, u in e2e_names}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
