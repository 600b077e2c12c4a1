"""Self-test of the benchmark, on the worked example (h=16).

    python3 perfbench/selftest.py

Checks that a run prints every end-to-end and per-layer metric with its
unit and ends with the result line BENCHMARK.json's format asks for; that a wrong
reference optimum is counted as a failure rather than raised; that the
export memory guard refuses a long horizon before exporting anything; and
that a directory holding only BENCHMARK.json and perfbench/ makes the run
exit non-zero without a result. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_cli(trace: int) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "example", "--seed", "3", "--seconds", "0.3",
                         "--trace", str(trace)])
    check(code == 0, f"--trace {trace}: exit code 0")
    return buf.getvalue().splitlines()


def printed_with_unit(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[2:] for line in lines)


def main() -> int:
    run.bootstrap()
    import workloads
    from tousched import datagen

    e2e_names, layer_names = run.gated_names()

    lines = run_cli(0)
    for name, unit, _better in run.E2E:
        check(printed_with_unit(lines, name, unit), f"end-to-end {name} printed in {unit}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "worked example passes every gate")
    check(list(result["metrics"]) == [n for n, _u in e2e_names], "result carries the gated metrics")

    lines = run_cli(1)
    for name, unit in layer_names:
        check(printed_with_unit(lines, name, unit), f"per-layer {name} printed in {unit}")
    result = json.loads(lines[-1])
    check(list(result["metrics"]) == [n for n, _u in layer_names], "traced result carries per-layer")

    with contextlib.redirect_stderr(io.StringIO()):
        report = run.measure("example", 5, 0.2, False, refs={"example": {"tec": 178}})
    fail_frac = report["e2e"]["fail_frac"]["value"]
    check(report["failed"] == report["attempted"] >= 1 and fail_frac == 1.0,
          "a wrong reference optimum counts in fail_frac")

    long_inst = datagen.generate_instance(190, datagen.preset_twosby(), 2.2, 19001)
    item = workloads.Item(key="guard", inst=long_inst, ref={}, rng_seed=0)
    try:
        workloads.run_lp(item, run.OUT_DIR)
        check(False, "export memory guard refuses h > lp_max_horizon")
    except workloads.GateError:
        check(True, f"export memory guard refuses h={long_inst.horizon}")

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "a checkout without the library exits non-zero and prints no result")

    print("selftest:", "ok" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
