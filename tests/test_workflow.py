"""The CI workflow installs its dependencies from the network, so the
tests do not run it; this check reads it as text (PyYAML is not a test
dependency) and fails when a benchmark change leaves one of its steps
behind: every `--workload` it passes is one `perfbench/run.py` runs.

python -O strips assert statements and the branches on __debug__, so a
package without either runs the same optimised, and the tier-1 tests
cover that run too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")


def test_every_workload_the_workflow_runs_is_a_benchmark_workload():
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    workloads = next(ast.literal_eval(node.value) for node in run.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WORKLOADS"])
    loops = dict(re.findall(r"for (\w+) in ([^;]+);", WORKFLOW))
    passed = []
    for value in re.findall(r"--workload (\S+)", WORKFLOW):
        passed += loops[value[1:]].split() if value.startswith("$") else [value]
    assert passed
    assert sorted(set(passed) - set(workloads)) == []


def test_the_package_holds_nothing_that_python_O_strips():
    modules = sorted((ROOT / "src" / "tousched").rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []
