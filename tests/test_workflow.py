"""The CI workflow installs its dependencies from the network, so the
tests do not run it; these checks read it as text (PyYAML is not a test
dependency) and fail when a library or benchmark change leaves one of its
steps behind: every inline `python - <<'EOF'` script compiles and
imports only names the package has, and every `--workload` it passes is
one `perfbench/run.py` runs."""

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")


def inline_scripts(text):
    """{step name: source} of every `python - <<'EOF'` script in text."""
    lines = text.splitlines()
    scripts = {}
    step = None
    for k, line in enumerate(lines):
        if m := re.match(r"\s*- name: (.+)", line):
            step = m.group(1)
        if line.rstrip().endswith("python - <<'EOF'"):
            end = next(j for j in range(k + 1, len(lines)) if lines[j].strip() == "EOF")
            scripts[step] = textwrap.dedent("\n".join(lines[k + 1:end])) + "\n"
    return scripts


SCRIPTS = inline_scripts(WORKFLOW)


def test_every_inline_script_is_read():
    assert len(SCRIPTS) == WORKFLOW.count("<<'EOF'") > 0


@pytest.mark.parametrize("step", SCRIPTS)
def test_inline_script_compiles_and_imports_what_the_package_has(step):
    compile(SCRIPTS[step], step, "exec")
    tree = ast.parse(SCRIPTS[step])
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tousched":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{step}: {node.module} has no {', '.join(missing)}"
            imported += 1
    assert imported


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
