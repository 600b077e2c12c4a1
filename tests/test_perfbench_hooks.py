"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps library
functions by module attribute and reads sizes off their arguments and
results. These checks fail when a library change removes or renames
what it relies on."""

import importlib
from pathlib import Path

from conftest import WORKED_TEC, worked_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_attribute(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    sites = [(mod, name.split(".", 1)[1]) for name, mods, _sizes in spans.WRAPPED
             for mod in mods]
    before = [getattr(mod, attr) for mod, attr in sites]

    inst = worked_instance()
    with spans.Tracer() as tracer:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(sites, before))
        tracer.instance = "worked"
        # the table path of the traced workloads, called through the
        # module attributes the tracer wraps
        g = spans.isg.build_graph(inst)
        table = spans.spaces.apply_pruning(spans.spaces.compute_spaces(inst, g), inst)
        path = spans.spaces.save_table(table, tmp_path / "table.npz")
        table = spans.spaces.load_table(path, inst, graph=g)
        assert spans.solver.solve_exact(inst, table).tec == WORKED_TEC
        spans.modelgen.emit_ilp_spaces(inst, table)

    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(sites, before))
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["spaces.phi_cells"] > 0 and metrics["spaces.pruned_pairs"] > 0
    assert metrics["isg.proc_window_s"] > 0 and metrics["solver.memo_states"] > 0
