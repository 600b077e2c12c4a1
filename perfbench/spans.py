"""Span recorder for the traced run.

The recorder replaces library functions with timing wrappers at every
module attribute a caller looks them up through (``spaces.sssp`` as well
as ``isg.sssp``), so nothing under ``src/`` changes. Each span carries its
name, the attribute it was called through, start and end times, its parent
span and the instance being processed, plus the sizes read off the call's
arguments and result. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from tousched import datagen, isg, model, modelgen, solver, spaces

_UNREACHABLE = int(spaces._UNREACHABLE)


def _graph_sizes(args, kwargs, g):
    return {"vertices": len(g.vertices), "edges": len(g.edges)}


def _finite_pairs(table) -> np.ndarray:
    upper = np.triu(np.ones(table.phi_matrix.shape, dtype=bool), k=1)
    upper[0, :] = False
    return upper & (table.phi_matrix < _UNREACHABLE)


def _phi_sizes(args, kwargs, table):
    return {"phi_cells": int(_finite_pairs(table).sum())}


def _pruning_sizes(args, kwargs, table):
    finite = _finite_pairs(table)
    return {"pruned_pairs": int(table.pruned_mask.sum()),
            "finite_pairs": int(finite.sum()),
            "unpruned_finite": int((finite & ~table.pruned_mask).sum())}


def _npz_size(args, kwargs, path):
    return {"npz_bytes": os.path.getsize(path)}


def _solve_sizes(args, kwargs, result):
    return {"memo_states": result.stats.states}


def _lp_sizes(args, kwargs, art):
    inst = args[0]
    h = inst.horizon
    terms = 0  # covering-row entries, the h^3 driver of the export
    for meta in art.varmap.values():
        if meta["kind"] == "x":
            first, last = meta["i"], meta["i"] + inst.jobs[meta["j"] - 1] - 1
        else:
            first, last = meta["i"] + 1, meta["ip"] - 1
        terms += max(0, min(h - 1, last) - max(2, first) + 1)
    return {"lp_vars": len(art.varmap), "cover_terms": terms, "lp_bytes": len(art.lp_text)}


# (span name, modules whose attribute is wrapped, size reader)
WRAPPED = [
    ("datagen.generate_family", [datagen], None),
    ("isg.build_graph", [isg, spaces, solver], _graph_sizes),
    ("isg.proc_window", [isg, spaces], None),
    ("isg.sssp", [isg, spaces], None),
    ("spaces.compute_spaces", [spaces, solver], _phi_sizes),
    ("spaces.apply_pruning", [spaces], _pruning_sizes),
    ("spaces.save_table", [spaces], _npz_size),
    ("spaces.load_table", [spaces], None),
    ("spaces.switching_path", [spaces], None),
    ("spaces.expand_space", [spaces, solver], None),
    ("solver.solve_exact", [solver], _solve_sizes),
    ("solver.assemble_schedule", [solver, modelgen], None),
    ("model.validate_schedule", [model, solver, modelgen], None),
    ("model.compute_tec", [model, solver, modelgen], None),
    ("modelgen.emit_ilp_spaces", [modelgen], _lp_sizes),
    ("modelgen.write_artifact", [modelgen], None),
    ("modelgen.parse_solution_text", [modelgen], None),
    ("modelgen.import_solution", [modelgen], None),
]


class Tracer:
    """Collects spans while installed; ``instance`` tags the spans that
    follow with the pool key of the instance being processed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, site: str, fn, sizes):
        def traced(*args, **kwargs):
            span = {"name": name, "site": site, "instance": self.instance,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": 0.0, "end": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if sizes is not None:
                span["counts"] = sizes(args, kwargs, result)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        for name, modules, sizes in WRAPPED:
            attr = name.split(".", 1)[1]
            for mod in modules:
                fn = getattr(mod, attr)
                site = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, site, fn, sizes))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def layer_metrics(spans: list[dict], n_instances: int) -> dict[str, float]:
    """Per-layer figures from the spans of the traced passes.

    Times and call counts are per-instance means (totals over the traced
    instances divided by their number), so self times add up to the
    instance's wall time; sizes are means per call; ratios are taken over
    run totals. Generation is timed over the one traced set-up round.
    """
    per = max(n_instances, 1)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    sssp_in_path = 0
    gaps_assembled = 0
    for k, s in enumerate(spans):
        if s["instance"] is None and not s["name"].startswith("datagen."):
            continue  # warm-up work during set-up
        name = s["name"]
        dur = s["end"] - s["start"]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[k]
        calls[name] = calls.get(name, 0) + 1
        for key, val in s.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + val
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        if name == "isg.sssp" and parent == "spaces.switching_path":
            sssp_in_path += 1
        if name == "spaces.expand_space" and parent == "solver.assemble_schedule":
            gaps_assembled += 1

    def t(name):
        return total.get(name, 0.0) / per

    def mean_size(key, name):
        return counts.get(key, 0) / calls[name] if calls.get(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = self_time.get("solver.solve_exact", 0.0)
    return {
        "isg.build_graph_s": t("isg.build_graph"),
        "isg.graph_vertices": mean_size("vertices", "isg.build_graph"),
        "isg.graph_edges": mean_size("edges", "isg.build_graph"),
        "isg.proc_window_s": t("isg.proc_window"),
        "isg.sssp_calls": calls.get("isg.sssp", 0) / per,
        "isg.sssp_s": t("isg.sssp"),
        "spaces.compute_spaces_s": self_time.get("spaces.compute_spaces", 0.0) / per,
        "spaces.phi_cells": mean_size("phi_cells", "spaces.compute_spaces"),
        "spaces.apply_pruning_s": t("spaces.apply_pruning"),
        "spaces.pruned_pairs": mean_size("pruned_pairs", "spaces.apply_pruning"),
        "spaces.unpruned_frac": ratio(counts.get("unpruned_finite", 0),
                                      counts.get("finite_pairs", 0)),
        "spaces.save_table_s": t("spaces.save_table"),
        "spaces.load_table_s": t("spaces.load_table"),
        "spaces.npz_bytes": mean_size("npz_bytes", "spaces.save_table"),
        "spaces.expand_space_calls": calls.get("spaces.expand_space", 0) / per,
        "spaces.expand_space_s": t("spaces.expand_space"),
        "spaces.sssp_per_path": ratio(sssp_in_path, calls.get("spaces.switching_path", 0)),
        "solver.solve_exact_s": t("solver.solve_exact"),
        "solver.search_s": search_s / per,
        "solver.memo_states": counts.get("memo_states", 0) / per,
        "solver.states_per_s": ratio(counts.get("memo_states", 0), search_s),
        "solver.assemble_schedule_s": t("solver.assemble_schedule"),
        "solver.gaps_assembled": gaps_assembled / per,
        "model.validate_schedule_s": t("model.validate_schedule"),
        "model.compute_tec_s": t("model.compute_tec"),
        "modelgen.emit_ilp_spaces_s": t("modelgen.emit_ilp_spaces"),
        "modelgen.lp_vars": mean_size("lp_vars", "modelgen.emit_ilp_spaces"),
        "modelgen.cover_terms": mean_size("cover_terms", "modelgen.emit_ilp_spaces"),
        "modelgen.lp_bytes": mean_size("lp_bytes", "modelgen.emit_ilp_spaces"),
        "modelgen.write_artifact_s": t("modelgen.write_artifact"),
        "modelgen.parse_solution_text_s": t("modelgen.parse_solution_text"),
        "modelgen.import_solution_s": self_time.get("modelgen.import_solution", 0.0) / per,
        "datagen.generate_s": total.get("datagen.generate_family", 0.0),
    }
