"""Optimal switching costs for every gap between processing blocks.

phi(i, ip) is the cheapest energy cost of bridging the gap after interval i
up to interval ip: leaving proc after I_i and being back in proc at I_ip,
with the off boundary taking the place of proc when i = 1 or ip = h.

The table is a backward dynamic program over the interval axis that
serves every gap end at once: at each interval, from the last down, one
cost-to-go row per zero-time class covers all gap ends, and the row of
the class a gap starts in is that gap's row of phi, written whole. The
classes are the sets of states that reach each other by time-0
transitions and so hold one row once the instantaneous closure at an
interval is done; that closure is one pass over the classes joined in
one direction only, and positive-time steps between two classes with the
same time merge at their cheapest power. Step weights depend only on the
interval and the step, never on the gap end, so each step is one
vectorized add and minimum. A switching path is read off `isg`'s
single-source sweep (`isg.shortest_path`), stopped at the gap's end.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .isg import INF, IntervalStateGraph, build_graph, proc_window, shortest_path
from .isg import sssp  # noqa: F401  (perfbench's tracer wraps spaces.sssp)
from .model import InfeasibleError, InputError, Instance, StatePair, instance_to_dict

_UNREACHABLE = np.int64(INF) // 2  # values at or above this mean "no path"


@dataclass
class SpacesTable:
    """phi values over the graph they were computed on.

    phi_matrix[i, ip] holds phi(i, ip) for 1 <= i < ip <= h, with INF as
    the absent sentinel; row 0 and column 0 are padding so indices match
    the 1-based interval convention. The horizon, the window and the
    pruning flags derive from the graph's instance, which must have a window.
    """

    phi_matrix: np.ndarray
    graph: IntervalStateGraph

    def __post_init__(self) -> None:
        self.window  # raises InfeasibleError when there is no processing window

    @property
    def horizon(self) -> int:
        return self.graph.inst.horizon

    @cached_property
    def window(self) -> tuple[int, int]:
        return proc_window(self.graph)

    @cached_property
    def pruned_mask(self) -> np.ndarray:
        """Flags on the gaps that cannot appear in any feasible schedule.

        With window (t_on, t_off), the processing capacity left of a gap
        start i is i - t_on + 1 and right of a gap end ip is t_off - ip + 1;
        on a horizon boundary (i = 1 or ip = h) that side carries no
        processing and counts as 0. A gap is flagged when the longest job
        fits on neither side, or when the two sides together cannot hold
        the total processing time.

        Below column h, right falls as ip grows, so each test flags a
        suffix of every row: PC2 from t_off + 2 - sum(p) + left on, PC1
        (when the longest job does not fit left) from t_off + 2 - max(p)
        on, and the row is one comparison against the nearer cut, kept
        past the diagonal. In column h, right is 0 and both tests reduce
        to left < sum(p).
        """
        h = self.horizon
        t_on, t_off = self.window
        jobs = self.graph.inst.jobs
        max_p, sum_p = max(jobs), sum(jobs)

        idx = np.arange(h + 1, dtype=np.int64)
        left = idx - t_on + 1
        left[1] = 0
        pc1 = np.where(max_p > left, t_off + 2 - max_p, h + 1)
        cut = np.maximum(np.minimum(t_off + 2 - sum_p + left, pc1), idx + 1)
        cut[0] = h + 1
        mask = idx[None, :] >= cut[:, None]
        mask[:, h] = (left < sum_p) & (idx >= 1) & (idx < h)
        return mask

    def phi(self, i: int, ip: int) -> int | None:
        """Switching cost for the pair, or None when no switching exists."""
        if not 1 <= i < ip <= self.horizon:
            raise InputError(f"need 1 <= i < ip <= {self.horizon}, got ({i}, {ip})")
        v = self.phi_matrix[i, ip]
        return None if v >= _UNREACHABLE else int(v)

    def is_pruned(self, i: int, ip: int) -> bool:
        return bool(self.pruned_mask[i, ip])

    def pruned_pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(ip)) for i, ip in np.argwhere(self.pruned_mask)]


def _sweep_rows(g: IntervalStateGraph, phi: np.ndarray) -> None:
    """Fill phi rows 1..h-1 by one backward sweep, k = h down to 2. At
    interval k each zero-time class holds a cost-to-go row: the cheapest
    cost from that class at the start of interval k to the end of every
    gap ip >= k at once (proc at the start of ip, off for ip = h). The gap
    after interval k - 1 starts there, in proc (in off for k = 2), so that
    class's row is row k - 1 of phi.

    The classes and their merged steps are the graph's `class_plan`. Each
    row pulls the class's outgoing steps from the rows of later intervals
    (`ClassPlan.pull`). After the gap that ends at k is set to 0, the
    zero-time closure runs backward: a class takes the minimum of every
    class it reaches by time-0 chains, over the transitively closed
    pairs, so no ordering of the passes matters.

    Rows are never clamped. A column with no path holds INF plus the
    weight of a path, and no path weighs as much as COST_LIMIT = 2^61
    (`validate_instance` bounds the costs times every power), so each
    value stays below INF + 2^61 < 2^63. Row k - 1 of phi is written
    contiguously and clamped at INF."""
    h = g.horizon
    plan = g.class_plan
    off, proc = plan.off, plan.proc
    # ring[k % slots][c] holds class c's row at interval k in columns ip >= k;
    # a slot's columns below its interval are never written and stay INF
    ring = plan.ring(h + 1)
    scratch = np.empty(h + 1, dtype=np.int64)
    for k in range(h, 1, -1):
        cur = plan.pull(ring, k, slice(k, None), h, scratch[k:])
        cur[proc if k < h else off][0] = 0
        plan.close(cur)
        np.minimum(cur[off if k == 2 else proc], INF, out=phi[k - 1, k:])


def compute_spaces(inst: Instance, g: IntervalStateGraph) -> SpacesTable:
    """The full phi table; raises InfeasibleError without a processing window."""
    h = inst.horizon
    table = SpacesTable(np.empty((h + 1, h + 1), dtype=np.int64), g)
    phi = table.phi_matrix
    # The sweep writes row k - 1 from column k on. INF goes to rows 0 and
    # h and, in bands of 64 rows, up to each band's last diagonal cell, so
    # the (h + 1)^2 cells are not all written twice.
    phi[[0, h]] = INF
    for r in range(1, h, 64):
        phi[r:r + 64, :r + 64] = INF
    _sweep_rows(g, phi)
    return table


def switching_path(table: SpacesTable, i: int, ip: int) -> list[StatePair]:
    """A minimum-cost transition step sequence bridging the gap (i, ip).

    Steps are one entry per transition; instantaneous steps expand to no
    interval. Raises when the pair has no switching. The path is the one
    `isg.sssp` would give, walked back from the gap end's label of the
    same sweep.
    """
    cost = table.phi(i, ip)
    if cost is None:
        raise InfeasibleError(f"no switching exists for ({i}, {ip})")
    g = table.graph
    found = shortest_path(g, g.source_vertex(i), g.target_vertex(ip))
    if found is None or found[0] != cost:
        raise InputError(f"phi({i}, {ip}) = {cost} is not the cheapest switching cost of "
                         f"the gap: the table does not match its instance")
    return found[1]


def expand_space(table: SpacesTable, i: int, ip: int) -> list[StatePair]:
    """Per-interval labels for the gap body, intervals i+1 .. ip-1.

    Each step (s, sp) of time d contributes d copies of its label;
    instantaneous steps contribute none.
    """
    steps = switching_path(table, i, ip)
    tr = table.graph.inst.transitions
    labels: list[StatePair] = []
    for s, sp in steps:
        labels.extend([(s, sp)] * tr.time(s, sp))
    if len(labels) != ip - i - 1:
        raise RuntimeError(f"expansion of ({i}, {ip}) covers {len(labels)} intervals, "
                           f"expected {ip - i - 1}")
    return labels


def apply_pruning(table: SpacesTable, inst: Instance) -> SpacesTable:
    """The table itself: its pruning flags (`SpacesTable.pruned_mask`) are
    derived from its instance, so there is nothing to apply."""
    return table


def write_phi_csv(table: SpacesTable, path) -> None:
    """Debug dump of all defined phi values, one "i,ip,phi" row per pair."""
    phi = table.phi_matrix
    i, ip = np.argwhere(phi < _UNREACHABLE).T
    rows = map("{},{},{}\n".format, i.tolist(), ip.tolist(), phi[i, ip].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,ip,phi\n" + "".join(rows))


def _fingerprint(inst: Instance) -> str:
    doc = json.dumps(instance_to_dict(inst), sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()


def save_table(table: SpacesTable, path) -> str:
    """Write phi and the instance fingerprint as an .npz archive of
    uncompressed members, as np.savez writes it; returns the actual path,
    which gains the .npz suffix when missing.

    phi is stored in the narrowest signed integer type (int8, int16, int32
    or int64) whose maximum is above every finite phi value, and that
    maximum stands for "no switching"."""
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    phi = table.phi_matrix
    finite = phi < _UNREACHABLE
    top = int(phi.max(where=finite, initial=0))
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max > top)
    stored = phi.astype(dtype)
    np.copyto(stored, np.iinfo(dtype).max, where=~finite)
    np.savez(path, phi=stored, fingerprint=np.asarray(_fingerprint(table.graph.inst)))
    return path


def _read_npy(zf: zipfile.ZipFile, name: str, check) -> np.ndarray:
    """The array in member name.npy of zf. check(shape, dtype) runs on
    the member's header before its data is read, so a header that
    announces a wrong or huge array is refused with nothing allocated."""
    with zf.open(name + ".npy") as member:
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(member)
        else:
            raise ValueError(f"{name}.npy has .npy format version {version}")
        check(shape, dtype)
        data = member.read()  # to the end, where zipfile checks the CRC
    values = np.frombuffer(data, dtype)
    if values.size != math.prod(shape):
        raise ValueError(f"{name}.npy holds {values.size} values for shape {shape}")
    return values.reshape(shape, order="F" if fortran_order else "C")


def load_table(path, inst: Instance, graph: IntervalStateGraph | None = None) -> SpacesTable:
    """Read a table written by save_table for inst. Only phi is read, and
    beyond its shape only its integer type and its sign are checked; the
    pruned, window and horizon keys of older files are ignored. Stored
    and deflated members read alike, so the files of every older version
    load.

    A value at or above min(its type's maximum, 2^61) means no switching
    and loads as INF, so narrow files and the int64 files of older
    versions (INF = 2^62) read alike; a hand-edited cell equal to the
    type's maximum reads as unreachable."""
    h = inst.horizon
    other = f"{path}: phi table was computed for a different instance"

    def fingerprint_header(shape, dtype):
        if (shape, dtype.kind, dtype.itemsize) != ((), "U", 4 * 64):  # 64 hex digits
            raise InputError(other)

    def phi_header(shape, dtype):
        if dtype.kind not in "iu":
            raise InputError(f"{path}: phi must hold integers, got {dtype}")
        if shape != (h + 1, h + 1):
            raise InputError(f"{path}: phi must have shape ({h + 1}, {h + 1}), got {shape}")

    try:
        with zipfile.ZipFile(path) as zf:
            if str(_read_npy(zf, "fingerprint", fingerprint_header)) != _fingerprint(inst):
                raise InputError(other)
            phi = _read_npy(zf, "phi", phi_header)
    except InputError:
        raise
    except (zipfile.BadZipFile, zlib.error, KeyError, ValueError, EOFError, OSError,
            NotImplementedError, RuntimeError) as exc:
        raise InputError(f"{path}: not a readable phi table ({exc})") from exc
    if phi.min(initial=0) < 0:
        raise InputError(f"{path}: phi holds negative switching costs")
    finite = phi < min(np.iinfo(phi.dtype).max, int(_UNREACHABLE))
    if phi.dtype.kind == "u" and phi.dtype.itemsize == 8:
        # np.where would meet uint64 and int64 in float64; the cast wraps
        # only values that are not finite
        phi = phi.astype(np.int64)
    phi = np.where(finite, phi, INF)  # widened to int64 in the same pass
    return SpacesTable(phi, build_graph(inst) if graph is None else graph)
