"""Optimal switching costs for every gap between processing blocks.

phi(i, ip) is the cheapest energy cost of bridging the gap after interval i
up to interval ip: leaving proc after I_i and being back in proc at I_ip,
with the off boundary taking the place of proc when i = 1 or ip = h.

The table is a forward dynamic program over the interval axis that
advances every gap start simultaneously: a (classes x starts) distance
block is relaxed interval by interval. Its rows are the machine's
zero-time classes, the sets of states that reach each other by time-0
transitions and so hold one distance once the instantaneous closure at
an interval is done; that closure is one pass over the classes joined in
one direction only, and positive-time steps between two classes with the
same time merge at their cheapest power. Edge weights depend only on the
interval and the step, never on the start, so each relaxation is one
vectorized add and minimum. `isg.sssp` is the same sweep from a single
start, over states; a switching path is read off it, stopped at the
gap's end.
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

from .isg import INF, IntervalStateGraph, build_graph, proc_window, sssp, tree_path
from .model import (InfeasibleError, InputError, Instance, StatePair, instance_to_dict,
                    zero_time_closure)

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
        """
        h = self.horizon
        t_on, t_off = self.window
        jobs = self.graph.inst.jobs
        max_p, sum_p = max(jobs), sum(jobs)

        idx = np.arange(h + 1, dtype=np.int64)
        left = idx - t_on + 1
        left[1] = 0
        right = t_off - idx + 1
        right[h] = 0

        mask = right[None, :] < (sum_p - left)[:, None]  # PC2
        mask |= (max_p > left)[:, None] & (max_p > right)[None, :]  # PC1
        mask &= idx[None, :] > idx[:, None]
        mask[0] = False
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
    """Fill phi rows 1..h-1. Row i is the sweep from the start of the gap
    after interval i, which enters at interval i + 1 (in off for i = 1, in
    proc after), so interval k relaxes rows 1..k-1 only.

    The sweep runs over zero-time classes, not states: a class is a set of
    states that reach each other by time-0 transitions, so once the
    closure at an interval is done all of its states hold one distance,
    and it is one row of the ring. Positive-time steps between the same
    two classes with the same time merge into one at the cheapest power,
    which gives the cheapest weight since costs are non-negative. A class
    reaching another by time-0 chains in one direction only passes its
    distance on once per interval, over the transitively closed pairs, so
    no ordering of the passes matters. Every distance stays at or below
    INF, and each phi column is clamped to INF as it is written."""
    inst = g.inst
    h = inst.horizon
    C = inst.cost_prefix
    names = g.states
    reach = zero_time_closure(inst)

    # two states share a class exactly when they reach the same states at time 0
    class_id: dict[frozenset[str], int] = {}
    class_of = {s: class_id.setdefault(frozenset(reach[s]), len(class_id)) for s in names}
    cls = [class_of[s] for s in names]
    off, proc = cls[g.off_index], cls[g.proc_index]

    zero_pairs = sorted({(class_of[s], class_of[sp]) for s in names for sp in reach[s]
                         if class_of[s] != class_of[sp]})
    power: dict[tuple[int, int, int], int] = {}
    for s, sp, t, pw in g.steps:
        if t >= 1:
            key = (cls[s], cls[sp], t)
            power[key] = min(pw, power.get(key, pw))
    steps = [(c, cp, t, pw) for (c, cp, t), pw in power.items()]
    slots = max(t for _c, _cp, t, _pw in steps) + 1

    # ring[k % slots, c, i] holds class c of row i at interval k; row 0 is padding
    ring = np.full((slots, len(class_id), h), INF, dtype=np.int64)
    for k in range(2, h + 1):
        cur = ring[k % slots, :, :k]
        cur[off if k == 2 else proc, k - 1] = 0
        for c, cp in zero_pairs:
            np.minimum(cur[cp], cur[c], out=cur[cp])

        np.minimum(cur[proc if k < h else off], INF, out=phi[:k, k])

        for c, cp, t, pw in steps:
            if k + t > h:  # transition would not complete by the last interval
                continue
            tgt = ring[(k + t) % slots, cp, :k]
            np.minimum(tgt, cur[c] + (C[k + t - 1] - C[k - 1]) * pw, out=tgt)

        cur[:] = INF  # slot is reused for interval k + slots


def compute_spaces(inst: Instance, g: IntervalStateGraph) -> SpacesTable:
    """The full phi table; raises InfeasibleError without a processing window."""
    h = inst.horizon
    table = SpacesTable(np.full((h + 1, h + 1), INF, dtype=np.int64), g)
    phi = table.phi_matrix
    _sweep_rows(g, phi)
    return table


def switching_path(table: SpacesTable, i: int, ip: int) -> list[StatePair]:
    """A minimum-cost transition step sequence bridging the gap (i, ip).

    Steps are one entry per transition; instantaneous steps expand to no
    interval. Raises when the pair has no switching.
    """
    cost = table.phi(i, ip)
    if cost is None:
        raise InfeasibleError(f"no switching exists for ({i}, {ip})")
    g = table.graph
    dm = sssp(g, g.source_vertex(i), last=ip)
    target = g.target_vertex(ip)
    steps = tree_path(dm, target)
    if steps is None or dm.dist[target] != cost:
        raise InputError(f"phi({i}, {ip}) = {cost} is not the cheapest switching cost of "
                         f"the gap: the table does not match its instance")
    return steps


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
    if (phi < 0).any():
        raise InputError(f"{path}: phi holds negative switching costs")
    unreachable = phi >= min(np.iinfo(phi.dtype).max, int(_UNREACHABLE))
    phi = phi.astype(np.int64)
    phi[unreachable] = INF
    return SpacesTable(phi, build_graph(inst) if graph is None else graph)
