"""Optimal switching costs for every gap between processing blocks.

phi(i, ip) is the cheapest energy cost of bridging the gap after interval i
up to interval ip: leaving proc after I_i and being back in proc at I_ip,
with the off boundary taking the place of proc when i = 1 or ip = h.

The table is a forward dynamic program over the interval axis that
advances every gap start simultaneously: a (starts x states) distance
block is relaxed interval by interval, with an instantaneous-transition
closure at each index. Edge weights depend only on the interval and the
state pair, never on the start, so each relaxation is one vectorized add
and minimum. `isg.sssp` is the same sweep from a single start; a
switching path is read off it, stopped at the gap's end.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .isg import INF, IntervalStateGraph, build_graph, proc_window, sssp, tree_path
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
    proc after), so interval k relaxes rows 1..k-1 only."""
    inst = g.inst
    h = inst.horizon
    n_s = len(g.states)
    C = inst.cost_prefix
    off, proc = g.off_index, g.proc_index

    zero_steps = [(s, sp) for s, sp, t, _pw in g.steps if t == 0]
    pos_steps = [step for step in g.steps if step[2] >= 1]
    t_max = max(t for _s, _sp, t, _pw in pos_steps)

    # ring[k % (t_max + 1), i] holds row i at interval k; row 0 is padding
    ring = np.full((t_max + 1, h, n_s), INF, dtype=np.int64)
    for k in range(2, h + 1):
        cur = ring[k % (t_max + 1), :k]
        cur[k - 1, off if k == 2 else proc] = 0

        for _ in range(n_s - 1 if zero_steps else 0):
            for s, sp in zero_steps:
                np.minimum(cur[:, sp], cur[:, s], out=cur[:, sp])

        phi[:k, k] = cur[:, proc if k < h else off]

        for s, sp, t, pw in pos_steps:
            if k + t > h:  # transition would not complete by the last interval
                continue
            w = (C[k + t - 1] - C[k - 1]) * pw
            tgt = ring[(k + t) % (t_max + 1), :k]
            np.minimum(tgt[:, sp], cur[:, s] + w, out=tgt[:, sp])

        cur[:] = INF  # slot is reused for interval k + t_max + 1


def compute_spaces(inst: Instance, g: IntervalStateGraph) -> SpacesTable:
    """The full phi table; raises InfeasibleError without a processing window."""
    h = inst.horizon
    table = SpacesTable(np.full((h + 1, h + 1), INF, dtype=np.int64), g)
    phi = table.phi_matrix
    _sweep_rows(g, phi)
    phi[phi >= _UNREACHABLE] = INF
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
    """Write phi and the instance fingerprint as an .npz archive (the
    members np.savez writes, deflated at level 1); returns the actual path,
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
    stored = np.where(finite, phi, np.iinfo(dtype).max).astype(dtype)
    members = {"phi": stored, "fingerprint": np.asarray(_fingerprint(table.graph.inst))}
    # deflate level 1: about half the time of numpy's fixed level 6 for a
    # somewhat larger file
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for name, arr in members.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)
    return path


def load_table(path, inst: Instance, graph: IntervalStateGraph | None = None) -> SpacesTable:
    """Read a table written by save_table for inst. Only phi is read, and
    beyond its shape only its integer type and its sign are checked; the
    pruned, window and horizon keys of older files are ignored.

    A value at or above min(its type's maximum, 2^61) means no switching
    and loads as INF, so narrow files and the int64 files of older
    versions (INF = 2^62) read alike; a hand-edited cell equal to the
    type's maximum reads as unreachable."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as doc:
            fingerprint = str(doc["fingerprint"])
            phi = doc["phi"]
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise InputError(f"{path}: not a readable phi table ({exc})") from exc
    if phi.dtype.kind not in "iu":
        raise InputError(f"{path}: phi must hold integers, got {phi.dtype}")
    if fingerprint != _fingerprint(inst):
        raise InputError(f"{path}: phi table was computed for a different instance")
    h = inst.horizon
    if phi.shape != (h + 1, h + 1):
        raise InputError(f"{path}: phi must have shape ({h + 1}, {h + 1}), got {phi.shape}")
    if (phi < 0).any():
        raise InputError(f"{path}: phi holds negative switching costs")
    unreachable = phi >= min(np.iinfo(phi.dtype).max, int(_UNREACHABLE))
    phi = phi.astype(np.int64)
    phi[unreachable] = INF
    return SpacesTable(phi, build_graph(inst) if graph is None else graph)
