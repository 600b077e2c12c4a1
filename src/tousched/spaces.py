"""Optimal switching costs for every gap between processing blocks.

phi(i, ip) is the cheapest energy cost of bridging the gap after interval i
up to interval ip: leaving proc after I_i and being back in proc at I_ip,
with the off boundary taking the place of proc when i = 1 or ip = h.

The table is a backward dynamic program over the interval axis that
serves every gap end at once: at each interval, from the last down, one
cost-to-go row per zero-time class covers all gap ends, and the row of
the class a gap starts in is that gap's row of phi. The classes are the
sets of states that reach each other by time-0 transitions and so hold
one row once the instantaneous closure at an interval is done; that
closure is one pass over the classes joined in one direction only, and
positive-time steps between two classes with the same time merge at
their cheapest power. Step weights depend only on the interval and the
step, never on the gap end, so the steps compose: the sweep runs over
blocks of intervals, all blocks at once inside them and then block by
block across them (`_sweep_blocks`). The sweep adds in the narrowest
of 16, 32 and 64 bits whose 2^(w-3) is above the instance's heaviest
path weight, sum(costs) * max power, with 2^(w-2) for "no path"
(`_sweep_types`), so no sum leaves the type: the signed rows stay below
2^(w-1) and the unsigned sums across blocks at most 2^(w-1). At 64
bits the bound is COST_LIMIT = 2^61, which `validate_instance` checks,
and "no path" is INF = 2^62; phi itself is int64 with INF at every
width. A switching path is read off `isg`'s single-source sweep
(`isg.shortest_path`), stopped at the gap's end.
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

from .isg import INF, ClassPlan, IntervalStateGraph, build_graph, proc_window, shortest_path
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


def _blocks(plan: ClassPlan, h: int) -> tuple[int, dict[tuple[int, int], int]]:
    """The block size B of phi's sweep over intervals 2..h, and the index
    j of each boundary state (u, c): class c at u intervals past a
    block's last, for every u up to the longest step that reaches c. The
    local phase makes a few numpy calls per offset and the block phase
    about 4J per block, so B + hJ / B calls are fewest at B = sqrt(hJ);
    B is at least the longest step, so that a step leaves a block only
    into the next."""
    slot = {end: j for j, end in enumerate(sorted(
        {(u, cp) for steps in plan.out for t, cp, _w in steps for u in range(1, t + 1)}))}
    longest = max(u for u, _c in slot)
    return min(h - 1, max(longest, math.isqrt(h * len(slot)))), slot


def _sweep_types(inst: Instance) -> tuple[np.dtype, np.dtype, int]:
    """The signed and unsigned integer types of phi's sweep and its
    no-path value INF_w = 2^(w-2), for the narrowest width w of 16, 32
    and 64 bits whose 2^(w-3) is above `Instance.heaviest_path`
    (`_sweep_blocks` argues the bounds)."""
    heaviest = inst.heaviest_path
    w = next((w for w in (16, 32) if heaviest < 2 ** (w - 3)), 64)
    return np.dtype(f"int{w}"), np.dtype(f"uint{w}"), 2 ** (w - 2)


def _sweep_blocks(g: IntervalStateGraph, phi: np.ndarray) -> None:
    """Fill phi rows 1..h-1, every column, by a backward sweep over blocks
    of B consecutive intervals (`_blocks`), block b from interval 2 + bB,
    the top block cut at h. At interval k each zero-time class holds a
    cost-to-go row: the cheapest cost from that class at the start of k
    to the end of every gap ip >= k (proc at the start of ip, off for
    ip = h). The gap after interval k - 1 starts there, in proc (in off
    for k = 2), so that class's row is row k - 1 of phi. Step weights
    depend only on the interval, so the recurrence's min-plus steps
    compose, and the sweep runs in two levels, as a two-level scan does
    (Blelloch, Prefix sums and their applications, CMU-CS-90-190, 1990):

    - Local phase: one backward pass over the offset r = B - 1 .. 0 runs
      every block at once. Each class row holds, per block, the block's
      B gap ends and one column per boundary state. The classes and
      their merged steps are the graph's `class_plan`: a step that stays
      in the block reads the row of the class it reaches, a step that
      leaves it the unit row of the boundary state it lands on, each
      plus its weight in every block. The gap that ends at the interval
      is set to 0, and the zero-time closure follows: a class takes the
      minimum of every class it reaches by time-0 chains, over the
      transitively closed pairs, so no ordering of the passes matters.
      That gives each row's phi inside its block and its costs to the
      boundary states, where a path out of the block first lands.
    - Block phase: from the top block down, each row's columns past its
      block are the minimum over the boundary states j of its cost to j
      plus j's row, which the block above gave: one pass over the
      block's rows per state, into a scratch buffer that one cast copy
      puts into phi. The boundary rows for the block below come out the
      same way.

    Both phases run in w bits (`_sweep_types`), the narrowest width whose
    2^(w-3) is above the heaviest path weight W = sum(costs) * max power
    (intervals past h weigh 0), and the no-path value is INF_w = 2^(w-2).
    Local rows, in the signed type, are never clamped: a column with no
    path holds INF_w plus the weight of a path, so each value stays below
    INF_w + 2^(w-3) < 2^(w-1). The block phase clamps both factors of
    each sum at INF_w and adds them in the unsigned type of the same
    width, whose bits are the signed type's for non-negative values: two
    finite costs sum to a path's weight, below 2^(w-3), and a sum with an
    INF_w factor lies in [INF_w, 2^(w-1)], inside the type. So the
    minimum is the cost, or INF_w or more where no path exists; a
    boundary row is clamped at INF_w again before the block below reads
    it, and the copy into the int64 phi turns every value from INF_w up
    into INF = 2^62. At 64 bits INF_w is INF and W is below COST_LIMIT =
    2^61, which `validate_instance` checks."""
    h = g.horizon
    off, proc, zero, out = g.class_plan
    B, slot = _blocks(g.class_plan, h)
    sdt, udt, inf = _sweep_types(g.inst)
    J, nb, width = len(slot), -(-(h - 1) // B), B + len(slot)
    unit = np.full((J, width), inf, dtype=sdt)  # unit[j]: 0 at boundary state j
    np.fill_diagonal(unit[:, B:], 0)

    def by_offset(weights: list[int]) -> np.ndarray:
        """A step's weights as [r][b]: at offset r of block b, 0 past h."""
        padded = np.zeros(nb * B + 1, dtype=sdt)
        padded[:len(weights)] = weights
        return padded[1:].reshape(nb, B).T.copy()[:, :, None]

    plan = [[(t, cp, by_offset(weights)) for t, cp, weights in steps] for steps in out]
    # ring[r % slots][c][b]: class c's row at offset r of block b
    slots = max(u for u, _c in slot) + 1
    ring = [[np.empty((nb, width), dtype=sdt) for _ in out] for _ in range(slots)]
    tmp = np.empty((nb, width), dtype=sdt)
    rows = np.empty((nb, B, width), dtype=sdt)  # the row of phi at each offset
    bounds = np.empty((nb, J, width), dtype=sdt)  # each boundary state's row
    last = (h - 2) % B  # the offset of h, in the top block
    for r in range(B - 1, -1, -1):
        cur = ring[r % slots]
        for row, steps in zip(cur, plan):  # every class has a step: its time-1 stay
            for x, (t, cp, w) in enumerate(steps):
                nxt = ring[(r + t) % slots][cp] if r + t < B else unit[slot[r + t + 1 - B, cp]]
                if x:
                    np.minimum(row, np.add(nxt, w[r], out=tmp), out=row)
                else:
                    np.add(nxt, w[r], out=row)
        if r == last:
            cur[proc][:-1, r] = 0
            cur[off][-1, r] = 0
        else:
            cur[proc][:, r] = 0
        for c, cp in zero:
            np.minimum(cur[c], cur[cp], out=cur[c])
        rows[:, r] = cur[proc]
        if r == 0:
            rows[0, 0] = cur[off][0]
        for (u, c), j in slot.items():
            if u == r + 1:
                bounds[:, j] = cur[c]
    np.minimum(rows, sdt.type(inf), out=rows)
    np.minimum(bounds, sdt.type(inf), out=bounds)

    rows, bounds, cap = rows.view(udt), bounds.view(udt), udt.type(inf)
    above, below = np.empty((2, J, h + 1), dtype=udt)  # boundary rows, all columns
    scratch = np.empty((2, max(B, J) * h), dtype=udt)

    def past(costs: np.ndarray, ahead: np.ndarray, acc: np.ndarray) -> None:
        """acc = min over j of costs[:, j] + ahead[j]: INF_w or more where
        no path exists."""
        tmp = scratch[1, :acc.size].reshape(acc.shape)
        np.add(costs[:, :1], ahead[0], out=acc)
        for j in range(1, J):
            np.minimum(acc, np.add(costs[:, j:j + 1], ahead[j], out=tmp), out=acc)

    def put(cells: np.ndarray, values: np.ndarray) -> None:
        """cells = values, widened to int64, with INF where they are INF_w
        or more."""
        cells[...] = values
        if values.max() >= cap:
            np.copyto(cells, INF, where=values >= cap)

    for b in range(nb - 1, -1, -1):
        lo = 2 + b * B
        hi = min(lo + B, h + 1)  # one past the block's last interval
        m = hi - lo
        phi[lo - 1:hi - 1, :lo] = INF
        put(phi[lo - 1:hi - 1, lo:hi], rows[b, :m, :m])
        if b < nb - 1:
            acc = scratch[0, :B * (h + 1 - hi)].reshape(B, h + 1 - hi)
            past(rows[b, :, B:], above[:, hi:], acc)
            put(phi[lo - 1:hi - 1, hi:], acc)
        if b:
            below[:, lo:hi] = bounds[b, :, :m]
            if b < nb - 1:
                past(bounds[b, :, B:], above[:, hi:], below[:, hi:])
                np.minimum(below[:, hi:], cap, out=below[:, hi:])
            above, below = below, above


def compute_spaces(inst: Instance, g: IntervalStateGraph) -> SpacesTable:
    """The full phi table; raises InfeasibleError without a processing window."""
    h = inst.horizon
    table = SpacesTable(np.empty((h + 1, h + 1), dtype=np.int64), g)
    phi = table.phi_matrix
    phi[[0, h]] = INF  # the sweep writes every other row whole
    _sweep_blocks(g, phi)
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
    maximum stands for "no switching". phi is narrowed in one pass, a
    minimum with that maximum cast into the stored type: every cell
    without switching is at least 2^61, above the maximum of each type
    but int64, and an int64 table then sets those cells to its maximum,
    since they hold INF = 2^62 or more, below it."""
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    phi = table.phi_matrix
    top = int(phi.max(where=phi < _UNREACHABLE, initial=0))
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max > top)
    mark = np.iinfo(dtype).max
    stored = np.empty(phi.shape, dtype=dtype)
    np.minimum(phi, np.int64(mark), out=stored, casting="unsafe")
    if dtype is np.int64:
        stored[stored >= _UNREACHABLE] = mark
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
