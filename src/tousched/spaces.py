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
block across them (`_sweep_blocks`), in the narrowest of 16, 32 and 64
bits that holds every sum (`_sweep_types`). The sweep writes phi, the
file holds it and a load keeps it in one form: the narrowest signed type
whose maximum, the mark of "no switching", is above every finite value
(`_signed_type`). Only the readers of the whole matrix widen it, once, to
int64 with INF = 2^62 (`SpacesTable.phi_matrix`). A switching path is
read off `isg`'s single-source sweep (`isg.shortest_path`), stopped at
the gap's end.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .isg import INF, ClassPlan, IntervalStateGraph, build_graph, proc_window, shortest_path
from .isg import sssp  # noqa: F401  (perfbench's tracer wraps spaces.sssp)
from .model import InfeasibleError, InputError, Instance, StatePair, instance_to_dict

_UNREACHABLE = np.int64(INF) // 2  # values at or above this mean "no path"


def _signed_type(bound: int, least=np.int8) -> np.dtype:
    """The narrowest signed integer type, least or wider, whose maximum is
    above bound."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.dtype(t).itemsize >= np.dtype(least).itemsize and np.iinfo(t).max > bound)


@dataclass
class SpacesTable:
    """phi values over the graph they were computed on.

    stored[i, ip] holds phi(i, ip) for 1 <= i < ip <= h in its stored type,
    the narrowest signed type whose maximum is above every finite value
    (`_signed_type`), read-only; row 0 and column 0 are padding so indices
    match the 1-based interval convention. A signed array of 8, 16 or 32
    bits is kept as given, any other converted, a cell at or above min(its
    type's maximum, 2^61) meaning no switching: an int64 table with INF
    builds too. The horizon, the window and the pruning flags derive from
    the graph's instance, which must have a window.
    """

    stored: np.ndarray
    graph: IntervalStateGraph

    def __post_init__(self) -> None:
        if self.stored.dtype.kind != "i" or self.stored.dtype.itemsize == 8:
            self.stored = _narrowest(self.stored)
        self.stored.flags.writeable = False
        self.window  # raises InfeasibleError when there is no processing window

    @cached_property
    def mark(self) -> int:
        """The stored type's maximum: no switching."""
        return int(np.iinfo(self.stored.dtype).max)

    @cached_property
    def phi_matrix(self) -> np.ndarray:
        """phi as int64 with INF where there is no switching, for the
        readers of the whole matrix: widened once, read-only."""
        phi = np.where(self.stored == self.mark, INF, self.stored)
        phi.flags.writeable = False
        return phi

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
        v = self.stored[i, ip]
        return None if v == self.mark else int(v)

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
    and 64 bits whose 2^(w-3) is above `Instance.heaviest_path`: whose
    maximum 2^(w-1) - 1 is above 4 times it (`_sweep_blocks` argues the
    bounds)."""
    sdt = _signed_type(4 * inst.heaviest_path, np.int16)
    return sdt, np.dtype(f"u{sdt.itemsize}"), 2 ** (8 * sdt.itemsize - 2)


def _narrowest(phi: np.ndarray) -> np.ndarray:
    """An integer phi in its stored type, the narrowest signed type whose
    maximum, "no switching", is above its largest finite value, where a
    cell at or above min(phi's type maximum, 2^61) means no switching."""
    finite = phi < min(np.iinfo(phi.dtype).max, int(_UNREACHABLE))
    stored = phi.astype(_signed_type(int(phi.max(where=finite, initial=0))))
    stored[~finite] = np.iinfo(stored.dtype).max  # the cast wrapped only these cells
    return stored


def _sweep_blocks(g: IntervalStateGraph) -> np.ndarray:
    """phi in its stored type (`_narrowest`), by a backward sweep over
    blocks of B consecutive intervals (`_blocks`), block b from interval
    2 + bB, the top block cut at h. At interval k each zero-time class
    holds a cost-to-go row: the cheapest cost from that class at the
    start of k to the end of every gap ip >= k (proc at the start of ip,
    off for ip = h). The gap after interval k - 1 starts there, in proc
    (in off for k = 2), so that class's row is row k - 1 of phi. Step
    weights depend only on the interval, so the recurrence's min-plus
    steps compose, and the sweep runs in two levels, as a two-level scan
    does (Blelloch, Prefix sums and their applications, CMU-CS-90-190,
    1990):

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
      plus j's row, which the block above gave, one pass over the block's
      rows per state. The boundary rows come first, for every block: the
      largest finite cost plus their largest finite value bounds phi and
      picks its stored type before it is written, and the largest among
      phi's own rows there confirms that type or leaves it to a check.

    Both phases run in w bits (`_sweep_types`), the narrowest width whose
    2^(w-3) is above the heaviest path weight W = sum(costs) * max power
    (intervals past h weigh 0), and the no-path value is INF_w = 2^(w-2).
    Local rows, in the signed type, are never clamped: a column with no
    path holds INF_w plus the weight of a path, below INF_w + 2^(w-3) <
    2^(w-1), and is then set to M = 2^(w-1) - 1. The block phase adds in
    the unsigned type of the same width, whose bits are the signed type's
    for non-negative values: two finite costs sum below 2^(w-3), and a sum
    with an M factor lies in [M, 2^w - 2], inside the type. A boundary row
    is clamped at M again, and phi's cells at the stored type's maximum,
    at most M. At 64 bits W is below COST_LIMIT = 2^61, which
    `validate_instance` checks."""
    h = g.horizon
    off, proc, _zero, out = g.class_plan
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
    ring = g.class_plan.ring((nb, width), inf, sdt)  # [r % slots][c][b]: offset r of block b
    slots = len(ring)
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
        g.class_plan.close(cur)
        rows[:, r] = cur[proc]
        if r == 0:
            rows[0, 0] = cur[off][0]
        for (u, c), j in slot.items():
            if u == r + 1:
                bounds[:, j] = cur[c]

    rows, bounds, M = rows.view(udt), bounds.view(udt), udt.type(np.iinfo(sdt).max)
    for x in (rows, bounds):  # no path: M, which each sum with it reaches
        np.copyto(x, M, where=x >= inf)
    # ahead[b]: the boundary rows of block b - 1, from block b's first interval on
    ahead = np.full((nb, J, h + 1), M, dtype=udt)
    scratch = np.empty((2, max(B, J) * h), dtype=udt)

    def past(costs: np.ndarray, state_rows: np.ndarray, acc: np.ndarray) -> None:
        """acc = min over j of costs[:, j] + state_rows[j]: M or more where no
        path exists."""
        tmp = scratch[1, :acc.size].reshape(acc.shape)
        np.add(costs[:, :1], state_rows[0], out=acc)
        for j in range(1, J):
            np.minimum(acc, np.add(costs[:, j:j + 1], state_rows[j], out=tmp), out=acc)

    def top(x: np.ndarray) -> int:
        """The largest finite value of x, or 0: M + 1 wraps below 0."""
        return int(np.add(x.view(sdt), 1).max(initial=1)) - 1

    spans = [(2 + b * B, min(2 + (b + 1) * B, h + 1)) for b in range(nb)]  # [lo, hi)
    for b in range(nb - 1, 0, -1):
        lo, hi = spans[b]
        ahead[b, :, lo:hi] = bounds[b, :, :hi - lo]
        if b < nb - 1:
            past(bounds[b, :, B:], ahead[b + 1, :, hi:], ahead[b, :, hi:])
            np.minimum(ahead[b, :, hi:], M, out=ahead[b, :, hi:])
    dtype = _signed_type(top(rows) + top(ahead))
    mark = np.iinfo(dtype).max
    phi = np.full((h + 1, h + 1), mark, dtype=dtype)
    for b, (lo, hi) in enumerate(spans):
        np.minimum(rows[b, :hi - lo, :hi - lo], mark, out=phi[lo - 1:hi - 1, lo:hi],
                   casting="unsafe")
        if b < nb - 1:
            acc = scratch[0, :B * (h + 1 - hi)].reshape(B, h + 1 - hi)
            past(rows[b, :, B:], ahead[b + 1, :, hi:], acc)
            np.minimum(acc, mark, out=phi[lo - 1:hi - 1, hi:], casting="unsafe")
    # the first row of every block above the lowest is a boundary row: proc's
    least = top(ahead[1:, slot[1, proc]])
    return phi if _signed_type(least) == dtype else _narrowest(phi)


def check_instance(inst: Instance, g: IntervalStateGraph) -> None:
    """Raise InputError unless g, or the table over it, was built for inst:
    the same object or an equal one, the instance a saved table's
    fingerprint pins."""
    if g.inst is inst or g.inst == inst:
        return
    differ = [f.name for f in fields(Instance) if getattr(g.inst, f.name) != getattr(inst, f.name)]
    if differ[:1] == ["horizon"]:
        differ[0] = f"horizon ({g.inst.horizon}, not {inst.horizon})"
    raise InputError(f"the table or graph was built for another instance, which differs in "
                     f"{', '.join(differ)}")


def compute_spaces(inst: Instance, g: IntervalStateGraph) -> SpacesTable:
    """The full phi table; raises InfeasibleError without a processing
    window, InputError when g was built for another instance."""
    check_instance(inst, g)
    return SpacesTable(_sweep_blocks(g), g)


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
    derived from its instance, so there is nothing to apply. Raises
    InputError when the table was built for another instance."""
    check_instance(inst, table.graph)
    return table


def write_phi_csv(table: SpacesTable, path) -> None:
    """Debug dump of all defined phi values, one "i,ip,phi" row per pair."""
    i, ip = np.argwhere(table.stored != table.mark).T
    rows = map("{},{},{}\n".format, i.tolist(), ip.tolist(), table.stored[i, ip].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,ip,phi\n" + "".join(rows))


def _fingerprint(inst: Instance) -> str:
    doc = json.dumps(instance_to_dict(inst), sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()


def save_table(table: SpacesTable, path) -> str:
    """Write phi and the instance fingerprint as an .npz archive of
    uncompressed members, as np.savez writes it; returns the actual path,
    which gains the .npz suffix when missing. phi is written as the table
    stores it: in the narrowest signed integer type (int8, int16, int32 or
    int64) whose maximum is above every finite phi value, with that
    maximum for "no switching"."""
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    np.savez(path, phi=table.stored, fingerprint=np.asarray(_fingerprint(table.graph.inst)))
    return path


def _read_npy(zf: zipfile.ZipFile, name: str, check) -> np.ndarray:
    """The array in member name.npy of zf. check(shape, dtype) runs on
    the member's header before its data is read, so a header that
    announces a wrong or huge array is refused with nothing allocated.
    The data is then read in chunks into the array alone, so its bytes
    are held once."""
    with zf.open(name + ".npy") as member:
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, _fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        elif version == (2, 0):
            shape, _fortran_order, dtype = np.lib.format.read_array_header_2_0(member)
        else:
            raise ValueError(f"{name}.npy has .npy format version {version}")
        check(shape, dtype)
        member.seek(0)
        values = np.lib.format.read_array(member, allow_pickle=False)
        member.read()  # to the end, where zipfile checks the CRC
    return values


def load_table(path, inst: Instance, graph: IntervalStateGraph | None = None) -> SpacesTable:
    """Read a table written by save_table for inst. Only phi is read, and
    beyond its shape only its integer type and its sign are checked; the
    pruned, window and horizon keys of older files are ignored. Stored
    and deflated members read alike, so the files of every older version
    load. phi is kept as read unless its type is other than signed 8, 16
    or 32 bits, such as the int64 of older versions with INF = 2^62, which
    `SpacesTable` converts; a hand-edited cell equal to its type's maximum
    reads as unreachable. A graph built for another instance raises
    InputError."""
    if graph is not None:
        check_instance(inst, graph)
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
    return SpacesTable(phi, build_graph(inst) if graph is None else graph)
