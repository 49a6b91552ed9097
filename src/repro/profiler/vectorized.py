"""Vectorized backward slicer over columnar (UCWA3) traces.

The sequential pass (:mod:`.slicer`) and the incremental engine's epoch
runs (:mod:`.epoch`) stream per-record Python objects.  This engine
reformulates the backward slice the way :mod:`.oracle` does — as a
reachability closure over explicit dependence edges — but computes the
edges with batch array joins over the columnar trace:

* **data / register edges**: writers are sorted by ``(location, index)``
  composite keys; every read resolves its nearest preceding writer with
  one ``np.searchsorted`` per pool instead of one hash probe per operand.
* **control edges**: static control-dependence sets are expanded per
  *unique* pc, then gathered per record; the nearest preceding same-thread
  branch instance is another sorted-key join.
* **call edges**: one forward pass reconstructs dynamic invocations
  (identical attribution to the oracle's), after which every record's
  enclosing CALL is a single array gather.

Every edge points from a record to a strictly *earlier* record, so the
transitive closure is one sweep down the edge stream sorted by
descending source, in blocks of source records: a block's edges that
stay inside it are walked one by one, the rest fire as one array
scatter (:func:`_closure`).  The deduplicated, descending-sorted stream
is what a v3 file caches in its ``EDGE`` section — a cold slice then
skips straight to the sweep.

Equivalence with the liveness formulation is argued in
:mod:`.oracle` and enforced by the conformance matrix in
``tests/conformance/`` (byte-identical flags, statistics and categories
on every trace source).  The engine returns flags only: Figure-4
timelines and join reasons come from the sequential engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trace.columnar import ColumnarTrace, SliceIndex, distinct
from ..trace.records import InstrKind
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria
from .slicer import DEFAULT_OPTIONS, SliceResult, SlicerOptions

_RET = int(InstrKind.RET)
_CALL = int(InstrKind.CALL)
_BRANCH = int(InstrKind.BRANCH)
_SYSCALL = int(InstrKind.SYSCALL)


# --------------------------------------------------------------------- #
# Derived structure: invocations, writer tables, edges                  #
# --------------------------------------------------------------------- #


def build_invocations(
    cols: ColumnarTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct dynamic invocations by forward simulation.

    Returns ``(inv_id, inv_call, inv_ret, inv_fn)``: a per-record
    invocation id (RETs carry the invocation they close) and, per
    invocation, its CALL index, RET index, and function symbol (-1 when
    absent).  The attribution rules mirror :class:`.oracle.OracleSlicer`
    exactly: a fn mismatch on a non-CALL record opens a truncated frame,
    a RET on an empty stack re-seeds the thread root.
    """
    inv_of: List[int] = []  # one entry per record, in record order
    call_of: List[int] = []
    ret_of: List[int] = []
    fn_of: List[Optional[int]] = []
    stacks: Dict[int, List[int]] = {}
    current_tid: Optional[int] = None
    stack: List[int] = []
    next_inv = 0
    for i, (tid, kind, fn) in enumerate(
        zip(cols.tid.tolist(), cols.kind.tolist(), cols.fn.tolist())
    ):
        if tid != current_tid:
            current_tid = tid
            found = stacks.get(tid)
            if found is None:
                found = stacks[tid] = [next_inv]
                call_of.append(-1)
                ret_of.append(-1)
                fn_of.append(fn)
                next_inv += 1
            stack = found
        top = stack[-1]
        if kind == _RET:
            if fn_of[top] is None:
                fn_of[top] = fn
            ret_of[top] = i
            inv_of.append(top)
            stack.pop()
            if not stack:
                stack.append(next_inv)
                call_of.append(-1)
                ret_of.append(-1)
                fn_of.append(None)
                next_inv += 1
            continue
        top_fn = fn_of[top]
        if top_fn is None:
            fn_of[top] = fn
        elif top_fn != fn and kind != _CALL:
            top = next_inv
            call_of.append(-1)
            ret_of.append(-1)
            fn_of.append(fn)
            next_inv += 1
            stack.append(top)
        inv_of.append(top)
        if kind == _CALL:
            stack.append(next_inv)
            call_of.append(i)
            ret_of.append(-1)
            fn_of.append(None)
            next_inv += 1
    return (
        np.array(inv_of, np.int64),
        np.array(call_of, np.int64),
        np.array(ret_of, np.int64),
        np.array([-1 if f is None else f for f in fn_of], np.int64),
    )


def _pool_owners(off: np.ndarray) -> np.ndarray:
    n = len(off) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(off))


def _mem_writer_table(cols: ColumnarTrace):
    """``(uaddr, sorted (addr,idx) keys, writer indices)`` for non-RET
    memory writes; key = ``dense_addr * (n+1) + index``."""
    table = cols._writer_tables.get("mem")
    if table is None:
        n = len(cols)
        own = _pool_owners(cols.mw_off)
        keep = (cols.kind != _RET)[own]
        widx = own[keep]
        waddr = np.asarray(cols.mw)[keep]
        uaddr = distinct(waddr)
        dense = np.searchsorted(uaddr, waddr).astype(np.int64)
        key = dense * (n + 1) + widx
        order = np.argsort(key)
        table = (uaddr, key[order], widx[order])
        cols._writer_tables["mem"] = table
    return table


def _reg_writer_table(cols: ColumnarTrace):
    """Same shape for register writes; key = ``(dense_tid*256 + reg)``
    (registers are byte-sized by construction of the trace format)."""
    table = cols._writer_tables.get("reg")
    if table is None:
        n = len(cols)
        utid = distinct(cols.tid).astype(np.int64)
        own = _pool_owners(cols.rw_off)
        keep = (cols.kind != _RET)[own]
        widx = own[keep]
        wreg = np.asarray(cols.rw)[keep].astype(np.int64)
        wtid = np.searchsorted(utid, cols.tid[widx].astype(np.int64))
        key = (wtid * 256 + wreg) * (n + 1) + widx
        order = np.argsort(key)
        table = (utid, key[order], widx[order])
        cols._writer_tables["reg"] = table
    return table


def _nearest_before(
    sorted_keys: np.ndarray,
    sorted_values: np.ndarray,
    bucket: np.ndarray,
    query_key: np.ndarray,
    span: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """For each query, the value of the largest key < ``query_key`` that
    shares its bucket (``key // span``).  Returns (hit mask, values)."""
    pos = np.searchsorted(sorted_keys, query_key, side="left") - 1
    clamped = np.maximum(pos, 0)
    hit = (pos >= 0) & (sorted_keys[clamped] // span == bucket)
    return hit, sorted_values[clamped]


def build_edges(
    cols: ColumnarTrace,
    inv_id: np.ndarray,
    inv_call: np.ndarray,
    cd_map: Dict[int, Tuple[int, ...]],
    options: SlicerOptions = DEFAULT_OPTIONS,
) -> Tuple[np.ndarray, np.ndarray]:
    """All dependence edges, deduplicated, sorted by descending source.

    Every target is strictly below its source.  ``cd_map`` supplies the
    static control-dependence sets (pass ``{}`` with
    ``options.control_dependences`` off); ablation options prune the
    corresponding edge kinds, matching the sequential engine's switches.
    """
    n = len(cols)
    notret = cols.kind != _RET
    span = n + 1
    srcs: List[np.ndarray] = []
    tgts: List[np.ndarray] = []

    # -- data: each read -> nearest preceding writer of the cell -------- #
    uaddr, wkeys, widx = _mem_writer_table(cols)
    own = _pool_owners(cols.mr_off)
    keep = notret[own]
    ridx = own[keep]
    raddr = np.asarray(cols.mr)[keep]
    dense = np.searchsorted(uaddr, raddr)
    present = dense < len(uaddr)
    present &= uaddr[np.minimum(dense, max(len(uaddr) - 1, 0))] == raddr
    dense = dense[present].astype(np.int64)
    ridx = ridx[present]
    hit, values = _nearest_before(wkeys, widx, dense, dense * span + ridx, span)
    srcs.append(ridx[hit])
    tgts.append(values[hit])

    # -- register: per-thread nearest preceding writer ------------------ #
    utid, rkeys, rwidx = _reg_writer_table(cols)
    own = _pool_owners(cols.rr_off)
    keep = notret[own]
    ridx = own[keep]
    rreg = np.asarray(cols.rr)[keep].astype(np.int64)
    rtid = np.searchsorted(utid, cols.tid[ridx].astype(np.int64))
    bucket = rtid * 256 + rreg
    hit, values = _nearest_before(rkeys, rwidx, bucket, bucket * span + ridx, span)
    srcs.append(ridx[hit])
    tgts.append(values[hit])

    # -- control: nearest preceding same-thread branch instance --------- #
    if options.control_dependences and cd_map:
        upc, pc_inv = np.unique(cols.pc, return_inverse=True)
        deps_per = [cd_map.get(int(p), ()) for p in upc]
        dep_counts = np.array([len(d) for d in deps_per], np.int64)
        if int(dep_counts.sum()):
            rec_counts = dep_counts[pc_inv]
            rec_counts[~notret] = 0
            ctrl_src = np.repeat(np.arange(n, dtype=np.int64), rec_counts)
            if len(ctrl_src):
                flat = np.array(
                    [d for deps in deps_per for d in deps], np.uint64
                )
                upc_off = np.zeros(len(upc) + 1, np.int64)
                np.cumsum(dep_counts, out=upc_off[1:])
                csum = np.zeros(n + 1, np.int64)
                np.cumsum(rec_counts, out=csum[1:])
                within = np.arange(len(ctrl_src)) - np.repeat(
                    csum[:-1], rec_counts
                )
                dep_pc = flat[np.repeat(upc_off[pc_inv], rec_counts) + within]

                br = np.nonzero(cols.kind == _BRANCH)[0]
                ubpc = distinct(np.asarray(cols.pc)[br])
                nb = max(len(ubpc), 1)
                btid = np.searchsorted(utid, cols.tid[br].astype(np.int64))
                bpc = np.searchsorted(ubpc, np.asarray(cols.pc)[br])
                bkey = (btid * nb + bpc) * span + br
                order = np.argsort(bkey)
                bkey_s = bkey[order]
                br_s = br[order]

                qpc = np.searchsorted(ubpc, dep_pc)
                present = qpc < len(ubpc)
                if len(ubpc):  # a trace may have no branch records at all
                    present &= ubpc[np.minimum(qpc, len(ubpc) - 1)] == dep_pc
                ctrl_src = ctrl_src[present]
                qtid = np.searchsorted(
                    utid, cols.tid[ctrl_src].astype(np.int64)
                )
                bucket = qtid * nb + qpc[present].astype(np.int64)
                hit, values = _nearest_before(
                    bkey_s, br_s, bucket, bucket * span + ctrl_src, span
                )
                srcs.append(ctrl_src[hit])
                tgts.append(values[hit])

    # -- call-site: every record -> its invocation's CALL --------------- #
    if options.call_site_dependences:
        target = np.full(n, -1, np.int64)
        has_inv = (inv_id >= 0) & notret
        target[has_inv] = inv_call[inv_id[has_inv]]
        call_src = np.nonzero(target >= 0)[0]
        srcs.append(call_src)
        tgts.append(target[call_src])

    src = np.concatenate(srcs) if srcs else np.zeros(0, np.int64)
    tgt = np.concatenate(tgts) if tgts else np.zeros(0, np.int64)
    key = distinct(src.astype(np.int64) * span + tgt)
    src = (key // span)[::-1]
    tgt = (key % span)[::-1]
    return src, tgt


def attach_index(cols: ColumnarTrace) -> SliceIndex:
    """Derive and attach the cacheable slice index (``INVT``/``EDGE``).

    Runs the forward CDG pass when control-dependence sets are needed, so
    this is a convert-time cost; cold slices over a file carrying the
    index skip both the CDG build and the edge joins entirely.
    """
    if cols.index is not None:
        return cols.index
    inv_id, inv_call, inv_ret, inv_fn = build_invocations(cols)
    from .cdg import build_index as build_cdg

    cd_map = build_cdg(cols)._cd
    src, tgt = build_edges(cols, inv_id, inv_call, cd_map, DEFAULT_OPTIONS)
    cols.index = SliceIndex(
        inv_id=inv_id,
        inv_call=inv_call,
        inv_ret=inv_ret,
        inv_fn=inv_fn,
        edge_src=src,
        edge_tgt=tgt,
    )
    return cols.index


# --------------------------------------------------------------------- #
# Seeds, closure, RET post-pass                                         #
# --------------------------------------------------------------------- #


def _resolve_seeds(
    cols: ColumnarTrace,
    crit_by_index: Dict[int, object],
    include_syscalls: bool,
    window_end: Optional[int],
) -> np.ndarray:
    """Record indices seeding the closure.

    A criterion's cell or register resolves to the latest non-RET writer
    at or *before* the criterion index (inclusive: the streaming pass
    applies criteria before processing the record itself); syscall seeds
    are the SYSCALL records inside the window.
    """
    n = len(cols)
    span = n + 1
    seeds: List[np.ndarray] = []

    cells: List[int] = []
    cell_at: List[int] = []
    regs: List[int] = []
    reg_tid: List[int] = []
    reg_at: List[int] = []
    for i, crit in crit_by_index.items():
        for cell in crit.cells:  # type: ignore[attr-defined]
            cells.append(cell)
            cell_at.append(i)
        for tid, reg in crit.regs:  # type: ignore[attr-defined]
            regs.append(reg)
            reg_tid.append(tid)
            reg_at.append(i)

    if cells:
        carr = np.array(cells, np.uint64)
        cached = cols._writer_tables.get("mem")
        if cached is not None:
            uaddr, wkeys, widx = cached
        else:
            # Build a writer table restricted to the criteria cells: far
            # cheaper than the full table when only seeds are needed (the
            # stored-index cold path never builds the full table).
            ucrit = distinct(carr)
            own = _pool_owners(cols.mw_off)
            keep = (cols.kind != _RET)[own]
            widx = own[keep]
            waddr = np.asarray(cols.mw)[keep]
            pos = np.searchsorted(ucrit, waddr)
            rel = pos < len(ucrit)
            rel &= ucrit[np.minimum(pos, max(len(ucrit) - 1, 0))] == waddr
            uaddr = ucrit
            widx = widx[rel]
            key = pos[rel].astype(np.int64) * span + widx
            order = np.argsort(key)
            wkeys = key[order]
            widx = widx[order]
        dense = np.searchsorted(uaddr, carr)
        present = dense < len(uaddr)
        present &= uaddr[np.minimum(dense, max(len(uaddr) - 1, 0))] == carr
        dense = dense[present].astype(np.int64)
        at = np.array(cell_at, np.int64)[present]
        hit, values = _nearest_before(
            wkeys, widx, dense, dense * span + at + 1, span
        )
        seeds.append(values[hit])

    if regs:
        utid, rkeys, rwidx = _reg_writer_table(cols)
        tarr = np.array(reg_tid, np.int64)
        dense = np.searchsorted(utid, tarr)
        present = dense < len(utid)
        present &= utid[np.minimum(dense, max(len(utid) - 1, 0))] == tarr
        bucket = dense[present] * 256 + np.array(regs, np.int64)[present]
        at = np.array(reg_at, np.int64)[present]
        hit, values = _nearest_before(
            rkeys, rwidx, bucket, bucket * span + at + 1, span
        )
        seeds.append(values[hit])

    if include_syscalls:
        sys_idx = np.nonzero(cols.kind == _SYSCALL)[0]
        if window_end is not None:
            sys_idx = sys_idx[sys_idx <= window_end]
        seeds.append(sys_idx.astype(np.int64))

    if not seeds:
        return np.zeros(0, np.int64)
    return distinct(np.concatenate(seeds))


#: Source records per block of :func:`_closure`.  Only one block's
#: in-block edges are Python ints at a time, so it bounds the walk's
#: memory.  On bing, blocks of 256-2048 records walk equally fast;
#: larger ones walk more edges one by one and are slower.
CLOSURE_BLOCK = 1 << 10


def _closure(
    n: int, seeds: np.ndarray, src: np.ndarray, tgt: np.ndarray
) -> bytearray:
    """Reachability over the descending-source edge stream, by blocks.

    The sources are cut into blocks of :data:`CLOSURE_BLOCK` records,
    visited from the highest down; the stream holds each block's edges
    in one run.  Every edge targets a strictly lower record, so when a
    block starts, every edge from a higher block has been applied and
    the block's flags can still rise only through its own edges.  The
    edges whose target lies inside the block are walked in stream order
    (descending source), so each source's flag is final before its own
    edges fire.  Then the block's flags are final, and its edges to
    lower blocks fire as one gather and scatter.  A block with no flag
    set has nothing to fire.  The flags are those of one walk over the
    whole stream.
    """
    flags = bytearray(n)
    view = np.frombuffer(flags, np.uint8)  # writes through to ``flags``
    view[seeds] = 1
    block = CLOSURE_BLOCK
    # Cuts at every multiple of the block size from n (rounded up) down
    # to 0.  The edges with a source >= a cut are a prefix of the
    # stream; the reversed view ascends, and searchsorted does not copy it.
    cuts = np.arange(-(-n // block) * block, -1, -block)
    ends = (len(src) - np.searchsorted(src[::-1], cuts)).tolist()
    bounds = cuts.tolist()
    for hi, lo, first, last in zip(bounds, bounds[1:], ends, ends[1:]):
        if first == last or not view[lo:hi].any():
            continue
        s = src[first:last]
        t = tgt[first:last]
        inside = t >= lo
        for x, y in zip(s[inside].tolist(), t[inside].tolist()):
            if flags[x]:
                flags[y] = 1
        below = ~inside
        view[t[below][view[s[below]] != 0]] = 1
    return flags


def _flag_needed_rets(
    flags: bytearray,
    notret: np.ndarray,
    inv_id: np.ndarray,
    inv_call: np.ndarray,
    inv_ret: np.ndarray,
) -> None:
    """Flag the RET of every needed invocation that has a CALL in trace.

    RETs never generate dependences of their own (the streaming pass
    skips them before gen/kill), so this is a pure post-pass.
    """
    flagged = np.frombuffer(bytes(flags), np.uint8).astype(bool)
    needed = distinct(inv_id[np.nonzero(flagged & notret)[0]])
    needed = needed[needed >= 0]
    rets = inv_ret[needed]
    rets = rets[(rets >= 0) & (inv_call[needed] >= 0)]
    for r in rets.tolist():
        flags[r] = 1


# --------------------------------------------------------------------- #
# The engine                                                            #
# --------------------------------------------------------------------- #


class VectorizedSlicer:
    """Array-join backward slicer (engine name ``"vectorized"``).

    Runs on a :class:`ColumnarTrace`; ``Profiler`` converts a row store
    once and passes the kept columns.  ``cdi``/``cdi_provider`` supply the
    control-dependence index lazily: a trace carrying a stored slice
    index under default options never needs it (the cold-path win), while
    ablations and index-less traces resolve it on demand.
    """

    def __init__(
        self,
        trace: ColumnarTrace,
        cdi: Optional[ControlDependenceIndex] = None,
        criteria: Optional[SlicingCriteria] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
        cdi_provider=None,
    ) -> None:
        if criteria is None:
            raise ValueError("criteria are required")
        self._cols = trace
        self._cdi = cdi
        self._cdi_provider = cdi_provider
        self._criteria = criteria
        self._options = options

    def _cd_map(self) -> Dict[int, Tuple[int, ...]]:
        if self._cdi is None:
            if self._cdi_provider is not None:
                self._cdi = self._cdi_provider()
            else:
                from .cdg import build_index

                self._cdi = build_index(self._cols)
        return self._cdi._cd

    def run(self) -> SliceResult:
        cols = self._cols
        n = len(cols)
        criteria = self._criteria
        options = self._options
        crit_by_index = criteria.by_index()

        # -- dependence structure (stored index or rebuilt) ------------- #
        index = cols.index
        default_edges = (
            options.control_dependences and options.call_site_dependences
        )
        if index is not None:
            inv_id = index.inv_id
            inv_call = index.inv_call
            inv_ret = index.inv_ret
        else:
            inv_id, inv_call, inv_ret, _inv_fn = build_invocations(cols)
        if index is not None and default_edges:
            src, tgt = index.edge_src, index.edge_tgt
            stored = True
        else:
            cd_map = self._cd_map() if options.control_dependences else {}
            src, tgt = build_edges(cols, inv_id, inv_call, cd_map, options)
            stored = False

        # -- seeds + closure + RET post-pass ---------------------------- #
        seeds = _resolve_seeds(
            cols, crit_by_index, criteria.include_syscalls, criteria.window_end
        )
        flags = _closure(n, seeds, src, tgt)
        if options.call_site_dependences:
            _flag_needed_rets(flags, cols.kind != _RET, inv_id, inv_call, inv_ret)

        result = SliceResult(criteria_name=criteria.name, flags=flags)
        result.visited = n
        result.engine_stats = {
            "engine": "vectorized",
            "records": n,
            "edges": int(len(src)),
            "seeds": int(len(seeds)),
            "stored_index": stored,
        }
        return result
