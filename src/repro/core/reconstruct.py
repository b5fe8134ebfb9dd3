"""Stack reconstruction: one vectorised kernel and the paper's rules.

Stage 3's hot loop is turning one thread's call/return events into
:class:`CallRecord`\\ s.  This module holds that loop and the
structure-of-arrays result type it produces:

* :func:`reconstruct_vector` — the kernel.  For a clean shard (every
  return matches the frame that the nesting structure says it should),
  the whole reconstruction is a handful of numpy passes: depth is a ±1
  cumulative sum over the event kinds, the k-th return at each depth
  level pairs with the k-th call at that level (a stable radix
  argsort of narrow depth keys on both sides, which keeps log order
  inside a level), each level is one slice of that call order,
  parents come from a ``searchsorted`` of each level against the one
  above, the close order is the pairing inverted, and
  inclusive/exclusive ticks are per-call subtractions plus one
  scatter-add of child inclusives onto parents.  Call addresses and
  each level's path keys, ``(parent path - first path of the level
  above) * methods + method``, are grouped by :func:`group_keys`.  No
  per-entry Python at all.  A shard whose pairing shows an anomaly — a
  return that would close the wrong frame, a stack that goes negative,
  a truncated tail — returns ``None``.
* :func:`group_keys` — ``np.unique(keys, return_inverse=True)`` that
  counts keys dense by construction in a presence table over their
  span, and sorts sparser ones.
* :func:`balance` — the paper's robustness rules, in the one place
  they live: it rewrites one thread's events into a clean sequence by
  dropping returns that match no open frame, closing the frames in
  between when a return matches a deeper frame, and closing frames
  left open at the thread's last counter.  The closes it adds are
  *synthetic* returns, and the records they close come out
  ``truncated``.  Entries before the first anomaly pass through as
  they are (one pairing pass finds it), so the per-entry walk starts
  there.  :func:`repro.core.recovery.repair_tails` applies the same
  function to write a balanced log.
* :class:`RecordColumns` — the columnar result: one array per record
  field with interned method and call-path ids, mirroring
  :class:`~repro.core.log.LogColumns`.  :class:`CallRecord` objects
  are only materialised on demand, so aggregation, folding and frame
  construction never pay the per-record object cost.
* :func:`run_shard` — one shard through the kernel; an anomalous
  shard is balanced once and then goes through the same kernel.  It
  is thread-safe: the analyzer runs ``jobs=N`` shards on a thread pool
  that shares one symbol cache.

Equivalence note: a shard is *clean* exactly when its kinds form a
balanced Dyck word (the running ±1 sum never dips below zero and ends
at zero) and the structurally paired call/return addresses are equal.
Under those conditions every return closes the open stack's top, so
frames close in return order and nothing is truncated or dismissed —
which is precisely what the vectorised passes compute, and what
:func:`balance` produces from any input.
"""

from dataclasses import dataclass

import numpy as _np

from repro.core.log import KIND_CALL, KIND_RET


@dataclass(frozen=True)
class CallRecord:
    """One completed (or truncated) method invocation."""

    method: str
    tid: int
    enter: int
    exit: int
    inclusive: int
    exclusive: int
    depth: int
    caller: str
    path: tuple
    truncated: bool = False


def resolve_name(cache, runtime_addr, offset):
    """Resolve a runtime address to its demangled name (or the
    analyzer's ``[unknown 0x...]`` placeholder) through the cache."""
    symbol = cache.resolve(runtime_addr - offset)
    if symbol is None:
        return f"[unknown {runtime_addr:#x}]"
    return symbol.pretty


# ======================================================================
# The columnar record set


class RecordColumns:
    """A reconstructed shard (or whole profile) as structure-of-arrays.

    One ``int64``/``uint64``/``bool`` array per :class:`CallRecord`
    field, plus two interning tables:

    * ``methods`` — method-name strings; ``method_id``/``caller_id``
      index it (``caller_id == -1`` encodes a root frame's ``None``);
    * ``paths`` — the call-path tree as ``(parent_path_id,
      method_id)`` nodes, parents always preceding children;
      ``path_id`` indexes it and ``-1`` is the empty root.  Path
      *tuples* are materialised lazily and memoised, so every record
      sharing a call path shares one tuple object.

    Records are materialised only by :meth:`records` (cached) — bulk
    consumers (method aggregation, flame-graph folding, the query
    frames) read the arrays directly.
    """

    __slots__ = (
        "method_id",
        "tid",
        "enter",
        "exit",
        "inclusive",
        "exclusive",
        "depth",
        "caller_id",
        "path_id",
        "truncated",
        "methods",
        "paths",
        "_tuples",
        "_records",
    )

    def __init__(self, method_id, tid, enter, exit, inclusive, exclusive,
                 depth, caller_id, path_id, truncated, methods, paths):
        self.method_id = method_id
        self.tid = tid
        self.enter = enter
        self.exit = exit
        self.inclusive = inclusive
        self.exclusive = exclusive
        self.depth = depth
        self.caller_id = caller_id
        self.path_id = path_id
        self.truncated = truncated
        self.methods = methods
        self.paths = paths
        self._tuples = {}
        self._records = None

    def __len__(self):
        return len(self.method_id)

    @classmethod
    def empty(cls):
        i64 = _np.empty(0, dtype=_np.int64)
        return cls(
            i64, _np.empty(0, dtype=_np.uint64), i64, i64, i64, i64, i64,
            i64, i64, _np.empty(0, dtype=bool), [], [],
        )

    def path_tuple(self, pid):
        """The call path for one path id as a tuple of method names,
        root first — memoised, so equal paths share one tuple object."""
        cached = self._tuples.get(pid)
        if cached is not None:
            return cached
        chain = []
        node = pid
        while node >= 0 and node not in self._tuples:
            chain.append(node)
            node = self.paths[node][0]
        prefix = self._tuples[node] if node >= 0 else ()
        methods = self.methods
        for node in reversed(chain):
            prefix = prefix + (methods[self.paths[node][1]],)
            self._tuples[node] = prefix
        return prefix

    def records(self):
        """Materialise the full :class:`CallRecord` list (cached)."""
        if self._records is None:
            methods = self.methods
            path_tuple = self.path_tuple
            mids = self.method_id.tolist()
            tids = self.tid.tolist()
            enters = self.enter.tolist()
            exits = self.exit.tolist()
            incls = self.inclusive.tolist()
            excls = self.exclusive.tolist()
            depths = self.depth.tolist()
            callers = self.caller_id.tolist()
            pids = self.path_id.tolist()
            truncs = self.truncated.tolist()
            self._records = [
                CallRecord(
                    method=methods[mids[i]],
                    tid=tids[i],
                    enter=enters[i],
                    exit=exits[i],
                    inclusive=incls[i],
                    exclusive=excls[i],
                    depth=depths[i],
                    caller=methods[callers[i]] if callers[i] >= 0 else None,
                    path=path_tuple(pids[i]),
                    truncated=truncs[i],
                )
                for i in range(len(mids))
            ]
        return self._records

    def __iter__(self):
        return iter(self.records())

    def __repr__(self):
        return (
            f"RecordColumns({len(self)} records, "
            f"{len(self.methods)} methods, {len(self.paths)} paths)"
        )

    @classmethod
    def concat(cls, parts):
        """Concatenate shard columns, re-interning the method and
        path tables into one shared namespace (id remaps are single
        fancy-indexing passes per shard)."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        name_id = {}
        methods = []
        node_id = {}
        paths = []
        cols = {n: [] for n in ("method_id", "tid", "enter", "exit",
                                "inclusive", "exclusive", "depth",
                                "caller_id", "path_id", "truncated")}
        for part in parts:
            mmap = _np.empty(max(len(part.methods), 1), dtype=_np.int64)
            for old, name in enumerate(part.methods):
                mid = name_id.get(name)
                if mid is None:
                    mid = name_id[name] = len(methods)
                    methods.append(name)
                mmap[old] = mid
            pmap = _np.empty(max(len(part.paths), 1), dtype=_np.int64)
            for old, (parent, mid) in enumerate(part.paths):
                key = (
                    int(pmap[parent]) if parent >= 0 else -1,
                    int(mmap[mid]),
                )
                npid = node_id.get(key)
                if npid is None:
                    npid = node_id[key] = len(paths)
                    paths.append(key)
                pmap[old] = npid
            cols["method_id"].append(mmap[part.method_id])
            cols["caller_id"].append(
                _np.where(
                    part.caller_id >= 0,
                    mmap[_np.maximum(part.caller_id, 0)],
                    _np.int64(-1),
                )
            )
            cols["path_id"].append(pmap[part.path_id])
            for name in ("tid", "enter", "exit", "inclusive",
                         "exclusive", "depth", "truncated"):
                cols[name].append(getattr(part, name))
        merged = {n: _np.concatenate(v) for n, v in cols.items()}
        return cls(
            merged["method_id"], merged["tid"], merged["enter"],
            merged["exit"], merged["inclusive"], merged["exclusive"],
            merged["depth"], merged["caller_id"], merged["path_id"],
            merged["truncated"], methods, paths,
        )


# ======================================================================
# The vectorised kernel


def group_keys(keys):
    """``np.unique(keys, return_inverse=True)`` for ``uint64`` or
    ``int64`` keys: the sorted unique keys, in the keys' dtype, and
    each key's index among them.

    Stage 3's keys are mostly dense by construction (call addresses
    from a compact text layout, level-relative path keys, method x
    thread pairs), so a span of at most a few slots per key is counted
    instead of sorted: a boolean table over the span marks the keys
    that occur, ``flatnonzero`` lists them in order, and a rank table
    over the span gives each key its index.  Sparser keys, such as
    arbitrary 64-bit addresses in a damaged log, take the sort.
    """
    if len(keys):
        lo = keys.min()
        span = int(keys.max()) - int(lo) + 1
        if span <= 4 * len(keys) + 4096:
            offset = (keys - lo).astype(_np.intp)
            present = _np.zeros(span, dtype=bool)
            present[offset] = True
            slots = _np.flatnonzero(present)
            rank = _np.empty(span, dtype=_np.intp)
            rank[slots] = _np.arange(len(slots))
            return slots.astype(keys.dtype) + lo, rank[offset]
    return _np.unique(keys, return_inverse=True)


def reconstruct_vector(tid, kinds, counters, addrs, call_sites, offset,
                       cache, synthetic=None):
    """Reconstruct one clean shard in whole-array passes.

    Inputs are the shard's four columns (numpy ``uint64`` arrays;
    ``call_sites`` is ``None`` for v1 logs), the shared symbol cache
    and, for a shard :func:`balance` rewrote, its ``synthetic`` mask:
    a record closed by a synthetic return is ``truncated``.  Returns
    ``(columns, mismatches, resolutions_requested,
    resolutions_performed)`` — the last two feed the pipeline's
    cache-hit accounting, because the kernel resolves each *unique*
    address once where a per-event loop would resolve every call
    event — or ``None`` when the shard is anomalous and must be
    balanced first (unmatched returns, cross-frame closes, truncated
    tails).
    """
    n = len(kinds)
    if n == 0:
        return RecordColumns.empty(), 0, 0, 0
    kinds = _np.asarray(kinds).astype(_np.int64, copy=False)
    # Depth via the ±1 cumulative sum: a call pushes, a return pops.
    depth_after = _np.cumsum(1 - 2 * kinds)
    if int(depth_after.min()) < 0 or int(depth_after[-1]) != 0:
        return None  # unmatched return / truncated tail
    is_call = kinds == KIND_CALL
    call_pos = _np.nonzero(is_call)[0]
    ret_pos = _np.nonzero(~is_call)[0]
    n_calls = len(call_pos)
    addrs = _np.asarray(addrs)
    call_addr = addrs[call_pos]
    call_depth = depth_after[call_pos] - 1  # enclosing frames per call
    ret_depth = depth_after[ret_pos]  # level each return closes down to
    # Level d holds bounds[d]:bounds[d + 1] of the depth-sorted calls.
    bounds = _np.concatenate(([0], _np.cumsum(_np.bincount(call_depth))))
    max_depth = len(bounds) - 2
    # Pair the k-th return to the k-th call within each depth level:
    # a stable argsort groups by depth and keeps log order inside a
    # level, and a balanced non-negative kind sequence guarantees the
    # blocks align one-to-one.  Keys in the narrowest unsigned type
    # that holds the deepest level sort by radix up to 16 bits.
    key_type = _np.min_scalar_type(max_depth)
    order_c = _np.argsort(call_depth.astype(key_type), kind="stable")
    order_r = _np.argsort(ret_depth.astype(key_type), kind="stable")
    if not _np.array_equal(call_addr[order_c], addrs[ret_pos[order_r]]):
        return None  # a return would close a different frame
    # Records appear in close order.  The return at slot j of its sort
    # closes the call at slot j of the other, so scattering the call
    # sort through the return sort lists the calls by closing return.
    order = _np.empty(n_calls, dtype=_np.intp)
    order[order_r] = order_c
    levels = [order_c[bounds[d]:bounds[d + 1]] for d in range(max_depth + 1)]
    nested = order_c[bounds[1]:]  # every call below a root

    # Parents: for a call at depth d, the latest depth-(d-1) call
    # before it.  Call indices grow with log position, so a
    # searchsorted of each level against the enclosing one finds it.
    parent_idx = _np.full(n_calls, -1, dtype=_np.intp)
    for prev, here in zip(levels, levels[1:]):
        slot = _np.searchsorted(prev, here, side="right") - 1
        parent_idx[here] = prev[slot]

    # Symbolisation: one resolve per unique address, fanned back out.
    uniq_addrs, addr_inv = group_keys(call_addr)
    name_id = {}
    methods = []
    addr_mid = _np.empty(len(uniq_addrs), dtype=_np.int64)
    performed = 0
    for k, runtime in enumerate(uniq_addrs.tolist()):
        name = resolve_name(cache, runtime, offset)
        performed += 1
        mid = name_id.get(name)
        if mid is None:
            mid = name_id[name] = len(methods)
            methods.append(name)
        addr_mid[k] = mid
    mid_arr = addr_mid[addr_inv]
    requested = n_calls

    # v2 call-site cross-check (the log-integrity diagnostic).
    mismatches = 0
    if call_sites is not None:
        cs = _np.asarray(call_sites)[call_pos]
        checked = _np.nonzero((cs != 0) & (call_depth > 0))[0]
        if len(checked):
            requested += len(checked)
            uniq_cs, cs_inv = group_keys(cs[checked])
            cs_mid = _np.empty(len(uniq_cs), dtype=_np.int64)
            for k, runtime in enumerate(uniq_cs.tolist()):
                name = resolve_name(cache, runtime, offset)
                performed += 1
                mid = name_id.get(name)
                if mid is None:
                    mid = name_id[name] = len(methods)
                    methods.append(name)
                cs_mid[k] = mid
            expected = cs_mid[cs_inv]
            actual = mid_arr[parent_idx[checked]]
            mismatches = int((expected != actual).sum())

    # Timing: inclusive per pair, exclusive after one scatter-add of
    # child inclusives onto parents (children always close first, so
    # the accumulation order is a stack walk's).
    counters = _np.asarray(counters).astype(_np.int64, copy=False)
    enter = counters[call_pos]
    exit_ = counters[ret_pos]  # in close order
    inclusive = _np.empty(n_calls, dtype=_np.int64)
    inclusive[order] = _np.maximum(exit_ - enter[order], 0)
    child_sum = _np.zeros(n_calls, dtype=_np.int64)
    nested_parent = parent_idx[nested]
    _np.add.at(child_sum, nested_parent, inclusive[nested])
    exclusive = _np.maximum(inclusive - child_sum, 0)
    caller_id = _np.full(n_calls, -1, dtype=_np.int64)
    caller_id[nested] = mid_arr[nested_parent]

    # Path interning, one level at a time: a node is (parent path,
    # method), keyed relative to the first path of the level above
    # (the root, -1, above level 0), so a level's keys span (paths
    # above) x (methods) and group in one pass.  The keys sort as
    # (parent, method) pairs, and parents are interned before children.
    path_id = _np.empty(n_calls, dtype=_np.int64)
    paths = []
    width = len(methods)
    above = -1
    for d, sel in enumerate(levels):
        key = mid_arr[sel]
        if d:
            key = key + (path_id[parent_idx[sel]] - above) * width
        uniq_key, key_inv = group_keys(key)
        path_id[sel] = len(paths) + key_inv
        parents = (uniq_key // width + above).tolist()
        above = len(paths)
        paths.extend(zip(parents, (uniq_key % width).tolist()))

    if synthetic is None:
        truncated = _np.zeros(n_calls, dtype=bool)
    else:
        truncated = synthetic[ret_pos]
    columns = RecordColumns(
        method_id=mid_arr[order],
        tid=_np.full(n_calls, tid, dtype=_np.uint64),
        enter=enter[order],
        exit=exit_,
        inclusive=inclusive[order],
        exclusive=exclusive[order],
        depth=ret_depth,  # a closed call's depth, in close order
        caller_id=caller_id[order],
        path_id=path_id[order],
        truncated=truncated,
        methods=methods,
        paths=paths,
    )
    return columns, mismatches, requested, performed


# ======================================================================
# The matching rules


def balance(kinds, counters, addrs, call_sites):
    """Rewrite one thread's events into a balanced sequence.

    The paper's robustness rules, applied in log order against the
    stack of open calls:

    * a return that matches no open frame is dropped and counted;
    * a return that matches a deeper frame gets synthetic returns for
      the frames in between, at its own counter;
    * frames still open at the end get synthetic returns at the
      thread's last counter.

    Every entry before the first anomaly (see :func:`_clean_prefix`)
    stands for itself, so the walk starts there, from the open stack
    that prefix leaves; a thread cut mid-call only has its open frames
    closed.

    Inputs are numpy ``uint64`` columns (``call_sites`` is ``None`` for
    v1 logs).  Returns ``(columns, synthetic, source, dropped)``: the
    balanced ``(kinds, counters, addrs, call_sites)`` (a synthetic
    return has call site 0), a bool mask of the synthetic returns, the
    input row each output row stands for (a synthetic return stands
    for the return it precedes, a closing one at the end for
    ``len(kinds)``), and the number of returns dropped.
    """
    n = len(kinds)
    start, open_rows = _clean_prefix(kinds, addrs)
    open_addrs = addrs[open_rows].tolist()  # innermost last
    open_rows = open_rows.tolist()
    source = []  # input row per output row past the prefix
    closes = {}  # output row of a synthetic return -> the call it closes
    dropped = 0
    for i, (kind, addr) in enumerate(
        zip(kinds[start:].tolist(), addrs[start:].tolist()), start
    ):
        if kind == KIND_CALL:
            open_rows.append(i)
            open_addrs.append(addr)
        elif open_addrs and open_addrs[-1] == addr:
            open_rows.pop()
            open_addrs.pop()
        elif addr in open_addrs:
            while open_addrs.pop() != addr:
                closes[start + len(source)] = open_rows.pop()
                source.append(i)
            open_rows.pop()
        else:
            dropped += 1
            continue
        source.append(i)
    while open_rows:
        closes[start + len(source)] = open_rows.pop()
        source.append(n)
    source = _np.concatenate((
        _np.arange(start, dtype=_np.int64),
        _np.asarray(source, dtype=_np.int64),
    ))
    synthetic = _np.zeros(len(source), dtype=bool)
    synthetic[list(closes)] = True
    row = _np.minimum(source, n - 1)  # a closing row reads the last counter
    out_kinds = kinds[row]
    out_kinds[synthetic] = KIND_RET
    out_addrs = addrs[row]
    out_addrs[synthetic] = addrs[list(closes.values())]
    if call_sites is not None:
        call_sites = call_sites[row]
        call_sites[synthetic] = 0
    columns = (out_kinds, counters[row], out_addrs, call_sites)
    return columns, synthetic, source, dropped


def _clean_prefix(kinds, addrs):
    """How many of one thread's events come before the first anomaly,
    and the input rows of the calls open there, outermost first.

    The first anomaly is the first return with no open frame (the
    depth goes negative) or whose structurally paired call has another
    address.  Up to there, the entries that leave or reach one depth
    level alternate call, return, call, ...: a stable sort by that
    level puts each return right after the call it closes, and an
    open level's frame is its one unpaired call.
    """
    is_call = kinds == KIND_CALL
    depth_after = _np.cumsum(_np.where(is_call, 1, -1))
    negative = _np.flatnonzero(depth_after < 0)
    end = int(negative[0]) if len(negative) else len(kinds)
    level = depth_after[:end] - is_call[:end]
    open_calls = is_call[:end].copy()
    if end:
        key_type = _np.min_scalar_type(int(level.max()))
        order = _np.argsort(level.astype(key_type), kind="stable")
        slots = _np.flatnonzero(~is_call[order])
        ret_rows, call_rows = order[slots], order[slots - 1]
        wrong = _np.flatnonzero(addrs[call_rows] != addrs[ret_rows])
        if len(wrong):
            end = int(ret_rows[wrong].min())
            call_rows = call_rows[ret_rows < end]
        open_calls[call_rows] = False
    return end, _np.flatnonzero(open_calls[:end])


# ======================================================================
# Shard execution


@dataclass
class ShardOutcome:
    """What one shard's reconstruction produced."""

    columns: RecordColumns
    unmatched: int = 0
    mismatches: int = 0
    #: True when the shard was anomalous and :func:`balance` rewrote
    #: it before the kernel ran.
    balanced: bool = False
    #: Entry-level resolutions the kernel answered from its
    #: unique-address pass — counted as cache hits, since a per-event
    #: lookup would have taken them from the LRU.
    synthetic_hits: int = 0


def run_shard(tid, kinds, counters, addrs, call_sites, offset, cache):
    """Reconstruct one shard (numpy ``uint64`` columns).

    A clean shard goes straight to the kernel; an anomalous one is
    balanced once and then goes to the same kernel.  Either way the
    result is a :class:`RecordColumns`.
    """
    out = reconstruct_vector(
        tid, kinds, counters, addrs, call_sites, offset, cache
    )
    balanced = out is None
    dropped = 0
    if balanced:
        columns, synthetic, _, dropped = balance(
            kinds, counters, addrs, call_sites
        )
        out = reconstruct_vector(
            tid, *columns, offset, cache, synthetic=synthetic
        )
    columns, mismatches, requested, performed = out
    return ShardOutcome(
        columns=columns,
        unmatched=dropped,
        mismatches=mismatches,
        balanced=balanced,
        synthetic_hits=requested - performed,
    )
