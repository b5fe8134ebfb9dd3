"""The stack-reconstruction kernels: vectorised and sequential.

Stage 3's hot loop is turning one thread's call/return events into
:class:`CallRecord`\\ s.  This module holds both implementations of
that loop plus the structure-of-arrays result type they meet in:

* :func:`reconstruct_vector` — the **vectorised kernel**.  For a clean
  shard (every return matches the frame that the nesting structure
  says it should), the whole reconstruction is a handful of numpy
  passes: depth is a ±1 cumulative sum over the event kinds, the k-th
  return at each depth level pairs with the k-th call at that level
  (a stable argsort by ``(depth, position)`` on both sides), parents
  come from a ``searchsorted`` against the enclosing level's call
  positions, and inclusive/exclusive ticks are per-call subtractions
  plus one scatter-add of child inclusives onto parents.  No
  per-entry Python at all.  Shards whose pairing shows an anomaly —
  a return that would close the wrong frame, a stack that goes
  negative, a truncated tail — return ``None`` and the caller falls
  back to the sequential loop below, which implements the paper's
  full robustness rules.
* :func:`reconstruct_python` — the sequential, entry-at-a-time loop:
  the fallback for anomalous shards and the whole of
  ``engine="python"``.  The vector kernel is tested field-for-field
  against it.
* :class:`RecordColumns` — the columnar result: one array per record
  field with interned method and call-path ids, mirroring
  :class:`~repro.core.log.LogColumns`.  :class:`CallRecord` objects
  are only materialised on demand, so aggregation, folding and frame
  construction never pay the per-record object cost.
* :func:`run_shard` — one shard through the chosen engine, with the
  vector kernel's fallback to the sequential loop.  It is
  thread-safe: the analyzer runs ``jobs=N`` shards on a thread pool
  that shares one symbol cache.

Equivalence note: a shard is *clean* exactly when its kinds form a
balanced Dyck word (the running ±1 sum never dips below zero and ends
at zero) and the structurally paired call/return addresses are equal.
Under those conditions the sequential loop takes its fast branch
(return matches the open stack's top) at every step, closes frames in
return order, truncates nothing and dismisses nothing — which is
precisely what the vectorised passes compute.
"""

from dataclasses import dataclass

import numpy as _np

from repro.core.log import KIND_CALL

#: The analyzer's engine knob; ``"auto"`` means ``"vector"``.
ENGINES = ("auto", "vector", "python")


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
        """The call path for one path id, as the sequential loop's
        tuple — memoised, so equal paths share one tuple object."""
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

    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records):
        """Columnise a sequential reconstructor's record list (the
        sequential shard's bridge into the columnar merge).  The
        original records are kept as the materialisation cache, so
        converting costs no later rebuild."""
        name_id = {}
        methods = []
        by_tuple = {(): -1}
        paths = []

        def intern_name(name):
            mid = name_id.get(name)
            if mid is None:
                mid = name_id[name] = len(methods)
                methods.append(name)
            return mid

        def intern_path(path):
            pid = by_tuple.get(path)
            if pid is None:
                parent = intern_path(path[:-1])
                pid = len(paths)
                paths.append((parent, intern_name(path[-1])))
                by_tuple[path] = pid
            return pid

        n = len(records)
        method_id = _np.empty(n, dtype=_np.int64)
        tid = _np.empty(n, dtype=_np.uint64)
        enter = _np.empty(n, dtype=_np.int64)
        exit_ = _np.empty(n, dtype=_np.int64)
        inclusive = _np.empty(n, dtype=_np.int64)
        exclusive = _np.empty(n, dtype=_np.int64)
        depth = _np.empty(n, dtype=_np.int64)
        caller_id = _np.empty(n, dtype=_np.int64)
        path_id = _np.empty(n, dtype=_np.int64)
        truncated = _np.empty(n, dtype=bool)
        for i, r in enumerate(records):
            method_id[i] = intern_name(r.method)
            tid[i] = r.tid
            enter[i] = r.enter
            exit_[i] = r.exit
            inclusive[i] = r.inclusive
            exclusive[i] = r.exclusive
            depth[i] = r.depth
            caller_id[i] = intern_name(r.caller) if r.caller is not None else -1
            path_id[i] = intern_path(r.path)
            truncated[i] = r.truncated
        out = cls(method_id, tid, enter, exit_, inclusive, exclusive,
                  depth, caller_id, path_id, truncated, methods, paths)
        out._records = list(records)
        return out

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


def reconstruct_vector(tid, kinds, counters, addrs, call_sites, offset,
                       cache):
    """Reconstruct one clean shard in whole-array passes.

    Inputs are the shard's four columns (numpy ``uint64`` arrays;
    ``call_sites`` is ``None`` for v1 logs) and the shared symbol
    cache.  Returns ``(columns, mismatches, resolutions_requested,
    resolutions_performed)`` — the last two feed the pipeline's
    cache-hit accounting, because the kernel resolves each *unique*
    address once where the sequential loop resolves every call event
    — or ``None`` when the shard is anomalous and must take the
    sequential fallback (unmatched returns, cross-frame closes,
    truncated tails).
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
    call_depth = depth_after[call_pos] - 1  # enclosing frames per call
    ret_depth = depth_after[ret_pos]  # level each return closes down to
    # Pair the k-th return to the k-th call within each depth level:
    # stable argsort groups by depth and keeps log order inside a
    # level, and a balanced non-negative kind sequence guarantees the
    # blocks align one-to-one.
    order_c = _np.argsort(call_depth, kind="stable")
    order_r = _np.argsort(ret_depth, kind="stable")
    if not _np.array_equal(
        addrs[call_pos[order_c]], addrs[ret_pos[order_r]]
    ):
        return None  # a return would close a different frame
    ret_of_call = _np.empty(n_calls, dtype=_np.int64)
    ret_of_call[order_c] = ret_pos[order_r]

    # Parents: for a call at depth d, the latest depth-(d-1) call
    # before it (searchsorted over the enclosing level's positions).
    call_index_of_pos = _np.empty(n, dtype=_np.int64)
    call_index_of_pos[call_pos] = _np.arange(n_calls)
    parent_idx = _np.full(n_calls, -1, dtype=_np.int64)
    max_depth = int(call_depth.max()) if n_calls else 0
    prev_positions = call_pos[call_depth == 0]
    for d in range(1, max_depth + 1):
        sel = _np.nonzero(call_depth == d)[0]
        here = call_pos[sel]
        slot = _np.searchsorted(prev_positions, here, side="right") - 1
        parent_idx[sel] = call_index_of_pos[prev_positions[slot]]
        prev_positions = here

    # Symbolisation: one resolve per unique address, fanned back out.
    uniq_addrs, addr_inv = _np.unique(addrs[call_pos], return_inverse=True)
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
            uniq_cs, cs_inv = _np.unique(cs[checked], return_inverse=True)
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
    # the accumulation order matches the sequential loop's).
    counters = _np.asarray(counters).astype(_np.int64, copy=False)
    enter = counters[call_pos]
    exit_ = counters[ret_of_call]
    inclusive = _np.maximum(exit_ - enter, 0)
    child_sum = _np.zeros(n_calls, dtype=_np.int64)
    nested = _np.nonzero(call_depth > 0)[0]
    _np.add.at(child_sum, parent_idx[nested], inclusive[nested])
    exclusive = _np.maximum(inclusive - child_sum, 0)
    caller_id = _np.where(
        call_depth > 0, addr_mid[addr_inv[_np.maximum(parent_idx, 0)]],
        _np.int64(-1),
    )

    # Path interning, one level at a time: a node is (parent path,
    # method); np.unique over a combined integer key dedupes a whole
    # level in one pass.  Parents are interned before children.
    path_id = _np.empty(n_calls, dtype=_np.int64)
    paths = []
    width = len(methods) + 1
    for d in range(0, max_depth + 1):
        sel = _np.nonzero(call_depth == d)[0]
        if d:
            parent_pid = path_id[parent_idx[sel]]
        else:
            parent_pid = _np.full(len(sel), -1, dtype=_np.int64)
        key = (parent_pid + 1) * width + mid_arr[sel]
        uniq_key, key_inv = _np.unique(key, return_inverse=True)
        base = len(paths)
        for k in uniq_key.tolist():
            paths.append((int(k // width) - 1, int(k % width)))
        path_id[sel] = base + key_inv

    # Records appear in close order — exactly the sequential loop's
    # append order for a clean shard.
    order = _np.argsort(ret_of_call, kind="stable")
    columns = RecordColumns(
        method_id=mid_arr[order],
        tid=_np.full(n_calls, tid, dtype=_np.uint64),
        enter=enter[order],
        exit=exit_[order],
        inclusive=inclusive[order],
        exclusive=exclusive[order],
        depth=call_depth[order],
        caller_id=caller_id[order],
        path_id=path_id[order],
        truncated=_np.zeros(n_calls, dtype=bool),
        methods=methods,
        paths=paths,
    )
    return columns, mismatches, requested, performed


# ======================================================================
# The sequential loop


class _OpenFrame:
    __slots__ = ("addr", "method", "enter", "child_ticks", "call_site",
                 "path")

    def __init__(self, addr, method, enter, call_site=0, path=()):
        self.addr = addr
        self.method = method
        self.enter = enter
        self.child_ticks = 0
        self.call_site = call_site
        self.path = path


def reconstruct_python(tid, kinds, counters, addrs, call_sites, offset,
                       cache):
    """The sequential, entry-at-a-time reconstruction loop.

    Implements the paper's full robustness rules (truncate frames left
    open, close intermediates when a return matches a deeper frame,
    dismiss unmatched returns), so it takes every shard the vector
    kernel declines.  Path
    tuples are interned — records sharing a call path share one tuple
    object — which cuts resident memory on deep, hot call sites
    without changing any record's value.
    """
    stack = []
    records = []
    unmatched = 0
    mismatches = 0
    interned = {}
    last_counter = counters[-1] if len(counters) else 0

    def close(frame, at, truncated):
        inclusive = max(0, at - frame.enter)
        exclusive = max(0, inclusive - frame.child_ticks)
        if stack:
            stack[-1].child_ticks += inclusive
        records.append(
            CallRecord(
                method=frame.method,
                tid=tid,
                enter=frame.enter,
                exit=at,
                inclusive=inclusive,
                exclusive=exclusive,
                depth=len(stack),
                caller=stack[-1].method if stack else None,
                path=frame.path,
                truncated=truncated,
            )
        )

    if call_sites is None:
        iterator = zip(kinds, counters, addrs)
        call_sites_absent = True
    else:
        iterator = zip(kinds, counters, addrs, call_sites)
        call_sites_absent = False
    for fields in iterator:
        if call_sites_absent:
            kind, counter, addr = fields
            call_site = 0
        else:
            kind, counter, addr, call_site = fields
        if kind == KIND_CALL:
            # v2 logs carry the call site; cross-check it against the
            # stack-derived caller (a log-integrity diagnostic).
            if call_site and stack:
                expected = resolve_name(cache, call_site, offset)
                if expected != stack[-1].method:
                    mismatches += 1
            method = resolve_name(cache, addr, offset)
            parent_path = stack[-1].path if stack else ()
            path = parent_path + (method,)
            path = interned.setdefault(path, path)
            stack.append(_OpenFrame(addr, method, counter, call_site, path))
            continue
        # A return: match against the open stack.
        if stack and stack[-1].addr == addr:
            close(stack.pop(), counter, truncated=False)
        elif any(f.addr == addr for f in stack):
            while stack[-1].addr != addr:
                close(stack.pop(), counter, truncated=True)
            close(stack.pop(), counter, truncated=False)
        else:
            unmatched += 1
    while stack:
        close(stack.pop(), last_counter, truncated=True)
    return records, unmatched, mismatches


# ======================================================================
# Shard execution


@dataclass
class ShardOutcome:
    """What one shard's reconstruction produced, however it ran."""

    columns: RecordColumns
    unmatched: int = 0
    mismatches: int = 0
    vectorised: bool = False
    #: Entry-level resolutions the vector kernel answered from its
    #: unique-address pass — counted as cache hits, since the
    #: sequential loop would have taken them from the LRU.
    synthetic_hits: int = 0


def run_shard(tid, kinds, counters, addrs, call_sites, offset, cache,
              engine):
    """Reconstruct one shard (numpy ``uint64`` columns) with the
    resolved engine ("vector" or "python").

    The vector engine transparently falls back to the sequential loop
    on anomalous shards; either way the result is a
    :class:`RecordColumns`.
    """
    if engine == "vector":
        out = reconstruct_vector(
            tid, kinds, counters, addrs, call_sites, offset, cache
        )
        if out is not None:
            columns, mismatches, requested, performed = out
            return ShardOutcome(
                columns=columns,
                mismatches=mismatches,
                vectorised=True,
                synthetic_hits=requested - performed,
            )
    records, unmatched, mismatches = reconstruct_python(
        tid, kinds.tolist(), counters.tolist(), addrs.tolist(),
        call_sites.tolist() if call_sites is not None else None,
        offset, cache,
    )
    return ShardOutcome(
        columns=RecordColumns.from_records(records),
        unmatched=unmatched,
        mismatches=mismatches,
    )
