"""Seeded input generators for the end-to-end benchmark.

Every input the benchmark feeds TEE-Perf is made here, and every
generator takes the seed as its first argument: the same seed gives
the same program text, the same log bytes and the same segment mix.
The program under test receives only these artefacts (a Python
module's source, log images on disk or on the wire, a symbol table);
what the generator *expects* of TEE-Perf's output travels separately,
so the benchmark can check every result.

Three generators:

* :func:`program_source` — a pure-Python module: a call DAG of a few
  hundred functions, 6-10 levels deep, with seeded per-call work;
* :func:`synthetic_log` — a multi-thread log built straight as
  columns (for the offline path and the fleet segments), optionally
  with one thread stopping mid-call and with a torn, unsealed tail;
* :func:`fleet_segments` — the producer's segment mix: sealed rev 1.1
  images, about one in four rev 1.2, about one in eight torn.
"""

import random

import numpy as np

from repro.core.columnar import encode_log
from repro.core.log import KIND_CALL, KIND_RET, SharedLog
from repro.symbols import BinaryImage, mangle

#: A seed kept out of every tuning run: a later claim of a gain must
#: also hold on it (choosing-metrics guide, section 6).
HELD_OUT_SEED = 7919

#: Entries per interleaving block in a synthetic log: the live
#: recorder's batched writers commit 256-entry blocks, so a real
#: multi-thread log interleaves threads at that grain.
INTERLEAVE = 256

#: Entries per sealed segment when a synthetic log is written sealed.
SEAL_BLOCK = 4096


# ----------------------------------------------------------------------
# Call DAGs


class CallDag:
    """A seeded layered call DAG of fixed shape.

    `depth` levels; level 0 holds the 4 roots and lower levels widen
    towards the leaves.  Every function above the leaves calls exactly
    `fanout` distinct functions of the next level, and every function
    below level 0 has at least one caller, so every function runs.
    The seed decides the wiring and each function's per-call work
    (``work[f]`` loop iterations), never the shape: one call of any
    root makes the same number of calls along the same number of
    distinct paths whatever the seed, so the cost of a run does not
    depend on which seed the benchmark was given.
    """

    def __init__(self, seed, n_funcs=240, depth=8, fanout=2):
        rng = random.Random(seed)
        n_roots = 4
        rest = n_funcs - n_roots
        weights = range(1, depth)
        sizes = [rest * w // sum(weights) for w in weights]
        sizes[-1] += rest - sum(sizes)
        self.levels = [list(range(n_roots))]
        for size in sizes:
            start = len(self.levels[-1]) + self.levels[-1][0]
            self.levels.append(list(range(start, start + size)))
        self.n = n_funcs
        self.roots = self.levels[0]
        self.edges = [[] for _ in range(self.n)]
        for upper, lower in zip(self.levels, self.levels[1:]):
            if len(upper) * fanout < len(lower):
                raise ValueError(f"level of {len(lower)} functions cannot "
                                 f"all be called from {len(upper)}")
            # Callees are dealt from a reshuffled deck of the lower
            # level: the first pass gives every function a caller.
            deck = []
            for f in upper:
                while len(self.edges[f]) < fanout:
                    if not deck:
                        deck = list(lower)
                        rng.shuffle(deck)
                    callee = deck.pop()
                    if callee not in self.edges[f]:
                        self.edges[f].append(callee)
        self.work = [rng.randint(2, 4) for _ in range(self.n)]

    def subtree_calls(self):
        """Calls made by one invocation of each function, itself
        included."""
        calls = [1] * self.n
        for level in reversed(self.levels[:-1]):
            for f in level:
                calls[f] = 1 + sum(calls[c] for c in self.edges[f])
        return calls

    def calls_per_invocation(self, root):
        """How often one call of `root` calls each function."""
        counts = [0] * self.n
        counts[root] = 1
        for level in self.levels:
            for f in level:
                for callee in self.edges[f]:
                    counts[callee] += counts[f]
        return counts


# ----------------------------------------------------------------------
# The live program


def _fname(f):
    return f"f{f:03d}"


def program_source(seed, n_funcs=240, target_events=200_000, threads=2):
    """Source of a pure-Python module for the live-record phase.

    Returns ``(source, expected)``: ``expected`` holds ``reps`` (the
    argument for ``run``), ``calls`` (function name -> calls summed
    over all `threads`, ``run`` included) and ``events`` (entries one
    recorded run writes).  Each thread runs ``run(reps, acc)``; the
    return value is a checksum that must not change under recording.
    """
    dag = CallDag(seed, n_funcs)
    per_root = dag.subtree_calls()
    calls_per_rep = sum(per_root[r] for r in dag.roots)
    reps = max(1, round(target_events / (2 * threads * calls_per_rep)))
    lines = [f'"""Generated benchmark program (seed {seed})."""', ""]
    for f in range(dag.n):
        lines.append(f"def {_fname(f)}(acc):")
        lines.append(f"    for i in range({dag.work[f]}):")
        lines.append("        acc = (acc * 31 + i) & 0xFFFFFFFF")
        for callee in dag.edges[f]:
            lines.append(f"    acc = {_fname(callee)}(acc)")
        lines.append("    return acc")
        lines.append("")
    lines.append("def run(reps, acc):")
    lines.append("    for _ in range(reps):")
    for r in dag.roots:
        lines.append(f"        acc = {_fname(r)}(acc)")
    lines.append("    return acc")
    lines.append("")

    calls = {"run": threads}
    for r in dag.roots:
        for f, c in enumerate(dag.calls_per_invocation(r)):
            if c:
                name = _fname(f)
                calls[name] = calls.get(name, 0) + c * reps * threads
    expected = {
        "reps": reps,
        "calls": calls,
        "events": 2 * sum(calls.values()),
    }
    return "\n".join(lines), expected


# ----------------------------------------------------------------------
# Synthetic logs


def _image(seed, dag, name):
    """A binary image laying out every DAG function; returns
    ``(image, runtime_addrs, names, loaded)``."""
    image = BinaryImage(name)
    names = [f"bench::mod{f % 7}::{_fname(f)}()" for f in range(dag.n)]
    link = np.array(
        [image.add_function(mangle(n), size=64 + 16 * (f % 5))
         for f, n in enumerate(names)],
        dtype=np.uint64,
    )
    loaded = image.load(aslr_seed=seed % 9973 + 1)
    return image, link + np.uint64(loaded.offset), names, loaded


def _tree_template(dag, root):
    """The entry sequence of one call of `root`: ``(kind, fid)``."""
    kinds, fids = [], []
    stack = [(root, False)]
    while stack:
        f, leaving = stack.pop()
        if leaving:
            kinds.append(KIND_RET)
            fids.append(f)
            continue
        kinds.append(KIND_CALL)
        fids.append(f)
        stack.append((f, True))
        for callee in reversed(dag.edges[f]):
            stack.append((callee, False))
    return np.array(kinds, dtype=np.uint64), np.array(fids, dtype=np.int64)


class SyntheticLog:
    """A generated log as columns in log order, plus the image.

    ``kind``/``counter``/``addr``/``tid``/``fid`` are numpy columns;
    ``keep`` marks the entries a salvage should carry (all of them,
    unless a torn tail was requested).
    """

    def __init__(self, image, names, loaded, kind, counter, addr, tid,
                 fid, keep):
        self.image = image
        self.names = names
        self.loaded = loaded
        self.kind = kind
        self.counter = counter
        self.addr = addr
        self.tid = tid
        self.fid = fid
        self.keep = keep

    def __len__(self):
        return len(self.kind)

    @property
    def torn(self):
        """Entries in the unsealed tail a salvage must quarantine."""
        return int(len(self.keep) - self.keep.sum())

    def expected(self):
        """What a correct analysis of the kept entries reports:
        ``calls`` (pretty name -> calls) and ``ticks`` (total
        exclusive ticks).

        Calls are the CALL entries per function; an analysis makes one
        record per CALL, closed or truncated.  Ticks follow from tick
        conservation: a thread's exclusive ticks sum to the inclusive
        ticks of its root calls, and a root still open at the thread's
        last entry closes at that entry's counter.
        """
        kind, fid = self.kind[self.keep], self.fid[self.keep]
        counter, tid = self.counter[self.keep], self.tid[self.keep]
        is_call = kind == KIND_CALL
        counts = np.bincount(fid[is_call], minlength=len(self.names))
        calls = {
            self.names[f]: int(c) for f, c in enumerate(counts) if c
        }
        ticks = 0
        for t in np.unique(tid):
            sel = tid == t
            k, c = is_call[sel], counter[sel].astype(np.int64)
            depth = np.cumsum(np.where(k, 1, -1))
            before = depth - np.where(k, 1, -1)
            root_calls = np.flatnonzero(k & (before == 0))
            root_rets = np.flatnonzero(~k & (depth == 0))
            done = len(root_rets)
            ticks += int(c[root_rets].sum() - c[root_calls[:done]].sum())
            if len(root_calls) > done:
                ticks += int(c[-1] - c[root_calls[done]])
        return {"calls": calls, "ticks": ticks}

    # -- writers ---------------------------------------------------------

    def to_shared_log(self):
        """The log as a :class:`SharedLog`: sealed segments of
        :data:`SEAL_BLOCK` entries over the kept prefix, and the torn
        tail (if any) written but never sealed — what a producer that
        crashed mid-commit leaves behind."""
        n = len(self)
        log = SharedLog.create(
            n, pid=4242, profiler_addr=self.loaded.profiler_addr,
            sealed=True,
        )
        kept = int(self.keep.sum())
        for start in range(0, kept, SEAL_BLOCK):
            end = min(start + SEAL_BLOCK, kept)
            log.append_columns(
                self.kind[start:end], self.counter[start:end],
                self.addr[start:end], self.tid[start:end],
            )
        if kept < n:
            raw = np.empty((n - kept, 3), dtype="<u8")
            raw[:, 0] = self.counter[kept:] | (
                self.kind[kept:] << np.uint64(63)
            )
            raw[:, 1] = self.addr[kept:]
            raw[:, 2] = self.tid[kept:]
            start, granted = log.reserve_block(n - kept)
            log.write_block(start, granted, raw.tobytes())
        return log

    def rev11_bytes(self):
        return self.to_shared_log().to_bytes()

    def rev12_bytes(self):
        return encode_log(self.to_shared_log())


def synthetic_log(seed, entries, threads, n_funcs=240, open_tail=0,
                  torn=0, name="bench.bin", dag=None):
    """A seeded multi-thread log of about `entries` entries.

    Each thread runs back-to-back calls of the DAG's roots, with
    seeded counter steps between entries; threads interleave in the
    log in :data:`INTERLEAVE`-entry blocks, as batched writers commit
    them.  ``open_tail=n`` makes thread 0 a short-lived thread of
    about `n` entries that was still inside a call when the capture
    stopped: its stream ends in the middle of its last root call.
    ``torn=k`` marks the last `k` entries of the log as a torn,
    unsealed tail.
    """
    rng = np.random.default_rng(seed)
    dag = dag or CallDag(seed, n_funcs)
    image, addrs, names, loaded = _image(seed, dag, name)
    templates = [_tree_template(dag, r) for r in dag.roots]
    per_thread = entries // threads
    if open_tail:
        per_thread = (entries - open_tail) // (threads - 1)
    kinds, fids, counters, tids = [], [], [], []
    for t in range(threads):
        order, total = [], 0
        while total < (open_tail if open_tail and t == 0 else per_thread):
            r = int(rng.integers(len(templates)))
            order.append(r)
            total += len(templates[r][0])
        k = np.concatenate([templates[r][0] for r in order])
        f = np.concatenate([templates[r][1] for r in order])
        step = rng.integers(1, 17, size=len(k), dtype=np.uint64)
        if open_tail and t == 0:
            last = len(templates[order[-1]][0])
            cut = len(k) - last + max(1, last // 2)
            k, f, step = k[:cut], f[:cut], step[:cut]
        kinds.append(k)
        fids.append(f)
        counters.append(np.uint64(1000 * (t + 1)) + np.cumsum(step))
        tids.append(np.full(len(k), 0x1000 + 17 * t, dtype=np.uint64))
    # Block-interleave: sort by (block index within thread, thread).
    keys = np.concatenate([
        (np.arange(len(k)) // INTERLEAVE) * threads + t
        for t, k in enumerate(kinds)
    ])
    order = np.argsort(keys, kind="stable")
    kind = np.concatenate(kinds)[order]
    fid = np.concatenate(fids)[order]
    counter = np.concatenate(counters)[order]
    tid = np.concatenate(tids)[order]
    keep = np.ones(len(kind), dtype=bool)
    if torn:
        keep[len(kind) - torn:] = False
    return SyntheticLog(
        image, names, loaded, kind, counter, addrs[fid], tid, fid, keep,
    )


# ----------------------------------------------------------------------
# The fleet segment mix


class Segment:
    """One producer segment: the image bytes and what it must yield."""

    __slots__ = ("data", "kind", "entries", "torn", "ticks")

    def __init__(self, data, kind, entries, torn, ticks):
        self.data = data
        self.kind = kind
        self.entries = entries
        self.torn = torn
        self.ticks = ticks


def fleet_segments(seed, groups, group=8, n_funcs=240,
                   size=(19_000, 27_000), threads=2):
    """`groups` x `group` seeded segments of one program.

    Returns ``(symtab_json, segments)``.  Within every group of
    `group` segments, one in four is a rev 1.2 compressed image and
    one in eight a rev 1.1 image ending in a torn, unsealed tail whose
    entries salvage must quarantine exactly; the rest are sealed
    rev 1.1 images.  The seed shuffles the order and picks the sizes,
    so every group costs about the same to ingest.
    """
    rng = random.Random(seed)
    dag = CallDag(seed, n_funcs)
    segments = []
    symtab = None
    for _ in range(groups):
        kinds = ["1.2"] * (group // 4) + ["torn"] * (group // 8)
        kinds += ["1.1"] * (group - len(kinds))
        rng.shuffle(kinds)
        for kind in kinds:
            torn = rng.randint(64, 2048) if kind == "torn" else 0
            log = synthetic_log(
                rng.getrandbits(32), rng.randint(*size), threads,
                torn=torn, name="fleet.bin", dag=dag,
            )
            symtab = symtab or log.image.to_json()
            data = log.rev12_bytes() if kind == "1.2" else log.rev11_bytes()
            segments.append(Segment(
                data, kind, len(log), log.torn, log.expected()["ticks"]
            ))
    return symtab, segments
