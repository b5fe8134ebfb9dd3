"""In-memory spans for the benchmark's traced run.

The benchmark times TEE-Perf's layers from the outside: :meth:`Tracer.
wrap` replaces a public function (at the place its caller looks it up)
with a wrapper that records one span per call.  Spans stay in memory
— name, start, end, parent — and :meth:`Tracer.dump` writes them out
when the run ends.  A layer's *self time* is its spans' durations
minus the part of each interval covered by its child spans.

Hot per-event functions (the hooks, ``ThreadLogWriter.append``) are
never wrapped: a wrapper there would cost more than the work it
times.  Those layers are measured by the live ladder instead.
"""

import functools
import json
import threading
import time

__all__ = ["Tracer"]

_MISSING = object()


class Tracer:
    """Collects spans; one instance per traced phase or process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def span(self, name):
        """Context manager recording one span around its body."""
        return _Span(self, name)

    def add(self, name, start_ns, end_ns, parent=-1):
        """Record a span measured elsewhere (another process, say)."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, parent])

    # -- wrapping public functions ---------------------------------------

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`unwrap`; returns the original."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            return result

        self._install(owner, attr, wrapper)
        return original

    def wrap_iter(self, owner, attr, name):
        """Like :meth:`wrap`, for a method returning an iterator: one
        span per item produced, so decoding that happens lazily inside
        a consumer's loop is charged to the producer."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            it = iter(original(*args, **kwargs))
            while True:
                index = tracer.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        self._install(owner, attr, wrapper)
        return original

    def _install(self, owner, attr, wrapper):
        # Remember the raw namespace entry (a classmethod object, or
        # nothing when the attribute is inherited) so unwrap restores
        # the owner exactly.
        raw = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def unwrap(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------

    def self_times(self, root):
        """``{name: self seconds}`` over span `root` (an index) and
        the spans below it."""
        children = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            children.setdefault(parent, []).append(i)
        out = {}

        def visit(i):
            name, start, end, _ = self.spans[i]
            kids = children.get(i, [])
            covered = sum(self.spans[k][2] - self.spans[k][1] for k in kids)
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
            for k in kids:
                visit(k)

        visit(root)
        return out

    def total(self, name):
        """Summed duration (seconds) of every span called `name`."""
        return sum(
            (e - s) / 1e9 for n, s, e, _ in self.spans if n == name
        )

    def durations(self, name):
        return [(e - s) / 1e9 for n, s, e, _ in self.spans if n == name]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False
