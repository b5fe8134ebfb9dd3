"""Auto-tracing: profile *unmodified* Python programs.

The paper's transparency goal is "unmodified multithreaded applications
with an easy-to-use interface".  For C that means a recompile with
``-finstrument-functions``; for Python we can do even better — the
interpreter's profiling hook (`sys.setprofile`) delivers exactly the
call/return events the injected code would produce, with no compile
stage at all.

:class:`AutoTracer` lays every traced code object out in a simulated
binary image on first sight (so the log still carries *addresses* and
the analyzer stays unchanged) and stages Figure-2 entries through each
thread's :class:`~repro.core.log.ThreadLogWriter`, after the same
ACTIVE-and-mask test on the log's flags byte that the compiled hooks
make — so ``pause()`` and the event mask hold here too.  A *scope*
predicate restricts tracing to the application's own modules — the
same role selective profiling plays in stage 1.

Used through the facade::

    perf = TEEPerf.auto(scope="myapp")
    perf.record(myapp.main)
    print(perf.analyze().report())
"""

import sys
import threading

from repro.core.instrument import InstrumentedProgram
from repro.core.log import _FLAGS_BYTE, _NEED_FLAGS, KIND_CALL, KIND_RET
from repro.core.recorder import DEFAULT_CAPACITY, LiveRecorder
from repro.symbols import mangle
from repro.symbols.mangle import MangleError

_SKIP_MODULES = ("repro.core", "repro.machine", "threading", "importlib")


def _sanitise(name):
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out).strip("_") or "anonymous"
    return text if not text[0].isdigit() else "_" + text


class _ThreadWriter(threading.local):
    """The calling thread's OS thread id and its writer's ``append``.

    Python re-runs ``__init__`` in every thread that first touches the
    object, so each thread looks its writer up once.
    """

    def __init__(self, pool):
        self.tid = threading.get_native_id()
        self.append = pool.writer_for(self.tid).append


class AutoTracer:
    """Incrementally builds the image and answers the profile hook."""

    #: implicit frames that would only add noise to the profile
    _SYNTHETIC = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>")

    def __init__(self, scope=None):
        self.program = InstrumentedProgram("auto")
        self._scope = self._normalise_scope(scope)
        self._decision_by_code = {}
        self._layout_lock = threading.Lock()
        self.log = None
        self.counter = None
        self.offset = 0  # relocation offset of the loaded image
        self.pool = None
        self._thread = None

    def bind(self, log, counter, offset, pool):
        """Record into `log` through `pool`'s per-thread writers."""
        self.log = log
        self.counter = counter
        self.offset = offset
        self.pool = pool
        self._thread = _ThreadWriter(pool)

    def flush(self):
        """Commit every thread's staged block."""
        self.pool.flush()

    @staticmethod
    def _normalise_scope(scope):
        if scope is None:
            return None
        if callable(scope):
            return scope
        if isinstance(scope, str):
            prefixes = (scope,)
        else:
            prefixes = tuple(scope)
        return lambda module: module.startswith(prefixes)

    # ------------------------------------------------------------------

    def _traced_addr(self, frame):
        """The image address for this frame's code; None = not traced."""
        code = frame.f_code
        cached = self._decision_by_code.get(code)
        if cached is None:
            # First sight of this code object: lay it out under the
            # lock, so two threads meeting it at once lay it out once.
            with self._layout_lock:
                cached = self._decision_by_code.get(code)
                if cached is None:
                    cached = self._layout(frame)
                    self._decision_by_code[code] = cached
        return cached or None  # 0 encodes "skipped"

    def _layout(self, frame):
        """Decide whether `frame`'s code is traced and lay it out;
        returns its link address, or 0 when it is skipped."""
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        traced = not module.startswith(_SKIP_MODULES)
        if traced and self._scope is not None:
            traced = self._scope(module)
        if traced and code.co_name == "<module>":
            traced = False
        if traced and code.co_name in self._SYNTHETIC:
            traced = False
        if not traced:
            return 0
        name = getattr(code, "co_qualname", code.co_name)
        base = pretty = f"{_sanitise(module)}::{_sanitise(name)}"
        # Same-named functions (two lambdas of one module) get a suffix
        # on the readable name, before mangling, so each demangles.
        suffix = 1
        while True:
            try:
                symbol_name = mangle(pretty)
            except MangleError:
                symbol_name = _sanitise(pretty)
            if symbol_name not in self.program.image.symtab:
                break
            suffix += 1
            pretty = f"{base}_{suffix}"
        return self.program.image.add_function(
            symbol_name,
            size=max(16, len(code.co_code)),
            file=code.co_filename,
            line=code.co_firstlineno,
        )

    def hook(self, frame, event, arg):
        if event == "call":
            kind = KIND_CALL
        elif event == "return":
            kind = KIND_RET
        else:
            return None
        log = self.log
        need = _NEED_FLAGS[kind]
        if log._buf[_FLAGS_BYTE] & need != need:
            return None  # inactive or masked: no layout, no tick
        call_site = 0
        if kind == KIND_CALL:
            addr = self._traced_addr(frame)
            if addr is None:
                return None
            if log.entry_size > 24 and frame.f_back is not None:
                parent = self._decision_by_code.get(frame.f_back.f_code)
                if parent:
                    call_site = parent + self.offset
        else:
            addr = self._decision_by_code.get(frame.f_code)
            if not addr:
                return None
        thread = self._thread
        thread.append(
            kind, self.counter.read(), addr + self.offset, thread.tid,
            call_site,
        )
        return None


class AutoRecorder(LiveRecorder):
    """A live recorder that installs the interpreter profile hook."""

    def __init__(self, tracer, capacity=DEFAULT_CAPACITY, counter=None,
                 version=None):
        from repro.core.log import VERSION

        super().__init__(
            tracer.program,
            capacity=capacity,
            counter=counter,
            version=version or VERSION,
        )
        self.tracer = tracer

    def start(self):
        super().start()
        self.tracer.bind(
            self.log, self.counter, self.loaded.offset, self._writer_pool()
        )
        self.hooks = self.tracer  # stop() and persist() flush through it
        threading.setprofile(self.tracer.hook)
        sys.setprofile(self.tracer.hook)

    def stop(self):
        sys.setprofile(None)
        threading.setprofile(None)
        super().stop()

    def _make_hooks(self):
        return None  # the interpreter hook replaces armed wrappers
