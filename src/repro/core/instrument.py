"""Stage 1 — the "compiler" pass.

The paper recompiles the application with ``-finstrument-functions``
and ``--include=profiler.h``: every function gains calls to
``__cyg_profile_func_enter``/``__cyg_profile_func_exit`` and the
injected code writes log entries through a globally accessible pointer
to the shared memory the recorder later maps in.

Here the compilation unit is Python: the instrumenter rewrites the
functions of a module (or the methods of an object) into thin wrappers
that invoke enter/exit hooks around the original, lays every function
out in a simulated :class:`~repro.symbols.BinaryImage`, and leaves a
*hook slot* — the global variable through which the recorder announces
the shared memory once it exists.  Until the recorder arms the slot the
wrappers are pass-through, exactly like instrumented code running
without the profiler library.

Supported paper features:

* ``@no_instrument`` — ``__attribute__((no_instrument_function))``;
* ``@symbol("ns::Class::method()")`` — controls the linker name laid
  out in the image (the reproduction's stand-in for the real mangler
  run by gcc);
* *selective code profiling* — a ``select`` predicate restricts which
  functions get instrumented at all, shrinking both overhead and log
  size (§II-C).
"""

import functools
import inspect
import threading

from repro.core.errors import TEEPerfError
from repro.core.log import KIND_CALL, KIND_RET, ThreadLogWriter
from repro.symbols import BinaryImage, mangle

_NO_INSTRUMENT = "__tee_no_instrument__"
_SYMBOL = "__tee_symbol__"


def no_instrument(func):
    """Exclude `func` from instrumentation (keeps the injected code
    from measuring itself, among other uses)."""
    setattr(func, _NO_INSTRUMENT, True)
    return func


def symbol(pretty_name):
    """Give `func` an explicit native-style symbol name."""

    def mark(func):
        setattr(func, _SYMBOL, pretty_name)
        return func

    return mark


def symbol_name_for(func, prefix=None):
    """The pretty symbol name a function will carry in the image."""
    explicit = getattr(func, _SYMBOL, None)
    if explicit is not None:
        return explicit
    qualname = func.__qualname__
    if "<locals>." in qualname:
        qualname = qualname.rsplit("<locals>.", 1)[1]
    qualname = qualname.replace(".", "::")
    if prefix:
        return f"{prefix}::{qualname}"
    return qualname


class HookSlot:
    """The globally accessible variable of the paper's injected code.

    Wrappers read :attr:`impl` once per invocation, then its
    ``on_event`` once, and call that for the CALL and the RET; the
    recorder arms the slot at start-up and clears it at teardown.  An
    impl is any object with ``on_event(kind, addr)`` and ``flush()``
    (:class:`LiveHooks` resolves ``on_event`` per thread).  ``offset``
    is the relocation offset of the loaded image.  Instead of adding it to
    the link-time address on every event, each wrapper registers an
    *address cell* at instrumentation time and :meth:`arm` precomputes
    ``link_addr + offset`` into every cell — the hot path reads one
    list slot and never does relocation arithmetic.
    """

    __slots__ = ("impl", "offset", "_cells")

    def __init__(self):
        self.impl = None
        self.offset = 0
        self._cells = []

    def register(self, link_addr):
        """A one-slot runtime-address cell for a wrapper closure.

        Holds the link-time address until :meth:`arm` relocates it.
        """
        cell = [link_addr]
        self._cells.append((link_addr, cell))
        return cell

    def arm(self, impl, offset=0):
        if offset != self.offset:
            for link_addr, cell in self._cells:
                cell[0] = link_addr + offset
        self.offset = offset
        # impl is published last: a wrapper that observes it armed is
        # guaranteed to read already-relocated address cells.
        self.impl = impl

    def disarm(self):
        self.impl = None
        if self.offset:
            for link_addr, cell in self._cells:
                cell[0] = link_addr
        self.offset = 0


class InstrumentedFunction:
    """Book-keeping for one rewritten function."""

    def __init__(self, pretty, link_addr, original, wrapper, restore):
        self.pretty = pretty
        self.link_addr = link_addr
        self.original = original
        self.wrapper = wrapper
        self._restore = restore

    def restore(self):
        self._restore()


class InstrumentedProgram:
    """The output of the compiler pass: image + rewritten functions."""

    def __init__(self, name):
        self.name = name
        self.image = BinaryImage(name)
        self.hooks = HookSlot()
        self.functions = []
        self._by_pretty = {}

    def function(self, pretty):
        return self._by_pretty[pretty]

    def link_addr(self, pretty):
        return self._by_pretty[pretty].link_addr

    def restore_all(self):
        """Undo every module/instance patch (compiler clean build)."""
        for fn in self.functions:
            fn.restore()

    def _register(self, instrumented):
        self.functions.append(instrumented)
        self._by_pretty[instrumented.pretty] = instrumented

    def __repr__(self):
        return (
            f"InstrumentedProgram({self.name!r}, "
            f"{len(self.functions)} functions)"
        )


def _function_size(func):
    """Our stand-in for machine-code size: the bytecode length."""
    code = getattr(func, "__code__", None)
    return max(16, len(code.co_code)) if code is not None else 16


def _make_wrapper(func, link_addr, hooks):
    # The armed impl's on_event is captured ONCE per invocation: the
    # CALL and its RET always go to the same hooks object (and, live,
    # to the same thread's hook), so a recorder disarming (or arming)
    # mid-call can never log one half of the pair — the analyzer sees
    # balanced per-thread logs, with ACTIVE alone deciding whether
    # either event lands.  The runtime address comes from a cell the
    # slot relocates at arm time, so the hot path is two list-index
    # reads and no arithmetic.  The wrapper is the only frame between
    # caller and callee; a live event runs one more frame, the hook.
    cell = hooks.register(link_addr)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        impl = hooks.impl
        if impl is None:
            return func(*args, **kwargs)
        on_event = impl.on_event
        addr = cell[0]
        on_event(KIND_CALL, addr)
        try:
            return func(*args, **kwargs)
        finally:
            on_event(KIND_RET, addr)

    setattr(wrapper, _NO_INSTRUMENT, True)  # never instrument twice
    wrapper.__tee_wrapped__ = func
    return wrapper


class Instrumenter:
    """Rewrites functions to call the profiler hooks.

    Parameters
    ----------
    name:
        Name of the produced binary image.
    select:
        Optional predicate on the *pretty* symbol name; functions for
        which it returns False are left untouched (selective code
        profiling).
    """

    def __init__(self, name="a.out", select=None):
        self.program = InstrumentedProgram(name)
        self.select = select

    # ------------------------------------------------------------------

    def instrument_function(self, func, owner, attr, prefix=None):
        """Instrument one function living at ``owner.attr``."""
        if getattr(func, _NO_INSTRUMENT, False):
            return None
        pretty = symbol_name_for(func, prefix)
        if self.select is not None and not self.select(pretty):
            return None
        if pretty in self.program._by_pretty:
            raise TEEPerfError(f"duplicate symbol {pretty!r}")
        link_addr = self.program.image.add_function(
            mangle(pretty),
            size=_function_size(func),
            file=getattr(func, "__module__", None),
            line=getattr(
                getattr(func, "__code__", None), "co_firstlineno", None
            ),
        )
        wrapper = _make_wrapper(func, link_addr, self.program.hooks)

        def restore(owner=owner, attr=attr, func=func):
            setattr(owner, attr, func)

        setattr(owner, attr, wrapper)
        instrumented = InstrumentedFunction(
            pretty, link_addr, func, wrapper, restore
        )
        self.program._register(instrumented)
        return instrumented

    def instrument_module(self, module, prefix=None):
        """Instrument every function defined in `module` (one
        compilation unit, as with ``--include`` in the paper)."""
        count = 0
        for attr, value in sorted(vars(module).items()):
            if not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue  # imported, not defined here
            if self.instrument_function(value, module, attr, prefix):
                count += 1
        return count

    def instrument_instance(self, obj, prefix=None):
        """Instrument the methods of one object (bound, so recursive
        self-calls go through the wrappers)."""
        count = 0
        for attr in sorted(dir(type(obj))):
            if attr.startswith("_"):
                # Underscore-private helpers are treated as inlined
                # static functions: the real compiler pass does not see
                # them as call/return sites once inlined.
                continue
            value = getattr(type(obj), attr, None)
            if not inspect.isfunction(value):
                continue
            bound = value.__get__(obj, type(obj))
            if self.instrument_function(bound, obj, attr, prefix):
                count += 1
        return count

    def instrument_class(self, cls, prefix=None):
        """Instrument the methods of a class itself.

        Unlike :meth:`instrument_instance`, the patch lands on the
        class, so *every* instance (present and future) calls through
        the wrappers and the symbol is laid out exactly once — the
        right model for a library like a storage engine, where one
        compiled function serves many objects.
        """
        count = 0
        for attr, value in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if not inspect.isfunction(value):
                continue
            if self.instrument_function(value, cls, attr, prefix):
                count += 1
        return count

    def finish(self):
        """Return the finished program (the "linked" binary)."""
        if not self.program.functions:
            raise TEEPerfError("nothing was instrumented")
        return self.program


class WriterPool:
    """Per-thread :class:`~repro.core.log.ThreadLogWriter` bookkeeping
    shared by every hook implementation.

    A pool is shared by every thread, so writers are keyed by thread
    id; each hook looks its writer up once, when its thread first
    records.
    """

    __slots__ = ("log", "writer_block", "_writers")

    def __init__(self, log, writer_block):
        self.log = log
        self.writer_block = writer_block
        self._writers = {}

    def writer_for(self, tid):
        writer = self._writers.get(tid)
        if writer is None:
            writer = self._writers.setdefault(
                tid, ThreadLogWriter(self.log, self.writer_block)
            )
        return writer

    def flush(self):
        """Commit every thread's staged block (recorder stop/pause)."""
        for writer in list(self._writers.values()):
            writer.flush()

    def blocks_flushed(self):
        return sum(w.blocks_flushed for w in self._writers.values())


class SimHooks:
    """Injected-code implementation for simulation mode.

    Every event while ACTIVE charges the platform's per-event
    instrumentation cost to the running simulated thread; the
    thread's own hook
    (:attr:`~repro.core.log.ThreadLogWriter.make_hook`, built once per
    simulated thread over its writer in `pool`) then decides, from
    the log's flags byte, whether the event is recorded, reads the
    virtual software counter and stages the entry.  Reservation is the
    *relaxed* one: per-thread ordering is all the analyzer needs.  A
    pool with ``writer_block=1`` commits every event as its own block,
    the per-event case, which keeps simulated runs byte-deterministic.
    """

    __slots__ = ("log", "counter", "event_cycles", "pool", "_hooks",
                 "_current")

    def __init__(self, pool, counter, machine, event_cycles):
        self.log = pool.log
        self.counter = counter
        self.event_cycles = event_cycles
        self.pool = pool
        self._hooks = {}  # simulated tid -> that thread's hook
        self._current = machine.current

    def on_event(self, kind, addr):
        # ACTIVE decides only whether the event is charged: the hook
        # below tests it again, with the event mask, on the flags byte.
        if not self.log.active:
            return
        thread = self._current()
        thread.advance(self.event_cycles)
        tid = thread.tid
        hook = self._hooks.get(tid)
        if hook is None:
            hook = self._hooks[tid] = self.pool.writer_for(tid).make_hook(
                tid, self.counter
            )
        hook(kind, addr)

    def flush(self):
        self.pool.flush()


class LiveHooks(threading.local):
    """Injected-code implementation for live (real-time) mode.

    A :class:`threading.local`: Python re-runs ``__init__``, with the
    constructor's arguments, in every thread that first touches the
    object, so :attr:`on_event` is a plain per-thread attribute — the
    calling thread's own hook, found with one attribute read.  The hook
    comes from the thread's writer in `pool`
    (:attr:`~repro.core.log.ThreadLogWriter.make_hook`) and does all of
    an event's work in one frame: ACTIVE check, mask check, tick read
    from `counter`, pack, and a block-full commit.  A pool with
    ``writer_block=1`` commits every event as its own block.  The log's
    thread id is the OS thread id: CPython may hand a finished
    thread's :func:`threading.get_ident` to the next thread started,
    which would merge the two threads' profiles.
    """

    def __init__(self, pool, counter):
        tid = threading.get_native_id()
        self.pool = pool
        self.on_event = pool.writer_for(tid).make_hook(tid, counter)

    def flush(self):
        """Commit every thread's staged block."""
        self.pool.flush()
