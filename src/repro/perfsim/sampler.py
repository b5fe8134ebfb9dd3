"""A Linux-perf model: periodic instruction-pointer sampling.

``perf record`` interrupts each running thread at a fixed frequency,
walks to the current instruction pointer, and charges the application
the cost of the interrupt.  Inside an SGX enclave every such interrupt
is an *asynchronous enclave exit* (AEX) — the hardware flushes the TLB
and re-enters through ERESUME — which is why perf's overhead is far
from free inside a TEE even though its sample rate is modest.

The model works on the ground-truth ghost trace:

* **overhead** — each thread running for T cycles takes
  ``n = T / (period - cost)`` samples (the interrupt time itself is
  sampled time too: the fixed point of ``n = (T + n*cost) / period``),
  and its runtime stretches by ``n * cost``.  The per-sample cost is
  the platform's AEX cost inside a TEE and a plain interrupt outside.
* **attribution** — samples land exactly on the periodic grid, and each
  is attributed to the function on top of the thread's true stack at
  that instant.  This reproduces perf's defining weakness: a workload
  whose phases align with the sampling frequency is attributed wrongly
  (§I's "sampling frequency bias"), which TEE-Perf avoids by tracing
  every call.  Optional deterministic jitter models perf's mitigation.

Attribution inside a real enclave additionally requires debug mode or
SGX support in perf; the model assumes symbols are visible, because the
paper's comparison is about overhead and method-level accuracy, not
about enclave opacity.
"""

from repro.core.log import KIND_CALL
from repro.perfsim.ghost import GhostHooks

DEFAULT_FREQ_HZ = 3997.0  # perf's "4000 Hz, avoid lockstep" default
# Cost of one sampling interrupt on the host: timer IRQ + PEBS/NMI
# handler + stack copy (~2 us at 3.6 GHz).
NATIVE_SAMPLE_CYCLES = 7_200.0
OTHER = "[other]"


class PerfResult:
    """What a perf run yields: a sampled profile plus its overhead."""

    def __init__(self, samples, base_cycles, elapsed_cycles, freq_hz,
                 threads, stacks=None):
        self.samples = samples
        self.base_cycles = base_cycles
        self.elapsed_cycles = elapsed_cycles
        self.freq_hz = freq_hz
        self.threads = threads
        # Call-graph mode (perf record -g): full-stack sample counts.
        self.stacks = stacks

    def folded(self):
        """Folded stacks from call-graph samples (for flame graphs).

        Raises when the run was not taken with ``callgraph=True``.
        """
        if self.stacks is None:
            raise ValueError(
                "no call-graph samples: run PerfSim(callgraph=True)"
            )
        return dict(self.stacks)

    @property
    def total_samples(self):
        return sum(self.samples.values())

    def fraction(self, name):
        """Share of samples attributed to `name`."""
        total = self.total_samples
        return self.samples.get(name, 0) / total if total else 0.0

    def overhead_cycles(self):
        return self.elapsed_cycles - self.base_cycles

    def report(self, top=20):
        """perf-report-style output: overhead%, samples, symbol."""
        total = self.total_samples or 1
        lines = [
            f"# Samples: {self.total_samples} of event 'cycles' "
            f"at {self.freq_hz:.0f} Hz across {self.threads} thread(s)",
            f"# {'Overhead':>9}  {'Samples':>9}  Symbol",
        ]
        ranked = sorted(
            self.samples.items(), key=lambda kv: kv[1], reverse=True
        )
        for name, count in ranked[:top]:
            lines.append(f"  {100 * count / total:>8.2f}%  {count:>9}  {name}")
        return "\n".join(lines)


class PerfSim:
    """Drives one workload run under the sampling model.

    Parameters
    ----------
    env:
        The execution environment the workload runs in; decides the
        per-sample cost (AEX inside a TEE) and supplies the machine.
    freq_hz:
        Sampling frequency.
    jitter:
        Fraction of the period (0..1) by which sample points are
        deterministically perturbed, modelling perf's anti-lockstep
        jitter.  0 = exact grid (worst-case bias).
    callgraph:
        ``perf record -g``: each sample captures the whole user stack
        (dwarf/fp unwind), costing extra per sample but enabling flame
        graphs from the sampled data.
    """

    # Unwinding and copying the stack inflates the per-sample cost.
    CALLGRAPH_COST_FACTOR = 1.35

    def __init__(self, env, freq_hz=DEFAULT_FREQ_HZ, jitter=0.0,
                 callgraph=False):
        if freq_hz <= 0:
            raise ValueError(f"frequency must be positive: {freq_hz}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {jitter}")
        self.env = env
        self.machine = env.machine
        self.freq_hz = freq_hz
        self.jitter = jitter
        self.callgraph = callgraph
        self.ghost = GhostHooks()

    def sample_cost_cycles(self):
        base = (
            self.env.costs.aex_cycles
            if self.env.is_enclave
            else NATIVE_SAMPLE_CYCLES
        )
        return base * (self.CALLGRAPH_COST_FACTOR if self.callgraph else 1.0)

    def period_cycles(self):
        return self.machine.clock.seconds_to_cycles(1.0 / self.freq_hz)

    # ------------------------------------------------------------------

    def profile(self, program, entry, *args, **kwargs):
        """Run ``entry`` under sampling; returns a :class:`PerfResult`.

        `program` is an instrumented program whose hook slot we borrow
        for the zero-cost ghost trace (the real perf needs no
        instrumentation; the ghost is the simulation's stand-in for the
        hardware's view of the instruction pointer).
        """
        program.hooks.arm(self.ghost, offset=0)
        try:
            self.machine.run(entry, *args, kwargs=kwargs)
        finally:
            program.hooks.disarm()
        return self._post_process(program)

    # ------------------------------------------------------------------

    def _post_process(self, program):
        period = self.period_cycles()
        cost = self.sample_cost_cycles()
        if cost >= period:
            raise ValueError(
                f"sample cost ({cost} cycles) exceeds the sampling period "
                f"({period} cycles); lower the frequency"
            )
        resolve = _Resolver(program)
        samples = {}
        stacks = {} if self.callgraph else None
        base = self.machine.elapsed_cycles()
        elapsed = 0.0
        threads = 0
        grouped = self.ghost.by_thread()
        for thread in self.machine._threads:
            span = thread.end_time - thread.start_time
            if span <= 0:
                continue
            threads += 1
            events = grouped.get(thread.tid, [])
            self._attribute(
                thread, events, period, resolve, samples, stacks
            )
            n_samples = span / (period - cost)
            elapsed = max(elapsed, thread.end_time + n_samples * cost)
        return PerfResult(
            samples, base, elapsed, self.freq_hz, threads, stacks
        )

    def _attribute(self, thread, events, period, resolve, samples, stacks):
        """Walk the true trace, dropping grid samples onto stack tops."""
        next_k = int(thread.start_time // period) + 1
        stack = []

        def sample_time(k):
            jitter = 0.0
            if self.jitter:
                # Deterministic per-sample perturbation (xorshift hash).
                h = (k * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                jitter = (h / 2**64) * self.jitter * period
            return k * period + jitter

        def take_until(limit):
            nonlocal next_k
            while sample_time(next_k) <= limit:
                top = resolve(stack[-1]) if stack else OTHER
                samples[top] = samples.get(top, 0) + 1
                if stacks is not None:
                    path = (
                        tuple(resolve(a) for a in stack)
                        if stack
                        else (OTHER,)
                    )
                    stacks[path] = stacks.get(path, 0) + 1
                next_k += 1

        for event in events:
            take_until(min(event.time, thread.end_time))
            if event.kind == KIND_CALL:
                stack.append(event.addr)
            elif stack:
                stack.pop()
        take_until(thread.end_time)


class _Resolver:
    """Memoised link-address -> pretty-name lookup."""

    def __init__(self, program):
        self._symtab = program.image.symtab
        self._cache = {}

    def __call__(self, addr):
        name = self._cache.get(addr)
        if name is None:
            symbol = self._symtab.resolve(addr)
            name = symbol.pretty if symbol else f"[unknown {addr:#x}]"
            self._cache[addr] = name
        return name
