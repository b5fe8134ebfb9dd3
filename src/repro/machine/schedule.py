"""Scheduling: the policy that picks the next thread, made pluggable.

Until the exploration work the scheduler was a single hard-wired line
inside ``Machine._schedule_until_done`` — always resume the runnable
thread with the smallest local virtual time.  That line is now a
:class:`SchedulePolicy`, and the machine accepts any implementation:

* :class:`MinTimePolicy` — the historical default.  Deterministic,
  conservative discrete-event order; every existing figure and test
  reproduces bit-for-bit under it.
* :class:`RoundRobinPolicy` — deterministic rotation in tid order.
* :class:`RandomPolicy` — seeded uniform choice over the runnable
  set; the workhorse of schedule-space exploration (same seed, same
  program ⇒ the same schedule, replayable forever).
* :class:`PriorityPolicy` — pathological strict priority: always the
  youngest (or oldest) runnable thread, starving the rest.  Exists to
  hurt: starvation-sensitive invariants fail under it first.
* :class:`EnclaveAwarePolicy` — models a TEE-resident scheduler that
  hates transition storms: switching threads costs an
  ecall+ocall-sized penalty (per the cost model), so the previously
  running thread is kept as long as its time stays within the penalty
  window of the best alternative.
* :class:`ReplayPolicy` — replays a recorded choice list (a failing
  schedule found by exploration), then hands over to a fallback.
* :class:`TracingPolicy` — wraps any policy and records the
  :class:`ScheduleTrace` that exploration, replay and minimisation
  feed on.

The thread-state constants (:data:`NEW` … :data:`DONE`) and
:data:`DEFAULT_SPAWN_COST` live here, not in ``repro.machine.machine``
— the scheduler owns the thread state machine.

Also here: :class:`SyncObserver`, the choice-point hook interface the
sync primitives report to (lock acquisitions, contention, atomic
RMWs, declared data accesses).  Detectors in :mod:`repro.explore`
implement it; an idle machine pays one ``if`` per operation.
"""

import random

from repro.machine.errors import MachineError

__all__ = [
    "BLOCKED",
    "DEFAULT_SPAWN_COST",
    "DONE",
    "EnclaveAwarePolicy",
    "MinTimePolicy",
    "NEW",
    "POLICIES",
    "PriorityPolicy",
    "RandomPolicy",
    "ReplayPolicy",
    "RoundRobinPolicy",
    "RUNNABLE",
    "RUNNING",
    "SchedulePolicy",
    "ScheduleTrace",
    "SyncObserver",
    "TracingPolicy",
    "make_policy",
]

# States of a simulated thread (owned by the scheduler).
NEW = "new"
RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"

# Default cost, in cycles, charged to a parent for spawning a thread
# (roughly a pthread_create on the paper's testbed).
DEFAULT_SPAWN_COST = 15_000.0


class SchedulePolicy:
    """Picks which runnable simulated thread runs next.

    ``pick`` receives the runnable threads in spawn order (never
    empty) and the machine, and must return one of them.  Policies may
    keep state between picks; one policy instance drives one run.
    ``reset()`` returns the policy to its initial state so the same
    instance can drive a fresh run reproducibly.
    """

    name = "policy"

    def pick(self, runnable, machine):
        raise NotImplementedError

    def reset(self):
        """Restore initial state (a no-op for stateless policies)."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class MinTimePolicy(SchedulePolicy):
    """The historical scheduler: smallest local time, ties by tid.

    This is the conservative discrete-event order every deterministic
    figure in the repository was produced under; it remains the
    machine's default.
    """

    name = "min-time"

    def pick(self, runnable, machine):
        return min(runnable, key=lambda t: (t.local_time, t.tid))


class RoundRobinPolicy(SchedulePolicy):
    """Deterministic rotation: the next runnable tid after the last
    one scheduled, wrapping around."""

    name = "round-robin"

    def __init__(self):
        self._last = -1

    def pick(self, runnable, machine):
        after = [t for t in runnable if t.tid > self._last]
        chosen = min(after or runnable, key=lambda t: t.tid)
        self._last = chosen.tid
        return chosen

    def reset(self):
        self._last = -1


class RandomPolicy(SchedulePolicy):
    """Seeded uniform choice over the runnable set.

    The only randomness source is the private :class:`random.Random`
    seeded at construction — never wall clock, never global state —
    so a schedule is a pure function of (program, seed) and any
    failure replays from its reported seed alone.
    """

    name = "random"

    def __init__(self, seed=0):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, runnable, machine):
        return runnable[self._rng.randrange(len(runnable))]

    def reset(self):
        self._rng = random.Random(self.seed)

    def __repr__(self):
        return f"RandomPolicy(seed={self.seed})"


class PriorityPolicy(SchedulePolicy):
    """Pathological strict priority — deliberately unfair.

    ``prefer="young"`` always runs the most recently spawned runnable
    thread (starving the founders); ``prefer="old"`` the opposite.
    Useful as a starvation stressor: anything that implicitly relies
    on every thread making progress breaks here first.
    """

    name = "priority"

    def __init__(self, prefer="young"):
        if prefer not in ("young", "old"):
            raise ValueError(
                f"prefer must be 'young' or 'old': {prefer!r}"
            )
        self.prefer = prefer

    def pick(self, runnable, machine):
        key = (lambda t: t.tid) if self.prefer == "old" else (
            lambda t: -t.tid
        )
        return min(runnable, key=key)

    def __repr__(self):
        return f"PriorityPolicy(prefer={self.prefer!r})"


class EnclaveAwarePolicy(SchedulePolicy):
    """A TEE-resident scheduler that penalises transition storms.

    Rescheduling an enclave thread costs a world switch out and back
    in (~ecall+ocall on the modelled platform), so this policy keeps
    the currently running thread on the core unless another runnable
    thread's local time trails it by more than the switch penalty.
    The effect on exploration is long uninterrupted slices — the
    opposite extreme from :class:`RandomPolicy`'s churn.

    `switch_cycles` defaults to the SGX-v1 cost model's
    ecall+ocall round trip.
    """

    name = "enclave"

    def __init__(self, switch_cycles=None, platform=None):
        if switch_cycles is None:
            if platform is None:
                from repro.tee import platform_by_name

                platform = platform_by_name("sgx-v1")
            switch_cycles = platform.ecall_cycles + platform.ocall_cycles
        self.switch_cycles = float(switch_cycles)
        self._current = None

    def pick(self, runnable, machine):
        def cost(thread):
            penalty = 0.0 if thread.tid == self._current \
                else self.switch_cycles
            return (thread.local_time + penalty, thread.tid)

        chosen = min(runnable, key=cost)
        self._current = chosen.tid
        return chosen

    def reset(self):
        self._current = None

    def __repr__(self):
        return f"EnclaveAwarePolicy(switch_cycles={self.switch_cycles})"


class ReplayPolicy(SchedulePolicy):
    """Replays a recorded choice list, then falls back.

    `choices` is a sequence of tids (or a :class:`ScheduleTrace`).
    While choices remain and the named tid is runnable, it is chosen;
    when a choice names a thread that is not currently runnable the
    policy counts a divergence and falls through to `fallback`
    (default :class:`MinTimePolicy`) for that step.  After the list is
    exhausted, `fallback` drives the rest of the run — which is what
    makes *prefix* replay (and therefore minimisation) meaningful.
    """

    name = "replay"

    def __init__(self, choices, fallback=None):
        if isinstance(choices, ScheduleTrace):
            choices = choices.choices()
        self.choices = list(choices)
        self.fallback = fallback or MinTimePolicy()
        self._step = 0
        self.diverged = 0

    def pick(self, runnable, machine):
        if self._step < len(self.choices):
            wanted = self.choices[self._step]
            self._step += 1
            for thread in runnable:
                if thread.tid == wanted:
                    return thread
            self.diverged += 1
        return self.fallback.pick(runnable, machine)

    def reset(self):
        self._step = 0
        self.diverged = 0
        self.fallback.reset()

    def __repr__(self):
        return (
            f"ReplayPolicy({len(self.choices)} choices, "
            f"fallback={self.fallback!r})"
        )


class ScheduleTrace:
    """The full record of one run's scheduling decisions.

    One step per scheduler pick: the chosen tid and the tids that
    were runnable at that moment.  A trace is the currency of
    exploration — replayed by :class:`ReplayPolicy`, branched on by
    the systematic mode, shrunk by minimisation, serialised into the
    repro artifact.
    """

    def __init__(self):
        self.chosen = []
        self.runnable = []

    def record(self, thread, runnable):
        self.chosen.append(thread.tid)
        self.runnable.append(tuple(t.tid for t in runnable))

    def choices(self):
        """The chosen-tid sequence (what :class:`ReplayPolicy` eats)."""
        return list(self.chosen)

    def signature(self):
        """A hashable identity for "same schedule" bookkeeping."""
        return tuple(self.chosen)

    def branch_points(self):
        """Step indices where the scheduler actually had a choice."""
        return [
            i for i, tids in enumerate(self.runnable) if len(tids) > 1
        ]

    def __len__(self):
        return len(self.chosen)

    def to_dict(self):
        return {
            "chosen": list(self.chosen),
            "runnable": [list(t) for t in self.runnable],
        }

    @classmethod
    def from_dict(cls, data):
        trace = cls()
        trace.chosen = list(data["chosen"])
        trace.runnable = [tuple(t) for t in data["runnable"]]
        return trace

    def __repr__(self):
        return f"ScheduleTrace({len(self)} steps)"


class TracingPolicy(SchedulePolicy):
    """Wraps a policy and records every decision into a trace."""

    def __init__(self, inner):
        self.inner = inner
        self.trace = ScheduleTrace()

    @property
    def name(self):
        return self.inner.name

    def pick(self, runnable, machine):
        chosen = self.inner.pick(runnable, machine)
        self.trace.record(chosen, runnable)
        return chosen

    def reset(self):
        self.inner.reset()
        self.trace = ScheduleTrace()

    def __repr__(self):
        return f"TracingPolicy({self.inner!r})"


#: Policy registry: name -> factory(seed=None, **kwargs).  Seeded
#: policies consume the seed; deterministic ones ignore it, so the
#: explorer can construct any of them uniformly.
POLICIES = {
    "min-time": lambda seed=None, **kw: MinTimePolicy(**kw),
    "round-robin": lambda seed=None, **kw: RoundRobinPolicy(**kw),
    "random": lambda seed=None, **kw: RandomPolicy(seed=seed or 0, **kw),
    "priority-young": lambda seed=None, **kw: PriorityPolicy(
        prefer="young", **kw
    ),
    "priority-old": lambda seed=None, **kw: PriorityPolicy(
        prefer="old", **kw
    ),
    "enclave": lambda seed=None, **kw: EnclaveAwarePolicy(**kw),
}


def make_policy(name, seed=None, **kwargs):
    """Construct a registered policy by name.

    `seed` feeds the policy's private RNG where one exists and is
    ignored by deterministic policies, so callers can thread one seed
    through uniformly.
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        raise MachineError(
            f"unknown schedule policy {name!r} "
            f"(choose from {sorted(POLICIES)})"
        ) from None
    return factory(seed=seed, **kwargs)


class SyncObserver:
    """Choice-point hook interface for the sync primitives.

    A machine carries a list of observers (``machine.sync_observers``);
    each primitive reports through it when — and only when — the list
    is non-empty, so idle machines pay a single falsy check per
    operation.  All methods are no-ops here; detectors override what
    they need.
    """

    def acquired(self, primitive, thread):
        """`thread` now holds `primitive` (lock / rwlock / semaphore)."""

    def released(self, primitive, thread):
        """`thread` gave up `primitive`."""

    def contended(self, primitive, thread):
        """`thread` is about to block on `primitive`."""

    def atomic(self, primitive, thread):
        """`thread` performed an atomic RMW/store on `primitive`."""

    def access(self, location, thread, write):
        """`thread` touched shared data `location` (declared via
        :meth:`repro.machine.machine.Machine.note_access`)."""
