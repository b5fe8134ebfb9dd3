"""The pluggable scheduler layer (repro.machine.schedule)."""

import unittest

from repro.machine import (
    LivelockError,
    Machine,
    MachineError,
    MinTimePolicy,
    POLICIES,
    PriorityPolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    ScheduleTrace,
    TracingPolicy,
    make_policy,
)


def _traced_run(policy, workers=3, steps=4):
    """Run a simple fan-out workload under `policy`, return the trace
    and the per-thread completion order."""
    machine = Machine(cores=2, policy=TracingPolicy(policy))
    order = []

    def worker(i):
        thread = machine.current()
        for _ in range(steps):
            thread.advance(100)
            thread.checkpoint()
        order.append(i)

    def main():
        threads = [
            machine.spawn(worker, i, name=f"w{i}") for i in range(workers)
        ]
        for thread in threads:
            thread.join()

    machine.run(main)
    return machine.policy.trace, order


class TestPolicies(unittest.TestCase):
    def test_registry_constructs_every_policy(self):
        for name in POLICIES:
            policy = make_policy(name, seed=3)
            trace, _ = _traced_run(policy)
            self.assertGreater(len(trace), 0, name)

    def test_make_policy_unknown_name(self):
        with self.assertRaises(MachineError):
            make_policy("fifo")

    def test_picks_are_always_runnable(self):
        # Whatever the policy chose had to be in the runnable set.
        for name in POLICIES:
            trace, _ = _traced_run(make_policy(name, seed=9))
            for chosen, runnable in zip(trace.chosen, trace.runnable):
                self.assertIn(chosen, runnable, name)

    def test_min_time_matches_default_machine(self):
        # The explicit MinTimePolicy is bit-for-bit the default.
        explicit, order_a = _traced_run(MinTimePolicy())
        again, order_b = _traced_run(MinTimePolicy())
        self.assertEqual(explicit.signature(), again.signature())
        self.assertEqual(order_a, order_b)

    def test_random_policy_same_seed_same_schedule(self):
        a, order_a = _traced_run(RandomPolicy(seed=42))
        b, order_b = _traced_run(RandomPolicy(seed=42))
        self.assertEqual(a.signature(), b.signature())
        self.assertEqual(order_a, order_b)

    def test_random_policy_different_seeds_diverge(self):
        signatures = {
            _traced_run(RandomPolicy(seed=s))[0].signature()
            for s in range(8)
        }
        self.assertGreater(len(signatures), 1)

    def test_priority_policy_starves(self):
        # prefer="young" runs the newest runnable thread first.
        _, young = _traced_run(PriorityPolicy(prefer="young"))
        self.assertEqual(young[0], max(young))
        with self.assertRaises(ValueError):
            PriorityPolicy(prefer="middle")

    def test_round_robin_rotates(self):
        trace, _ = _traced_run(RoundRobinPolicy())
        # At some step every live worker tid shows up.
        self.assertGreater(len(set(trace.chosen)), 1)

    def test_replay_reproduces_a_random_schedule(self):
        recorded, order = _traced_run(RandomPolicy(seed=7))
        replayed, order_again = _traced_run(ReplayPolicy(recorded))
        self.assertEqual(recorded.signature(), replayed.signature())
        self.assertEqual(order, order_again)

    def test_replay_prefix_falls_back(self):
        recorded, _ = _traced_run(RandomPolicy(seed=7))
        half = recorded.choices()[: len(recorded) // 2]
        policy = ReplayPolicy(half)
        trace, _ = _traced_run(policy)
        # The prefix is honoured; the rest is min-time.
        self.assertEqual(trace.chosen[: len(half)], half)

    def test_trace_round_trips_through_dict(self):
        trace, _ = _traced_run(RandomPolicy(seed=5))
        again = ScheduleTrace.from_dict(trace.to_dict())
        self.assertEqual(trace.signature(), again.signature())
        self.assertEqual(trace.runnable, again.runnable)
        self.assertEqual(trace.branch_points(), again.branch_points())


class TestMachineSchedulingSurface(unittest.TestCase):
    def test_max_steps_raises_livelock(self):
        machine = Machine(cores=1, max_steps=10)

        def spinner():
            thread = machine.current()
            while True:
                thread.advance(1)
                thread.checkpoint()

        def main():
            machine.spawn(spinner, name="spin").join()

        with self.assertRaises(LivelockError) as ctx:
            machine.run(main)
        self.assertEqual(ctx.exception.steps, 10)
        self.assertIn("spin", "".join(ctx.exception.live))

    def test_moved_constants_are_gone_from_machine(self):
        import repro.machine.machine as legacy

        for name in ("NEW", "RUNNABLE", "RUNNING", "BLOCKED", "DONE",
                     "DEFAULT_SPAWN_COST"):
            with self.assertRaises(AttributeError):
                getattr(legacy, name)

    def test_moved_constants_live_in_schedule(self):
        from repro.machine import schedule

        self.assertEqual(schedule.DEFAULT_SPAWN_COST, 15_000.0)


class TestSpawnKwargs(unittest.TestCase):
    def test_kwargs_dict_reaches_workload(self):
        machine = Machine(cores=1)
        seen = {}

        def worker(a, b=0, name=""):
            seen.update(a=a, b=b, name=name)

        def main():
            machine.spawn(
                worker, 1, name="wk", kwargs={"b": 2, "name": "payload"}
            ).join()

        machine.run(main)
        # The workload's own `name` kwarg no longer collides with the
        # spawn's thread name.
        self.assertEqual(seen, {"a": 1, "b": 2, "name": "payload"})

    def test_loose_kwargs_are_rejected(self):
        machine = Machine(cores=1)

        def worker(b=0):
            pass

        with self.assertRaises(TypeError):
            machine.spawn(worker, b=5)
        with self.assertRaises(TypeError):
            machine.run(worker, b=5)

    def test_run_accepts_kwargs_dict(self):
        machine = Machine(cores=1)

        def main(x, name=""):
            return (x, name)

        result = machine.run(main, 3, kwargs={"name": "top"})
        self.assertEqual(result, (3, "top"))


if __name__ == "__main__":
    unittest.main()
