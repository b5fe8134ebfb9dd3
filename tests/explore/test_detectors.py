"""The detector stack: races, contention tracking, oracles."""

import unittest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import (
    Explorer,
    ExploreOptions,
    LocksetRaceDetector,
    OracleViolation,
    check_recovery_accounting,
    workload_by_name,
)
from repro.explore.workloads import RacyCounterWorkload
from tests.oracles.per_event import append


class TestLocksetDetector(unittest.TestCase):
    def _sweep(self, locked, trials=20, seed=2):
        factory = lambda: RacyCounterWorkload(
            threads=3, iters=3, locked=locked
        )
        return Explorer(
            factory,
            ExploreOptions(trials=trials, seed=seed, policy="random"),
        ).run()

    def test_reports_unlocked_counter(self):
        report = self._sweep(locked=False)
        detectors = report.findings_by_detector()
        self.assertIn("race", detectors)
        # One location, reported once per schedule at most.
        self.assertLessEqual(detectors["race"], len(report.runs))
        finding = next(
            f for f in report.findings if f.detector == "race"
        )
        self.assertIn("counter.value", finding.message)
        # Every finding is stamped with its provenance.
        self.assertIsNotNone(finding.seed)
        self.assertIsNotNone(finding.policy)

    def test_silent_on_locked_counter(self):
        report = self._sweep(locked=True)
        self.assertTrue(report.ok, report.report())

    @settings(max_examples=15, deadline=None)
    @given(
        threads=st.integers(min_value=2, max_value=4),
        iters=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_locked_counter_never_reports(self, threads, iters, seed):
        # Property: a correctly-locked counter is race-free under any
        # seeded schedule, and never loses an update.
        factory = lambda: RacyCounterWorkload(
            threads=threads, iters=iters, locked=True
        )
        report = Explorer(
            factory,
            ExploreOptions(trials=3, seed=seed, policy="random"),
        ).run()
        self.assertTrue(report.ok, report.report())

    def test_detector_is_per_run_state(self):
        detector = LocksetRaceDetector()
        self.assertEqual(detector.findings, [])
        self.assertEqual(detector.locks_held(1), [])


class TestContentionTracker(unittest.TestCase):
    def test_flags_cover_dependent_steps(self):
        # A run of the racy counter must flag the steps where the
        # shared location was touched by different threads.
        explorer = Explorer(
            lambda: RacyCounterWorkload(threads=2, iters=2),
            ExploreOptions(trials=1, seed=0, policy="min-time"),
        )
        run = explorer.run_trial(0, policy_name="min-time")
        self.assertTrue(run._flagged_steps)
        self.assertTrue(
            all(0 <= s < len(run.trace) for s in run._flagged_steps)
        )


class TestOracles(unittest.TestCase):
    def test_recovery_accounting_balances_on_clean_log(self):
        from repro.core.log import SharedLog

        log = SharedLog.create(8, sealed=True)
        for i in range(6):
            append(log, 0, 100 + i, 0x400000 + i, 1)
        log._store_tail()
        report = check_recovery_accounting(log.to_bytes())
        self.assertEqual(
            report.entries_salvaged + report.entries_quarantined, 6
        )

    def test_recovery_accounting_raises_on_cooked_books(self):
        # Force a mismatch by lying about the committed count: hand
        # the checker an image with entries the report can't see.
        from repro.core.log import SharedLog

        log = SharedLog.create(4, sealed=True)
        append(log, 0, 1, 0x400000, 1)
        log._store_tail()
        image = log.to_bytes()

        class Lying:
            pass

        # A sanity check on the checker itself: the balanced case
        # passes, so feed it a report-vs-image length mismatch via a
        # monkeypatched recover_log.
        import repro.core.recovery as recovery

        real = recovery.recover_log

        def cooked(img, **kw):
            salvaged, report = real(img, **kw)
            report.entries_salvaged += 1
            return salvaged, report

        recovery.recover_log = cooked
        try:
            with self.assertRaises(OracleViolation):
                check_recovery_accounting(image)
        finally:
            recovery.recover_log = real

    def test_record_path_verify_catches_corruption(self):
        # If a schedule *had* torn a committed entry, verify() would
        # raise: flip a byte post-run and check the oracle notices.
        workload = workload_by_name("record-path", quick=True)()
        explorer = Explorer(lambda: workload, ExploreOptions(trials=1))
        run = explorer.run_trial(0, policy_name="min-time")
        self.assertTrue(run.ok, run.findings)
        # Corrupt one committed entry in place.
        from repro.core.log import HEADER_SIZE

        workload.log._buf[HEADER_SIZE + 3] ^= 0xFF
        with self.assertRaises(OracleViolation):
            workload.verify(None)


if __name__ == "__main__":
    unittest.main()
