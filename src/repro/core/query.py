"""The declarative query interface (§II-C "Queries").

After the analyzer has read the log, the user can interrogate the data
further.  The paper drops the user into an interactive session over
pandas dataframes; here :class:`QuerySession` wraps the analysis in the
same style — the raw frames are exposed (``session.records``,
``session.methods``) for arbitrary declarative queries, and the
questions the paper calls out (contention, call dependencies, "which
thread called which method how often") have named helpers.
"""

from repro.core.errors import AnalyzerError


class QuerySession:
    """Declarative queries over an :class:`~repro.core.analyzer.Analysis`."""

    def __init__(self, analysis):
        self.analysis = analysis
        self._records_frame = None
        self._methods_frame = None

    @property
    def records(self):
        """The per-invocation frame (built on first use — canned
        queries that touch only one frame pay for one)."""
        if self._records_frame is None:
            self._records_frame = self.analysis.records_frame()
        return self._records_frame

    @property
    def methods(self):
        """The per-method aggregate frame (built on first use)."""
        if self._methods_frame is None:
            self._methods_frame = self.analysis.methods_frame()
        return self._methods_frame

    # ------------------------------------------------------------------
    # Canned queries from the paper's motivation

    def hottest(self, n=10, by="exclusive"):
        """The n methods with the most time, hottest first."""
        return self.methods.sort(by, reverse=True).head(n)

    def thread_method_counts(self):
        """Which thread called which method how often (§III)."""
        return (
            self.records.groupby("thread", "method")
            .count("calls")
            .sort("calls", reverse=True)
        )

    def callers_of(self, method):
        """Who calls `method`, with call counts and total time."""
        calls = self.records.filter(method=method)
        if not len(calls):
            raise AnalyzerError(f"{method!r} does not appear in the profile")
        return (
            calls.groupby("caller")
            .agg(calls=("method", len), inclusive=("inclusive", sum))
            .sort("calls", reverse=True)
        )

    def callees_of(self, method):
        """What `method` calls directly, with counts and total time."""
        return (
            self.records.filter(caller=method)
            .groupby("method")
            .agg(calls=("thread", len), inclusive=("inclusive", sum))
            .sort("inclusive", reverse=True)
        )

    def calls_deeper_than(self, depth):
        """Deep call chains — a quick recursion/contention smell."""
        return self.records.filter(lambda r: r["depth"] > depth)

    def slowest_invocations(self, n=10):
        """Individual invocations by inclusive time (tail hunting)."""
        return self.records.sort("inclusive", reverse=True).head(n)

    def method_by_call_history(self, method):
        """Per-caller timing of `method`: performance depending on the
        call history (§II-C "Call stack")."""
        calls = self.records.filter(method=method)
        if not len(calls):
            raise AnalyzerError(f"{method!r} does not appear in the profile")
        return (
            calls.groupby("caller")
            .agg(
                calls=("inclusive", len),
                total=("inclusive", sum),
                mean=("inclusive", lambda v: sum(v) / len(v)),
                worst=("inclusive", max),
            )
            .sort("total", reverse=True)
        )

    def contention_candidates(self, n=10):
        """Methods whose worst invocation dwarfs their mean — the
        signature of waiting behind a lock."""
        frame = self.records.groupby("method").agg(
            calls=("inclusive", len),
            mean=("inclusive", lambda v: sum(v) / len(v)),
            worst=("inclusive", max),
        )
        frame = frame.filter(lambda r: r["calls"] > 1 and r["mean"] > 0)
        return (
            frame.with_column("skew", lambda r: r["worst"] / r["mean"])
            .sort("skew", reverse=True)
            .head(n)
        )

    def summary(self):
        """One-paragraph overview of the profile."""
        analysis = self.analysis
        hottest = analysis.methods()[0] if analysis.methods() else None
        lines = [
            f"calls: {len(analysis.columns)}",
            f"threads: {len(analysis.threads())}",
            f"total exclusive ticks: {analysis.total_exclusive()}",
        ]
        if hottest:
            share = 100 * analysis.exclusive_fraction(hottest.method)
            lines.append(
                f"hottest method: {hottest.method} ({share:.1f}% exclusive)"
            )
        return "\n".join(lines)
