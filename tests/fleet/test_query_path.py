"""The query path: per-tenant locks, snapshot immutability, and the
incremental merged-profile cache."""

import sys
import threading
import time

from repro.core.flamegraph import FlameGraph
from repro.fleet import PathTable, WindowStore, WindowSummary

A = ("app::Main()", "app::Parse()")
B = ("app::Main()", "app::Process()")
C = ("app::Main()", "app::Process()", "app::Flush()")


def make_store():
    store = WindowStore(window_seconds=60.0, retention=4)
    store.add("web", {A: 100}, {"app::Parse()": 1}, ts=0.0)
    store.add("db", {B: 200}, {"app::Process()": 1}, ts=0.0)
    return store


# ----------------------------------------------------------------------
# Per-tenant lock split


def test_slow_query_on_one_tenant_does_not_block_another():
    """A merged query stuck on tenant "web" must not delay ingest into
    tenant "db" — the store has no global lock to contend on.  The
    stuck query is simulated by holding web's own tenant lock, the
    exact lock a slow query serialises on."""
    store = make_store()
    web_lock = store._state("web").lock
    web_lock.acquire()
    try:
        query = threading.Thread(
            target=store.merged, args=("web",), daemon=True
        )
        query.start()
        query.join(timeout=0.1)
        assert query.is_alive()  # web really is wedged...

        start = time.perf_counter()
        store.add("db", {B: 50}, ts=1.0)
        assert store.merged("db").total_exclusive() == 250
        assert time.perf_counter() - start < 1.0  # ...but db is not
    finally:
        web_lock.release()
    query.join(timeout=5.0)
    assert not query.is_alive()


def test_profiles_are_immutable_snapshots():
    """A handed-out profile never changes under later ingest — all
    rendering happens outside the tenant lock on private arrays, and
    a snapshot reads only the paths its tenant's table had when it was
    taken, even when it first renders after the table grew."""
    store = make_store()
    snapshot = store.merged("web")
    before = snapshot.folded()
    text = snapshot.to_folded()
    unrendered = store.profile("web", 0)
    store.add("web", {A: 999, B: 1, C: 5}, ts=1.0)
    assert snapshot.folded() == before
    assert snapshot.total_exclusive() == 100
    assert snapshot.to_folded() is text
    assert text == "app::Main();app::Parse() 100\n"
    assert unrendered.to_folded() == text
    assert unrendered.flamegraph("w0").to_svg() == (
        make_store().profile("web", 0).flamegraph("w0").to_svg()
    )


def test_a_snapshot_renders_its_folded_text_once():
    """The folded text renders once per snapshot; a cache hit hands
    back the same snapshot, so a repeated query renders nothing, and
    the next ingest makes a new snapshot with its own text."""
    store = make_store()
    snapshot = store.merged("web")
    text = snapshot.to_folded()
    assert snapshot.to_folded() is text
    assert store.merged("web").to_folded() is text
    store.add("web", {B: 7}, ts=1.0)
    assert store.merged("web").to_folded() == (
        "app::Main();app::Parse() 100\napp::Main();app::Process() 7\n"
    )


def test_racing_first_renders_agree_under_ingest():
    """The memo takes no lock: threads racing on a snapshot's first
    render each render the same text, whichever write is kept, while
    ingest grows the tenant's path table underneath them."""
    store = make_store()
    snapshot = store.merged("web")
    expected = make_store().merged("web").to_folded()
    results = []
    stop = threading.Event()

    def render():
        results.append(snapshot.to_folded())

    def ingest():
        i = 0
        while not stop.is_set():
            store.add("web", {A + (f"app::Leaf{i}()",): 1}, ts=1.0)
            i += 1

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=ingest, daemon=True)
        writer.start()
        readers = [threading.Thread(target=render) for _ in range(6)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
        stop.set()
        writer.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not writer.is_alive()
    assert not any(reader.is_alive() for reader in readers)
    assert results == [expected] * len(readers)


def test_renders_race_ingest_that_grows_the_table():
    """Readers render new and old snapshots while a writer keeps
    adding paths, so the table's memoised lines are extended by racing
    readers (a slow one may publish a shorter memo than another's
    last).  Every text equals the one its snapshot's own folded dict
    gives."""
    store = make_store()
    stop = threading.Event()
    mismatches, renders = [], []

    def ingest():
        for i in range(400):
            leaf = (f"app::Leaf{i % 7}()",) * (1 + i % 3)
            store.add("web", {A + leaf + (f"app::F{i}()",): 1 + i},
                      ts=1.0)
        stop.set()

    def check(profile):
        text = profile.to_folded()
        renders.append(len(profile))
        if text != FlameGraph(profile.folded()).to_folded():
            mismatches.append(len(profile))

    def render():
        late = None  # every other snapshot renders after the table grew
        while not stop.is_set():
            snapshot = store.merged("web")
            if late is None:
                late = snapshot
            else:
                check(snapshot)
                check(late)
                late = None
        if late is not None:
            check(late)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=render) for _ in range(4)]
        for reader in readers:
            reader.start()
        writer = threading.Thread(target=ingest)
        writer.start()
        writer.join(timeout=60)
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not writer.is_alive()
    assert not any(reader.is_alive() for reader in readers)
    assert renders
    assert not mismatches


class _RacedTable(PathTable):
    """A table on which another reader publishes its stale memo right
    after each publish: one that sized its lines before the table grew
    and stored them last."""

    __slots__ = ("stale",)

    @property
    def _lines(self):
        return PathTable._lines.__get__(self)

    @_lines.setter
    def _lines(self, lines):
        PathTable._lines.__set__(self, lines)
        stale = getattr(self, "stale", None)
        if stale is not None:
            PathTable._lines.__set__(self, stale)


def test_a_shorter_memo_published_meanwhile_drops_no_line():
    """A render reads the lines it was handed, not the table's
    attribute, which a racing reader may have just set back to a
    shorter memo."""
    table = _RacedTable()
    window = WindowSummary(0, table=table)
    window.absorb({A: 5}, {})
    table.stale = table.folded_lines(len(table))
    window.absorb({B: 7, C: 1}, {})
    assert window.profile().to_folded() == (
        FlameGraph(window.folded).to_folded()
    )
    assert table.folded_lines(0) is table.stale  # it did race


# ----------------------------------------------------------------------
# Incremental merged-profile cache


def test_repeat_query_is_a_cache_hit():
    store = make_store()
    first = store.merged("web")
    assert store.merged("web") is first  # same object, no re-merge
    assert store.totals()["merged_cache_hits"] == 1


def test_ingest_invalidates_the_cached_answer():
    store = make_store()
    stale = store.merged("web")
    store.add("web", {B: 50}, ts=1.0)
    fresh = store.merged("web")
    assert fresh is not stale
    assert fresh.total_exclusive() == 150
    assert fresh.folded()[B] == 50


def test_newly_stable_windows_fold_incrementally():
    """When ingest moves to a newer window, the previous newest folds
    into the cached base with one array add — no rebuild."""
    store = make_store()
    store.merged("web")  # prime: base covers nothing, newest = w0
    store.add("web", {B: 10}, ts=60.0)  # w1 opens; w0 is now stable
    store.merged("web")
    totals = store.totals()
    assert totals["merged_cache_folds"] >= 1
    assert totals["merged_cache_rebuilds"] == 1  # only the prime


def test_archive_churn_rebuilds_the_base():
    store = WindowStore(window_seconds=60.0, retention=2)
    for i in range(3):
        store.add("web", {A: 10}, ts=60.0 * i)
        store.merged("web")
    rebuilds = store.totals()["merged_cache_rebuilds"]
    store.add("web", {A: 10}, ts=60.0 * 3)  # expires w1 into archive
    assert store.merged("web").total_exclusive() == 40
    assert store.totals()["merged_cache_rebuilds"] > rebuilds


def test_flush_cache_forces_a_cold_remerge():
    store = make_store()
    warm = store.merged("web")
    store.flush_cache("web")
    cold = store.merged("web")
    assert cold is not warm
    assert cold.folded() == warm.folded()


def test_explicit_window_subsets_bypass_the_cache():
    store = make_store()
    store.add("web", {B: 50}, ts=60.0)
    merged = store.merged("web", wids=[0])
    assert merged.folded() == {A: 100}
    assert store.merged("web", wids=[0, 1]).total_exclusive() == 150
    assert store.totals()["merged_cache_hits"] == 0


# ----------------------------------------------------------------------
# Daemon end to end: ingest between queries changes the answer


def test_daemon_query_sees_post_cache_ingest(baseline_session):
    from repro.fleet import FleetDaemon

    daemon = FleetDaemon(jobs=2, prefer_processes=False)
    daemon.start()
    try:
        with daemon.session(
            "web", baseline_session["symtab"], session="s1"
        ) as session:
            session.publish(baseline_session["log_bytes"])
        daemon.drain()
        ticks = baseline_session["ticks"]
        assert daemon.profile("web").total_exclusive() == ticks
        # The merged answer is now cached; a second ingest must not be
        # masked by it.
        with daemon.session(
            "web", baseline_session["symtab"], session="s2"
        ) as session:
            session.publish(baseline_session["log_bytes"])
        daemon.drain()
        assert daemon.profile("web").total_exclusive() == 2 * ticks
    finally:
        daemon.stop()
