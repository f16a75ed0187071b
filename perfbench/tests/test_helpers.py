"""Tests of the benchmark's own helpers (no program run needed).

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from layers import LayerClock, rollup_spans  # noqa: E402
from loadgen import (ADVISES_PER_FEED, FeedClocks, backlog_grows,  # noqa: E402
                     open_loop_timings, population, schedule)
from stats import percentile, summarize, supported_tail  # noqa: E402


# -- percentiles ---------------------------------------------------------

def test_summary_reports_sample_count():
    assert summarize([3.0, 1.0, 2.0])["n"] == 3
    assert summarize([])["n"] == 0


@pytest.mark.parametrize("count,tail", [
    (9, None), (39, None), (40, 75.0), (50, 80.0), (99, 80.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
])
def test_tail_needs_ten_samples_beyond_it(count, tail):
    assert supported_tail(count) == tail
    summary = summarize(list(range(count)))
    assert summary["tail_q"] == tail
    if tail is not None:
        beyond = sum(1 for v in range(count) if v > summary["tail"])
        assert beyond >= 10


def test_no_tail_below_forty_samples():
    summary = summarize([float(v) for v in range(20)])
    assert summary["tail"] is None and summary["tail_q"] is None
    assert summary["p50"] == pytest.approx(9.5)


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 50.0) == 5.0
    assert percentile([4.0], 95.0) == 4.0


# -- open-loop accounting ------------------------------------------------

def test_latency_counts_from_due_time():
    timing = open_loop_timings(due=10.0, sent=10.3, done=10.5)
    assert timing["latency"] == pytest.approx(0.5)
    assert timing["late"] == pytest.approx(0.3)


def test_early_send_is_not_late():
    assert open_loop_timings(due=1.0, sent=0.999, done=1.2)["late"] == 0.0


def test_backlog_detection():
    assert not backlog_grows([0.001] * 40)
    assert backlog_grows([0.01 * k for k in range(40)])
    assert not backlog_grows([0.5, 0.6])     # too few to tell


def test_open_schedule_spreads_dues_over_the_window():
    rng = random.Random(1)
    tenants = population()
    requests = schedule(rng, tenants, FeedClocks(), 60,
                        duration_s=10.0)
    dues = [r["due"] for r in requests]
    assert dues == sorted(dues)
    assert 0.0 <= dues[0] and dues[-1] <= 10.0
    assert len(requests) == 60


def test_schedule_is_seeded():
    def make(seed):
        return schedule(random.Random(seed), population(),
                        FeedClocks(), 48)
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_tenant_chunks_do_not_depend_on_traffic_order():
    def chunks(seed):
        sent = schedule(random.Random(seed), population(), FeedClocks(), 96)
        by_tenant = {}
        for request in sent:
            if request["kind"] == "feed":
                by_tenant.setdefault(request["tenant"], []).append(
                    request["records"])
        return by_tenant
    assert chunks(1) == chunks(2)


def test_closed_batch_gives_every_tenant_the_same_mix():
    tenants = population()
    count = len(tenants) * (ADVISES_PER_FEED + 1)
    requests = schedule(random.Random(3), tenants,
                        FeedClocks(), count)
    for tenant_id, _, _ in tenants:
        kinds = [r["kind"] for r in requests if r["tenant"] == tenant_id]
        assert kinds.count("advise") == ADVISES_PER_FEED
        assert kinds.count("feed") == 1


# -- per-tenant monotone feed clocks -------------------------------------

def test_feed_clocks_never_go_back_per_tenant():
    tenants = population()
    clocks = FeedClocks()
    rng = random.Random(8)
    sent = []
    for _ in range(4):
        sent.extend(schedule(rng, tenants, clocks, 48))
        sent.extend(schedule(rng, tenants, clocks, 30, duration_s=5.0))
    last = {}
    for request in sent:
        if request["kind"] != "feed":
            continue
        times = [r["finish_time"] for r in request["records"]]
        assert times == sorted(times)
        assert times[0] >= last.get(request["tenant"], float("-inf"))
        last[request["tenant"]] = times[-1]


def test_tenant_pinned_to_one_connection():
    requests = schedule(random.Random(1), population(),
                        FeedClocks(), 200, duration_s=20.0)
    conns = {}
    for request in requests:
        conns.setdefault(request["tenant"], set()).add(request["conn"])
    assert all(len(c) == 1 for c in conns.values())


def test_feed_chunks_rotate_the_hot_object():
    clocks = FeedClocks()
    hot = []
    for _ in range(3):
        records = clocks.chunk("t", ["a", "b"])
        counts = {o: sum(1 for r in records if r["obj"] == o)
                  for o in ("a", "b")}
        hot.append(max(counts, key=counts.get))
    assert hot == ["a", "b", "a"]


# -- span self-time roll-up ----------------------------------------------

def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start_s": start, "end_s": end,
            "parent": parent}


def test_rollup_across_processes():
    # A request whose pool dispatch ran a worker span grafted from another
    # process; the worker span has a child of its own.
    spans = [
        _span(1, "request", 0.0, 1.0),
        _span(2, "scheduler.queue", 0.1, 0.3, parent=1),
        _span(3, "pool.dispatch", 0.3, 0.9, parent=1),
        _span(4, "worker.advise", 0.35, 0.85, parent=3),
        _span(5, "solver.restart", 0.4, 0.8, parent=4),
        _span(6, "response.serialize", 0.9, 0.95, parent=1),
    ]
    self_s, counts = rollup_spans(spans)
    assert self_s["request"] == pytest.approx(0.15)
    assert self_s["scheduler.queue"] == pytest.approx(0.2)
    assert self_s["pool.dispatch"] == pytest.approx(0.1)
    assert self_s["worker.advise"] == pytest.approx(0.1)
    assert self_s["solver.restart"] == pytest.approx(0.4)
    assert sum(self_s.values()) == pytest.approx(1.0)
    assert counts["request"] == 1


def test_rollup_nests_siblings_by_interval():
    # The service records a re-solve's queue and dispatch under the
    # request root although they run inside the feed span.
    spans = [
        _span(1, "request", 0.0, 1.0),
        _span(2, "tenant.feed", 0.1, 0.9, parent=1),
        _span(3, "scheduler.queue", 0.2, 0.3, parent=1),
        _span(4, "pool.dispatch", 0.3, 0.6, parent=1),
    ]
    self_s, _ = rollup_spans(spans)
    assert self_s["tenant.feed"] == pytest.approx(0.4)
    assert self_s["request"] == pytest.approx(0.2)


def test_rollup_clips_children_and_overlaps():
    spans = [
        _span(1, "root", 0.0, 1.0),
        _span(2, "a", 0.0, 0.6, parent=1),
        _span(3, "b", 0.5, 1.2, parent=1),    # overlaps a, overruns root
    ]
    self_s, _ = rollup_spans(spans)
    assert self_s["root"] == pytest.approx(0.0)


def test_rollup_sums_repeated_names():
    spans = [
        _span(1, "request", 0.0, 1.0),
        _span(2, "scheduler.queue", 0.0, 0.25, parent=1),
        _span(3, "scheduler.queue", 0.5, 0.75, parent=1),
    ]
    self_s, counts = rollup_spans(spans)
    assert self_s["scheduler.queue"] == pytest.approx(0.5)
    assert counts["scheduler.queue"] == 2


# -- layer clock ---------------------------------------------------------

class _Fake:
    def outer(self, clock_box):
        clock_box.append("outer")
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_layer_clock_self_time_and_restore():
    ticks = iter(range(100))
    clock = LayerClock(timer=lambda: float(next(ticks)))
    original = _Fake.__dict__["outer"]
    clock.wrap(_Fake, "outer", "top")
    clock.wrap(_Fake, "inner", "leaf")
    with clock:
        assert _Fake().outer([]) == 2
    assert _Fake.__dict__["outer"] is original
    # outer: t0..t5 (5 s); inners: 1..2 and 3..4 (1 s each).
    assert clock.total_s["top"] == 5.0
    assert clock.self_s["leaf"] == 2.0
    assert clock.self_s["top"] == 3.0
    assert clock.calls["leaf"] == 2


def test_layer_clock_charges_reentrant_calls_once():
    class Chain:
        def a(self):
            return self.b()

        def b(self):
            return 7

    clock = LayerClock()
    seen = []
    clock.wrap(Chain, "a", "same")
    clock.wrap(Chain, "b", "same",
               on_call=lambda clk, args, kwargs: seen.append(1))
    with clock:
        assert Chain().a() == 7
    assert clock.calls["same"] == 1
    assert seen == [1]
