"""Tests for the substrate perf counters (repro.sim.stats)."""

from repro.sim import KernelStats, Simulator, format_stats


def test_counters_start_at_zero():
    stats = KernelStats()
    assert stats.events_processed == 0
    assert stats.reallocations == 0
    assert stats.wakeups_cancelled == 0
    assert stats.route_cache_hits == 0
    assert stats.route_cache_misses == 0


def test_hit_rate_idle_is_one():
    assert KernelStats().route_cache_hit_rate == 1.0


def test_hit_rate_fraction():
    stats = KernelStats()
    stats.route_cache_hits = 3
    stats.route_cache_misses = 1
    assert stats.route_cache_hit_rate == 0.75


def test_reset_zeroes_everything():
    stats = KernelStats()
    stats.events_processed = 10
    stats.reallocations = 4
    stats.reset()
    assert stats.events_processed == 0
    assert stats.reallocations == 0


def test_snapshot_is_plain_dict():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    snap = sim.stats.snapshot()
    assert snap["events_processed"] == 1
    assert snap["route_cache_hit_rate"] == 1.0


def test_format_stats_includes_rate_when_timed():
    stats = KernelStats()
    stats.events_processed = 1000
    text = format_stats(stats.snapshot(), elapsed_wall=0.5)
    assert "events/sec" in text
    assert "2,000" in text
    assert "events/sec" not in format_stats(stats.snapshot())


def test_scheduler_counters_in_snapshot_and_reset():
    stats = KernelStats()
    assert stats.sched_rounds == 0
    stats.sched_rounds = 5
    stats.sched_evaluations = 100
    stats.sched_memo_hits = 7
    snap = stats.snapshot()
    assert snap["sched_rounds"] == 5
    assert snap["sched_evaluations"] == 100
    assert snap["sched_memo_hits"] == 7
    stats.reset()
    assert stats.sched_rounds == 0
    assert stats.sched_evaluations == 0
    assert stats.sched_memo_hits == 0


def test_format_stats_includes_scheduler_counters():
    stats = KernelStats()
    stats.sched_evaluations = 1234
    text = format_stats(stats.snapshot())
    assert "candidate evals" in text
    assert "1234" in text
    assert "forecast memo hits" in text
    assert "scheduler rounds" in text


def test_every_simulator_owns_independent_stats():
    a, b = Simulator(), Simulator()
    a.timeout(1.0)
    a.run()
    assert a.stats.events_processed == 1
    assert b.stats.events_processed == 0


def _distinct_stats():
    """A stats object with a different value in every counter."""
    stats = KernelStats()
    for i, name in enumerate(KernelStats.__slots__):
        if isinstance(getattr(stats, name), float):
            setattr(stats, name, (i + 1) * 1.25)
        else:
            setattr(stats, name, 1000 * (i + 1) + i)
    return stats


def test_every_slot_is_snapshotted_listed_and_reset():
    stats = _distinct_stats()
    snap = stats.snapshot()
    lines = format_stats(snap).splitlines()
    assert len(lines) == len(KernelStats.__slots__) + 1  # + hit rate
    for name in KernelStats.__slots__:
        value = getattr(stats, name)
        assert snap[name] == value
        assert type(snap[name]) is type(value)
        rendered = f"{value:.1f}" if isinstance(value, float) else str(value)
        assert sum(line.endswith(f": {rendered}") for line in lines) == 1
    assert list(snap) == (list(KernelStats.__slots__[:5])
                          + ["route_cache_hit_rate"]
                          + list(KernelStats.__slots__[5:]))
    stats.reset()
    for name in KernelStats.__slots__:
        assert getattr(stats, name) == 0
        assert type(getattr(stats, name)) is type(snap[name])


def test_format_stats_text_is_pinned():
    # Captured from the hand-written listing this table replaced.
    assert format_stats(_distinct_stats().snapshot(), elapsed_wall=2.5) == (
        "events processed     : 1000\n"
        "reallocations        : 2001\n"
        "stale wake-ups       : 3002\n"
        "route cache hits     : 4003\n"
        "route cache misses   : 5004\n"
        "route cache hit rate : 0.444\n"
        "scheduler rounds     : 6005\n"
        "candidate evals      : 7006\n"
        "forecast memo hits   : 8007\n"
        "jobs submitted       : 9008\n"
        "jobs rejected        : 10009\n"
        "jobs started         : 11010\n"
        "jobs completed       : 12011\n"
        "jobs backfilled      : 13012\n"
        "reservations made    : 14013\n"
        "queue-wait seconds   : 18.8\n"
        "cpu-seconds served   : 20.0\n"
        "planning rounds      : 17016\n"
        "reservations kept    : 18017\n"
        "reservations rebuilt : 19018\n"
        "window probes        : 20019\n"
        "estimate memo hits   : 21020\n"
        "wakes scheduled      : 22021\n"
        "events/sec (wall)    : 400")
