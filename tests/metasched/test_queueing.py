"""Fair-share queue ordering, aging, and accounting."""

import pytest

from repro.metasched.jobs import JobSpec
from repro.metasched.queueing import FairShareQueue


def spec(name, user, submit=0.0, priority=0):
    return JobSpec(name=name, user=user, kind="qr", submit_time=submit,
                   n_hosts=1, size=1000.0, priority=priority)


class TestFairShareQueue:
    def test_cold_start_is_fifo(self):
        q = FairShareQueue()
        q.push(spec("a", "u0"))
        q.push(spec("b", "u1"))
        q.push(spec("c", "u0"))
        assert [s.name for s in q.ordered(0.0)] == ["a", "b", "c"]

    def test_heavy_user_yields_to_light_user(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog"))
        q.push(spec("light-job", "light"))
        assert [s.name for s in q.ordered(0.0)] == ["light-job", "hog-job"]

    def test_aging_overcomes_usage_spread(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog", submit=0.0))
        q.push(spec("light-job", "light", submit=10000.0))
        # Fresh at t=10000, the light user still goes... nowhere: the hog
        # job has waited 10000 s, its aging credit 1.0 cancels its full
        # normalized usage, and the FIFO tie-break puts it first again.
        assert [s.name for s in q.ordered(10000.0)] == \
            ["hog-job", "light-job"]
        # Before the credit accrued, the light user outranked it.
        q2 = FairShareQueue()
        q2.charge("hog", 5000.0)
        q2.push(spec("hog-job", "hog", submit=0.0))
        q2.push(spec("light-job", "light", submit=0.0))
        assert [s.name for s in q2.ordered(0.0)] == ["light-job", "hog-job"]

    def test_explicit_priority_wins(self):
        q = FairShareQueue()
        q.push(spec("normal", "u0"))
        q.push(spec("urgent", "u1", priority=5))
        assert [s.name for s in q.ordered(0.0)] == ["urgent", "normal"]

    def test_remove_and_membership(self):
        q = FairShareQueue()
        q.push(spec("a", "u0"))
        q.push(spec("b", "u0"))
        assert list(q._entries) == ["a", "b"]
        assert q.user_queued("u0") == 2
        removed = q.remove("a")
        assert removed.name == "a"
        assert list(q._entries) == ["b"]
        assert len(q) == 1
        with pytest.raises(KeyError):
            q.remove("a")

    def test_specs_preserves_arrival_order(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog"))
        q.push(spec("light-job", "light"))
        # dispatch order reranks; the queue itself keeps arrival order
        assert [s.name for s in q.ordered(0.0)] == ["light-job", "hog-job"]
        assert list(q._entries) == ["hog-job", "light-job"]


class TestOrderMemoization:
    """ordered() is computed once per mutation epoch (DESIGN.md §9.6):
    every queued job ages at the same rate, so the relative ranking is
    invariant in ``now`` until push/remove/charge changes the world."""

    def test_order_is_time_invariant_between_mutations(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog"))
        q.push(spec("light-job", "light"))
        first = [s.name for s in q.ordered(0.0)]
        assert [s.name for s in q.ordered(9999.0)] == first

    def test_returned_list_is_a_copy(self):
        q = FairShareQueue()
        q.push(spec("a", "u0"))
        q.push(spec("b", "u1"))
        order = q.ordered(0.0)
        order.clear()
        assert [s.name for s in q.ordered(0.0)] == ["a", "b"]

    def test_push_invalidates_cache(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog"))
        assert [s.name for s in q.ordered(0.0)] == ["hog-job"]
        q.push(spec("light-job", "light"))
        assert [s.name for s in q.ordered(0.0)] == ["light-job", "hog-job"]

    def test_remove_invalidates_cache(self):
        q = FairShareQueue()
        q.charge("hog", 5000.0)
        q.push(spec("hog-job", "hog"))
        q.push(spec("light-job", "light"))
        assert [s.name for s in q.ordered(0.0)] == ["light-job", "hog-job"]
        q.remove("light-job")
        assert [s.name for s in q.ordered(0.0)] == ["hog-job"]

    def test_charge_invalidates_cache(self):
        q = FairShareQueue()
        q.push(spec("a", "u0"))
        q.push(spec("b", "u1"))
        assert [s.name for s in q.ordered(0.0)] == ["a", "b"]
        # u0 burns cpu-seconds: the next round must re-rank
        q.charge("u0", 5000.0)
        assert [s.name for s in q.ordered(0.0)] == ["b", "a"]
