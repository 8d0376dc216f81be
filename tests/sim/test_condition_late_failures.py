"""Late child failures must be absorbed by a resolved condition.

An ``AllOf`` fails as soon as its first child fails.  Children that
fail *afterwards* used to slip past the condition undefused, and the
kernel raised their exception out of ``sim.run()`` — two hosts dying
under one MPI job aborted the entire simulation instead of failing the
job's completion event once.  Found by the soak harness
(``unhandled-error: HostFailure`` on a fault + swap scenario).
"""

from repro.sim import AllOf, Simulator


class TestLateChildFailures:
    def test_second_failed_child_of_allof_is_defused(self):
        sim = Simulator()
        children = [sim.event(f"rank{i}") for i in range(3)]
        done = AllOf(sim, children, name="job")
        caught = []
        done.add_callback(lambda ev: (setattr(ev, "defused", True),
                                      caught.append(type(ev.value))))
        sim.call_at(1.0, lambda: children[0].fail(RuntimeError("first")))
        sim.call_at(2.0, lambda: children[1].fail(RuntimeError("second")))
        sim.run()  # pre-fix: the second failure re-raised here
        assert caught == [RuntimeError]
        assert children[1].defused

    def test_same_instant_double_failure_is_absorbed(self):
        sim = Simulator()
        children = [sim.event(f"rank{i}") for i in range(2)]
        done = AllOf(sim, children)
        done.add_callback(lambda ev: setattr(ev, "defused", True))

        def both():
            children[0].fail(RuntimeError("a"))
            children[1].fail(RuntimeError("b"))

        sim.call_at(1.0, both)
        sim.run()
        assert not done.ok
        assert children[0].defused and children[1].defused

    def test_first_failure_still_fails_the_condition(self):
        sim = Simulator()
        children = [sim.event(), sim.event()]
        done = AllOf(sim, children)
        sim.call_at(1.0, lambda: children[0].fail(ValueError("boom")))
        sim.run()
        assert done.triggered and not done.ok
        assert isinstance(done.value, ValueError)
        assert children[0].defused
