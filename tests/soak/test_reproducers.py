"""Pinned regression reproducers for the bugs the soak flushed out.

Each JSON file under ``reproducers/`` is a shrunk (or hand-minimized)
scenario that violated an invariant before its fix landed:

* ``loadgen-crash-removal.json`` — ``ScheduledLoad`` removing its
  synthetic tasks from a host that crashed and re-registered in
  between (unhandled-error).
* ``condition-late-failure.json`` — a second dying MPI rank's failure
  escaping an already-failed ``AllOf`` undefused and aborting the run
  (unhandled-error).
* ``swap-stop-pending-period.json`` — ``SwapRescheduler.stop()``
  leaving a pending-timeout loop that issued one more swap decision
  after the stop (swap-hygiene).

The ``kill-*.json`` files are hand-written kill scenarios for the
failure-recovery paths (DESIGN.md §8).  Each stages timed host faults
against an SRS lane whose ``expect`` floors make the srs-hygiene
auditor check that the fault landed on the path it targets:

* ``kill-host-death-mid-migration.json`` — load on ``utk.n0`` makes
  the forced rescheduler order a migration; ``utk.n0`` dies while it
  is in flight (aborted migration, checkpoint restart).
* ``kill-candidate-set-wipeout.json`` — no cluster keeps two live
  hosts; the run waits out the outage with bounded backoff
  (retry waits, then a restart).
* ``kill-crash-recover-churn.json`` — three 40 s outages of hosts the
  job occupies; every one restarts from checkpoint, and every restore
  resumes from the last checkpoint RSS published (step 6, then 9).

All of them must now replay to zero violations and full quiescence —
forever.  If one regresses, replay it interactively with
``repro soak replay tests/soak/reproducers/<name>.json``.
"""

import glob
import os

import pytest

from repro.rescheduling import SRSLibrary
from repro.soak import load_reproducer, run_with_checks

REPRODUCER_DIR = os.path.join(os.path.dirname(__file__), "reproducers")
REPRODUCERS = sorted(glob.glob(os.path.join(REPRODUCER_DIR, "*.json")))


def test_reproducer_set_is_complete():
    names = {os.path.basename(p) for p in REPRODUCERS}
    assert {"loadgen-crash-removal.json", "condition-late-failure.json",
            "swap-stop-pending-period.json"} <= names


def test_kill_spec_set_is_complete():
    kills = sorted(os.path.basename(p) for p in REPRODUCERS
                   if os.path.basename(p).startswith("kill-"))
    assert kills == ["kill-candidate-set-wipeout.json",
                     "kill-crash-recover-churn.json",
                     "kill-host-death-mid-migration.json"]


@pytest.mark.parametrize(
    "path", REPRODUCERS, ids=[os.path.basename(p) for p in REPRODUCERS])
def test_reproducer_replays_clean(path):
    spec = load_reproducer(path)
    result = run_with_checks(spec)
    assert result["violations"] == [], result["violations"]
    assert result["quiesced"]


def test_kill_spec_replay_is_deterministic():
    spec = load_reproducer(
        os.path.join(REPRODUCER_DIR, "kill-host-death-mid-migration.json"))
    assert run_with_checks(spec) == run_with_checks(spec)


def test_kill_restarts_resume_from_last_published_checkpoint(monkeypatch):
    """A restore that hands back a superseded checkpoint still replays
    clean (the srs ``expect`` floors only count recoveries), so pin the
    step every restarted rank resumes from."""
    restores = []
    real_restore = SRSLibrary.restore

    def restore(self, ctx, dataset, new_n_procs):
        step = yield from real_restore(self, ctx, dataset, new_n_procs)
        published = self.rss.checkpoint(dataset)
        restores.append((dataset, step,
                         None if published is None else published.progress))
        return step

    monkeypatch.setattr(SRSLibrary, "restore", restore)
    spec = load_reproducer(
        os.path.join(REPRODUCER_DIR, "kill-crash-recover-churn.json"))
    assert run_with_checks(spec)["violations"] == []
    stale = [entry for entry in restores if entry[1] != entry[2]]
    assert stale == [], stale
    for dataset in ("A", "B"):
        steps = [step for name, step, _ in restores
                 if name == dataset and step is not None]
        assert steps == [6] * 4 + [9] * 8, (dataset, steps)
