"""Benchmark driver for the GrADS reproduction.

    python3 perfbench/run.py --workload fig3-sweep --seed 0 --seconds 35 \
        --trace 0

Run from the repository root (or any checkout of it); the package is
imported from ``src/``.  With ``--trace 0`` the workload's steps are
repeated for ``--seconds`` with tracing off and the end-to-end metrics
are reported; with ``--trace 1`` the workload runs untraced, traced
and untraced again, and the per-layer metrics are reported.  Every
operation's outcome is checked (see ``outcomes.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment stamp, the counter
snapshots and (traced) the span file are written under
``perfbench/out/``.  ``LAYERS.md`` explains every metric.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy

import outcomes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: fresh-interpreter set-up probes per run; ``setup_s`` is their median
SETUP_PROBES = 3

#: Time on a shared host drifts with the host's load, by up to 1.9x
#: over minutes, so ``wall_s`` and ``setup_s`` are rescaled to a
#: reference machine speed.  A speed probe of PROBE_ITERATIONS
#: iterations runs every PROBE_PERIOD_S while steps are timed (and
#: around every set-up probe); a step's time is multiplied by
#: REF_PROBE_S over the mean probe time while it ran.  REF_PROBE_S is
#: the probe's per-iteration time on an idle 2-vCPU Xeon VM, so there
#: the rescaled times equal the measured ones.
PROBE_ITERATIONS = 25
PROBE_PERIOD_S = 0.2
REF_PROBE_S = 1.0e-4


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self, name: str, workloads, pins) -> None:
        self._name = name
        self._workloads = workloads
        self._pins = pins
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def _fail(self, op_id: str, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(f"{op_id}: {why}")

    def run_step(self, run, step) -> float:
        """Run and time one step, check its outcomes; return seconds."""
        start = time.perf_counter()
        try:
            results = run(step)
        except Exception as exc:  # a raising step fails its operations
            elapsed = time.perf_counter() - start
            count = self._workloads.operations_per_step(self._name, step)
            self.attempted += count
            self._fail(self._workloads.step_label(self._name, step),
                       f"raised {type(exc).__name__}: {exc}", count)
            return elapsed
        elapsed = time.perf_counter() - start
        for op_id, outcome, invariant_failures in results:
            self.attempted += 1
            why = outcomes.check(op_id, outcome, invariant_failures,
                                 self._pins)
            if why is not None:
                self._fail(op_id, why)
        return elapsed


def env_stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "platform": platform.platform(), "seed": seed}


def speed_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds per iteration of a fixed kernel shaped like the program's
    hot path: a small least-squares fit, two small medians, heap and
    dict traffic.  It uses only numpy and the standard library, so no
    change to the program moves it; only the machine's speed does."""
    series = [0.5 + 0.01 * ((i * 7919) % 97) for i in range(64)]
    start = time.perf_counter()
    for k in range(iterations):
        window = series[k % 30:k % 30 + 30]
        design = numpy.column_stack([numpy.ones(28), window[1:29],
                                     window[0:28]])
        numpy.linalg.lstsq(design, numpy.asarray(window[2:30]), rcond=None)
        numpy.median(window[:5])
        numpy.median(window[:20])
        heap, table = [], {}
        for i in range(60):
            heapq.heappush(heap, (window[i % 30], i))
            table[i] = window[i % 30]
        while heap:
            heapq.heappop(heap)
    return (time.perf_counter() - start) / iterations


def setup_seconds(name: str, seed: int):
    """Fresh-interpreter set-up probes, each bracketed by speed probes:
    returns (wall seconds, mean probe seconds) per probe."""
    script = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, script, "--workload", name,
                        "--seed", str(seed)], cwd=ROOT, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, (before + speed_probe()) / 2))
    return samples


class SpeedSampler:
    """Runs a speed probe every PROBE_PERIOD_S of wall time from an
    interval timer, so a long step is sampled all through, not only at
    its ends.  The handler runs between bytecodes and touches no
    program state; the time it takes is kept in ``spent`` so callers
    can take it out of their timings."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(speed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(steps, run, tally, seconds):
    """Repeat the steps in order for ``seconds``: one full pass, then
    each next step only if its last time still fits before the
    deadline.  Returns, per step, a list of (wall seconds without
    probe time, mean speed probe while it ran)."""
    times = [[] for _ in steps]
    with SpeedSampler() as sampler:

        def one(i, step):
            first, spent = len(sampler.samples), sampler.spent
            elapsed = tally.run_step(run, step) - (sampler.spent - spent)
            # a step shorter than the period may see no probe of its
            # own; the latest one before it stands in
            probes = sampler.samples[first:] or sampler.samples[-1:]
            times[i].append((elapsed, statistics.fmean(probes)))

        deadline = time.perf_counter() + seconds
        for i, step in enumerate(steps):
            one(i, step)
        while True:
            for i, step in enumerate(steps):
                if time.perf_counter() + times[i][-1][0] > deadline:
                    return times
                one(i, step)


def at_reference_speed(samples) -> float:
    """Median of wall seconds rescaled to the reference machine speed:
    each sample times REF_PROBE_S over its own bracketing probe."""
    return statistics.median(elapsed / probe * REF_PROBE_S
                             for elapsed, probe in samples)


def end_to_end(name, seed, seconds, steps, workloads, tally):
    setup = setup_seconds(name, seed)
    run = workloads.step_runner(name, seed)
    times = timed(steps, run, tally, seconds)
    # A whole run's time: the sum over steps of each step's median over
    # this run's repetitions, at the reference machine speed.
    wall = sum(at_reference_speed(t) for t in times)
    raw_wall = sum(statistics.median(d for d, _ in t) for t in times)
    probes = [p for t in times for _, p in t]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = [len(t) for t in times]
    print(f"timed: {len(steps)} steps x {min(samples)}-{max(samples)} "
          f"repetitions in {sum(d for t in times for d, _ in t):.2f} s; "
          f"measured wall {raw_wall:.3f} s, set-up "
          f"{statistics.median(d for d, _ in setup):.3f} s; speed probe "
          f"median {statistics.median(probes) * 1e3:.4f} ms "
          f"(reference {REF_PROBE_S * 1e3:.4f} ms)")
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (at_reference_speed(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, {"step_seconds": times, "setup_seconds": setup,
                     "measured_wall_s": raw_wall}, []


def _sum_counters(snapshots):
    total: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            total[key] = total.get(key, 0) + value
    hits, misses = total.get("route_cache_hits", 0), total.get(
        "route_cache_misses", 0)
    total["route_cache_hit_rate"] = (hits / (hits + misses)
                                     if hits + misses else 1.0)
    return total


def _counter_diffs(a, b):
    """Names of counters that differ between two runs' snapshots."""
    if len(a) != len(b):
        return [f"simulator count {len(a)} != {len(b)}"]
    return sorted({key for x, y in zip(a, b) for key in set(x) | set(y)
                   if x.get(key) != y.get(key)})


def per_layer(name, seed, steps, workloads, tally):
    import spans as spanlib
    walls, counters, step_times = [], [], []
    recorder = spanlib.SpanRecorder()
    tracers: list = []
    for traced in (False, True, False):
        with spanlib.InstanceLog() as log:
            if traced:
                with recorder:
                    run = workloads.step_runner(name, seed, tracers)
                    times = [tally.run_step(run, s) for s in steps]
                history_len = log.history_len()
            else:
                run = workloads.step_runner(name, seed)
                times = [tally.run_step(run, s) for s in steps]
                step_times.extend(times)
            walls.append(sum(times))
            counters.append(log.counters())
    nondeterministic = _counter_diffs(counters[0], counters[2])
    trace_changed = _counter_diffs(counters[0], counters[1])
    traced_wall = walls[1]
    untraced_wall = statistics.median([walls[0], walls[2]])
    folded = spanlib.fold(recorder.spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.csv"))

    c = _sum_counters(counters[0])
    g = folded["groups"]
    self_s = folded["layer_self"]
    events = c["events_processed"]
    kept, rebuilt = c["meta_plan_kept"], c["meta_plan_rebuilt"]
    soak = workloads.SOAK == name
    scenario_ms = [t * 1e3 for t in step_times] if soak else []
    metrics = {
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / untraced_wall, "1/s"),
        "sim.stale_wakeup_ratio": (
            c["wakeups_cancelled"] / events if events else 0.0, "frac"),
        "net.transfer_n": (g["net.transfer"]["n"], "count"),
        "net.transfer_s": (g["net.transfer"]["s"], "s"),
        "net.reallocations": (c["reallocations"], "count"),
        "net.route_hit_rate": (c["route_cache_hit_rate"], "frac"),
        "nws.update_n": (g["nws.update"]["n"], "count"),
        "nws.update_s": (g["nws.update"]["s"], "s"),
        "nws.update_us_p50": (g["nws.update"]["p50"] * 1e6, "us"),
        "nws.update_us_p99": (g["nws.update"]["p99"] * 1e6, "us"),
        "nws.query_n": (g["nws.query"]["n"], "count"),
        "nws.query_s": (g["nws.query"]["s"], "s"),
        "nws.query_us_p99": (g["nws.query"]["p99"] * 1e6, "us"),
        "nws.history_len": (history_len, "count"),
        "sched.schedule_n": (g["sched.schedule"]["n"], "count"),
        "sched.schedule_s": (g["sched.schedule"]["s"], "s"),
        "sched.evaluations": (c["sched_evaluations"], "count"),
        "sched.memo_hits": (c["sched_memo_hits"], "count"),
        "meta.submit_n": (g["meta.submit"]["n"], "count"),
        "meta.submit_s": (g["meta.submit"]["s"], "s"),
        "meta.submit_ms_p50": (g["meta.submit"]["p50"] * 1e3, "ms"),
        "meta.submit_ms_p99": (g["meta.submit"]["p99"] * 1e3, "ms"),
        "meta.find_window_n": (g["meta.find_window"]["n"], "count"),
        "meta.find_window_s": (g["meta.find_window"]["s"], "s"),
        "meta.admit_s": (g["meta.admit"]["s"], "s"),
        "meta.order_s": (g["meta.order"]["s"], "s"),
        "meta.plan_rounds": (c["meta_plan_rounds"], "count"),
        "meta.plan_kept_ratio": (
            kept / (kept + rebuilt) if kept + rebuilt else 0.0, "frac"),
        "meta.window_probes": (c["meta_plan_window_probes"], "count"),
        "soak.audit_n": (g["soak.audit"]["n"], "count"),
        "soak.audit_s": (g["soak.audit"]["s"], "s"),
        "soak.scenario_ms_p50": (
            statistics.median(scenario_ms) if soak else 0.0, "ms"),
        "soak.scenario_ms_p80": (
            statistics.quantiles(scenario_ms, n=5)[3] if soak else 0.0,
            "ms"),
        "trace.records": (sum(len(t) for t in tracers), "count"),
        "trace.export_s": (g["trace.export"]["s"], "s"),
        "trace_overhead_frac": (
            (traced_wall - untraced_wall) / untraced_wall, "frac"),
    }
    for layer in spanlib.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.self_share"] = (self_s[layer] / traced_wall,
                                          "frac")
    problems = []
    if nondeterministic:
        problems.append("counters differ between two untraced runs: "
                        + ", ".join(nondeterministic))
    if trace_changed:
        problems.append("tracing changed counters: "
                        + ", ".join(trace_changed))
    print(f"traced: untraced walls {walls[0]:.2f} s / {walls[2]:.2f} s, "
          f"traced {traced_wall:.2f} s, {len(recorder.spans)} spans; "
          f"counters repeat exactly: {not nondeterministic}; "
          f"tracing left counters unchanged: {not trace_changed}")
    return metrics, {"counters": counters[0]}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")

    name, seed = args.workload, args.seed
    steps = workloads.prepare(name, seed)
    pinned = outcomes.read_pins(name)
    pins = outcomes.pins_for(pinned, seed)
    selftest = outcomes.self_test(pinned["outcomes"])
    tally = Tally(name, workloads, pins)
    env = env_stamp(seed)
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, extra, problems = per_layer(name, seed, steps, workloads,
                                             tally)
    else:
        metrics, extra, problems = end_to_end(name, seed, args.seconds,
                                              steps, workloads, tally)
    problems += [f"outcome self-test: {p}" for p in selftest]
    problems += tally.reasons
    correct = tally.failed == 0 and not problems
    print(f"outcomes: {tally.attempted} operations, {tally.failed} failed "
          f"(failed_frac {tally.failed / max(tally.attempted, 1):.6f}), "
          f"checked against {'pinned outcomes and ' if pins else ''}"
          f"invariants; outcome self-test "
          f"{'FAILED' if selftest else 'ok (perturbed outcomes fail)'}")
    for problem in problems:
        print(f"problem: {problem}")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<24} {value:>16.6f} {unit}")

    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{args.trace}"
                                    f".json"), "w") as fh:
        json.dump(dict(result, env=env, workload=name,
                       input=workloads.WORKLOADS[name],
                       problems=problems, **extra), fh, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
