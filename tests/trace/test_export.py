"""Tests for the Chrome exporter and the schema validator."""

import json

from repro.sim import Simulator
from repro.trace import (
    Tracer,
    chrome_trace,
    records_as_dicts,
    validate_chrome,
    write_chrome,
)
from repro.experiments.fig4_swap import run_fig4


def sample_tracer():
    tracer = Tracer().bind(Simulator())
    tracer.instant("meta", "run", experiment="t")
    tracer.complete("scheduler", "task:a", ts=1.0, dur=2.0, host="h0")
    tracer.instant("network", "flow-add", src="a", dst="b")
    return tracer


class TestRecordsAsDicts:
    def test_span_gets_dur_instants_do_not(self):
        dicts = records_as_dicts(sample_tracer())
        assert "dur" not in dicts[0]
        assert dicts[1]["dur"] == 2.0
        assert dicts[0]["args"] == {"experiment": "t"}

    def test_common_keys_present(self):
        for entry in records_as_dicts(sample_tracer()):
            assert {"ts", "cat", "name", "run", "args"} <= set(entry)


class TestChromeTrace:
    def test_structure_and_phases(self):
        obj = chrome_trace(sample_tracer())
        assert validate_chrome(obj) == []
        events = obj["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("X") == 1
        assert phases.count("i") == 2
        assert "M" in phases  # thread-name metadata

    def test_timestamps_in_microseconds(self):
        obj = chrome_trace(sample_tracer())
        span = next(e for e in obj["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 1.0 * 1e6
        assert span["dur"] == 2.0 * 1e6

    def test_run_index_becomes_pid(self):
        tracer = sample_tracer()
        tracer.bind(Simulator())
        tracer.instant("meta", "second-run")
        obj = chrome_trace(tracer)
        pids = {e["pid"] for e in obj["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}


class TestValidateChrome:
    def test_rejects_non_dict(self):
        assert validate_chrome([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome({"foo": 1}) == ["missing or non-list "
                                               "'traceEvents'"]

    def test_flags_bad_phase_and_missing_fields(self):
        obj = {"traceEvents": [
            {"ph": "Z", "name": "x"},
            {"ph": "i", "name": "x"},          # missing ts + cat
            {"ph": "X", "name": "x", "ts": 0.0, "cat": "c", "dur": -1},
        ]}
        problems = validate_chrome(obj)
        assert any("bad phase" in p for p in problems)
        assert any("missing numeric ts" in p for p in problems)
        assert any("dur >= 0" in p for p in problems)

    def test_accepts_exporter_output(self, tmp_path):
        path = tmp_path / "t.json"
        write_chrome(sample_tracer(), str(path))
        with open(path) as handle:
            assert validate_chrome(json.load(handle)) == []


class TestDeterminism:
    def test_same_seed_fig4_exports_byte_identical(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            tracer = Tracer()
            run_fig4(n_iterations=15, tracer=tracer)
            path = tmp_path / name
            write_chrome(tracer, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
