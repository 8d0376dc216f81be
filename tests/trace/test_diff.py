"""Tests for the determinism diff."""

from repro.sim import Simulator
from repro.trace import (
    Tracer,
    first_divergence,
    format_divergence,
    load_trace_file,
    records_as_dicts,
    write_chrome,
)


def make_tracer(tweak=None):
    tracer = Tracer().bind(Simulator())
    tracer.instant("meta", "run", experiment="t")
    tracer.complete("scheduler", "task:a", ts=1.0, dur=2.0, host="h0")
    tracer.instant("contract", "violation", kind="slow", ratio=1.5)
    if tweak:
        tweak(tracer)
    return tracer


class TestFirstDivergence:
    def test_identical_traces_return_none(self):
        assert first_divergence(make_tracer(), make_tracer()) is None

    def test_differing_arg_pinpointed(self):
        a = make_tracer()
        b = Tracer().bind(Simulator())
        b.instant("meta", "run", experiment="t")
        b.complete("scheduler", "task:a", ts=1.0, dur=2.0, host="h1")
        b.instant("contract", "violation", kind="slow", ratio=1.5)
        div = first_divergence(a, b)
        assert div is not None
        assert div.index == 1
        assert div.kind == "record"
        assert div.left["args"]["host"] == "h0"
        assert div.right["args"]["host"] == "h1"

    def test_length_mismatch(self):
        a = make_tracer()
        b = make_tracer(tweak=lambda t: t.instant("meta", "extra"))
        div = first_divergence(a, b)
        assert div.kind == "length"
        assert div.index == 3
        assert div.left is None
        assert div.right["name"] == "extra"

    def test_accepts_dict_lists(self):
        dicts = records_as_dicts(make_tracer())
        assert first_divergence(dicts, list(dicts)) is None


class TestDiffFiles:
    def test_chrome_files(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome(make_tracer(), str(pa))
        write_chrome(make_tracer(), str(pb))
        assert first_divergence(load_trace_file(str(pa)),
                                load_trace_file(str(pb))) is None

    def test_chrome_round_trips_to_record_dicts(self, tmp_path):
        tracer = make_tracer()
        path = tmp_path / "a.json"
        write_chrome(tracer, str(path))
        assert load_trace_file(str(path)) == records_as_dicts(tracer)


class TestFormatDivergence:
    def test_none_is_identical(self):
        assert "identical" in format_divergence(None)

    def test_record_divergence_shows_both_sides(self):
        a = make_tracer()
        b = make_tracer(tweak=None)
        b._records[1].args = {"host": "h9"}
        text = format_divergence(first_divergence(a, b),
                                 label_a="left.json", label_b="right.json")
        assert "left.json" in text and "right.json" in text
        assert "task:a" in text

    def test_length_divergence_names_surviving_trace(self):
        a = make_tracer()
        b = make_tracer(tweak=lambda t: t.instant("meta", "extra"))
        text = format_divergence(first_divergence(a, b),
                                 label_a="A", label_b="B")
        assert "only B continues" in text
