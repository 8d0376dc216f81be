"""Edge-case tests for the shared experiment formatting helpers."""

import pytest

from repro.experiments.common import (
    _cell,
    format_series,
    format_table,
)


class TestFormatTable:
    def test_empty_rows_renders_header_only(self):
        text = format_table(["a", "bb"], [])
        lines = text.splitlines()
        assert lines[0] == "a | bb"
        assert set(lines[1]) == {"-", "+"}
        assert len(lines) == 2

    def test_title_prepended(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_mismatched_row_width_raises(self):
        with pytest.raises(ValueError, match="row width does not match"):
            format_table(["a", "b"], [[1, 2], [3]])

    def test_columns_pad_to_widest_cell(self):
        text = format_table(["h"], [["wide-cell"], ["x"]])
        header, sep, wide, narrow = text.splitlines()
        assert len(header) == len(sep) == len(wide) == len(narrow)


class TestCellFormatting:
    def test_float_zero_renders_bare(self):
        assert _cell(0.0) == "0"

    def test_thousands_drop_decimals(self):
        assert _cell(1000.0) == "1000"
        assert _cell(12345.6) == "12346"
        assert _cell(-2000.4) == "-2000"

    def test_unit_range_keeps_one_decimal(self):
        assert _cell(1.0) == "1.0"
        assert _cell(999.94) == "999.9"
        assert _cell(-1.25) == "-1.2"

    def test_sub_unit_keeps_three_decimals(self):
        assert _cell(0.5) == "0.500"
        assert _cell(0.0004) == "0.000"
        assert _cell(-0.999) == "-0.999"

    def test_non_floats_pass_through_str(self):
        assert _cell(7) == "7"
        assert _cell("name") == "name"


class TestFormatSeries:
    def test_short_series_not_downsampled(self):
        points = [(float(i), i) for i in range(5)]
        text = format_series(points, "t", "y")
        assert len(text.splitlines()) == 2 + 5  # header + sep + rows

    def test_long_series_downsampled_keeping_last_point(self):
        points = [(float(i), i) for i in range(200)]
        text = format_series(points, "t", "y", max_points=40)
        lines = text.splitlines()
        assert len(lines) - 2 <= 41  # stride sample + re-appended last
        assert lines[-1].startswith("199")

    def test_last_point_not_duplicated_when_stride_hits_it(self):
        # 80 points, stride 2 -> samples end exactly on index 78, then
        # the true last point (79) is appended once.
        points = [(float(i), i) for i in range(80)]
        text = format_series(points, "t", "y", max_points=40)
        rows = text.splitlines()[2:]
        assert sum(1 for r in rows if r.startswith("79")) == 1

    def test_empty_series(self):
        text = format_series([], "t", "y")
        assert len(text.splitlines()) == 2
