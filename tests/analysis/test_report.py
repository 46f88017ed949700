"""Tests for the ASCII table / plot helpers."""

import numpy as np
import pytest

from repro.analysis.report import ascii_scatter, format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "long header"], [[1, 2], ["xyz", 42]], title="My table")
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "long header" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestAsciiScatter:
    def test_plot_contains_markers_and_legend(self):
        series = {
            "1": (np.array([0.0, 10.0]), np.array([30.0, 10.0])),
            "2": (np.array([5.0]), np.array([20.0])),
        }
        text = ascii_scatter(series, width=40, height=10, title="demo")
        assert "demo" in text
        assert "legend" in text
        assert "1=1" in text
        body = [line for line in text.splitlines() if line.startswith("|")]
        assert len(body) == 10
        assert any("1" in line for line in body)
        assert any("2" in line for line in body)

    def test_single_point_series(self):
        text = ascii_scatter({"x": (np.array([1.0]), np.array([1.0]))})
        assert "legend" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_scatter({})
        with pytest.raises(ValueError):
            ascii_scatter({"x": (np.array([]), np.array([]))})

    def test_duplicate_first_characters_get_distinct_markers(self):
        series = {
            "alpha": (np.array([0.0]), np.array([0.0])),
            "alps": (np.array([1.0]), np.array([1.0])),
        }
        text = ascii_scatter(series)
        assert "alpha" in text and "alps" in text

    def test_fallback_markers_never_reuse_a_taken_marker(self):
        # Figure 4's batch sizes: 16, 32 and 64 collide with 1, and the old
        # index-digit fallback gave 16 the marker 4, already taken by B = 4.
        sizes = (1, 2, 4, 8, 16, 32, 64)
        series = {str(size): (np.array([float(size)]), np.array([1.0])) for size in sizes}
        legend = ascii_scatter(series).splitlines()[-1]
        assert legend == " legend: 1=1, 2=2, 4=4, 8=8, 0=16, 3=32, 6=64"
