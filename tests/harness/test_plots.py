"""Terminal plotting."""

from repro.harness.figures import figure5
from repro.harness.plots import figure5_chart, grouped_bar_chart


class TestGroupedChart:
    def test_shared_scale_across_groups(self):
        chart = grouped_bar_chart(
            {"a": [("x", 10.0)], "b": [("y", 5.0)]}, width=10
        )
        lines = [l for l in chart.splitlines() if "|" in l]
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_group_headers(self):
        chart = grouped_bar_chart({"first": [("x", 1.0)]})
        assert "[first]" in chart

    def test_values_printed_with_unit(self):
        chart = grouped_bar_chart({"g": [("x", 1.234)]}, unit="%")
        assert "1.234%" in chart

    def test_half_cell_rounds_up(self):
        chart = grouped_bar_chart({"g": [("a", 10.0), ("b", 0.5)]}, width=10)
        lines = [l for l in chart.splitlines() if "|" in l]
        assert lines[1].count("▌") == 1
        assert lines[1].count("█") == 0

    def test_zero_values_do_not_divide_by_zero(self):
        chart = grouped_bar_chart({"g": [("a", 0.0), ("b", 0.0)]})
        assert "0.000" in chart

    def test_labels_aligned_within_group(self):
        chart = grouped_bar_chart({"g": [("short", 1.0), ("muchlonger", 2.0)]})
        bars = [l.index("|") for l in chart.splitlines() if "|" in l]
        assert len(set(bars)) == 1

    def test_no_groups_render_empty(self):
        assert grouped_bar_chart({}) == ""


class TestFigure5Chart:
    def test_renders_both_series(self):
        result = figure5(spec_names=("mcf", "perlbench"))
        chart = figure5_chart(result)
        assert "compiler-based" in chart
        assert "instrumentation-based" in chart
        assert "averages:" in chart
        assert "perlbench" in chart

    def test_csv_export(self):
        result = figure5(spec_names=("mcf", "perlbench"))
        csv = result.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("program,")
        assert lines[-1].startswith("AVERAGE,")
        assert len(lines) == 4  # header + 2 programs + average
