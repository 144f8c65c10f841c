import datetime as dt
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from leancast.series import DailySeries
from leancast.svgplot import emit_plot

NS = "{http://www.w3.org/2000/svg}"


def series(values, start=dt.date(2018, 1, 1), leaning=None, metric="synthetic"):
    return DailySeries(start_date=start, values=np.asarray(values, dtype=np.float64),
                       leaning=leaning, metric=metric)


def polylines(svg):
    return ET.fromstring(svg).findall(f".//{NS}polyline")


def legend_labels(svg):
    return [el.text for el in ET.fromstring(svg).findall(f".//{NS}text")
            if el.get("class") == "legend-label"]


class TestEmitPlot:
    def test_single_series_single_polyline(self):
        svg = emit_plot([series([1.0, 3.0, 2.0])])
        lines = polylines(svg)
        assert len(lines) == 1
        assert len(lines[0].get("points").split()) == 3

    def test_two_series_two_polylines_and_legend(self):
        svg = emit_plot([series([1.0, 2.0], leaning="left"),
                         series([3.0, 4.0], leaning="right")])
        assert len(polylines(svg)) == 2
        assert legend_labels(svg) == ["left", "right"]

    def test_default_labels_use_leaning_then_metric(self):
        svg = emit_plot([series([1.0], leaning="left"),
                         series([2.0], metric="post_count")])
        assert legend_labels(svg) == ["left", "post_count"]

    def test_byte_identical_output(self):
        args = [series([1.0, 2.0, 3.0], leaning="center")]
        assert emit_plot(args, title="posts") == emit_plot(args, title="posts")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([])

    def test_non_finite_points_are_dropped(self):
        svg = emit_plot([series([1.0, float("nan"), 2.0], metric="sentiment_mean")])
        assert len(polylines(svg)[0].get("points").split()) == 2

    def test_axis_annotations(self):
        svg = emit_plot([series([0.0, 10.0], start=dt.date(2018, 2, 1))])
        assert "2018-02-01" in svg and "2018-02-02" in svg
        # 5 percent padding above the max and below the min
        assert "10.50" in svg and "-0.50" in svg

    def test_constant_series_gets_padded_range(self):
        svg = emit_plot([series([5.0, 5.0, 5.0])])
        assert "6.05" in svg and "4.95" in svg

    def test_title_rendered_when_given(self):
        assert "daily volume" in emit_plot([series([1.0])], title="daily volume")

    def test_distinct_series_get_distinct_colors(self):
        svg = emit_plot([series([1.0]), series([2.0]), series([3.0])])
        strokes = {p.get("stroke") for p in polylines(svg)}
        assert len(strokes) == 3
