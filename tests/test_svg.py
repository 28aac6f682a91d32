"""The SVG renderers: well-formed XML, log-axis ticks, skipped points, NaN
cells and escaped text."""

import math
from xml.etree import ElementTree

import pytest

from taskinfo import svg

NS = "{http://www.w3.org/2000/svg}"


def _parse(text):
    return ElementTree.fromstring(text)


def _texts(root):
    return [el.text for el in root.iter(f"{NS}text")]


def test_both_renderers_give_parseable_svg():
    line = _parse(svg.line_plot([("s", [1.0, 2.0, 3.0], [3.0, 1.0, 2.0])],
                                "title", "x", "y", comment="stamp"))
    heat = _parse(svg.heatmap([[0.0, 1.0], [2.0, 3.0]], ["a", "b"], ["c", "d"],
                              "title", comment="stamp"))
    assert line.tag == heat.tag == f"{NS}svg"
    assert "title" in _texts(line) and "title" in _texts(heat)


def test_log_axis_ticks_sit_at_powers_of_ten():
    root = _parse(svg.line_plot([("s", [0.01, 0.3, 100.0], [1.0, 2.0, 3.0])],
                                "t", "x", "y", logx=True))
    # x tick labels sit below the axis, at one height
    ys = {el.get("y") for el in root.iter(f"{NS}text")
          if el.get("text-anchor") == "middle" and el.text in ("0.01", "100")}
    assert len(ys) == 1
    ticks = [el for el in root.iter(f"{NS}text") if el.get("y") in ys]
    assert [el.text for el in ticks] == ["0.01", "0.1", "1", "10", "100"]
    xs = [float(el.get("x")) for el in ticks]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert max(gaps) - min(gaps) < 0.2          # even steps in log10


def test_non_finite_points_are_skipped():
    series = [("s", [1.0, 2.0, math.nan, 4.0, 5.0], [1.0, math.inf, 3.0, 4.0, 2.0])]
    root = _parse(svg.line_plot(series, "t", "x", "y"))
    assert len(list(root.iter(f"{NS}circle"))) == 3
    (poly,) = root.iter(f"{NS}polyline")
    assert len(poly.get("points").split()) == 3
    # on a log axis, x <= 0 cannot be placed either
    root = _parse(svg.line_plot([("s", [-1.0, 0.0, 1.0, 10.0], [1.0, 2.0, 3.0, 4.0])],
                                "t", "x", "y", logx=True))
    assert len(list(root.iter(f"{NS}circle"))) == 2


@pytest.mark.parametrize("xs, ys, logx", [([1.0, math.nan], [math.inf, 2.0], False),
                                          ([0.0, -1.0], [1.0, 2.0], True)])
def test_line_plot_with_nothing_finite_notes_it(xs, ys, logx):
    root = _parse(svg.line_plot([("s", xs, ys)], "t", "x", "y", logx=logx))
    assert not list(root.iter(f"{NS}circle")) and not list(root.iter(f"{NS}polyline"))
    assert _texts(root) == ["t", "no finite points", "x", "y", "s"]


def test_nan_heatmap_cell_is_grey_and_reads_nan():
    root = _parse(svg.heatmap([[0.0, math.nan], [1.0, 2.0]], ["a", "b"],
                              ["c", "d"], "t"))
    fills = [el.get("fill") for el in root.iter(f"{NS}rect")][1:]   # skip the page
    assert fills.count("#cccccc") == 1 and fills[1] == "#cccccc"
    assert _texts(root).count("nan") == 1


def test_text_is_escaped():
    names = ["a&b", "<c>", "d"]
    line = _parse(svg.line_plot([(n, [1.0, 2.0], [1.0, 2.0]) for n in names],
                                "x < y & z", "t > 0", "<loss>"))
    assert {*names, "x < y & z", "t > 0", "<loss>"} <= set(_texts(line))
    heat = _parse(svg.heatmap([[0.0] * 3] * 3, names, names, "a & b"))
    assert _texts(heat).count("a&b") == 2 and "a & b" in _texts(heat)

