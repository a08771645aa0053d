"""Tests for the SVG trajectory renderer."""
import math

import pytest

from cflow.errors import SchemaError
from cflow.svg import render_svg

HEADER = "s,Re tau,Im tau,Re g_inv,Im g_inv,Re gamma,Im gamma,invariant\n"


def _write_circle_csv(path, n=32, radius=1.0):
    rows = [HEADER]
    for k in range(n):
        t = 2.0 * math.pi * k / (n - 1)
        rows.append(f"{k},0.0,0.0,{radius * math.cos(t)},"
                    f"{radius * math.sin(t)},0.0,0.0,nan\n")
    path.write_text("".join(rows))


class TestRenderSvg:
    def test_single_trace_polyline_and_axes(self, tmp_path):
        csv = tmp_path / "traj.csv"
        _write_circle_csv(csv)
        out = tmp_path / "plot.svg"
        render_svg(str(csv), str(out))
        text = out.read_text()
        assert text.count("<polyline") == 1
        assert 'id="trace-0"' in text
        # the circle straddles both axes
        assert 'id="axis-x"' in text and 'id="axis-y"' in text
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_overlay_gets_distinct_stroke(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _write_circle_csv(a, radius=1.0)
        _write_circle_csv(b, radius=0.5)
        out = tmp_path / "plot.svg"
        render_svg(str(a), str(out), overlay_csv=str(b))
        text = out.read_text()
        assert text.count("<polyline") == 2
        assert 'id="trace-0"' in text and 'id="trace-1"' in text
        strokes = [seg.split('"')[0] for seg in text.split('stroke="')[1:]]
        polyline_strokes = [s for s in strokes if s != "#999999"]
        assert len(set(polyline_strokes)) == 2

    def test_byte_determinism(self, tmp_path):
        csv = tmp_path / "traj.csv"
        _write_circle_csv(csv)
        o1 = tmp_path / "p1.svg"
        o2 = tmp_path / "p2.svg"
        render_svg(str(csv), str(o1))
        render_svg(str(csv), str(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_divergence_marker_rows_skipped(self, tmp_path):
        csv = tmp_path / "traj.csv"
        csv.write_text(HEADER
                       + "0,0.0,0.0,1.0,0.0,0.5,0.0,nan\n"
                       + "1,0.1,0.0,1.1,0.2,0.5,0.0,nan\n"
                       + "2,0.2,0.0,nan,nan,nan,nan,diverged\n")
        out = tmp_path / "plot.svg"
        render_svg(str(csv), str(out))
        text = out.read_text()
        assert "nan" not in text
        assert text.count(",") >= 1

    def test_empty_csv_raises(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        with pytest.raises(SchemaError):
            render_svg(str(csv), str(tmp_path / "x.svg"))

    def test_header_only_csv_raises(self, tmp_path):
        csv = tmp_path / "h.csv"
        csv.write_text(HEADER)
        with pytest.raises(SchemaError):
            render_svg(str(csv), str(tmp_path / "x.svg"))

    def test_missing_columns_raise(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            render_svg(str(csv), str(tmp_path / "x.svg"))
