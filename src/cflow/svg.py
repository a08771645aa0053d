"""Minimal deterministic SVG rendering of trajectory CSV files.

Each CSV supplies one polyline from its Re/Im g_inv columns; an
optional overlay CSV adds a second polyline with a distinct stroke.  Rows
with non-finite entries (divergence markers) are skipped.  Output bytes
depend only on the input data.
"""
from __future__ import annotations

import csv
import math

from .errors import SchemaError

_VIEW = 600.0
_PAD = 0.05
_STROKES = ("#1f77b4", "#d62728")
_COLUMNS = ("Re g_inv", "Im g_inv")


def _read_points(path: str):
    pts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty CSV")
        for col in _COLUMNS:
            if col not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column {col!r}")
        for row in reader:
            try:
                x = float(row[_COLUMNS[0]])
                y = float(row[_COLUMNS[1]])
            except (TypeError, ValueError):
                continue
            if math.isfinite(x) and math.isfinite(y):
                pts.append((x, y))
    if not pts:
        raise SchemaError(f"{path}: no finite data rows")
    return pts


def _transform(all_pts):
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-12)
    pad = _PAD * span
    x0 -= pad
    y0 -= pad
    span += 2.0 * pad
    scale = _VIEW / span

    def to_px(p):
        # SVG y axis points down; flip so the plot reads mathematically
        return ((p[0] - x0) * scale, _VIEW - (p[1] - y0) * scale)

    return to_px, (x0, x0 + span, y0, y0 + span)


def _polyline(pts, to_px, stroke, trace_id):
    coords = " ".join("%.6f,%.6f" % to_px(p) for p in pts)
    return (f'<polyline id="{trace_id}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5" points="{coords}"/>')


def render_svg(traj_csv: str, out_path: str,
               overlay_csv: str | None = None) -> None:
    """Render the g_inv columns of one or two trajectory CSVs as polylines."""
    traces = [_read_points(traj_csv)]
    if overlay_csv is not None:
        traces.append(_read_points(overlay_csv))

    to_px, (x0, x1, y0, y1) = _transform([p for t in traces for p in t])
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{int(_VIEW)}" height="{int(_VIEW)}" '
            f'viewBox="0 0 {int(_VIEW)} {int(_VIEW)}">',
            f'<rect width="{int(_VIEW)}" height="{int(_VIEW)}" fill="white"/>']
    # coordinate axes, drawn only when the origin lines cross the data window
    if x0 < 0.0 < x1:
        px = to_px((0.0, y0))[0]
        body.append(f'<line id="axis-y" x1="%.6f" y1="0" x2="%.6f" '
                    f'y2="{int(_VIEW)}" stroke="#999999" '
                    f'stroke-width="0.5"/>' % (px, px))
    if y0 < 0.0 < y1:
        py = to_px((x0, 0.0))[1]
        body.append(f'<line id="axis-x" x1="0" y1="%.6f" '
                    f'x2="{int(_VIEW)}" y2="%.6f" stroke="#999999" '
                    f'stroke-width="0.5"/>' % (py, py))
    for i, pts in enumerate(traces):
        body.append(_polyline(pts, to_px, _STROKES[i], f"trace-{i}"))
    body.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")
