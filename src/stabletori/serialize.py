"""JSON/CSV/SVG emission with deterministic formatting.

All numeric CSV output is printed with 12 significant digits so repeated
runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def write_csv(path, header: list[str], rows, comment: str | None = None):
    path = Path(path)
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def svg_heatmap(path, field: np.ndarray, *, bounds: tuple[float, float],
                title: str = "", cell: int = 4):
    """Tiny dependency-free SVG raster of a real scalar field, blue at
    bounds[0] to red at bounds[1], clipped outside; a caller-fixed range
    keeps rounding noise in a constant field one colour."""
    lo, hi = bounds
    red = (255 * np.clip((np.asarray(field, dtype=float) - lo) / (hi - lo),
                         0.0, 1.0)).astype(int)
    nx, ny = red.shape
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{nx * cell}" height="{ny * cell}">',
        f"<title>{title}</title>",
    ]
    for i in range(nx):
        for j in range(ny):
            r = red[i, j]
            parts.append(
                f'<rect x="{i * cell}" y="{(ny - 1 - j) * cell}" '
                f'width="{cell}" height="{cell}" '
                f'fill="rgb({r},0,{255 - r})"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
