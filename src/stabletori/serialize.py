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


def svg_heatmap(path, field: np.ndarray, title: str = "", cell: int = 4):
    """Tiny dependency-free SVG raster of a real scalar field, blue at its
    minimum to red at its maximum (`systole` passes a phase in (-pi, pi])."""
    field = np.asarray(field, dtype=float)
    lo, hi = float(field.min()), float(field.max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = field.shape
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{nx * cell}" height="{ny * cell}">',
        f"<title>{title}</title>",
    ]
    for i in range(nx):
        for j in range(ny):
            t = (field[i, j] - lo) / span
            r = int(255 * t)
            b = 255 - r
            parts.append(
                f'<rect x="{i * cell}" y="{(ny - 1 - j) * cell}" '
                f'width="{cell}" height="{cell}" '
                f'fill="rgb({r},0,{b})"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
