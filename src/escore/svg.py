"""Deterministic SVG scatter plots (fixed viewport, palette, and formatting)."""
from __future__ import annotations

import numpy as np

PANEL_SIZE = 600
AXIS_RANGE = (-1.2, 1.2)
POINT_RADIUS = 2
DATA_COLOR = "#1f77b4"     # reference data: blue
SAMPLE_COLOR = "#ff7f0e"   # generated samples: orange


def _to_pixels(points: np.ndarray, x0: float, y0: float, size: int) -> list[tuple[str, str]]:
    lo, hi = AXIS_RANGE
    scale = size / (hi - lo)
    out = []
    for px, py in np.asarray(points, dtype=np.float64):
        cx = x0 + (px - lo) * scale
        cy = y0 + (hi - py) * scale          # svg y grows downward
        out.append((f"{cx:.2f}", f"{cy:.2f}"))
    return out


def _panel_elements(layers, x0: float, y0: float, size: int, title: str = "") -> list[str]:
    parts = [f'<rect x="{x0}" y="{y0}" width="{size}" height="{size}" '
             f'fill="white" stroke="#999" stroke-width="1"/>']
    if title:
        parts.append(f'<text x="{x0 + 8}" y="{y0 + 20}" font-family="monospace" '
                     f'font-size="16" fill="#333">{title}</text>')
    for points, color in layers:
        for cx, cy in _to_pixels(points, x0, y0, size):
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{POINT_RADIUS}" '
                         f'fill="{color}" fill-opacity="0.6"/>')
    return parts


def panel_grid_svg(path, panels: list[tuple[str, np.ndarray, np.ndarray]],
                   cols: int = 3) -> None:
    """Grid of (title, data, samples) panels, filled row-major."""
    rows = (len(panels) + cols - 1) // cols
    body = []
    for i, (title, pts, samples) in enumerate(panels):
        x0 = (i % cols) * PANEL_SIZE
        y0 = (i // cols) * PANEL_SIZE
        body.extend(_panel_elements([(pts, DATA_COLOR), (samples, SAMPLE_COLOR)],
                                    x0, y0, PANEL_SIZE, title))
    _write(path, cols * PANEL_SIZE, rows * PANEL_SIZE, body)


def _write(path, width: int, height: int, body: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n')
        for line in body:
            fh.write(line + "\n")
        fh.write("</svg>\n")
