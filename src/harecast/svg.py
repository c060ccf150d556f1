"""Self-contained SVG heatmap rendering with stable byte output.

No external fonts or stylesheets; every cell embeds its value as a data
attribute so downstream tools can scrape the numbers back out.
"""

from __future__ import annotations

import numpy as np

CELL = 28
MARGIN_LEFT = 46
MARGIN_TOP = 34
GAP = 30
LABEL_FONT = 11
TITLE = "cross-sample energy variance"


def _color(v: float, vmax: float) -> str:
    """Linear white -> dark blue scale."""
    frac = 0.0 if vmax <= 0 else min(max(v / vmax, 0.0), 1.0)
    r = round(255 - 205 * frac)
    g = round(255 - 170 * frac)
    b = round(255 - 95 * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def _text(x, y, body) -> str:
    """One LABEL_FONT monospace text element at (x, y)."""
    return f'<text x="{x}" y="{y}" font-family="monospace" font-size="{LABEL_FONT}">{body}</text>'


def heatmap_svg(panels: list) -> str:
    """Render labelled (layers x heads) grids side by side under TITLE.

    panels is a list of (label, grid) with equal grid shapes; the color
    scale is linear and shared across panels.
    """
    grids = [np.asarray(grid, dtype=np.float64) for _, grid in panels]
    layers, heads = grids[0].shape
    vmax = max((float(g.max()) for g in grids), default=0.0)
    panel_w = MARGIN_LEFT + heads * CELL
    width = GAP + len(panels) * (panel_w + GAP)
    height = MARGIN_TOP + layers * CELL + 44
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{GAP}" y="16" font-family="monospace" font-size="{LABEL_FONT + 2}">{TITLE}</text>',
    ]
    for p, ((label, _), grid) in enumerate(zip(panels, grids)):
        # A per-batch label carries a free-text run id.
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        x0 = GAP + p * (panel_w + GAP) + MARGIN_LEFT
        y0 = MARGIN_TOP
        parts.append(_text(x0, y0 - 6, label))
        for layer in range(layers):
            parts.append(_text(x0 - 40, y0 + layer * CELL + 18, f"L{layer}"))
            for head in range(heads):
                v = float(grid[layer, head])
                parts.append(
                    f'<rect x="{x0 + head * CELL}" y="{y0 + layer * CELL}" '
                    f'width="{CELL}" height="{CELL}" fill="{_color(v, vmax)}" '
                    f'stroke="#444444" stroke-width="0.5" data-group="{label}" '
                    f'data-layer="{layer}" data-head="{head}" data-value="{v!r}"/>'
                )
        for head in range(heads):
            parts.append(_text(x0 + head * CELL + 6, y0 + layers * CELL + 14, f"H{head}"))
    parts.append(_text(GAP, height - 10, f"linear scale, max={vmax!r}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
