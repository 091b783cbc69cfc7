"""Self-contained SVG bar charts for relevance reports.

No plotting dependency: the chart is assembled as SVG text with fixed
geometry and fixed-precision numbers, so identical reports produce
byte-identical files.
"""

from __future__ import annotations

from .relevance import RelevanceReport
from .util import atomic_write_text

__all__ = ["svg_bars", "write_svg"]

_BAR_COLOR = "#4878a8"
_ROW_H = 26
_TITLE_H = 30
_PANEL_GAP = 24
_LABEL_W = 140
_BAR_AREA = 440
_VALUE_W = 90
_MARGIN = 16


def svg_bars(report: RelevanceReport) -> str:
    """Horizontal percentage bars, one panel per class."""
    classes = sorted(report.classes)
    features = list(report.feature_order)
    peak = max(
        report.classes[c].percent[f] for c in classes for f in features
    )
    peak = max(peak, 1e-9)
    width = _MARGIN * 2 + _LABEL_W + _BAR_AREA + _VALUE_W
    panel_h = _TITLE_H + _ROW_H * len(features)
    height = _MARGIN * 2 + panel_h * len(classes) + _PANEL_GAP * (len(classes) - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    y = _MARGIN
    for cls in classes:
        percents = report.classes[cls].percent
        parts.append(
            f'<text x="{_MARGIN}" y="{y + 16}" font-size="15" font-weight="bold">'
            f"feature relevance: {cls}</text>"
        )
        ry = y + _TITLE_H
        for name in features:
            pct = float(percents[name])
            bar = _BAR_AREA * pct / peak
            bx = _MARGIN + _LABEL_W
            parts.append(
                f'<text x="{bx - 8}" y="{ry + 17}" text-anchor="end">{name}</text>'
            )
            parts.append(
                f'<rect x="{bx}" y="{ry + 4}" width="{bar:.2f}" height="{_ROW_H - 8}" '
                f'fill="{_BAR_COLOR}"/>'
            )
            parts.append(
                f'<text x="{bx + bar + 6:.2f}" y="{ry + 17}">{pct:.2f}%</text>'
            )
            ry += _ROW_H
        y = ry + _PANEL_GAP
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(report: RelevanceReport, path) -> None:
    atomic_write_text(path, svg_bars(report))
