"""Standalone SVG line charts.

Run artifacts need multi-series line and marker charts and nothing
else, so this draws them directly: linear axes, 1-2-5 ticks, legend.
Output is deterministic byte for byte, which keeps rerun hashes stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .pbf import write_text

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ys", tuple(float(v) for v in self.ys))
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if not self.xs:
            raise ValueError("series must contain at least one point")
        if not all(math.isfinite(v) for v in self.xs + self.ys):
            raise ValueError("series values must be finite")


def escape(text: str) -> str:
    """XML character data: the three replacements of
    xml.sax.saxutils.escape, in its order. That module imports urllib and
    the email package, tens of milliseconds on every fresh interpreter."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        raise ValueError("empty range")
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag + 1e-12 * mag)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _padded_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = max(abs(lo) * 0.1, 1.0)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_chart(
    path: str,
    series: Sequence[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 720,
    height: int = 440,
    markers: bool = True,
) -> None:
    """Write a multi-series line chart to an SVG file."""
    series = list(series)
    if not series:
        raise ValueError("need at least one series")
    if len(series) > len(PALETTE):
        raise ValueError(f"at most {len(PALETTE)} series supported")

    ml, mr, mt, mb = 64, 18, 34 if title else 16, 46
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = _padded_range([x for s in series for x in s.xs])
    y_lo, y_hi = _padded_range([y for s in series for y in s.ys])

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" stroke="#e5e5e5"/>')
        out.append(
            f'<text x="{x:.2f}" y="{mt + ph + 16}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" stroke="#e5e5e5"/>')
        out.append(
            f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    if x_label:
        out.append(
            f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{escape(y_label)}</text>'
        )
    for i, s in enumerate(series):
        color = PALETTE[i]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        if len(s.xs) > 1:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        if markers or len(s.xs) == 1:
            for x, y in zip(s.xs, s.ys):
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        ly = mt + 14 + 16 * i
        lx = ml + pw - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{escape(s.label)}</text>')
    out.append("</svg>")
    write_text(path, "\n".join(out) + "\n")
