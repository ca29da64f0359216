"""Minimal SVG line charts, emitted as deterministic bytes.

No plotting dependency: the charts exist so a run's tables can be
eyeballed quickly.  Output depends only on the passed data (fixed canvas,
fixed palette, fixed tick logic, fixed number formatting), byte for byte.
"""

from __future__ import annotations

from typing import Sequence

Point = tuple[float, float]
Series = tuple[str, Sequence[Point]]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 64, 16, 40, 48


def _escape(text: str) -> str:
    """XML character data: `&`, `<` and `>` as entities, quotes kept."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, target: int = 6) -> float:
    if span <= 0:
        return 1.0
    raw = span / target
    mag = 10 ** _floor_log10(raw)
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            return m * mag
    return 10.0 * mag


def _floor_log10(x: float) -> int:
    e = 0
    while x >= 10.0:
        x /= 10.0
        e += 1
    while x < 1.0:
        x *= 10.0
        e -= 1
    return e


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = _ceil_div(lo, step)
    out = []
    k = first
    while k * step <= hi + step * 1e-9:
        out.append(k * step)
        k += 1
    return out


def _ceil_div(x: float, step: float) -> int:
    k = int(x / step)
    while k * step < x - step * 1e-9:
        k += 1
    return k


def _fmt(v: float) -> str:
    # fixed-notation tick labels; %g keeps 0.25 and 1200 both readable
    return format(v, "g")


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[Series],
) -> str:
    """Render series as polylines with axes, ticks, and a legend."""
    pts = [p for _, data in series for p in data]
    if not pts:  # nothing to scale: the frame, title and axis labels only
        series = ()
    xs = [x for x, _ in pts] or [0.0]
    ys = [y for _, y in pts] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_hi += (x_hi - x_lo) * 0.02
    y_hi += (y_hi - y_lo) * 0.05
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f"{_escape(title)}</text>",
    ]
    for tx in _ticks(x_lo, x_hi) if pts else ():
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 18}" text-anchor="middle">'
            f"{_fmt(tx)}</text>"
        )
    for ty in _ticks(y_lo, y_hi) if pts else ():
        y = py(ty)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 10}" text-anchor="middle">'
        f"{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )
    for i, (name, data) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ordered = sorted(data)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in ordered)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in ordered:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = _MT + 8 + i * 16
        parts.append(
            f'<line x1="{_ML + plot_w - 150}" y1="{ly}" x2="{_ML + plot_w - 130}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + plot_w - 124}" y="{ly + 4}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, title: str, x_label: str, y_label: str, series) -> None:
    svg = line_chart(title, x_label, y_label, series)  # rendered before the file opens
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
