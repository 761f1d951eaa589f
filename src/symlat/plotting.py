"""Minimal deterministic SVG scatter plots (points and reference lines).
Output depends only on the data passed in, so regenerating a plot from the
same CSV reproduces it byte for byte."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

WIDTH = 640
HEIGHT = 440
MARGIN_L = 64
MARGIN_R = 150
MARGIN_T = 36
MARGIN_B = 52

MARKERS = ("circle", "square", "triangle", "tick")


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    marker: str = "circle"
    filled: bool = True
    color: str = "black"

    def __post_init__(self):
        if self.marker not in MARKERS:
            raise ValueError(f"unknown marker {self.marker!r}")
        if len(self.x) != len(self.y):
            raise ValueError("series x and y lengths differ")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_svg(path, series: Sequence[Series], xlabel: str, ylabel: str,
              title: str = "", hlines: Sequence[float] = (),
              log_y: bool = False) -> None:
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    ys.extend(hlines)
    if log_y:
        ys = [v for v in ys if v > 0]
        if not ys:
            ys = [0.1, 1.0]
        ylo, yhi = math.log10(min(ys)), math.log10(max(ys))
    else:
        ylo, yhi = min(ys), max(ys)
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    xpad = 0.05 * (xhi - xlo)
    ypad = 0.08 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - xlo) / (xhi - xlo) * plot_w

    def sy(v: float) -> float:
        t = math.log10(v) if log_y else v
        return MARGIN_T + plot_h - (t - ylo) / (yhi - ylo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
           'fill="none" stroke="black"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="{MARGIN_T - 12}" text-anchor="middle" '
                   f'font-size="14">{_esc(title)}</text>')
    for t in _nice_ticks(xlo + xpad, xhi - xpad):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-size="11">{_fmt(t)}</text>')
    if log_y:
        lo_dec = math.floor(ylo)
        hi_dec = math.ceil(yhi)
        ticks = [10.0 ** k for k in range(int(lo_dec), int(hi_dec) + 1)
                 if ylo <= k <= yhi]
    else:
        ticks = _nice_ticks(ylo + ypad, yhi - ypad)
    for t in ticks:
        py = sy(t)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-size="11">{_fmt(t)}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
               f'text-anchor="middle" font-size="12">{_esc(xlabel)}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-size="12" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">'
               f'{_esc(ylabel)}</text>')
    for y in hlines:
        if log_y and y <= 0:
            continue
        py = sy(y)
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{MARGIN_L + plot_w}" '
                   f'y2="{py:.2f}" stroke="gray" stroke-dasharray="6 4"/>')
    for s in series:
        for vx, vy in zip(s.x, s.y):
            if log_y and vy <= 0:
                continue
            out.append(_marker_svg(s, sx(vx), sy(vy)))
    ly = MARGIN_T + 14
    for s in series:
        lx = MARGIN_L + plot_w + 14
        out.append(_marker_svg(s, lx, ly - 4))
        out.append(f'<text x="{lx + 10}" y="{ly}" font-size="11">{_esc(s.label)}</text>')
        ly += 18
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _marker_svg(s: Series, px: float, py: float) -> str:
    fill = s.color if s.filled else "none"
    if s.marker == "circle":
        return (f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{fill}" '
                f'stroke="{s.color}"/>')
    if s.marker == "square":
        return (f'<rect x="{px - 3.5:.2f}" y="{py - 3.5:.2f}" width="7" height="7" '
                f'fill="{fill}" stroke="{s.color}"/>')
    if s.marker == "triangle":
        pts = f"{px:.2f},{py - 4.5:.2f} {px - 4:.2f},{py + 3.5:.2f} {px + 4:.2f},{py + 3.5:.2f}"
        return f'<polygon points="{pts}" fill="{fill}" stroke="{s.color}"/>'
    return (f'<line x1="{px:.2f}" y1="{py - 4:.2f}" x2="{px:.2f}" y2="{py + 4:.2f}" '
            f'stroke="{s.color}"/>')
