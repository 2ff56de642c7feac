"""SVG plots of a run: plain text, no renderer needed.

`cli.emit_plots` writes them, and imports this module on its first call.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .cli import _RATE, _variance_series
from .simulate import RunLog

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 45
_WIDTH, _HEIGHT = 900, 420


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
        f'{y_label}</text>',
    ]


def _scaler(lo: float, hi: float, pix_lo: float, pix_hi: float):
    span = hi - lo if hi > lo else 1.0

    def to_pix(v: float) -> float:
        return pix_lo + (v - lo) / span * (pix_hi - pix_lo)

    return to_pix


def _polyline(xy: list[float], color: str, dash: str | None = None) -> str:
    """A polyline through the points x0, y0, x1, y1, ... of `xy`."""
    coords = " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{coords}"/>')


def _svg(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def _variance_svg(log: RunLog, threshold: float) -> str:
    n = len(log)
    floor = 1e-12
    # math.log10, not numpy's, which need not round as libm does; the pixel
    # maps below are the same IEEE operations on arrays as on floats.
    logs = {tag: [math.log10(max(v, floor)) for v in values]
            for tag, values in _variance_series(log).items()}
    log_threshold = math.log10(threshold)
    lo = min(chain(*logs.values(), [log_threshold])) - 0.2
    hi = max(chain(*logs.values(), [log_threshold])) + 0.2
    to_x = _scaler(0, max(n - 1, 1), _MARGIN_L, _WIDTH - _MARGIN_R)
    to_y = _scaler(lo, hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    elems = _axes("epoch", "predicted angle variance [rad&#178;]")
    for power in range(math.ceil(lo), math.floor(hi) + 1):
        y = to_y(power)
        elems.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.2f}" stroke="black"/>')
        elems.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11">1e{power}</text>')
    for k in range(0, n, max(1, n // 8)):
        x = to_x(k)
        elems.append(f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{x:.2f}" y2="{_HEIGHT - _MARGIN_B + 4}" stroke="black"/>')
        elems.append(f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="11">{k}</text>')

    y_thr = to_y(log_threshold)
    elems.append(_polyline([to_x(0), y_thr, to_x(n - 1), y_thr],
                           "#777777", dash="6,4"))
    deg = math.degrees(math.sqrt(threshold))
    elems.append(f'<text x="{_WIDTH - _MARGIN_R - 4}" y="{y_thr - 6:.2f}" '
                 f'text-anchor="end" font-size="11" fill="#777777">'
                 f'threshold ({deg:.1f}&#176; std)</text>')

    colors = {"proposed": "#1f77b4", "random": "#ff7f0e"}
    for idx, (tag, values) in enumerate(logs.items()):
        xy = np.column_stack((to_x(np.arange(len(values))),
                              to_y(np.array(values))))
        elems.append(_polyline(xy.ravel().tolist(), colors[tag]))
        elems.append(f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * idx}" '
                     f'font-size="12" fill="{colors[tag]}">{tag} selection</text>')
    arm = log.arms["proposed"]
    for k, (mask, variance) in enumerate(zip(arm.bitmask, arm.variance)):
        if mask:
            x = to_x(k)
            y = to_y(math.log10(max(variance, floor)))
            elems.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
                         f'fill="none" stroke="#d62728" stroke-width="1.5"/>')
    elems.append(f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * len(logs)}" '
                 f'font-size="12" fill="#d62728">o sensing epoch</text>')
    return _svg(elems)


def _rate_svg(log: RunLog) -> str:
    """Each method's rate per epoch, drawn and listed in the legend only if
    it has a rate in some epoch."""
    n = len(log)
    colors = {"proposed": "#1f77b4", "conventional": "#ff7f0e",
              "perfect": "#2ca02c"}
    rates = {t: log.rates[t][_RATE] for t in colors
             if t in log.rates and len(log.rates[t][_RATE])}
    hi = max(float(r.max()) for r in rates.values()) * 1.1 if rates else 1.0
    to_x = _scaler(0, max(n - 1, 1), _MARGIN_L, _WIDTH - _MARGIN_R)
    to_y = _scaler(0.0, hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    elems = _axes("epoch", "instantaneous rate [bit/symbol]")
    for k in range(0, n, max(1, n // 8)):
        x = to_x(k)
        elems.append(f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="11">{k}</text>')
    ticks = 5
    for i in range(ticks + 1):
        v = hi * i / ticks
        y = to_y(v)
        elems.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{v:.1f}</text>')

    # One polyline per run of consecutive rated epochs; a lone point gets a
    # dot. The pixels are mapped on arrays, as in _variance_svg.
    epochs = log.rated_epochs
    bounds = [0, *(np.flatnonzero(np.diff(epochs) != 1) + 1).tolist(),
              len(epochs)]
    xs = to_x(epochs).tolist()
    for idx, (tag, values) in enumerate(rates.items()):
        ys = to_y(values).tolist()
        for start, end in zip(bounds, bounds[1:]):
            if end - start > 1:
                points = zip(xs[start:end], ys[start:end])
                elems.append(_polyline([v for xy in points for v in xy],
                                       colors[tag]))
            else:
                elems.append(f'<circle cx="{xs[start]:.2f}" '
                             f'cy="{ys[start]:.2f}" r="2" '
                             f'fill="{colors[tag]}"/>')
        elems.append(f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * idx}" '
                     f'font-size="12" fill="{colors[tag]}">{tag}</text>')
    return _svg(elems)
