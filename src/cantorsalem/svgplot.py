"""Self-contained SVG emission for decay profiles and regularity reports.

No plotting dependency: documents are assembled as strings.  Every plot
works in log10-log10 data coordinates and records its affine calibration
as data-x0/data-x1/data-y0/data-y1 attributes on the root element, so a
consumer (or test) can map pixel coordinates in emitted paths back to data
values exactly.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .fourier import DecayProfile
from .regularity import RegularityReport

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70.0, 20.0, 20.0, 50.0


class _Frame:
    """Affine map from data coordinates to the pixel viewport."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float):
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    def px(self, x: float) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)


def _header(frame: _Frame) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" data-x0="{frame.x0!r}" data-x1="{frame.x1!r}" '
        f'data-y0="{frame.y0!r}" data-y1="{frame.y1!r}">'
    )


def _frame_rect() -> str:
    return (
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )


def _text(x: float, y: float, s: str, anchor: str = "middle", elem_id: Optional[str] = None) -> str:
    ident = f' id="{elem_id}"' if elem_id else ""
    return f'<text{ident} x="{x:.2f}" y="{y:.2f}" font-size="13" text-anchor="{anchor}" fill="#222">{s}</text>'


def _line_path(frame: _Frame, pts: Sequence[Tuple[float, float]], elem_id: str, color: str, dash: str = "") -> str:
    cmds = " ".join(
        f"{'M' if i == 0 else 'L'} {frame.px(x):.3f} {frame.py(y):.3f}" for i, (x, y) in enumerate(pts)
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<path id="{elem_id}" d="{cmds}" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>'


def _circles(frame: _Frame, pts: Sequence[Tuple[float, float]], color: str, cls: str) -> List[str]:
    return [
        f'<circle class="{cls}" cx="{frame.px(x):.3f}" cy="{frame.py(y):.3f}" r="3.5" fill="{color}"/>'
        for x, y in pts
    ]


def _annotation_document(message: str) -> str:
    frame = _Frame(0.0, 1.0, 0.0, 1.0)
    return "\n".join(
        [
            _header(frame),
            _frame_rect(),
            _text(_W / 2, _H / 2, message, elem_id="annotation"),
            "</svg>",
        ]
    )


def _decay_svg(profile: DecayProfile, sigma: Optional[float]) -> str:
    if profile.flat_zero:
        return _annotation_document("no decay data (all band suprema at noise floor)")
    pts = [
        (math.log10(lo), math.log10(s))
        for lo, s in zip(profile.band_lows, profile.band_sups)
        if s > 0.0
    ]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    lines: List[str] = []
    if profile.sigma_hat is not None:
        slope = -profile.sigma_hat / 2.0
        icpt = math.log10(profile.C_hat)
        fit = [(x_lo, icpt + slope * x_lo), (x_hi, icpt + slope * x_hi)]
        ys += [fit[0][1], fit[1][1]]
    else:
        fit = None
    if sigma is not None:
        c_target = profile.C_hat if profile.C_hat is not None else 1.0
        ti = math.log10(c_target)
        target = [(x_lo, ti - sigma / 2.0 * x_lo), (x_hi, ti - sigma / 2.0 * x_hi)]
        ys += [target[0][1], target[1][1]]
    else:
        target = None

    frame = _Frame(x_lo, x_hi, min(ys), max(ys))
    parts = [_header(frame), _frame_rect()]
    if fit is not None:
        parts.append(_line_path(frame, fit, "fit-line", "#c0392b"))
    if target is not None:
        parts.append(_line_path(frame, target, "target-line", "#2980b9", dash="6 4"))
    parts.extend(_circles(frame, pts, "#222", "band-sup"))
    parts.append(_text(_W / 2, _H - 12, "log10 k (dyadic band start)"))
    parts.append(_text(16, _H / 2, "log10 band sup", anchor="middle"))
    if profile.sigma_hat is not None:
        parts.append(_text(_W - _MR, _MT + 14, f"fitted exponent {profile.sigma_hat:.4f}", anchor="end"))
    parts.append("</svg>")
    return "\n".join(parts)


def _regularity_svg(report: RegularityReport) -> str:
    if not report.upper_by_radius or not report.lower_by_radius:
        return _annotation_document("no per-radius data")
    xs = [math.log10(float(r)) for r in report.radii]
    uppers = [math.log10(v) if v > 0 else math.nan for v in report.upper_by_radius]
    lowers = [math.log10(v) if v > 0 else math.nan for v in report.lower_by_radius]
    finite = [v for v in uppers + lowers if not math.isnan(v)]
    refs = [math.log10(v) for v in (report.reference_upper, report.reference_lower) if v]
    y_all = finite + refs
    frame = _Frame(min(xs), max(xs), min(y_all), max(y_all))
    upper_pts = [(x, y) for x, y in zip(xs, uppers) if not math.isnan(y)]
    lower_pts = [(x, y) for x, y in zip(xs, lowers) if not math.isnan(y)]
    parts = [_header(frame), _frame_rect()]
    parts.append(_line_path(frame, upper_pts, "upper-curve", "#c0392b"))
    parts.append(_line_path(frame, lower_pts, "lower-curve", "#2980b9"))
    if report.reference_upper:
        y = math.log10(report.reference_upper)
        parts.append(_line_path(frame, [(min(xs), y), (max(xs), y)], "upper-reference", "#c0392b", dash="6 4"))
    if report.reference_lower:
        y = math.log10(report.reference_lower)
        parts.append(_line_path(frame, [(min(xs), y), (max(xs), y)], "lower-reference", "#2980b9", dash="6 4"))
    parts.extend(_circles(frame, upper_pts, "#c0392b", "upper-pt"))
    parts.extend(_circles(frame, lower_pts, "#2980b9", "lower-pt"))
    parts.append(_text(_W / 2, _H - 12, "log10 r"))
    parts.append(_text(16, _H / 2, "log10 mass/r^t"))
    parts.append("</svg>")
    return "\n".join(parts)


def emit_svg(report, sigma: Optional[float] = None) -> str:
    """Render a DecayProfile or RegularityReport as a standalone SVG string.

    For decay profiles, sigma adds a dashed target envelope
    C_hat k^(-sigma/2) alongside the fitted line; a non-finite sigma is refused.
    """
    if sigma is not None and not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if isinstance(report, DecayProfile):
        return _decay_svg(report, sigma)
    if isinstance(report, RegularityReport):
        return _regularity_svg(report)
    raise ValueError(f"cannot plot object of type {type(report).__name__}")
