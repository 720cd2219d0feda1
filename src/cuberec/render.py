"""Deterministic SVG rendering of lattice windows, groves, and sign triangles.

Exact plane coordinates (integer multiples of sqrt(3)/2 and 1/2) are turned
into decimals only at serialization time, with a fixed six-decimal format, so
identical inputs always produce identical bytes.  Styling is a small embedded
theme; the only knobs are the layer set, the window radius, and the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groves import Grove, _window
from .lattice import InitialConditions, PlanePoint, project

LAYERS = frozenset(
    {"rhombi", "short_edges", "long_edges", "vertex_labels", "boundary_classes"}
)
DEFAULT_LAYERS = frozenset({"rhombi", "short_edges", "long_edges"})

_SQRT3_2 = math.sqrt(3.0) / 2.0

_CLASS_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


@dataclass(frozen=True)
class RenderOptions:
    scale: float = 40.0
    layers: frozenset = DEFAULT_LAYERS
    N: int | None = None

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be a positive finite number, got {self.scale}")
        unknown = set(self.layers) - LAYERS
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


class _Canvas:
    def __init__(self, scale: float):
        self.scale = scale
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.body: list[str] = []

    def xy(self, p: PlanePoint) -> tuple[float, float]:
        x = p.xs * _SQRT3_2 * self.scale
        y = -p.y2 / 2.0 * self.scale
        self.xs.append(x)
        self.ys.append(y)
        return x, y

    def line(self, a: PlanePoint, b: PlanePoint, cls: str, width: float) -> None:
        x1, y1 = self.xy(a)
        x2, y2 = self.xy(b)
        self.body.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke-width="{_fmt(width)}"/>'
        )

    def polygon(self, corners, cls: str) -> None:
        pts = " ".join("%s,%s" % tuple(map(_fmt, self.xy(c))) for c in corners)
        self.body.append(f'<polygon class="{cls}" points="{pts}"/>')

    def circle(self, p: PlanePoint, radius: float, cls: str, fill: str) -> None:
        x, y = self.xy(p)
        self.body.append(
            f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(radius)}" fill="{fill}"/>'
        )

    def text(self, p: PlanePoint, label: str, cls: str, dy: float = 0.0) -> None:
        x, y = self.xy(p)
        self.body.append(
            f'<text class="{cls}" x="{_fmt(x)}" y="{_fmt(y + dy)}">{label}</text>'
        )

    def document(self) -> str:
        pad = 0.8 * self.scale
        if self.xs:
            x0, x1 = min(self.xs) - pad, max(self.xs) + pad
            y0, y1 = min(self.ys) - pad, max(self.ys) + pad
        else:
            x0 = y0 = -pad
            x1 = y1 = pad
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">\n'
            "<style>\n"
            ".rhombus{fill:none;stroke:#222222;}\n"
            ".lattice-long,.lattice-short{stroke:#999999;}\n"
            ".grove-long{stroke:#000000;stroke-linecap:round;}\n"
            ".grove-short{stroke:#555555;stroke-linecap:round;}\n"
            "text{font-family:monospace;text-anchor:middle;}\n"
            "</style>\n"
        )
        return header + "\n".join(self.body) + "\n</svg>\n"


def render_lattice(ic: InitialConditions, opts: RenderOptions | None = None) -> str:
    """Rhombus outlines and graph edges of the radius-N window."""

    def edges(window, layers):
        order = sorted(window.pos.items())
        if "long_edges" in layers:
            for _, t in order:
                yield "lattice-long", 0.04, window.long_ends[t]
        if "short_edges" in layers:
            for _, t in order:
                yield "lattice-short", 0.04, window.short_ends[t]

    return _render(ic, opts, edges)


def render_grove(g: Grove, opts: RenderOptions | None = None) -> str:
    """One edge per window rhombus: the grove's long edges emphasized."""

    def edges(window, layers):
        for _, t in sorted(window.pos.items()):
            if g.mask >> t & 1:
                yield "grove-long", 0.12, window.long_ends[t]
            else:
                yield "grove-short", 0.05, window.short_ends[t]

    return _render(g.ic, opts, edges)


def _render(ic: InitialConditions, opts: RenderOptions | None, edges) -> str:
    """Outlines, the (class, width, edge) triples of edges(window, layers), decorations.

    An edge is a pair of window-point indices; rhombi go in sorted order.
    """
    opts = opts or RenderOptions()
    N = ic.min_odd_cutoff if opts.N is None else opts.N
    window = _window(ic, N)
    canvas = _Canvas(opts.scale)
    if "rhombi" in opts.layers:
        for r in sorted(window.pos):
            canvas.polygon(r.corners(), "rhombus")
    points = window.points
    for cls, width, (a, b) in edges(window, opts.layers):
        canvas.line(project(points[a]), project(points[b]), cls, width * opts.scale)
    if "boundary_classes" in opts.layers:
        for ci, cls in enumerate(window.classes):
            color = _CLASS_COLORS[ci % len(_CLASS_COLORS)]
            for p in cls:
                canvas.circle(project(p), 0.12 * opts.scale, "class-mark", color)
    if "vertex_labels" in opts.layers:
        for p in window.index:
            canvas.text(project(p), "(%d,%d,%d)" % p, "vertex-label", dy=-0.1 * opts.scale)
    return canvas.document()


def render_asm(triangle: list[list[int]], opts: RenderOptions | None = None) -> str:
    """Triangular array of signed entries; entries must be -1, 0, or 1."""
    opts = opts or RenderOptions()
    for row in triangle:
        for e in row:
            if e not in (-1, 0, 1):
                raise ValueError(f"entry {e} outside {{-1,0,1}}")
    canvas = _Canvas(opts.scale)
    for ri, row in enumerate(triangle):
        for ci, e in enumerate(row):
            p = PlanePoint(xs=2 * ci + ri, y2=-3 * ri)
            canvas.text(p, str(e), "asm-entry", dy=0.08 * opts.scale)
    return canvas.document()
