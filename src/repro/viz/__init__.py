"""Dependency-free SVG visualization of networks and placements."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .plots import panel_plot, svg_line_plot
    from .render import (
        render_manhattan,
        render_network,
        render_placement,
        save_svg,
    )
    from .svg import SvgCanvas

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".plots": ("panel_plot", "svg_line_plot"),
    ".render": ("render_manhattan", "render_network", "render_placement", "save_svg"),
    ".svg": ("SvgCanvas",),
})

__all__ = [
    "SvgCanvas",
    "panel_plot",
    "render_manhattan",
    "render_network",
    "render_placement",
    "save_svg",
    "svg_line_plot",
]
