"""Transfer functions for volume rendering.

"Due to the complexity of creating useful transfer functions the art of
generating volume renderings has in the past been relegated to
visualization professionals.  DV3D offers interfaces that greatly
simplify this process" — specifically the interactive *leveling*
operation: click-dragging in a cell adjusts a (window-center,
window-width) pair that reshapes the opacity or color mapping.

This module provides the underlying objects: piecewise-linear opacity
and color transfer functions plus the combined :class:`TransferFunction`
whose :meth:`TransferFunction.level` implements the drag gesture.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rendering.colormap import Colormap
from repro.util.errors import RenderingError


class OpacityTransferFunction:
    """Piecewise-linear scalar→opacity mapping on normalized [0, 1]."""

    def __init__(self, points: Sequence[Tuple[float, float]] = ((0.0, 0.0), (1.0, 1.0))) -> None:
        pts = sorted((float(x), float(y)) for x, y in points)
        if len(pts) < 2:
            raise RenderingError("opacity transfer function needs >= 2 points")
        for x, y in pts:
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                raise RenderingError(f"control point ({x}, {y}) outside [0,1]^2")
        self.points = pts

    def __call__(self, normalized: np.ndarray) -> np.ndarray:
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        return np.interp(np.clip(normalized, 0.0, 1.0), xs, ys)

    def support(self) -> Optional[Tuple[float, float]]:
        """Normalized interval outside which opacity is *exactly* zero.

        Piecewise-linear segments between two zero control points are
        identically zero, so the support is bounded by the last zero
        point before the first positive one and the first zero point
        after the last positive one.  Values clipped to [0, 1] inherit
        the boundary opacity, so a positive endpoint extends the
        support to infinity on that side.  Returns ``None`` when the
        function is zero everywhere (nothing can ever contribute).
        """
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        positive = [i for i, y in enumerate(ys) if y > 0.0]
        if not positive:
            return None
        lo = -np.inf if positive[0] == 0 else xs[positive[0] - 1]
        hi = np.inf if positive[-1] == len(xs) - 1 else xs[positive[-1] + 1]
        return float(lo), float(hi)

    @staticmethod
    def window(center: float, width: float, peak: float = 1.0) -> "OpacityTransferFunction":
        """A tent function: zero outside the window, *peak* at its center.

        This is the shape the DV3D leveling gesture manipulates.
        """
        width = max(width, 1e-4)
        lo = center - width / 2
        hi = center + width / 2
        pts: List[Tuple[float, float]] = []
        if lo > 0.0:
            pts.append((0.0, 0.0))
        pts.append((float(np.clip(lo, 0.0, 1.0)), 0.0))
        pts.append((float(np.clip(center, 0.0, 1.0)), float(np.clip(peak, 0.0, 1.0))))
        pts.append((float(np.clip(hi, 0.0, 1.0)), 0.0))
        if hi < 1.0:
            pts.append((1.0, 0.0))
        # de-duplicate identical x positions introduced by clipping
        dedup: Dict[float, float] = {}
        for x, y in pts:
            dedup[x] = max(dedup.get(x, 0.0), y)
        return OpacityTransferFunction(sorted(dedup.items()))

    @staticmethod
    def ramp(threshold: float = 0.5, softness: float = 0.1) -> "OpacityTransferFunction":
        """Zero below *threshold*, ramping to 1 over *softness*."""
        lo = float(np.clip(threshold, 0.0, 1.0))
        hi = float(np.clip(threshold + max(softness, 1e-4), 0.0, 1.0))
        pts = [(0.0, 0.0), (lo, 0.0), (hi, 1.0), (1.0, 1.0)]
        dedup: Dict[float, float] = {}
        for x, y in pts:
            dedup[x] = max(dedup.get(x, 0.0), y)
        return OpacityTransferFunction(sorted(dedup.items()))


class ColorTransferFunction:
    """Scalar→RGB via a :class:`Colormap` over a configurable sub-window."""

    def __init__(self, colormap: Colormap, window: Tuple[float, float] = (0.0, 1.0)) -> None:
        lo, hi = float(window[0]), float(window[1])
        if not 0.0 <= lo < hi <= 1.0:
            raise RenderingError(f"bad color window {window!r}")
        self.colormap = colormap
        self.window = (lo, hi)

    def __call__(self, normalized: np.ndarray) -> np.ndarray:
        lo, hi = self.window
        remapped = (np.clip(normalized, lo, hi) - lo) / (hi - lo)
        return self.colormap.map_scalars(remapped, 0.0, 1.0)


class TransferFunction:
    """The combined volume-rendering transfer function.

    Operates on *raw* scalar values: normalizes by ``scalar_range``,
    then applies the color and opacity components.  The
    :meth:`level` method implements DV3D's interactive leveling drag:
    horizontal motion moves the window center, vertical motion scales
    its width.
    """

    def __init__(
        self,
        scalar_range: Tuple[float, float],
        colormap: Colormap | None = None,
        center: float = 0.75,
        width: float = 0.4,
        peak_opacity: float = 0.8,
        color_window: Tuple[float, float] = (0.0, 1.0),
    ) -> None:
        lo, hi = float(scalar_range[0]), float(scalar_range[1])
        if hi <= lo:
            raise RenderingError(f"bad scalar range {scalar_range!r}")
        self.scalar_range = (lo, hi)
        self.colormap = colormap or Colormap()
        self.center = float(np.clip(center, 0.0, 1.0))
        self.width = float(np.clip(width, 1e-3, 2.0))
        self.peak_opacity = float(np.clip(peak_opacity, 0.0, 1.0))
        c_lo = float(np.clip(color_window[0], 0.0, 1.0))
        c_hi = float(np.clip(color_window[1], 0.0, 1.0))
        if c_hi - c_lo < 1e-3:
            mid = (c_lo + c_hi) / 2
            c_lo, c_hi = max(mid - 5e-4, 0.0), min(mid + 5e-4, 1.0)
            c_hi = max(c_hi, c_lo + 1e-4)
        self.color_window = (c_lo, c_hi)
        self._opacity_cache: Optional[OpacityTransferFunction] = None
        self._color_cache: Optional[ColorTransferFunction] = None

    # -- components (cached: instances are immutable — every leveling /
    # -- colormap operation returns a new TransferFunction) -----------------

    @property
    def opacity(self) -> OpacityTransferFunction:
        if self._opacity_cache is None:
            self._opacity_cache = OpacityTransferFunction.window(
                self.center, self.width, self.peak_opacity
            )
        return self._opacity_cache

    @property
    def color(self) -> ColorTransferFunction:
        if self._color_cache is None:
            self._color_cache = ColorTransferFunction(self.colormap, self.color_window)
        return self._color_cache

    def opacity_support(self) -> Optional[Tuple[float, float]]:
        """Raw-scalar interval outside which opacity is exactly zero.

        ``None`` means the opacity function is zero everywhere.  The
        ray caster's empty-space skipping compares per-cell value
        bounds against this interval; anything outside contributes
        nothing to the image, byte for byte.
        """
        support = self.opacity.support()
        if support is None:
            return None
        lo, hi = self.scalar_range
        span = hi - lo
        return lo + support[0] * span, lo + support[1] * span

    def normalize(self, values: np.ndarray) -> np.ndarray:
        lo, hi = self.scalar_range
        return (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)

    def evaluate(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw scalars → ``(rgb, alpha)``; NaNs get zero opacity."""
        safe, alpha = self.evaluate_opacity(values)
        return self.color(safe), alpha

    def evaluate_opacity(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw scalars → ``(normalized, alpha)``: the opacity half of
        :meth:`evaluate`, whose colour is ``self.color(normalized)`` —
        elementwise, so a caller can map colour for the samples it keeps
        only.  Non-finite values normalize to 0 with zero opacity."""
        norm = self.normalize(values)
        finite = np.isfinite(norm)
        safe = np.where(finite, norm, 0.0)
        alpha = np.where(finite, self.opacity(safe), 0.0)
        return safe, alpha

    # -- interactive leveling ------------------------------------------------

    def level(self, d_center: float, d_width: float) -> "TransferFunction":
        """Return a new function with the *opacity* window moved/scaled.

        *d_center* and *d_width* are in normalized units (a full-cell
        drag ≈ 1.0).  The interaction layer converts pixel deltas.
        """
        return TransferFunction(
            self.scalar_range,
            colormap=self.colormap,
            center=float(np.clip(self.center + d_center, 0.0, 1.0)),
            width=float(np.clip(self.width * (1.0 + d_width) + 1e-9, 1e-3, 2.0)),
            peak_opacity=self.peak_opacity,
            color_window=self.color_window,
        )

    def level_color(self, d_center: float, d_width: float) -> "TransferFunction":
        """The color-side leveling drag: remap the colormap sub-window.

        Horizontal motion shifts the window; vertical motion scales its
        width.  (The paper: the leveling operation "controls the shape
        of the plot's opacity **or color** transfer function".)
        """
        lo, hi = self.color_window
        center = (lo + hi) / 2 + d_center
        half = (hi - lo) / 2 * (1.0 + d_width)
        half = float(np.clip(half, 5e-4, 0.5))
        return TransferFunction(
            self.scalar_range,
            colormap=self.colormap,
            center=self.center,
            width=self.width,
            peak_opacity=self.peak_opacity,
            color_window=(center - half, center + half),
        )

    def with_colormap(self, colormap: Colormap) -> "TransferFunction":
        return TransferFunction(
            self.scalar_range, colormap=colormap, center=self.center,
            width=self.width, peak_opacity=self.peak_opacity,
            color_window=self.color_window,
        )

    def state(self) -> Dict[str, object]:
        """Serializable configuration (provenance / hyperwall sync)."""
        return {
            "scalar_range": list(self.scalar_range),
            "colormap": self.colormap.state(),
            "center": self.center,
            "width": self.width,
            "peak_opacity": self.peak_opacity,
            "color_window": list(self.color_window),
        }

    @staticmethod
    def from_state(state: Dict[str, object]) -> "TransferFunction":
        return TransferFunction(
            tuple(state["scalar_range"]),  # type: ignore[arg-type]
            colormap=Colormap.from_state(state["colormap"]),  # type: ignore[arg-type]
            center=float(state["center"]),  # type: ignore[arg-type]
            width=float(state["width"]),  # type: ignore[arg-type]
            peak_opacity=float(state["peak_opacity"]),  # type: ignore[arg-type]
            color_window=tuple(state.get("color_window", (0.0, 1.0))),  # type: ignore[arg-type]
        )
