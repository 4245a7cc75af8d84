"""Persistence images: fixed-size vectorizations of persistence diagrams.

Diagram points are mapped to the (birth, persistence) plane, weighted by a
piecewise-linear function of persistence, and smeared with an isotropic
Gaussian. Pixel values integrate the resulting surface over the pixel
rectangle, approximated by the center value times the pixel area.

By default persistence is |death - birth|: extended 1-dim points have
death < birth, and a signed transform would assign them zero weight, erasing
exactly the loop structure the feature exists to carry. The signed variant
remains available through ``absolute=False`` for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import PersistenceDiagram

DEFAULT_RESOLUTION = (5, 5)
BOUNDS_MARGIN = 0.05
SIGMA_FRACTION = 0.2


@dataclass(frozen=True)
class ImageSpec:
    """Grid geometry for a persistence image.

    ``resolution`` is (rows, cols); rows run along the persistence axis and
    columns along the birth axis. ``bounds`` is (x_min, x_max, y_min, y_max)
    in transformed coordinates.
    """

    resolution: tuple[int, int] = DEFAULT_RESOLUTION
    sigma: float = 0.2
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)

    def __post_init__(self):
        rows, cols = self.resolution
        if rows <= 0 or cols <= 0:
            raise ValueError("resolution must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        x_min, x_max, y_min, y_max = self.bounds
        if not (x_max > x_min and y_max > y_min):
            raise ValueError("bounds must span a nondegenerate rectangle")

    @property
    def dim(self) -> int:
        return self.resolution[0] * self.resolution[1]

    def to_json_obj(self) -> dict:
        return {
            "resolution": list(self.resolution),
            "sigma": self.sigma,
            "bounds": list(self.bounds),
        }


def transform_diagram(diagram: PersistenceDiagram, absolute: bool = True) -> np.ndarray:
    """Map (birth, death) points to (birth, persistence); shape (k, 2).

    All dimensions and kinds land in one list. ``absolute`` controls whether
    persistence is |death - birth| or the signed death - birth.
    """
    if len(diagram) == 0:
        return np.zeros((0, 2))
    pts = np.array([(p.birth, p.death) for p in diagram], dtype=float)
    pers = pts[:, 1] - pts[:, 0]
    if absolute:
        pers = np.abs(pers)
    return np.column_stack([pts[:, 0], pers])


def persistence_weight(y) -> np.ndarray:
    """Piecewise-linear weight: 0 below zero persistence, then y, saturating at 1."""
    y = np.asarray(y, dtype=float)
    return np.clip(y, 0.0, 1.0)


def persistence_image(
    diagram: PersistenceDiagram, spec: ImageSpec, absolute: bool = True
) -> np.ndarray:
    """Row-major pixel vector of the weighted Gaussian surface over the grid."""
    rows, cols = spec.resolution
    pts = transform_diagram(diagram, absolute=absolute)
    if len(pts) == 0:
        return np.zeros(rows * cols)
    # canonical point order makes the floating-point sum, and therefore the
    # image, independent of how the diagram happened to be enumerated
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    x_min, x_max, y_min, y_max = spec.bounds
    dx = (x_max - x_min) / cols
    dy = (y_max - y_min) / rows
    cx = x_min + dx * (np.arange(cols) + 0.5)
    cy = y_min + dy * (np.arange(rows) + 0.5)
    s2 = 2.0 * spec.sigma**2
    w = persistence_weight(pts[:, 1])
    gx = np.exp(-((cx[None, :] - pts[:, 0][:, None]) ** 2) / s2)
    gy = np.exp(-((cy[None, :] - pts[:, 1][:, None]) ** 2) / s2)
    img = np.einsum("p,pr,pc->rc", w, gy, gx)
    img *= dx * dy / (2.0 * math.pi * spec.sigma**2)
    return img.ravel()


def bounds_from_diagrams(diagrams, absolute: bool = True) -> tuple[float, float, float, float]:
    """Bounding rectangle of the transformed points, expanded by ``BOUNDS_MARGIN`` per side.

    Degenerate extents are padded so the rectangle is always usable; with no
    points at all the unit square is returned.
    """
    pts = [transform_diagram(d, absolute=absolute) for d in diagrams]
    pts = [p for p in pts if len(p)]
    if not pts:
        return (0.0, 1.0, 0.0, 1.0)
    allp = np.vstack(pts)
    x_min, y_min = (float(t) for t in allp.min(axis=0))
    x_max, y_max = (float(t) for t in allp.max(axis=0))
    pad_x = BOUNDS_MARGIN * (x_max - x_min) if x_max > x_min else 0.5
    pad_y = BOUNDS_MARGIN * (y_max - y_min) if y_max > y_min else 0.5
    return (x_min - pad_x, x_max + pad_x, y_min - pad_y, y_max + pad_y)


def spec_for_diagrams(
    diagrams,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    sigma: float | None = None,
    absolute: bool = True,
) -> ImageSpec:
    """ImageSpec with bounds fit to the diagrams; sigma defaults to a fifth of the longer side."""
    bounds = bounds_from_diagrams(diagrams, absolute=absolute)
    if sigma is None:
        x_min, x_max, y_min, y_max = bounds
        sigma = SIGMA_FRACTION * max(x_max - x_min, y_max - y_min)
    return ImageSpec(resolution=resolution, sigma=sigma, bounds=bounds)
