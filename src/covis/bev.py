"""Ego-centered occupancy grids and geometric fusion across robots.

Grid convention: square H x W cells of occupancy probability (1 = occupied,
0 = free, 0.5 = unknown). Axis 0 spans the ego x direction (forward), axis 1
the ego y direction (left); the ego sits at the grid center. Cell (i, j)
covers ego coordinates x in [i*res - extent/2, (i+1)*res - extent/2), same
for y. "Occupied" is the complement of navigable space.

``BevGrid.sample`` is the one nearest-cell lookup for such grids, the world
floor of ``scenario`` (a ``BevGrid`` in world coordinates) included: a point
off the grid reads unknown. ``cell_centres`` gives the centre of every cell.

``to_base64`` writes and ``from_base64`` reads the wire form as base64 text:
a 16-byte header (H, W as uint32, resolution as float32, 4 reserved bytes)
followed by row-major little-endian float32 cells.
"""

from __future__ import annotations

import base64
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .estimator import PoseEstimate
from .geometry import Pose
from .metrics import mask_dice_iou

_HEADER = struct.Struct("<IIf4x")

DEFAULT_EXTENT = 6.0
DEFAULT_RESOLUTION = 6.0 / 64

UNKNOWN = 0.5
FUSE_CLAMP = 0.01  # fused probabilities live in [FUSE_CLAMP, 1 - FUSE_CLAMP]


@dataclass(frozen=True)
class BevGrid:
    """Occupancy-probability grid, square and centred on the origin.

    The grid holds its cells inside a one-cell ring of unknown, built once
    here; ``cells`` is a read-only view of the interior, copied from the
    array the grid was made from.
    """

    cells: np.ndarray
    extent: float = DEFAULT_EXTENT
    resolution: float = field(default=DEFAULT_RESOLUTION)
    _ringed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.cells)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"grid must be square, got shape {c.shape}")
        if not c.size:
            raise ValueError("grid has no cells")
        if not 0.0 < self.resolution < math.inf:  # NaN fails too
            raise ValueError(f"resolution {self.resolution!r} must be positive and finite")
        if not math.isclose(c.shape[0] * self.resolution, self.extent, rel_tol=1e-9):
            raise ValueError("grid shape * resolution must equal extent")
        ringed = np.full((c.shape[0] + 2, c.shape[1] + 2), UNKNOWN)
        ringed[1:-1, 1:-1] = c
        ringed.flags.writeable = False
        cells = ringed[1:-1, 1:-1]
        if not (cells.min() >= 0.0 and cells.max() <= 1.0):  # NaN fails too
            raise ValueError("cells must lie in [0, 1]")
        object.__setattr__(self, "_ringed", ringed)
        object.__setattr__(self, "cells", cells)

    def sample(self, x, y):
        """Value of the cell holding each finite point (x, y); unknown off the grid.

        Cell (i, j) covers [i*res - extent/2, (i+1)*res - extent/2) in x,
        same in y. ``x``, ``y`` and the result have one shape.
        """
        n = self.cells.shape[0]
        cell = np.empty(np.shape(x))
        ij = []
        for v in (x, y):
            # In place, as the rays of one crop sample about 130k points.
            np.divide(np.add(v, self.extent / 2.0, out=cell), self.resolution, out=cell)
            ij.append(np.clip(np.floor(cell, out=cell), -1, n, out=cell).astype(np.intp))
        i, j = ij
        i *= n + 2  # flat index (i + 1) * (n + 2) + (j + 1), so indices -1 and n land on the ring
        i += j
        i += n + 3
        return self._ringed.take(i)

    def to_base64(self) -> str:
        h, w = self.cells.shape
        data = _HEADER.pack(h, w, self.resolution) + self.cells.astype("<f4").tobytes(order="C")
        return base64.b64encode(data).decode("ascii")

    @staticmethod
    def from_base64(text: str) -> "BevGrid":
        data = base64.b64decode(text)
        if len(data) < _HEADER.size:
            raise ValueError("grid blob shorter than header")
        h, w, res = _HEADER.unpack_from(data)
        expected = _HEADER.size + 4 * h * w
        if len(data) != expected:
            raise ValueError(f"grid blob length {len(data)} != expected {expected}")
        cells = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(h, w)
        return BevGrid(cells, extent=h * float(res), resolution=float(res))


def cell_centres(extent: float, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every cell centre of a square grid, indexed like its cells."""
    n = int(round(extent / resolution))
    coords = (np.arange(n) + 0.5) * resolution - extent / 2.0
    return np.meshgrid(coords, coords, indexing="ij")


def transform_grid(src: BevGrid, rel: Pose) -> BevGrid:
    """Resample a neighbor grid into the destination ego frame.

    ``rel`` is the pose of the source ego in the destination ego frame; only
    its planar components (x, y, yaw) participate. Each destination cell takes
    the nearest source cell under the inverse transform; cells falling outside
    the source footprint become unknown (0.5).
    """
    xs, ys = cell_centres(src.extent, src.resolution)
    tx, ty = rel.position.x, rel.position.y
    yaw = rel.rotation.yaw()
    c, s = math.cos(yaw), math.sin(yaw)
    # Inverse planar transform of destination cell centers into source coords.
    dx, dy = xs - tx, ys - ty
    px = c * dx + s * dy
    py = -s * dx + c * dy
    return BevGrid(src.sample(px, py), src.extent, src.resolution)


def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, FUSE_CLAMP, 1.0 - FUSE_CLAMP)
    return np.log(q / (1.0 - q))


def fuse(
    ego: BevGrid,
    neighbors: list[tuple[BevGrid, PoseEstimate]],
    gate_sigma: float = 1.0,
) -> BevGrid:
    """Combine neighbor grids into the ego frame by log-odds addition.

    Neighbors whose position-uncertainty norm exceeds ``gate_sigma`` are
    skipped. With no surviving neighbor the ego grid itself is returned
    (the self-loop contract). Otherwise cells are combined in log-odds space
    (0.5 neutral) and clamped to [0.01, 0.99].
    """
    kept = [
        (grid, est) for grid, est in neighbors if est.sigma_p_norm() <= gate_sigma
    ]
    if not kept:
        return ego
    log_odds = _logit(ego.cells)
    for grid, est in kept:
        moved = transform_grid(grid, Pose(est.p_hat, est.q_hat))
        log_odds = log_odds + _logit(moved.cells)
    fused = 1.0 / (1.0 + np.exp(-log_odds))
    return BevGrid(np.clip(fused, FUSE_CLAMP, 1.0 - FUSE_CLAMP), ego.extent, ego.resolution)


def coverage_gain(truth: BevGrid, ego_only: BevGrid, fused: BevGrid) -> tuple[float, float]:
    """Dice of the ego-only and fused grids against truth.

    Scored on the navigable mask, matching how BEV agreement is reported for
    navigability grids. A cell counts as navigable only when its occupancy is
    strictly below ``UNKNOWN`` (0.5), so unknown cells are not credited as
    confirmed-free; the score rewards coverage revealed by neighbors.
    """
    if ego_only.cells.shape != truth.cells.shape or fused.cells.shape != truth.cells.shape:
        raise ValueError("grid shapes differ")
    t_free = truth.cells < UNKNOWN
    dice_ego, _ = mask_dice_iou(t_free, ego_only.cells < UNKNOWN)
    dice_fused, _ = mask_dice_iou(t_free, fused.cells < UNKNOWN)
    return dice_ego, dice_fused
