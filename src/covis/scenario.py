"""Synthetic worlds, leader trajectories, dataset sampling and the experiment loop.

The formation run wires everything together: robots broadcast embeddings
over the simulated TDMA network, and each robot reads a peer only from the
payloads of the frames it received. It estimates relative poses for every
peer whose embedding arrived recently enough, and followers close a PD loop
on the leader estimate. The leader teleports along its reference trajectory.
``FormationRun`` refuses a config whose frames cannot carry the embedding
header or never arrive fresh. ``network_from_config`` is the one network a
config builds, for formation runs and ``netbench`` alike, and
``follower_error_rows`` is the one follower tracking table, keeping the last
pose of each (time, node) and pairing each follower pose with the leader pose
of the same time. Everything is a pure function of (config, seed).

The world floor is a ``bev.BevGrid`` in world coordinates: BEV crops,
visibility rays and the free-space test of ``sample_groups`` read it through
``BevGrid.sample``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import ndimage

from .bev import UNKNOWN, BevGrid, cell_centres
from .config import ConfigError, RunConfig
from .control import Command, PdState, formation_cmd, kf_follow_step, kf_record_step
from .estimator import (
    NoiseProfile,
    Observation,
    PoseEstimate,
    edge_rng,
    estimate,
    estimate_oracle,
)
from .geometry import (
    Pose, UnitQuat, Vec3, compose, inverse, norm_rows, quat_angle_deg_rows, relative_pose_rows
)
from .netproto import CRC_LEN, HEADER_LEN, SchedulerState
from .netsim import BroadcastNode, Medium, SimEvent, Simulator

RUNLOG_SCHEMA = "covis.runlog@1"
DATASET_SCHEMA = "covis.dataset@1"


def jsonl(header: dict, lines: Iterable[str]) -> str:
    """A JSONL log: the ``header`` object, then the already-encoded record ``lines``, one per line."""
    # The closing "" ends the last line in the one join, so the log is never copied to append it.
    return "\n".join([json.dumps(header, sort_keys=True), *lines, ""])


# ---------------------------------------------------------------------------
# Worlds


_WALL = 2  # wall thickness in cells
_DOOR = 8  # door width in cells
_MIN_ROOM = 24  # smallest room side in cells


def gen_world(
    seed: int,
    extent: float = 24.0,
    n_rooms: int = 4,
    resolution: float = 6.0 / 64,
) -> BevGrid:
    """Axis-aligned rooms from recursive splits, one door per internal wall.

    The floor is an occupancy grid (1 = wall, axis 0 = world x) of
    ``round(extent / resolution)`` whole cells, centred on the origin. Free
    space is guaranteed 4-connected (checked by flood fill).
    """
    if extent < 12.0:
        raise ValueError("extent must be >= 12 m so 6 m crops fit with margin")
    if n_rooms < 1:
        raise ValueError("n_rooms must be >= 1")
    n = int(round(extent / resolution))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x90B1D]))
    occ = np.ones((n, n))
    occ[_WALL:-_WALL, _WALL:-_WALL] = 0.0

    rooms = [(_WALL, n - _WALL, _WALL, n - _WALL)]  # (x0, x1, y0, y1), half-open
    while len(rooms) < n_rooms:
        # Split the largest splittable room.
        order = sorted(
            range(len(rooms)),
            key=lambda k: (rooms[k][1] - rooms[k][0]) * (rooms[k][3] - rooms[k][2]),
            reverse=True,
        )
        for idx in order:
            x0, x1, y0, y1 = rooms[idx]
            horizontal = (x1 - x0) >= (y1 - y0)
            span = (x1 - x0) if horizontal else (y1 - y0)
            if span < 2 * _MIN_ROOM + _WALL:
                continue
            cut = int(rng.integers(_MIN_ROOM, span - _MIN_ROOM - _WALL + 1))
            if horizontal:
                wall_lo = x0 + cut
                occ[wall_lo : wall_lo + _WALL, y0:y1] = 1.0
                door = int(rng.integers(y0, y1 - _DOOR + 1))
                occ[wall_lo : wall_lo + _WALL, door : door + _DOOR] = 0.0
                rooms[idx] = (x0, wall_lo, y0, y1)
                rooms.append((wall_lo + _WALL, x1, y0, y1))
            else:
                wall_lo = y0 + cut
                occ[x0:x1, wall_lo : wall_lo + _WALL] = 1.0
                door = int(rng.integers(x0, x1 - _DOOR + 1))
                occ[door : door + _DOOR, wall_lo : wall_lo + _WALL] = 0.0
                rooms[idx] = (x0, x1, y0, wall_lo)
                rooms.append((x0, x1, wall_lo + _WALL, y1))
            break
        else:
            break  # nothing splittable left

    world = BevGrid(occ, n * resolution, resolution)
    _, n_components = ndimage.label(occ < 0.5, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    if n_components != 1:
        raise RuntimeError("world generation produced disconnected free space")
    return world


def sample_free_position(world: BevGrid, rng: np.random.Generator) -> tuple[float, float]:
    free_idx = np.flatnonzero(world.cells < 0.5)
    flat = int(rng.choice(free_idx))
    n = world.cells.shape[0]
    i, j = divmod(flat, n)
    x = (i + rng.uniform()) * world.resolution - world.extent / 2.0
    y = (j + rng.uniform()) * world.resolution - world.extent / 2.0
    return x, y


# ---------------------------------------------------------------------------
# BEV crops and visibility


_RAY_STEPS = 96  # samples per visibility ray
# Samples per block of whole rays. A call tests only the samples that a wall
# can reach, a few percent of a block in open rooms, so the block bounds the
# worst case: a pose within a wall cell's half-diagonal of its centre, where
# every sample is tested. One block then holds the default 64 x 64 crop at
# any FOV, and no float64 temporary exceeds about 2 MB.
_RAY_BLOCK = 1 << 18
_FIRST_SAMPLES = 8  # tested on every ray first; the rest only on rays still clear
_BEARING_BINS = 2048  # world-bearing bins of the wall ranges
_BIN = 2.0 * math.pi / _BEARING_BINS


def _to_world(pose: Pose, ex: np.ndarray, ey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of ego-frame points (ego x forward, ego y left)."""
    yaw = pose.rotation.yaw()
    c, s = math.cos(yaw), math.sin(yaw)
    return pose.position.x + c * ex - s * ey, pose.position.y + s * ex + c * ey


def bev_crop(
    world: BevGrid, pose: Pose, extent: float = 6.0, resolution: float = 6.0 / 64
) -> BevGrid:
    """Ground-truth ego crop: rotated so the ego faces the +x grid axis."""
    wx, wy = _to_world(pose, *cell_centres(extent, resolution))
    return BevGrid(world.sample(wx, wy), extent, resolution)


@dataclass(frozen=True)
class _RayTable:
    """The pose-free part of ``observed_grid`` for one crop geometry and FOV.

    ``points`` holds every ego coordinate a sample can take: row i, column k
    is the centre coordinate i times alpha_k, so sample k of the ray to cell
    (i, j) is the pair of entries (i, k) and (j, k). ``blocks`` holds, per
    block of whole rays, the slice of ``marched`` it covers, the flat indices
    into ``points`` of its samples' x and y (views into one array each, ray
    after ray) and each ray's first sample within the block, so a ray's
    sample count is the gap to the next ray's first sample. Small integer
    indices keep the table at a quarter of the size of the float64 points.
    """

    in_fov: np.ndarray  # cells whose bearing lies inside the FOV
    marched: np.ndarray  # flat index of each in-FOV cell whose ray has a sample
    length: np.ndarray  # each marched ray's length, the distance to its cell's centre
    bearing: np.ndarray  # each marched ray's ego bearing in radians
    points: np.ndarray
    blocks: tuple[tuple[slice, np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=1)  # callers use one geometry and FOV per process
def _ray_blocks(extent: float, resolution: float, fov_deg: float) -> _RayTable:
    ex, ey = cell_centres(extent, resolution)
    n = ex.shape[0]
    bearing = np.arctan2(ey, ex)
    in_fov = np.abs(np.degrees(bearing)) <= fov_deg / 2.0
    # Only cells inside the FOV can be visible, so only their rays are marched.
    cells = np.flatnonzero(in_fov)

    dist = np.hypot(ex.ravel()[cells], ey.ravel()[cells])
    # Sample each ray from the ego to just short of the cell itself. The
    # alphas rise, so a ray's samples are its first alphas below the cutoff.
    alphas = (np.arange(_RAY_STEPS) + 0.5) / _RAY_STEPS
    cutoff = 1.0 - resolution / np.maximum(dist, resolution)
    steps = np.searchsorted(alphas, cutoff)  # how many alphas lie below each cutoff
    keep = steps > 0  # a ray without samples is clear
    cells, steps, dist = cells[keep], steps[keep], dist[keep]
    ends = np.cumsum(steps)
    first = ends - steps
    k = np.arange(ends[-1] if ends.size else 0) - np.repeat(first, steps)
    i, j = np.divmod(np.repeat(cells, steps), n)
    points = (ex[:, 0, None] * alphas).ravel()  # ex[i, j] is centre coordinate i
    index = np.min_scalar_type(points.size - 1)
    ix, iy = (i * _RAY_STEPS + k).astype(index), (j * _RAY_STEPS + k).astype(index)
    ix.flags.writeable = iy.flags.writeable = False  # and so the block views of them

    # Each block holds the rays that start within its _RAY_BLOCK samples, so
    # a block begins at each ray whose first sample opens a new such span.
    bounds = [*np.flatnonzero(np.diff(first // _RAY_BLOCK, prepend=-1)).tolist(), steps.size]
    blocks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        s0, s1 = first[r0], ends[r1 - 1]
        blocks.append((slice(r0, r1), ix[s0:s1], iy[s0:s1], first[r0:r1] - s0))
    table = _RayTable(in_fov, cells, dist, bearing.ravel()[cells], points, tuple(blocks))
    for a in (table.in_fov, table.marched, table.length, table.bearing, table.points, *(block[3] for block in blocks)):
        a.flags.writeable = False
    return table


def _wall_ranges(world: BevGrid, pose: Pose, reach: float) -> np.ndarray:
    """Per world-bearing bin, the nearest range from ``pose`` at which a sample can lie in a wall.

    A point inside a wall cell lies within the cell's half-diagonal rho of the
    cell's centre c. So its bearing is within asin(rho / |c|) of the centre's
    and its range is at least |c| - rho. Each wall cell that a sample short of
    ``reach`` can lie in lowers the bins of that bearing interval, widened by
    one bin on each side, to |c| - rho; one with |c| <= rho lowers every bin
    to 0. A bin that no wall reaches holds inf.
    """
    res, half, n = world.resolution, world.extent / 2.0, world.cells.shape[0]
    rho = res * math.sqrt(0.5)
    x, y, r = pose.position.x, pose.position.y, reach + rho
    i0, j0 = (max(math.floor((v - r + half) / res), 0) for v in (x, y))
    i1, j1 = (min(math.floor((v + r + half) / res) + 1, n) for v in (x, y))
    ranges = np.full(_BEARING_BINS, np.inf)
    if i0 >= i1 or j0 >= j1:  # the crop lies off the world
        return ranges
    wi, wj = np.divmod(np.flatnonzero(world.cells[i0:i1, j0:j1] > 0.5), j1 - j0)
    cx, cy = (wi + (i0 + 0.5)) * res - (half + x), (wj + (j0 + 0.5)) * res - (half + y)
    dist = np.hypot(cx, cy)
    near = dist < r
    if not near.any():
        return ranges
    cx, cy, dist = cx[near], cy[near], dist[near]
    if dist.min() <= rho:
        ranges[:] = 0.0
        return ranges
    theta, spread = np.arctan2(cy, cx), np.arcsin(rho / dist)
    lo = np.floor((theta - spread) / _BIN).astype(np.intp) - 1
    counts = np.floor((theta + spread) / _BIN).astype(np.intp) + 2 - lo
    ends = np.cumsum(counts)
    bins = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    np.minimum.at(ranges, bins % _BEARING_BINS, np.repeat(dist - rho, counts))
    return ranges


def _clear_samples(walls: np.ndarray, bearing: np.ndarray, length: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """How many of each ray's first samples no wall can reach, less one sample of margin.

    ``walls`` is ``_wall_ranges``' table, and ``bearing`` each ray's world
    bearing in radians; a ray has ``steps`` samples over its ``length``.
    """
    bins = np.floor(bearing / _BIN).astype(np.intp) % _BEARING_BINS
    # Sample k lies at range (k + 0.5) / _RAY_STEPS of the ray's length.
    clear = np.ceil(walls.take(bins) * (_RAY_STEPS / length) - 0.5) - 1.0
    return np.clip(clear, 0, steps).astype(np.intp)


def observed_grid(world: BevGrid, pose: Pose, fov_deg: float, truth: BevGrid) -> BevGrid:
    """Ego crop masked to what the camera can actually see.

    A cell is visible when its bearing lies inside the horizontal FOV and no
    wall blocks the straight line from the ego (walls themselves are visible
    as the first blocker): each ray is sampled at fixed fractions of its
    length, and a sample in a wall cell blocks it. Invisible cells are
    unknown (0.5). ``truth`` is this pose's ``bev_crop``, whose extent and
    resolution the result takes. Everything but the world transform and the
    wall lookup is cached per geometry and FOV.

    Samples that no wall can reach are skipped: ``_wall_ranges`` bounds, per
    bearing, the nearest range at which a sample can lie in a wall, and a
    ray's samples short of that range, less one sample, are clear. The rest
    are tested as before, the same points through the same lookup: the first
    ``_FIRST_SAMPLES`` on every ray, then the others on rays still clear. The
    bound and its bin and sample of margin only choose which samples to
    skip, so the mask is the one of testing every sample.
    """
    extent, resolution = truth.extent, truth.resolution
    rays = _ray_blocks(extent, resolution, fov_deg)
    blocked = np.zeros(rays.marched.size, dtype=bool)
    if rays.blocks:
        yaw = pose.rotation.yaw()
        walls = _wall_ranges(world, pose, float(rays.length.max()))
    for which, ix, iy, starts in rays.blocks:
        steps = np.diff(starts, append=ix.size)
        skip = _clear_samples(walls, rays.bearing[which] + yaw, rays.length[which], steps)
        first, left = starts + skip, steps - skip
        head = np.minimum(left, _FIRST_SAMPLES)
        ray_blocked = blocked[which]  # a view: marks land in ``blocked``
        for at, counts in ((first, head), (first + head, left - head)):
            tested = np.flatnonzero((counts > 0) & ~ray_blocked)
            if not tested.size:
                continue
            counts = counts[tested]
            ends = np.cumsum(counts)
            pos = np.arange(ends[-1]) + np.repeat(at[tested] - (ends - counts), counts)
            wx, wy = _to_world(pose, rays.points.take(ix.take(pos)), rays.points.take(iy.take(pos)))
            # Samples off the floor read unknown (0.5), which is never a wall.
            ray_blocked[tested] = np.logical_or.reduceat(world.sample(wx, wy) > 0.5, ends - counts)

    visible = rays.in_fov.copy()
    visible.flat[rays.marched[blocked]] = False
    cells = np.full(visible.shape, UNKNOWN)
    cells[visible] = truth.cells[visible]
    return BevGrid(cells, extent, resolution)


# ---------------------------------------------------------------------------
# Dataset sampling


@dataclass(frozen=True)
class GroupNode:
    node_id: int
    pose: Pose
    fov_deg: float
    bev: Optional[BevGrid] = None
    bev_obs: Optional[BevGrid] = None


@dataclass(frozen=True)
class SampleGroup:
    nodes: tuple[GroupNode, ...]


_MAX_ATTEMPTS = 500  # rejection-sampling draws per neighbor


def sample_groups(
    world: BevGrid,
    n_groups: int,
    n_max: int = 5,
    d_max: float = 2.0,
    fov_deg: float = 120.0,
    seed: int = 0,
    with_bev: bool = True,
    bev_extent: float = 6.0,
    bev_resolution: float = 6.0 / 64,
) -> list[SampleGroup]:
    """Anchor uniform on free space, neighbors uniform in the d_max disc.

    Every node gets a uniform yaw; pairwise distances are bounded by 2*d_max
    by construction. Raises RuntimeError when rejection sampling starves.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A3917]))
    groups = []
    for _ in range(n_groups):
        ax, ay = sample_free_position(world, rng)
        positions = [(ax, ay)]
        for _ in range(n_max - 1):
            for attempt in range(_MAX_ATTEMPTS):
                r = d_max * math.sqrt(rng.uniform())
                theta = rng.uniform(0.0, 2.0 * math.pi)
                x, y = ax + r * math.cos(theta), ay + r * math.sin(theta)
                if world.sample(x, y) < 0.5:
                    positions.append((x, y))
                    break
            else:
                raise RuntimeError("rejection sampling exhausted; free space too tight")
        nodes = []
        for idx, (x, y) in enumerate(positions):
            pose = Pose(Vec3(x, y, 0.0), UnitQuat.from_yaw(float(rng.uniform(-math.pi, math.pi))))
            bev = bev_obs = None
            if with_bev:
                bev = bev_crop(world, pose, bev_extent, bev_resolution)
                bev_obs = observed_grid(world, pose, fov_deg, bev)
            nodes.append(GroupNode(idx, pose, fov_deg, bev, bev_obs))
        groups.append(SampleGroup(tuple(nodes)))
    return groups


def dataset_jsonl(cfg: RunConfig, groups: list[SampleGroup]) -> str:
    """Serialize sample groups with an estimate for every directed pair.

    Estimates come from ``make_estimator(cfg)`` with the group index as tick.
    """
    estimator = make_estimator(cfg)
    lines = []
    for g_idx, group in enumerate(groups):
        nodes = []
        for node in group.nodes:
            entry = {
                "id": node.node_id,
                "pose": _pose_dict(node.pose),
                "fov_deg": node.fov_deg,
            }
            if node.bev is not None:
                entry["bev_b64"] = node.bev.to_base64()
            if node.bev_obs is not None:
                entry["bev_obs_b64"] = node.bev_obs.to_base64()
            nodes.append(entry)
        views = [Observation(n.node_id, n.pose, n.fov_deg, b"", tick=g_idx) for n in group.nodes]
        ests = [estimator(a, b).to_dict() for a, b in itertools.permutations(views, 2)]
        record = {"group": g_idx, "nodes": nodes, "estimates": ests}
        lines.append(json.dumps(record, sort_keys=True))
    return jsonl({"schema": DATASET_SCHEMA, "seed": cfg.seed}, lines)


def _pose_dict(pose: Pose) -> dict:
    return {"p": list(pose.position.as_tuple()), "q": list(pose.rotation.as_tuple())}


# ---------------------------------------------------------------------------
# Leader trajectories: ``RunConfig``'s ``trajectory`` and ``traj_*`` keys, whose
# rules (a positive period, rectangle sides of at least the corner diameter)
# ``RunConfig.validate`` enforces.


def _fig8_xy(cfg: RunConfig, t: float) -> tuple[float, float, float, float]:
    w = 2.0 * math.pi / cfg.traj_period_s
    th = w * t
    x = cfg.traj_size_x_m * math.sin(th)
    y = cfg.traj_size_y_m * math.sin(th) * math.cos(th)
    vx = cfg.traj_size_x_m * w * math.cos(th)
    vy = cfg.traj_size_y_m * w * math.cos(2.0 * th)
    return x, y, vx, vy


def _rect_xy(cfg: RunConfig, t: float) -> tuple[float, float, float, float]:
    lx, ly, r = cfg.traj_size_x_m, cfg.traj_size_y_m, cfg.traj_corner_radius_m
    straight_x, straight_y = lx - 2 * r, ly - 2 * r
    arc = math.pi * r / 2
    perimeter = 2 * straight_x + 2 * straight_y + 2 * math.pi * r
    speed = perimeter / cfg.traj_period_s
    s = (speed * t) % perimeter
    # Centered rectangle, counter-clockwise from the bottom-left straight. Each side is a straight
    # (start point, unit direction, length), then a quarter arc of radius r (centre, start angle).
    sides = (
        (-straight_x / 2, -ly / 2, 1.0, 0.0, straight_x, straight_x / 2, -straight_y / 2, -math.pi / 2),
        (lx / 2, -straight_y / 2, 0.0, 1.0, straight_y, straight_x / 2, straight_y / 2, 0.0),
        (straight_x / 2, ly / 2, -1.0, 0.0, straight_x, -straight_x / 2, straight_y / 2, math.pi / 2),
        (-lx / 2, straight_y / 2, 0.0, -1.0, straight_y, -straight_x / 2, -straight_y / 2, math.pi),
    )
    for x0, y0, dx, dy, length, cx, cy, phi0 in sides:
        if s <= length:
            return x0 + dx * s, y0 + dy * s, dx * speed, dy * speed
        s -= length
        if s <= arc:
            break
        s -= arc
    else:
        s = arc  # float residue past the last arc's end
    # A zero-radius corner is its corner point.
    phi = phi0 + s / r if r else phi0
    return cx + r * math.cos(phi), cy + r * math.sin(phi), -math.sin(phi) * speed, math.cos(phi) * speed


def leader_pose(cfg: RunConfig, t: float) -> Pose:
    """Reference pose of ``cfg.trajectory`` at time t; heading follows the velocity unless static."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if cfg.trajectory == "rect_dynamic":
        x, y, vx, vy = _rect_xy(cfg, t)
        yaw = math.atan2(vy, vx)
    else:
        x, y, vx, vy = _fig8_xy(cfg, t)
        if cfg.trajectory == "fig8_static":
            _, _, vx0, vy0 = _fig8_xy(cfg, 0.0)
            yaw = math.atan2(vy0, vx0)
        else:
            yaw = math.atan2(vy, vx)
    return Pose(Vec3(x, y, 0.0), UnitQuat.from_yaw(yaw))


# ---------------------------------------------------------------------------
# Formation run


def profile_from_config(cfg: RunConfig) -> NoiseProfile:
    return NoiseProfile(
        median_pos_visible=cfg.median_pos_visible_m,
        median_pos_invisible=cfg.median_pos_invisible_m,
        median_rot_visible=cfg.median_rot_visible_deg,
        median_rot_invisible=cfg.median_rot_invisible_deg,
        miscalibration=cfg.miscalibration,
        sigma_jitter=cfg.sigma_jitter,
    )


def network_from_config(cfg: RunConfig, node: Callable[..., BroadcastNode] = BroadcastNode) -> Simulator:
    """The config's TDMA network: medium, simulator and one
    ``node(node_id, payload_bytes=..., roster=..., scheduler=...)`` per id."""
    medium = Medium(cfg.bitrate_bps, cfg.base_loss, cfg.loss_slope, cfg.propagation_s)
    sim = Simulator(medium, seed=cfg.seed, superframe_hz=cfg.superframe_hz)
    roster = tuple(range(cfg.n_nodes))
    for node_id in roster:
        scheduler = SchedulerState(
            node_id, cfg.n_slots, max_divisor=cfg.max_divisor,
            high_watermark=cfg.high_watermark, low_watermark=cfg.low_watermark, loss_window=cfg.loss_window_s,
        )
        sim.add_node(node(node_id, payload_bytes=cfg.payload_bytes, roster=roster, scheduler=scheduler))
    return sim


def make_estimator(cfg: RunConfig) -> Callable[[Observation, Observation], PoseEstimate]:
    """Estimator closure keyed by (seed, observer tick ``obs_i.tick``, src, dst)."""
    if cfg.estimator == "oracle":

        def run_oracle(obs_i, obs_j):
            return estimate_oracle(obs_i, obs_j, sigma_floor=cfg.sigma_floor)

        return run_oracle
    profile = profile_from_config(cfg)

    def run_synthetic(obs_i, obs_j):
        z = edge_rng(cfg.seed, obs_i.tick, obs_i.node_id, obs_j.node_id)
        return estimate(obs_i, obs_j, profile, z)

    return run_synthetic


def follower_offsets(cfg: RunConfig) -> dict[int, Pose]:
    """Desired pose of the leader in each follower's ego frame.

    Follower 1 sits to the leader's left (it sees the leader at -y, its
    right), follower 2 mirrored; extra followers alternate further out.
    """
    offsets = {}
    for idx in range(1, cfg.n_nodes):
        side = -1.0 if idx % 2 == 1 else 1.0
        lane = (idx + 1) // 2
        offsets[idx] = Pose(
            Vec3(0.0, side * cfg.follower_offset_m * lane, 0.0), UnitQuat.identity()
        )
    return offsets


class RobotNode(BroadcastNode):
    """Formation participant: broadcasts its embedding, estimates peers. Its
    config and start pose come from ``run``; the rest is ``BroadcastNode``'s."""

    def __init__(self, node_id: int, run: "FormationRun", **wiring):
        super().__init__(node_id, **wiring)
        self.run = run
        self.pose = run.initial_pose(node_id)
        self.cmd = Command(Vec3.zero(), 0.0, gated=True)
        self.pd_state: Optional[PdState] = None
        self.inbox: dict[int, Observation] = {}  # freshest observation per peer

    def payload_for(self, superframe_idx: int) -> bytes:
        obs = Observation(self.node_id, self.pose, self.run.cfg.fov_deg, b"", superframe_idx)
        return obs.to_payload(self._payload)

    def handle_frame(self, sim: Simulator, frame, now: float) -> None:
        # One sender's frames arrive in order, so the latest is the freshest.
        self.inbox[frame.node_id] = Observation.from_payload(frame.payload)

    def fresh_estimates(self, tick: int) -> list[tuple[PoseEstimate, int]]:
        """Estimates of the peers whose latest frame is at most ``run.max_age`` superframes old."""
        own = Observation(self.node_id, self.pose, self.run.cfg.fov_deg, self._payload, tick)
        return [
            (self.run.estimator(own, obs), obs.tick)
            for _, obs in sorted(self.inbox.items())
            if tick - obs.tick <= self.run.max_age
        ]

    def on_tick(self, sim: Simulator, superframe_idx: int, now: float) -> None:
        self.run.robot_tick(self, superframe_idx, now)


class FormationRun:
    """One leader plus followers on the simulated network."""

    LEADER = 0

    def __init__(self, cfg: RunConfig):
        if cfg.payload_bytes < Observation.HEADER.size:
            raise ConfigError(
                f"payload_bytes {cfg.payload_bytes} cannot hold the "
                f"{Observation.HEADER.size}-byte embedding header of a formation run"
            )
        # A frame is fresh for max_age superframes and read at the first tick after it
        # lands. If that is always too late, every follower stays gated (rounded toward running).
        self.max_age = math.floor(cfg.stale_timeout_s * cfg.superframe_hz + 1e-9)
        airtime = (cfg.payload_bytes + HEADER_LEN + CRC_LEN) * 8.0 / cfg.bitrate_bps
        lag = math.ceil((airtime + cfg.propagation_s) * cfg.superframe_hz - 1e-9)
        if lag > self.max_age:
            raise ConfigError(
                f"no leader frame can arrive fresh: payload_bytes at bitrate_bps plus propagation_s "
                f"is read {lag} superframes (superframe_hz) after sending, past stale_timeout_s"
            )
        self.cfg = cfg
        self.estimator = make_estimator(cfg)
        self.offsets = follower_offsets(cfg)
        self.dt = 1.0 / cfg.superframe_hz

    def initial_pose(self, node_id: int) -> Pose:
        leader = leader_pose(self.cfg, 0.0)
        if node_id == self.LEADER:
            return leader
        # Start exactly in formation: follower = leader composed with the
        # inverse offset, so relative_pose(follower, leader) = offset.
        return compose(leader, inverse(self.offsets[node_id]))

    def robot_tick(self, node: RobotNode, tick: int, now: float) -> None:
        if node.node_id == self.LEADER:
            prev = node.pose
            node.pose = leader_pose(self.cfg, now)
            vel_world = (node.pose.position - prev.position) * (1.0 / self.dt)
            v_body = node.pose.rotation.rotate_inverse(vel_world) if tick else Vec3.zero()
            node.cmd = Command(v_body, 0.0, gated=False)
        else:
            node.pose = _integrate(node.pose, node.cmd, self.dt)
        estimates = node.fresh_estimates(tick)
        if node.node_id != self.LEADER:
            leader_est = next((e for e, _ in estimates if e.dst == self.LEADER), None)
            if leader_est is None:
                node.cmd = Command(Vec3.zero(), 0.0, gated=True)
            else:
                node.cmd, node.pd_state = formation_cmd(
                    leader_est, self.offsets[node.node_id], node.pd_state, self.cfg,
                    attenuate=self.cfg.gain_attenuation,
                )
        self.sink(
            {
                "t": now,
                "node_id": node.node_id,
                "pose_truth": _pose_dict(node.pose),
                "estimates": [
                    e.to_dict() | {"peer_tick": peer_tick} for e, peer_tick in estimates
                ],
                "cmd": {"v": list(node.cmd.v.as_tuple()), "w": node.cmd.w},
                "gated": node.cmd.gated,
            }
        )

    def run(self, sink: Callable[[dict], object]) -> list[SimEvent]:
        """A fresh run from the start poses, handing each tick record to ``sink`` as it is
        made; returns the network events. A second call repeats the first."""
        self.sink = sink
        sim = network_from_config(self.cfg, lambda node_id, **wiring: RobotNode(node_id, self, **wiring))
        return sim.run(self.cfg.duration_s)


def _integrate(pose: Pose, cmd: Command, dt: float) -> Pose:
    # First-order kinematics: body velocity realized exactly, Euler step.
    delta_world = pose.rotation.rotate(cmd.v) * dt
    yaw = pose.rotation.yaw() + cmd.w * dt
    return Pose(pose.position + delta_world, UnitQuat.from_yaw(yaw))


def run_formation(cfg: RunConfig) -> tuple[list[dict], list[SimEvent]]:
    """Deterministic closed-loop run; returns (tick records, network events)."""
    records: list[dict] = []
    events = FormationRun(cfg).run(records.append)
    return records, events


def runlog_header(cfg: RunConfig) -> dict:
    return {"schema": RUNLOG_SCHEMA, "seed": cfg.seed, "config": cfg.to_dict()}


# A tick record's runlog line, without its newline: one encoder for every record.
runlog_line = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def runlog_jsonl(cfg: RunConfig, records: list[dict]) -> str:
    return jsonl(runlog_header(cfg), map(runlog_line, records))


def follower_error_rows(
    keys, poses: np.ndarray, offsets: dict[int, Pose]
) -> tuple[list, list[int], np.ndarray, np.ndarray]:
    """The follower tracking table of a run's pose rows: its keys and rows, with their errors.

    ``keys[k]`` is the (time, node id) of row k of ``poses``, an (n, 7) array
    of position xyz and unit quaternion wxyz, as a run writes them. The table
    keeps the last row of each key, in key order, and gives each its position
    (m) and rotation (deg) tracking error. A follower row compares the true
    leader pose of the same time, in the follower's frame, with the
    follower's offset. Rows of the leader or any node without an offset, and
    follower rows whose time has no leader row, are NaN.
    """
    row_at = {key: k for k, key in enumerate(keys)}
    keys = sorted(row_at)
    rows = [row_at[key] for key in keys]
    p, q = poses[rows, :3], poses[rows, 3:]
    leader_at = {t: k for k, (t, node) in enumerate(keys) if node == FormationRun.LEADER}
    scored = [k for k, (t, node) in enumerate(keys) if node in offsets and t in leader_at]
    lead = [leader_at[keys[k][0]] for k in scored]
    by_node = {node: (o.position.as_tuple(), o.rotation.as_tuple()) for node, o in offsets.items()}
    p_o = np.array([by_node[keys[k][1]][0] for k in scored]).reshape(-1, 3)
    q_o = np.array([by_node[keys[k][1]][1] for k in scored]).reshape(-1, 4)
    rel_pos, rel_quat = relative_pose_rows(p[scored], q[scored], p[lead], q[lead])
    pos_err, rot_err = np.full(len(keys), math.nan), np.full(len(keys), math.nan)
    pos_err[scored], rot_err[scored] = norm_rows(rel_pos - p_o), quat_angle_deg_rows(rel_quat, q_o)
    return keys, rows, pos_err, rot_err


def tracking_errors(
    records: list[dict], offsets: dict[int, Pose], skip_s: float = 0.0
) -> dict[int, dict[str, float]]:
    """Per-follower tracking statistics (``tracking_stats``) of a run's tick records."""
    keys = [(rec["t"], rec["node_id"]) for rec in records]
    poses = [rec["pose_truth"]["p"] + rec["pose_truth"]["q"] for rec in records]
    return tracking_stats(keys, np.array(poses, dtype=float).reshape(-1, 7), offsets, skip_s)


def tracking_stats(
    keys: list[tuple[float, int]], poses: np.ndarray, offsets: dict[int, Pose], skip_s: float = 0.0
) -> dict[int, dict[str, float]]:
    """Per-follower tracking statistics from a run's (time, node id) keys and pose rows.

    ``keys`` and ``poses`` are as ``follower_error_rows`` reads them, and it
    keeps the last row of each key. Position error is the distance between
    the true relative leader pose and the reference offset; rotation error is
    their geodesic yaw gap. ``Vel`` is the mean realized speed.
    """
    keys, table, pos_err, rot_err = follower_error_rows(keys, poses, offsets)
    times = sorted({t for t, _ in keys})
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    p = poses[table, :3]
    t_row = np.array([t for t, _ in keys], dtype=float)
    node_row = np.array([node for _, node in keys], dtype=np.int64)
    out: dict[int, dict[str, float]] = {}
    for follower in offsets:
        rows = np.flatnonzero((node_row == follower) & ~np.isnan(pos_err))  # paired, in time order
        speeds = norm_rows(np.diff(p[rows], axis=0))
        f = rows[t_row[rows] >= skip_s]
        out[follower] = {
            "mean_abs_pos_m": float(np.mean(pos_err[f])) if len(f) else math.nan,
            "median_pos_m": float(np.median(pos_err[f])) if len(f) else math.nan,
            "mean_abs_rot_deg": float(np.mean(rot_err[f])) if len(f) else math.nan,
            "median_rot_deg": float(np.median(rot_err[f])) if len(f) else math.nan,
            "mean_vel_mps": float(np.mean(speeds) / dt) if len(speeds) else math.nan,
        }
    return out


# ---------------------------------------------------------------------------
# Keyframe homing


@dataclass
class HomingResult:
    """A teach-and-replay run.

    ``keyframes`` holds the observation recorded at each keyframe, the first
    at tick 0. ``arrival_errors`` is the true distance to each keyframe when
    its arrival was declared, and ``cross_track`` the distance from the taught
    path after each replay tick. ``completed`` is whether the last keyframe
    was reached.
    """

    keyframes: list[Observation]
    arrival_errors: list[float]
    cross_track: list[float]
    completed: bool


_REPLAY_FACTOR = 3.0  # replay ticks allowed per taught tick


def run_homing(cfg: RunConfig) -> HomingResult:
    """Teach a trajectory as keyframes, then replay it by keyframe following."""
    estimator = make_estimator(cfg)
    dt = 1.0 / cfg.superframe_hz
    n_teach = math.floor(cfg.duration_s * cfg.superframe_hz + 1e-9)

    # Teach: the robot is driven along the reference; an observation becomes a
    # keyframe when distance or uncertainty to the last keyframe crosses its threshold.
    keyframes: list[Observation] = []
    path = []
    for k in range(n_teach):
        obs = Observation(0, leader_pose(cfg, k * dt), cfg.fov_deg, b"", tick=k)
        path.append((obs.pose_truth.position.x, obs.pose_truth.position.y))
        if not keyframes or kf_record_step(estimator(obs, keyframes[-1]), cfg):
            keyframes.append(obs)

    # Replay from the taught start until kf_follow_step moves past the last keyframe.
    pose = leader_pose(cfg, 0.0)
    state: Optional[PdState] = None
    kf_index = 0
    arrivals: list[float] = []
    cross: list[float] = []
    path_xy = np.array(path)
    for k in range(int(_REPLAY_FACTOR * n_teach)):
        tick = n_teach + k  # distinct substream domain from the teach phase
        target = keyframes[kf_index]
        est = estimator(Observation(0, pose, cfg.fov_deg, b"", tick=tick), target)
        cmd, next_index, state = kf_follow_step(est, kf_index, len(keyframes), state, cfg)
        if next_index != kf_index:
            arrivals.append((pose.position - target.pose_truth.position).norm())
            kf_index = next_index
            if kf_index == len(keyframes):
                break
        pose = _integrate(pose, cmd, dt)
        gap = np.hypot(path_xy[:, 0] - pose.position.x, path_xy[:, 1] - pose.position.y)
        cross.append(float(np.min(gap)))
    return HomingResult(keyframes, arrivals, cross, 0 < kf_index == len(keyframes))
