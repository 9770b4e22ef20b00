"""Synthetic worlds, leader trajectories, dataset sampling and the experiment loop.

The formation run wires everything together: robots broadcast embeddings
over the simulated TDMA network, and each robot reads a peer only from the
payloads of the frames it received. It estimates relative poses for every
peer whose embedding arrived recently enough, and followers close a PD loop
on the leader estimate. The leader teleports along its reference trajectory.
``FormationRun`` refuses a config whose frames cannot carry the embedding
header or never arrive fresh. ``follower_error_rows`` is the one follower
tracking error. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import ndimage

from .bev import BevGrid
from .config import ConfigError, RunConfig
from .control import Command, Gate, PdGains, PdState, formation_cmd, kf_follow_step, kf_record_step
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


# ---------------------------------------------------------------------------
# Worlds


@dataclass(frozen=True)
class World:
    """Planar floor: occupancy cells (1 = wall) with axis 0 = world x."""

    occupancy: np.ndarray
    extent: float
    resolution: float
    seed: int

    def free_mask(self) -> np.ndarray:
        return self.occupancy < 0.5

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        n = self.occupancy.shape[0]
        i = int(math.floor((x + self.extent / 2.0) / self.resolution))
        j = int(math.floor((y + self.extent / 2.0) / self.resolution))
        return min(max(i, 0), n - 1), min(max(j, 0), n - 1)

    def occupied_at(self, x: float, y: float) -> float:
        """Occupancy at a world point; outside the floor counts as unknown."""
        half = self.extent / 2.0
        if not (-half <= x < half and -half <= y < half):
            return 0.5
        i, j = self.cell_of(x, y)
        return float(self.occupancy[i, j])


_WALL = 2  # wall thickness in cells
_DOOR = 8  # door width in cells
_MIN_ROOM = 24  # smallest room side in cells


def gen_world(
    seed: int,
    extent: float = 24.0,
    n_rooms: int = 4,
    resolution: float = 6.0 / 64,
) -> World:
    """Axis-aligned rooms from recursive splits, one door per internal wall.

    Free space is guaranteed 4-connected (checked by flood fill).
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

    world = World(occupancy=occ, extent=extent, resolution=resolution, seed=seed)
    free = world.free_mask()
    _, n_components = ndimage.label(free, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    if n_components != 1:
        raise RuntimeError("world generation produced disconnected free space")
    return world


def sample_free_position(world: World, rng: np.random.Generator) -> tuple[float, float]:
    free_idx = np.flatnonzero(world.free_mask().ravel())
    flat = int(rng.choice(free_idx))
    n = world.occupancy.shape[0]
    i, j = divmod(flat, n)
    x = (i + rng.uniform()) * world.resolution - world.extent / 2.0
    y = (j + rng.uniform()) * world.resolution - world.extent / 2.0
    return x, y


# ---------------------------------------------------------------------------
# BEV crops and visibility


def _crop_points(pose: Pose, extent: float, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of crop cell centers for an ego-aligned grid."""
    n = int(round(extent / resolution))
    coords = (np.arange(n) + 0.5) * resolution - extent / 2.0
    ex, ey = np.meshgrid(coords, coords, indexing="ij")  # ego x (forward), ego y (left)
    yaw = pose.rotation.yaw()
    c, s = math.cos(yaw), math.sin(yaw)
    wx = pose.position.x + c * ex - s * ey
    wy = pose.position.y + s * ex + c * ey
    return wx, wy


def _lookup(world: World, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    half = world.extent / 2.0
    n = world.occupancy.shape[0]
    i = np.floor((wx + half) / world.resolution).astype(int)
    j = np.floor((wy + half) / world.resolution).astype(int)
    inside = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    out = np.full(wx.shape, 0.5)
    out[inside] = world.occupancy[i[inside], j[inside]]
    return out


def bev_crop(
    world: World, pose: Pose, extent: float = 6.0, resolution: float = 6.0 / 64
) -> BevGrid:
    """Ground-truth ego crop: rotated so the ego faces the +x grid axis."""
    wx, wy = _crop_points(pose, extent, resolution)
    return BevGrid(_lookup(world, wx, wy), extent, resolution)


def observed_grid(
    world: World,
    pose: Pose,
    fov_deg: float,
    extent: float = 6.0,
    resolution: float = 6.0 / 64,
    ray_steps: int = 96,
    truth: Optional[BevGrid] = None,
) -> BevGrid:
    """Ego crop masked to what the camera can actually see.

    A cell is visible when its bearing lies inside the horizontal FOV and no
    wall blocks the straight line from the ego (walls themselves are visible
    as the first blocker). Invisible cells are unknown (0.5). ``truth`` is
    this pose's ``bev_crop``, built here when the caller does not pass it.
    """
    n = int(round(extent / resolution))
    coords = (np.arange(n) + 0.5) * resolution - extent / 2.0
    ex, ey = np.meshgrid(coords, coords, indexing="ij")
    if truth is None:
        truth = bev_crop(world, pose, extent, resolution)

    bearing = np.degrees(np.arctan2(ey, ex))
    in_fov = np.abs(bearing) <= fov_deg / 2.0
    # Only cells inside the FOV can be visible, so only their rays are marched.
    ex, ey = ex[in_fov], ey[in_fov]

    dist = np.hypot(ex, ey)
    # Sample each ray from the ego to just short of the cell itself.
    alphas = (np.arange(ray_steps) + 0.5) / ray_steps
    cutoff = 1.0 - resolution / np.maximum(dist, resolution)
    yaw = pose.rotation.yaw()
    c, s = math.cos(yaw), math.sin(yaw)
    px = ex[:, None] * alphas
    py = ey[:, None] * alphas
    wx = pose.position.x + c * px - s * py
    wy = pose.position.y + s * px + c * py
    # Wall cells padded by one never-blocking cell: samples off the floor
    # clip onto the pad, just as unknown (0.5) is never a wall.
    n_world = world.occupancy.shape[0]
    walls = np.zeros((n_world + 2, n_world + 2), dtype=bool)
    walls[1:-1, 1:-1] = world.occupancy > 0.5
    half = world.extent / 2.0
    i = np.clip(np.floor((wx + half) / world.resolution), -1, n_world).astype(np.intp) + 1
    j = np.clip(np.floor((wy + half) / world.resolution), -1, n_world).astype(np.intp) + 1
    occ = walls.ravel()[i * (n_world + 2) + j]
    blocking = occ & (alphas[None, :] < cutoff[:, None])

    visible = np.zeros((n, n), dtype=bool)
    visible[in_fov] = ~blocking.any(axis=-1)
    cells = np.full((n, n), 0.5)
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

    def directed_pairs(self) -> list[tuple[GroupNode, GroupNode]]:
        return [(a, b) for a in self.nodes for b in self.nodes if a.node_id != b.node_id]


def sample_groups(
    world: World,
    n_groups: int,
    n_max: int = 5,
    d_max: float = 2.0,
    fov_deg: float = 120.0,
    seed: int = 0,
    with_bev: bool = True,
    bev_extent: float = 6.0,
    bev_resolution: float = 6.0 / 64,
    max_attempts: int = 500,
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
            for attempt in range(max_attempts):
                r = d_max * math.sqrt(rng.uniform())
                theta = rng.uniform(0.0, 2.0 * math.pi)
                x, y = ax + r * math.cos(theta), ay + r * math.sin(theta)
                if world.occupied_at(x, y) < 0.5:
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
                bev_obs = observed_grid(world, pose, fov_deg, bev_extent, bev_resolution, truth=bev)
            nodes.append(GroupNode(idx, pose, fov_deg, bev, bev_obs))
        groups.append(SampleGroup(tuple(nodes)))
    return groups


def dataset_jsonl(cfg: RunConfig, groups: list[SampleGroup]) -> str:
    """Serialize sample groups with an estimate for every directed pair.

    Estimates come from ``make_estimator(cfg)`` with the group index as tick.
    """
    estimator = make_estimator(cfg)
    lines = [json.dumps({"schema": DATASET_SCHEMA, "seed": cfg.seed}, sort_keys=True)]
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
        ests = []
        for a, b in group.directed_pairs():
            obs_a = Observation(a.node_id, a.pose, a.fov_deg, b"", tick=g_idx)
            obs_b = Observation(b.node_id, b.pose, b.fov_deg, b"", tick=g_idx)
            ests.append(estimator(obs_a, obs_b, g_idx).to_dict())
        record = {"group": g_idx, "nodes": nodes, "estimates": ests}
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _pose_dict(pose: Pose) -> dict:
    return {"p": list(pose.position.as_tuple()), "q": list(pose.rotation.as_tuple())}


# ---------------------------------------------------------------------------
# Leader trajectories


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str  # fig8_dynamic | fig8_static | rect_dynamic
    size_x: float = 2.0
    size_y: float = 1.0
    period: float = 60.0
    corner_radius: float = 0.5

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.kind not in ("fig8_dynamic", "fig8_static", "rect_dynamic"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")


def _fig8_xy(spec: TrajectorySpec, t: float) -> tuple[float, float, float, float]:
    w = 2.0 * math.pi / spec.period
    th = w * t
    x = spec.size_x * math.sin(th)
    y = spec.size_y * math.sin(th) * math.cos(th)
    vx = spec.size_x * w * math.cos(th)
    vy = spec.size_y * w * math.cos(2.0 * th)
    return x, y, vx, vy


def _rect_xy(spec: TrajectorySpec, t: float) -> tuple[float, float, float, float]:
    lx, ly, r = spec.size_x, spec.size_y, spec.corner_radius
    if lx < 2 * r or ly < 2 * r:
        raise ValueError("rectangle sides must exceed the corner diameter")
    straight_x, straight_y = lx - 2 * r, ly - 2 * r
    perimeter = 2 * straight_x + 2 * straight_y + 2 * math.pi * r
    speed = perimeter / spec.period
    s = (speed * t) % perimeter
    # Centered rectangle, counter-clockwise from the bottom-left straight.
    segs = [
        (straight_x, lambda u: (-straight_x / 2 + u, -ly / 2, 1.0, 0.0)),
        (
            math.pi * r / 2,
            lambda u: _arc(straight_x / 2, -straight_y / 2, r, -math.pi / 2, u / r),
        ),
        (straight_y, lambda u: (lx / 2, -straight_y / 2 + u, 0.0, 1.0)),
        (
            math.pi * r / 2,
            lambda u: _arc(straight_x / 2, straight_y / 2, r, 0.0, u / r),
        ),
        (straight_x, lambda u: (straight_x / 2 - u, ly / 2, -1.0, 0.0)),
        (
            math.pi * r / 2,
            lambda u: _arc(-straight_x / 2, straight_y / 2, r, math.pi / 2, u / r),
        ),
        (straight_y, lambda u: (-lx / 2, straight_y / 2 - u, 0.0, -1.0)),
        (
            math.pi * r / 2,
            lambda u: _arc(-straight_x / 2, -straight_y / 2, r, math.pi, u / r),
        ),
    ]
    for i, (length, fn) in enumerate(segs):
        if s <= length or i == len(segs) - 1:
            x, y, tx, ty = fn(min(s, length))
            return x, y, tx * speed, ty * speed
        s -= length
    raise AssertionError("unreachable")


def _arc(cx: float, cy: float, r: float, phi0: float, dphi: float):
    phi = phi0 + dphi
    x = cx + r * math.cos(phi)
    y = cy + r * math.sin(phi)
    return x, y, -math.sin(phi), math.cos(phi)


def leader_pose(spec: TrajectorySpec, t: float) -> Pose:
    """Reference pose at time t; heading follows the velocity unless static."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if spec.kind in ("fig8_dynamic", "fig8_static"):
        x, y, vx, vy = _fig8_xy(spec, t)
        if spec.kind == "fig8_static":
            _, _, vx0, vy0 = _fig8_xy(spec, 0.0)
            yaw = math.atan2(vy0, vx0)
        else:
            yaw = math.atan2(vy, vx)
    else:
        x, y, vx, vy = _rect_xy(spec, t)
        yaw = math.atan2(vy, vx)
    return Pose(Vec3(x, y, 0.0), UnitQuat.from_yaw(yaw))


def trajectory_from_config(cfg: RunConfig) -> TrajectorySpec:
    return TrajectorySpec(
        kind=cfg.trajectory,
        size_x=cfg.traj_size_x_m,
        size_y=cfg.traj_size_y_m,
        period=cfg.traj_period_s,
        corner_radius=cfg.traj_corner_radius_m,
    )


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


def gains_from_config(cfg: RunConfig) -> PdGains:
    return PdGains(
        kp_pos=cfg.kp_pos,
        kd_pos=cfg.kd_pos,
        kp_yaw=cfg.kp_yaw,
        kd_yaw=cfg.kd_yaw,
        v_max=cfg.v_max_mps,
        w_max=cfg.w_max_rps,
    )


def simulator_from_config(cfg: RunConfig) -> Simulator:
    medium = Medium(
        bitrate=cfg.bitrate_bps,
        base_loss=cfg.base_loss,
        loss_slope=cfg.loss_slope,
        propagation=cfg.propagation_s,
    )
    return Simulator(medium, seed=cfg.seed, superframe_hz=cfg.superframe_hz)


def scheduler_from_config(cfg: RunConfig, node_id: int) -> SchedulerState:
    return SchedulerState(
        node_id=node_id,
        n_slots=cfg.n_slots,
        superframe_period=1.0 / cfg.superframe_hz,
        max_divisor=cfg.max_divisor,
        high_watermark=cfg.high_watermark,
        low_watermark=cfg.low_watermark,
        loss_window=cfg.loss_window_s,
    )


def make_estimator(cfg: RunConfig) -> Callable[[Observation, Observation, int], PoseEstimate]:
    """Estimator closure keyed by (seed, receiver tick, src, dst)."""
    if cfg.estimator == "oracle":

        def run_oracle(obs_i, obs_j, tick):
            return estimate_oracle(obs_i, obs_j, sigma_floor=cfg.sigma_floor)

        return run_oracle
    profile = profile_from_config(cfg)

    def run_synthetic(obs_i, obs_j, tick):
        z = edge_rng(cfg.seed, tick, obs_i.node_id, obs_j.node_id)
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
    """Formation participant: broadcasts its embedding, estimates peers."""

    def __init__(self, node_id: int, cfg: RunConfig, run: "FormationRun"):
        super().__init__(
            node_id,
            payload_bytes=cfg.payload_bytes,
            roster=tuple(range(cfg.n_nodes)),
            scheduler=scheduler_from_config(cfg, node_id),
        )
        self.cfg = cfg
        self.run = run
        self.pose = Pose.identity()
        self.cmd = Command(Vec3.zero(), 0.0, gated=True)
        self.pd_state: Optional[PdState] = None
        self.inbox: dict[int, Observation] = {}  # freshest observation per peer

    def payload_for(self, superframe_idx: int) -> bytes:
        obs = Observation(self.node_id, self.pose, self.cfg.fov_deg, b"", superframe_idx)
        return obs.to_payload(self._payload)

    def handle_frame(self, sim: Simulator, frame, now: float) -> None:
        current = self.inbox.get(frame.node_id)
        if current is None or frame.superframe_idx >= current.tick:
            self.inbox[frame.node_id] = Observation.from_payload(frame.payload)

    def fresh_estimates(self, tick: int, now: float) -> list[tuple[PoseEstimate, int]]:
        own = Observation(self.node_id, self.pose, self.cfg.fov_deg, self._payload, tick)
        out = []
        for peer_id in sorted(self.inbox):
            obs = self.inbox[peer_id]
            age = now - obs.tick * self.scheduler.superframe_period
            if age > self.cfg.stale_timeout_s:
                continue
            out.append((self.run.estimator(own, obs, tick), obs.tick))
        return out

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
        # A frame is read at the first tick after it lands. If that tick is always
        # past the stale timeout, every follower stays gated (rounded toward running).
        airtime = (cfg.payload_bytes + HEADER_LEN + CRC_LEN) * 8.0 / cfg.bitrate_bps
        lag = math.ceil((airtime + cfg.propagation_s) * cfg.superframe_hz - 1e-9)
        if lag > cfg.stale_timeout_s * cfg.superframe_hz + 1e-9:
            raise ConfigError(
                f"no leader frame can arrive fresh: payload_bytes at bitrate_bps plus propagation_s "
                f"is read {lag} superframes (superframe_hz) after sending, past stale_timeout_s"
            )
        self.cfg = cfg
        self.spec = trajectory_from_config(cfg)
        self.gains = gains_from_config(cfg)
        self.gate = Gate(tau_p=cfg.tau_p_m, tau_q=cfg.tau_q)
        self.estimator = make_estimator(cfg)
        self.offsets = follower_offsets(cfg)
        self.records: list[dict] = []
        self.dt = 1.0 / cfg.superframe_hz

    def initial_pose(self, node_id: int) -> Pose:
        leader = leader_pose(self.spec, 0.0)
        if node_id == self.LEADER:
            return leader
        # Start exactly in formation: follower = leader composed with the
        # inverse offset, so relative_pose(follower, leader) = offset.
        return compose(leader, inverse(self.offsets[node_id]))

    def robot_tick(self, node: RobotNode, tick: int, now: float) -> None:
        if node.node_id == self.LEADER:
            prev = node.pose
            node.pose = leader_pose(self.spec, now)
            vel_world = (node.pose.position - prev.position) * (1.0 / self.dt)
            v_body = node.pose.rotation.rotate_inverse(vel_world) if tick else Vec3.zero()
            node.cmd = Command(v_body, 0.0, gated=False)
        else:
            node.pose = _integrate(node.pose, node.cmd, self.dt)
        estimates = node.fresh_estimates(tick, now)
        gated = False
        if node.node_id != self.LEADER:
            leader_est = next(
                (e for e, _ in estimates if e.dst == self.LEADER), None
            )
            if leader_est is None:
                node.cmd = Command(Vec3.zero(), 0.0, gated=True)
                gated = True
            else:
                cmd, node.pd_state = formation_cmd(
                    leader_est,
                    self.offsets[node.node_id],
                    node.pd_state,
                    self.dt,
                    self.gains,
                    self.gate,
                    attenuate=self.cfg.gain_attenuation,
                )
                node.cmd = cmd
                gated = cmd.gated
        self.records.append(
            {
                "t": now,
                "node_id": node.node_id,
                "pose_truth": _pose_dict(node.pose),
                "estimates": [
                    e.to_dict() | {"peer_tick": peer_tick} for e, peer_tick in estimates
                ],
                "cmd": {"v": list(node.cmd.v.as_tuple()), "w": node.cmd.w},
                "gated": gated,
            }
        )

    def run(self) -> tuple[list[dict], list[SimEvent]]:
        sim = simulator_from_config(self.cfg)
        for node_id in range(self.cfg.n_nodes):
            node = RobotNode(node_id, self.cfg, self)
            node.pose = self.initial_pose(node_id)
            sim.add_node(node)
        events = sim.run(self.cfg.duration_s)
        return self.records, events


def _integrate(pose: Pose, cmd: Command, dt: float) -> Pose:
    # First-order kinematics: body velocity realized exactly, Euler step.
    delta_world = pose.rotation.rotate(cmd.v) * dt
    yaw = pose.rotation.yaw() + cmd.w * dt
    return Pose(pose.position + delta_world, UnitQuat.from_yaw(yaw))


def run_formation(cfg: RunConfig) -> tuple[list[dict], list[SimEvent]]:
    """Deterministic closed-loop run; returns (tick records, network events)."""
    return FormationRun(cfg).run()


def runlog_jsonl(cfg: RunConfig, records: list[dict]) -> str:
    header = json.dumps(
        {"schema": RUNLOG_SCHEMA, "seed": cfg.seed, "config": cfg.to_dict()}, sort_keys=True
    )
    lines = [header] + [json.dumps(r, sort_keys=True) for r in records]
    return "\n".join(lines) + "\n"


def follower_error_rows(p_f, q_f, p_l, q_l, offsets: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Position (m) and rotation (deg) tracking error per follower row.

    Compares the true leader pose (``p_l``, ``q_l``) in the follower's frame
    (``p_f``, ``q_f``, unit quaternion rows) with the row's reference offset.
    """
    p_o = np.array([o.position.as_tuple() for o in offsets]).reshape(-1, 3)
    q_o = np.array([o.rotation.as_tuple() for o in offsets]).reshape(-1, 4)
    rel_pos, rel_quat = relative_pose_rows(p_f, q_f, p_l, q_l)
    return norm_rows(rel_pos - p_o), quat_angle_deg_rows(rel_quat, q_o)


def tracking_errors(
    records: list[dict], offsets: dict[int, Pose], skip_s: float = 0.0
) -> dict[int, dict[str, float]]:
    """Per-follower tracking statistics from a run log.

    Position error is the distance between the true relative leader pose and
    the reference offset; rotation error is their geodesic yaw gap. ``Vel``
    is the mean realized speed. Records hold unit quaternions, as a run
    writes them; a later record of the same time and node replaces an earlier one.
    """
    row_at = {(rec["t"], rec["node_id"]): k for k, rec in enumerate(records)}
    times = sorted({t for t, _ in row_at})
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    p = np.array([rec["pose_truth"]["p"] for rec in records], dtype=float).reshape(-1, 3)
    q = np.array([rec["pose_truth"]["q"] for rec in records], dtype=float).reshape(-1, 4)
    out: dict[int, dict[str, float]] = {}
    for follower, offset in offsets.items():
        both = [t for t in times if (t, follower) in row_at and (t, FormationRun.LEADER) in row_at]
        speeds = norm_rows(np.diff(p[[row_at[t, follower] for t in both]], axis=0))
        f = [row_at[t, follower] for t in both if t >= skip_s]
        lead = [row_at[t, FormationRun.LEADER] for t in both if t >= skip_s]
        pos_errs, rot_errs = follower_error_rows(p[f], q[f], p[lead], q[lead], [offset] * len(f))
        out[follower] = {
            "mean_abs_pos_m": float(np.mean(pos_errs)) if f else math.nan,
            "median_pos_m": float(np.median(pos_errs)) if f else math.nan,
            "mean_abs_rot_deg": float(np.mean(rot_errs)) if f else math.nan,
            "median_rot_deg": float(np.median(rot_errs)) if f else math.nan,
            "mean_vel_mps": float(np.mean(speeds) / dt) if len(speeds) else math.nan,
        }
    return out


# ---------------------------------------------------------------------------
# Keyframe homing


@dataclass(frozen=True)
class Keyframe:
    index: int
    obs: Observation  # the observation recorded at this keyframe (with hidden truth pose)
    est_to_previous: Optional[PoseEstimate]


@dataclass
class HomingResult:
    keyframes: list[Keyframe]
    arrival_errors: list[float]  # true distance at each declared arrival
    cross_track: list[float]  # per replay tick: distance to taught path
    completed: bool


def run_homing(cfg: RunConfig, replay_factor: float = 3.0) -> HomingResult:
    """Teach a trajectory as keyframes, then replay it by keyframe following."""
    spec = trajectory_from_config(cfg)
    estimator = make_estimator(cfg)
    dt = 1.0 / cfg.superframe_hz
    n_teach = int(cfg.duration_s * cfg.superframe_hz)

    # Teach: the robot is driven along the reference; keyframes appended when
    # distance or uncertainty to the last keyframe crosses its threshold.
    keyframes: list[Keyframe] = []
    taught_path: list[Vec3] = []
    for k in range(n_teach):
        pose = leader_pose(spec, k * dt)
        taught_path.append(pose.position)
        obs = Observation(0, pose, cfg.fov_deg, b"", tick=k)
        if not keyframes:
            keyframes.append(Keyframe(0, obs, None))
            continue
        last = keyframes[-1]
        est = estimator(obs, last.obs, k)
        if kf_record_step(est, cfg.d_kf_m, cfg.sigma_kf_m):
            keyframes.append(Keyframe(len(keyframes), obs, est))

    # Replay from the taught start.
    pose = leader_pose(spec, 0.0)
    gains = gains_from_config(cfg)
    gate = Gate(tau_p=cfg.tau_p_m, tau_q=cfg.tau_q)
    state: Optional[PdState] = None
    kf_index = 0
    arrivals: list[float] = []
    cross: list[float] = []
    path_xy = np.array([(p.x, p.y) for p in taught_path])
    max_ticks = int(replay_factor * n_teach)
    completed = False
    for k in range(max_ticks):
        tick = n_teach + k  # distinct substream domain from the teach phase
        obs_now = Observation(0, pose, cfg.fov_deg, b"", tick=tick)
        target = keyframes[kf_index]
        est = estimator(obs_now, target.obs, tick)
        cmd, next_index, state = kf_follow_step(
            est, cfg.eps_reach_m, kf_index, len(keyframes), state, dt, gains, gate
        )
        if next_index != kf_index or (
            kf_index == len(keyframes) - 1 and est.p_hat.norm() < cfg.eps_reach_m
        ):
            true_dist = (pose.position - target.obs.pose_truth.position).norm()
            arrivals.append(true_dist)
            if kf_index == len(keyframes) - 1:
                completed = True
                break
            kf_index = next_index
        pose = _integrate(pose, cmd, dt)
        cross.append(
            float(
                np.min(np.hypot(path_xy[:, 0] - pose.position.x, path_xy[:, 1] - pose.position.y))
            )
        )
    return HomingResult(keyframes, arrivals, cross, completed)
