import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from covis.config import ConfigError, RunConfig
from covis.estimator import Observation, PoseEstimate, edge_rng, estimate
from covis.geometry import Pose, UnitQuat, Vec3, pos_dist, relative_pose, rot_geodesic_deg
from covis.metrics import EdgeRecord, is_invisible
from covis import scenario
from covis.bev import BevGrid, transform_grid
from covis.netsim import KIND_DELIVER
from covis.scenario import (
    FormationRun,
    RobotNode,
    bev_crop,
    dataset_jsonl,
    follower_offsets,
    gen_world,
    leader_pose,
    observed_grid,
    run_formation,
    run_homing,
    runlog_jsonl,
    sample_free_position,
    sample_groups,
    tracking_errors,
)


class TestGenWorld:
    def test_deterministic(self):
        a = gen_world(5, extent=18.0, n_rooms=4)
        b = gen_world(5, extent=18.0, n_rooms=4)
        assert np.array_equal(a.cells, b.cells)

    def test_single_room(self):
        w = gen_world(1, extent=12.0, n_rooms=1)
        interior = w.cells[2:-2, 2:-2]
        assert np.all(interior == 0.0)

    def test_free_space_connected(self):
        for seed in range(5):
            w = gen_world(seed, extent=24.0, n_rooms=6)
            four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
            _, n = ndimage.label(w.cells < 0.5, structure=four)
            assert n == 1

    def test_infeasible_extent(self):
        with pytest.raises(ValueError):
            gen_world(0, extent=8.0, n_rooms=2)

    @pytest.mark.parametrize("extent", [16.0, 14.0])
    def test_floor_spans_whole_cells(self, extent):
        # 16 m and 14 m are 170.67 and 149.33 cells of 6/64 m: the floor keeps
        # the whole cells, centred on the origin, with its outer wall on each side.
        w = gen_world(3, extent=extent, n_rooms=2)
        n = w.cells.shape[0]
        assert n == round(extent / w.resolution) and w.extent == n * w.resolution
        half, res = w.extent / 2.0, w.resolution
        for p, want in [(-half, 1.0), (half - res / 2.0, 1.0), (half, 0.5), (-half - res / 2.0, 0.5)]:
            assert w.sample(p, 0.0) == want and w.sample(0.0, p) == want, p


class TestSampleGroups:
    def test_pairwise_distance_bound(self):
        w = gen_world(2, extent=18.0, n_rooms=3)
        groups = sample_groups(w, 20, n_max=5, d_max=2.0, seed=3, with_bev=False)
        for g in groups:
            for a, b in itertools.permutations(g.nodes, 2):
                assert pos_dist(a.pose.position, b.pose.position) <= 4.0 + 1e-9

    def test_zero_radius_collapses(self):
        w = gen_world(2, extent=18.0, n_rooms=1)
        groups = sample_groups(w, 3, n_max=4, d_max=0.0, seed=4, with_bev=False)
        for g in groups:
            anchor = g.nodes[0].pose.position
            for node in g.nodes:
                assert pos_dist(anchor, node.pose.position) < 1e-9

    def test_visibility_mix(self):
        # Uniform yaws with a 120 deg FOV give roughly one third invisible
        # edges; both classes must be present.
        w = gen_world(2, extent=18.0, n_rooms=1)
        groups = sample_groups(w, 150, n_max=3, d_max=2.0, seed=5, with_bev=False)
        flags = []
        for g in groups:
            for a, b in itertools.permutations(g.nodes, 2):
                rel = relative_pose(a.pose, b.pose)
                dummy = PoseEstimate(
                    rel.position, Vec3(0.1, 0.1, 0.1), rel.rotation, 0.1, a.node_id, b.node_id
                )
                flags.append(is_invisible(EdgeRecord(rel, dummy, a.fov_deg)))
        frac = np.mean(flags)
        assert 0.0 < frac < 1.0
        assert frac == pytest.approx(1.0 / 3.0, abs=0.08)

    def test_deterministic(self):
        w = gen_world(2, extent=18.0, n_rooms=2)
        a = sample_groups(w, 3, seed=9, with_bev=False)
        b = sample_groups(w, 3, seed=9, with_bev=False)
        for ga, gb in zip(a, b):
            for na, nb in zip(ga.nodes, gb.nodes):
                assert na.pose == nb.pose

    def test_truth_crop_built_once_per_node(self, monkeypatch):
        calls = []
        crop = scenario.bev_crop
        monkeypatch.setattr(scenario, "bev_crop", lambda *a, **kw: calls.append(1) or crop(*a, **kw))
        groups = sample_groups(gen_world(0), 10)
        assert len(calls) == sum(len(g.nodes) for g in groups) == 50


class TestBevCrops:
    def test_crop_all_known_inside(self):
        w = gen_world(3, extent=24.0, n_rooms=1)
        g = bev_crop(w, Pose.identity())
        assert not np.any(g.cells == 0.5)

    def test_observed_masks_behind_walls(self):
        w = gen_world(3, extent=24.0, n_rooms=4)
        # Find a pose: center of the world looking along +x.
        pose = Pose(Vec3(0.0, 0.0, 0.0), UnitQuat.identity())
        truth = bev_crop(w, pose)
        obs = observed_grid(w, pose, 120.0, truth)
        n = obs.cells.shape[0]
        # Cells behind the ego (outside +-60 deg) are unknown.
        assert np.all(obs.cells[: n // 2 - 8, :] == 0.5)
        # Every known cell agrees with the truth crop.
        known = obs.cells != 0.5
        assert known.sum() > 0
        assert np.array_equal(obs.cells[known], truth.cells[known])

    def test_wall_blocks_sight(self):
        # Empty room with one wall band across the view: cells beyond it are
        # unknown, the wall itself visible.
        w = gen_world(0, extent=12.0, n_rooms=1)
        occ = w.cells.copy()
        n = occ.shape[0]
        mid = n // 2
        occ[mid + 10 : mid + 12, :] = 1.0
        w2 = BevGrid(occ, w.extent, w.resolution)
        obs = observed_grid(w2, Pose.identity(), 120.0, bev_crop(w2, Pose.identity()))
        m = obs.cells.shape[0] // 2
        assert np.all(obs.cells[m + 14 :, m] == 0.5)  # beyond the wall
        assert obs.cells[m + 10, m] == 1.0  # the wall is seen
        assert obs.cells[m + 5, m] == 0.0  # free space before it


def _lookup(world, wx, wy):
    """The original masked gather of grid cells; off the grid reads 0.5."""
    half = world.extent / 2.0
    n = world.cells.shape[0]
    i = np.floor((wx + half) / world.resolution).astype(int)
    j = np.floor((wy + half) / world.resolution).astype(int)
    inside = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    out = np.full(wx.shape, 0.5)
    out[inside] = world.cells[i[inside], j[inside]]
    return out


def _occupied_at_reference(world, x, y):
    """The original scalar point query: a bounds test, then a clamped cell."""
    half = world.extent / 2.0
    if not (-half <= x < half and -half <= y < half):
        return 0.5
    n = world.cells.shape[0]
    i = int(math.floor((x + world.extent / 2.0) / world.resolution))
    j = int(math.floor((y + world.extent / 2.0) / world.resolution))
    return float(world.cells[min(max(i, 0), n - 1), min(max(j, 0), n - 1)])


class TestSampleCells:
    """BevGrid.sample reads what the original masked gather and point query read."""

    @staticmethod
    def _edge_coords(world, rng):
        """Both grid edges, the last float below +extent/2, far outside, cell
        boundaries and random points around the grid."""
        half = world.extent / 2.0
        n = world.cells.shape[0]
        edges = [-half, np.nextafter(-half, -np.inf), np.nextafter(half, 0.0), half, -1e6, 1e6]
        bounds = np.arange(n + 1) * world.resolution - half
        return np.concatenate([edges, bounds, rng.uniform(-half - 1.0, half + 1.0, size=40)])

    @pytest.mark.parametrize(
        "world",
        [
            gen_world(0),  # 256 x 256 cells, 24 m
            gen_world(7, extent=14.0, n_rooms=2),
            BevGrid(np.random.default_rng(1).uniform(size=(64, 64)), 6.0, 6.0 / 64),  # a BEV grid
            BevGrid(np.random.default_rng(2).uniform(size=(32, 32)), 4.0, 0.125),
        ],
        ids=["world24", "world14", "bev64", "bev32"],
    )
    def test_matches_masked_gather(self, world):
        rng = np.random.default_rng(world.cells.shape[0])
        coords = self._edge_coords(world, rng)
        x, y = np.meshgrid(coords, coords, indexing="ij")
        want = _lookup(world, x, y)
        got = world.sample(x, y)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        # The visibility rays' wall test: off the grid (0.5) is never a wall.
        assert np.array_equal(got > 0.5, want > 0.5)
        flat = world.sample(x[:, 0], y[:, 0])
        assert flat.tobytes() == want[:, 0].tobytes()

    @pytest.mark.parametrize("seed, extent", [(0, 24.0), (7, 14.0)])
    def test_occupied_at_decides_like_the_scalar_query(self, seed, extent):
        world = gen_world(seed, extent=extent, n_rooms=2)
        coords = self._edge_coords(world, np.random.default_rng(seed))
        for x in coords:
            for y in coords[::3]:
                assert (world.sample(x, y) < 0.5) == (_occupied_at_reference(world, x, y) < 0.5)

    def test_transform_grid_matches_masked_gather(self):
        rng = np.random.default_rng(3)
        grid = BevGrid(rng.uniform(size=(64, 64)))
        for _ in range(20):
            tx, ty = rng.uniform(-4.0, 4.0, size=2)
            yaw = rng.uniform(-math.pi, math.pi)
            got = transform_grid(grid, Pose(Vec3(tx, ty, 0.0), UnitQuat.from_yaw(yaw)))
            coords = (np.arange(64) + 0.5) * grid.resolution - grid.extent / 2.0
            xs, ys = np.meshgrid(coords, coords, indexing="ij")
            c, s = math.cos(yaw), math.sin(yaw)
            dx, dy = xs - tx, ys - ty
            want = _lookup(grid, c * dx + s * dy, -s * dx + c * dy)
            assert got.cells.tobytes() == want.tobytes()


def _observed_grid_reference(world, pose, fov_deg, extent=6.0, resolution=6.0 / 64, ray_steps=96):
    """The original ray march: every cell's ray, then the FOV mask."""
    n = int(round(extent / resolution))
    coords = (np.arange(n) + 0.5) * resolution - extent / 2.0
    ex, ey = np.meshgrid(coords, coords, indexing="ij")
    truth = bev_crop(world, pose, extent, resolution).cells

    bearing = np.degrees(np.arctan2(ey, ex))
    in_fov = np.abs(bearing) <= fov_deg / 2.0

    dist = np.hypot(ex, ey)
    alphas = (np.arange(ray_steps) + 0.5) / ray_steps
    cutoff = 1.0 - resolution / np.maximum(dist, resolution)
    yaw = pose.rotation.yaw()
    c, s = math.cos(yaw), math.sin(yaw)
    px = ex[..., None] * alphas
    py = ey[..., None] * alphas
    wx = pose.position.x + c * px - s * py
    wy = pose.position.y + s * px + c * py
    occ = _lookup(world, wx, wy) > 0.5
    blocking = occ & (alphas[None, None, :] < cutoff[..., None])
    clear = ~blocking.any(axis=-1)

    cells = np.full((n, n), 0.5)
    visible = in_fov & clear
    cells[visible] = truth[visible]
    return cells


class TestObservedGridReference:
    """observed_grid returns byte-identical cells to the original ray march."""

    @pytest.mark.parametrize(
        "world_seed, extent, n_rooms", [(0, 24.0, 4), (7, 14.0, 2), (11, 18.0, 6)]
    )
    def test_matches_reference_on_random_poses(self, world_seed, extent, n_rooms):
        world = gen_world(world_seed, extent=extent, n_rooms=n_rooms)
        rng = np.random.default_rng(world_seed)
        half = world.extent / 2.0
        for fov in (30.0, 90.0, 120.0, 180.0):
            for k in range(17):
                if k % 3 == 0:  # anywhere on the floor, walls included
                    x, y = rng.uniform(-half, half, size=2)
                elif k % 3 == 1:  # within 3 m of the world edge, either side of it
                    x = rng.uniform(-half, half)
                    y = rng.choice([-1.0, 1.0]) * rng.uniform(half - 3.0, half + 3.0)
                    if k % 2:
                        x, y = y, x
                else:  # free space
                    x, y = sample_free_position(world, rng)
                pose = Pose(Vec3(x, y, 0.0), UnitQuat.from_yaw(rng.uniform(-math.pi, math.pi)))
                grid = (4.0, 0.125) if k % 4 == 0 else (6.0, 6.0 / 64)
                got = observed_grid(world, pose, fov, bev_crop(world, pose, *grid)).cells
                want = _observed_grid_reference(world, pose, fov, *grid)
                assert got.tobytes() == want.tobytes(), (fov, x, y, grid)


class TestObservedGridEdges:
    """observed_grid matches the original ray march at the edges of its geometry."""

    WORLD = gen_world(0)  # 256 x 256 cells, 24 m
    POSES = (
        Pose.identity(),
        Pose(Vec3(3.1, -2.2, 0.0), UnitQuat.from_yaw(2.3)),
        Pose(Vec3(-11.5, 10.9, 0.0), UnitQuat.from_yaw(-0.7)),  # near the world's corner
    )

    def _check(self, fov, extent, resolution, pose):
        got = observed_grid(self.WORLD, pose, fov, bev_crop(self.WORLD, pose, extent, resolution)).cells
        want = _observed_grid_reference(self.WORLD, pose, fov, extent, resolution)
        assert got.tobytes() == want.tobytes(), (fov, extent, resolution, pose)

    @pytest.mark.parametrize("fov", [1e-300, 30.0, 180.0])
    def test_one_cell_crop_marches_no_sample(self, fov):
        res = 6.0 / 64
        assert scenario._ray_blocks(res, res, fov).blocks == ()
        for pose in self.POSES:
            self._check(fov, res, res, pose)

    def test_tiny_fov_sees_no_cell(self):
        assert not scenario._ray_blocks(6.0, 6.0 / 64, 1e-300).in_fov.any()
        for pose in self.POSES:
            self._check(1e-300, 6.0, 6.0 / 64, pose)
            assert np.all(observed_grid(self.WORLD, pose, 1e-300, bev_crop(self.WORLD, pose)).cells == 0.5)

    def test_largest_crop(self):
        # 256 cells, the most a config allows; the reference holds ~0.5 GB per call.
        for pose, fov in zip(self.POSES, (180.0, 120.0, 45.0)):
            self._check(fov, 24.0, 0.09375, pose)

    def test_alternating_geometries_and_fovs(self):
        # More geometry-FOV pairs than the table cache holds, visited twice in
        # an order that evicts each before it comes back.
        pairs = [(g, fov) for fov in (120.0, 30.0, 180.0) for g in ((6.0, 6.0 / 64), (4.0, 0.125), (3.0, 0.1875))]
        for round_ in range(2):
            for k, ((extent, res), fov) in enumerate(pairs):
                self._check(fov, extent, res, self.POSES[(k + round_) % len(self.POSES)])
        table = scenario._ray_blocks(6.0, 6.0 / 64, 120.0)
        arrays = [table.in_fov, table.marched, table.points, *(a for block in table.blocks for a in block[1:])]
        assert not any(a.flags.writeable for a in arrays)

    def test_blocks_cover_every_ray_at_any_fov(self):
        # The FOV moves the total sample count past multiples of the block
        # size, including where one falls inside the last ray.
        for fov in np.arange(90.0, 180.0001, 0.05):
            table = scenario._ray_blocks(6.0, 6.0 / 64, float(fov))
            ray = 0
            for which, ix, iy, starts in table.blocks:
                assert which.start == ray and which.stop > ray, fov
                assert starts.size == which.stop - which.start and starts[0] == 0, fov
                assert ix.size == iy.size and ix.size > starts[-1], fov
                ray = which.stop
            assert ray == table.marched.size, fov
        # FOVs whose last block boundary falls inside the last ray, and 120 for contrast.
        for fov, pose in zip((29.2, 65.9, 100.0, 119.5, 120.0), itertools.cycle(self.POSES)):
            self._check(fov, 6.0, 6.0 / 64, pose)

    @pytest.mark.parametrize("extent, bound_mb", [(6.0, 1.0), (24.0, 2.0)])
    def test_warm_call_memory_is_bounded(self, extent, bound_mb):
        # Rays are marched in blocks, so no temporary grows with the crop's samples.
        pose = self.POSES[1]
        truth = bev_crop(self.WORLD, pose, extent, 0.09375)
        observed_grid(self.WORLD, pose, 120.0, truth)
        tracemalloc.start()
        try:
            observed_grid(self.WORLD, pose, 120.0, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestLeaderPose:
    SPEC = RunConfig(trajectory="fig8_dynamic", traj_size_x_m=2.0, traj_size_y_m=1.0, traj_period_s=30.0)

    def test_origin_at_zero(self):
        p = leader_pose(self.SPEC, 0.0)
        assert p.position.norm() == pytest.approx(0.0, abs=1e-12)

    def test_half_period_returns_reversed(self):
        p = leader_pose(self.SPEC, 15.0)
        assert p.position.norm() == pytest.approx(0.0, abs=1e-9)
        h = 1e-5
        v0 = (leader_pose(self.SPEC, h).position.x - leader_pose(self.SPEC, 0.0).position.x) / h
        v1 = (leader_pose(self.SPEC, 15.0 + h).position.x - leader_pose(self.SPEC, 15.0).position.x) / h
        assert np.sign(v0) == -np.sign(v1)

    def test_static_heading_constant(self):
        spec = RunConfig(trajectory="fig8_static", traj_size_x_m=2.0, traj_size_y_m=1.0, traj_period_s=30.0)
        yaws = {round(leader_pose(spec, t).rotation.yaw(), 9) for t in np.linspace(0, 60, 50)}
        assert len(yaws) == 1

    def test_rect_constant_speed(self):
        spec = RunConfig(trajectory="rect_dynamic", traj_size_x_m=3.0, traj_size_y_m=2.0, traj_period_s=40.0)
        ts = np.linspace(0.0, 40.0, 400, endpoint=False)
        pts = [leader_pose(spec, t).position for t in ts]
        steps = [pos_dist(a, b) for a, b in zip(pts, pts[1:])]
        assert np.std(steps) / np.mean(steps) < 0.02
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        assert max(xs) == pytest.approx(1.5, abs=0.01)
        assert max(ys) == pytest.approx(1.0, abs=0.01)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            leader_pose(self.SPEC, -1.0)


def _rect_xy_reference(cfg, t):
    """The rectangle as eight segment lambdas, each straight and arc written out."""
    lx, ly, r = cfg.traj_size_x_m, cfg.traj_size_y_m, cfg.traj_corner_radius_m
    straight_x, straight_y = lx - 2 * r, ly - 2 * r
    perimeter = 2 * straight_x + 2 * straight_y + 2 * math.pi * r
    speed = perimeter / cfg.traj_period_s
    s = (speed * t) % perimeter

    def arc(cx, cy, phi0, dphi):
        phi = phi0 + dphi
        return cx + r * math.cos(phi), cy + r * math.sin(phi), -math.sin(phi), math.cos(phi)

    segs = [
        (straight_x, lambda u: (-straight_x / 2 + u, -ly / 2, 1.0, 0.0)),
        (math.pi * r / 2, lambda u: arc(straight_x / 2, -straight_y / 2, -math.pi / 2, u / r)),
        (straight_y, lambda u: (lx / 2, -straight_y / 2 + u, 0.0, 1.0)),
        (math.pi * r / 2, lambda u: arc(straight_x / 2, straight_y / 2, 0.0, u / r)),
        (straight_x, lambda u: (straight_x / 2 - u, ly / 2, -1.0, 0.0)),
        (math.pi * r / 2, lambda u: arc(-straight_x / 2, straight_y / 2, math.pi / 2, u / r)),
        (straight_y, lambda u: (-lx / 2, straight_y / 2 - u, 0.0, -1.0)),
        (math.pi * r / 2, lambda u: arc(-straight_x / 2, -straight_y / 2, math.pi, u / r)),
    ]
    for i, (length, fn) in enumerate(segs):
        if s <= length or i == len(segs) - 1:
            x, y, tx, ty = fn(min(s, length))
            return x, y, tx * speed, ty * speed
        s -= length


class TestRectPath:
    # (size x, size y, corner radius, period): a side of zero straight length
    # (r = lx / 2, then r = ly / 2), a small corner, and two sizes where float
    # residue just before the period's end leaves the walk past the last arc.
    SIZES = [
        (3.0, 2.0, 0.5, 40.0),
        (2.0, 3.0, 1.0, 60.0),
        (2.0, 1.0, 0.5, 60.0),
        (4.0, 1.5, 0.01, 17.0),
        (4.225, 2.381, 0.198, 29.8),
        (2.575890720840042, 2.9861110641145037, 0.3, 8.27995386437745),
    ]

    @staticmethod
    def _times(cfg):
        """Dense times plus the time of every segment boundary, in the first and
        second lap, and of each lap's end, with four float neighbours on each side."""
        lx, ly, r = cfg.traj_size_x_m, cfg.traj_size_y_m, cfg.traj_corner_radius_m
        straight_x, straight_y = lx - 2 * r, ly - 2 * r
        arc = math.pi * r / 2
        perimeter = 2 * straight_x + 2 * straight_y + 2 * math.pi * r
        speed = perimeter / cfg.traj_period_s
        times = np.linspace(0.0, 2.5 * cfg.traj_period_s, 5000).tolist()
        edges = list(itertools.accumulate([straight_x, arc, straight_y, arc] * 2))
        centres = [e / speed for e in edges] + [cfg.traj_period_s * (1.0 + e / perimeter) for e in edges]
        for t in centres + [cfg.traj_period_s, 2 * cfg.traj_period_s]:
            below = above = t
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                times += [below, above]
            times.append(t)
        return times

    @pytest.mark.parametrize("lx, ly, r, period", SIZES)
    def test_table_matches_eight_segments(self, lx, ly, r, period):
        cfg = RunConfig(trajectory="rect_dynamic", traj_size_x_m=lx, traj_size_y_m=ly,
                        traj_corner_radius_m=r, traj_period_s=period)
        for t in self._times(cfg):
            want = [float(v).hex() for v in _rect_xy_reference(cfg, t)]
            assert [float(v).hex() for v in scenario._rect_xy(cfg, t)] == want, t

    def test_zero_radius_corner_is_its_corner_point(self):
        # Float residue leaves the walk past the last straight, on the zero-length last arc.
        lx, ly, period = 2.575890720840042, 2.9861110641145037, 8.27995386437745
        cfg = RunConfig(trajectory="rect_dynamic", traj_corner_radius_m=0.0,
                        traj_size_x_m=lx, traj_size_y_m=ly, traj_period_s=period)
        pose = leader_pose(cfg, 8.279953864377449)
        assert pose.position.as_tuple() == (-lx / 2, -ly / 2, 0.0)

    def test_zero_radius_stays_on_the_rectangle(self):
        for lx, ly, _, period in self.SIZES:
            cfg = RunConfig(trajectory="rect_dynamic", traj_size_x_m=lx, traj_size_y_m=ly,
                            traj_corner_radius_m=0.0, traj_period_s=period)
            for t in self._times(cfg):
                x, y, _ = leader_pose(cfg, t).position.as_tuple()
                assert abs(x) <= lx / 2 and abs(y) <= ly / 2
                assert min(lx / 2 - abs(x), ly / 2 - abs(y)) <= 1e-12, (lx, ly, t)


ACCEPT = dict(
    duration_s=30.0,
    kp_pos=6.0,
    kd_pos=0.5,
    kp_yaw=6.0,
    kd_yaw=0.5,
    traj_size_x_m=1.5,
    traj_size_y_m=0.75,
    traj_period_s=90.0,
)


class TestRunFormation:
    def test_deterministic_bytes(self):
        cfg = RunConfig(seed=13, estimator="synthetic", **ACCEPT)
        a = runlog_jsonl(cfg, run_formation(cfg)[0])
        b = runlog_jsonl(cfg, run_formation(cfg)[0])
        assert a == b

    def test_second_run_repeats_the_first(self):
        cfg = RunConfig(seed=13, duration_s=2.0)
        run, first, second = FormationRun(cfg), [], []
        run.run(first.append)
        run.run(second.append)
        assert runlog_jsonl(cfg, second) == runlog_jsonl(cfg, first)

    def test_estimates_only_from_delivered_frames(self):
        cfg = RunConfig(seed=3, estimator="synthetic", **ACCEPT)
        records, events = run_formation(cfg)
        delivered = {}  # (receiver, sender) -> set of superframe indices
        for e in events:
            if e.kind == KIND_DELIVER:
                delivered.setdefault((e.node, e.peer), set()).add(e.superframe)
        period = 1.0 / cfg.superframe_hz
        for rec in records:
            tick = round(rec["t"] / period)
            for est in rec["estimates"]:
                assert est["peer_tick"] <= tick  # causality
                assert est["peer_tick"] in delivered[(rec["node_id"], est["dst"])]

    def test_estimates_depend_only_on_their_key(self):
        # Each logged estimate is recomputed alone from (seed, tick, src, dst)
        # and the two logged truth poses, so no draw depends on the order in
        # which the run evaluated edges. Normalization is a projection, so a
        # pose read back is bit for bit the pose the run used.
        cfg = RunConfig(seed=17, n_nodes=8, duration_s=5.0)  # pairs sharing a slot collide for ~2 s
        lines = runlog_jsonl(cfg, run_formation(cfg)[0]).splitlines()[1:]
        records = [json.loads(line) for line in lines]
        period = 1.0 / cfg.superframe_hz
        truth = {(r["node_id"], round(r["t"] / period)): r["pose_truth"] for r in records}
        profile = scenario.profile_from_config(cfg)
        checked = 0
        for rec in records:
            tick = round(rec["t"] / period)
            for logged in rec["estimates"]:
                src, dst = logged.pop("src"), logged.pop("dst")
                own, peer = truth[src, tick], truth[dst, logged.pop("peer_tick")]
                obs_i = Observation(src, Pose(Vec3(*own["p"]), UnitQuat(*own["q"])), cfg.fov_deg, b"")
                peer = Pose(Vec3(*peer["p"]), UnitQuat(*peer["q"]))
                obs_j = Observation(dst, peer, cfg.fov_deg, b"")
                again = estimate(obs_i, obs_j, profile, edge_rng(cfg.seed, tick, src, dst)).to_dict()
                assert (again.pop("src"), again.pop("dst")) == (src, dst)
                for key, value in logged.items():
                    assert again[key] == value, key
                checked += 1
        assert checked > 500

    def test_blackout_keeps_followers_gated(self):
        # A frame takes about 493 s on air, so none lands within the run. The
        # stale timeout is longer than that, or FormationRun refuses the config.
        cfg = RunConfig(
            seed=5, estimator="oracle", bitrate_bps=100.0, duration_s=10.0, stale_timeout_s=600.0, **{
                k: v for k, v in ACCEPT.items() if k != "duration_s"
            }
        )
        records, events = run_formation(cfg)
        assert not any(e.kind == KIND_DELIVER for e in events)
        for rec in records:
            if rec["node_id"] != 0:
                assert rec["gated"]
                assert rec["cmd"]["v"] == [0.0, 0.0, 0.0]

    def test_oracle_tracks_tighter_than_noisy(self):
        # Paired seeds, mean over ten runs.
        diffs = []
        short = {**ACCEPT, "duration_s": 15.0}
        for seed in range(10):
            base = dict(seed=seed, **short)
            oracle = RunConfig(estimator="oracle", base_loss=0.0, loss_slope=0.0, **base)
            noisy = RunConfig(estimator="synthetic", **base)
            so = tracking_errors(run_formation(oracle)[0], follower_offsets(oracle), skip_s=5.0)
            sn = tracking_errors(run_formation(noisy)[0], follower_offsets(noisy), skip_s=5.0)
            for f in so:
                diffs.append(sn[f]["median_pos_m"] - so[f]["median_pos_m"])
        assert np.mean(diffs) > 0.0

    @pytest.mark.parametrize(
        "extra",
        [{}, {"n_nodes": 8}, {"propagation_s": 0.1, "bitrate_bps": 1e6}],
        ids=["default", "8_nodes", "delayed"],
    )
    def test_inbox_holds_only_delivered_peer_state(self, monkeypatch, extra):
        # A node learns a peer only from the payloads of frames delivered to it.
        cfg = RunConfig(seed=2, duration_s=20.0, **extra)
        delivered = {node_id: set() for node_id in range(cfg.n_nodes)}
        receive = RobotNode.on_receive

        def on_receive(node, sim, frame, now):
            delivered[node.node_id].add(frame.payload)
            receive(node, sim, frame, now)

        monkeypatch.setattr(RobotNode, "on_receive", on_receive)
        run = FormationRun(cfg)
        held = []
        tick = run.robot_tick

        def robot_tick(node, k, now):
            assert node.node_id not in node.inbox
            assert len(node.inbox) <= cfg.n_nodes - 1
            for obs in node.inbox.values():
                assert obs.embedding in delivered[node.node_id]
                held.append(obs)
            tick(node, k, now)

        run.robot_tick = robot_tick
        records = []
        run.run(records.append)
        assert len(records) == cfg.n_nodes * 301
        period = 1.0 / cfg.superframe_hz
        truth = {(r["node_id"], round(r["t"] / period)): r["pose_truth"] for r in records}
        for obs in held:
            logged = truth[obs.node_id, obs.tick]
            p, q = obs.pose_truth.position, obs.pose_truth.rotation
            sent = struct.pack("<7d", *p.as_tuple(), *q.as_tuple())
            assert sent == struct.pack("<7d", *logged["p"], *logged["q"])
        assert len(held) > cfg.n_nodes * 100

    def test_payload_too_short_for_embedding_header_raises(self):
        with pytest.raises(ConfigError, match="payload_bytes"):
            run_formation(RunConfig(payload_bytes=Observation.HEADER.size - 1))

    def test_no_frame_arriving_fresh_raises(self):
        # Each 6,164-byte frame is 0.25 s on air plus 0.3 s in flight, past the 0.5 s stale timeout.
        cfg = RunConfig(propagation_s=0.3, bitrate_bps=200000, duration_s=20.0)
        with pytest.raises(ConfigError, match="stale_timeout_s"):
            run_formation(cfg)

    def test_frame_one_superframe_old_is_fresh(self):
        # Without loss every peer frame is read one superframe after it is sent.
        # A stale timeout of one superframe (lag == max_age) keeps all of them,
        # as two superframes do: each follower estimates both peers from tick 1 on.
        counts = []
        for stale in (1 / 15, 2 / 15):
            cfg = RunConfig(seed=3, stale_timeout_s=stale, base_loss=0.0, loss_slope=0.0, duration_s=20.0)
            run = FormationRun(cfg)
            assert run.max_age == round(stale * 15)
            records = []
            run.run(records.append)
            followers = [r for r in records if r["node_id"] != 0 and r["t"] > 0]
            assert all(any(e["dst"] == 0 for e in r["estimates"]) for r in followers)
            counts.append(sum(len(r["estimates"]) for r in followers))
        assert counts == [2 * 300 * 2] * 2

    @pytest.mark.parametrize("hz", [10.0, 12.0])
    def test_frame_max_age_old_is_fresh(self, hz):
        # 0.5 s is a whole number of superframes at 10 and 12 Hz: a frame that
        # many superframes old is fresh, one a superframe older is not.
        run = FormationRun(RunConfig(estimator="oracle", superframe_hz=hz, stale_timeout_s=0.5))
        assert run.max_age == round(0.5 * hz)
        node, tick = RobotNode(1, run), 100
        for peer, age in ((0, run.max_age), (2, run.max_age + 1)):
            node.inbox[peer] = Observation(peer, run.initial_pose(peer), 90.0, b"", tick - age)
        assert [(e.dst, peer_tick) for e, peer_tick in node.fresh_estimates(tick)] == [(0, tick - run.max_age)]

    def test_followers_start_in_formation(self):
        cfg = RunConfig(seed=1, estimator="oracle", **ACCEPT)
        records, _ = run_formation(cfg)
        first = {r["node_id"]: r for r in records if r["t"] == 0.0}
        leader = Pose(Vec3(*first[0]["pose_truth"]["p"]), UnitQuat(*first[0]["pose_truth"]["q"]))
        for f, offset in follower_offsets(cfg).items():
            fp = Pose(Vec3(*first[f]["pose_truth"]["p"]), UnitQuat(*first[f]["pose_truth"]["q"]))
            rel = relative_pose(fp, leader)
            assert pos_dist(rel.position, offset.position) < 1e-9
            assert rot_geodesic_deg(rel.rotation, offset.rotation) < 1e-9


def _reference_tracking_errors(records, offsets, skip_s):
    """The scalar tracking_errors: a Pose per record and follower, errors one tick at a time."""
    by_tick = {}
    for rec in records:
        by_tick.setdefault(rec["t"], {})[rec["node_id"]] = rec
    out = {}
    for follower, offset in offsets.items():
        pos_errs, rot_errs, speeds = [], [], []
        prev_pos = None
        for t in sorted(by_tick):
            tick_recs = by_tick[t]
            if follower not in tick_recs or FormationRun.LEADER not in tick_recs:
                continue
            f, lead = tick_recs[follower]["pose_truth"], tick_recs[FormationRun.LEADER]["pose_truth"]
            f_pose = Pose(Vec3(*f["p"]), UnitQuat(*f["q"]))
            l_pose = Pose(Vec3(*lead["p"]), UnitQuat(*lead["q"]))
            if prev_pos is not None:
                speeds.append((f_pose.position - prev_pos).norm())
            prev_pos = f_pose.position
            if t < skip_s:
                continue
            rel = relative_pose(f_pose, l_pose)
            pos_errs.append((rel.position - offset.position).norm())
            rot_errs.append(rot_geodesic_deg(rel.rotation, offset.rotation))
        dt = sorted(by_tick)[1] - sorted(by_tick)[0] if len(by_tick) > 1 else 1.0
        out[follower] = {
            "mean_abs_pos_m": float(np.mean(pos_errs)) if pos_errs else math.nan,
            "median_pos_m": float(np.median(pos_errs)) if pos_errs else math.nan,
            "mean_abs_rot_deg": float(np.mean(rot_errs)) if rot_errs else math.nan,
            "median_rot_deg": float(np.median(rot_errs)) if rot_errs else math.nan,
            "mean_vel_mps": float(np.mean(speeds) / dt) if speeds else math.nan,
        }
    return out


class TestTrackingErrors:
    @pytest.mark.parametrize("seed", [101, 202])
    @pytest.mark.parametrize(
        "extra",
        [{}, {"n_nodes": 8, "duration_s": 10.0}, {"n_nodes": 8, "duration_s": 10.0, "estimator": "oracle"}],
        ids=["default", "formation", "oracle8"],
    )
    def test_matches_scalar_reference(self, extra, seed):
        cfg = RunConfig(seed=seed, **extra)
        records = run_formation(cfg)[0]
        for skip_s in (0.0, 10.0):
            got = tracking_errors(records, follower_offsets(cfg), skip_s=skip_s)
            want = _reference_tracking_errors(records, follower_offsets(cfg), skip_s)
            assert {f: {k: v.hex() for k, v in s.items()} for f, s in got.items()} == {
                f: {k: v.hex() for k, v in s.items()} for f, s in want.items()
            }

    def test_missing_leader_ticks_and_duplicates(self):
        # A tick without the leader scores no error and moves no speed; a later
        # record of the same time and node replaces the earlier one.
        cfg = RunConfig(seed=3, duration_s=5.0)
        records = run_formation(cfg)[0]
        records = [r for r in records if not (r["node_id"] == 0 and 20 <= r["t"] * cfg.superframe_hz < 30)]
        records.append(json.loads(json.dumps(records[-1])) | {"pose_truth": records[0]["pose_truth"]})
        for skip_s in (0.0, 1.0, 100.0):
            got = tracking_errors(records, follower_offsets(cfg), skip_s=skip_s)
            want = _reference_tracking_errors(records, follower_offsets(cfg), skip_s)
            assert {f: {k: v.hex() for k, v in s.items()} for f, s in got.items()} == {
                f: {k: v.hex() for k, v in s.items()} for f, s in want.items()
            }


class TestHoming:
    BASE = dict(
        duration_s=60.0,
        traj_period_s=60.0,
        traj_size_x_m=1.5,
        traj_size_y_m=0.75,
        kp_pos=6.0,
        kd_pos=0.5,
        kp_yaw=6.0,
        kd_yaw=0.5,
    )

    def test_oracle_visits_all_keyframes(self):
        res = run_homing(RunConfig(seed=1, estimator="oracle", **self.BASE))
        assert res.completed
        assert len(res.keyframes) >= 2
        assert len(res.arrival_errors) == len(res.keyframes)
        assert all(a < 0.6 for a in res.arrival_errors)
        assert max(res.cross_track) < 0.6

    def test_noisy_replay_bounded(self):
        res = run_homing(RunConfig(seed=2, estimator="synthetic", **self.BASE))
        assert res.completed
        assert all(a < 3 * 0.6 for a in res.arrival_errors)

    def test_first_observation_always_keyframe(self):
        res = run_homing(RunConfig(seed=3, estimator="oracle", **self.BASE))
        assert res.keyframes[0].tick == 0

    def test_replay_ignores_gain_attenuation(self):
        # Replay steers with the formation gains and gate, never attenuated.
        cfg = RunConfig(seed=2, estimator="synthetic", **self.BASE)
        assert run_homing(cfg.replace(gain_attenuation=True)) == run_homing(cfg)

    def test_teaches_every_superframe_inside_the_duration(self, monkeypatch):
        # 8.2 s * 15 Hz is 122.99999999999999 in floats; superframe 122 (8.133 s) is inside 8.2 s.
        times = []
        pose_at = scenario.leader_pose
        monkeypatch.setattr(scenario, "leader_pose", lambda cfg, t: times.append(t) or pose_at(cfg, t))
        run_homing(RunConfig(seed=1, estimator="oracle", **self.BASE | dict(duration_s=8.2)))
        teach, replay_start = times[:-1], times[-1]  # replay starts from one more leader_pose(0)
        assert replay_start == 0.0
        assert len(teach) == 123 and teach[-1] == pytest.approx(122 / 15)


class TestDatasetJsonl:
    def test_schema_and_roundtrip(self):
        w = gen_world(1, extent=12.0, n_rooms=1)
        groups = sample_groups(w, 2, n_max=3, seed=1, with_bev=True)
        text = dataset_jsonl(RunConfig(seed=1), groups)
        lines = text.strip().split("\n")
        header = json.loads(lines[0])
        assert header["schema"] == "covis.dataset@1"
        for line in lines[1:]:
            rec = json.loads(line)
            assert len(rec["nodes"]) == 3
            assert len(rec["estimates"]) == 6  # all ordered pairs
            for node in rec["nodes"]:
                assert "bev_b64" in node and "bev_obs_b64" in node
