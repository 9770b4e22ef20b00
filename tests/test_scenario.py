import json
import math
import struct

import numpy as np
import pytest
from scipy import ndimage

from covis.config import ConfigError, RunConfig
from covis.estimator import Observation, PoseEstimate, edge_rng, estimate
from covis.geometry import Pose, UnitQuat, Vec3, pos_dist, relative_pose, rot_geodesic_deg
from covis.metrics import EdgeRecord, is_invisible
from covis import scenario
from covis.netsim import KIND_DELIVER
from covis.scenario import (
    FormationRun,
    RobotNode,
    TrajectorySpec,
    _lookup,
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
        assert np.array_equal(a.occupancy, b.occupancy)

    def test_single_room(self):
        w = gen_world(1, extent=12.0, n_rooms=1)
        interior = w.occupancy[2:-2, 2:-2]
        assert np.all(interior == 0.0)

    def test_free_space_connected(self):
        for seed in range(5):
            w = gen_world(seed, extent=24.0, n_rooms=6)
            four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
            _, n = ndimage.label(w.free_mask(), structure=four)
            assert n == 1

    def test_infeasible_extent(self):
        with pytest.raises(ValueError):
            gen_world(0, extent=8.0, n_rooms=2)


class TestSampleGroups:
    def test_pairwise_distance_bound(self):
        w = gen_world(2, extent=18.0, n_rooms=3)
        groups = sample_groups(w, 20, n_max=5, d_max=2.0, seed=3, with_bev=False)
        for g in groups:
            for a, b in g.directed_pairs():
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
            for a, b in g.directed_pairs():
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
        obs = observed_grid(w, pose, fov_deg=120.0)
        truth = bev_crop(w, pose)
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
        occ = w.occupancy.copy()
        n = occ.shape[0]
        mid = n // 2
        occ[mid + 10 : mid + 12, :] = 1.0
        from covis.scenario import World

        w2 = World(occ, w.extent, w.resolution, w.seed)
        obs = observed_grid(w2, Pose.identity(), fov_deg=120.0)
        m = obs.cells.shape[0] // 2
        assert np.all(obs.cells[m + 14 :, m] == 0.5)  # beyond the wall
        assert obs.cells[m + 10, m] == 1.0  # the wall is seen
        assert obs.cells[m + 5, m] == 0.0  # free space before it


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
                got = observed_grid(world, pose, fov, *grid).cells
                want = _observed_grid_reference(world, pose, fov, *grid)
                assert got.tobytes() == want.tobytes(), (fov, x, y, grid)


class TestLeaderPose:
    SPEC = TrajectorySpec(kind="fig8_dynamic", size_x=2.0, size_y=1.0, period=30.0)

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
        spec = TrajectorySpec(kind="fig8_static", size_x=2.0, size_y=1.0, period=30.0)
        yaws = {round(leader_pose(spec, t).rotation.yaw(), 9) for t in np.linspace(0, 60, 50)}
        assert len(yaws) == 1

    def test_rect_constant_speed(self):
        spec = TrajectorySpec(kind="rect_dynamic", size_x=3.0, size_y=2.0, period=40.0)
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

    def test_estimates_only_from_delivered_frames(self):
        cfg = RunConfig(seed=3, estimator="synthetic", **ACCEPT)
        records, events = run_formation(cfg)
        delivered = {}  # (receiver, sender) -> set of superframe indices
        for e in events:
            if e.kind == KIND_DELIVER:
                delivered.setdefault((e.node_id, e.peer_id), set()).add(e.superframe)
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
        records, _ = run.run()
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
        assert res.keyframes[0].index == 0
        assert res.keyframes[0].est_to_previous is None


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
