import argparse
import csv
import json
import logging
import math
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covis.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    _edges_from_dataset,
    _fusion_scores,
    _read_input,
    _write_rows,
    main,
)
from covis.config import ConfigError, RunConfig
from covis.estimator import PoseEstimate
from covis.geometry import Pose, UnitQuat, Vec3, relative_pose, rot_geodesic_deg
from covis.metrics import MIN_TRANSLATION, EdgeRecord, is_invisible, pos_error, rot_error_deg
from covis.scenario import DATASET_SCHEMA, RUNLOG_SCHEMA, FormationRun, follower_offsets, runlog_jsonl

FAST = {
    "duration_s": 10.0,
    "kp_pos": 6.0,
    "kd_pos": 0.5,
    "kp_yaw": 6.0,
    "kd_yaw": 0.5,
    "traj_period_s": 90.0,
    "traj_size_x_m": 1.5,
    "traj_size_y_m": 0.75,
}


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FAST, **extra}))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


RECT = {"trajectory": "rect_dynamic"}

# Every config starts short; a drawn key may then replace any of these.
SHORT = {"duration_s": 1.0, "n_groups": 1, "n_max": 3}
# In-box values keep runs short and teams small; every other in-box value lies
# between half and twice its default.
IN_BOX = {
    "seed": st.integers(0, 2**32 - 1),
    "duration_s": st.floats(0.05, 2.0),
    "n_nodes": st.integers(1, 4),
    "n_groups": st.integers(0, 2),
    "n_max": st.integers(1, 3),
    "world_extent_m": st.floats(12.0, 48.0),
}
WRONG_TYPE = ["1", None, [1], {"k": 1}, True, 1.5]


def field_values(name, hint, default):
    """In-box, out-of-range, wrongly typed and (for floats) non-finite values."""
    kind, rule = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint, "")
    if typing.get_origin(kind) is typing.Literal:
        return st.sampled_from(typing.get_args(kind)), st.sampled_from(["neural", 1, None])
    if kind is bool:
        return st.booleans(), st.sampled_from(["true", 1, None])
    in_box = IN_BOX.get(name)
    if in_box is None and kind is int:
        in_box = st.integers(default // 2, max(default * 2, 1))
    elif in_box is None:
        in_box = st.floats(default / 2, default * 2) if default else st.just(default)
    bad = [v for v in WRONG_TYPE if not (kind is float and v == 1.5)]
    if kind is float:
        bad += [math.nan, math.inf, -math.inf]
    if rule:  # just outside each end of the bound
        if rule[0] == ">":
            rule = ("[" if rule[1] == "=" else "(") + rule.lstrip(">=") + ", inf)"
        lo, hi = (float(x) for x in rule[1:-1].split(","))
        outside = [lo - 1, lo] if rule[0] == "(" else [lo - 1]
        if hi < math.inf:
            outside += [hi + 1, hi] if rule[-1] == ")" else [hi + 1]
        bad += [kind(v) for v in outside]
    return in_box, st.sampled_from(bad)


FIELDS = {
    name: field_values(name, hint, getattr(RunConfig(), name))
    for name, hint in typing.get_type_hints(RunConfig, include_extras=True).items()
}


@st.composite
def configs(draw):
    """A few in-box keys, and in about half the examples one bad key."""
    keys = draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=3, unique=True))
    overrides = {k: draw(FIELDS[k][0]) for k in keys}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(FIELDS)))
        overrides[key] = draw(FIELDS[key][1])
    return overrides


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"not_a_key": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"estimator": "neural"})

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            RunConfig().replace(trajectory="spiral")

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("datagen", "bev_resolution_m", 0),
            ("datagen", "world_resolution_m", 0),
            ("datagen", "bev_extent_m", 6.05),
            ("datagen", "world_extent_m", 8),
            ("netbench", "superframe_hz", 0),
            ("netbench", "payload_bytes", 9000),
            # A formation frame's payload starts with the 70-byte embedding header.
            ("simulate", "payload_bytes", 0),
            ("simulate", "payload_bytes", 69),
            ("simulate", "world_extent_m", "large"),
            ("simulate", "seed", 1.5),
            ("netbench", "n_nodes", 2.5),
            ("netbench", "max_divisor", 0),
            ("simulate", "seed", "abc"),
            ("simulate", "stale_timeout_s", -1),
            ("simulate", "duration_s", math.inf),
            ("netbench", "superframe_hz", math.inf),
            pytest.param("simulate", "rect_dynamic", RECT | {"traj_size_x_m": 0, "traj_size_y_m": 0},
                         id="simulate-rect_dynamic-zero_sides"),
            ("homing", "sigma_jitter", 1e6),
            ("simulate", "seed", -1),
            ("netbench", "base_loss", 1.5),
            ("simulate", "kp_pos", -1),
            pytest.param("simulate", "oracle", {"estimator": "oracle", "sigma_floor": 0},
                         id="simulate-oracle-sigma_floor_0"),
            ("datagen", "world_rooms", 0),
            ("simulate", "duration_s", math.nan),
            pytest.param("simulate", "rect_dynamic", RECT | {"traj_corner_radius_m": 5},
                         id="simulate-rect_dynamic-radius_5"),
            ("datagen", "d_max_m", 1e6),
            ("datagen", "world_resolution_m", 1e6),
            ("netbench", "propagation_s", -1),
            ("netbench", "loss_window_s", -1),
            ("datagen", "n_groups", -1),
            ("homing", "eps_reach_m", -1),
            ("netbench", "high_watermark", math.nan),
            ("netbench", "bitrate_bps", math.inf),
            # Before these bounds the next three asked for terabytes of grid
            # or built 70,000 nodes.
            ("datagen", "world_extent_m", 1e5),
            ("datagen", "bev_extent_m", 257 * 6.0 / 64),
            ("netbench", "n_nodes", 70000),
            # Every frame lands 0.55 s after its superframe, past the 0.5 s
            # stale timeout: the run logged 0 estimates and exited 0.
            pytest.param("simulate", "always_stale",
                         {"propagation_s": 0.3, "bitrate_bps": 200000, "duration_s": 20},
                         id="simulate-always_stale"),
        ],
    )
    def test_out_of_bounds_exits_config_error(self, tmp_path, command, key, value):
        # A dict value is a case that needs several keys; the key then names it.
        overrides = value if isinstance(value, dict) else {key: value}
        cfg = write_config(tmp_path, **{"n_groups": 1, **overrides})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        # A refused config leaves no output directory behind.
        assert not (tmp_path / "o").exists()

    def test_payload_bytes_holds_embedding_header(self, tmp_path, caplog):
        short = write_config(tmp_path, payload_bytes=69)
        assert main(["simulate", "--config", short, "--out", str(tmp_path / "short")]) == EXIT_CONFIG
        assert "payload_bytes" in caplog.text
        exact = write_config(tmp_path, payload_bytes=70)
        assert main(["simulate", "--config", exact, "--out", str(tmp_path / "exact")]) == EXIT_OK
        # netbench sends only filler, so any payload size stays valid there.
        empty = write_config(tmp_path, payload_bytes=0)
        assert main(["netbench", "--config", empty, "--out", str(tmp_path / "net")]) == EXIT_OK

    def test_any_config_runs_or_exits_config_error(self):
        codes = []

        @settings(max_examples=300, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.sampled_from(("simulate", "datagen", "netbench", "homing")), configs())
        def check(command, overrides):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps({**SHORT, **overrides}))
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
            assert code in (EXIT_OK, EXIT_CONFIG), (command, overrides)
            codes.append(code)

        check()
        assert codes.count(EXIT_OK) >= len(codes) / 4, codes


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, seed=7, n_groups=2, world_extent_m=12.0, world_rooms=1)

        # (command, output directory, input file or None, exit code)
        runs = [
            ("simulate", "sim", None, EXIT_OK),
            ("datagen", "data", None, EXIT_OK),
            ("netbench", "net", None, EXIT_OK),
            ("homing", "home", None, EXIT_OK),
            ("metrics", "met_sim", "sim/runlog.jsonl", EXIT_OK),
            ("metrics", "met_data", "data/dataset.jsonl", EXIT_OK),
            ("traces", "tr_sim", "sim/runlog.jsonl", EXIT_OK),
            ("traces", "tr_data", "data/dataset.jsonl", EXIT_VALIDATION),
        ]

        def run_all(out):
            for command, name, source, code in runs:
                argv = [command, "--config", cfg, "--out", str(out / name)]
                if source is not None:
                    argv += ["--input", str(out / source)]
                assert main(argv) == code, argv

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_all(out_a)
        run_all(out_b)
        files = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert len(files) == 16
        for name in files:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_summary_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 2  # two followers
        for col in ("schema", "mean_abs_pos_m", "median_pos_m", "mean_vel_mps"):
            assert col in rows[0]
        assert rows[0]["schema"] == "covis.summary@1"

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frobnicate": True}))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, seed=1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "2"])
        assert (out_a / "runlog.jsonl").read_text() != (out_b / "runlog.jsonl").read_text()

    def test_rect_followers_have_distinct_velocities(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trajectory="rect_dynamic",
            traj_size_x_m=3.0,
            traj_size_y_m=2.0,
            traj_period_s=30.0,
            duration_s=30.0,
            estimator="oracle",
            base_loss=0.0,
            loss_slope=0.0,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        v1, v2 = (float(r["mean_vel_mps"]) for r in rows)
        assert abs(v1 - v2) > 0.02  # inner vs outer follower


class TestDatagenAndMetrics:
    def test_oracle_dataset_gives_perfect_metrics(self, tmp_path):
        cfg = write_config(
            tmp_path, estimator="oracle", n_groups=12, world_extent_m=16.0, world_rooms=2
        )
        data_dir, met_dir = tmp_path / "data", tmp_path / "met"
        assert main(["datagen", "--config", cfg, "--out", str(data_dir)]) == EXIT_OK
        assert (
            main(
                [
                    "metrics",
                    "--config",
                    cfg,
                    "--input",
                    str(data_dir / "dataset.jsonl"),
                    "--out",
                    str(met_dir),
                ]
            )
            == EXIT_OK
        )
        cats = {r["category"]: r for r in read_csv(met_dir / "categories.csv")}
        assert float(cats["All"]["median_pos_m"]) == 0.0
        assert float(cats["All"]["median_rot_deg"]) == 0.0
        aucs = read_csv(met_dir / "auc.csv")
        assert [float(r["threshold_deg"]) for r in aucs] == [20.0, 45.0, 90.0]
        # Quaternion renormalization on the JSON roundtrip leaves ~1e-8 deg
        # of rotation error, so "exactly 1" means within 1e-9.
        assert all(float(r["auc"]) == pytest.approx(1.0, abs=1e-9) for r in aucs)
        summary = read_csv(met_dir / "summary.csv")[0]
        assert "dice" in summary and float(summary["dice"]) > 0.5

    def test_synthetic_dataset_metrics(self, tmp_path):
        cfg = write_config(
            tmp_path, estimator="synthetic", n_groups=30, world_extent_m=16.0, world_rooms=2
        )
        data_dir, met_dir = tmp_path / "data", tmp_path / "met"
        main(["datagen", "--config", cfg, "--out", str(data_dir)])
        assert (
            main(
                [
                    "metrics",
                    "--config",
                    cfg,
                    "--input",
                    str(data_dir / "dataset.jsonl"),
                    "--out",
                    str(met_dir),
                ]
            )
            == EXIT_OK
        )
        cats = {r["category"]: r for r in read_csv(met_dir / "categories.csv")}
        assert int(cats["Visible"]["count"]) + int(cats["Invisible"]["count"]) == int(
            cats["All"]["count"]
        )

    def test_metrics_on_runlog(self, tmp_path):
        cfg = write_config(tmp_path, seed=3)
        sim_dir, met_dir = tmp_path / "sim", tmp_path / "met"
        main(["simulate", "--config", cfg, "--out", str(sim_dir)])
        rc = main(
            [
                "metrics",
                "--config",
                cfg,
                "--input",
                str(sim_dir / "runlog.jsonl"),
                "--out",
                str(met_dir),
            ]
        )
        assert rc == EXIT_OK
        assert (met_dir / "categories.csv").exists()
        summary = read_csv(met_dir / "summary.csv")[0]
        assert "dice" not in summary  # no grids in a runlog

    def test_metrics_reads_runlog_config(self, tmp_path):
        cfg = write_config(tmp_path, seed=3, superframe_hz=10.0, fov_deg=60.0)
        sim_dir, met_dir = tmp_path / "sim", tmp_path / "met"
        assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == EXIT_OK
        rc = main(["metrics", "--input", str(sim_dir / "runlog.jsonl"), "--out", str(met_dir)])
        assert rc == EXIT_OK
        assert int(read_csv(met_dir / "summary.csv")[0]["malformed_lines"]) == 0

    def test_malformed_lines_exit(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"schema": "covis.dataset@1"}) + "\n" + "not json\n" * 5
        )
        rc = main(["metrics", "--input", str(bad), "--out", str(tmp_path / "m")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "header, code",
        [([1], EXIT_VALIDATION), ({"schema": "covis.runlog@1", "config": 5}, EXIT_CONFIG)],
    )
    def test_bad_header_exit(self, tmp_path, header, code):
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(header) + "\n{}\n")
        assert main(["metrics", "--input", str(path), "--out", str(tmp_path / "m")]) == code

    def test_missing_input(self, tmp_path):
        rc = main(["metrics", "--input", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "m")])
        assert rc == EXIT_IO


class TestNetbench:
    def test_clean_tdma_no_collisions(self, tmp_path):
        cfg = write_config(tmp_path, n_nodes=4, n_slots=4, duration_s=10.0)
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 4
        assert all(int(r["collisions"]) == 0 for r in rows)
        capture_lines = (out / "capture.jsonl").read_text().strip().split("\n")
        assert json.loads(capture_lines[0])["schema"] == "covis.capture@1"
        assert len(capture_lines) > 1 and "frame_b64" in json.loads(capture_lines[1])
        assert (out / "events.jsonl").exists() and (out / "trace.jsonl").exists()

    def test_contention_forces_backoff(self, tmp_path):
        cfg = write_config(
            tmp_path, n_nodes=9, n_slots=4, duration_s=20.0, base_loss=0.0, loss_slope=0.0
        )
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert sum(int(r["collisions"]) for r in rows) > 0
        assert any(float(r["mean_divisor"]) > 1.0 for r in rows)


class TestHomingCmd:
    def test_oracle_homing(self, tmp_path):
        cfg = write_config(
            tmp_path, estimator="oracle", duration_s=60.0, traj_period_s=60.0
        )
        out = tmp_path / "out"
        assert main(["homing", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "keyframes.csv")
        assert rows and all(r["within_reach"] == "True" for r in rows)
        summary = read_csv(out / "summary.csv")[0]
        assert summary["completed"] == "True"
        assert float(summary["max_cross_track_m"]) < 0.6


class TestTraces:
    def test_traces_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        sim_dir, tr_dir = tmp_path / "sim", tmp_path / "tr"
        main(["simulate", "--config", cfg, "--out", str(sim_dir)])
        rc = main(
            [
                "traces",
                "--config",
                cfg,
                "--input",
                str(sim_dir / "runlog.jsonl"),
                "--out",
                str(tr_dir),
            ]
        )
        assert rc == EXIT_OK
        rows = read_csv(tr_dir / "traces.csv")
        assert {"t", "node_id", "x_m", "y_m", "yaw_rad", "pos_err_m"} <= set(rows[0])

    def test_traces_use_runlog_offsets(self, tmp_path, caplog):
        cfg = write_config(tmp_path, seed=3, duration_s=20.0, follower_offset_m=2.0)
        sim_dir, tr_dir = tmp_path / "sim", tmp_path / "tr"
        assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == EXIT_OK
        rc = main(["traces", "--input", str(sim_dir / "runlog.jsonl"), "--out", str(tr_dir)])
        assert rc == EXIT_OK
        # A conflicting --config is named in a warning and loses to the header.
        other = tmp_path / "other"
        other.mkdir()
        argv = ["traces", "--config", write_config(other), "--input", str(sim_dir / "runlog.jsonl")]
        assert main(argv + ["--out", str(tmp_path / "tr2")]) == EXIT_OK
        assert "follower_offset_m" in caplog.text
        assert (tmp_path / "tr2" / "traces.csv").read_bytes() == (tr_dir / "traces.csv").read_bytes()
        rows = read_csv(tr_dir / "traces.csv")
        for summary in read_csv(sim_dir / "summary.csv"):
            errs = [
                float(r["pos_err_m"])
                for r in rows
                if r["node_id"] == summary["node_id"] and float(r["t"]) >= 10.0
            ]
            assert float(np.median(errs)) == float(summary["median_pos_m"])

    POSE = {"p": [0.0, 0.0, 0.0], "q": [1.0, 0.0, 0.0, 0.0]}

    @pytest.mark.parametrize(
        "records",
        [
            [{}],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": "x", "node_id": 0, "pose_truth": POSE, "gated": False},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": 1, "pose_truth": {"p": [0.0, math.inf, 0.0], "q": [1.0, 0.0, 0.0, 0.0]},
                 "gated": False},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": 1, "pose_truth": {"p": [0.0, 0.0, 0.0], "q": [1.0 + 2e-6, 0.0, 0.0, 0.0]},
                 "gated": False},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": 1, "pose_truth": POSE},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": [1], "pose_truth": POSE, "gated": False},
            ],
        ],
        ids=["empty", "t_not_a_number", "non_finite_position", "quaternion_off_unit", "no_gated",
             "unhashable_node_id"],
    )
    def test_malformed_record_exits_validation(self, tmp_path, caplog, records):
        runlog = tmp_path / "runlog.jsonl"
        runlog.write_text(runlog_jsonl(RunConfig(), records))
        rc = main(["traces", "--input", str(runlog), "--out", str(tmp_path / "tr")])
        assert rc == EXIT_VALIDATION
        assert f"line {len(records) + 1}:" in caplog.text


class TestJsonlFormat:
    def test_summary_jsonl(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "jsonl"]) == EXIT_OK
        lines = (out / "summary.jsonl").read_text().strip().split("\n")
        assert all(json.loads(line)["schema"] == "covis.summary@1" for line in lines)


# ---------------------------------------------------------------------------
# Reference metrics: the object reader and scalar scoring that the column
# evaluator replaced, kept here to pin its outputs. Every edge is a Pose, a
# PoseEstimate and an EdgeRecord, scored with geometry's scalar functions.


def _reference_dataset_records(lines, cfg):
    records, grid_scores, errors = [], [], []
    for no, line in enumerate(lines, start=2):
        try:
            rec = json.loads(line)
            nodes = {n["id"]: n for n in rec["nodes"]}
            poses = {i: Pose(Vec3(*n["pose"]["p"]), UnitQuat(*n["pose"]["q"])) for i, n in nodes.items()}
            ests = [PoseEstimate.from_dict(d) for d in rec.get("estimates", [])]
            edges = [
                EdgeRecord(relative_pose(poses[e.src], poses[e.dst]), e, float(nodes[e.src]["fov_deg"]))
                for e in ests
            ]
            if ests and all("bev_obs_b64" in n and "bev_b64" in n for n in nodes.values()):
                grid_scores.extend(_fusion_scores(nodes, rec["estimates"], cfg))
            records.extend(edges)
        except Exception as exc:
            errors.append((no, str(exc)))
    return records, grid_scores, errors


def _reference_runlog_records(lines, cfg):
    records, errors, parsed, pose_at = [], [], [], {}
    period = 1.0 / cfg.superframe_hz
    for no, line in enumerate(lines, start=2):
        try:
            rec = json.loads(line)
            tick = round(rec["t"] / period)
            pose = Pose(Vec3(*rec["pose_truth"]["p"]), UnitQuat(*rec["pose_truth"]["q"]))
            pose_at[(tick, rec["node_id"])] = pose
            parsed.append((no, rec, pose))
        except Exception as exc:
            errors.append((no, str(exc)))
    for no, rec, pose in parsed:
        try:
            edges = []
            for d in rec["estimates"]:
                est = PoseEstimate.from_dict(d)
                edges.append(EdgeRecord(relative_pose(pose, pose_at[(d["peer_tick"], est.dst)]), est, cfg.fov_deg))
            records.extend(edges)
        except Exception as exc:
            errors.append((no, str(exc)))
    return records, [], errors


def _reference_youden(values, labels):
    values, labels = np.array(values, dtype=float), np.array(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.inf
    candidates = np.unique(values)
    tp = n_pos - np.searchsorted(np.sort(values[labels]), candidates, side="left")
    fp = n_neg - np.searchsorted(np.sort(values[~labels]), candidates, side="left")
    return float(candidates[int(np.argmax(tp * n_neg - fp * n_pos))])


def _reference_max_error_deg(rec):
    t, e = rec.truth.position, rec.est.p_hat
    if t.norm() < MIN_TRANSLATION:
        return None
    if e.norm() < MIN_TRANSLATION:
        return max(rot_error_deg(rec), 180.0)
    cx = t.y * e.z - t.z * e.y
    cy = t.z * e.x - t.x * e.z
    cz = t.x * e.y - t.y * e.x
    angle = math.degrees(math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), t.dot(e)))
    return max(rot_error_deg(rec), angle)


def _metrics_reference(input_path, out, config=None):
    """Write categories.csv, auc.csv and summary.csv as the object pipeline did."""
    args = argparse.Namespace(config=config, seed=None, input=str(input_path))
    cfg, schema, lines = _read_input(args)
    read = _reference_dataset_records if schema == DATASET_SCHEMA else _reference_runlog_records
    records, grid_scores, errors = read(lines, cfg)
    if cfg.youden_labeling == "invisible":
        labels = [is_invisible(r) for r in records]
    else:
        labels = [pos_error(r) > cfg.youden_error_threshold_m for r in records]
    threshold = _reference_youden([r.est.sigma_p_norm() for r in records], labels)

    def median(values):
        ordered = sorted(values)
        return ordered[(len(ordered) - 1) // 2] if ordered else 0.0

    groups = {
        "All": records,
        "Visible": [r for r in records if not is_invisible(r)],
        "Invisible": [r for r in records if is_invisible(r)],
        "InvisibleFiltered": [r for r in records if is_invisible(r) and r.est.sigma_p_norm() < threshold],
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "categories", [
        {"schema": "covis.categories@1", "category": name, "count": len(group),
         "median_pos_m": median(map(pos_error, group)), "median_rot_deg": median(map(rot_error_deg, group))}
        for name, group in groups.items()
    ], "csv")
    errors_deg = np.array([e for e in map(_reference_max_error_deg, records) if e is not None])
    _write_rows(out / "auc", [
        {"schema": "covis.auc@1", "threshold_deg": t, "auc": float(np.mean(np.maximum(0.0, t - errors_deg)) / t)}
        for t in (20.0, 45.0, 90.0)
    ], "csv")
    summary = {"schema": "covis.metrics_summary@1", "edges": len(records), "youden_threshold": threshold,
               "auc_excluded_edges": len(records) - len(errors_deg), "malformed_lines": len(errors)}
    if grid_scores:
        summary["dice"] = float(np.mean([d for d, _ in grid_scores]))
        summary["iou"] = float(np.mean([i for _, i in grid_scores]))
    _write_rows(out / "summary", [summary], "csv")
    return errors


def _traces_reference(input_path, out):
    """Write traces.csv as the per-record reader did: a Pose per record, scalar errors and yaw."""
    cfg, schema, lines = _read_input(argparse.Namespace(config=None, seed=None, input=str(input_path)))
    assert schema == RUNLOG_SCHEMA
    offsets = follower_offsets(cfg)
    by_tick = {}
    for line in lines:
        rec = json.loads(line)
        pose = Pose(Vec3(*rec["pose_truth"]["p"]), UnitQuat(*rec["pose_truth"]["q"]))
        by_tick.setdefault(float(rec["t"]), {})[int(rec["node_id"])] = (pose, rec["gated"])
    rows = []
    for t in sorted(by_tick):
        recs = by_tick[t]
        leader = recs.get(FormationRun.LEADER)
        for node_id in sorted(recs):
            pose, gated = recs[node_id]
            pos_err = rot_err = math.nan
            if leader is not None and node_id in offsets:
                rel, offset = relative_pose(pose, leader[0]), offsets[node_id]
                pos_err = (rel.position - offset.position).norm()
                rot_err = rot_geodesic_deg(rel.rotation, offset.rotation)
            rows.append({"schema": "covis.traces@1", "t": t, "node_id": node_id, "x_m": pose.position.x,
                         "y_m": pose.position.y, "yaw_rad": pose.rotation.yaw(), "gated": gated,
                         "pos_err_m": pos_err, "rot_err_deg": rot_err})
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "traces", rows, "csv")


# (name, command, config) of each input the reference pins.
METRICS_INPUTS = {
    "runlog-default": ("simulate", {}),
    "runlog-formation": ("simulate", {"n_nodes": 8, "duration_s": 10.0}),
    "runlog-oracle8": ("simulate", {"n_nodes": 8, "duration_s": 10.0, "estimator": "oracle"}),
    "dataset-default": ("datagen", {}),
    "dataset-4groups": ("datagen", {"n_groups": 4}),
}


@pytest.fixture(scope="module")
def metrics_inputs(tmp_path_factory):
    """Input file of each METRICS_INPUTS entry at seeds 101 and 202, made on first use."""
    root, made = tmp_path_factory.mktemp("metrics_inputs"), {}

    def get(name, seed):
        if (name, seed) not in made:
            command, cfg = METRICS_INPUTS[name]
            out = root / f"{name}-{seed}"
            config = root / f"{name}.json"
            config.write_text(json.dumps(cfg))
            assert main([command, "--config", str(config), "--seed", str(seed), "--out", str(out)]) == EXIT_OK
            made[name, seed] = out / ("runlog.jsonl" if command == "simulate" else "dataset.jsonl")
        return made[name, seed]

    return get


def _metrics_files(out):
    return {name: (out / name).read_bytes() for name in ("categories.csv", "auc.csv", "summary.csv")}


class TestMetricsMatchReference:
    @pytest.mark.parametrize("seed", [101, 202])
    @pytest.mark.parametrize("name", sorted(METRICS_INPUTS))
    def test_byte_identical(self, tmp_path, metrics_inputs, name, seed):
        source = metrics_inputs(name, seed)
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "got")]) == EXIT_OK
        _metrics_reference(source, tmp_path / "want")
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")

    def test_high_error_labeling(self, tmp_path, metrics_inputs):
        # Every formation edge is visible, so only this labeling runs a two-class sweep on a runlog.
        source = metrics_inputs("runlog-formation", 202)
        config = write_config(tmp_path, youden_labeling="high_error", youden_error_threshold_m=0.4)
        assert main(["metrics", "--config", config, "--input", str(source), "--out", str(tmp_path / "got")]) == EXIT_OK
        _metrics_reference(source, tmp_path / "want", config)
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")
        assert read_csv(tmp_path / "got" / "summary.csv")[0]["youden_threshold"] != "inf"

    @staticmethod
    def corrupt(source, target, changes):
        """Copy ``source`` with ``change(record)`` applied to the record on each given line."""
        lines = source.read_text().splitlines()
        for no, change in changes.items():
            rec = json.loads(lines[no - 1])
            change(rec)
            lines[no - 1] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")

    def test_runlog_checks_match_constructors(self, tmp_path, metrics_inputs):
        def estimate(k, key, value):
            def change(rec):
                rec["estimates"][k][key] = value
            return change

        def pose(key, value):
            def change(rec):
                rec["pose_truth"][key] = value
            return change

        defects = [
            estimate(1, "peer_tick", 10**6),
            estimate(0, "p_hat", [0.1, "0.2", 0.3]),
            estimate(2, "sigma_p", [0.1, 0.0, 0.3]),
            estimate(1, "q_hat", [1.1, 0.0, 0.0, 0.0]),
            estimate(3, "sigma_q", 0.0),
            estimate(1, "p_hat", [0.1, 0.2, 0.3, 0.4]),
            estimate(2, "p_hat", [math.nan, 0.2, 0.3]),
            lambda rec: rec.update(t="x"),
        ]
        accepted = [
            estimate(0, "sigma_q", "0.5"),  # float() takes a numeric string
            estimate(0, "q_hat", [0.0, 0.0, 0.0, -1.0 + 5e-7]),  # near unit, w == 0, flipped
            estimate(1, "dst", "3"),  # int() too
        ]
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        busy = [no for no, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) >= 4]
        changes = dict(zip(busy[::40], defects + accepted))
        bad_pose = {len(lines) - 1: pose("q", [1.0, 0.0, 0.0]), len(lines): pose("p", [0.0, 10**400, 0.0])}
        self.corrupt(source, tmp_path / "runlog.jsonl", changes | bad_pose)
        source = tmp_path / "runlog.jsonl"
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "got")]) == EXIT_OK
        errors = {no for no, _ in _metrics_reference(source, tmp_path / "want")}
        assert set(busy[::40][: len(defects)]) | set(bad_pose) <= errors
        assert not errors & set(busy[::40][len(defects) : len(defects) + len(accepted)])
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")

    def test_dataset_checks_match_constructors(self, tmp_path, metrics_inputs):
        def node(k, key, value):
            def change(rec):
                rec["nodes"][k][key] = value
            return change

        def estimate(k, key, value):
            def change(rec):
                rec["estimates"][k][key] = value
            return change

        changes = {
            10: node(1, "fov_deg", 190.0),
            20: estimate(3, "dst", 99),
            30: node(0, "bev_obs_b64", "not base64!"),
            40: node(2, "pose", {"p": [0.0, 0.0], "q": [1.0, 0.0, 0.0, 0.0]}),
            50: estimate(1, "sigma_p", [-0.1, 0.2, 0.3]),
        }
        source = tmp_path / "dataset.jsonl"
        self.corrupt(metrics_inputs("dataset-default", 101), source, changes)
        # Five malformed lines of 101 exceed the 1% budget, so compare the readers directly.
        cfg, _, lines = _read_input(argparse.Namespace(config=None, seed=None, input=str(source)))
        edges, errors, grid_scores = _edges_from_dataset(lines, cfg)
        records, want_scores, want_errors = _reference_dataset_records(lines, cfg)
        assert [no for no, _ in errors] == [no for no, _ in want_errors] == sorted(changes)
        assert len(edges) == len(records) and grid_scores == want_scores
        assert (edges.t_pos.tolist(), edges.p_hat.tolist()) == (
            [list(r.truth.position.as_tuple()) for r in records], [list(r.est.p_hat.as_tuple()) for r in records]
        )


class TestTracesMatchReference:
    @pytest.mark.parametrize("seed", [101, 202])
    @pytest.mark.parametrize("name", ["runlog-default", "runlog-formation", "runlog-oracle8"])
    def test_byte_identical(self, tmp_path, metrics_inputs, name, seed):
        source = metrics_inputs(name, seed)
        assert main(["traces", "--input", str(source), "--out", str(tmp_path / "got")]) == EXIT_OK
        _traces_reference(source, tmp_path / "want")
        got = (tmp_path / "got" / "traces.csv").read_bytes()
        assert got == (tmp_path / "want" / "traces.csv").read_bytes()


class TestMalformedLineKeepsNoEdge:
    def test_runlog(self, tmp_path, metrics_inputs, caplog):
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        no = next(k for k, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) >= 3)
        rec = json.loads(lines[no - 1])
        rec["estimates"][1]["peer_tick"] = 10**6
        dst = rec["estimates"][1]["dst"]
        lines[no - 1] = json.dumps(rec)
        broken = tmp_path / "runlog.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "whole")]) == EXIT_OK
        assert main(["metrics", "--input", str(broken), "--out", str(tmp_path / "cut")]) == EXIT_OK
        whole = read_csv(tmp_path / "whole" / "summary.csv")[0]
        cut = read_csv(tmp_path / "cut" / "summary.csv")[0]
        assert int(cut["edges"]) == int(whole["edges"]) - len(rec["estimates"])
        assert cut["malformed_lines"] == "1"
        assert f"line {no}: no pose of peer node {dst} at tick 1000000" in caplog.text

    @pytest.mark.parametrize("defect", ["pose_lookup", "fov", "fusion"])
    def test_dataset(self, tmp_path, metrics_inputs, caplog, defect):
        source = metrics_inputs("dataset-default", 101)
        lines = source.read_text().splitlines()
        rec = json.loads(lines[1])
        if defect == "pose_lookup":
            rec["estimates"][1]["dst"] = 99
        elif defect == "fov":
            rec["nodes"][-1]["fov_deg"] = 0.0  # only the estimates that node makes fail
        else:
            rec["nodes"][-1]["bev_b64"] = "AAAA"
        lines[1] = json.dumps(rec)
        broken = tmp_path / "dataset.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "whole")]) == EXIT_OK
        assert main(["metrics", "--input", str(broken), "--out", str(tmp_path / "cut")]) == EXIT_OK
        whole = read_csv(tmp_path / "whole" / "summary.csv")[0]
        cut = read_csv(tmp_path / "cut" / "summary.csv")[0]
        assert int(cut["edges"]) == int(whole["edges"]) - len(rec["estimates"])
        assert cut["malformed_lines"] == "1"
        assert "line 2:" in caplog.text


def test_metrics_logs_counts_and_stage_times(tmp_path, metrics_inputs, caplog):
    source = metrics_inputs("runlog-formation", 101)
    with caplog.at_level(logging.INFO, logger="covis.cli"):
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "a")]) == EXIT_OK
    edges = read_csv(tmp_path / "a" / "summary.csv")[0]["edges"]
    [message] = [r.getMessage() for r in caplog.records if r.name == "covis.cli" and "edges scored" in r.getMessage()]
    assert message.startswith(f"metrics: {edges} edges scored, 0 malformed lines; read ")
    assert all(stage in message for stage in ("read ", "score ", "write "))
    # The stage times stay in the log: a second run writes the same bytes.
    assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert _metrics_files(tmp_path / "a") == _metrics_files(tmp_path / "b")
