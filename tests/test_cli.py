import argparse
import base64
import csv
import gc
import itertools
import json
import logging
import math
import sys
import tempfile
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from covis.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    _OUTPUTS,
    _edges_from_dataset,
    _edges_from_runlog,
    _read_input,
    _text_lines,
    _write_rows,
    main,
)
from covis.bev import BevGrid, fuse
from covis.config import ConfigError, RunConfig
from covis.estimator import PoseEstimate, check_sigmas
from covis.geometry import Pose, UnitQuat, Vec3, relative_pose, rot_geodesic_deg
from covis.metrics import MIN_TRANSLATION, EdgeColumns, EdgeRecord, is_invisible, mask_dice_iou, pos_error, rot_error_deg
from covis.netsim import BroadcastNode, Simulator, capture_line
from covis.scenario import (
    DATASET_SCHEMA,
    RUNLOG_SCHEMA,
    FormationRun,
    RobotNode,
    follower_offsets,
    jsonl,
    network_from_config,
    run_formation,
    runlog_jsonl,
    runlog_line,
    tracking_errors,
)

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
            # A valid float whose superframe count overflows: Simulator.run raised
            # OverflowError, and with duration_s 1 it pushed ticks until killed.
            ("netbench", "superframe_hz", 1e308),
            pytest.param("simulate", "rect_dynamic", RECT | {"traj_size_x_m": 0, "traj_size_y_m": 0},
                         id="simulate-rect_dynamic-zero_sides"),
            ("homing", "sigma_jitter", 1e6),
            ("simulate", "seed", -1),
            ("netbench", "base_loss", 1.5),
            ("simulate", "kp_pos", -1),
            ("simulate", "kd_pos", -1),
            ("simulate", "kp_yaw", -1),
            ("simulate", "kd_yaw", -1),
            ("simulate", "v_max_mps", 0),
            ("simulate", "w_max_rps", 0),
            ("simulate", "tau_p_m", 0),
            ("homing", "tau_q", 0),
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
        rows = read_csv(out / "tracking.csv")
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

    def test_undecodable_config_exit_code(self, tmp_path, caplog):
        # A byte that is not UTF-8 is a config error, as invalid JSON is.
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": 1}\xff')
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "'utf-8' codec can't decode byte 0xff in position 11" in caplog.text

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
        rows = read_csv(out / "tracking.csv")
        v1, v2 = (float(r["mean_vel_mps"]) for r in rows)
        assert abs(v1 - v2) > 0.02  # inner vs outer follower

    def test_streamed_runlog_bytes_at_a_non_default_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"trajectory": "rect_dynamic", "n_nodes": 3, "estimator": "oracle", "seed": 3, "duration_s": 15.0}
        ))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        cfg = RunConfig.from_file(config)
        records = run_formation(cfg)[0]
        assert len(records) == 3 * 226
        assert (out / "runlog.jsonl").read_text() == runlog_jsonl(cfg, records)
        # The tracking table is the library's statistics of the same records.
        stats = tracking_errors(records, follower_offsets(cfg), skip_s=10.0)
        rows = read_csv(out / "tracking.csv")
        assert [int(row["node_id"]) for row in rows] == sorted(stats) == [1, 2]
        for row in rows:
            assert {key: float(row[key]) for key in stats[1]} == stats[int(row["node_id"])]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("stage", ["run", "summary"])
    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch, stage, fmt):
        # An earlier run's outputs are in --out. A run that fails removes them
        # with its own partial runlog, so no mixed set is left.
        cfg = write_config(tmp_path, duration_s=2.0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["runlog.jsonl", f"tracking.{fmt}"]
        if stage == "run":  # four record lines are already written to the open file
            made = []

            def fifth_fails(rec):
                made.append(rec)
                if len(made) == 5:
                    raise ValueError("fifth record")
                return runlog_line(rec)

            monkeypatch.setattr("covis.cli.runlog_line", fifth_fails)
        else:  # the whole runlog is written

            def fails(*args, **kwargs):
                raise ValueError("summary")

            monkeypatch.setattr("covis.cli.tracking_stats", fails)
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_the_runlog(self, tmp_path):
        # The formation benchmark's team. Records go to disk as they are made,
        # and the reader keeps each line's numbers, not the line, so what grows
        # with run length is the simulator's events and the reader's number rows.
        peaks = {}
        for duration in (20.0, 60.0):
            config, out = tmp_path / f"config{duration}.json", tmp_path / f"out{duration}"
            config.write_text(json.dumps({"n_nodes": 8, "duration_s": duration, "seed": 7}))
            runs = (
                ("simulate", ["--config", str(config)]),
                ("metrics", ["--input", str(out / "simulate" / "runlog.jsonl")]),
            )
            for command, argv in runs:
                tracemalloc.start()
                try:
                    assert main([command, *argv, "--out", str(out / command)]) == EXIT_OK
                    peaks[command, duration] = tracemalloc.get_traced_memory()[1] / 1e6
                finally:
                    tracemalloc.stop()
        assert peaks["simulate", 60.0] <= 16.0
        assert peaks["metrics", 60.0] <= 32.0
        assert peaks["simulate", 60.0] - peaks["simulate", 20.0] <= 10.0
        assert peaks["metrics", 60.0] - peaks["metrics", 20.0] <= 20.0


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

    def test_memory_does_not_grow_with_the_dataset(self, tmp_path):
        # Each line's grids are fused as the line is read, so what grows with
        # the groups is a few numbers per edge, not the base64 grids.
        cfg = write_config(tmp_path, n_groups=40, seed=7)
        assert main(["datagen", "--config", cfg, "--out", str(tmp_path / "data")]) == EXIT_OK
        lines = (tmp_path / "data" / "dataset.jsonl").read_text().splitlines(keepends=True)
        peaks = {}
        for groups in (10, 40):
            source = tmp_path / f"dataset{groups}.jsonl"
            source.write_text("".join(lines[: 1 + groups]))
            tracemalloc.start()
            try:
                assert main(["metrics", "--input", str(source), "--out", str(tmp_path / f"m{groups}")]) == EXIT_OK
                peaks[groups] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        assert int(read_csv(tmp_path / "m40" / "summary.csv")[0]["edges"]) > 400
        assert peaks[40] - peaks[10] <= 1.0

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

    def test_silent_nodes_keep_their_rows(self, tmp_path):
        # Only node 0 gets to send, and none of its 3 peers receives the frame:
        # every node still has a row, and node 0's loss counts all 3 peers.
        cfg = write_config(tmp_path, n_nodes=4, duration_s=0.01, base_loss=0.9, seed=2)
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert [r["node_id"] for r in rows] == ["0", "1", "2", "3"]
        assert [int(r["frames_tx"]) for r in rows] == [1, 0, 0, 0]
        assert float(rows[0]["loss_rate"]) == 1.0
        # Nodes 1 to 3 never woke up, so they ran no backoff step to average.
        assert all(math.isnan(float(r["mean_divisor"])) for r in rows[1:])

    def test_non_finite_trace_value_exits_validation(self, tmp_path, monkeypatch):
        # JSON has no NaN, so a NaN loss fails its trace line instead of being
        # written, and the failed run removes the logs it had written before.
        monkeypatch.setattr("covis.netsim.adapt_rate", lambda state, now: math.nan)
        cfg = write_config(tmp_path, n_nodes=2, duration_s=0.5)
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_failed_capture_leaves_no_partial_log(self, tmp_path, monkeypatch):
        # An earlier run's four files are in --out, and the run fails with four
        # capture lines already written to the open file: none of the files is left.
        cfg = write_config(tmp_path, n_nodes=2, duration_s=0.5)
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(list(out.iterdir())) == 4
        sent = []

        def fifth_fails(t, wire):
            sent.append(t)
            if len(sent) == 5:
                raise ValueError("fifth frame")
            return capture_line(t, wire)

        monkeypatch.setattr("covis.cli.capture_line", fifth_fails)
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_writing_the_logs_keeps_no_memory_per_event(self, tmp_path, monkeypatch):
        # The netstorm benchmark config. Writing an event's line must not leave
        # anything on the event (a __dict__ built for it, say) once the
        # lines are written, so the run's memory peaks in the run.
        cfg = write_config(tmp_path, n_nodes=8, n_slots=8, duration_s=60.0, seed=7)
        held, run = {}, Simulator.run

        def hold(sim, duration):
            events = run(sim, duration)
            held["sim"] = sim
            gc.collect()
            held["after_run"] = tracemalloc.get_traced_memory()[0]
            return events

        monkeypatch.setattr(Simulator, "run", hold)
        tracemalloc.start()
        try:
            assert main(["netbench", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - held["after_run"]
        finally:
            tracemalloc.stop()
        events = len(held["sim"].events)
        assert events > 9000
        assert grown / events < 8.0

    def test_memory_does_not_grow_with_the_capture(self, tmp_path):
        # The netstorm benchmark config. The capture is written as frames go on
        # the air, so only the events and trace samples grow with run length.
        peaks = {}
        for duration in (30.0, 60.0):
            cfg = write_config(tmp_path, n_nodes=8, n_slots=8, duration_s=duration, seed=7)
            tracemalloc.start()
            try:
                assert main(["netbench", "--config", cfg, "--out", str(tmp_path / f"out{duration}")]) == EXIT_OK
                peaks[duration] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        assert peaks[60.0] <= 12.0
        assert peaks[60.0] - peaks[30.0] <= 5.0

    def test_streamed_capture_bytes_at_a_non_default_config(self, tmp_path):
        cfg = write_config(tmp_path, n_nodes=3, n_slots=4, payload_bytes=64, duration_s=5.0, seed=3)
        out = tmp_path / "out"
        assert main(["netbench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sim, lines = network_from_config(RunConfig.from_file(cfg)), []
        sim.capture_sink = lambda t, wire: lines.append(capture_line(t, wire))
        sim.run(5.0)
        assert len(lines) > 10
        assert (out / "capture.jsonl").read_text() == jsonl({"schema": "covis.capture@1"}, lines)


# A non-default value of each network key of RunConfig.
NETWORK_VALUES = {
    "n_slots": 6,
    "superframe_hz": 12.0,
    "max_divisor": 4,
    "high_watermark": 0.2,
    "low_watermark": 0.02,
    "loss_window_s": 1.5,
    "bitrate_bps": 3e6,
    "base_loss": 0.05,
    "loss_slope": 0.02,
    "propagation_s": 0.01,
    "payload_bytes": 2048,
    "n_nodes": 5,
}


class TestNetworkWiring:
    @pytest.mark.parametrize("command, node_type", [("simulate", RobotNode), ("netbench", BroadcastNode)])
    @pytest.mark.parametrize("key", sorted(NETWORK_VALUES))
    def test_value_reaches_medium_simulator_and_schedulers(self, tmp_path, monkeypatch, key, command, node_type):
        built = []

        def capture(*args, **kwargs):
            built.append(network_from_config(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("covis.scenario.network_from_config", capture)
        monkeypatch.setattr("covis.cli.network_from_config", capture)
        assert NETWORK_VALUES[key] != getattr(RunConfig(), key)
        config = write_config(tmp_path, duration_s=0.5, **{key: NETWORK_VALUES[key]})
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK
        cfg, (sim,) = RunConfig.from_file(config), built
        m = sim.medium
        assert (m.bitrate, m.base_loss, m.loss_slope, m.propagation) == (
            cfg.bitrate_bps, cfg.base_loss, cfg.loss_slope, cfg.propagation_s
        )
        assert (sim.seed, sim.superframe_period) == (cfg.seed, 1.0 / cfg.superframe_hz)
        assert list(sim.behaviors) == list(range(cfg.n_nodes))
        for node_id, node in sim.behaviors.items():
            assert type(node) is node_type
            assert (node.payload_bytes, node.roster) == (cfg.payload_bytes, tuple(range(cfg.n_nodes)))
            s = node.scheduler
            assert (s.node_id, s.n_slots, s.superframe_period, s.max_divisor) == (
                node_id, cfg.n_slots, 1.0 / cfg.superframe_hz, cfg.max_divisor
            )
            assert (s.high_watermark, s.low_watermark, s.loss_window) == (
                cfg.high_watermark, cfg.low_watermark, cfg.loss_window_s
            )


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
        for summary in read_csv(sim_dir / "tracking.csv"):
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
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": True, "pose_truth": {"p": [9.0, 9.0, 0.0], "q": [1.0, 0.0, 0.0, 0.0]},
                 "gated": False},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": True, "node_id": 0, "pose_truth": POSE, "gated": False},
            ],
            [
                {"t": 0.0, "node_id": 0, "pose_truth": POSE, "gated": False},
                {"t": 0.0, "node_id": 1, "pose_truth": POSE, "gated": "maybe"},
            ],
        ],
        ids=["empty", "t_not_a_number", "non_finite_position", "quaternion_off_unit", "no_gated",
             "unhashable_node_id", "bool_node_id", "bool_t", "string_gated"],
    )
    def test_malformed_record_exits_validation(self, tmp_path, caplog, records):
        runlog = tmp_path / "runlog.jsonl"
        runlog.write_text(runlog_jsonl(RunConfig(), records))
        rc = main(["traces", "--input", str(runlog), "--out", str(tmp_path / "tr")])
        assert rc == EXIT_VALIDATION
        assert f"line {len(records) + 1}:" in caplog.text

    def test_traces_checks_no_estimate(self, tmp_path, metrics_inputs, monkeypatch):
        # traces reads each line's pose, t and gated; metrics checks each estimate once.
        source = metrics_inputs("runlog-formation", 101)
        calls = []
        monkeypatch.setattr("covis.cli.check_sigmas", lambda *args: calls.append(args) or check_sigmas(*args))
        assert main(["traces", "--input", str(source), "--out", str(tmp_path / "tr")]) == EXIT_OK
        assert calls == []
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "m")]) == EXIT_OK
        estimates = sum(len(json.loads(line)["estimates"]) for line in source.read_text().splitlines()[1:])
        assert len(calls) == estimates > 0


class TestJsonlFormat:
    def test_summary_jsonl(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "jsonl"]) == EXIT_OK
        lines = (out / "tracking.jsonl").read_text().strip().split("\n")
        assert all(json.loads(line)["schema"] == "covis.summary@1" for line in lines)

    def test_no_rows_is_an_empty_file(self, tmp_path):
        # A lone leader has no follower to summarize: no lines, as the CSV has none.
        cfg = write_config(tmp_path, n_nodes=1, duration_s=1.0)
        for fmt in ("jsonl", "csv"):
            out = tmp_path / fmt
            assert main(["simulate", "--config", cfg, "--out", str(out), "--format", fmt]) == EXIT_OK
            assert (out / f"tracking.{fmt}").read_text() == ""

    def test_every_table_is_strict_json(self, tmp_path):
        # 5 s is inside the tracking table's 10 s skip, every formation edge is visible
        # and the leader has no offset: NaN, inf and NaN in the three tables.
        cfg = write_config(tmp_path, duration_s=5.0, n_groups=2, world_extent_m=12.0, world_rooms=1)
        runs = [("simulate", "sim", None), ("datagen", "data", None), ("netbench", "net", None),
                ("homing", "home", None), ("metrics", "met_sim", "sim/runlog.jsonl"),
                ("metrics", "met_data", "data/dataset.jsonl"), ("traces", "tr", "sim/runlog.jsonl")]

        def constant(name):
            raise ValueError(f"{name} is not JSON")

        nulls = set()
        for command, name, source in runs:
            for fmt in ("jsonl", "csv"):
                argv = [command, "--config", cfg, "--out", str(tmp_path / fmt / name), "--format", fmt]
                if source is not None:
                    argv += ["--input", str(tmp_path / fmt / source)]
                assert main(argv) == EXIT_OK, argv
            tables = list((tmp_path / "csv" / name).glob("*.csv"))
            assert tables or command == "datagen"
            for table in tables:
                lines = (tmp_path / "jsonl" / name / table.name).with_suffix(".jsonl").read_text().splitlines()
                rows = [json.loads(line, parse_constant=constant) for line in lines]
                # The CSV keeps its nan and inf; the JSONL row has null there and the same value elsewhere.
                assert len(rows) == len(read_csv(table))
                for row, want in zip(rows, read_csv(table)):
                    for key, value in row.items():
                        if value is None:
                            assert not math.isfinite(float(want[key]))
                            nulls.add((name, table.stem, key))
                        else:
                            assert str(value) == want[key]
        assert {("sim", "tracking", "median_pos_m"), ("met_sim", "summary", "youden_threshold"),
                ("tr", "traces", "pos_err_m")} <= nulls


COMMANDS = ("simulate", "metrics", "datagen", "netbench", "homing", "traces")


@pytest.fixture(scope="module")
def short_argv(tmp_path_factory):
    """argv of a short run of a command into ``out`` in ``fmt``; metrics and traces read a short runlog."""
    root = tmp_path_factory.mktemp("short")
    config = root / "config.json"
    config.write_text(json.dumps({**FAST, "duration_s": 2.0, "n_groups": 1, "n_max": 3}))
    runlog = root / "sim" / "runlog.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(runlog.parent)]) == EXIT_OK

    def argv(command, out, fmt="csv", config=config):
        argv = [command, "--config", str(config), "--out", str(out), "--format", fmt]
        return argv + ["--input", str(runlog)] if command in ("metrics", "traces") else argv

    return argv


def output_names(command, fmt):
    """The file names of ``_OUTPUTS[command]``: a table's name takes the ``fmt`` suffix."""
    return [name if "." in name else f"{name}.{fmt}" for name in _OUTPUTS[command]]


def fail_last_write(monkeypatch, command, error):
    """Make the command's last write raise ``error``; a table is written before it raises."""
    if command == "datagen":

        def fails(*args):
            raise error("last write")

        monkeypatch.setattr("covis.cli.dataset_jsonl", fails)
        return

    def written_then_fails(path, rows, fmt):
        _write_rows(path, rows, fmt)
        if path.name in ("tracking", "summary", "traces"):  # the last table of every command that writes tables
            raise error("last write")

    monkeypatch.setattr("covis.cli._write_rows", written_then_fails)


class TestFailurePath:
    """A failed run, whatever its exit code, leaves none of its command's files in --out,
    not even an earlier run's; ``main`` alone maps the failure to the exit code."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_outputs_are_what_the_command_writes(self, tmp_path, short_argv, command, fmt):
        out = tmp_path / "out"
        assert main(short_argv(command, out, fmt)) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == sorted(output_names(command, fmt))

    @pytest.mark.parametrize(
        "error, code", [(ConfigError, EXIT_CONFIG), (OSError, EXIT_IO), (ValueError, EXIT_VALIDATION)]
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_last_write_leaves_no_output(self, tmp_path, monkeypatch, short_argv, command, fmt, error, code):
        out = tmp_path / "out"
        assert main(short_argv(command, out, fmt)) == EXIT_OK
        assert list(out.iterdir())
        fail_last_write(monkeypatch, command, error)
        assert main(short_argv(command, out, fmt)) == code
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_refused_config_leaves_no_output(self, tmp_path, short_argv, command):
        out, refused = tmp_path / "out", tmp_path / "refused.json"
        refused.write_text(json.dumps({"frobnicate": True}))
        assert main(short_argv(command, out)) == EXIT_OK
        assert main(short_argv(command, out, config=refused)) == EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_metrics_into_the_simulate_out_keeps_its_files(self, tmp_path, monkeypatch, short_argv, fmt, fails):
        # metrics reads the runlog where simulate wrote it and writes beside it:
        # it shares no file name with simulate, so it neither replaces nor removes one.
        out = tmp_path / "out"
        assert main(short_argv("simulate", out, fmt)) == EXIT_OK
        kept = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(kept) == ["runlog.jsonl", f"tracking.{fmt}"]
        argv = short_argv("metrics", out, fmt)
        argv[argv.index("--input") + 1] = str(out / "runlog.jsonl")
        if fails:
            fail_last_write(monkeypatch, "metrics", ValueError)
        assert main(argv) == (EXIT_VALIDATION if fails else EXIT_OK)
        written = [] if fails else output_names("metrics", fmt)
        assert sorted(p.name for p in out.iterdir()) == sorted([*kept, *written])
        assert {name: (out / name).read_bytes() for name in kept} == kept

    UNKNOWN_SCHEMA = pytest.mark.parametrize(
        "command, message",
        [
            ("metrics", "validation: unknown schema 'covis.other@1'"),
            ("traces", "validation: traces needs a runlog input"),
        ],
    )

    @UNKNOWN_SCHEMA
    def test_unknown_schema_leaves_no_output(self, tmp_path, short_argv, caplog, command, message):
        out, other = tmp_path / "out", tmp_path / "other.jsonl"
        other.write_text(json.dumps({"schema": "covis.other@1"}) + "\n{}\n")
        argv = short_argv(command, out)
        assert main(argv) == EXIT_OK
        argv[argv.index("--input") + 1] = str(other)
        assert main(argv) == EXIT_VALIDATION
        assert message in caplog.text
        assert list(out.iterdir()) == []

    @UNKNOWN_SCHEMA
    def test_unknown_schema_creates_no_out(self, tmp_path, short_argv, caplog, command, message):
        # The header is checked before --out exists, as a config is.
        out, other = tmp_path / "out", tmp_path / "other.jsonl"
        other.write_text(json.dumps({"schema": "covis.other@1"}) + "\n{}\n")
        argv = short_argv(command, out)
        argv[argv.index("--input") + 1] = str(other)
        assert main(argv) == EXIT_VALIDATION
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cleanup_keeps_the_io_exit_code(self, tmp_path, short_argv, command):
        # --out names a file; then a directory stands where the command's last file goes.
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(short_argv(command, out)) == EXIT_IO
        assert out.read_text() == "not a directory"
        out.unlink()
        last = output_names(command, "csv")[-1]
        (out / last).mkdir(parents=True)
        assert main(short_argv(command, out)) == EXIT_IO
        assert [p.name for p in out.iterdir()] == [last]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unmapped_error_propagates_after_removal(self, tmp_path, monkeypatch, short_argv, command):
        out = tmp_path / "out"
        assert main(short_argv(command, out)) == EXIT_OK
        fail_last_write(monkeypatch, command, KeyError)
        with pytest.raises(KeyError, match="last write"):
            main(short_argv(command, out))
        assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# Reference metrics: the object reader and scalar scoring that the column
# evaluator replaced, kept here to pin its outputs. Every edge is a Pose, a
# PoseEstimate and an EdgeRecord, scored with geometry's scalar functions.


def _reference_integer(value, types=(int,)):
    """A node id, ``src``, ``dst`` or ``peer_tick``: only a JSON integer is one.

    A runlog ``t``, ``sigma_q`` and a dataset node's ``fov_deg`` take ``(int, float)``: any JSON number.
    """
    if type(value) not in types:
        raise ValueError(f"{value!r} is not one of {types}")
    return value


def _reference_vector(values):
    """A JSON vector's components: ``true`` and ``false`` are no numbers, though Vec3 and UnitQuat take them."""
    if any(isinstance(c, bool) for c in values):
        raise ValueError(f"{values!r} holds a bool")
    return values


def _reference_pose(d):
    return Pose(Vec3(*_reference_vector(d["p"])), UnitQuat(*_reference_vector(d["q"])))


def _reference_estimate(d):
    sigma_q = _reference_integer(d["sigma_q"], (int, float))
    return PoseEstimate(Vec3(*_reference_vector(d["p_hat"])), Vec3(*_reference_vector(d["sigma_p"])),
                        UnitQuat(*_reference_vector(d["q_hat"])), sigma_q,
                        _reference_integer(d["src"]), _reference_integer(d["dst"]))


def _reference_fusion(nodes, ests, cfg):
    """Free-space Dice/IoU per node: its observed grid fused with the grids of the nodes it estimates."""
    scores = []
    for node_id, node in nodes.items():
        ego, truth = BevGrid.from_base64(node["bev_obs_b64"]), BevGrid.from_base64(node["bev_b64"])
        neighbors = [(BevGrid.from_base64(nodes[e.dst]["bev_obs_b64"]), e) for e in ests if e.src == node_id]
        fused = fuse(ego, neighbors, gate_sigma=cfg.gate_sigma_m)
        scores.append(mask_dice_iou(truth.cells < cfg.bin_threshold, fused.cells < cfg.bin_threshold))
    return scores


def _reference_dataset_records(lines, cfg):
    records, grid_scores, errors = [], [], []
    for no, line in enumerate(lines, start=2):
        try:
            rec = json.loads(line)
            nodes = {_reference_integer(n["id"]): n for n in rec["nodes"]}
            poses = {i: _reference_pose(n["pose"]) for i, n in nodes.items()}
            ests = [_reference_estimate(d) for d in rec.get("estimates", [])]
            edges = []
            for e in ests:
                fov = _reference_integer(nodes[e.src]["fov_deg"], (int, float))
                edges.append(EdgeRecord(relative_pose(poses[e.src], poses[e.dst]), e, fov))
            if ests and all("bev_obs_b64" in n and "bev_b64" in n for n in nodes.values()):
                grid_scores.extend(_reference_fusion(nodes, ests, cfg))
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
            tick = round(_reference_integer(rec["t"], (int, float)) / period)
            pose = _reference_pose(rec["pose_truth"])
            pose_at[(tick, _reference_integer(rec["node_id"]))] = pose
            parsed.append((no, rec, pose))
        except Exception as exc:
            errors.append((no, str(exc)))
    for no, rec, pose in parsed:
        try:
            edges = []
            for d in rec["estimates"]:
                est = _reference_estimate(d)
                peer = pose_at[(_reference_integer(d["peer_tick"]), est.dst)]
                edges.append(EdgeRecord(relative_pose(pose, peer), est, cfg.fov_deg))
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


# What a JSON vector component may hold: numbers inside and beyond the rules' bounds, and no number.
_COMPONENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1, 0, math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.text(max_size=2),
)


@st.composite
def _edge_quats(draw):
    """Quaternions at the UnitQuat rule's edges: off unit by about its 1e-6 tolerance, or by a
    few eps about the 4-eps keep band, and with w == 0 and either sign."""
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    if draw(st.booleans()):
        v[0] = draw(st.sampled_from([0.0, -0.0]))
        v[1 + draw(st.integers(0, 2))] = 0.0
    n = float(np.linalg.norm(v))
    v = v / n if n > 1e-3 else np.array([0.0, 0.0, -1.0, 0.0])
    scale = draw(st.one_of(
        st.floats(1.0 - 1.5e-6, 1.0 + 1.5e-6),
        st.integers(-6, 6).map(lambda k: 1.0 + k * sys.float_info.epsilon / 2.0),
    ))
    return [float(c) * scale * draw(st.sampled_from([1.0, -1.0])) for c in v]


def _vectors(n, good):
    """JSON vectors for a field of n components: ``good`` ones, ones of any component, and ones of any length."""
    return st.one_of(
        good,
        st.lists(_COMPONENTS, min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n + 1),
    )


def _float_vectors(n, good):
    """``_vectors`` with each integer a float, as a run writes it: the traces reference writes
    a position as it reads it, where traces writes every number as a float."""
    return _vectors(n, good).map(lambda v: [float(c) if type(c) is int else c for c in v])


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
            estimate(1, "dst", "3"),  # a node id is a JSON integer, not a string int() takes
            estimate(2, "sigma_q", math.nan),  # NaN fails no "<= 0" guard
            estimate(0, "sigma_q", "0.5"),  # a number is a JSON number, not a string float() takes
            estimate(1, "sigma_q", True),  # nor a bool, which float() reads as 1.0
        ]
        accepted = [
            estimate(0, "q_hat", [0.0, 0.0, 0.0, -1.0 + 5e-7]),  # near unit, w == 0, flipped
        ]
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        busy = [no for no, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) >= 4]
        bad_pose = {len(lines) - 1: pose("q", [1.0, 0.0, 0.0]), len(lines): pose("p", [0.0, 10**400, 0.0])}
        # Ten defects and the two bad poses fill the 1% malformed-line budget of these 1,207 lines.
        for k in range(0, len(defects), 10):
            some = defects[k : k + 10]
            changes = dict(zip(busy[::40], some + accepted))
            broken = tmp_path / f"runlog{k}.jsonl"
            self.corrupt(source, broken, changes | bad_pose)
            got, want = tmp_path / f"got{k}", tmp_path / f"want{k}"
            assert main(["metrics", "--input", str(broken), "--out", str(got)]) == EXIT_OK
            errors = {no for no, _ in _metrics_reference(broken, want)}
            assert set(busy[::40][: len(some)]) | set(bad_pose) <= errors
            assert not errors & set(busy[::40][len(some) : len(some) + len(accepted)])
            assert _metrics_files(got) == _metrics_files(want)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_runlog_keeps_what_the_reference_keeps(self, metrics_inputs, data):
        # The first 30 records of a default runlog, with one line's pose and one of its
        # estimates given values at and beyond the edges of the constructors' rules.
        # From the fourth record on, each has an estimate.
        cfg, _, lines = _read_input(argparse.Namespace(config=None, seed=None,
                                                       input=str(metrics_inputs("runlog-default", 101))))
        lines = list(itertools.islice(lines, 30))
        k = data.draw(st.integers(3, len(lines) - 1), label="line")
        rec = json.loads(lines[k])
        d = rec["estimates"][data.draw(st.integers(0, len(rec["estimates"]) - 1), label="estimate")]
        for target, key, values in (
            (rec["pose_truth"], "p", _vectors(3, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))),
            (rec["pose_truth"], "q", _vectors(4, _edge_quats())),
            (d, "p_hat", _vectors(3, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))),
            (d, "sigma_p", _vectors(3, st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))),
            (d, "q_hat", _vectors(4, _edge_quats())),
            (d, "sigma_q", _COMPONENTS),
        ):
            if data.draw(st.booleans(), label=f"change {key}"):
                target[key] = data.draw(values, label=key)
        lines[k] = json.dumps(rec)
        edges, errors, _ = _edges_from_runlog(lines, cfg)
        records, _, want_errors = _reference_runlog_records(lines, cfg)
        assert [no for no, _ in errors] == sorted(no for no, _ in want_errors)
        want = EdgeColumns.from_records(records)
        for name in ("t_pos", "t_quat", "p_hat", "q_hat", "sigma_p", "fov"):
            assert getattr(edges, name).tobytes() == getattr(want, name).tobytes(), name

    def test_runlog_estimate_of_another_source_is_malformed(self, tmp_path, metrics_inputs):
        # A runlog line logs its own node's estimates. One relabelled to another
        # source would be scored from the wrong pose, so the line keeps no edge.
        source = metrics_inputs("runlog-default", 101)
        lines = source.read_text().splitlines()
        no = next(no for no, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) == 2)

        def relabel(rec):
            rec["estimates"][1]["src"] = (rec["node_id"] + 1) % 3

        self.corrupt(source, tmp_path / "runlog.jsonl", {no: relabel})
        for path, out in ((source, "clean"), (tmp_path / "runlog.jsonl", "relabelled")):
            assert main(["metrics", "--input", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        clean, relabelled = (read_csv(tmp_path / out / "summary.csv")[0] for out in ("clean", "relabelled"))
        assert int(relabelled["malformed_lines"]) == int(clean["malformed_lines"]) + 1
        assert int(relabelled["edges"]) == int(clean["edges"]) - 2

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
        lines = list(lines)  # read once, by both readers
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

    @staticmethod
    def first_refused(lines, cfg):
        """Number of the first line whose JSON, t, pose, node_id or gated traces refuses, else None."""
        period = 1.0 / cfg.superframe_hz
        for no, line in enumerate(lines, start=2):
            try:
                rec = json.loads(line)
                round(_reference_integer(rec["t"], (int, float)) / period)
                _reference_pose(rec["pose_truth"])
                _reference_integer(rec["node_id"])
                if type(rec["gated"]) is not bool:
                    raise ValueError("gated is not a bool")
            except Exception:
                return no
        return None

    # (line index, field, value): the kept and the refused values of each field a
    # line of traces holds, and of an estimate, which traces reads nothing of.
    CHANGES = st.lists(
        st.one_of(
            st.tuples(st.integers(0, 29), st.just("t"), st.one_of(
                st.integers(-2, 3),  # an integer t is at a tick of its own, or at t = 0.0
                st.sampled_from([math.inf, math.nan, 10**400, True, "0.0", None, [0.0]]),
            )),
            st.tuples(st.integers(0, 29), st.just("p"), _float_vectors(3, st.lists(
                st.floats(-10.0, 10.0), min_size=3, max_size=3))),
            st.tuples(st.integers(0, 29), st.just("q"), _float_vectors(4, _edge_quats())),
            st.tuples(st.integers(0, 29), st.just("node_id"), st.one_of(
                st.integers(0, 3), st.just(10**30), st.sampled_from([True, 1.0, "1", None, [1]]),
            )),
            st.tuples(st.integers(0, 29), st.just("gated"), st.sampled_from([True, False, None, 0, 1, "true"])),
            st.tuples(st.integers(0, 29), st.just("estimate"), st.tuples(st.sampled_from(
                ["p_hat", "sigma_p", "q_hat", "sigma_q", "src", "dst", "peer_tick", "estimates"]), _COMPONENTS)),
            st.tuples(st.integers(0, 29), st.just("json"), st.sampled_from(["{", "{}", "[]", "null", '"t"'])),
        ),
        min_size=1, max_size=2, unique_by=lambda change: change[0],
    )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(changes=CHANGES)
    # A bad gated on an earlier line than a bad pose, and the reverse: line 6 is named either way.
    @example(changes=[(4, "gated", None), (12, "p", [math.inf, 0.0, 0.0])])
    @example(changes=[(4, "p", [math.inf, 0.0, 0.0]), (12, "gated", None)])
    def test_first_refused_line_or_the_reference(self, metrics_inputs, caplog, changes):
        # The first 30 records of a default runlog, with one or two lines changed.
        source = metrics_inputs("runlog-default", 101)
        cfg, _, lines = _read_input(argparse.Namespace(config=None, seed=None, input=str(source)))
        lines = list(itertools.islice(lines, 30))
        for k, field, value in changes:
            if field == "json":
                lines[k] = value
                continue
            rec = json.loads(lines[k])
            if field in ("p", "q"):
                rec["pose_truth"][field] = value
            elif field == "estimate":
                key, junk = value
                if key == "estimates":
                    rec["estimates"] = junk
                else:
                    rec["estimates"] = rec["estimates"] or [{}]
                    rec["estimates"][0][key] = junk
            else:
                rec[field] = value
            lines[k] = json.dumps(rec)
        refused = self.first_refused(lines, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            runlog = Path(tmp) / "runlog.jsonl"
            runlog.write_text("\n".join([source.read_text().split("\n", 1)[0], *lines]) + "\n")
            caplog.clear()
            code = main(["traces", "--input", str(runlog), "--out", str(Path(tmp) / "got")])
            if refused is not None:
                assert code == EXIT_VALIDATION
                assert f"validation: line {refused}: " in caplog.text
            else:
                assert code == EXIT_OK, caplog.text
                _traces_reference(runlog, Path(tmp) / "want")
                got = (Path(tmp) / "got" / "traces.csv").read_bytes()
                assert got == (Path(tmp) / "want" / "traces.csv").read_bytes()

    def test_missing_leader_ticks(self, tmp_path, metrics_inputs):
        # Followers keep their rows at ticks without a leader record, with NaN errors.
        header, *lines = metrics_inputs("runlog-default", 101).read_text().strip().split("\n")
        period = 1.0 / RunConfig().superframe_hz

        def in_gap(t):
            return 20 <= round(float(t) / period) < 30

        records = [json.loads(line) for line in lines]
        kept = [line for line, rec in zip(lines, records) if not (rec["node_id"] == 0 and in_gap(rec["t"]))]
        assert len(kept) == len(lines) - 10
        runlog = tmp_path / "runlog.jsonl"
        runlog.write_text("\n".join([header] + kept) + "\n")
        assert main(["traces", "--input", str(runlog), "--out", str(tmp_path / "got")]) == EXIT_OK
        _traces_reference(runlog, tmp_path / "want")
        got = (tmp_path / "got" / "traces.csv").read_bytes()
        assert got == (tmp_path / "want" / "traces.csv").read_bytes()
        followers = [r for r in read_csv(tmp_path / "got" / "traces.csv") if r["node_id"] != "0"]
        gap = [r for r in followers if in_gap(r["t"])]
        assert len(gap) == 20
        for r in followers:
            errors = [float(r["pos_err_m"]), float(r["rot_err_deg"])]
            assert [math.isnan(e) for e in errors] == [in_gap(r["t"])] * 2


class TestRunlogKeys:
    def test_later_record_wins_as_in_the_references(self, tmp_path, metrics_inputs):
        # A follower and a leader record repeated later with a moved pose: the
        # later pose is every reader's pose of that tick and node, while each
        # line still scores its own estimates from its own pose.
        source = metrics_inputs("runlog-formation", 101)
        header, *lines = source.read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        read = {(e["peer_tick"], e["dst"]) for r in records for e in r["estimates"]}
        period = 1.0 / RunConfig().superframe_hz

        def repeat(node):
            k, rec = next((k, r) for k, r in enumerate(records) if r["node_id"] == node and r["t"] > 2.0
                          and len(r["estimates"]) >= 2 and (round(r["t"] / period), node) in read)
            rec["pose_truth"]["p"][0] += 0.5
            lines.insert(k + 40, json.dumps(rec))

        repeat(FormationRun.LEADER)
        repeat(3)
        runlog = tmp_path / "runlog.jsonl"
        runlog.write_text("\n".join([header] + lines) + "\n")
        assert main(["traces", "--input", str(runlog), "--out", str(tmp_path / "got")]) == EXIT_OK
        _traces_reference(runlog, tmp_path / "want")
        got = (tmp_path / "got" / "traces.csv").read_bytes()
        assert got == (tmp_path / "want" / "traces.csv").read_bytes()
        assert main(["metrics", "--input", str(runlog), "--out", str(tmp_path / "got")]) == EXIT_OK
        _metrics_reference(runlog, tmp_path / "want")
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")
        # The repeats reach both outputs.
        for command in ("traces", "metrics"):
            assert main([command, "--input", str(source), "--out", str(tmp_path / "clean")]) == EXIT_OK
        assert (tmp_path / "clean" / "traces.csv").read_bytes() != got
        assert _metrics_files(tmp_path / "clean") != _metrics_files(tmp_path / "got")

    @pytest.mark.parametrize("part", ["peer_tick", "dst"])
    def test_key_beyond_int64_has_no_pose(self, tmp_path, metrics_inputs, caplog, part):
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        no = next(no for no, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) >= 2)
        rec = json.loads(lines[no - 1])
        rec["estimates"][1][part] = 10**30
        lines[no - 1] = json.dumps(rec)
        broken = tmp_path / "runlog.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(broken), "--out", str(tmp_path / "got")]) == EXIT_OK
        est = rec["estimates"][1]
        assert f"line {no}: no pose of peer node {est['dst']} at tick {est['peer_tick']}" in caplog.text
        _metrics_reference(broken, tmp_path / "want")
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")

    def test_key_beyond_int64_finds_its_pose(self, tmp_path, metrics_inputs):
        # A node id beyond int64 is still a JSON integer, and an estimate of it is scored.
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        no = next(no for no, line in enumerate(lines[1:], start=2) if len(json.loads(line)["estimates"]) >= 2)
        rec = json.loads(lines[no - 1])
        est = rec["estimates"][1]
        peer = next(json.loads(line) for line in lines[1:] if json.loads(line)["node_id"] == est["dst"])
        peer.update(node_id=10**30, estimates=[])
        est.update(dst=10**30, peer_tick=round(peer["t"] * RunConfig().superframe_hz))
        lines[no - 1] = json.dumps(rec)
        lines.append(json.dumps(peer))
        runlog = tmp_path / "runlog.jsonl"
        runlog.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(runlog), "--out", str(tmp_path / "got")]) == EXIT_OK
        assert read_csv(tmp_path / "got" / "summary.csv")[0]["malformed_lines"] == "0"
        _metrics_reference(runlog, tmp_path / "want")
        assert _metrics_files(tmp_path / "got") == _metrics_files(tmp_path / "want")


class TestMalformedLineKeepsNoEdge:
    @pytest.mark.parametrize(
        "defect",
        ["peer_lookup", "peer_tick_float", "src_float", "dst_string", "node_id_bool", "t_bool", "p_bool", "p_hat_bool"],
    )
    def test_runlog(self, tmp_path, metrics_inputs, caplog, defect):
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        # Node 1's last line with 3 estimates or more: no later tick reads its pose.
        no = max(k for k, r in enumerate(records, start=2) if r["node_id"] == 1 and len(r["estimates"]) >= 3)
        rec = records[no - 2]
        est = rec["estimates"][1]
        dst = est["dst"]
        if defect == "peer_lookup":
            est["peer_tick"] = 10**6
            message = f"no pose of peer node {dst} at tick 1000000"
        # Each of these once read as the integer it rounds or converts to.
        elif defect == "peer_tick_float":
            est["peer_tick"] = float(est["peer_tick"])
            message = f"peer_tick {est['peer_tick']!r} is not an integer"
        elif defect == "src_float":
            est["src"] += 0.7
            message = f"src {est['src']!r} is not an integer"
        elif defect == "dst_string":
            est["dst"] = str(dst)
            message = f"dst '{dst}' is not an integer"
        elif defect == "node_id_bool":
            rec["node_id"] = True
            message = "node_id True is not an integer"
        # Each of these once read as 1.0.
        elif defect == "p_bool":
            rec["pose_truth"]["p"] = [True, 0, 0]
            message = "p [True, 0, 0] is not 3 numbers"
        elif defect == "p_hat_bool":
            est["p_hat"] = [True, 0, 0]
            message = "p_hat [True, 0, 0] is not 3 numbers"
        else:  # once read as 1.0 s, which put this pose at tick 15
            rec["t"] = True
            message = "t True is not a number"
        lines[no - 1] = json.dumps(rec)
        broken = tmp_path / "runlog.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--input", str(source), "--out", str(tmp_path / "whole")]) == EXIT_OK
        assert main(["metrics", "--input", str(broken), "--out", str(tmp_path / "cut")]) == EXIT_OK
        whole = read_csv(tmp_path / "whole" / "summary.csv")[0]
        cut = read_csv(tmp_path / "cut" / "summary.csv")[0]
        assert int(cut["edges"]) == int(whole["edges"]) - len(rec["estimates"])
        assert cut["malformed_lines"] == "1"
        assert f"line {no}: {message}" in caplog.text

    @pytest.mark.parametrize(
        "defect",
        ["pose_lookup", "fov", "fusion", "src_float", "dst_string", "id_bool", "sigma_q_nan", "fov_bool",
         "fov_string", "bev_nan", "id_repeated", "q_off_unit", "p_inf", "sigma_p_zero", "q_hat_3", "p_hat_inf",
         "bev_empty", "bev_negative_resolution", "p_bool", "p_hat_bool"],
    )
    def test_dataset(self, tmp_path, metrics_inputs, caplog, defect):
        source = metrics_inputs("dataset-default", 101)
        lines = source.read_text().splitlines()
        rec = json.loads(lines[1])

        def every_grid(change):  # change(header, cells) of each grid blob in the group
            for node in rec["nodes"]:
                for key in ("bev_b64", "bev_obs_b64"):
                    raw = base64.b64decode(node[key])
                    node[key] = base64.b64encode(change(raw[:16], raw[16:])).decode("ascii")

        if defect == "pose_lookup":
            rec["estimates"][1]["dst"] = 99
        elif defect == "fov":
            rec["nodes"][-1]["fov_deg"] = 0.0  # only the estimates that node makes fail
        elif defect == "fusion":
            rec["nodes"][-1]["bev_b64"] = "AAAA"
        # Each of these once read as the node it rounds or converts to.
        elif defect == "src_float":
            rec["estimates"][1]["src"] += 0.7
        elif defect == "dst_string":
            rec["estimates"][1]["dst"] = str(rec["estimates"][1]["dst"])
        elif defect == "id_bool":
            next(node for node in rec["nodes"] if node["id"] == 1)["id"] = True
        elif defect == "sigma_q_nan":  # NaN fails no "<= 0" guard
            rec["estimates"][1]["sigma_q"] = math.nan
        # Once read as a 1-degree and a 120-degree camera.
        elif defect == "fov_bool":
            rec["nodes"][-1]["fov_deg"] = True
        elif defect == "fov_string":
            rec["nodes"][-1]["fov_deg"] = "120"
        elif defect == "id_repeated":  # once read as the last node listed, here 5 m away
            again = json.loads(json.dumps(rec["nodes"][0]))
            again["pose"]["p"][0] += 5.0
            rec["nodes"].append(again)
        elif defect == "q_off_unit":
            rec["nodes"][-1]["pose"]["q"] = [c * (1.0 + 1e-3) for c in rec["nodes"][-1]["pose"]["q"]]
        elif defect == "p_inf":
            rec["nodes"][-1]["pose"]["p"][1] = math.inf
        elif defect == "sigma_p_zero":
            rec["estimates"][1]["sigma_p"][2] = 0.0
        elif defect == "q_hat_3":
            rec["estimates"][1]["q_hat"] = rec["estimates"][1]["q_hat"][:3]
        elif defect == "p_hat_inf":
            rec["estimates"][1]["p_hat"][0] = -math.inf
        # Each of these once read as 1.0 and 0.0.
        elif defect == "p_bool":
            rec["nodes"][-1]["pose"]["p"] = [True, False, 0]
        elif defect == "p_hat_bool":
            rec["estimates"][1]["p_hat"] = [True, 0, 0]
        # Each of these was once fused and scored, an empty mask with a Dice of 1.
        elif defect == "bev_empty":
            every_grid(lambda header, cells: bytes(8) + header[8:])
        elif defect == "bev_negative_resolution":
            every_grid(lambda header, cells: header[:8] + (-np.frombuffer(header[8:12], "<f4")).tobytes()
                       + header[12:] + cells)
        else:  # NaN cells fail no "< 0" or "> 1" guard
            raw = base64.b64decode(rec["nodes"][-1]["bev_obs_b64"])
            cells = np.full((len(raw) - 16) // 4, np.nan, dtype="<f4")
            rec["nodes"][-1]["bev_obs_b64"] = base64.b64encode(raw[:16] + cells.tobytes()).decode("ascii")
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
        if defect == "id_repeated":
            assert f"line 2: node id {rec['nodes'][0]['id']} is listed twice" in caplog.text


class TestReadersShareMessages:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("p_hat", [0.1, math.inf, 0.3], "non-finite Vec3 component: inf"),
            ("q_hat", [1.001, 0.0, 0.0, 0.0], "quaternion norm 1.001 outside unit tolerance"),
            ("sigma_p", [0.1, 0.0, 0.3], "sigma_p components must be positive"),
            ("sigma_q", math.nan, "sigma_q must be positive and finite"),
        ],
    )
    def test_one_defect_one_message(self, metrics_inputs, key, value, message):
        # The same defect in an estimate of a runlog line and of a dataset line.
        logged = []
        for name, read in (("runlog-formation", _edges_from_runlog), ("dataset-default", _edges_from_dataset)):
            cfg, _, lines = _read_input(argparse.Namespace(config=None, seed=None, input=str(metrics_inputs(name, 101))))
            lines = list(lines)
            no = next(no for no, line in enumerate(lines, start=2) if json.loads(line)["estimates"])
            rec = json.loads(lines[no - 2])
            rec["estimates"][0][key] = value
            lines[no - 2] = json.dumps(rec)
            _, errors, _ = read(lines, cfg)
            logged.append(errors)
        assert [message] == [m for _, m in logged[0]] == [m for _, m in logged[1]]


class TestInputLines:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="a \t\r\n\x0b\x0c\x1c", max_size=30))
    def test_lines_split_as_the_whole_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.jsonl"
            path.write_bytes(text.encode())
            assert list(_text_lines(path)) == path.read_text().strip().split("\n")

    @staticmethod
    def outputs(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    @pytest.mark.parametrize("name", ["runlog-default", "dataset-default"])
    def test_blank_ends_and_crlf_read_as_the_clean_file(self, tmp_path, metrics_inputs, name):
        source = metrics_inputs(name, 101)
        messy = tmp_path / "messy.jsonl"
        messy.write_bytes(("\n \n" + source.read_text().replace("\n", "\r\n") + "\r\n\n\t\n").encode())
        for command in ("metrics", "traces") if name.startswith("runlog") else ("metrics",):
            for path, out in ((source, "clean"), (messy, "messy")):
                assert main([command, "--input", str(path), "--out", str(tmp_path / command / out)]) == EXIT_OK
            assert self.outputs(tmp_path / command / "messy") == self.outputs(tmp_path / command / "clean")

    @pytest.mark.parametrize("name", ["runlog-default", "dataset-default"])
    def test_blank_line_inside_is_one_malformed_line(self, tmp_path, metrics_inputs, caplog, name):
        source = metrics_inputs(name, 101)
        lines = source.read_text().split("\n")
        lines.insert(5, "")
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines))
        for path, out in ((source, "whole"), (broken, "cut")):
            assert main(["metrics", "--input", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        whole, cut = (read_csv(tmp_path / out / "summary.csv")[0] for out in ("whole", "cut"))
        assert (cut["malformed_lines"], cut["edges"]) == ("1", whole["edges"])
        assert "line 6: Expecting value" in caplog.text
        if name.startswith("runlog"):
            caplog.clear()
            assert main(["traces", "--input", str(broken), "--out", str(tmp_path / "tr")]) == EXIT_VALIDATION
            assert "line 6: Expecting value" in caplog.text

    @pytest.mark.parametrize("name", ["runlog-default", "dataset-default"])
    def test_bad_byte_is_one_malformed_line(self, tmp_path, metrics_inputs, caplog, name):
        # A copy of a record line with one byte replaced by 0xff, put in as line 6.
        source = metrics_inputs(name, 101)
        lines = source.read_bytes().split(b"\n")
        lines.insert(5, lines[5][:40] + b"\xff" + lines[5][41:])
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"\n".join(lines))
        for path, out in ((source, "whole"), (broken, "cut")):
            assert main(["metrics", "--input", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        whole, cut = (read_csv(tmp_path / out / "summary.csv")[0] for out in ("whole", "cut"))
        assert (cut["malformed_lines"], cut["edges"]) == ("1", whole["edges"])
        message = "line 6: 'utf-8' codec can't decode byte 0xff in position 40"
        assert message in caplog.text
        if name.startswith("runlog"):
            caplog.clear()
            assert main(["traces", "--input", str(broken), "--out", str(tmp_path / "tr")]) == EXIT_VALIDATION
            assert message in caplog.text

    def test_bad_byte_in_the_header_names_line_1(self, tmp_path, metrics_inputs, caplog):
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"\xff" + metrics_inputs("dataset-default", 101).read_bytes())
        assert main(["metrics", "--input", str(broken), "--out", str(tmp_path / "m")]) == EXIT_VALIDATION
        assert "line 1: 'utf-8' codec can't decode byte 0xff in position 0" in caplog.text


# Byte edits of an input file: replace a byte, delete one, or insert a short run.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert"]),
        st.floats(0.0, 1.0, exclude_max=True),  # where, as a fraction of the file
        st.sampled_from([b"\xff", b"\x00", b"NaN", b"1e999", b"[", b"]", b"{", b'"', b",", b"\n", b"\r", b"9"]),
    ),
    min_size=1,
    max_size=4,
)


def _edited(data: bytes, edits) -> bytes:
    for kind, where, chunk in edits:
        at = int(where * len(data))
        if kind == "replace":
            data = data[:at] + chunk[:1] + data[at + 1:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        else:
            data = data[:at] + chunk + data[at:]
    return data


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 1 s, 3-node runlog, a 2-group dataset and the config that made them."""
    root = tmp_path_factory.mktemp("small_inputs")
    config = root / "config.json"
    config.write_text(json.dumps({"duration_s": 1.0, "n_groups": 2, "seed": 3}))
    for command in ("simulate", "datagen"):
        assert main([command, "--config", str(config), "--out", str(root / command)]) == EXIT_OK
    return config, root / "simulate" / "runlog.jsonl", root / "datagen" / "dataset.jsonl"


class TestByteEdits:
    """A byte edit of a config ends in exit 0 or 2, and of a runlog or dataset in 0 or 4, never in an unmapped error."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(which=st.sampled_from(["config", "runlog", "dataset"]), edits=_EDITS)
    @example(which="config", edits=[("replace", 0.5, b"\xff")])
    @example(which="runlog", edits=[("insert", 0.5, b"\xff")])
    @example(which="dataset", edits=[("replace", 0.9, b"\xff")])
    def test_edited_input_exits_with_a_mapped_code(self, tmp_path, small_inputs, which, edits):
        config, runlog, dataset = small_inputs
        source = {"config": config, "runlog": runlog, "dataset": dataset}[which]
        edited = Path(tempfile.mkdtemp(dir=tmp_path)) / source.name
        edited.write_bytes(_edited(source.read_bytes(), edits))
        if which == "config":  # every command reads its config first; metrics then reads an input
            runs, codes = [["metrics", "--config", str(edited), "--input", str(runlog)]], (EXIT_OK, EXIT_CONFIG)
        else:
            commands = ("metrics", "traces") if which == "runlog" else ("metrics",)
            runs, codes = [[command, "--input", str(edited)] for command in commands], (EXIT_OK, EXIT_VALIDATION)
        for argv in runs:
            assert main([*argv, "--out", str(edited.parent / argv[0])]) in codes


class TestRunlogFirstFailure:
    @pytest.mark.parametrize("missing, malformed", [(0, 1), (1, 0)], ids=["peer_first", "parse_first"])
    def test_order(self, tmp_path, metrics_inputs, caplog, missing, malformed):
        source = metrics_inputs("runlog-formation", 101)
        lines = source.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        period = 1.0 / RunConfig().superframe_hz
        read = {(e["peer_tick"], e["dst"]) for r in records for e in r["estimates"]}
        # A line with two estimates or more whose pose later lines read.
        no, rec = next(
            (no, r) for no, r in enumerate(records, start=2)
            if len(r["estimates"]) >= 2 and (round(r["t"] / period), r["node_id"]) in read
        )
        dst = rec["estimates"][missing]["dst"]
        rec["estimates"][missing]["peer_tick"] = 10**6
        rec["estimates"][malformed]["sigma_q"] = "0.5"
        lines[no - 1] = json.dumps(rec)
        broken = tmp_path / "runlog.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        for path, out in ((source, "whole"), (broken, "cut")):
            assert main(["metrics", "--input", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        if missing < malformed:
            message = f"no pose of peer node {dst} at tick 1000000"
        else:
            message = "sigma_q '0.5' is not a number"
        assert f"line {no}: {message}" in caplog.text
        # The line still offers its pose: only its own estimates are lost.
        whole, cut = (read_csv(tmp_path / out / "summary.csv")[0] for out in ("whole", "cut"))
        assert cut["malformed_lines"] == "1"
        assert int(cut["edges"]) == int(whole["edges"]) - len(rec["estimates"])
        # traces reads no estimate, so it neither fails nor changes.
        for path, out in ((source, "tr_whole"), (broken, "tr_cut")):
            assert main(["traces", "--input", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "tr_cut" / "traces.csv").read_bytes() == (tmp_path / "tr_whole" / "traces.csv").read_bytes()


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
