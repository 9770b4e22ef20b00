import csv
import json

import pytest

from covis.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from covis.config import ConfigError, RunConfig

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
            ("simulate", "world_extent_m", "large"),
        ],
    )
    def test_out_of_bounds_exits_config_error(self, tmp_path, command, key, value):
        cfg = write_config(tmp_path, n_groups=1, **{key: value})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, seed=7)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "runlog.jsonl").read_bytes() == (out_b / "runlog.jsonl").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

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

    def test_malformed_lines_exit(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"schema": "covis.dataset@1"}) + "\n" + "not json\n" * 5
        )
        rc = main(["metrics", "--input", str(bad), "--out", str(tmp_path / "m")])
        assert rc == EXIT_VALIDATION

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


class TestJsonlFormat:
    def test_summary_jsonl(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "jsonl"]) == EXIT_OK
        lines = (out / "summary.jsonl").read_text().strip().split("\n")
        assert all(json.loads(line)["schema"] == "covis.summary@1" for line in lines)
