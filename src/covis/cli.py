"""Command-line entry point for reproducible experiments and reports.

Subcommands::

    simulate   closed-loop formation run -> runlog.jsonl + summary.csv
    metrics    evaluate a dataset or runlog -> categories.csv, auc.csv, summary.csv
    datagen    sample synthetic groups -> dataset.jsonl
    netbench   pure network stress run -> events.jsonl, trace.jsonl, capture.jsonl, summary.csv
    homing     record-then-replay run -> keyframes.csv, summary.csv
    traces     plot-ready per-tick columns from a runlog -> traces.csv

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation error.
Log level comes from the COVIS_LOG_LEVEL environment variable
(error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import base64
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bev import BevGrid, fuse
from .config import ConfigError, RunConfig
from .estimator import PoseEstimate
from .geometry import Pose, UnitQuat, Vec3, relative_pose, rot_geodesic_deg
from .metrics import EdgeRecord, evaluate_records, mask_dice_iou
from .netsim import BroadcastNode, Medium, Simulator, events_to_jsonl, summarize
from .scenario import (
    DATASET_SCHEMA,
    RUNLOG_SCHEMA,
    FormationRun,
    dataset_jsonl,
    follower_offsets,
    gen_world,
    profile_from_config,
    run_formation,
    run_homing,
    runlog_jsonl,
    sample_groups,
    tracking_errors,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

log = logging.getLogger("covis.cli")

_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("COVIS_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LEVELS.get(level, logging.WARNING), format="%(name)s: %(message)s")


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_rows(path: Path, rows: list[dict], fmt: str) -> None:
    """Rows as CSV (header row carries the column names) or JSONL."""
    if fmt == "jsonl":
        path = path.with_suffix(".jsonl")
        path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
        return
    path = path.with_suffix(".csv")
    if not rows:
        path.write_text("")
        return
    fields = list(rows[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    records, events = run_formation(cfg)
    (out / "runlog.jsonl").write_text(runlog_jsonl(cfg, records))
    stats = tracking_errors(records, follower_offsets(cfg), skip_s=10.0)
    rows = [
        {
            "schema": "covis.summary@1",
            "node_id": f,
            "role": "follower",
            "mean_abs_pos_m": s["mean_abs_pos_m"],
            "median_pos_m": s["median_pos_m"],
            "mean_abs_rot_deg": s["mean_abs_rot_deg"],
            "median_rot_deg": s["median_rot_deg"],
            "mean_vel_mps": s["mean_vel_mps"],
        }
        for f, s in sorted(stats.items())
    ]
    _write_rows(out / "summary", rows, args.format)
    log.info("simulate: %d tick records, %d network events", len(records), len(events))
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics


def _records_from_dataset(lines: list[str], cfg: RunConfig):
    records: list[EdgeRecord] = []
    grid_scores: list[tuple[float, float]] = []
    errors: list[tuple[int, str]] = []
    for no, line in enumerate(lines, start=2):  # header was line 1
        try:
            rec = json.loads(line)
            nodes = {n["id"]: n for n in rec["nodes"]}
            poses = {i: Pose(Vec3(*n["pose"]["p"]), UnitQuat(*n["pose"]["q"])) for i, n in nodes.items()}
            ests = [PoseEstimate.from_dict(d) for d in rec.get("estimates", [])]
            for est in ests:
                truth = relative_pose(poses[est.src], poses[est.dst])
                records.append(EdgeRecord(truth, est, float(nodes[est.src]["fov_deg"])))
            if ests and all("bev_obs_b64" in n and "bev_b64" in n for n in nodes.values()):
                grid_scores.extend(_fusion_scores(nodes, ests, cfg))
        except Exception as exc:  # malformed line: report, keep going
            errors.append((no, str(exc)))
    return records, grid_scores, errors


def _fusion_scores(nodes, ests, cfg) -> list[tuple[float, float]]:
    """Free-space Dice/IoU of fused observed grids against each node's truth."""
    out = []
    by_src: dict[int, list[PoseEstimate]] = {}
    for est in ests:
        by_src.setdefault(est.src, []).append(est)
    # Each node's grids are decoded once, then shared by all its in-edges.
    grids = {
        node_id: (BevGrid.from_base64(node["bev_b64"]), BevGrid.from_base64(node["bev_obs_b64"]))
        for node_id, node in nodes.items()
    }
    for node_id, (truth, ego) in grids.items():
        neighbors = [(grids[e.dst][1], e) for e in by_src.get(node_id, [])]
        fused = fuse(ego, neighbors, gate_sigma=cfg.gate_sigma_m)
        t_free = truth.cells < cfg.bin_threshold
        out.append(mask_dice_iou(t_free, fused.cells < cfg.bin_threshold))
    return out


def _records_from_runlog(lines: list[str], cfg: RunConfig):
    records: list[EdgeRecord] = []
    errors: list[tuple[int, str]] = []
    period = 1.0 / cfg.superframe_hz
    pose_at: dict[tuple[int, int], Pose] = {}
    parsed = []
    for no, line in enumerate(lines, start=2):
        try:
            rec = json.loads(line)
            tick = round(rec["t"] / period)
            pose = Pose(Vec3(*rec["pose_truth"]["p"]), UnitQuat(*rec["pose_truth"]["q"]))
            pose_at[(tick, rec["node_id"])] = pose
            parsed.append((no, tick, rec, pose))
        except Exception as exc:
            errors.append((no, str(exc)))
    for no, tick, rec, pose in parsed:
        try:
            for d in rec["estimates"]:
                est = PoseEstimate.from_dict(d)
                peer_pose = pose_at[(d["peer_tick"], est.dst)]
                truth = relative_pose(pose, peer_pose)
                records.append(EdgeRecord(truth, est, cfg.fov_deg))
        except Exception as exc:
            errors.append((no, str(exc)))
    return records, [], errors


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    src = Path(args.input)
    if not src.exists():
        log.error("input not found: %s", src)
        return EXIT_IO
    lines = src.read_text().strip().split("\n")
    try:
        header = json.loads(lines[0])
        schema = header.get("schema", "")
    except json.JSONDecodeError:
        log.error("missing or malformed header line")
        return EXIT_VALIDATION
    if schema == DATASET_SCHEMA:
        records, grid_scores, errors = _records_from_dataset(lines[1:], cfg)
    elif schema == RUNLOG_SCHEMA:
        records, grid_scores, errors = _records_from_runlog(lines[1:], cfg)
    else:
        log.error("unknown schema %r", schema)
        return EXIT_VALIDATION
    for no, msg in errors:
        log.error("line %d: %s", no, msg)
    if len(errors) > 0.01 * max(1, len(lines) - 1):
        log.error("%d malformed lines out of %d", len(errors), len(lines) - 1)
        return EXIT_VALIDATION
    if not records:
        log.error("no usable edge records")
        return EXIT_VALIDATION

    report = evaluate_records(
        records,
        labeling=cfg.youden_labeling,
        error_threshold=cfg.youden_error_threshold_m,
    )
    _write_rows(
        out / "categories",
        [
            {
                "schema": "covis.categories@1",
                "category": c.category,
                "count": c.count,
                "median_pos_m": c.median_pos,
                "median_rot_deg": c.median_rot,
            }
            for c in report.categories
        ],
        args.format,
    )
    _write_rows(
        out / "auc",
        [
            {"schema": "covis.auc@1", "threshold_deg": t, "auc": v}
            for t, v in zip(report.auc.thresholds_deg, report.auc.values)
        ],
        args.format,
    )
    summary = [
        {
            "schema": "covis.metrics_summary@1",
            "edges": len(records),
            "youden_threshold": report.reject_threshold,
            "auc_excluded_edges": report.auc.excluded,
            "malformed_lines": len(errors),
        }
    ]
    if grid_scores:
        summary[0]["dice"] = float(np.mean([d for d, _ in grid_scores]))
        summary[0]["iou"] = float(np.mean([i for _, i in grid_scores]))
    _write_rows(out / "summary", summary, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# datagen / netbench / homing / traces


def cmd_datagen(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    world = gen_world(cfg.seed, cfg.world_extent_m, cfg.world_rooms, cfg.world_resolution_m)
    groups = sample_groups(
        world,
        cfg.n_groups,
        n_max=cfg.n_max,
        d_max=cfg.d_max_m,
        fov_deg=cfg.fov_deg,
        seed=cfg.seed,
        bev_extent=cfg.bev_extent_m,
        bev_resolution=cfg.bev_resolution_m,
    )
    profile = None if cfg.estimator == "oracle" else profile_from_config(cfg)
    text = dataset_jsonl(groups, seed=cfg.seed, profile=profile)
    if cfg.estimator == "oracle":
        text = _attach_oracle_estimates(text, groups, cfg)
    (out / "dataset.jsonl").write_text(text)
    return EXIT_OK


def _attach_oracle_estimates(text: str, groups, cfg: RunConfig) -> str:
    from .estimator import Observation, estimate_oracle

    lines = text.strip().split("\n")
    out_lines = [lines[0]]
    for line, group in zip(lines[1:], groups):
        rec = json.loads(line)
        ests = []
        for a, b in group.directed_pairs():
            e = estimate_oracle(
                Observation(a.node_id, a.pose, a.fov_deg, b""),
                Observation(b.node_id, b.pose, b.fov_deg, b""),
                sigma_floor=cfg.sigma_floor,
            )
            ests.append(e.to_dict())
        rec["estimates"] = ests
        out_lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out_lines) + "\n"


def cmd_netbench(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    medium = Medium(
        bitrate=cfg.bitrate_bps,
        base_loss=cfg.base_loss,
        loss_slope=cfg.loss_slope,
        propagation=cfg.propagation_s,
    )
    sim = Simulator(medium, seed=cfg.seed, superframe_hz=cfg.superframe_hz)
    capture: list[str] = []
    sim.capture_sink = lambda t, wire: capture.append(
        json.dumps({"t": t, "frame_b64": base64.b64encode(wire).decode("ascii")})
    )
    roster = tuple(range(cfg.n_nodes))
    behaviors = []
    for i in range(cfg.n_nodes):
        node = BroadcastNode(
            i,
            n_slots=cfg.n_slots,
            payload_bytes=cfg.payload_bytes,
            roster=roster,
            superframe_hz=cfg.superframe_hz,
        )
        node.scheduler.high_watermark = cfg.high_watermark
        node.scheduler.low_watermark = cfg.low_watermark
        node.scheduler.loss_window = cfg.loss_window_s
        node.scheduler.max_divisor = cfg.max_divisor
        node.scheduler.loss_aggregate = cfg.loss_aggregate
        behaviors.append(node)
        sim.add_node(node)
    events = sim.run(cfg.duration_s)
    (out / "events.jsonl").write_text(
        json.dumps({"schema": "covis.events@1"}) + "\n" + events_to_jsonl(events)
    )
    capture_header = json.dumps({"schema": "covis.capture@1"})
    (out / "capture.jsonl").write_text("\n".join([capture_header] + capture) + "\n")
    trace_lines = [json.dumps({"schema": "covis.trace@1"})] + [
        json.dumps({"node_id": b.node_id, **sample}, sort_keys=True)
        for b in behaviors
        for sample in b.trace
    ]
    (out / "trace.jsonl").write_text("\n".join(trace_lines) + "\n")
    mean_div = {
        b.node_id: float(np.mean([s["divisor"] for s in b.trace])) if b.trace else 1.0
        for b in behaviors
    }
    rows = [
        {"schema": "covis.netbench@1", **row} for row in summarize(events, mean_div)
    ]
    _write_rows(out / "summary", rows, args.format)
    return EXIT_OK


def cmd_homing(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    result = run_homing(cfg)
    rows = [
        {
            "schema": "covis.homing@1",
            "keyframe": i,
            "arrival_error_m": err,
            "within_reach": err < cfg.eps_reach_m,
        }
        for i, err in enumerate(result.arrival_errors)
    ]
    _write_rows(out / "keyframes", rows, args.format)
    summary = [
        {
            "schema": "covis.homing_summary@1",
            "keyframes": len(result.keyframes),
            "completed": result.completed,
            "median_cross_track_m": float(np.median(result.cross_track)) if result.cross_track else 0.0,
            "max_cross_track_m": float(np.max(result.cross_track)) if result.cross_track else 0.0,
        }
    ]
    _write_rows(out / "summary", summary, args.format)
    return EXIT_OK


def cmd_traces(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    src = Path(args.input)
    if not src.exists():
        log.error("input not found: %s", src)
        return EXIT_IO
    lines = src.read_text().strip().split("\n")
    try:
        header = json.loads(lines[0])
        if header.get("schema") != RUNLOG_SCHEMA:
            log.error("traces needs a runlog input")
            return EXIT_VALIDATION
    except json.JSONDecodeError:
        return EXIT_VALIDATION
    offsets = follower_offsets(cfg)
    by_tick: dict[float, dict[int, dict]] = {}
    for line in lines[1:]:
        rec = json.loads(line)
        by_tick.setdefault(rec["t"], {})[rec["node_id"]] = rec
    rows = []
    for t in sorted(by_tick):
        recs = by_tick[t]
        leader = recs.get(FormationRun.LEADER)
        for node_id in sorted(recs):
            rec = recs[node_id]
            p = rec["pose_truth"]["p"]
            row = {
                "schema": "covis.traces@1",
                "t": t,
                "node_id": node_id,
                "x_m": p[0],
                "y_m": p[1],
                "yaw_rad": UnitQuat(*rec["pose_truth"]["q"]).yaw(),
                "gated": rec["gated"],
                "pos_err_m": math.nan,
                "rot_err_deg": math.nan,
            }
            if leader is not None and node_id in offsets:
                fp = Pose(Vec3(*p), UnitQuat(*rec["pose_truth"]["q"]))
                lp = Pose(
                    Vec3(*leader["pose_truth"]["p"]), UnitQuat(*leader["pose_truth"]["q"])
                )
                rel = relative_pose(fp, lp)
                row["pos_err_m"] = (rel.position - offsets[node_id].position).norm()
                row["rot_err_deg"] = rot_geodesic_deg(rel.rotation, offsets[node_id].rotation)
            rows.append(row)
    _write_rows(out / "traces", rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        if needs_input:
            p.add_argument("--input", required=True, help="input JSONL file")

    common(sub.add_parser("simulate", help="closed-loop formation run"))
    common(sub.add_parser("metrics", help="evaluate a dataset or runlog"), needs_input=True)
    common(sub.add_parser("datagen", help="sample synthetic observation groups"))
    common(sub.add_parser("netbench", help="network stress run"))
    common(sub.add_parser("homing", help="record-then-replay keyframe homing"))
    common(sub.add_parser("traces", help="plot-ready columns from a runlog"), needs_input=True)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "metrics": cmd_metrics,
    "datagen": cmd_datagen,
    "netbench": cmd_netbench,
    "homing": cmd_homing,
    "traces": cmd_traces,
}


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("i/o: %s", exc)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        log.error("validation: %s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
