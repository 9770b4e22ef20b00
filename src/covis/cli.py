"""Command-line entry point for reproducible experiments and reports.

Subcommands::

    simulate   closed-loop formation run -> runlog.jsonl + summary.csv
    metrics    evaluate a dataset or runlog -> categories.csv, auc.csv, summary.csv
    datagen    sample synthetic groups -> dataset.jsonl
    netbench   pure network stress run -> events.jsonl, trace.jsonl, capture.jsonl, summary.csv
    homing     record-then-replay run -> keyframes.csv, summary.csv
    traces     plot-ready per-tick columns from a runlog -> traces.csv

On a runlog, ``metrics`` and ``traces`` share one checked pose pass
(``_runlog_poses``); ``metrics`` skips a bad line, ``traces`` exits on the first.

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
import time
from array import array
from pathlib import Path

import numpy as np

from .bev import BevGrid, fuse
from .config import ConfigError, RunConfig
from .estimator import PoseEstimate
from .geometry import relative_pose_rows, unit_quat_rows, yaw_rows
from .metrics import EdgeColumns, evaluate_records, mask_dice_iou
from .netsim import BroadcastNode, events_to_jsonl, summarize
from .scenario import (
    DATASET_SCHEMA,
    RUNLOG_SCHEMA,
    FormationRun,
    dataset_jsonl,
    follower_error_rows,
    follower_offsets,
    gen_world,
    run_homing,
    runlog_jsonl,
    sample_groups,
    scheduler_from_config,
    simulator_from_config,
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


# Keys that steer only the readers, so a runlog header never overrides them.
_READER_KEYS = ("youden_labeling", "youden_error_threshold_m", "gate_sigma_m", "bin_threshold")


def _read_input(args) -> tuple[RunConfig, str, list[str]]:
    """Config, header schema and record lines of a JSONL input.

    A runlog is read with the config in its header: ``--config`` supplies
    only the reader keys, and a conflict on any other key is logged.
    """
    cfg = _load_config(args)
    lines = Path(args.input).read_text().strip().split("\n")
    header = json.loads(lines[0])
    if not isinstance(header, dict):
        raise ValueError("header line is not a JSON object")
    schema = header.get("schema", "")
    if schema == RUNLOG_SCHEMA and "config" in header:
        own = RunConfig.from_dict(header["config"])
        if args.config:
            ours, theirs = cfg.to_dict(), own.to_dict()
            differ = [k for k in ours if k not in _READER_KEYS and ours[k] != theirs[k]]
            if differ:
                log.warning("--config differs from the runlog header on %s; using the header", differ)
        cfg = own.replace(**{k: getattr(cfg, k) for k in _READER_KEYS})
    return cfg, schema, lines[1:]


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
    run = FormationRun(cfg)  # refuses a config that cannot run before any output exists
    out = _out_dir(args)
    records, events = run.run()
    (out / "runlog.jsonl").write_text(runlog_jsonl(cfg, records))
    stats = tracking_errors(records, follower_offsets(cfg), skip_s=10.0)
    rows = [
        {"schema": "covis.summary@1", "node_id": f, "role": "follower", **s}
        for f, s in sorted(stats.items())
    ]
    _write_rows(out / "summary", rows, args.format)
    log.info("simulate: %d tick records, %d network events", len(records), len(events))
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics


class _EdgeReader:
    """Pose and estimate rows of a JSONL input, each tagged with its line.

    A line's rows are added only once the whole line has parsed. The checks
    of the Vec3, UnitQuat, PoseEstimate and EdgeRecord constructors then run
    on all rows at once, and a line with any failing row keeps no edge.
    """

    def __init__(self):
        self.errors: dict[int, str] = {}  # line number -> first failure
        self.pose_values, self.pose_line = array("d"), []
        # Per estimate: p_hat, sigma_p, q_hat, sigma_q, fov, and its two pose rows.
        self.est_values, self.est_line, self.pairs = array("d"), [], array("q")

    def add(self, no: int, poses: array, estimates: array, pairs: array) -> None:
        """Rows of one line that parsed whole: 7 numbers per pose, 12 per estimate, 2 per pair."""
        self.pose_values += poses
        self.pose_line += [no] * (len(poses) // 7)
        self.est_values += estimates
        self.est_line += [no] * (len(pairs) // 2)
        self.pairs += pairs

    def _charge(self, line_of: list[int], checks) -> np.ndarray:
        failed = np.zeros(len(line_of), dtype=bool)
        for mask, message in checks:
            for row in np.flatnonzero(mask):
                self.errors.setdefault(line_of[row], message)
            failed |= mask
        return failed

    def check_poses(self) -> np.ndarray:
        """Check every pose row; returns the rows that pass."""
        rows = np.frombuffer(self.pose_values, dtype=float).reshape(-1, 7)
        self.q, q_ok = unit_quat_rows(rows[:, 3:])
        self.p = rows[:, :3]
        return ~self._charge(self.pose_line, [
            (~np.isfinite(self.p).all(axis=1), "non-finite position component"),
            (~q_ok, "quaternion norm outside unit tolerance"),
        ])

    def check_estimates(self) -> None:
        self.est = np.frombuffer(self.est_values, dtype=float).reshape(-1, 12)
        self.q_hat, q_ok = unit_quat_rows(self.est[:, 6:10])
        fov = self.est[:, 11]
        self._charge(self.est_line, [
            (~np.isfinite(self.est[:, :6]).all(axis=1), "non-finite p_hat or sigma_p component"),
            ((self.est[:, 3:6] <= 0.0).any(axis=1), "sigma_p components must be positive"),
            (~q_ok, "q_hat norm outside unit tolerance"),
            (self.est[:, 10] <= 0.0, "sigma_q must be positive"),
            (~((0.0 < fov) & (fov <= 180.0)), "fov_deg must be in (0, 180]"),
        ])

    def columns(self) -> tuple[EdgeColumns, list[tuple[int, str]]]:
        """Edges of the lines that passed, and (line, message) of those that did not."""
        keep = np.array([no not in self.errors for no in self.est_line], dtype=bool)
        i, j = np.frombuffer(self.pairs, dtype=np.int64).reshape(-1, 2)[keep].T
        t_pos, t_quat = relative_pose_rows(self.p[i], self.q[i], self.p[j], self.q[j])
        est = self.est[keep]
        columns = EdgeColumns(t_pos, t_quat, est[:, :3], self.q_hat[keep], est[:, 3:6], est[:, 11])
        return columns, sorted(self.errors.items())


def _numbers(values, n: int, name: str) -> array:
    """``values`` as n floats; anything but a number raises, as in Vec3 and UnitQuat."""
    row = array("d", values)
    if len(row) != n:
        raise ValueError(f"{name} has {len(row)} components, expected {n}")
    return row


def _pose_numbers(d: dict) -> array:
    return _numbers(d["p"], 3, "position") + _numbers(d["q"], 4, "quaternion")


def _estimate_numbers(d: dict) -> tuple[int, int, array]:
    """src, dst and the p_hat, sigma_p, q_hat and sigma_q numbers of a logged estimate."""
    row = _numbers(d["p_hat"], 3, "p_hat") + _numbers(d["sigma_p"], 3, "sigma_p")
    row += _numbers(d["q_hat"], 4, "q_hat")
    row.append(float(d["sigma_q"]))
    return int(d["src"]), int(d["dst"]), row


def _edges_from_dataset(lines: list[str], cfg: RunConfig):
    reader = _EdgeReader()
    fusing = []  # (line, nodes, estimates) of groups that carry grids
    for no, line in enumerate(lines, start=2):  # header was line 1
        try:
            rec = json.loads(line)
            nodes = {n["id"]: n for n in rec["nodes"]}
            first = len(reader.pose_line)
            row_of = {node_id: first + k for k, node_id in enumerate(nodes)}
            poses = array("d")
            for node in nodes.values():
                poses += _pose_numbers(node["pose"])
            ests = rec.get("estimates", [])
            values, pairs = array("d"), array("q")
            for d in ests:
                src, dst, numbers = _estimate_numbers(d)
                if src not in row_of or dst not in row_of:
                    raise LookupError(f"estimate {src}->{dst} names a node the group lacks")
                values += numbers
                values.append(float(nodes[src]["fov_deg"]))
                pairs += array("q", (row_of[src], row_of[dst]))
        except Exception as exc:  # malformed line: report, keep going
            reader.errors[no] = str(exc)
            continue
        reader.add(no, poses, values, pairs)
        if ests and all("bev_obs_b64" in n and "bev_b64" in n for n in nodes.values()):
            fusing.append((no, nodes, ests))
    reader.check_poses()
    reader.check_estimates()
    grid_scores: list[tuple[float, float]] = []
    for no, nodes, ests in fusing:
        if no in reader.errors:
            continue
        try:
            grid_scores.extend(_fusion_scores(nodes, ests, cfg))
        except Exception as exc:
            reader.errors[no] = str(exc)
    return *reader.columns(), grid_scores


def _fusion_scores(nodes, ests, cfg) -> list[tuple[float, float]]:
    """Free-space Dice/IoU of fused observed grids against each node's truth."""
    out = []
    by_src: dict[int, list[PoseEstimate]] = {}
    for d in ests:
        est = PoseEstimate.from_dict(d)
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


def _runlog_poses(lines: list[str], cfg: RunConfig) -> tuple[_EdgeReader, list, dict]:
    """Pose pass of a runlog: (reader, [(line, record)], (tick, node id) -> pose row)."""
    reader = _EdgeReader()
    period = 1.0 / cfg.superframe_hz
    keys, parsed = [], []
    for no, line in enumerate(lines, start=2):  # header was line 1
        try:
            rec = json.loads(line)
            key = (round(rec["t"] / period), rec["node_id"])
            hash(key)  # an unhashable node id fails here, on its own line
            pose = _pose_numbers(rec["pose_truth"])
        except Exception as exc:
            reader.errors[no] = str(exc)
            continue
        reader.add(no, pose, array("d"), array("q"))
        keys.append(key)
        parsed.append((no, rec))
    ok = reader.check_poses()
    # Pose row k is parsed record k's; a later record of the same tick and node wins.
    return reader, parsed, {key: row for row, key in enumerate(keys) if ok[row]}


def _edges_from_runlog(lines: list[str], cfg: RunConfig):
    reader, parsed, pose_at = _runlog_poses(lines, cfg)
    for row, (no, rec) in enumerate(parsed):
        if no in reader.errors:
            continue
        try:
            values, pairs = array("d"), array("q")
            for d in rec["estimates"]:
                _, dst, numbers = _estimate_numbers(d)
                peer = pose_at.get((d["peer_tick"], dst))
                if peer is None:
                    raise LookupError(f"no pose of peer node {dst} at tick {d['peer_tick']}")
                values += numbers
                values.append(cfg.fov_deg)
                pairs += array("q", (row, peer))
        except Exception as exc:
            reader.errors[no] = str(exc)
            continue
        reader.add(no, array("d"), values, pairs)
    reader.check_estimates()
    return *reader.columns(), []


def cmd_metrics(args) -> int:
    started = time.perf_counter()
    cfg, schema, lines = _read_input(args)
    out = _out_dir(args)
    if schema == DATASET_SCHEMA:
        edges, errors, grid_scores = _edges_from_dataset(lines, cfg)
    elif schema == RUNLOG_SCHEMA:
        edges, errors, grid_scores = _edges_from_runlog(lines, cfg)
    else:
        log.error("unknown schema %r", schema)
        return EXIT_VALIDATION
    for no, msg in errors:
        log.error("line %d: %s", no, msg)
    if len(errors) > 0.01 * max(1, len(lines)):
        log.error("%d malformed lines out of %d", len(errors), len(lines))
        return EXIT_VALIDATION
    if not len(edges):
        log.error("no usable edge records")
        return EXIT_VALIDATION

    read = time.perf_counter()
    report = evaluate_records(
        edges,
        labeling=cfg.youden_labeling,
        error_threshold=cfg.youden_error_threshold_m,
    )
    scored = time.perf_counter()
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
            "edges": len(edges),
            "youden_threshold": report.reject_threshold,
            "auc_excluded_edges": report.auc.excluded,
            "malformed_lines": len(errors),
        }
    ]
    if grid_scores:
        summary[0]["dice"] = float(np.mean([d for d, _ in grid_scores]))
        summary[0]["iou"] = float(np.mean([i for _, i in grid_scores]))
    _write_rows(out / "summary", summary, args.format)
    log.info(
        "metrics: %d edges scored, %d malformed lines; read %.3f s, score %.3f s, write %.3f s",
        len(edges), len(errors), read - started, scored - read, time.perf_counter() - scored,
    )
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
    (out / "dataset.jsonl").write_text(dataset_jsonl(cfg, groups))
    return EXIT_OK


def cmd_netbench(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    sim = simulator_from_config(cfg)
    capture: list[str] = []
    sim.capture_sink = lambda t, wire: capture.append(
        json.dumps({"t": t, "frame_b64": base64.b64encode(wire).decode("ascii")})
    )
    roster = tuple(range(cfg.n_nodes))
    behaviors = []
    for i in range(cfg.n_nodes):
        node = BroadcastNode(
            i,
            payload_bytes=cfg.payload_bytes,
            roster=roster,
            scheduler=scheduler_from_config(cfg, i),
        )
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
    cfg, schema, lines = _read_input(args)
    out = _out_dir(args)
    if schema != RUNLOG_SCHEMA:
        log.error("traces needs a runlog input")
        return EXIT_VALIDATION
    reader, parsed, pose_at = _runlog_poses(lines, cfg)
    for no, rec in parsed:
        if not isinstance(rec["node_id"], int):
            reader.errors.setdefault(no, f"node_id {rec['node_id']!r} is not an integer")
        elif "gated" not in rec:
            reader.errors.setdefault(no, "record has no 'gated'")
    if reader.errors:  # the first bad line ends the command
        log.error("line %d: %s", *min(reader.errors.items()))
        return EXIT_VALIDATION
    keys = sorted(pose_at)
    rows = [pose_at[key] for key in keys]
    offsets = follower_offsets(cfg)
    leader_at = {tick: row for (tick, node), row in pose_at.items() if node == FormationRun.LEADER}
    scored = [k for k, (tick, node) in enumerate(keys) if node in offsets and tick in leader_at]
    f, lead = [rows[k] for k in scored], [leader_at[keys[k][0]] for k in scored]
    pos_err, rot_err = np.full(len(keys), math.nan), np.full(len(keys), math.nan)
    pos_err[scored], rot_err[scored] = follower_error_rows(
        reader.p[f], reader.q[f], reader.p[lead], reader.q[lead], [offsets[keys[k][1]] for k in scored]
    )
    xyz, yaw = reader.p[rows].tolist(), yaw_rows(reader.q[rows]).tolist()
    errors = zip(pos_err.tolist(), rot_err.tolist())
    traces = [
        {"schema": "covis.traces@1", "t": float(parsed[row][1]["t"]), "node_id": node, "x_m": x, "y_m": y,
         "yaw_rad": a, "gated": parsed[row][1]["gated"], "pos_err_m": pos, "rot_err_deg": rot}
        for (_, node), row, (x, y, _), a, (pos, rot) in zip(keys, rows, xyz, yaw, errors)
    ]
    _write_rows(out / "traces", traces, args.format)
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
