"""Command-line entry point for reproducible experiments and reports.

Subcommands::

    simulate   closed-loop formation run -> runlog.jsonl + tracking.csv
    metrics    evaluate a dataset or runlog -> categories.csv, auc.csv, summary.csv
    datagen    sample synthetic groups -> dataset.jsonl
    netbench   pure network stress run -> events.jsonl, trace.jsonl, capture.jsonl, summary.csv
    homing     record-then-replay run -> keyframes.csv, summary.csv
    traces     plot-ready per-tick columns from a runlog -> traces.csv

Inputs are read one line at a time. On a dataset, ``metrics`` builds each
line's poses and estimates with the library constructors, whose checks are the
line's checks, and fuses the line's grids before it reads the next line, so
only the numbers scoring needs outlive a line. On a runlog, ``metrics`` and
``traces`` share one pass (``_RunlogReader``) that keeps each line's numbers and
never its decoded object, and checks them as whole columns at the end;
``metrics`` skips a bad line, ``traces`` exits on the first.
``simulate`` and ``netbench`` write their logs as the run goes. A run that
fails, whatever its exit code, removes every file its command writes.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation error.
A command raises on failure, and ``main`` alone maps the error to its code.
Log level comes from the COVIS_LOG_LEVEL environment variable
(error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bev import BevGrid, fuse
from .config import ConfigError, RunConfig
from .estimator import PoseEstimate
from .geometry import UnitQuat, Vec3, relative_pose_rows, unit_quat_rows, yaw_rows
from .metrics import EdgeColumns, evaluate_records, mask_dice_iou
from .netsim import SimEvent, capture_line, summarize
from .scenario import (
    DATASET_SCHEMA,
    RUNLOG_SCHEMA,
    FormationRun,
    dataset_jsonl,
    follower_error_rows,
    follower_offsets,
    gen_world,
    jsonl,
    network_from_config,
    run_homing,
    runlog_header,
    runlog_line,
    sample_groups,
    tracking_stats,
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


def _text_lines(path) -> Iterator[str]:
    """The lines of ``Path(path).read_text().strip().split("\\n")``, read one at a time.

    Blank lines before the first text line and after the last are dropped, the
    text is stripped at both ends, and a blank line in between is kept.
    """
    with open(path) as file:
        held: list[str] = []  # the latest text line, then the blank lines read after it
        for line in file:
            line = line.removesuffix("\n")
            if line.strip():
                yield from held
                held = [line if held else line.lstrip()]
            elif held:
                held.append(line)
        yield held[0].rstrip() if held else ""


def _read_input(args) -> tuple[RunConfig, str, Iterator[str]]:
    """Config, header schema and record lines of a JSONL input.

    The header is read here; the record lines are read as they are taken.
    A runlog is read with the config in its header: ``--config`` supplies
    only the reader keys, and a conflict on any other key is logged.
    """
    cfg = _load_config(args)
    lines = _text_lines(args.input)
    header = json.loads(next(lines))
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
    return cfg, schema, lines


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_lines(file, lines: Iterable[str]) -> None:
    """Each line and its newline, 2,048 lines to a write, so no more than that is ever joined."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, 2048)):
        file.write("\n".join([*chunk, ""]))


def _write_rows(path: Path, rows: list[dict], fmt: str) -> None:
    """Rows as CSV (header row carries the column names) or JSONL, where a non-finite number is null."""
    path = path.with_suffix(f".{fmt}")
    if fmt == "jsonl":
        rows = ({k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in r.items()} for r in rows)
        with path.open("w") as file:
            _write_lines(file, (json.dumps(r, sort_keys=True) for r in rows))
        return
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


def cmd_simulate(args) -> None:
    cfg = _load_config(args)
    run = FormationRun(cfg)  # refuses a config that cannot run before any output exists
    out = _out_dir(args)
    keys, poses = [], array("d")  # (t, node id) and pose numbers of each record, for the tracking table
    with (out / "runlog.jsonl").open("w") as runlog:  # a record's line is written as it is made
        runlog.write(jsonl(runlog_header(cfg), ()))

        def write(rec: dict) -> None:
            runlog.write(runlog_line(rec) + "\n")
            keys.append((rec["t"], rec["node_id"]))
            poses.extend(rec["pose_truth"]["p"])
            poses.extend(rec["pose_truth"]["q"])

        events = run.run(write)
    stats = tracking_stats(keys, np.frombuffer(poses).reshape(-1, 7), run.offsets, skip_s=10.0)
    rows = [
        {"schema": "covis.summary@1", "node_id": f, "role": "follower", **s}
        for f, s in sorted(stats.items())
    ]
    _write_rows(out / "tracking", rows, args.format)
    log.info("simulate: %d tick records, %d network events", len(keys), len(events))


# ---------------------------------------------------------------------------
# metrics


_KINDS = {"an integer": (int,), "a number": (int, float)}


def _typed(d: dict, key: str, kind: str = "an integer"):
    """``d[key]``, which must be a JSON ``kind``: a bool or string is neither kind, a float no integer."""
    if type(d[key]) not in _KINDS[kind]:
        raise ValueError(f"{key} {d[key]!r} is not {kind}")
    return d[key]


def _edges_from_dataset(lines: Iterable[str], cfg: RunConfig):
    """Edges, (line, first failure) of each malformed line, and fused Dice/IoU per node.

    Each line's poses and estimates are built with the library constructors,
    whose checks are the line's checks, and a group that carries grids is
    fused from those estimates as soon as its line passes. Only the numbers
    scoring needs outlive the line.
    """
    rows, errors, grid_scores = array("d"), [], []  # rows: 25 numbers per edge, as unpacked below
    for no, line in enumerate(lines, start=2):  # header was line 1
        try:
            rec = json.loads(line)
            nodes = {}
            for n in rec["nodes"]:
                if nodes.setdefault(_typed(n, "id"), n) is not n:
                    raise ValueError(f"node id {n['id']} is listed twice")
            poses = {
                i: (*Vec3(*n["pose"]["p"]).as_tuple(), *UnitQuat(*n["pose"]["q"]).as_tuple())
                for i, n in nodes.items()
            }
            ests, numbers = [], array("d")
            for d in rec.get("estimates", []):
                est = PoseEstimate(Vec3(*d["p_hat"]), Vec3(*d["sigma_p"]), UnitQuat(*d["q_hat"]),
                                   _typed(d, "sigma_q", "a number"), _typed(d, "src"), _typed(d, "dst"))
                if est.src not in poses or est.dst not in poses:
                    raise LookupError(f"estimate {est.src}->{est.dst} names a node the group lacks")
                fov = _typed(nodes[est.src], "fov_deg", "a number")
                if not 0.0 < fov <= 180.0:
                    raise ValueError("fov_deg must be in (0, 180]")
                ests.append(est)
                numbers += array("d", (*poses[est.src], *poses[est.dst], *est.p_hat.as_tuple(),
                                       *est.q_hat.as_tuple(), *est.sigma_p.as_tuple(), fov))
            if ests and all("bev_obs_b64" in n and "bev_b64" in n for n in nodes.values()):
                grid_scores += _fusion_scores(nodes, ests, cfg)
        except Exception as exc:  # malformed line: report, keep going
            errors.append((no, str(exc)))
            continue
        rows += numbers
    e = np.frombuffer(rows).reshape(-1, 25)
    t_pos, t_quat = relative_pose_rows(e[:, 0:3], e[:, 3:7], e[:, 7:10], e[:, 10:14])
    return EdgeColumns(t_pos, t_quat, e[:, 14:17], e[:, 17:21], e[:, 21:24], e[:, 24]), errors, grid_scores


def _fusion_scores(nodes: dict, ests: list[PoseEstimate], cfg: RunConfig) -> list[tuple[float, float]]:
    """Free-space Dice/IoU of each node's observed grid, fused with its estimated peers', against its truth."""
    # Each node's grids are decoded once, then shared by all its in-edges.
    grids = {i: (BevGrid.from_base64(n["bev_b64"]), BevGrid.from_base64(n["bev_obs_b64"])) for i, n in nodes.items()}
    out = []
    for node_id, (truth, ego) in grids.items():
        fused = fuse(ego, [(grids[e.dst][1], e) for e in ests if e.src == node_id], gate_sigma=cfg.gate_sigma_m)
        out.append(mask_dice_iou(truth.cells < cfg.bin_threshold, fused.cells < cfg.bin_threshold))
    return out


def _numbers(values, n: int, name: str) -> array:
    """``values`` as n floats; anything but a number raises, as in Vec3 and UnitQuat."""
    row = array("d", values)
    if len(row) != n:
        raise ValueError(f"{name} has {len(row)} components, expected {n}")
    return row


class _RunlogReader:
    """One pass over a runlog's record lines, with the poses checked.

    A line keeps its pose row, ``t`` and ``gated``, its estimates' numbers,
    the (peer_tick, dst) keys of the estimates that parsed, in one flat array,
    and the failure of its estimates' parse, if any; the decoded line is not
    kept. A line whose estimates fail to parse still offers its pose.
    A runlog has thousands of short lines, so the checks of the Vec3, UnitQuat
    and PoseEstimate constructors run on whole columns once every line is read,
    and a line with any failing row keeps no edge. ``edges`` pairs the
    estimates with their peers' poses.
    """

    def __init__(self, lines: Iterable[str], cfg: RunConfig):
        period = 1.0 / cfg.superframe_hz
        self.fov = cfg.fov_deg
        self.errors: dict[int, str] = {}  # line number -> first failure
        self.pose_line, self.est_line = [], []  # line number per pose row; per estimate row
        # 7 numbers per pose; per estimate, its p_hat, sigma_p, q_hat and sigma_q.
        poses, self.est_values = array("d"), array("d")
        self.keys = []  # (tick, node id) per pose row
        self.t, self.gated = array("d"), bytearray()  # per pose row
        self.bad_gated: dict[int, str] = {}  # line -> message, for traces alone
        self.peers, self.ends = array("q"), array("q")  # peer_tick, dst per key; per pose row, its keys' end
        self.failed: dict[int, str] = {}  # line -> the failure of its estimates' parse
        for no, line in enumerate(lines, start=2):  # header was line 1
            try:
                rec = json.loads(line)
                key = (round(_typed(rec, "t", "a number") / period), _typed(rec, "node_id"))
                pose = rec["pose_truth"]
                pose = _numbers(pose["p"], 3, "position") + _numbers(pose["q"], 4, "quaternion")
            except Exception as exc:
                self.errors[no] = str(exc)
                continue
            self.keys.append(key)
            self.t.append(rec["t"])
            gated = rec.get("gated")
            if type(gated) is not bool:
                self.bad_gated[no] = f"gated {gated!r} is not a bool"
            self.gated.append(gated is True)
            values = array("d")
            try:
                for d in rec["estimates"]:
                    values += _numbers(d["p_hat"], 3, "p_hat") + _numbers(d["sigma_p"], 3, "sigma_p")
                    values += _numbers(d["q_hat"], 4, "q_hat")
                    values.append(_typed(d, "sigma_q", "a number"))
                    src, dst = _typed(d, "src"), _typed(d, "dst")
                    if src != rec["node_id"]:
                        raise LookupError(f"estimate {src}->{dst} logged by node {rec['node_id']}")
                    peer = (_typed(d, "peer_tick"), dst)
                    try:
                        self.peers += array("q", peer)
                    except OverflowError:  # beyond int64: the keys go on as Python ints
                        self.peers = [*self.peers, *peer]
            except Exception as exc:
                self.failed[no] = str(exc)
                values = array("d")
            poses += pose
            self.pose_line.append(no)
            self.est_values += values
            self.est_line += [no] * (len(values) // 11)
            self.ends.append(len(self.peers) // 2)
        rows = np.frombuffer(poses).reshape(-1, 7)
        self.p, (self.q, q_ok) = rows[:, :3], unit_quat_rows(rows[:, 3:])
        ok = ~self._charge(self.pose_line, [
            (~np.isfinite(self.p).all(axis=1), "non-finite position component"),
            (~q_ok, "quaternion norm outside unit tolerance"),
        ])
        # A later line of the same tick and node wins.
        self.pose_at = {key: row for row, key in enumerate(self.keys) if ok[row]}

    def _charge(self, line_of: list[int], checks) -> np.ndarray:
        failed = np.zeros(len(line_of), dtype=bool)
        for mask, message in checks:
            for row in np.flatnonzero(mask):
                self.errors.setdefault(line_of[row], message)
            failed |= mask
        return failed

    def edges(self) -> tuple[EdgeColumns, list[tuple[int, str]]]:
        """Edges of the lines that pass every check, and (line, first failure) of those that do not.

        Each estimate is paired with its peer's pose row, line by line. A line's first
        failure is its pose's, then its first estimate's whose peer has no pose, then its
        parse failure, then its estimates' value checks; a line whose estimates parsed
        adds an (own row, peer row) pair per estimate."""
        peers = self.peers
        found = array("q", map(self.pose_at.get, zip(peers[::2], peers[1::2]), itertools.repeat(-1)))
        own_rows, peer_rows = array("q"), array("q")
        for row, (no, start, end) in enumerate(zip(self.pose_line, [0, *self.ends], self.ends)):
            if -1 in found[start:end]:
                k = 2 * found.index(-1, start, end)
                self.errors.setdefault(no, f"no pose of peer node {peers[k + 1]} at tick {peers[k]}")
            elif no in self.failed:
                self.errors.setdefault(no, self.failed[no])
            if no not in self.failed:
                own_rows += array("q", [row]) * (end - start)
                peer_rows += found[start:end]
        est = np.frombuffer(self.est_values).reshape(-1, 11)
        q_hat, q_ok = unit_quat_rows(est[:, 6:10])
        self._charge(self.est_line, [
            (~np.isfinite(est[:, :6]).all(axis=1), "non-finite p_hat or sigma_p component"),
            ((est[:, 3:6] <= 0.0).any(axis=1), "sigma_p components must be positive"),
            (~q_ok, "q_hat norm outside unit tolerance"),
            (~((0.0 < est[:, 10]) & (est[:, 10] < np.inf)), PoseEstimate.SIGMA_Q_RULE),
        ])
        keep = np.array([no not in self.errors for no in self.est_line], dtype=bool)
        i, j = np.frombuffer(own_rows, dtype=np.int64)[keep], np.frombuffer(peer_rows, dtype=np.int64)[keep]
        t_pos, t_quat = relative_pose_rows(self.p[i], self.q[i], self.p[j], self.q[j])
        est = est[keep]
        columns = EdgeColumns(t_pos, t_quat, est[:, :3], q_hat[keep], est[:, 3:6], np.full(len(est), self.fov))
        return columns, sorted(self.errors.items())


def _edges_from_runlog(lines: Iterable[str], cfg: RunConfig):
    return *_RunlogReader(lines, cfg).edges(), []


def cmd_metrics(args) -> None:
    started = time.perf_counter()
    cfg, schema, lines = _read_input(args)
    read_edges = {DATASET_SCHEMA: _edges_from_dataset, RUNLOG_SCHEMA: _edges_from_runlog}.get(schema)
    if read_edges is None:
        raise ValueError(f"unknown schema {schema!r}")
    out = _out_dir(args)
    counter = itertools.count()
    lines = (line for line, _ in zip(lines, counter))  # counts the lines the reader takes
    edges, errors, grid_scores = read_edges(lines, cfg)
    for no, msg in errors:
        log.error("line %d: %s", no, msg)
    read = next(counter)
    if len(errors) > 0.01 * max(1, read):
        raise ValueError(f"{len(errors)} malformed lines out of {read}")
    if not len(edges):
        raise ValueError("no usable edge records")

    parsed = time.perf_counter()
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
        len(edges), len(errors), parsed - started, scored - parsed, time.perf_counter() - scored,
    )


# ---------------------------------------------------------------------------
# datagen / netbench / homing / traces


def cmd_datagen(args) -> None:
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


def cmd_netbench(args) -> None:
    cfg = _load_config(args)
    out = _out_dir(args)
    sim = network_from_config(cfg)
    with (out / "capture.jsonl").open("w") as capture:  # a frame's line is written as it goes on the air
        capture.write(jsonl({"schema": "covis.capture@1"}, ()))
        sim.capture_sink = lambda t, wire: capture.write(capture_line(t, wire) + "\n")
        events = sim.run(cfg.duration_s)
    trace = (line for b in sim.behaviors.values() for line in b.trace_lines())
    for name, lines in (("events", map(SimEvent.line, events)), ("trace", trace)):
        with (out / f"{name}.jsonl").open("w") as file:
            file.write(jsonl({"schema": f"covis.{name}@1"}, ()))
            _write_lines(file, lines)
    rows = [{"schema": "covis.netbench@1", **row} for row in summarize(sim)]
    _write_rows(out / "summary", rows, args.format)


def cmd_homing(args) -> None:
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


def cmd_traces(args) -> None:
    cfg, schema, lines = _read_input(args)
    if schema != RUNLOG_SCHEMA:
        raise ValueError("traces needs a runlog input")
    out = _out_dir(args)
    reader = _RunlogReader(lines, cfg)
    for no, message in reader.bad_gated.items():
        reader.errors.setdefault(no, message)
    if reader.errors:  # the first bad line ends the command
        raise ValueError("line %d: %s" % min(reader.errors.items()))
    keys, rows, pos_err, rot_err = follower_error_rows(reader.keys, reader.p, reader.q, follower_offsets(cfg))
    xyz, yaw = reader.p[rows].tolist(), yaw_rows(reader.q[rows]).tolist()
    errors = zip(pos_err.tolist(), rot_err.tolist())
    traces = [
        {"schema": "covis.traces@1", "t": reader.t[row], "node_id": node, "x_m": x, "y_m": y,
         "yaw_rad": a, "gated": bool(reader.gated[row]), "pos_err_m": pos, "rot_err_deg": rot}
        for (_, node), row, (x, y, _), a, (pos, rot) in zip(keys, rows, xyz, yaw, errors)
    ]
    _write_rows(out / "traces", traces, args.format)


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

# The files each command writes to --out, in the order it writes them; a name
# without a suffix is a table, whose file takes the --format suffix.
_OUTPUTS = {
    "simulate": ("runlog.jsonl", "tracking"),
    "metrics": ("categories", "auc", "summary"),
    "datagen": ("dataset.jsonl",),
    "netbench": ("capture.jsonl", "events.jsonl", "trace.jsonl", "summary"),
    "homing": ("keyframes", "summary"),
    "traces": ("traces",),
}


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        return EXIT_OK
    except BaseException as exc:
        for name in _OUTPUTS[args.command]:
            path = Path(args.out, name)
            path = path.with_suffix(path.suffix or f".{args.format}")
            if path.is_file():  # not where --out names a file, nor a directory at the name
                path.unlink()
        if isinstance(exc, ConfigError):
            log.error("config: %s", exc)
            return EXIT_CONFIG
        if isinstance(exc, OSError):
            log.error("i/o: %s", exc)
            return EXIT_IO
        if isinstance(exc, (ValueError, RuntimeError)):
            log.error("validation: %s", exc)
            return EXIT_VALIDATION
        raise


if __name__ == "__main__":
    sys.exit(main())
