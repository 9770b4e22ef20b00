"""Command-line entry point for reproducible experiments and reports.

Subcommands::

    simulate   closed-loop formation run -> runlog.jsonl + tracking.csv
    metrics    evaluate a dataset or runlog -> categories.csv, auc.csv, summary.csv
    datagen    sample synthetic groups -> dataset.jsonl
    netbench   pure network stress run -> events.jsonl, trace.jsonl, capture.jsonl, summary.csv
    homing     record-then-replay run -> keyframes.csv, summary.csv
    traces     plot-ready per-tick columns from a runlog -> traces.csv

Inputs are read one line at a time, and each line is checked as it is read
by the rules of ``Vec3``, ``UnitQuat`` and ``PoseEstimate``, so a defect gives
the same message in either input. A byte that is not UTF-8 fails its own
line only. On a dataset, ``metrics`` builds each line's
poses and estimates with those constructors and fuses the line's grids before
it reads the next line, so only the numbers scoring needs outlive a line. On a
runlog, ``metrics`` and ``traces`` take each line's checked pose from one
generator (``_runlog_lines``) and keep only the numbers they use, never the
decoded line; ``metrics`` also checks the estimates and skips a bad line, and
``traces`` reads no estimate and stops at its first bad line.
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
from .estimator import PoseEstimate, check_sigmas
from .geometry import UnitQuat, Vec3, relative_pose_rows, unit_quat_components, vec3_components, yaw_rows
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
    text is stripped at both ends, and a blank line in between is kept. A byte
    that is not UTF-8 is kept as a lone surrogate, so that ``_utf8`` fails its
    own line and no other.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as file:
        held: list[str] = []  # the latest text line, then the blank lines read after it
        for line in file:
            line = line.removesuffix("\n")
            if line.strip():
                yield from held
                held = [line if held else line.lstrip()]
            elif held:
                held.append(line)
        yield held[0].rstrip() if held else ""


def _utf8(line: str) -> str:
    """A line of ``_text_lines``, or UnicodeDecodeError at its first byte that is not UTF-8."""
    return line if line.isascii() else line.encode("utf-8", "surrogateescape").decode("utf-8")


def _read_input(args) -> tuple[RunConfig, str, Iterator[str]]:
    """Config, header schema and record lines of a JSONL input.

    The header is read here; the record lines are read as they are taken.
    A runlog is read with the config in its header: ``--config`` supplies
    only the reader keys, and a conflict on any other key is logged.
    """
    cfg = _load_config(args)
    lines = _text_lines(args.input)
    try:
        header = json.loads(_utf8(next(lines)))
    except ValueError as exc:  # bad JSON or a byte that is not UTF-8
        raise ValueError(f"line 1: {exc}") from exc
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


_KINDS = {"an integer": frozenset({int}), "a number": frozenset({int, float})}


def _typed(d: dict, key: str, kind: str = "an integer"):
    """``d[key]``, which must be a JSON ``kind``: a bool or string is neither kind, a float no integer."""
    if type(d[key]) not in _KINDS[kind]:
        raise ValueError(f"{key} {d[key]!r} is not {kind}")
    return d[key]


def _vector(d: dict, key: str, n: int) -> list:
    """``d[key]``, which must be a JSON array of n numbers: a bool is not one, though Vec3 reads it as 1 or 0."""
    v = d[key]
    if type(v) is not list or len(v) != n or not _KINDS["a number"].issuperset(map(type, v)):
        raise ValueError(f"{key} {v!r} is not {n} numbers")
    return v


def _pose(pose: dict) -> tuple:
    """A JSON pose's position and unit quaternion, under the Vec3 and UnitQuat rules, as 7 numbers."""
    return (*vec3_components(_vector(pose, "p", 3)), *unit_quat_components(_vector(pose, "q", 4)))


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
            rec = json.loads(_utf8(line))
            nodes = {}
            for n in rec["nodes"]:
                if nodes.setdefault(_typed(n, "id"), n) is not n:
                    raise ValueError(f"node id {n['id']} is listed twice")
            poses = {i: _pose(n["pose"]) for i, n in nodes.items()}
            ests, numbers = [], array("d")
            for d in rec.get("estimates", []):
                est = PoseEstimate(Vec3(*_vector(d, "p_hat", 3)), Vec3(*_vector(d, "sigma_p", 3)),
                                   UnitQuat(*_vector(d, "q_hat", 4)), _typed(d, "sigma_q", "a number"),
                                   _typed(d, "src"), _typed(d, "dst"))
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


def _runlog_lines(lines: Iterable[str], cfg: RunConfig, errors: dict[int, str]):
    """(line number, decoded line, (tick, node id), 7 pose numbers) of each runlog line that passes.

    A line's JSON, ``t``, pose and ``node_id`` are checked in that order, the
    pose by the rules of Vec3 and UnitQuat; ``errors`` gets each failed line's
    first failure.
    """
    period = 1.0 / cfg.superframe_hz
    for no, line in enumerate(lines, start=2):  # header was line 1
        try:
            rec = json.loads(_utf8(line))
            tick = round(_typed(rec, "t", "a number") / period)
            pose = _pose(rec["pose_truth"])
            key = (tick, _typed(rec, "node_id"))
        except Exception as exc:
            errors[no] = str(exc)
            continue
        yield no, rec, key, pose


def _edges_from_runlog(lines: Iterable[str], cfg: RunConfig):
    """Edges of the lines that pass every check, and (line, first failure) of those that do not.

    Estimates are checked by the functions that the Vec3, UnitQuat and
    PoseEstimate constructors call, so a runlog line fails with a dataset
    line's message. A line keeps its pose row, and the numbers and (peer_tick,
    dst) key of each estimate before its first failure, in flat arrays; its
    pose is offered to its peers even if an estimate fails. A line's first
    failure is its pose's; else, taking its estimates in order, the first
    that fails a check or whose peer has no pose.
    """
    errors: dict[int, str] = {}  # line number -> first failure
    line_nos, keys = array("q"), []  # per pose row
    # 7 numbers per pose; per estimate, its p_hat, q_hat and sigma_p.
    poses, values = array("d"), array("d")
    peers, ends = array("q"), array("q")  # peer_tick, dst per estimate; per pose row, its end
    for no, rec, key, pose in _runlog_lines(lines, cfg, errors):
        line_nos.append(no)
        keys.append(key)
        poses.extend(pose)
        line_values, line_peers = [], []  # of the line's estimates before its first failure
        try:  # in the order _edges_from_dataset builds a PoseEstimate
            for d in rec["estimates"]:
                p_hat = vec3_components(_vector(d, "p_hat", 3))
                sigma_p = vec3_components(_vector(d, "sigma_p", 3))
                q_hat = unit_quat_components(_vector(d, "q_hat", 4))
                sigma_q, src, dst = _typed(d, "sigma_q", "a number"), _typed(d, "src"), _typed(d, "dst")
                check_sigmas(sigma_p, sigma_q)
                if src != rec["node_id"]:
                    raise LookupError(f"estimate {src}->{dst} logged by node {rec['node_id']}")
                line_peers += (_typed(d, "peer_tick"), dst)
                line_values += (*p_hat, *q_hat, *sigma_p)
        except Exception as exc:
            errors[no] = str(exc)  # unless an estimate before it has no peer pose
        values += array("d", line_values)
        try:
            peers += array("q", line_peers)
        except OverflowError:  # beyond int64: the keys go on as Python ints
            peers = [*peers, *line_peers]
        ends.append(len(peers) // 2)
    pose_at = {key: row for row, key in enumerate(keys)}  # a later line of the same tick and node wins
    found = array("q", map(pose_at.get, zip(peers[::2], peers[1::2]), itertools.repeat(-1)))
    for no, start, end in zip(line_nos, [0, *ends], ends):
        if -1 in found[start:end]:  # an estimate before the line's failure, if any
            k = 2 * found.index(-1, start, end)
            errors[no] = f"no pose of peer node {peers[k + 1]} at tick {peers[k]}"
    counts = np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0)  # estimates per pose row
    keep = np.repeat(np.array([no not in errors for no in line_nos], dtype=bool), counts)
    i, j = np.repeat(np.arange(len(counts)), counts)[keep], np.frombuffer(found, dtype=np.int64)[keep]
    rows = np.frombuffer(poses).reshape(-1, 7)
    t_pos, t_quat = relative_pose_rows(rows[i, :3], rows[i, 3:], rows[j, :3], rows[j, 3:])
    est = np.frombuffer(values).reshape(-1, 10)[keep]
    columns = EdgeColumns(t_pos, t_quat, est[:, :3], est[:, 3:7], est[:, 7:], np.full(len(est), cfg.fov_deg))
    return columns, sorted(errors.items()), []


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
    errors: dict[int, str] = {}
    keys, poses, t, gated = [], array("d"), array("d"), []  # per pose row
    for no, rec, key, pose in _runlog_lines(itertools.takewhile(lambda _: not errors, lines), cfg, errors):
        if type(rec.get("gated")) is not bool:
            errors[no] = f"gated {rec.get('gated')!r} is not a bool"
            break
        keys.append(key)
        poses.extend(pose)
        t.append(rec["t"])
        gated.append(rec["gated"])
    if errors:
        raise ValueError("line %d: %s" % min(errors.items()))
    poses = np.frombuffer(poses).reshape(-1, 7)
    keys, rows, pos_err, rot_err = follower_error_rows(keys, poses, follower_offsets(cfg))
    xyz, yaw = poses[rows, :3].tolist(), yaw_rows(poses[rows, 3:]).tolist()
    traces = [
        {"schema": "covis.traces@1", "t": t[row], "node_id": node, "x_m": x, "y_m": y,
         "yaw_rad": a, "gated": gated[row], "pos_err_m": pos, "rot_err_deg": rot}
        for (_, node), row, (x, y, _), a, pos, rot in zip(keys, rows, xyz, yaw, pos_err.tolist(), rot_err.tolist())
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
