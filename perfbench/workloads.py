"""The four benchmark workloads: generated config, commands, counts and output checks.

Each workload is a closed loop: the worker issues one ``covis`` command, waits
for it to return, then issues the next. The config holds only the run-length
and team-size keys set here; every other key keeps its ``RunConfig`` default,
and the seed is passed to every command with ``--seed``.

The checks recompute what they can without the library under test (edge
errors from the raw poses with numpy, counts from the raw lines), so a change
that breaks ``covis.metrics`` cannot also break the check that catches it.
The one exception is frame decoding, which is the codec's own contract.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Configured medians of the synthetic estimator (RunConfig defaults):
# (position m, rotation deg) per visibility class.
PROFILE = {"Visible": (0.33, 5.8), "Invisible": (0.97, 7.9)}
FOV_DEG = 120.0
SUPERFRAME_HZ = 15.0
# Calibration is judged by the share of edges below the configured median;
# a calibrated estimator puts it at 1/2 with binomial spread 0.5/sqrt(n).
CALIBRATION_Z = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # (subcommand, input file written by an earlier command, or None)
    commands: tuple[tuple[str, str | None], ...]
    work_unit: str  # what one unit of work_per_ref_s and work_per_s is


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "formation",
            {"n_nodes": 8, "duration_s": 10.0},
            (("simulate", None), ("metrics", "simulate/runlog.jsonl")),
            "estimates",
        ),
        Workload(
            "dataset",
            {"n_groups": 4},
            (("datagen", None), ("metrics", "datagen/dataset.jsonl")),
            "groups",
        ),
        Workload(
            "netstorm",
            {"n_nodes": 8, "n_slots": 8, "duration_s": 60.0},
            (("netbench", None),),
            "frames_tx",
        ),
        Workload(
            "homing",
            {"duration_s": 120.0},  # the default, spelled out for the checks
            (("homing", None),),
            "estimates",
        ),
    )
}


def command_argv(command: str, source: str | None, config: Path, seed: int, out: Path) -> list[str]:
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out / command)]
    if source is not None:
        argv += ["--input", str(out / source)]
    return argv


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over (relative path, contents) of every output file, and their bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


# ---------------------------------------------------------------------------
# Independent edge-error arithmetic (scalar-first quaternions, rows of arrays)


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    u, w = q[:, 1:], q[:, :1]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def _angle_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = _qmul(_conj(a), b)
    return np.degrees(2.0 * np.arctan2(np.linalg.norm(d[:, 1:], axis=1), np.abs(d[:, 0])))


def edge_errors(p_i, q_i, p_j, q_j, p_hat, q_hat, fov_deg):
    """Position error, rotation error (deg) and invisibility of each edge i -> j."""
    p_i, q_i, p_j, q_j, p_hat, q_hat = (
        np.asarray(x, dtype=float).reshape(-1, n)
        for x, n in ((p_i, 3), (q_i, 4), (p_j, 3), (q_j, 4), (p_hat, 3), (q_hat, 4))
    )
    inv = _conj(q_i)
    rel_p = _rotate(inv, p_j - p_i)
    rel_q = _qmul(inv, q_j)
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (len(rel_q), 1))
    invisible = _angle_deg(identity, rel_q) > np.asarray(fov_deg, dtype=float)
    return np.linalg.norm(p_hat - rel_p, axis=1), _angle_deg(rel_q, q_hat), invisible


def _lower_median(values: np.ndarray) -> float:
    return float(np.sort(values)[(len(values) - 1) // 2]) if len(values) else 0.0


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_scored_edges(edges: dict, metrics_dir: Path, problems: list[str], both_classes: bool) -> dict:
    """Compare the metrics command's report with independently recomputed edges.

    ``edges`` holds arrays pos, rot and invisible for every estimate in the
    input. The report must score exactly those edges, its per-class counts
    and lower medians must match, and each non-empty class must be
    calibrated to its configured medians. Returns the summary row.
    """
    summary = _read_csv(metrics_dir / "summary.csv")[0]
    categories = {row["category"]: row for row in _read_csv(metrics_dir / "categories.csv")}
    n = len(edges["pos"])
    if int(summary["edges"]) != n or int(categories["All"]["count"]) != n:
        problems.append(f"metrics scored {summary['edges']} edges, input has {n} estimates")
    if int(summary["malformed_lines"]) != 0:
        problems.append(f"metrics reported {summary['malformed_lines']} malformed lines")
    for cls, mask in (("Visible", ~edges["invisible"]), ("Invisible", edges["invisible"])):
        pos, rot = edges["pos"][mask], edges["rot"][mask]
        row = categories[cls]
        if int(row["count"]) != len(pos):
            problems.append(f"{cls}: report counts {row['count']} edges, recomputed {len(pos)}")
            continue
        if not (_close(float(row["median_pos_m"]), _lower_median(pos))
                and _close(float(row["median_rot_deg"]), _lower_median(rot))):
            problems.append(f"{cls}: reported medians differ from recomputed ones")
        if not len(pos):
            if both_classes:
                problems.append(f"{cls}: no edges of this class")
            continue
        tol = CALIBRATION_Z * 0.5 / math.sqrt(len(pos))
        for label, values, median in (("position", pos, PROFILE[cls][0]), ("rotation", rot, PROFILE[cls][1])):
            share = float(np.mean(values < median))
            if abs(share - 0.5) > tol:
                problems.append(f"{cls} {label}: {share:.3f} of {len(values)} edges below the configured median")
    single_class = not edges["invisible"].any() or edges["invisible"].all()
    if single_class != math.isinf(float(summary["youden_threshold"])):
        problems.append(f"Youden threshold {summary['youden_threshold']} does not match the classes present")
    return summary


# ---------------------------------------------------------------------------
# Per-workload checks. Each returns counts; problems are appended in place.


def network_counts(kinds_collided, divisors: list[float], n_nodes: int) -> dict:
    tx = delivered = collided = events = 0
    for kind, was_collided in kinds_collided:
        events += 1
        tx += kind == "tx_start"
        delivered += kind == "deliver"
        collided += kind == "tx_end" and was_collided
    return {
        "events": events,
        "frames_tx": tx,
        "frames_delivered": delivered,
        "frames_collided": collided,
        "delivery_ratio": delivered / (tx * (n_nodes - 1)) if tx and n_nodes > 1 else 0.0,
        "slot_wakeups": len(divisors),
        "tx_share": tx / len(divisors) if divisors else 0.0,
        "mean_divisor": float(np.mean(divisors)) if divisors else 0.0,
    }


def check_formation(out: Path, cfg: dict, captured: dict, problems: list[str]) -> dict:
    n_nodes = cfg["n_nodes"]
    ticks = int(math.floor(cfg["duration_s"] * SUPERFRAME_HZ + 1e-9))
    _, rows = _read_jsonl(out / "simulate" / "runlog.jsonl")
    if len(rows) != (ticks + 1) * n_nodes:
        problems.append(f"runlog has {len(rows)} rows, expected {(ticks + 1) * n_nodes}")
    pose_at = {}
    for row in rows:
        key = (round(row["t"] * SUPERFRAME_HZ), row["node_id"])
        if key in pose_at:
            problems.append(f"runlog repeats tick/node {key}")
        pose_at[key] = row["pose_truth"]
    cols = {k: [] for k in ("p_i", "q_i", "p_j", "q_j", "p_hat", "q_hat")}
    followers = gated = 0
    for row in rows:
        own = row["pose_truth"]
        for est in row["estimates"]:
            peer = pose_at[(est["peer_tick"], est["dst"])]
            for key, value in (("p_i", own["p"]), ("q_i", own["q"]), ("p_j", peer["p"]),
                               ("q_j", peer["q"]), ("p_hat", est["p_hat"]), ("q_hat", est["q_hat"])):
                cols[key].append(value)
        if row["node_id"] != 0:
            followers += 1
            gated += bool(row["gated"])
    pos, rot, invisible = edge_errors(**cols, fov_deg=FOV_DEG)
    check_scored_edges({"pos": pos, "rot": rot, "invisible": invisible},
                       out / "metrics", problems, both_classes=False)
    counts = {"records": len(rows), "estimates": len(pos), "edges_scored": len(pos),
              "gated_share": gated / followers if followers else 0.0, "sim_seconds": ticks / SUPERFRAME_HZ}
    if "network" in captured:
        counts.update(captured["network"])
    return counts


def check_dataset(out: Path, cfg: dict, captured: dict, problems: list[str]) -> dict:
    _, groups = _read_jsonl(out / "datagen" / "dataset.jsonl")
    if len(groups) != cfg["n_groups"]:
        problems.append(f"dataset has {len(groups)} groups, expected {cfg['n_groups']}")
    cols = {k: [] for k in ("p_i", "q_i", "p_j", "q_j", "p_hat", "q_hat", "fov_deg")}
    grids = fused_nodes = 0
    for index, group in enumerate(groups):
        if group["group"] != index:
            problems.append(f"group {index} is labelled {group['group']}")
        nodes = {n["id"]: n for n in group["nodes"]}
        with_grids = all("bev_b64" in n and "bev_obs_b64" in n for n in nodes.values())
        grids += sum("bev_obs_b64" in n for n in nodes.values())
        n = len(nodes)
        if len(group["estimates"]) != n * (n - 1):
            problems.append(f"group {index} has {len(group['estimates'])} estimates for {n} nodes")
        fused_nodes += n if with_grids and group["estimates"] else 0
        for est in group["estimates"]:
            a, b = nodes[est["src"]], nodes[est["dst"]]
            for key, value in (("p_i", a["pose"]["p"]), ("q_i", a["pose"]["q"]), ("p_j", b["pose"]["p"]),
                               ("q_j", b["pose"]["q"]), ("p_hat", est["p_hat"]), ("q_hat", est["q_hat"]),
                               ("fov_deg", a["fov_deg"])):
                cols[key].append(value)
    pos, rot, invisible = edge_errors(**cols)
    summary = check_scored_edges({"pos": pos, "rot": rot, "invisible": invisible},
                                 out / "metrics", problems, both_classes=True)
    for key in ("dice", "iou"):
        if key not in summary or not 0.0 <= float(summary[key]) <= 1.0:
            problems.append(f"{key} missing or outside [0, 1]: {summary.get(key)}")
    return {"groups": len(groups), "estimates": len(pos), "edges_scored": len(pos),
            "invisible_edges": int(invisible.sum()), "observed_grid_calls": grids,
            "fuse_calls": fused_nodes}


def check_netstorm(out: Path, cfg: dict, captured: dict, problems: list[str]) -> dict:
    from covis.netproto import FrameError, decode

    run = out / "netbench"
    summary = _read_csv(run / "summary.csv")
    _, events = _read_jsonl(run / "events.jsonl")
    _, capture = _read_jsonl(run / "capture.jsonl")
    _, trace = _read_jsonl(run / "trace.jsonl")
    counts = network_counts(((e["kind"], e["collided"]) for e in events),
                             [s["divisor"] for s in trace], cfg["n_nodes"])
    tx_starts = [e for e in events if e["kind"] == "tx_start"]
    summed = sum(int(row["frames_tx"]) for row in summary)
    if not summed == len(tx_starts) == len(capture):
        problems.append(f"frames_tx {summed}, tx_start events {len(tx_starts)}, captured {len(capture)}")
    decode_s = 0.0
    for index, (line, event) in enumerate(zip(capture, tx_starts)):
        wire = base64.b64decode(line["frame_b64"])
        start = time.perf_counter()
        try:
            frame = decode(wire)
        except FrameError as exc:
            problems.append(f"captured frame {index} does not decode: {exc!r}")
            continue
        decode_s += time.perf_counter() - start
        if (frame.node_id, frame.seq, frame.superframe_idx, line["t"]) != (
            event["node"], event["seq"], event["superframe"], event["t"]
        ):
            problems.append(f"captured frame {index} does not match its tx_start event")
    collisions = sum(int(row["collisions"]) for row in summary)
    if collisions or counts["frames_collided"]:
        problems.append(f"{collisions} collisions with every node in its own slot")
    counts["sim_seconds"] = max(e["t"] for e in events if e["kind"] == "tick")
    counts["decode_us_per_call"] = 1e6 * decode_s / len(capture) if capture else 0.0
    return counts


def check_homing(out: Path, cfg: dict, captured: dict, problems: list[str]) -> dict:
    summary = _read_csv(out / "homing" / "summary.csv")[0]
    arrivals = [float(row["arrival_error_m"]) for row in _read_csv(out / "homing" / "keyframes.csv")]
    keyframes = int(summary["keyframes"])
    if keyframes < 2:
        problems.append(f"only {keyframes} keyframes")
    if not all(math.isfinite(a) for a in arrivals):
        problems.append("non-finite arrival error")
    result = captured.get("homing")
    if result is None:
        problems.append("homing result was not captured")
        return {"keyframes": keyframes, "arrivals": len(arrivals)}
    if len(result.keyframes) != keyframes or len(result.arrival_errors) != len(arrivals):
        problems.append("homing outputs disagree with the run's result")
    n_teach = int(cfg["duration_s"] * SUPERFRAME_HZ)
    # Teach tick 0 only records the first keyframe; every other teach tick and
    # every replay tick makes one estimate. A completed replay stops on the
    # estimate that declares the final arrival, before logging cross-track.
    replay = len(result.cross_track) + int(result.completed)
    return {"keyframes": keyframes, "arrivals": len(arrivals), "completed": bool(result.completed),
            "teach_ticks": n_teach, "replay_ticks": replay, "estimates": n_teach - 1 + replay,
            "sim_seconds": (n_teach + replay) / SUPERFRAME_HZ}


CHECKS = {
    "formation": check_formation,
    "dataset": check_dataset,
    "netstorm": check_netstorm,
    "homing": check_homing,
}


# ---------------------------------------------------------------------------
# Deliberately broken outputs for the self-test of the checks


def _rewrite_middle_line(path: Path, change) -> None:
    lines = path.read_text().splitlines(keepends=True)
    mid = 1 + (len(lines) - 1) // 2  # never the header
    replacement = change(lines[mid])
    lines[mid : mid + 1] = [] if replacement is None else [replacement]
    path.write_text("".join(lines))


def _flip_frame_byte(line: str) -> str:
    rec = json.loads(line)
    wire = bytearray(base64.b64decode(rec["frame_b64"]))
    wire[len(wire) // 2] ^= 0x01
    rec["frame_b64"] = base64.b64encode(bytes(wire)).decode("ascii")
    return json.dumps(rec) + "\n"


CORRUPTIONS = {
    "flip-capture-byte": ("netstorm", "netbench/capture.jsonl", _flip_frame_byte),
    "drop-runlog-row": ("formation", "simulate/runlog.jsonl", lambda line: None),
    "truncate-dataset-line": ("dataset", "datagen/dataset.jsonl", lambda line: line[: len(line) // 2] + "\n"),
}


def corrupt(kind: str, out: Path) -> None:
    _, relative, change = CORRUPTIONS[kind]
    _rewrite_middle_line(out / relative, change)
