"""Timing wrappers installed from outside the library, and the per-layer metrics.

Wrappers go in at the names callers look up at call time: a function is
replaced in every ``covis`` module that imported it (so ``covis.scenario.estimate``
and ``covis.estimator.estimate`` both record), a method on its class, and a
CLI command in ``covis.cli._COMMANDS``. ``Vec3`` and ``UnitQuat`` construction
is never wrapped: it runs more than 100k times per simulated minute and would
swamp the spans.

Spans are kept in memory as (name, parent index, start, end) and written out
once the commands have returned. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (defining module, function, span name). Every covis module attribute that is
# the same function object gets the wrapper. gen_world, sample_groups and
# run_homing feed no metric of their own; their spans keep library work out
# of cli.self_s.
FUNCTIONS = (
    ("covis.estimator", "estimate", "estimator.estimate"),
    ("covis.estimator", "edge_rng", "estimator.edge_rng"),
    ("covis.geometry", "relative_pose", "geometry.relative_pose"),
    ("covis.geometry", "rot_geodesic_deg", "geometry.rot_geodesic_deg"),
    ("covis.control", "formation_cmd", "control.formation_cmd"),
    ("covis.control", "kf_follow_step", "control.kf_follow_step"),
    ("covis.scenario", "observed_grid", "scenario.observed_grid"),
    ("covis.scenario", "bev_crop", "scenario.bev_crop"),
    ("covis.scenario", "gen_world", "scenario.gen_world"),
    ("covis.scenario", "sample_groups", "scenario.sample_groups"),
    ("covis.scenario", "runlog_jsonl", "scenario.runlog_jsonl"),
    ("covis.scenario", "dataset_jsonl", "scenario.dataset_jsonl"),
    ("covis.scenario", "tracking_errors", "scenario.tracking_errors"),
    ("covis.scenario", "run_homing", "scenario.run_homing"),
    ("covis.bev", "fuse", "bev.fuse"),
    ("covis.bev", "transform_grid", "bev.transform_grid"),
    ("covis.metrics", "evaluate_records", "metrics.evaluate_records"),
    ("covis.metrics", "mask_dice_iou", "metrics.mask_dice_iou"),
    ("covis.netproto", "encode", "netproto.encode"),
    ("covis.netproto", "adapt_rate", "netproto.adapt_rate"),
    ("covis.netproto", "on_frame_received", "netproto.on_frame_received"),
)

# (module, class, method, span name)
METHODS = (
    ("covis.scenario", "FormationRun", "robot_tick", "scenario.robot_tick"),
    ("covis.scenario", "RobotNode", "fresh_estimates", "scenario.fresh_estimates"),
    ("covis.netsim", "Simulator", "run", "netsim.run"),
    ("covis.netsim", "Simulator", "transmit", "netsim.transmit"),
    ("covis.bev", "BevGrid", "to_base64", "bev.to_base64"),
    ("covis.bev", "BevGrid", "from_base64", "bev.from_base64"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counters of the previous pass."""
        self.spans.clear()
        self.wire_bytes = 0
        self.replay_ticks = 0
        self.replay_gated = 0

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _count_wire(self, wire: bytes) -> None:
        self.wire_bytes += len(wire)

    def _count_replay(self, result) -> None:
        self.replay_ticks += 1
        self.replay_gated += bool(result[0].gated)

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        missing = []
        observers = {"netproto.encode": self._count_wire, "control.kf_follow_step": self._count_replay}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "covis" and m is not None]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(span, original, observers.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if raw is None:
                missing.append(f"{module_name}.{cls_name}.{attr}")
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span, raw))
        commands = sys.modules["covis.cli"]._COMMANDS
        for command, fn in list(commands.items()):
            commands[command] = self.wrap(f"cli.{command}", fn)
        return missing

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index},{name},{parent},{start!r},{end!r}\n")

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds, and each duration."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
            entry["durations"].append(end - start)
        return out


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    """Span-derived per-layer metrics of one traced pass. Absent layers read 0."""
    spans = tracer.summarize()

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def per_call(name, scale):
        return scale * spans[name]["total_s"] / spans[name]["calls"] if name in spans else 0.0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    ticks = sorted(spans["scenario.robot_tick"]["durations"]) if "scenario.robot_tick" in spans else []
    tick_q = statistics.quantiles(ticks, n=100) if len(ticks) > 1 else [0.0] * 99
    events = counts.get("events", 0)
    edges = counts.get("edges_scored", 0)
    if tracer.replay_ticks:
        gated_share = tracer.replay_gated / tracer.replay_ticks
    else:
        gated_share = counts.get("gated_share", 0.0)
    return {
        "estimator.estimate.calls": calls("estimator.estimate"),
        "estimator.estimate.us_per_call": per_call("estimator.estimate", 1e6),
        "estimator.edge_rng.us_per_call": per_call("estimator.edge_rng", 1e6),
        "geometry.relative_pose.calls": calls("geometry.relative_pose"),
        "geometry.relative_pose.us_per_call": per_call("geometry.relative_pose", 1e6),
        "geometry.rot_geodesic_deg.calls": calls("geometry.rot_geodesic_deg"),
        "geometry.rot_geodesic_deg.us_per_call": per_call("geometry.rot_geodesic_deg", 1e6),
        "control.formation_cmd.calls": calls("control.formation_cmd"),
        "control.formation_cmd.us_per_call": per_call("control.formation_cmd", 1e6),
        "control.kf_follow_step.us_per_call": per_call("control.kf_follow_step", 1e6),
        "control.gated_share": gated_share,
        "scenario.robot_tick.p50_us": 1e6 * tick_q[49],
        "scenario.robot_tick.p99_us": 1e6 * tick_q[98],
        "scenario.fresh_estimates.self_s": spans["scenario.fresh_estimates"]["self_s"]
        if "scenario.fresh_estimates" in spans else 0.0,
        "scenario.observed_grid.calls": calls("scenario.observed_grid"),
        "scenario.observed_grid.ms_per_call": per_call("scenario.observed_grid", 1e3),
        "scenario.bev_crop.ms_per_call": per_call("scenario.bev_crop", 1e3),
        "scenario.runlog_jsonl.s": total("scenario.runlog_jsonl"),
        "scenario.dataset_jsonl.s": total("scenario.dataset_jsonl"),
        "scenario.tracking_errors.s": total("scenario.tracking_errors"),
        "scenario.records": counts.get("records", 0),
        "bev.fuse.calls": calls("bev.fuse"),
        "bev.fuse.ms_per_call": per_call("bev.fuse", 1e3),
        "bev.transform_grid.ms_per_call": per_call("bev.transform_grid", 1e3),
        "bev.from_base64.calls": calls("bev.from_base64"),
        "bev.from_base64.us_per_call": per_call("bev.from_base64", 1e6),
        "bev.to_base64.us_per_call": per_call("bev.to_base64", 1e6),
        "metrics.evaluate_records.us_per_edge": 1e6 * total("metrics.evaluate_records") / edges if edges else 0.0,
        "metrics.edges": edges,
        "metrics.mask_dice_iou.calls": calls("metrics.mask_dice_iou"),
        "netsim.events": events,
        "netsim.run.self_s": spans["netsim.run"]["self_s"] if "netsim.run" in spans else 0.0,
        "netsim.us_per_event": 1e6 * total("netsim.run") / events if events else 0.0,
        "netsim.transmit.us_per_call": per_call("netsim.transmit", 1e6),
        "netsim.delivery_ratio": counts.get("delivery_ratio", 0.0),
        "netsim.collisions": counts.get("frames_collided", 0),
        "netproto.encode.calls": calls("netproto.encode"),
        "netproto.encode.us_per_call": per_call("netproto.encode", 1e6),
        "netproto.encode.mb": tracer.wire_bytes / 1e6,
        "netproto.adapt_rate.calls": calls("netproto.adapt_rate"),
        "netproto.adapt_rate.us_per_call": per_call("netproto.adapt_rate", 1e6),
        "netproto.on_frame_received.us_per_call": per_call("netproto.on_frame_received", 1e6),
        "netproto.mean_divisor": counts.get("mean_divisor", 0.0),
        "netproto.tx_share": counts.get("tx_share", 0.0),
        "cli.self_s": sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.")),
    }
