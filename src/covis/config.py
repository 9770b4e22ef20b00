"""Flat run configuration: every tunable default in one place.

Unknown keys are rejected so typos fail loudly. Each field's annotation is its
rule: ``Literal`` lists the accepted strings, and an ``Annotated`` string bounds
a number as ``>0``, ``>=1`` or an interval such as ``(0, 180]``. The dataclass
is pure data; modules build their own domain objects from it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

from .netproto import MAX_PAYLOAD


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    # Reproducibility
    seed: Annotated[int, ">=0"] = 0
    duration_s: Annotated[float, ">0"] = 120.0

    # Team geometry; node ids are uint16 on the wire.
    n_nodes: Annotated[int, "[1, 65536]"] = 3
    fov_deg: Annotated[float, "(0, 180]"] = 120.0
    follower_offset_m: float = 1.0  # lateral distance of each follower

    # Networking
    superframe_hz: Annotated[float, ">0"] = 15.0
    n_slots: Annotated[int, ">=1"] = 4
    payload_bytes: Annotated[int, f"[0, {MAX_PAYLOAD}]"] = 6144
    bitrate_bps: Annotated[float, ">0"] = 6e6
    base_loss: Annotated[float, "[0, 1)"] = 0.03
    loss_slope: Annotated[float, ">=0"] = 0.01
    propagation_s: Annotated[float, ">=0"] = 0.0
    high_watermark: Annotated[float, "[0, 1]"] = 0.10
    low_watermark: Annotated[float, "[0, 1]"] = 0.05
    loss_window_s: Annotated[float, ">0"] = 2.0
    max_divisor: Annotated[int, ">=1"] = 8

    # Estimator; the quadrature behind the jitter median holds to jitter 3.
    estimator: Literal["synthetic", "oracle"] = "synthetic"
    median_pos_visible_m: Annotated[float, ">0"] = 0.33
    median_pos_invisible_m: Annotated[float, ">0"] = 0.97
    median_rot_visible_deg: Annotated[float, ">0"] = 5.8
    median_rot_invisible_deg: Annotated[float, ">0"] = 7.9
    miscalibration: Annotated[float, ">0"] = 1.0
    sigma_jitter: Annotated[float, "[0, 3]"] = 0.4
    sigma_floor: Annotated[float, ">0"] = 1e-3
    stale_timeout_s: Annotated[float, ">0"] = 0.5

    # Controller
    kp_pos: Annotated[float, ">=0"] = 1.5
    kd_pos: Annotated[float, ">=0"] = 0.3
    kp_yaw: Annotated[float, ">=0"] = 1.5
    kd_yaw: Annotated[float, ">=0"] = 0.3
    v_max_mps: Annotated[float, ">0"] = 0.8
    w_max_rps: Annotated[float, ">0"] = 1.5
    tau_p_m: Annotated[float, ">0"] = 1.0
    tau_q: Annotated[float, ">0"] = 0.5
    gain_attenuation: bool = False

    # Leader trajectory
    trajectory: Literal["fig8_dynamic", "fig8_static", "rect_dynamic"] = "fig8_dynamic"
    traj_size_x_m: Annotated[float, ">0"] = 2.0
    traj_size_y_m: Annotated[float, ">0"] = 1.0
    traj_period_s: Annotated[float, ">0"] = 60.0
    traj_corner_radius_m: Annotated[float, ">=0"] = 0.5

    # World and BEV; 6 m crops need a world of at least 12 m.
    world_extent_m: Annotated[float, ">=12"] = 24.0
    world_rooms: Annotated[int, ">=1"] = 4
    world_resolution_m: Annotated[float, ">0"] = 6.0 / 64
    bev_extent_m: Annotated[float, ">0"] = 6.0
    bev_resolution_m: Annotated[float, ">0"] = 6.0 / 64
    gate_sigma_m: Annotated[float, ">=0"] = 1.0
    bin_threshold: Annotated[float, "[0, 1]"] = 0.5

    # Dataset sampling
    n_groups: Annotated[int, ">=0"] = 100
    n_max: Annotated[int, ">=1"] = 5
    d_max_m: Annotated[float, ">=0"] = 2.0

    # Keyframe homing
    d_kf_m: Annotated[float, ">=0"] = 1.2
    sigma_kf_m: Annotated[float, ">=0"] = 1.0
    eps_reach_m: Annotated[float, ">0"] = 0.6

    # Metrics
    youden_labeling: Literal["invisible", "high_error"] = "invisible"
    youden_error_threshold_m: Annotated[float, ">=0"] = 0.5

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_RULES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)

    @staticmethod
    def from_file(path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return RunConfig.from_dict(data)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name, (kind, rule) in _RULES.items():
            value = getattr(self, name)
            if get_origin(kind) is Literal:
                if value not in get_args(kind):
                    raise ConfigError(f"{name} must be one of {get_args(kind)}, got {value!r}")
            # A float field also takes an int; a bool is accepted only for a bool field.
            elif not isinstance(value, (int, float) if kind is float else kind) or (
                isinstance(value, bool) and kind is not bool
            ):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
            elif kind is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {value!r}")
            elif rule and not _within(rule, value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")
        # BevGrid's whole-cells rule, 1 to 256 a side: round(cells) in [1, 256] is (0.5, 256.5].
        cells = self.bev_extent_m / self.bev_resolution_m
        if not 0.5 < cells <= 256.5 or not math.isclose(
            round(cells) * self.bev_resolution_m, self.bev_extent_m, rel_tol=1e-9
        ):
            raise ConfigError("bev_extent_m must be a whole number (1 to 256) of bev_resolution_m cells")
        # gen_world's grid side, round(extent / resolution), must be 8 to 4096 cells.
        if not 7.5 <= self.world_extent_m / self.world_resolution_m <= 4096.5:
            raise ConfigError("world_extent_m must be 8 to 4096 world_resolution_m cells")
        if self.d_max_m > self.world_extent_m:
            raise ConfigError("d_max_m must be <= world_extent_m")
        if self.trajectory == "rect_dynamic" and (
            min(self.traj_size_x_m, self.traj_size_y_m) < 2 * self.traj_corner_radius_m
        ):
            raise ConfigError("rect_dynamic sides must be >= 2 * traj_corner_radius_m")
        # Every superframe index a run reaches, floor(duration_s * superframe_hz),
        # is a uint32 in the frame and the embedding header.
        if self.duration_s * self.superframe_hz >= 2**32:
            raise ConfigError("duration_s * superframe_hz must be below 2**32 superframes (uint32 index)")

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _within(rule: str, value: float) -> bool:
    """Whether ``value`` meets a bound written ``>0``, ``>=1`` or ``(0, 180]``."""
    if rule[0] == ">":
        rule = ("[" if rule[1] == "=" else "(") + rule.lstrip(">=") + ", inf)"
    lo, hi = (float(x) for x in rule[1:-1].split(","))
    above = lo <= value if rule[0] == "[" else lo < value
    return above and (value <= hi if rule[-1] == "]" else value < hi)


# (type, bound) per field, read once from the annotations; "" is no bound.
_RULES = {
    name: get_args(hint) if get_origin(hint) is Annotated else (hint, "")
    for name, hint in get_type_hints(RunConfig, include_extras=True).items()
}
