"""Flat run configuration: every tunable default in one place.

Unknown keys are rejected so typos fail loudly. The dataclass is pure data;
modules build their own domain objects from it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .netproto import MAX_PAYLOAD


class ConfigError(Exception):
    pass


# Accepted JSON value types per annotated field type; a bool is accepted only
# for a bool field, although Python counts it as an int.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    # Reproducibility
    seed: int = 0
    duration_s: float = 120.0

    # Team geometry
    n_nodes: int = 3
    fov_deg: float = 120.0
    follower_offset_m: float = 1.0  # lateral distance of each follower

    # Networking
    superframe_hz: float = 15.0
    n_slots: int = 4
    payload_bytes: int = 6144
    bitrate_bps: float = 6e6
    base_loss: float = 0.03
    loss_slope: float = 0.01
    propagation_s: float = 0.0
    high_watermark: float = 0.10
    low_watermark: float = 0.05
    loss_window_s: float = 2.0
    max_divisor: int = 8
    loss_aggregate: str = "max"  # or "mean"

    # Estimator
    estimator: str = "synthetic"  # synthetic | oracle
    median_pos_visible_m: float = 0.33
    median_pos_invisible_m: float = 0.97
    median_rot_visible_deg: float = 5.8
    median_rot_invisible_deg: float = 7.9
    miscalibration: float = 1.0
    sigma_jitter: float = 0.4
    sigma_floor: float = 1e-3
    stale_timeout_s: float = 0.5

    # Controller
    kp_pos: float = 1.5
    kd_pos: float = 0.3
    kp_yaw: float = 1.5
    kd_yaw: float = 0.3
    v_max_mps: float = 0.8
    w_max_rps: float = 1.5
    tau_p_m: float = 1.0
    tau_q: float = 0.5
    gain_attenuation: bool = False

    # Leader trajectory
    trajectory: str = "fig8_dynamic"  # fig8_dynamic | fig8_static | rect_dynamic
    traj_size_x_m: float = 2.0
    traj_size_y_m: float = 1.0
    traj_period_s: float = 60.0
    traj_corner_radius_m: float = 0.5

    # World and BEV
    world_extent_m: float = 24.0
    world_rooms: int = 4
    world_resolution_m: float = 6.0 / 64
    bev_extent_m: float = 6.0
    bev_resolution_m: float = 6.0 / 64
    gate_sigma_m: float = 1.0
    bin_threshold: float = 0.5

    # Dataset sampling
    n_groups: int = 100
    n_max: int = 5
    d_max_m: float = 2.0

    # Keyframe homing
    d_kf_m: float = 1.2
    sigma_kf_m: float = 1.0
    eps_reach_m: float = 0.6

    # Metrics
    youden_labeling: str = "invisible"  # invisible | high_error
    youden_error_threshold_m: float = 0.5

    @staticmethod
    def field_names() -> set[str]:
        return {f.name for f in dataclasses.fields(RunConfig)}

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = RunConfig.field_names()
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**data)
        cfg.validate()
        return cfg

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

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.estimator not in ("synthetic", "oracle"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.trajectory not in ("fig8_dynamic", "fig8_static", "rect_dynamic"):
            raise ConfigError(f"unknown trajectory {self.trajectory!r}")
        if self.loss_aggregate not in ("max", "mean"):
            raise ConfigError(f"unknown loss_aggregate {self.loss_aggregate!r}")
        if self.youden_labeling not in ("invisible", "high_error"):
            raise ConfigError(f"unknown youden_labeling {self.youden_labeling!r}")
        if self.duration_s <= 0 or self.traj_period_s <= 0:
            raise ConfigError("durations and periods must be positive")
        if self.n_nodes < 1 or self.n_slots < 1 or self.n_max < 1:
            raise ConfigError("counts must be >= 1")
        if not 0.0 < self.fov_deg <= 180.0:
            raise ConfigError("fov_deg must be in (0, 180]")
        if self.superframe_hz <= 0:
            raise ConfigError("superframe_hz must be positive")
        if self.max_divisor < 1:
            raise ConfigError("max_divisor must be >= 1")
        if self.stale_timeout_s <= 0:
            raise ConfigError("stale_timeout_s must be positive")
        if not 0 <= self.payload_bytes <= MAX_PAYLOAD:
            raise ConfigError(f"payload_bytes must be in [0, {MAX_PAYLOAD}]")
        if self.world_resolution_m <= 0 or self.bev_resolution_m <= 0:
            raise ConfigError("grid resolutions must be positive")
        if self.world_extent_m < 12.0:
            raise ConfigError("world_extent_m must be >= 12 so 6 m crops fit with margin")
        # Same whole-cells rule as BevGrid.
        bev_cells = round(self.bev_extent_m / self.bev_resolution_m)
        if bev_cells < 1 or not math.isclose(
            bev_cells * self.bev_resolution_m, self.bev_extent_m, rel_tol=1e-9
        ):
            raise ConfigError("bev_extent_m must be a whole number (>= 1) of bev_resolution_m cells")

    def replace(self, **kw) -> "RunConfig":
        cfg = dataclasses.replace(self, **kw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
