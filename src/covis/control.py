"""Uncertainty-gated PD formation controller and keyframe homing logic.

The controller consumes estimates of the leader's pose in the follower's ego
frame. The positional error is the estimate minus the reference offset (the
body-frame displacement that restores the formation); yaw error is the signed
geodesic yaw between the estimated and reference relative headings. Both
loops are PD with a backward-difference derivative passed through a one-pole
low-pass (alpha = 0.5) to tame estimator noise.

Gating: when the position-uncertainty norm exceeds its threshold the robot
stops translating and only steers its heading toward the estimated leader
bearing; when the rotation uncertainty alone exceeds its threshold the yaw
command is zeroed. An optional attenuation scales gains by
1 / (1 + |sigma_p| / tau_p) instead of hard zeroing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .estimator import PoseEstimate
from .geometry import Pose, Vec3

DERIVATIVE_ALPHA = 0.5


@dataclass(frozen=True)
class PdGains:
    kp_pos: float = 1.5
    kd_pos: float = 0.3
    kp_yaw: float = 1.5
    kd_yaw: float = 0.3
    v_max: float = 0.8  # m/s
    w_max: float = 1.5  # rad/s

    def __post_init__(self):
        if min(self.kp_pos, self.kd_pos, self.kp_yaw, self.kd_yaw) < 0.0:
            raise ValueError("gains must be non-negative")
        if self.v_max <= 0.0 or self.w_max <= 0.0:
            raise ValueError("command limits must be positive")


@dataclass(frozen=True)
class Gate:
    tau_p: float = 1.0  # position-sigma threshold, meters
    tau_q: float = 0.5  # rotation-sigma threshold, chordal scale

    def __post_init__(self):
        if self.tau_p <= 0.0 or self.tau_q <= 0.0:
            raise ValueError("gate thresholds must be positive")


@dataclass(frozen=True)
class Command:
    v: Vec3  # body-frame velocity, m/s
    w: float  # yaw rate, rad/s
    gated: bool = False


@dataclass(frozen=True)
class PdState:
    """Previous error and filtered derivative, carried by the caller."""

    err_pos: Vec3 = field(default_factory=Vec3.zero)
    err_yaw: float = 0.0
    d_pos: Vec3 = field(default_factory=Vec3.zero)
    d_yaw: float = 0.0
    primed: bool = False  # derivative meaningless until one error is banked


def clamp_speed(v: Vec3, v_max: float) -> Vec3:
    n = v.norm()
    if n <= v_max or n == 0.0:
        return v
    return v * (v_max / n)


def yaw_error(est_q, ref_q) -> float:
    """Signed yaw taking the reference heading to the estimated heading."""
    delta = ref_q.conjugate().multiply(est_q)
    return delta.yaw()


def formation_cmd(
    est: PoseEstimate,
    offset_ref: Pose,
    state: Optional[PdState],
    dt: float,
    gains: PdGains,
    gate: Gate,
    attenuate: bool = False,
) -> tuple[Command, PdState]:
    """One PD step toward the reference relative pose.

    Returns the clamped command and the updated derivative state. While the
    position gate is active the state is frozen so the derivative does not
    spike on re-engagement.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    state = state or PdState()
    sigma = est.sigma_p_norm()
    pos_gated = sigma > gate.tau_p
    rot_gated = est.sigma_q > gate.tau_q

    if pos_gated:
        # Hold position; keep the estimated leader bearing in front.
        bearing = math.atan2(est.p_hat.y, est.p_hat.x)
        w = max(-gains.w_max, min(gains.w_max, gains.kp_yaw * bearing))
        return Command(Vec3.zero(), w, gated=True), state

    scale = 1.0 / (1.0 + sigma / gate.tau_p) if attenuate else 1.0
    err_pos = est.p_hat - offset_ref.position
    err_yaw = yaw_error(est.q_hat, offset_ref.rotation)

    if state.primed:
        raw_d_pos = (err_pos - state.err_pos) * (1.0 / dt)
        raw_d_yaw = (err_yaw - state.err_yaw) / dt
        d_pos = raw_d_pos * DERIVATIVE_ALPHA + state.d_pos * (1.0 - DERIVATIVE_ALPHA)
        d_yaw = DERIVATIVE_ALPHA * raw_d_yaw + (1.0 - DERIVATIVE_ALPHA) * state.d_yaw
    else:
        d_pos, d_yaw = Vec3.zero(), 0.0

    v = clamp_speed((err_pos * gains.kp_pos + d_pos * gains.kd_pos) * scale, gains.v_max)
    if rot_gated:
        w = 0.0
    else:
        w_raw = scale * (gains.kp_yaw * err_yaw + gains.kd_yaw * d_yaw)
        w = max(-gains.w_max, min(gains.w_max, w_raw))
    new_state = PdState(err_pos=err_pos, err_yaw=err_yaw, d_pos=d_pos, d_yaw=d_yaw, primed=True)
    return Command(v, w, gated=False), new_state


def kf_record_step(
    current_estimate_to_last_kf: PoseEstimate, d_kf: float, sigma_kf: float
) -> bool:
    """Append a keyframe when distance or uncertainty passed its threshold."""
    est = current_estimate_to_last_kf
    return est.p_hat.norm() > d_kf or est.sigma_p_norm() > sigma_kf


def kf_follow_step(
    est_to_current_kf: PoseEstimate,
    eps_reach: float,
    kf_index: int,
    kf_count: int,
    state: Optional[PdState],
    dt: float,
    gains: PdGains,
    gate: Gate,
) -> tuple[Command, int, PdState]:
    """Drive toward the current keyframe; advance the index on arrival.

    The reference is the zero offset (sit on the keyframe). Arrival means an
    estimated distance below ``eps_reach``. Arrival at the last keyframe
    returns index ``kf_count``, which marks the path complete, with a zero
    command.
    """
    if kf_index >= kf_count:
        raise ValueError("kf_index out of range")
    arrived = est_to_current_kf.p_hat.norm() < eps_reach
    if arrived and kf_index == kf_count - 1:
        return Command(Vec3.zero(), 0.0), kf_count, state or PdState()
    cmd, new_state = formation_cmd(
        est_to_current_kf, Pose.identity(), state, dt, gains, gate
    )
    next_index = kf_index + 1 if arrived else kf_index
    return cmd, next_index, new_state
