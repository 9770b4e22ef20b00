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
command is zeroed. Optional attenuation scales the PD output by
1 / (1 + |sigma_p| / tau_p) while the position gate is open. It replaces
neither gate: a position-gated command still does not translate, and the
rotation gate still zeroes the yaw rate.

Every gain, limit, threshold and the step ``dt = 1 / superframe_hz`` is read
from the ``RunConfig``, which owns their defaults and range rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .config import RunConfig
from .estimator import PoseEstimate
from .geometry import Pose, Vec3

DERIVATIVE_ALPHA = 0.5


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
    cfg: RunConfig,
    attenuate: bool = False,
) -> tuple[Command, PdState]:
    """One PD step toward the reference relative pose.

    Returns the clamped command and the updated derivative state. While the
    position gate is active the state is frozen so the derivative does not
    spike on re-engagement.
    """
    dt = 1.0 / cfg.superframe_hz
    state = state or PdState()
    sigma = est.sigma_p_norm()
    pos_gated = sigma > cfg.tau_p_m
    rot_gated = est.sigma_q > cfg.tau_q

    if pos_gated:
        # Hold position; keep the estimated leader bearing in front.
        bearing = math.atan2(est.p_hat.y, est.p_hat.x)
        w = max(-cfg.w_max_rps, min(cfg.w_max_rps, cfg.kp_yaw * bearing))
        return Command(Vec3.zero(), w, gated=True), state

    scale = 1.0 / (1.0 + sigma / cfg.tau_p_m) if attenuate else 1.0
    err_pos = est.p_hat - offset_ref.position
    err_yaw = yaw_error(est.q_hat, offset_ref.rotation)

    if state.primed:
        raw_d_pos = (err_pos - state.err_pos) * (1.0 / dt)
        raw_d_yaw = (err_yaw - state.err_yaw) / dt
        d_pos = raw_d_pos * DERIVATIVE_ALPHA + state.d_pos * (1.0 - DERIVATIVE_ALPHA)
        d_yaw = DERIVATIVE_ALPHA * raw_d_yaw + (1.0 - DERIVATIVE_ALPHA) * state.d_yaw
    else:
        d_pos, d_yaw = Vec3.zero(), 0.0

    v = clamp_speed((err_pos * cfg.kp_pos + d_pos * cfg.kd_pos) * scale, cfg.v_max_mps)
    if rot_gated:
        w = 0.0
    else:
        w_raw = scale * (cfg.kp_yaw * err_yaw + cfg.kd_yaw * d_yaw)
        w = max(-cfg.w_max_rps, min(cfg.w_max_rps, w_raw))
    new_state = PdState(err_pos=err_pos, err_yaw=err_yaw, d_pos=d_pos, d_yaw=d_yaw, primed=True)
    return Command(v, w, gated=False), new_state


def kf_record_step(est_to_last_kf: PoseEstimate, cfg: RunConfig) -> bool:
    """Append a keyframe when distance or uncertainty passed its threshold."""
    return est_to_last_kf.p_hat.norm() > cfg.d_kf_m or est_to_last_kf.sigma_p_norm() > cfg.sigma_kf_m


def kf_follow_step(
    est_to_current_kf: PoseEstimate,
    kf_index: int,
    kf_count: int,
    state: Optional[PdState],
    cfg: RunConfig,
) -> tuple[Command, int, PdState]:
    """Drive toward the current keyframe; advance the index on arrival.

    The reference is the zero offset (sit on the keyframe). Arrival means an
    estimated distance below ``eps_reach_m``. Arrival at the last keyframe
    returns index ``kf_count``, which marks the path complete, with a zero
    command.
    """
    if kf_index >= kf_count:
        raise ValueError("kf_index out of range")
    arrived = est_to_current_kf.p_hat.norm() < cfg.eps_reach_m
    if arrived and kf_index == kf_count - 1:
        return Command(Vec3.zero(), 0.0), kf_count, state or PdState()
    cmd, new_state = formation_cmd(est_to_current_kf, Pose.identity(), state, cfg)
    next_index = kf_index + 1 if arrived else kf_index
    return cmd, next_index, new_state
