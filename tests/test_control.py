import math

import numpy as np
import pytest

from covis.config import RunConfig
from covis.control import (
    DERIVATIVE_ALPHA,
    clamp_speed,
    formation_cmd,
    kf_follow_step,
    kf_record_step,
)
from covis.estimator import Observation, PoseEstimate, estimate_oracle
from covis.geometry import Pose, UnitQuat, Vec3

CFG = RunConfig()
DT = 1.0 / CFG.superframe_hz


def est(p, yaw=0.0, sigma=0.1, sigma_q=0.05):
    return PoseEstimate(
        p_hat=Vec3(*p),
        sigma_p=Vec3(sigma / math.sqrt(3), sigma / math.sqrt(3), sigma / math.sqrt(3)),
        q_hat=UnitQuat.from_yaw(yaw),
        sigma_q=sigma_q,
        src=1,
        dst=0,
    )


def ref(p=(0.0, -1.0, 0.0), yaw=0.0):
    return Pose(Vec3(*p), UnitQuat.from_yaw(yaw))


class TestFormationCmd:
    def test_zero_at_reference(self):
        cmd, _ = formation_cmd(est((0.0, -1.0, 0.0)), ref(), None, CFG)
        assert cmd.v.norm() == 0.0
        assert cmd.w == 0.0
        assert not cmd.gated

    def test_position_gate_steers_to_bearing(self):
        # Uncertain estimate with the leader 90 degrees to the left.
        cmd, _ = formation_cmd(
            est((0.0, 2.0, 0.0), sigma=5.0), ref(), None, RunConfig(tau_p_m=1.0)
        )
        assert cmd.gated
        assert cmd.v.norm() == 0.0
        assert cmd.w > 0.0

    def test_clamped_pure_x(self):
        cfg = RunConfig(kp_pos=1.0, kd_pos=0.0, v_max_mps=0.8)
        cmd, _ = formation_cmd(est((1.0, -1.0, 0.0)), ref(), None, cfg)
        assert cmd.v.x == pytest.approx(0.8)
        assert cmd.v.y == pytest.approx(0.0)
        assert cmd.v.z == pytest.approx(0.0)

    @pytest.mark.parametrize("attenuate", [False, True])
    def test_rotation_gate_zeroes_yaw_only(self, attenuate):
        cmd, _ = formation_cmd(
            est((0.5, -1.0, 0.0), yaw=0.8, sigma_q=2.0), ref(), None, RunConfig(tau_q=0.5), attenuate=attenuate
        )
        assert not cmd.gated
        assert cmd.v.norm() > 0.0
        assert cmd.w == 0.0

    def test_command_never_exceeds_limits(self):
        rng = np.random.default_rng(0)
        cfg = RunConfig(kp_pos=5.0, kd_pos=1.0, kp_yaw=5.0, kd_yaw=1.0, v_max_mps=0.8, w_max_rps=1.5)
        state = None
        for _ in range(500):
            e = est(
                tuple(5.0 * rng.standard_normal(3)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
                sigma=float(rng.uniform(0.01, 3.0)),
                sigma_q=float(rng.uniform(0.01, 1.0)),
            )
            cmd, state = formation_cmd(e, ref(), state, cfg)
            assert cmd.v.norm() <= 0.8 + 1e-12
            assert abs(cmd.w) <= 1.5 + 1e-12

    @pytest.mark.parametrize("attenuate", [False, True])
    def test_gated_state_never_translates(self, attenuate):
        rng = np.random.default_rng(1)
        for _ in range(200):
            e = est(tuple(rng.standard_normal(3)), sigma=float(rng.uniform(1.01, 10.0)))
            cmd, _ = formation_cmd(e, ref(), None, RunConfig(tau_p_m=1.0), attenuate=attenuate)
            assert cmd.v.norm() == 0.0

    def test_attenuation_scales_down(self):
        e = est((1.0, -1.0, 0.0), sigma=0.9)
        cfg = RunConfig(kp_pos=0.5)
        hard, _ = formation_cmd(e, ref(), None, cfg)
        soft, _ = formation_cmd(e, ref(), None, cfg, attenuate=True)
        assert soft.v.norm() < hard.v.norm()

    def test_derivative_scales_with_superframe_hz(self):
        # The same error change over half the step doubles the raw derivative.
        def second_step(hz):
            cfg = RunConfig(superframe_hz=hz, kp_pos=0.0, kd_pos=1.0, v_max_mps=100.0)
            _, state = formation_cmd(est((0.0, -1.0, 0.0)), ref(), None, cfg)
            cmd, state = formation_cmd(est((0.1, -1.0, 0.0)), ref(), state, cfg)
            return cmd.v.x, state.d_pos.x

        v15, d15 = second_step(15.0)
        v30, d30 = second_step(30.0)
        assert d15 == pytest.approx(DERIVATIVE_ALPHA * 0.1 * 15.0)
        assert (v30, d30) == (pytest.approx(2.0 * v15), pytest.approx(2.0 * d15))

    def test_closed_loop_static_leader_converges(self):
        # Oracle estimates, static leader at the origin, follower offset from
        # its slot: position error must drop below 5 cm within 10 s.
        leader = Pose(Vec3(2.0, 1.0, 0.0), UnitQuat.from_yaw(0.5))
        offset = ref()  # leader should sit 1 m to the follower's right
        pos = np.array([0.0, 0.0])
        yaw = -0.4
        state = None
        for _ in range(150):  # 10 s at 15 Hz
            follower = Pose(Vec3(pos[0], pos[1], 0.0), UnitQuat.from_yaw(yaw))
            e = estimate_oracle(
                Observation(0, follower, 120.0, b""), Observation(1, leader, 120.0, b"")
            )
            cmd, state = formation_cmd(e, offset, state, CFG)
            c, s = math.cos(yaw), math.sin(yaw)
            pos += DT * np.array([c * cmd.v.x - s * cmd.v.y, s * cmd.v.x + c * cmd.v.y])
            yaw += DT * cmd.w
        follower = Pose(Vec3(pos[0], pos[1], 0.0), UnitQuat.from_yaw(yaw))
        e = estimate_oracle(
            Observation(0, follower, 120.0, b""), Observation(1, leader, 120.0, b"")
        )
        err = (e.p_hat - offset.position).norm()
        assert err < 0.05


class TestClampSpeed:
    def test_under_limit_unchanged(self):
        v = Vec3(0.1, 0.2, 0.0)
        assert clamp_speed(v, 0.8) == v

    def test_over_limit_scaled(self):
        v = clamp_speed(Vec3(3.0, 4.0, 0.0), 0.8)
        assert v.norm() == pytest.approx(0.8)
        assert v.x / v.y == pytest.approx(3.0 / 4.0)


class TestKeyframeRecord:
    def test_no_append_when_close_and_confident(self):
        assert not kf_record_step(est((0.0, 0.0, 0.0), sigma=0.1), CFG)

    def test_distance_trigger(self):
        assert kf_record_step(est((1.2001, 0.0, 0.0), sigma=0.1), CFG)

    def test_uncertainty_trigger(self):
        assert kf_record_step(est((0.1, 0.0, 0.0), sigma=1.5), CFG)

    def test_monotone_in_distance_and_sigma(self):
        base_d, base_s = 0.6, 0.5
        fired = kf_record_step(est((base_d, 0, 0), sigma=base_s), CFG)
        for dd in (0.0, 0.4, 0.8):
            for ds in (0.0, 0.4, 0.8):
                more = kf_record_step(est((base_d + dd, 0, 0), sigma=base_s + ds), CFG)
                assert more >= fired


class TestKeyframeFollow:
    def test_terminal_hold(self):
        cmd, idx, _ = kf_follow_step(
            est((0.1, 0.0, 0.0)), kf_index=4, kf_count=5, state=None, cfg=CFG
        )
        assert cmd.v.norm() == 0.0 and cmd.w == 0.0
        assert idx == 5

    def test_mid_advance(self):
        _, idx, _ = kf_follow_step(
            est((0.1, 0.0, 0.0)), kf_index=1, kf_count=5, state=None, cfg=CFG
        )
        assert idx == 2

    def test_far_drives(self):
        cmd, idx, _ = kf_follow_step(
            est((2.0, 0.5, 0.0)), kf_index=1, kf_count=5, state=None, cfg=CFG
        )
        assert cmd.v.norm() > 0.0
        assert idx == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            kf_follow_step(
                est((0, 0, 0)), kf_index=5, kf_count=5, state=None, cfg=CFG
            )
