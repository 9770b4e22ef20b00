import math
import socket
import struct
import threading

import numpy as np
import pytest

from covis.estimator import (
    NoiseProfile,
    Observation,
    PoseEstimate,
    RemoteFramingError,
    RemoteValidationError,
    chordal_sigma,
    decode_response,
    edge_rng,
    encode_request,
    estimate,
    estimate_oracle,
    remote_estimate,
    scale_for_median,
)
from covis.geometry import Pose, UnitQuat, Vec3, compose, pos_dist, quat_dist, rot_geodesic_deg
from covis.losses import LossWeights, pose_loss
from covis.metrics import EdgeRecord, is_invisible

FOV = 120.0


def obs(node_id, p=(0.0, 0.0, 0.0), yaw=0.0, tick=0):
    return Observation(
        node_id=node_id,
        pose_truth=Pose(Vec3(*p), UnitQuat.from_yaw(yaw)),
        fov_deg=FOV,
        embedding=b"\x00" * 16,
        tick=tick,
    )


def sample_errors(n, yaw_j, profile, seed=0):
    """Position/rotation errors of n synthetic estimates on a fixed edge."""
    a = obs(0)
    b = obs(1, p=(1.0, 0.5, 0.0), yaw=yaw_j)
    rel = Pose(
        a.pose_truth.rotation.conjugate().rotate(b.pose_truth.position - a.pose_truth.position),
        a.pose_truth.rotation.conjugate().multiply(b.pose_truth.rotation),
    )
    rng = np.random.default_rng(seed)
    pos, rot, est_list = [], [], []
    for _ in range(n):
        e = estimate(a, b, profile, rng)
        pos.append(pos_dist(rel.position, e.p_hat))
        rot.append(rot_geodesic_deg(rel.rotation, e.q_hat))
        est_list.append(e)
    return np.array(pos), np.array(rot), est_list


class TestSyntheticEstimator:
    def test_deterministic_per_substream(self):
        a, b = obs(0), obs(1, p=(0.5, 0.0, 0.0))
        profile = NoiseProfile()
        e1 = estimate(a, b, profile, edge_rng(7, 3, 0, 1))
        e2 = estimate(a, b, profile, edge_rng(7, 3, 0, 1))
        assert e1 == e2
        e3 = estimate(a, b, profile, edge_rng(7, 4, 0, 1))
        assert e3 != e1

    def test_pairwise_locality(self):
        # Estimates depend on the two observations and the substream only.
        a, b = obs(0), obs(1, p=(0.5, 0.0, 0.0))
        profile = NoiseProfile()
        before = estimate(a, b, profile, edge_rng(1, 0, 0, 1))
        _ = obs(2, p=(9.0, 9.0, 0.0), yaw=2.0)  # unrelated third node
        after = estimate(a, b, profile, edge_rng(1, 0, 0, 1))
        assert before == after

    def test_median_calibration_visible(self):
        profile = NoiseProfile()
        pos, rot, _ = sample_errors(30_000, yaw_j=0.3, profile=profile, seed=1)
        assert np.median(pos) == pytest.approx(profile.median_pos_visible, rel=0.03)
        assert np.median(rot) == pytest.approx(profile.median_rot_visible, rel=0.03)

    def test_median_calibration_invisible(self):
        profile = NoiseProfile()
        pos, rot, _ = sample_errors(30_000, yaw_j=math.pi, profile=profile, seed=2)
        assert np.median(pos) == pytest.approx(profile.median_pos_invisible, rel=0.03)
        assert np.median(rot) == pytest.approx(profile.median_rot_invisible, rel=0.03)

    def test_visibility_class_matches_metrics(self):
        profile = NoiseProfile()
        for yaw in (0.0, 1.0, 2.5, math.pi):
            a, b = obs(0), obs(1, p=(1.0, 0.0, 0.0), yaw=yaw)
            rel = Pose(
                b.pose_truth.position,
                a.pose_truth.rotation.conjugate().multiply(b.pose_truth.rotation),
            )
            e = estimate(a, b, profile, edge_rng(0, 0, 0, 1))
            rec = EdgeRecord(truth=rel, est=e, fov_deg=FOV)
            expected_scale = (
                profile.median_pos_invisible if is_invisible(rec) else profile.median_pos_visible
            )
            # Class selection shows up in the reported uncertainty magnitude:
            # the per-sample scale is lognormal around the class scale.
            base = scale_for_median(expected_scale, profile.sigma_jitter)
            assert 0.05 * base < e.sigma_p_norm() < 20.0 * base

    def test_miscalibration_scales_report_only(self):
        a, b = obs(0), obs(1, p=(0.5, 0.2, 0.0), yaw=0.4)
        p1 = NoiseProfile(miscalibration=1.0)
        p4 = NoiseProfile(miscalibration=4.0)
        e1 = estimate(a, b, p1, edge_rng(5, 0, 0, 1))
        e4 = estimate(a, b, p4, edge_rng(5, 0, 0, 1))
        assert e1.p_hat == e4.p_hat
        assert e1.q_hat == e4.q_hat
        assert e4.sigma_p_norm() == pytest.approx(4.0 * e1.sigma_p_norm(), rel=1e-12)
        assert e4.sigma_q == pytest.approx(4.0 * e1.sigma_q, rel=1e-12)

    def test_report_equals_generating_scale_without_jitter(self):
        profile = NoiseProfile(sigma_jitter=0.0)
        a, b = obs(0), obs(1, p=(0.5, 0.2, 0.0))
        e = estimate(a, b, profile, edge_rng(9, 0, 0, 1))
        assert e.sigma_p_norm() == pytest.approx(
            scale_for_median(profile.median_pos_visible, 0.0), rel=1e-12
        )
        assert e.sigma_q == pytest.approx(
            chordal_sigma(scale_for_median(profile.median_rot_visible, 0.0)), rel=1e-12
        )

    def test_calibrated_uncertainty_scores_lower_gnll(self):
        # Same noise draws, miscalibrated report -> higher position GNLL in
        # expectation.
        a, b = obs(0), obs(1, p=(1.0, 0.5, 0.0), yaw=0.2)
        rel = Pose(
            a.pose_truth.rotation.conjugate().rotate(b.pose_truth.position - a.pose_truth.position),
            a.pose_truth.rotation.conjugate().multiply(b.pose_truth.rotation),
        )
        w = LossWeights(beta=0.0)
        total_good, total_bad = 0.0, 0.0
        for tick in range(10_000):
            e1 = estimate(a, b, NoiseProfile(miscalibration=1.0), edge_rng(11, tick, 0, 1))
            e4 = estimate(a, b, NoiseProfile(miscalibration=4.0), edge_rng(11, tick, 0, 1))
            total_good += pose_loss(rel, e1, w)
            total_bad += pose_loss(rel, e4, w)
        assert total_good < total_bad


class TestOracle:
    def test_exact(self):
        a, b = obs(0, yaw=0.7), obs(1, p=(1.0, -2.0, 0.0), yaw=-0.3)
        e = estimate_oracle(a, b)
        rel = Pose(
            a.pose_truth.rotation.conjugate().rotate(b.pose_truth.position - a.pose_truth.position),
            a.pose_truth.rotation.conjugate().multiply(b.pose_truth.rotation),
        )
        assert pos_dist(e.p_hat, rel.position) == 0.0
        assert quat_dist(e.q_hat, rel.rotation) == 0.0
        assert e.sigma_p_norm() == pytest.approx(1e-3 * math.sqrt(3))

    def test_self_pair(self):
        a = obs(0, p=(2.0, 1.0, 0.0), yaw=1.1)
        e = estimate_oracle(a, a)
        assert e.p_hat.norm() == 0.0
        assert quat_dist(e.q_hat, UnitQuat.identity()) == 0.0

    def test_chain_composition(self):
        a = obs(0, p=(0.0, 0.0, 0.0), yaw=0.5)
        b = obs(1, p=(1.0, 1.0, 0.0), yaw=-0.4)
        c = obs(2, p=(-0.5, 2.0, 0.0), yaw=2.0)
        ab, bc, ac = estimate_oracle(a, b), estimate_oracle(b, c), estimate_oracle(a, c)
        chained = compose(Pose(ab.p_hat, ab.q_hat), Pose(bc.p_hat, bc.q_hat))
        assert pos_dist(chained.position, ac.p_hat) < 1e-9
        assert quat_dist(chained.rotation, ac.q_hat) < 1e-9


class FixedResponseServer:
    """Single-shot TCP server returning a canned byte string."""

    def __init__(self, response: bytes):
        self.response = response
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.received = b""
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn:
            conn.settimeout(2.0)
            try:
                self.received = conn.recv(65536)
            except OSError:
                pass
            conn.sendall(self.response)
        self.sock.close()

    def join(self):
        self.thread.join(timeout=5.0)


def canned_response(p=(1.0, 2.0, 3.0), sp=(0.1, 0.2, 0.3), q=(1.0, 0.0, 0.0, 0.0), sq=0.5):
    vals = list(p) + list(sp) + list(q) + [sq] + [0.0] * 6
    return struct.pack("<17d", *vals)


class TestRemoteEstimate:
    def test_roundtrip(self):
        server = FixedResponseServer(canned_response())
        est = remote_estimate(("127.0.0.1", server.port), b"emb-i", b"emb-j", src=3, dst=4)
        server.join()
        assert server.received == encode_request(b"emb-i", b"emb-j")
        assert est.p_hat == Vec3(1.0, 2.0, 3.0)
        assert est.sigma_p == Vec3(0.1, 0.2, 0.3)
        assert est.sigma_q == 0.5
        assert (est.src, est.dst) == (3, 4)

    def test_nonpositive_sigma_rejected(self):
        server = FixedResponseServer(canned_response(sp=(0.1, -0.2, 0.3)))
        with pytest.raises(RemoteValidationError):
            remote_estimate(("127.0.0.1", server.port), b"a", b"b")
        server.join()

    def test_non_unit_quaternion_rejected(self):
        server = FixedResponseServer(canned_response(q=(2.0, 0.0, 0.0, 0.0)))
        with pytest.raises(RemoteValidationError):
            remote_estimate(("127.0.0.1", server.port), b"a", b"b")
        server.join()

    def test_truncated_response(self):
        server = FixedResponseServer(canned_response()[:40])
        with pytest.raises(RemoteFramingError):
            remote_estimate(("127.0.0.1", server.port), b"a", b"b")
        server.join()

    def test_decode_response_direct(self):
        with pytest.raises(RemoteFramingError):
            decode_response(b"\x00" * 10)
        est = decode_response(canned_response())
        assert est.q_hat == UnitQuat.identity()


class TestRequestEncoding:
    def test_layout(self):
        req = encode_request(b"AB", b"CDE")
        assert req == b"\x02\x00\x00\x00AB\x03\x00\x00\x00CDE"


class TestPoseEstimateValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            PoseEstimate(Vec3.zero(), Vec3(0.0, 1.0, 1.0), UnitQuat.identity(), 1.0, 0, 1)
        with pytest.raises(ValueError):
            PoseEstimate(Vec3.zero(), Vec3(1.0, 1.0, 1.0), UnitQuat.identity(), 0.0, 0, 1)

    def test_dict_roundtrip(self):
        e = PoseEstimate(Vec3(1, 2, 3), Vec3(0.1, 0.2, 0.3), UnitQuat.from_yaw(0.4), 0.5, 1, 2)
        assert PoseEstimate.from_dict(e.to_dict()) == e
