import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covis.estimator import (
    _HN_MEDIAN,
    NoiseProfile,
    Observation,
    PoseEstimate,
    chordal_sigma,
    edge_rng,
    estimate,
    estimate_oracle,
    _mixture_median_factor,
    scale_for_median,
)
from covis.geometry import (
    Pose,
    UnitQuat,
    Vec3,
    compose,
    inverse,
    pos_dist,
    quat_dist,
    rot_geodesic_deg,
)
from covis.losses import LossWeights, pose_loss
from covis.metrics import EdgeRecord, is_invisible
from covis.netsim import Medium

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
    pos, rot, est_list = [], [], []
    for k in range(n):
        e = estimate(a, b, profile, edge_rng(seed, k, 0, 1))
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


class TestEdgeRng:
    def test_pinned_first_values(self):
        # The stream is part of every synthetic output; a change here changes
        # every runlog and dataset.
        pinned = {
            (7, 3, 0, 1): (0.07066589706831318, -1.1424132792716442, -1.4779772337562664),
            (2**70, 0, 0, 1): (-0.5492751243925429, 0.27887650605251957, -1.3111151984740117),
            (0, 2**40, 5, 3): (-0.9455188386926399, -0.24171005275253407, 0.1416387647170706),
        }
        for key, first in pinned.items():
            z = edge_rng(*key)
            assert len(z) == 10
            assert z[:3] == pytest.approx(first, rel=1e-12)
            assert z == edge_rng(*key)

    def test_standard_normal_moments(self):
        z = np.array([edge_rng(3, tick, 1, 2) for tick in range(20_000)]).ravel()
        assert z.size == 200_000
        assert abs(z.mean()) < 0.01  # 4.5 standard errors
        assert z.std() == pytest.approx(1.0, abs=0.01)
        assert np.median(np.abs(z)) == pytest.approx(0.6744897501960817, abs=0.01)

    def test_neighbouring_keys_uncorrelated(self):
        ticks = range(5_000)
        base = np.array([edge_rng(4, t, 2, 5) for t in ticks]).ravel()
        next_tick = np.array([edge_rng(4, t + 1, 2, 5) for t in ticks]).ravel()
        swapped = np.array([edge_rng(4, t, 5, 2) for t in ticks]).ravel()
        bound = 4.0 / math.sqrt(base.size)
        assert abs(np.corrcoef(base, next_tick)[0, 1]) < bound
        assert abs(np.corrcoef(base, swapped)[0, 1]) < bound

    def test_zero_norm_guard(self):
        # Zero direction and axis draws with unit magnitudes: the guard turns
        # both into the x axis, deterministically and with every check kept.
        a, b = obs(0), obs(1, p=(1.0, 0.5, 0.0), yaw=0.4)
        profile = NoiseProfile()
        z = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        e = estimate(a, b, profile, z)
        assert e == estimate(a, b, profile, z)
        s_pos = scale_for_median(profile.median_pos_visible, profile.sigma_jitter)
        assert e.p_hat.x == pytest.approx(1.0 + s_pos, rel=1e-12)
        assert (e.p_hat.y, e.p_hat.z) == pytest.approx((0.5, 0.0), abs=1e-12)
        rel = b.pose_truth.rotation
        err = rel.conjugate().multiply(e.q_hat)
        s_rot = scale_for_median(profile.median_rot_visible, profile.sigma_jitter)
        assert rot_geodesic_deg(rel, e.q_hat) == pytest.approx(s_rot, rel=1e-9)
        assert abs(err.y) < 1e-12 and abs(err.z) < 1e-12


class TestMedianRoot:
    def test_pinned_bits(self):
        # The smallest float whose quadrature CDF reaches 1/2; these are the
        # bits scipy's brentq found, so default-config outputs kept their bytes.
        assert _HN_MEDIAN.hex() == "0x1.5956b87528a4ap-1"  # sqrt(2) * erfinv(1/2)
        pinned = {0.2: "0x1.55c070a6a8683p-1", 0.4: "0x1.4ce94d91399d4p-1", 0.6: "0x1.42bd31197af0bp-1"}
        assert {j: _mixture_median_factor(j).hex() for j in pinned} == pinned
        assert _mixture_median_factor(0.0) == _HN_MEDIAN

    def test_import_leaves_out_scipy_solvers(self):
        code = "import sys, covis.cli; print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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


class TestEmbeddingCodec:
    @staticmethod
    def pose_bits(o):
        p, q = o.pose_truth.position, o.pose_truth.rotation
        return struct.pack("<7d", *p.as_tuple(), *q.as_tuple())

    def test_roundtrip_is_exact_on_formation_poses(self):
        # Formation poses are yaw-only: the leader's from_yaw, and followers
        # composed from it with their lateral offsets, as FormationRun does.
        rng = np.random.default_rng(6)
        filler = rng.bytes(6144)
        offsets = [
            Pose(Vec3(0.0, side * 0.75 * lane, 0.0), UnitQuat.identity())
            for side in (-1.0, 1.0)
            for lane in (1, 2)
        ]
        poses = [Pose(Vec3(-0.0, 0.0, -0.0), UnitQuat(1.0, -0.0, 0.0, -0.0))]
        for yaw, x, y in rng.uniform(-10.0, 10.0, (500, 3)):
            leader = Pose(Vec3(x, y, 0.0), UnitQuat.from_yaw(yaw))
            poses += [leader] + [compose(leader, inverse(o)) for o in offsets]
        for k, pose in enumerate(poses):
            sent = Observation(65535 - k, pose, float(rng.uniform(1.0, 180.0)), b"", 2**32 - 1 - k)
            payload = sent.to_payload(filler)
            assert len(payload) == len(filler)
            assert payload[Observation.HEADER.size :] == filler[Observation.HEADER.size :]
            got = Observation.from_payload(payload)
            assert (got.node_id, got.tick, got.fov_deg) == (sent.node_id, sent.tick, sent.fov_deg)
            assert got.embedding == payload
            assert self.pose_bits(got) == self.pose_bits(sent)
        assert Observation.HEADER.size == 70


class TestPoseEstimateValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            PoseEstimate(Vec3.zero(), Vec3(0.0, 1.0, 1.0), UnitQuat.identity(), 1.0, 0, 1)
        with pytest.raises(ValueError):
            PoseEstimate(Vec3.zero(), Vec3(1.0, 1.0, 1.0), UnitQuat.identity(), 0.0, 0, 1)

    # A "<= 0" or "< 0" guard lets each of these through: NaN fails every comparison.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Medium(bitrate=math.nan),
            lambda: Medium(loss_slope=math.nan),
            lambda: Medium(propagation=math.nan),
            lambda: Medium(propagation=-1.0),  # deliveries scheduled before their transmission
            lambda: Medium(propagation=math.inf),
            lambda: NoiseProfile(median_pos_visible=math.nan),
            lambda: NoiseProfile(median_rot_invisible=math.nan),
            lambda: NoiseProfile(miscalibration=math.nan),
            lambda: NoiseProfile(sigma_jitter=math.nan),
            lambda: PoseEstimate(Vec3.zero(), Vec3(1.0, 1.0, 1.0), UnitQuat.identity(), math.nan, 0, 1),
            lambda: PoseEstimate(Vec3.zero(), Vec3(1.0, 1.0, 1.0), UnitQuat.identity(), math.inf, 0, 1),
        ],
        ids=["bitrate_nan", "loss_slope_nan", "propagation_nan", "propagation_negative", "propagation_inf",
             "median_pos_nan", "median_rot_nan", "miscalibration_nan", "sigma_jitter_nan", "sigma_q_nan",
             "sigma_q_inf"],
    )
    def test_bad_value_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_dict_roundtrip(self):
        e = PoseEstimate(Vec3(1, 2, 3), Vec3(0.1, 0.2, 0.3), UnitQuat.from_yaw(0.4), 0.5, 1, 2)
        d = e.to_dict()
        rebuilt = PoseEstimate(Vec3(*d["p_hat"]), Vec3(*d["sigma_p"]), UnitQuat(*d["q_hat"]), d["sigma_q"],
                               d["src"], d["dst"])
        assert rebuilt == e
