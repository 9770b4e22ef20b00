import math

import numpy as np
import pytest

from covis.bev import BevGrid
from covis.estimator import PoseEstimate
from covis.geometry import Pose, UnitQuat, Vec3
from covis.losses import (
    VARIANCE_FLOOR,
    EdgeSample,
    GnllTerm,
    LossWeights,
    NodeSample,
    bce_loss,
    chord_gnll,
    chord_gnll_grad,
    chord_sq,
    chord_sq_grad,
    combo_loss,
    dice_loss,
    gnll,
    gnll_grad,
    pose_loss,
    total_loss,
)

YAW180 = UnitQuat.from_yaw(math.pi)
IDENT = UnitQuat.identity()


def random_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return UnitQuat(*v)


def grid(values, extent=None):
    arr = np.asarray(values, dtype=float)
    extent = extent if extent is not None else float(arr.shape[0])
    return BevGrid(arr, extent=extent, resolution=extent / arr.shape[0])


class TestGnll:
    def test_zero(self):
        assert gnll(GnllTerm(0.0, 0.0, 1.0)) == 0.0

    def test_unit_error(self):
        assert gnll(GnllTerm(1.0, 0.0, 1.0)) == 0.5

    def test_log_term(self):
        assert gnll(GnllTerm(0.0, 0.0, math.e)) == pytest.approx(0.5, abs=1e-15)

    def test_clamping_never_nan(self):
        t = GnllTerm(0.0, 1.0, 0.0)
        assert t.variance == VARIANCE_FLOOR
        assert math.isfinite(gnll(t))

    def test_mse_reduction_at_unit_variance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu, mu_hat = rng.standard_normal(2)
            t = GnllTerm(mu, mu_hat, 1.0)
            assert gnll(t) - 0.5 * (mu_hat - mu) ** 2 == pytest.approx(0.0, abs=1e-15)

    def test_minimized_at_squared_error(self):
        # Grid search over sigma2 for fixed error; optimum at sigma2 = err^2.
        err = 0.7
        sigmas = np.linspace(0.05, 4.0, 2000)
        vals = [gnll(GnllTerm(0.0, err, s)) for s in sigmas]
        best = sigmas[int(np.argmin(vals))]
        assert best == pytest.approx(err * err, abs=5e-3)


class TestGnllGrad:
    def test_closed_forms(self):
        assert gnll_grad(GnllTerm(0.0, 0.0, 1.0)) == (0.0, 0.5)
        assert gnll_grad(GnllTerm(1.0, 0.0, 1.0)) == (-1.0, 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(1000):
            mu = float(rng.standard_normal())
            mu_hat = float(rng.standard_normal())
            s2 = float(rng.uniform(0.05, 3.0))
            d_mu, d_s2 = gnll_grad(GnllTerm(mu, mu_hat, s2))
            fd_mu = (gnll(GnllTerm(mu, mu_hat + h, s2)) - gnll(GnllTerm(mu, mu_hat - h, s2))) / (
                2 * h
            )
            fd_s2 = (gnll(GnllTerm(mu, mu_hat, s2 + h)) - gnll(GnllTerm(mu, mu_hat, s2 - h))) / (
                2 * h
            )
            assert d_mu == pytest.approx(fd_mu, rel=1e-5, abs=1e-7)
            assert d_s2 == pytest.approx(fd_s2, rel=1e-5, abs=1e-7)


class TestChord:
    def test_same(self):
        q = UnitQuat.from_yaw(0.3)
        assert chord_sq(q, q) == 0.0

    def test_yaw180(self):
        assert chord_sq(IDENT, YAW180) == pytest.approx(8.0, abs=1e-12)

    def test_yaw90_matches_formula(self):
        d = 2.0 * math.sin(math.radians(22.5))
        expected = 2.0 * d * d * (4.0 - d * d)
        assert chord_sq(IDENT, UnitQuat.from_yaw(math.pi / 2)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_sign_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q, q_hat = random_quat(rng), random_quat(rng)
            neg = UnitQuat(-q_hat.w, -q_hat.x, -q_hat.y, -q_hat.z)
            assert chord_sq(q, q_hat) == pytest.approx(chord_sq(q, neg), abs=1e-12)
            assert 0.0 <= chord_sq(q, q_hat) <= 8.0 + 1e-12

    def test_chord_gnll_values(self):
        assert chord_gnll(IDENT, IDENT, 1.0) == 0.0
        assert chord_gnll(IDENT, YAW180, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert chord_gnll(IDENT, YAW180, 8.0) == pytest.approx(
            0.5 * (math.log(8.0) + 1.0), abs=1e-12
        )

    def test_gradients_match_finite_differences(self):
        # Tangent-projected gradient vs central differences with renormalized
        # perturbations along tangent directions.
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(300):
            q, q_hat = random_quat(rng), random_quat(rng)
            s2 = float(rng.uniform(0.1, 4.0))
            g_q, g_s2 = chord_gnll_grad(q, q_hat, s2)
            qh = np.array(q_hat.as_tuple())
            # Random tangent direction.
            v = rng.standard_normal(4)
            v -= (v @ qh) * qh
            v /= np.linalg.norm(v)
            plus = UnitQuat(*((qh + h * v) / np.linalg.norm(qh + h * v)))
            minus = UnitQuat(*((qh - h * v) / np.linalg.norm(qh - h * v)))
            fd = (chord_gnll(q, plus, s2) - chord_gnll(q, minus, s2)) / (2 * h)
            assert float(g_q @ v) == pytest.approx(fd, rel=1e-5, abs=1e-6)
            fd_s2 = (chord_gnll(q, q_hat, s2 + h) - chord_gnll(q, q_hat, s2 - h)) / (2 * h)
            assert g_s2 == pytest.approx(fd_s2, rel=1e-5, abs=1e-7)

    def test_chord_sq_grad_is_tangent(self):
        rng = np.random.default_rng(4)
        q, q_hat = random_quat(rng), random_quat(rng)
        g = chord_sq_grad(q, q_hat)
        assert abs(g @ np.array(q_hat.as_tuple())) < 1e-12


class TestGridLosses:
    def test_dice_identical_binary(self):
        g = grid([[1.0, 0.0], [0.0, 1.0]])
        assert dice_loss(g, g) == pytest.approx(0.0, abs=1e-6)

    def test_dice_disjoint(self):
        a = grid([[1.0, 0.0], [0.0, 0.0]])
        b = grid([[0.0, 1.0], [0.0, 0.0]])
        assert dice_loss(a, b) == pytest.approx(1.0, abs=1e-5)

    def test_dice_half(self):
        truth = grid(np.ones((2, 2)))
        pred = grid(np.full((2, 2), 0.5))
        assert dice_loss(truth, pred) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_bce_matched(self):
        g = grid([[1.0, 0.0], [0.0, 1.0]])
        assert bce_loss(g, g) <= -math.log(1.0 - 1e-7) + 1e-12

    def test_bce_half(self):
        assert bce_loss(grid([[1.0]]), grid([[0.5]])) == pytest.approx(math.log(2), abs=1e-12)
        assert bce_loss(grid([[0.0]]), grid([[0.5]])) == pytest.approx(math.log(2), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss(grid(np.ones((2, 2))), grid(np.ones((3, 3))))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(size=(4, 4))
        p = rng.uniform(size=(4, 4))
        perm = rng.permutation(16)
        t2 = t.flatten()[perm].reshape(4, 4)
        p2 = p.flatten()[perm].reshape(4, 4)
        assert dice_loss(grid(t), grid(p)) == pytest.approx(dice_loss(grid(t2), grid(p2)), abs=1e-12)
        assert bce_loss(grid(t), grid(p)) == pytest.approx(bce_loss(grid(t2), grid(p2)), abs=1e-12)

    def test_combo_endpoints(self):
        rng = np.random.default_rng(6)
        t = grid(rng.uniform(size=(4, 4)))
        p = grid(rng.uniform(size=(4, 4)))
        assert combo_loss(t, p, LossWeights(alpha=1.0)) == dice_loss(t, p)
        assert combo_loss(t, p, LossWeights(alpha=0.0)) == bce_loss(t, p)
        mid = combo_loss(t, p, LossWeights(alpha=0.5))
        assert mid == pytest.approx(0.5 * (dice_loss(t, p) + bce_loss(t, p)), abs=1e-15)


def make_estimate(p, q, sigma_p=(1.0, 1.0, 1.0), sigma_q=1.0, src=0, dst=1):
    return PoseEstimate(
        p_hat=Vec3(*p), sigma_p=Vec3(*sigma_p), q_hat=q, sigma_q=sigma_q, src=src, dst=dst
    )


class TestPoseLoss:
    def test_perfect_estimate(self):
        truth = Pose(Vec3(1, 2, 3), UnitQuat.from_yaw(0.4))
        est = make_estimate((1, 2, 3), truth.rotation)
        for beta in (0.0, 0.5, 1.0):
            assert pose_loss(truth, est, LossWeights(beta=beta)) == pytest.approx(0.0, abs=1e-12)

    def test_beta_one_is_rotation_only(self):
        truth = Pose(Vec3(0, 0, 0), IDENT)
        est = make_estimate((5, 5, 5), YAW180)
        loss = pose_loss(truth, est, LossWeights(beta=1.0))
        assert loss == pytest.approx(chord_gnll(IDENT, YAW180, 1.0), abs=1e-12)

    def test_beta_zero_unit_x_error(self):
        truth = Pose(Vec3(0, 0, 0), IDENT)
        est = make_estimate((1, 0, 0), IDENT)
        assert pose_loss(truth, est, LossWeights(beta=0.0)) == pytest.approx(0.5, abs=1e-12)


class TestTotalLoss:
    def test_empty_batch(self):
        assert total_loss([], LossWeights()) == 0.0

    def test_single_node_no_neighbors(self):
        t = grid(np.ones((2, 2)))
        p = grid(np.full((2, 2), 0.5))
        w = LossWeights(alpha=0.5, beta=1.0)
        sample = NodeSample(bev_truth=t, bev_pred=p, edges=[])
        assert total_loss([sample], w) == pytest.approx(combo_loss(t, p, w), abs=1e-15)

    def test_missing_edge_estimate(self):
        t = grid(np.ones((2, 2)))
        sample = NodeSample(bev_truth=t, bev_pred=t, edges=[EdgeSample(Pose.identity(), None)])
        with pytest.raises(ValueError):
            total_loss([sample], LossWeights())

    def test_matches_naive_summation(self):
        # Brute-force oracle: recompute every term from raw formulas.
        rng = np.random.default_rng(7)
        w = LossWeights(alpha=0.3, beta=0.6)
        samples = []
        for _ in range(2):
            t = grid(rng.uniform(size=(3, 3)))
            p = grid(rng.uniform(size=(3, 3)))
            edges = []
            for dst in range(2):
                truth = Pose(Vec3(*rng.standard_normal(3)), random_quat(rng))
                est = make_estimate(
                    rng.standard_normal(3),
                    random_quat(rng),
                    sigma_p=rng.uniform(0.1, 2.0, size=3),
                    sigma_q=float(rng.uniform(0.1, 2.0)),
                    dst=dst,
                )
                edges.append(EdgeSample(truth, est))
            samples.append(NodeSample(bev_truth=t, bev_pred=p, edges=edges))

        def naive_gnll(mu, mu_hat, s2):
            return 0.5 * (math.log(s2) + (mu_hat - mu) ** 2 / s2)

        expected = 0.0
        for s in samples:
            tt, pp = s.bev_truth.cells, np.clip(s.bev_pred.cells, 1e-7, 1 - 1e-7)
            inter = (tt * s.bev_pred.cells).sum()
            dice = 1.0 - (2 * inter + 1e-6) / (tt.sum() + s.bev_pred.cells.sum() + 1e-6)
            bce = float(np.mean(-(tt * np.log(pp) + (1 - tt) * np.log(1 - pp))))
            expected += w.alpha * dice + (1 - w.alpha) * bce
            for e in s.edges:
                pos = sum(
                    naive_gnll(m, mh, sp * sp)
                    for m, mh, sp in zip(
                        e.truth.position.as_tuple(), e.est.p_hat.as_tuple(), e.est.sigma_p.as_tuple()
                    )
                )
                qv = np.array(e.truth.rotation.as_tuple())
                qh = np.array(e.est.q_hat.as_tuple())
                d2 = min(np.sum((qv - qh) ** 2), np.sum((qv + qh) ** 2))
                cs = 2 * d2 * (4 - d2)
                rot = 0.5 * (math.log(e.est.sigma_q**2) + cs / e.est.sigma_q**2)
                expected += (1 - w.beta) * pos + w.beta * rot
        assert total_loss(samples, w) == pytest.approx(expected, rel=1e-12)
