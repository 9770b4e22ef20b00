import math

import numpy as np
import pytest

from covis.estimator import PoseEstimate
from covis.geometry import Pose, UnitQuat, Vec3
from covis.metrics import (
    CATEGORY_ALL,
    CATEGORY_INVISIBLE,
    CATEGORY_INVISIBLE_FILTERED,
    CATEGORY_VISIBLE,
    EdgeRecord,
    auc_at,
    category_report,
    evaluate_records,
    is_invisible,
    mask_dice_iou,
    max_edge_error_deg,
    uncertainty_scores,
    youden_threshold,
)


def record(rel_yaw_deg=0.0, fov=120.0, p_truth=(1.0, 0.0, 0.0), p_hat=None, q_hat=None, sigma=0.3):
    truth = Pose(Vec3(*p_truth), UnitQuat.from_yaw(math.radians(rel_yaw_deg)))
    est = PoseEstimate(
        p_hat=Vec3(*(p_hat if p_hat is not None else p_truth)),
        sigma_p=Vec3(sigma, sigma, sigma),
        q_hat=q_hat if q_hat is not None else truth.rotation,
        sigma_q=0.1,
        src=0,
        dst=1,
    )
    return EdgeRecord(truth=truth, est=est, fov_deg=fov)


def brute_force_youden(scores):
    """O(n^2) exhaustive sweep over every score as threshold."""
    pos = [s for s, lab in scores if lab]
    neg = [s for s, lab in scores if not lab]
    best_j, best_t = -2.0, None
    for t, _ in sorted(scores):
        tpr = sum(1 for s in pos if s >= t) / len(pos)
        fpr = sum(1 for s in neg if s >= t) / len(neg)
        j = tpr - fpr
        if j > best_j + 1e-12:
            best_j, best_t = j, t
    return best_t


class TestIsInvisible:
    def test_facing_same_way(self):
        assert not is_invisible(record(rel_yaw_deg=0.0))

    def test_opposite(self):
        assert is_invisible(record(rel_yaw_deg=180.0))

    def test_boundary_is_visible(self):
        # Strict inequality at exactly the FOV.
        assert not is_invisible(record(rel_yaw_deg=120.0, fov=120.0))


class TestYouden:
    def test_separable(self):
        scores = [(1.0, True)] * 3 + [(0.0, False)] * 3
        assert youden_threshold(scores) == 1.0

    def test_small_case(self):
        scores = [(0.1, False), (0.2, False), (0.3, True), (0.4, True)]
        assert youden_threshold(scores) == pytest.approx(0.3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            youden_threshold([(0.1, True), (0.2, True)])
        with pytest.raises(ValueError):
            youden_threshold([])

    def test_interleaved_matches_brute_force(self):
        scores = [
            (0.15, False),
            (0.3, True),
            (0.2, False),
            (0.45, True),
            (0.25, True),
            (0.1, False),
            (0.5, False),
        ]
        assert youden_threshold(scores) == pytest.approx(brute_force_youden(scores))

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            labels = rng.uniform(size=n) < 0.4
            if labels.all() or not labels.any():
                continue
            scores = list(
                zip(
                    (rng.normal(1.0, 0.5, size=n) + labels * rng.uniform(0, 1)).tolist(),
                    labels.tolist(),
                )
            )
            assert youden_threshold(scores) == pytest.approx(brute_force_youden(scores))


class TestCategoryReport:
    def test_single_visible_edge_seeded_error(self):
        # Seeded with the default visible-class profile medians (33 cm, 5.8 deg).
        truth = Pose(Vec3(1.0, 0.0, 0.0), UnitQuat.identity())
        est = PoseEstimate(
            p_hat=Vec3(1.33, 0.0, 0.0),
            sigma_p=Vec3(0.1, 0.1, 0.1),
            q_hat=UnitQuat.from_yaw(math.radians(5.8)),
            sigma_q=0.1,
            src=0,
            dst=1,
        )
        reports = category_report([EdgeRecord(truth, est, 120.0)], reject_threshold=1.0)
        by_name = {r.category: r for r in reports}
        vis = by_name[CATEGORY_VISIBLE]
        assert vis.count == 1
        assert vis.median_pos == pytest.approx(0.33, abs=1e-12)
        assert vis.median_rot == pytest.approx(5.8, abs=1e-9)

    def test_all_perfect(self):
        recs = [record(rel_yaw_deg=d) for d in (0, 90, 150, 179)]
        for rep in category_report(recs, reject_threshold=1.0):
            assert rep.median_pos == 0.0
            assert rep.median_rot == 0.0

    def test_median_matches_sorted_oracle(self):
        # Five synthetic records with hand-assigned position errors.
        errors = [0.5, 0.1, 0.4, 0.2, 0.3]
        recs = [record(p_hat=(1.0 + e, 0.0, 0.0)) for e in errors]
        reports = category_report(recs, reject_threshold=10.0)
        by_name = {r.category: r for r in reports}
        sorted_errors = sorted(errors)
        assert by_name[CATEGORY_ALL].median_pos == pytest.approx(sorted_errors[(5 - 1) // 2])

    def test_even_count_lower_middle(self):
        errors = [0.1, 0.2, 0.3, 0.4]
        recs = [record(p_hat=(1.0 + e, 0.0, 0.0)) for e in errors]
        by_name = {r.category: r for r in category_report(recs, reject_threshold=10.0)}
        assert by_name[CATEGORY_ALL].median_pos == pytest.approx(0.2)

    def test_partition(self):
        rng = np.random.default_rng(9)
        recs = [
            record(rel_yaw_deg=float(rng.uniform(0, 180)), sigma=float(rng.uniform(0.1, 2.0)))
            for _ in range(60)
        ]
        by_name = {r.category: r for r in category_report(recs, reject_threshold=1.0)}
        assert (
            by_name[CATEGORY_VISIBLE].count + by_name[CATEGORY_INVISIBLE].count
            == by_name[CATEGORY_ALL].count
        )
        assert by_name[CATEGORY_INVISIBLE_FILTERED].count <= by_name[CATEGORY_INVISIBLE].count

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            category_report([], reject_threshold=1.0)


class TestAuc:
    def test_all_zero_errors(self):
        recs = [record() for _ in range(5)]
        rep = auc_at(recs, [20.0, 45.0, 90.0])
        assert rep.values == (1.0, 1.0, 1.0)
        assert rep.excluded == 0

    def test_single_edge_half(self):
        # One edge with max error 10 deg at threshold 20 -> 0.5.
        rec = record(q_hat=UnitQuat.from_yaw(math.radians(10.0)))
        assert max_edge_error_deg(rec) == pytest.approx(10.0, abs=1e-9)
        rep = auc_at([rec], [20.0])
        assert rep.values[0] == pytest.approx(0.5, abs=1e-9)

    def test_translation_angle_dominates(self):
        rec = record(p_truth=(1.0, 0.0, 0.0), p_hat=(0.0, 1.0, 0.0))
        assert max_edge_error_deg(rec) == pytest.approx(90.0, abs=1e-9)

    def test_zero_truth_translation_excluded(self):
        recs = [record(p_truth=(0.0, 0.0, 0.0)), record()]
        rep = auc_at(recs, [20.0])
        assert rep.excluded == 1

    def test_degenerate_estimate_worst_case(self):
        rec = record(p_hat=(0.0, 0.0, 0.0))
        assert max_edge_error_deg(rec) == pytest.approx(180.0)

    def test_matches_riemann_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            recs = []
            for _ in range(n):
                yaw_err = float(rng.uniform(0, 179))
                direction = rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                recs.append(
                    record(
                        p_hat=tuple(np.array([1.0, 0, 0]) + 0.7 * direction),
                        q_hat=UnitQuat.from_yaw(math.radians(yaw_err)),
                    )
                )
            rep = auc_at(recs, [20.0, 45.0, 90.0])
            errors = np.array([max_edge_error_deg(r) for r in recs])
            for t, got in zip(rep.thresholds_deg, rep.values):
                xs = np.arange(0.005, t, 0.01)
                recall = (errors[None, :] <= xs[:, None]).mean(axis=1)
                oracle = float(np.mean(recall))
                assert got == pytest.approx(oracle, abs=1e-3)


class TestDiceIou:
    def g(self, arr):
        return np.asarray(arr, dtype=float) > 0.5

    def test_identical(self):
        g = self.g([[1.0, 0.0], [0.0, 1.0]])
        assert mask_dice_iou(g, g) == (1.0, 1.0)

    def test_disjoint(self):
        a = self.g([[1.0, 0.0], [0.0, 0.0]])
        b = self.g([[0.0, 1.0], [0.0, 0.0]])
        assert mask_dice_iou(a, b) == (0.0, 0.0)

    def test_half_overlap(self):
        a = self.g([[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = self.g([[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        dice, iou = mask_dice_iou(a, b)
        assert dice == pytest.approx(0.5)
        assert iou == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        z = self.g(np.zeros((2, 2)))
        assert mask_dice_iou(z, z) == (1.0, 1.0)

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = self.g((rng.uniform(size=(8, 8)) > 0.5).astype(float))
            b = self.g((rng.uniform(size=(8, 8)) > 0.5).astype(float))
            dice, iou = mask_dice_iou(a, b)
            assert dice == pytest.approx(2.0 * iou / (1.0 + iou), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mask_dice_iou(self.g(np.zeros((2, 2))), self.g(np.zeros((3, 3))))


class TestEvaluateRecords:
    def test_auc_monotone_when_bounded(self):
        rng = np.random.default_rng(12)
        recs = [
            record(q_hat=UnitQuat.from_yaw(math.radians(float(rng.uniform(0, 19)))))
            for _ in range(50)
        ]
        rep = auc_at(recs, [20.0, 45.0, 90.0])
        assert rep.values[0] <= rep.values[1] <= rep.values[2]

    def test_pipeline_runs(self):
        rng = np.random.default_rng(13)
        recs = [
            record(
                rel_yaw_deg=float(rng.uniform(0, 180)),
                sigma=float(rng.uniform(0.1, 2.0)),
                p_hat=tuple(np.array([1.0, 0, 0]) + 0.2 * rng.standard_normal(3)),
            )
            for _ in range(40)
        ]
        rep = evaluate_records(recs)
        assert len(rep.categories) == 4
        assert math.isfinite(rep.reject_threshold)
        assert len(rep.auc.values) == 3

    def test_labeling_config(self):
        recs = [record(rel_yaw_deg=0.0, sigma=0.1), record(rel_yaw_deg=179.0, sigma=2.0)]
        inv = uncertainty_scores(recs, "invisible")
        assert [lab for _, lab in inv] == [False, True]
        err = uncertainty_scores(recs, "high_error", error_threshold=0.5)
        assert [lab for _, lab in err] == [False, False]
        with pytest.raises(ValueError):
            uncertainty_scores(recs, "nonsense")
