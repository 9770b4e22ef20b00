import math

import numpy as np
import pytest

from covis.estimator import PoseEstimate
from covis.geometry import Pose, UnitQuat, Vec3, rot_geodesic_deg
from covis.metrics import (
    CATEGORY_ALL,
    CATEGORY_INVISIBLE,
    CATEGORY_INVISIBLE_FILTERED,
    CATEGORY_VISIBLE,
    MIN_TRANSLATION,
    EdgeColumns,
    EdgeRecord,
    auc_at,
    category_report,
    evaluate_records,
    is_invisible,
    mask_dice_iou,
    pos_error,
    rot_error_deg,
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


def reference_max_error_deg(rec):
    """max(rotation error, translation angle) per record with scalar arithmetic, or None.

    None when the truth translation is too short to define a direction; a
    degenerate estimated translation counts as the worst case (180 deg).
    """
    t, e = rec.truth.position, rec.est.p_hat
    if t.norm() < MIN_TRANSLATION:
        return None
    if e.norm() < MIN_TRANSLATION:
        return max(rot_error_deg(rec), 180.0)
    cx = t.y * e.z - t.z * e.y
    cy = t.z * e.x - t.x * e.z
    cz = t.x * e.y - t.y * e.x
    angle = math.degrees(math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), t.dot(e)))
    return max(rot_error_deg(rec), angle)


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
        rep = auc_at([rec], [20.0])
        assert rep.values[0] == pytest.approx(0.5, abs=1e-9)

    def test_translation_angle_dominates(self):
        # An error of 90 deg scores 1/2 at 180 deg.
        rec = record(p_truth=(1.0, 0.0, 0.0), p_hat=(0.0, 1.0, 0.0))
        assert auc_at([rec], [180.0]).values[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_truth_translation_excluded(self):
        recs = [record(p_truth=(0.0, 0.0, 0.0)), record()]
        rep = auc_at(recs, [20.0])
        assert rep.excluded == 1

    def test_degenerate_estimate_worst_case(self):
        rec = record(p_hat=(0.0, 0.0, 0.0))
        assert auc_at([rec], [360.0]).values[0] == 0.5

    def test_no_defined_direction_rejected(self):
        with pytest.raises(ValueError):
            auc_at([record(p_truth=(0.0, 0.0, 0.0))], [20.0])
        # Category medians need no direction.
        assert category_report([record(p_truth=(0.0, 0.0, 0.0))], 1.0)[0].count == 1

    @staticmethod
    def acos_error_deg(rec):
        t, e = np.array(rec.truth.position.as_tuple()), np.array(rec.est.p_hat.as_tuple())
        c = np.clip(t @ e / (np.linalg.norm(t) * np.linalg.norm(e)), -1.0, 1.0)
        return max(rot_geodesic_deg(rec.truth.rotation, rec.est.q_hat), math.degrees(math.acos(c)))

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
            errors = np.array([self.acos_error_deg(r) for r in recs])
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


def random_unit(rng, kind):
    v = rng.standard_normal(4)
    if kind == "w_zero":
        v[0] = 0.0
    elif kind == "near_180":  # w within 1e-9 of 0: a rotation within about 1e-7 deg of 180
        v[0] = rng.uniform(-1e-9, 1e-9)
    v = [float(c) for c in v / np.linalg.norm(v)]
    return UnitQuat(*([-c for c in v] if rng.random() < 0.5 else v))


def random_vec(rng):
    scale = float(rng.choice([2.0, MIN_TRANSLATION, 0.5 * MIN_TRANSLATION, 0.0]))
    return Vec3(*(scale * rng.standard_normal(3)))


class TestColumnsMatchRecords:
    """The column evaluator reproduces the per-record scalar functions bit for bit."""

    def test_random_records(self):
        rng = np.random.default_rng(21)
        kinds = ["random", "w_zero", "near_180"]
        for trial in range(40):
            recs = []
            for _ in range(int(rng.integers(1, 120))):
                truth = Pose(random_vec(rng), random_unit(rng, kinds[int(rng.integers(3))]))
                est = PoseEstimate(
                    random_vec(rng) if rng.random() < 0.3 else truth.position + Vec3(*rng.normal(0, 0.3, 3)),
                    Vec3(*rng.uniform(0.05, 2.0, 3)),
                    random_unit(rng, kinds[int(rng.integers(3))]),
                    0.1,
                    0,
                    1,
                )
                recs.append(EdgeRecord(truth, est, float(rng.choice([30.0, 120.0, 180.0]))))
            threshold = float(rng.uniform(0.5, 3.0))
            reports = {r.category: r for r in category_report(recs, threshold)}
            members = {
                CATEGORY_ALL: recs,
                CATEGORY_VISIBLE: [r for r in recs if not is_invisible(r)],
                CATEGORY_INVISIBLE: [r for r in recs if is_invisible(r)],
                CATEGORY_INVISIBLE_FILTERED: [
                    r for r in recs if is_invisible(r) and r.est.sigma_p_norm() < threshold
                ],
            }
            for name, group in members.items():
                pos = sorted(pos_error(r) for r in group)
                rot = sorted(rot_error_deg(r) for r in group)
                mid = (len(group) - 1) // 2
                want = (len(group), pos[mid] if group else 0.0, rot[mid] if group else 0.0)
                got = reports[name]
                assert (got.count, got.median_pos, got.median_rot) == want, (trial, name)
            scores = uncertainty_scores(recs)
            assert scores == [(r.est.sigma_p_norm(), is_invisible(r)) for r in recs]
            errors = [e for e in map(reference_max_error_deg, recs) if e is not None]
            if errors:
                rep = auc_at(recs, [20.0, 45.0, 90.0])
                errors = np.array(errors)
                assert rep.values == tuple(
                    float(np.mean(np.maximum(0.0, t - errors)) / t) for t in (20.0, 45.0, 90.0)
                )
                assert rep.excluded == len(recs) - len(errors)

    def test_records_and_columns_give_one_report(self):
        rng = np.random.default_rng(22)
        recs = [
            record(rel_yaw_deg=float(rng.uniform(0, 180)), sigma=float(rng.uniform(0.1, 2.0)))
            for _ in range(30)
        ]
        a = evaluate_records(recs)
        b = evaluate_records(EdgeColumns.from_records(recs))
        assert (a.categories, a.reject_threshold, a.auc) == (b.categories, b.reject_threshold, b.auc)
