"""Evaluation pipeline: error categories, uncertainty filtering, AUC, Dice/IoU.

Edges are scored with the Euclidean position error and the geodesic rotation
angle. Visibility splits edges by whether the true relative rotation exceeds
the observing camera's field of view. Filtering rejects estimates whose
position-uncertainty norm is at or above a threshold chosen by maximizing
Youden's J = TPR - FPR over the observed scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .estimator import PoseEstimate
from .geometry import Pose, UnitQuat, pos_dist, rot_geodesic_deg

CATEGORY_ALL = "All"
CATEGORY_VISIBLE = "Visible"
CATEGORY_INVISIBLE = "Invisible"
CATEGORY_INVISIBLE_FILTERED = "InvisibleFiltered"

# Truth translations shorter than this have no defined direction; such edges
# are excluded from AUC and tallied.
MIN_TRANSLATION = 1e-3


@dataclass(frozen=True)
class EdgeRecord:
    """One directed estimation edge: ground truth, estimate and camera FOV."""

    truth: Pose
    est: PoseEstimate
    fov_deg: float

    def __post_init__(self):
        if not 0.0 < self.fov_deg <= 180.0:
            raise ValueError("fov_deg must be in (0, 180]")


@dataclass(frozen=True)
class CategoryReport:
    category: str
    count: int
    median_pos: float
    median_rot: float


@dataclass(frozen=True)
class AucReport:
    thresholds_deg: tuple[float, ...]
    values: tuple[float, ...]
    excluded: int


def is_invisible(rec: EdgeRecord) -> bool:
    """True when the true relative rotation exceeds the camera FOV (strictly)."""
    return rot_geodesic_deg(rec.truth.rotation, UnitQuat.identity()) > rec.fov_deg


def pos_error(rec: EdgeRecord) -> float:
    return pos_dist(rec.truth.position, rec.est.p_hat)


def rot_error_deg(rec: EdgeRecord) -> float:
    return rot_geodesic_deg(rec.truth.rotation, rec.est.q_hat)


def youden_threshold(scores: Sequence[tuple[float, bool]]) -> float:
    """Threshold (drawn from the scores) maximizing J = TPR - FPR.

    Classification rule: score >= threshold predicts positive (reject).
    Ties resolve to the lowest maximizing threshold. Raises ValueError when
    either class is missing.
    """
    if not scores:
        raise ValueError("empty score list")
    values = np.array([s for s, _ in scores], dtype=float)
    labels = np.array([bool(p) for _, p in scores])
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("youden_threshold needs both classes present")
    candidates = np.unique(values)  # ascending
    # Counts of scores >= t for each candidate threshold t.
    pos_sorted = np.sort(values[labels])
    neg_sorted = np.sort(values[~labels])
    tp = n_pos - np.searchsorted(pos_sorted, candidates, side="left")
    fp = n_neg - np.searchsorted(neg_sorted, candidates, side="left")
    # J = tp/n_pos - fp/n_neg compared in exact integer arithmetic so that
    # mathematical ties resolve to the lowest threshold deterministically.
    j_scaled = tp * n_neg - fp * n_pos
    return float(candidates[int(np.argmax(j_scaled))])  # first (lowest) maximizer


def _lower_median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[(len(ordered) - 1) // 2]


def _report(name: str, recs: Sequence[EdgeRecord]) -> CategoryReport:
    return CategoryReport(
        category=name,
        count=len(recs),
        median_pos=_lower_median(pos_error(r) for r in recs),
        median_rot=_lower_median(rot_error_deg(r) for r in recs),
    )


def category_report(recs: Sequence[EdgeRecord], reject_threshold: float) -> list[CategoryReport]:
    """All / Visible / Invisible / InvisibleFiltered median errors.

    InvisibleFiltered keeps the invisible records whose uncertainty score is
    below the rejection threshold. Medians use the lower-middle element for
    even counts; empty categories report zero medians.
    """
    if not recs:
        raise ValueError("empty record list")
    visible: list[EdgeRecord] = []
    invisible: list[EdgeRecord] = []
    for r in recs:
        (invisible if is_invisible(r) else visible).append(r)
    kept = [r for r in invisible if r.est.sigma_p_norm() < reject_threshold]
    return [
        _report(CATEGORY_ALL, recs),
        _report(CATEGORY_VISIBLE, visible),
        _report(CATEGORY_INVISIBLE, invisible),
        _report(CATEGORY_INVISIBLE_FILTERED, kept),
    ]


def translation_angle_deg(rec: EdgeRecord) -> float | None:
    """Angle between unit-normalized truth and estimated translations.

    None when the truth translation is too short to define a direction; a
    degenerate estimated translation counts as the worst case (180 deg).
    """
    t = rec.truth.position
    e = rec.est.p_hat
    if t.norm() < MIN_TRANSLATION:
        return None
    if e.norm() < MIN_TRANSLATION:
        return 180.0
    cx = t.y * e.z - t.z * e.y
    cy = t.z * e.x - t.x * e.z
    cz = t.x * e.y - t.y * e.x
    # atan2 of (|t x e|, t . e) stays precise for near-parallel vectors where
    # the acos form loses half the mantissa.
    return math.degrees(math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), t.dot(e)))


def max_edge_error_deg(rec: EdgeRecord) -> float | None:
    """max(rotation error, translation angle), or None for excluded edges."""
    trans = translation_angle_deg(rec)
    if trans is None:
        return None
    return max(rot_error_deg(rec), trans)


def auc_at(recs: Sequence[EdgeRecord], thresholds_deg: Sequence[float]) -> AucReport:
    """Exact area under the recall-vs-threshold step curve, per threshold.

    AUC@t = (1/t) * integral_0^t recall(e <= x) dx
          = mean_i max(0, t - e_i) / t over the included edges.
    """
    if not recs:
        raise ValueError("empty record list")
    errors = np.array(
        [e for e in (max_edge_error_deg(r) for r in recs) if e is not None], dtype=float
    )
    excluded = len(recs) - len(errors)
    if len(errors) == 0:
        raise ValueError("no edges with a defined translation direction")
    values = tuple(
        float(np.mean(np.maximum(0.0, t - errors)) / t) for t in thresholds_deg
    )
    return AucReport(tuple(float(t) for t in thresholds_deg), values, excluded)


def mask_dice_iou(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Dice and IoU of two boolean masks; both-empty pairs score (1, 1)."""
    if a.shape != b.shape:
        raise ValueError("mask shapes differ")
    inter = float(np.logical_and(a, b).sum())
    sa, sb = float(a.sum()), float(b.sum())
    union = sa + sb - inter
    if sa == 0.0 and sb == 0.0:
        return 1.0, 1.0
    dice = 2.0 * inter / (sa + sb)
    iou = inter / union if union > 0.0 else 1.0
    return dice, iou


def uncertainty_scores(
    recs: Sequence[EdgeRecord],
    labeling: str = "invisible",
    error_threshold: float = 0.5,
) -> list[tuple[float, bool]]:
    """(score, positive) pairs feeding the Youden sweep.

    The score is the position-uncertainty norm. ``labeling`` picks the
    positive ("should reject") class: "invisible" marks edges beyond the FOV,
    "high_error" marks edges whose position error exceeds ``error_threshold``.
    """
    if labeling == "invisible":
        return [(r.est.sigma_p_norm(), is_invisible(r)) for r in recs]
    if labeling == "high_error":
        return [(r.est.sigma_p_norm(), pos_error(r) > error_threshold) for r in recs]
    raise ValueError(f"unknown youden labeling {labeling!r}")


@dataclass(frozen=True)
class MetricsReport:
    categories: list[CategoryReport]
    reject_threshold: float
    auc: AucReport


def evaluate_records(
    recs: Sequence[EdgeRecord],
    auc_thresholds_deg: Sequence[float] = (20.0, 45.0, 90.0),
    labeling: str = "invisible",
    error_threshold: float = 0.5,
) -> MetricsReport:
    """Full pipeline: Youden threshold, category medians and AUC values.

    Falls back to an infinite rejection threshold (nothing rejected) when the
    Youden labels are single-class.
    """
    scores = uncertainty_scores(recs, labeling, error_threshold)
    try:
        threshold = youden_threshold(scores)
    except ValueError:
        threshold = math.inf
    return MetricsReport(
        categories=category_report(recs, threshold),
        reject_threshold=threshold,
        auc=auc_at(recs, auc_thresholds_deg),
    )
