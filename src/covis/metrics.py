"""Evaluation pipeline: error categories, uncertainty filtering, AUC, Dice/IoU.

Edges are scored with the Euclidean position error and the geodesic rotation
angle. Visibility splits edges by whether the true relative rotation exceeds
the observing camera's field of view. Filtering rejects estimates whose
position-uncertainty norm is at or above a threshold chosen by maximizing
Youden's J = TPR - FPR over the observed scores.

Scoring runs on columns (``EdgeColumns``): one evaluator computes every
per-edge quantity with the row kernels of ``geometry`` and aggregates them.
The record functions convert their records to columns and call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import PoseEstimate
from .geometry import (
    Pose,
    UnitQuat,
    atan2_deg_rows,
    norm_rows,
    pos_dist,
    quat_angle_deg_rows,
    rot_geodesic_deg,
)

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
class EdgeColumns:
    """Directed edges as float arrays, one row per edge.

    ``t_pos`` (n, 3) and ``t_quat`` (n, 4) are the true pose of dst in src's
    frame; ``p_hat``, ``q_hat`` and ``sigma_p`` come from the estimate and
    ``fov`` is the observing camera's field of view in degrees. Quaternions
    are unit and scalar-first.
    """

    t_pos: np.ndarray
    t_quat: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray
    sigma_p: np.ndarray
    fov: np.ndarray

    def __len__(self) -> int:
        return len(self.fov)

    @staticmethod
    def from_records(recs: Sequence[EdgeRecord]) -> "EdgeColumns":
        def col(values, width):
            return np.array(values, dtype=float).reshape(len(recs), width)

        return EdgeColumns(
            col([r.truth.position.as_tuple() for r in recs], 3),
            col([r.truth.rotation.as_tuple() for r in recs], 4),
            col([r.est.p_hat.as_tuple() for r in recs], 3),
            col([r.est.q_hat.as_tuple() for r in recs], 4),
            col([r.est.sigma_p.as_tuple() for r in recs], 3),
            np.array([r.fov_deg for r in recs], dtype=float),
        )


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


def _youden(values: np.ndarray, labels: np.ndarray) -> float:
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


def youden_threshold(scores: Sequence[tuple[float, bool]]) -> float:
    """Threshold (drawn from the scores) maximizing J = TPR - FPR.

    Classification rule: score >= threshold predicts positive (reject).
    Ties resolve to the lowest maximizing threshold. Raises ValueError when
    either class is missing.
    """
    if not scores:
        raise ValueError("empty score list")
    values, labels = zip(*scores)
    return _youden(np.array(values, dtype=float), np.array(labels, dtype=bool))


def _lower_median(values: np.ndarray) -> float:
    return float(np.sort(values)[(len(values) - 1) // 2]) if len(values) else 0.0


@dataclass(frozen=True)
class MetricsReport:
    categories: list[CategoryReport]
    reject_threshold: float
    auc: AucReport
    scores: np.ndarray  # position-uncertainty norm per edge
    labels: np.ndarray  # Youden positive ("should reject") class per edge


_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def evaluate_columns(
    cols: EdgeColumns,
    auc_thresholds_deg: Sequence[float] = (20.0, 45.0, 90.0),
    labeling: str = "invisible",
    error_threshold: float = 0.5,
    reject_threshold: float | None = None,
) -> MetricsReport:
    """Every metric of the edges in one pass over their columns.

    Per edge: invisibility (true relative rotation strictly beyond the FOV),
    position error, geodesic rotation error, the position-uncertainty norm as
    score, and the AUC error max(rotation error, translation angle). The
    translation angle is atan2(|t x e|, t . e) between truth and estimated
    translations, 180 deg for an estimate shorter than MIN_TRANSLATION, and
    the edge is excluded from AUC when the truth is that short.

    ``labeling`` picks the Youden positive class: "invisible" marks edges
    beyond the FOV, "high_error" edges whose position error exceeds
    ``error_threshold``. Without ``reject_threshold`` the Youden threshold
    is used, or infinity (nothing rejected) when the labels are single-class.
    Category medians take the lower-middle element; empty categories report
    zero. AUC@t = mean_i max(0, t - e_i) / t over the included edges, NaN when
    none is included.
    """
    if not len(cols):
        raise ValueError("empty record list")
    invisible = quat_angle_deg_rows(cols.t_quat, _IDENTITY) > cols.fov
    pos = norm_rows(cols.t_pos - cols.p_hat)
    rot = quat_angle_deg_rows(cols.t_quat, cols.q_hat)
    scores = norm_rows(cols.sigma_p)
    if labeling == "invisible":
        labels = invisible
    elif labeling == "high_error":
        labels = pos > error_threshold
    else:
        raise ValueError(f"unknown youden labeling {labeling!r}")
    if reject_threshold is None:
        try:
            reject_threshold = _youden(scores, labels)
        except ValueError:
            reject_threshold = math.inf

    def report(name, mask):
        return CategoryReport(name, int(mask.sum()), _lower_median(pos[mask]), _lower_median(rot[mask]))

    everything = np.ones(len(cols), dtype=bool)
    categories = [
        report(CATEGORY_ALL, everything),
        report(CATEGORY_VISIBLE, ~invisible),
        report(CATEGORY_INVISIBLE, invisible),
        report(CATEGORY_INVISIBLE_FILTERED, invisible & (scores < reject_threshold)),
    ]

    t, e = cols.t_pos, cols.p_hat
    tx, ty, tz = t.T
    ex, ey, ez = e.T
    cx = ty * ez - tz * ey
    cy = tz * ex - tx * ez
    cz = tx * ey - ty * ex
    # atan2 of (|t x e|, t . e) stays precise for near-parallel vectors where
    # the acos form loses half the mantissa.
    angle = atan2_deg_rows(np.sqrt(cx * cx + cy * cy + cz * cz), tx * ex + ty * ey + tz * ez)
    angle[norm_rows(e) < MIN_TRANSLATION] = 180.0
    errors = np.maximum(rot, angle)[~(norm_rows(t) < MIN_TRANSLATION)]
    values = tuple(
        float(np.mean(np.maximum(0.0, th - errors)) / th) if len(errors) else math.nan
        for th in auc_thresholds_deg
    )
    auc = AucReport(tuple(float(th) for th in auc_thresholds_deg), values, len(cols) - len(errors))
    return MetricsReport(categories, float(reject_threshold), auc, scores, labels)


def _defined_auc(report: MetricsReport) -> MetricsReport:
    if report.auc.excluded == len(report.scores):
        raise ValueError("no edges with a defined translation direction")
    return report


def category_report(recs: Sequence[EdgeRecord], reject_threshold: float) -> list[CategoryReport]:
    """All / Visible / Invisible / InvisibleFiltered median errors.

    InvisibleFiltered keeps the invisible records whose uncertainty score is
    below the rejection threshold.
    """
    return evaluate_columns(EdgeColumns.from_records(recs), reject_threshold=reject_threshold).categories


def auc_at(recs: Sequence[EdgeRecord], thresholds_deg: Sequence[float]) -> AucReport:
    """Exact area under the recall-vs-threshold step curve, per threshold.

    AUC@t = (1/t) * integral_0^t recall(e <= x) dx
          = mean_i max(0, t - e_i) / t over the included edges.
    """
    cols = EdgeColumns.from_records(recs)
    return _defined_auc(evaluate_columns(cols, thresholds_deg, reject_threshold=math.inf)).auc


def uncertainty_scores(
    recs: Sequence[EdgeRecord],
    labeling: str = "invisible",
    error_threshold: float = 0.5,
) -> list[tuple[float, bool]]:
    """(score, positive) pairs feeding the Youden sweep; see evaluate_columns."""
    if not recs:
        return []
    cols = EdgeColumns.from_records(recs)
    report = evaluate_columns(cols, (), labeling, error_threshold, reject_threshold=math.inf)
    return list(zip(report.scores.tolist(), report.labels.tolist()))


def evaluate_records(
    recs: Sequence[EdgeRecord] | EdgeColumns, labeling: str = "invisible", error_threshold: float = 0.5
) -> MetricsReport:
    """Full pipeline on records or columns: Youden threshold, category medians and AUC at 20/45/90 deg."""
    if not isinstance(recs, EdgeColumns):
        recs = EdgeColumns.from_records(recs)
    return _defined_auc(evaluate_columns(recs, labeling=labeling, error_threshold=error_threshold))


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
