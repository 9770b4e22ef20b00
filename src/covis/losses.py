"""Uncertainty-loss kernels (values and gradients) for validating trainers.

Every kernel is a plain function of floats or grids so any external training
loop can be checked against it. Variances are clamped to a floor of 1e-8
before use, so a loss is never NaN.
Gradients with respect to quaternions are taken in the four raw components
and projected onto the tangent plane of the unit sphere, which is what a
finite-difference check with renormalized perturbations measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bev import BevGrid
from .estimator import PoseEstimate
from .geometry import Pose, UnitQuat, quat_dist

VARIANCE_FLOOR = 1e-8
BCE_CLAMP = 1e-7
DICE_EPS = 1e-6


@dataclass(frozen=True)
class GnllTerm:
    """One scalar Gaussian negative-log-likelihood term."""

    mu: float
    mu_hat: float
    sigma2_hat: float

    @property
    def variance(self) -> float:
        return max(self.sigma2_hat, VARIANCE_FLOOR)


@dataclass(frozen=True)
class LossWeights:
    """alpha balances Dice vs BCE; beta balances position vs rotation."""

    alpha: float = 0.5
    beta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


def gnll(term: GnllTerm) -> float:
    """0.5 * (log(sigma2) + (mu_hat - mu)^2 / sigma2)."""
    v = term.variance
    e = term.mu_hat - term.mu
    return 0.5 * (math.log(v) + e * e / v)


def gnll_grad(term: GnllTerm) -> tuple[float, float]:
    """(d/d mu_hat, d/d sigma2_hat) of gnll."""
    v = term.variance
    e = term.mu_hat - term.mu
    return e / v, 0.5 * (1.0 / v - e * e / (v * v))


def chord_sq(q: UnitQuat, q_hat: UnitQuat) -> float:
    """Squared chordal rotation loss 2*d^2*(4 - d^2), d = quat_dist; in [0, 8]."""
    d2 = quat_dist(q, q_hat) ** 2
    return 2.0 * d2 * (4.0 - d2)


def chord_sq_grad(q: UnitQuat, q_hat: UnitQuat) -> np.ndarray:
    """Gradient of chord_sq in the four q_hat components, tangent-projected.

    chord_sq = 8*(1 - <q, q_hat>^2), so the raw gradient is -16*<q, q_hat>*q.
    """
    qv = np.array(q.as_tuple())
    qh = np.array(q_hat.as_tuple())
    g = -16.0 * float(qv @ qh) * qv
    return g - (g @ qh) * qh


def chord_gnll(q: UnitQuat, q_hat: UnitQuat, sigma2_hat: float) -> float:
    """0.5 * (log(sigma2) + chord_sq / sigma2)."""
    v = max(sigma2_hat, VARIANCE_FLOOR)
    return 0.5 * (math.log(v) + chord_sq(q, q_hat) / v)


def chord_gnll_grad(
    q: UnitQuat, q_hat: UnitQuat, sigma2_hat: float
) -> tuple[np.ndarray, float]:
    """(tangent gradient in q_hat, d/d sigma2_hat) of chord_gnll."""
    v = max(sigma2_hat, VARIANCE_FLOOR)
    d_q = chord_sq_grad(q, q_hat) / (2.0 * v)
    d_v = 0.5 * (1.0 / v - chord_sq(q, q_hat) / (v * v))
    return d_q, d_v


def _check_shapes(truth: BevGrid, pred: BevGrid) -> None:
    if truth.cells.shape != pred.cells.shape:
        raise ValueError("grid shapes differ")


def dice_loss(truth: BevGrid, pred: BevGrid) -> float:
    """Soft Dice loss 1 - (2*sum(t*p) + eps) / (sum(t) + sum(p) + eps)."""
    _check_shapes(truth, pred)
    t, p = truth.cells, pred.cells
    inter = float((t * p).sum())
    return 1.0 - (2.0 * inter + DICE_EPS) / (float(t.sum()) + float(p.sum()) + DICE_EPS)


def bce_loss(truth: BevGrid, pred: BevGrid) -> float:
    """Mean binary cross entropy; predictions clamped away from {0, 1}."""
    _check_shapes(truth, pred)
    t = truth.cells
    p = np.clip(pred.cells, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))


def combo_loss(truth: BevGrid, pred: BevGrid, w: LossWeights) -> float:
    """alpha * Dice + (1 - alpha) * BCE."""
    return w.alpha * dice_loss(truth, pred) + (1.0 - w.alpha) * bce_loss(truth, pred)


def pose_loss(truth: Pose, est: PoseEstimate, w: LossWeights) -> float:
    """(1 - beta) * position GNLL + beta * chordal rotation GNLL.

    The position term sums one scalar GNLL per axis with that axis's
    predicted variance; the rotation term uses the squared chordal-scale
    sigma.
    """
    sp = est.sigma_p
    pos_terms = (
        gnll(GnllTerm(truth.position.x, est.p_hat.x, sp.x * sp.x))
        + gnll(GnllTerm(truth.position.y, est.p_hat.y, sp.y * sp.y))
        + gnll(GnllTerm(truth.position.z, est.p_hat.z, sp.z * sp.z))
    )
    rot_term = chord_gnll(truth.rotation, est.q_hat, est.sigma_q * est.sigma_q)
    return (1.0 - w.beta) * pos_terms + w.beta * rot_term


@dataclass(frozen=True)
class EdgeSample:
    """Directed edge of the loss graph; ``est`` is None when missing."""

    truth: Pose
    est: Optional[PoseEstimate]


@dataclass(frozen=True)
class NodeSample:
    """Per-node grids plus the node's outgoing edges."""

    bev_truth: BevGrid
    bev_pred: BevGrid
    edges: Sequence[EdgeSample]


def total_loss(samples: Sequence[NodeSample], w: LossWeights) -> float:
    """Sum over nodes of the grid loss plus all per-edge pose losses."""
    total = 0.0
    for sample in samples:
        total += combo_loss(sample.bev_truth, sample.bev_pred, w)
        for edge in sample.edges:
            if edge.est is None:
                raise ValueError("missing estimate for a listed edge")
            total += pose_loss(edge.truth, edge.est, w)
    return total
