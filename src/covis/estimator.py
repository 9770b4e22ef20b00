"""Relative-pose estimators: a calibrated synthetic estimator and a noiseless oracle.

The synthetic estimator corrupts the true relative pose with sampled noise whose
median error is calibrated per visibility class (a pair is "invisible" when the
relative rotation exceeds the observer's field of view). Error magnitudes are
half-normal with a per-sample scale: the scale carries a lognormal jitter around
the class scale, and the class scale is solved numerically so the magnitude
distribution's median equals the configured median exactly. The reported
uncertainties are the true per-sample scales times a miscalibration factor, so
a jitter of zero gives a class-constant report and any positive jitter makes
the report informative about the individual draw.

Reported sigma_q lives on the chordal scale: the straight-line quaternion-pair
distance sqrt(8)*sin(angle/2) that the chordal loss squares.

An ``Observation`` travels between robots as its broadcast embedding: a fixed
70-byte header (``Observation.HEADER``) written over the start of the node's
filler, decoded again by each receiver.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Pose, UnitQuat, Vec3, quat_angle_deg, quat_mul, quat_rotate, relative_pose


def _first_root(f) -> float:
    """Smallest float t in (1e-9, 1e4] with f(t) >= 0, by float bisection.

    ``f`` is increasing with f(1e-9) < 0 <= f(1e4). The result is defined by
    ``f`` alone, not by a solver's tolerance.
    """
    lo, hi = 1e-9, 1e4
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid


# Median of |N(0,1)|, the root of erf(t/sqrt(2)) = 1/2; a half-normal with
# scale median/_HN_MEDIAN has the requested median.
_HN_MEDIAN = _first_root(lambda t: math.erf(t / math.sqrt(2.0)) - 0.5)


@dataclass(frozen=True)
class Observation:
    """One node's view at a tick: opaque embedding plus hidden ground truth.

    ``pose_truth`` exists for the simulator and the synthetic noise generator
    only; estimator consumers must treat the embedding as the sole input.

    A broadcast embedding starts with ``HEADER``: node id (uint16), tick
    (uint32), position xyz, quaternion wxyz and fov in degrees (float64), all
    little-endian, 70 bytes. The node's filler makes up the rest.
    """

    node_id: int
    pose_truth: Pose
    fov_deg: float
    embedding: bytes
    tick: int = 0

    HEADER = struct.Struct("<HI8d")

    def to_payload(self, filler: bytes) -> bytes:
        """The header written over the start of ``filler``, which must be at least as long."""
        p, q = self.pose_truth.position, self.pose_truth.rotation
        head = self.HEADER.pack(
            self.node_id, self.tick, p.x, p.y, p.z, q.w, q.x, q.y, q.z, self.fov_deg
        )
        return head + filler[self.HEADER.size :]

    @staticmethod
    def from_payload(payload: bytes) -> "Observation":
        """The sender's observation decoded from a received payload, which becomes its embedding."""
        node_id, tick, px, py, pz, qw, qx, qy, qz, fov = Observation.HEADER.unpack_from(payload)
        pose = Pose(Vec3(px, py, pz), UnitQuat(qw, qx, qy, qz))
        return Observation(node_id, pose, fov, payload, tick)


@dataclass(frozen=True)
class PoseEstimate:
    """Relative pose of dst in src's ego frame, with aleatoric uncertainties."""

    p_hat: Vec3
    sigma_p: Vec3  # per-axis standard deviation, meters
    q_hat: UnitQuat
    sigma_q: float  # chordal-scale standard deviation
    src: int
    dst: int

    SIGMA_Q_RULE = "sigma_q must be positive and finite"

    def __post_init__(self):
        if not min(self.sigma_p.x, self.sigma_p.y, self.sigma_p.z) > 0.0:
            raise ValueError("sigma_p components must be positive")
        if not 0.0 < self.sigma_q < math.inf:
            raise ValueError(self.SIGMA_Q_RULE)

    def sigma_p_norm(self) -> float:
        """Scalar uncertainty score used for filtering and gating."""
        return self.sigma_p.norm()

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "p_hat": list(self.p_hat.as_tuple()),
            "sigma_p": list(self.sigma_p.as_tuple()),
            "q_hat": list(self.q_hat.as_tuple()),
            "sigma_q": self.sigma_q,
        }


@dataclass(frozen=True)
class NoiseProfile:
    """Per-visibility-class median errors plus report miscalibration.

    Defaults model a monocular relative-pose estimator with visible-pair
    error medians of 33 cm / 5.8 deg and invisible-pair medians of
    97 cm / 7.9 deg. ``sigma_jitter`` is the lognormal spread of the
    per-sample noise scale; zero makes every sample of a class share the
    class scale.
    """

    median_pos_visible: float = 0.33
    median_pos_invisible: float = 0.97
    median_rot_visible: float = 5.8
    median_rot_invisible: float = 7.9
    miscalibration: float = 1.0
    sigma_jitter: float = 0.4

    def __post_init__(self):
        for m in (
            self.median_pos_visible,
            self.median_pos_invisible,
            self.median_rot_visible,
            self.median_rot_invisible,
        ):
            if not m > 0.0:
                raise ValueError("profile medians must be positive")
        if not self.miscalibration > 0.0:
            raise ValueError("miscalibration must be positive")
        if not self.sigma_jitter >= 0.0:
            raise ValueError("sigma_jitter must be non-negative")


@lru_cache(maxsize=None)
def _mixture_median_factor(jitter: float) -> float:
    """Median of exp(jitter*g)*|z| for independent standard normals g, z.

    The first root of E_g[erf(t*exp(-jitter*g)/sqrt(2))] = 1/2 with
    Gauss-Hermite quadrature; reduces to the half-normal median at jitter = 0.
    """
    if jitter == 0.0:
        return _HN_MEDIAN
    nodes, weights = np.polynomial.hermite.hermgauss(81)
    w = weights / math.sqrt(math.pi)
    g = math.sqrt(2.0) * nodes
    scale = np.exp(-jitter * g) / math.sqrt(2.0)
    return _first_root(lambda t: float(np.sum(w * [math.erf(x) for x in (t * scale).tolist()])) - 0.5)


def scale_for_median(median: float, jitter: float) -> float:
    """Class scale whose jittered half-normal magnitude has the given median."""
    return median / _mixture_median_factor(jitter)


def chordal_sigma(angle_scale_deg: float) -> float:
    """Chordal-scale equivalent of a geodesic angle scale."""
    a = math.radians(min(angle_scale_deg, 180.0))
    return math.sqrt(8.0) * math.sin(0.5 * a)


_WORDS = struct.Struct("<10Q")
_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def edge_rng(seed: int, tick: int, src: int, dst: int) -> list[float]:
    """The edge's ten standard normals, a pure function of (seed, tick, src, dst).

    Counter-based and keyed (Salmon et al., SC 2011): SHAKE-128 of the decimal
    key gives ten 64-bit words, the top 53 bits of each a uniform, and
    Box-Muller turns each pair into two normals. Any non-negative integers are
    valid keys, and no draw depends on the order edges are evaluated in.
    """
    words = _WORDS.unpack(hashlib.shake_128(b"%d,%d,%d,%d" % (seed, tick, src, dst)).digest(80))
    z = []
    for k in range(0, 10, 2):
        r = math.sqrt(-2.0 * math.log(((words[k] >> 11) + 1) * 2.0**-53))  # uniform in (0, 1]
        t = 2.0 * math.pi * (words[k + 1] >> 11) * 2.0**-53
        z += (r * math.cos(t), r * math.sin(t))
    return z


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    n = math.sqrt(x * x + y * y + z * z)
    if n <= 1e-12:  # deterministic guard; a normal triple this short has probability ~1e-36
        return (1.0, 0.0, 0.0)
    return (x / n, y / n, z / n)


def estimate(
    obs_i: Observation,
    obs_j: Observation,
    profile: NoiseProfile,
    z: list[float],
) -> PoseEstimate:
    """Truth relative pose corrupted by calibrated synthetic noise.

    Position error: uniform direction, magnitude half-normal with a per-sample
    scale (class scale times lognormal jitter). Rotation error: random axis,
    geodesic magnitude from the same family. Reported sigmas are the true
    per-sample scales times the profile miscalibration; the position report is
    split isotropically so its Euclidean norm equals the sample scale.

    ``z`` holds ten standard normals, normally ``edge_rng(seed, tick, src,
    dst)``, used in this order: z[0] position scale jitter, z[1:4] error
    direction, z[4] position magnitude, z[5] rotation scale jitter, z[6:9]
    rotation axis, z[9] rotation magnitude.
    """
    p_i, q_i = obs_i.pose_truth.position, obs_i.pose_truth.rotation
    p_j = obs_j.pose_truth.position
    inv = (q_i.w, -q_i.x, -q_i.y, -q_i.z)
    rx, ry, rz = quat_rotate(inv, (p_j.x - p_i.x, p_j.y - p_i.y, p_j.z - p_i.z))
    rel = quat_mul(inv, obs_j.pose_truth.rotation.as_tuple())
    # Same rule metrics.is_invisible applies to truth edges.
    invisible = quat_angle_deg(rel, _IDENTITY) > obs_i.fov_deg
    m_pos = profile.median_pos_invisible if invisible else profile.median_pos_visible
    m_rot = profile.median_rot_invisible if invisible else profile.median_rot_visible
    tau = profile.sigma_jitter

    s_pos = scale_for_median(m_pos, tau) * math.exp(tau * z[0])
    dx, dy, dz = _unit(z[1], z[2], z[3])
    r_pos = s_pos * abs(z[4])
    s_rot = scale_for_median(m_rot, tau) * math.exp(tau * z[5])
    ax, ay, az = _unit(z[6], z[7], z[8])
    h = 0.5 * math.radians(min(s_rot * abs(z[9]), 179.9))
    s = math.sin(h)

    mc = profile.miscalibration
    axis_sigma = s_pos / math.sqrt(3.0) * mc
    return PoseEstimate(
        p_hat=Vec3(rx + dx * r_pos, ry + dy * r_pos, rz + dz * r_pos),
        sigma_p=Vec3(axis_sigma, axis_sigma, axis_sigma),
        q_hat=UnitQuat(*quat_mul(rel, (math.cos(h), ax * s, ay * s, az * s))),
        sigma_q=chordal_sigma(s_rot) * mc,
        src=obs_i.node_id,
        dst=obs_j.node_id,
    )


def estimate_oracle(
    obs_i: Observation, obs_j: Observation, sigma_floor: float = 1e-3
) -> PoseEstimate:
    """Noiseless baseline: exact relative pose, sigmas at the configured floor."""
    rel = relative_pose(obs_i.pose_truth, obs_j.pose_truth)
    return PoseEstimate(
        p_hat=rel.position,
        sigma_p=Vec3(sigma_floor, sigma_floor, sigma_floor),
        q_hat=rel.rotation,
        sigma_q=sigma_floor,
        src=obs_i.node_id,
        dst=obs_j.node_id,
    )
