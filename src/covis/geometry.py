"""Pose algebra: frame transforms, quaternion distances, geodesic rotation error.

Conventions
-----------
- Quaternions are scalar-first ``(w, x, y, z)`` and canonicalized to ``w >= 0``
  on construction (for ``w == 0`` the first nonzero vector component is made
  positive). ``q`` and ``-q`` encode the same rotation; all distances here are
  sign-invariant, so canonicalization only affects serialization.
- ``Pose`` pairs a position (meters) with a unit quaternion. ``R(q)`` maps
  body-frame vectors into the parent frame.
- Ego frame of a robot: x forward, y left, z up.
- Angles returned in degrees are in ``[0, 180]``.

The ``*_rows`` functions take (n, 3) and (n, 4) float arrays and call the
scalar arithmetic (``quat_mul``, ``quat_rotate`` and the private norm and
yaw helpers) on their columns, so a row gives the bits of the scalar
function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-6
# A squared norm this close to 1 is kept as is, so normalizing an already
# normalized quaternion returns the same bits (one division leaves at most 3 eps).
_UNIT_SQ_TOL = 4.0 * sys.float_info.epsilon
# math.degrees multiplies by this constant.
_RAD_TO_DEG = 180.0 / math.pi


def quat_mul(a: tuple, b: tuple) -> tuple[float, float, float, float]:
    """Hamilton product a * b of scalar-first 4-tuples or columns; UnitQuat.multiply without the object."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_rotate(q: tuple, v: tuple) -> tuple[float, float, float]:
    """UnitQuat.rotate on a scalar-first 4-tuple q and a 3-tuple v, or on their columns."""
    w, x, y, z = q
    vx, vy, vz = v
    # v' = v + 2*w*(u x v) + 2*(u x (u x v)) with u = (x, y, z)
    ux = y * vz - z * vy
    uy = z * vx - x * vz
    uz = x * vy - y * vx
    uux = y * uz - z * uy
    uuy = z * ux - x * uz
    uuz = x * uy - y * ux
    return (vx + 2.0 * (w * ux + uux), vy + 2.0 * (w * uy + uuy), vz + 2.0 * (w * uz + uuz))


def vec3_components(v):
    """Vec3's rule: the 3 components ``v``, which must all be finite."""
    x, y, z = v
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        bad = next(c for c in v if not math.isfinite(c))
        raise ValueError(f"non-finite Vec3 component: {bad!r}")
    return v


def unit_quat_components(q):
    """UnitQuat's rule: scalar-first ``q`` as a unit quaternion of canonical sign, as in the class docstring.

    ``q`` itself comes back if it is kept unchanged, else a tuple of its components over the signed norm.
    """
    w, x, y, z = q
    sq = w * w + x * x + y * y + z * z
    n = 1.0 if abs(sq - 1.0) <= _UNIT_SQ_TOL else math.sqrt(sq)
    if not abs(n - 1.0) <= _NORM_TOL:  # also refuses NaN and inf
        raise ValueError(f"quaternion norm {n!r} outside unit tolerance")
    # Canonical sign: w > 0, or first nonzero of (x, y, z) positive when w == 0.
    flip = w < 0.0
    if w == 0.0:
        for c in (x, y, z):
            if c != 0.0:
                flip = c < 0.0
                break
    if n == 1.0 and not flip:
        return q
    n = -n if flip else n
    return (w / n, x / n, y / n, z / n)


@dataclass(frozen=True)
class Vec3:
    """3-vector in meters. All components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        vec3_components((self.x, self.y, self.z))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class UnitQuat:
    """Unit quaternion, scalar-first.

    Construction normalizes inputs whose norm deviates from 1 by at most
    1e-6 and rejects anything further off. Inputs whose squared norm is
    within 4 eps of 1 are kept unchanged, which makes normalization a
    projection: rebuilding a quaternion from its components gives the same
    bits. The stored representative has ``w >= 0``.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        given = (self.w, self.x, self.y, self.z)
        q = unit_quat_components(given)
        if q is not given:  # normalized or flipped
            vars(self).update(zip("wxyz", q))

    @staticmethod
    def identity() -> "UnitQuat":
        return UnitQuat(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_yaw(yaw_rad: float) -> "UnitQuat":
        return UnitQuat(math.cos(0.5 * yaw_rad), 0.0, 0.0, math.sin(0.5 * yaw_rad))

    def conjugate(self) -> "UnitQuat":
        return UnitQuat(self.w, -self.x, -self.y, -self.z)

    def multiply(self, other: "UnitQuat") -> "UnitQuat":
        """Hamilton product self * other."""
        return UnitQuat(*quat_mul(self.as_tuple(), other.as_tuple()))

    def rotate(self, v: Vec3) -> Vec3:
        """Apply the rotation to a vector (body -> parent frame)."""
        return Vec3(*quat_rotate(self.as_tuple(), v.as_tuple()))

    def rotate_inverse(self, v: Vec3) -> Vec3:
        return self.conjugate().rotate(v)

    def to_matrix(self) -> list[list[float]]:
        """3x3 rotation matrix, rows are parent-frame images of body axes columns."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]

    def yaw(self) -> float:
        """Heading of the body x-axis projected on the parent xy-plane, radians."""
        return math.atan2(*_yaw_args(self.w, self.x, self.y, self.z))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


@dataclass(frozen=True)
class Pose:
    """Position plus orientation of a frame within a parent frame."""

    position: Vec3
    rotation: UnitQuat

    @staticmethod
    def identity() -> "Pose":
        return Pose(Vec3.zero(), UnitQuat.identity())


def compose(a: Pose, b: Pose) -> Pose:
    """Pose of b's child frame in a's parent frame (a then b)."""
    return Pose(a.position + a.rotation.rotate(b.position), a.rotation.multiply(b.rotation))


def inverse(pose: Pose) -> Pose:
    """Pose of the parent frame expressed in pose's own frame."""
    inv = pose.rotation.conjugate()
    return Pose(inv.rotate(Vec3.zero() - pose.position), inv)


def relative_pose(pose_i: Pose, pose_j: Pose) -> Pose:
    """Pose of j expressed in i's frame.

    Position is R_i^-1 (p_j - p_i), rotation is q_i^-1 * q_j.
    """
    inv = pose_i.rotation.conjugate()
    return Pose(inv.rotate(pose_j.position - pose_i.position), inv.multiply(pose_j.rotation))


def _yaw_args(w, x, y, z):
    """(R[1][0], R[0][0]) of R(q): the atan2 arguments of the yaw."""
    return 2 * (x * y + w * z), 1 - 2 * (y * y + z * z)


def _signed_sq_norms(a, b):
    """(||a - b||^2, ||a + b||^2) of scalar-first quaternions, computed
    componentwise (no cancellation); 4-tuples or four columns."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    dw, dx, dy, dz = aw - bw, ax - bx, ay - by, az - bz
    sw, sx, sy, sz = aw + bw, ax + bx, ay + by, az + bz
    return dw * dw + dx * dx + dy * dy + dz * dz, sw * sw + sx * sx + sy * sy + sz * sz


def quat_dist(q: UnitQuat, q_hat: UnitQuat) -> float:
    """min(||q - q_hat||, ||q + q_hat||); sign-invariant, in [0, sqrt(2)]."""
    return math.sqrt(min(_signed_sq_norms(q.as_tuple(), q_hat.as_tuple())))


def rot_geodesic_deg(q: UnitQuat, q_hat: UnitQuat) -> float:
    """Geodesic angle between rotations in degrees: 4*arcsin(d_quat/2), in [0, 180]."""
    return quat_angle_deg(q.as_tuple(), q_hat.as_tuple())


def quat_angle_deg(a: tuple, b: tuple) -> float:
    """rot_geodesic_deg of two scalar-first 4-tuples.

    Evaluated as 4*atan2(min_norm, max_norm): the two signed norms equal
    2*sin(angle/4) and 2*cos(angle/4), so this is the same quantity with full
    precision at both endpoints.
    """
    dm2, dp2 = _signed_sq_norms(a, b)
    return math.degrees(4.0 * math.atan2(math.sqrt(min(dm2, dp2)), math.sqrt(max(dm2, dp2))))


def pos_dist(p: Vec3, p_hat: Vec3) -> float:
    """Euclidean distance in meters."""
    return (p - p_hat).norm()


# ---------------------------------------------------------------------------
# Row kernels: the functions above on (n, 3) positions and (n, 4) quaternions


def unit_quat_rows(q: np.ndarray) -> np.ndarray:
    """unit_quat_components per row of quaternions within its tolerance: the normalized canonical rows."""
    w, x, y, z = q.T
    first = np.where(x != 0.0, x < 0.0, np.where(y != 0.0, y < 0.0, z < 0.0))
    flip = np.where(w == 0.0, first, w < 0.0)
    sq = w * w + x * x + y * y + z * z
    n = np.where(np.abs(sq - 1.0) <= _UNIT_SQ_TOL, 1.0, np.sqrt(sq))
    return q / np.where(flip, -n, n)[:, None]


def relative_pose_rows(p_i, q_i, p_j, q_j) -> tuple[np.ndarray, np.ndarray]:
    """relative_pose per row of unit quaternions: (positions, quaternions) of j in i's frame."""
    inv = unit_quat_rows(q_i * np.array([1.0, -1.0, -1.0, -1.0]))
    rel = unit_quat_rows(np.stack(quat_mul(inv.T, q_j.T), axis=1))
    return np.stack(quat_rotate(inv.T, (p_j - p_i).T), axis=1), rel


def _atan2_rows(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # math.atan2 per element: numpy's vectorized arctan2 can differ from it in the last bit.
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), dtype=float, count=len(y))


def atan2_deg_rows(y: np.ndarray, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """math.degrees(scale * math.atan2(y, x)) per element."""
    return scale * _atan2_rows(y, x) * _RAD_TO_DEG


def yaw_rows(q: np.ndarray) -> np.ndarray:
    """UnitQuat.yaw per row, radians."""
    return _atan2_rows(*_yaw_args(*q.T))


def quat_angle_deg_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """quat_angle_deg per row; ``b`` may be a single (4,) quaternion."""
    dm2, dp2 = _signed_sq_norms(a.T, b.T)
    return atan2_deg_rows(np.sqrt(np.minimum(dm2, dp2)), np.sqrt(np.maximum(dm2, dp2)), 4.0)


def norm_rows(v: np.ndarray) -> np.ndarray:
    """Vec3.norm per row."""
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)
