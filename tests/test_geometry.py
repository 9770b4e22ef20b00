import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis.geometry import (
    Pose,
    UnitQuat,
    Vec3,
    compose,
    norm_rows,
    pos_dist,
    quat_angle_deg,
    quat_angle_deg_rows,
    quat_dist,
    relative_pose,
    relative_pose_rows,
    rot_geodesic_deg,
    unit_quat_rows,
    yaw_rows,
)


def random_quat(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return UnitQuat(*v)


def random_pose(rng, scale=5.0):
    p = Vec3(*(scale * rng.standard_normal(3)))
    return Pose(p, random_quat(rng))


def trace_angle_deg(q, q_hat):
    """Independent oracle: angle of R(q)^T R(q_hat) from the matrix trace."""
    a = np.array(q.to_matrix())
    b = np.array(q_hat.to_matrix())
    rel = a.T @ b
    c = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    return math.degrees(math.acos(c))


def _reference_unit_quat(w, x, y, z):
    """UnitQuat's normalization and canonical sign written out, for bit comparison.

    A squared norm within 4 eps of 1 is kept; anything else is divided by the norm.
    """
    sq = w * w + x * x + y * y + z * z
    n = 1.0 if abs(sq - 1.0) <= 4.0 * sys.float_info.epsilon else math.sqrt(sq)
    if not math.isfinite(n) or abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {n!r} outside unit tolerance")
    w, x, y, z = w / n, x / n, y / n, z / n
    flip = w < 0.0
    if w == 0.0:
        for c in (x, y, z):
            if c != 0.0:
                flip = c < 0.0
                break
    if flip:
        w, x, y, z = -w, -x, -y, -z
    return w, x, y, z


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, math.inf, 0.0)


class TestUnitQuat:
    def test_canonical_sign(self):
        q = UnitQuat(-1.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0
        q = UnitQuat(0.0, 0.0, 0.0, -1.0)
        assert q.z == 1.0

    def test_normalizes_small_deviation(self):
        q = UnitQuat(1.0 + 5e-7, 0.0, 0.0, 0.0)
        assert abs(q.w - 1.0) < 1e-9

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            UnitQuat(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitQuat(0.0, 0.0, 0.0, 0.0)

    def test_construction_matches_reference_bits(self):
        rng = np.random.default_rng(8)
        cases = [(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.5, -0.5, 0.5, -0.5)]
        for _ in range(2000):
            v = rng.standard_normal(4)
            unit = [float(c) for c in v / np.linalg.norm(v)]
            cases.append(tuple(unit))
            cases.append(tuple(-c for c in unit))
            for d in rng.uniform(-1.5e-6, 1.5e-6, 2):  # near unit, some out of tolerance
                cases.append(tuple(c * (1.0 + float(d)) for c in unit))
            w0 = [0.0 if rng.random() < 0.3 else c for c in unit[1:]]
            n = math.sqrt(sum(c * c for c in w0)) or 1.0
            cases.append((float(rng.choice([0.0, -0.0])), *(c / n for c in w0)))
        cases += [(math.nan, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
        for case in cases:
            try:
                want = [c.hex() for c in _reference_unit_quat(*case)]
            except ValueError:
                with pytest.raises(ValueError):
                    UnitQuat(*case)
                continue
            assert [c.hex() for c in UnitQuat(*case).as_tuple()] == want, case

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        st.sampled_from(["random", "near_unit", "w_zero", "flipped"]),
        st.floats(-1e-6, 1e-6),
    )
    def test_normalization_is_a_projection(self, raw, kind, deviation):
        # Normalizing the stored components again gives the same bits.
        v = np.array(raw)
        if kind == "w_zero":
            v[0] = 0.0
        n = float(np.linalg.norm(v))
        if n < 1e-3:
            return
        unit = [float(c) / n for c in v]  # "random": a random direction, divided once
        if kind == "near_unit":
            unit = [c * (1.0 + deviation) for c in unit]
        elif kind == "flipped":
            unit = [-c for c in unit]
        try:
            once = UnitQuat(*unit).as_tuple()
        except ValueError:
            return
        assert [c.hex() for c in UnitQuat(*once).as_tuple()] == [c.hex() for c in once]

    def test_rotate_matches_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_quat(rng)
            v = Vec3(*rng.standard_normal(3))
            m = np.array(q.to_matrix()) @ np.array(v.as_tuple())
            r = q.rotate(v)
            assert np.allclose(m, r.as_tuple(), atol=1e-12)

    def test_yaw_roundtrip(self):
        for yaw in (-3.0, -1.2, 0.0, 0.7, 2.9):
            assert UnitQuat.from_yaw(yaw).yaw() == pytest.approx(yaw, abs=1e-12)


class TestRelativePose:
    def test_identity_frame(self):
        rel = relative_pose(Pose.identity(), Pose(Vec3(1, 2, 0), UnitQuat.identity()))
        assert rel.position.as_tuple() == (1.0, 2.0, 0.0)
        assert rel.rotation.as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_self_edge(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_pose(rng)
            rel = relative_pose(a, a)
            assert rel.position.norm() < 1e-12
            assert quat_dist(rel.rotation, UnitQuat.identity()) < 1e-12

    def test_yaw90_observer(self):
        # Hand rotation-matrix evaluation: observer yawed +90 deg sees a point
        # one meter east at one meter to its right.
        pose_i = Pose(Vec3.zero(), UnitQuat.from_yaw(math.pi / 2))
        pose_j = Pose(Vec3(1, 0, 0), UnitQuat.identity())
        rel = relative_pose(pose_i, pose_j)
        assert np.allclose(rel.position.as_tuple(), (0.0, -1.0, 0.0), atol=1e-12)
        assert rel.rotation.yaw() == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_composition_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            back = compose(a, relative_pose(a, b))
            assert pos_dist(back.position, b.position) < 1e-9
            assert quat_dist(back.rotation, b.rotation) < 1e-9

    def test_compose_associative(self):
        rng = np.random.default_rng(13)
        a, b, c = (random_pose(rng) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert pos_dist(lhs.position, rhs.position) < 1e-9
        assert quat_dist(lhs.rotation, rhs.rotation) < 1e-9


class TestQuatDist:
    def test_same(self):
        q = UnitQuat.from_yaw(0.4)
        assert quat_dist(q, q) == 0.0

    def test_double_cover(self):
        q = UnitQuat.from_yaw(0.4)
        neg = UnitQuat(-q.w, -q.x, -q.y, -q.z)
        assert quat_dist(q, neg) == 0.0

    def test_yaw180(self):
        assert quat_dist(UnitQuat.identity(), UnitQuat.from_yaw(math.pi)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_symmetry_and_sign_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q, q_hat = random_quat(rng), random_quat(rng)
            d = quat_dist(q, q_hat)
            assert d == pytest.approx(quat_dist(q_hat, q), abs=1e-15)
            neg = UnitQuat(-q.w, -q.x, -q.y, -q.z)
            assert d == pytest.approx(quat_dist(neg, q_hat), abs=1e-15)
            assert 0.0 <= d <= math.sqrt(2.0) + 1e-12


class TestRotGeodesic:
    def test_zero(self):
        q = UnitQuat.from_yaw(1.0)
        assert rot_geodesic_deg(q, q) == 0.0

    def test_yaw180_exact(self):
        assert rot_geodesic_deg(UnitQuat.identity(), UnitQuat.from_yaw(math.pi)) == 180.0

    def test_yaw90(self):
        got = rot_geodesic_deg(UnitQuat.identity(), UnitQuat.from_yaw(math.pi / 2))
        assert got == pytest.approx(90.0, abs=1e-9)

    def test_monotone_in_quat_dist(self):
        # 4*asin(d/2) is increasing on [0, sqrt(2)]; spot check on a grid.
        ds = np.linspace(0.0, math.sqrt(2.0), 50)
        angles = [4.0 * math.asin(0.5 * d) for d in ds]
        assert all(a < b for a, b in zip(angles, angles[1:]))

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(1000):
            q, q_hat = random_quat(rng), random_quat(rng)
            worst = max(worst, abs(rot_geodesic_deg(q, q_hat) - trace_angle_deg(q, q_hat)))
        assert worst < 1e-7


class TestPosDist:
    def test_zero(self):
        p = Vec3(1, 2, 3)
        assert pos_dist(p, p) == 0.0

    def test_345(self):
        assert pos_dist(Vec3(0, 0, 0), Vec3(3, 4, 0)) == 5.0

    def test_sqrt3(self):
        assert pos_dist(Vec3(1, 1, 1), Vec3(2, 2, 2)) == pytest.approx(math.sqrt(3), abs=1e-15)


def awkward_quats(rng, n):
    """Raw scalar-first rows: random, near-unit, w == 0, sign-flipped, near 180 deg and rejected."""
    rows = []
    for k in range(n):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        kind = k % 6
        if kind == 1:
            v *= 1.0 + rng.uniform(-1.5e-6, 1.5e-6)
        elif kind == 2:
            v[0] = 0.0
            v[1 + int(rng.integers(3))] = 0.0
            v /= np.linalg.norm(v)
        elif kind == 3:
            v = -v
        elif kind == 4:
            v[0] = rng.uniform(-1e-9, 1e-9)
        elif kind == 5 and rng.random() < 0.2:
            v = [math.nan, math.inf, 0.0, 2.0][int(rng.integers(4))] * np.ones(4)
        rows.append([float(c) for c in v])
    return np.array(rows)


def bits(values):
    return [float(c).hex() for c in np.ravel(values)]


class TestRowKernels:
    """Each row kernel gives the bits of its scalar function."""

    def test_unit_quat_rows(self):
        raw = awkward_quats(np.random.default_rng(31), 3000)
        unit, ok = unit_quat_rows(raw)
        for row, got, accepted in zip(raw.tolist(), unit, ok):
            try:
                want = UnitQuat(*row).as_tuple()
            except ValueError:
                assert not accepted, row
                continue
            assert accepted and bits(got) == bits(want), row

    def test_relative_pose_and_angles(self):
        rng = np.random.default_rng(32)
        raw = awkward_quats(rng, 4000)
        raw = raw[unit_quat_rows(raw)[1]]
        q = [UnitQuat(*row) for row in raw.tolist()]
        q_rows = np.array([r.as_tuple() for r in q])
        p_rows = 5.0 * rng.standard_normal((len(q), 3))
        p = [Vec3(*row) for row in p_rows.tolist()]
        half = len(q) // 2
        t_pos, t_quat = relative_pose_rows(p_rows[:half], q_rows[:half], p_rows[half:2 * half], q_rows[half:2 * half])
        angles = quat_angle_deg_rows(q_rows[:half], q_rows[half:2 * half])
        for k in range(half):
            rel = relative_pose(Pose(p[k], q[k]), Pose(p[half + k], q[half + k]))
            assert bits(t_pos[k]) == bits(rel.position.as_tuple())
            assert bits(t_quat[k]) == bits(rel.rotation.as_tuple())
            assert bits(angles[k]) == bits(quat_angle_deg(q[k].as_tuple(), q[half + k].as_tuple()))
        assert bits(norm_rows(p_rows)) == bits([v.norm() for v in p])

    def test_w_zero_rows_and_single_b(self):
        # Rows with w == 0 (half-turns), against each other and against one (4,) quaternion.
        rng = np.random.default_rng(34)
        v = rng.standard_normal((600, 3))
        v[::3, int(rng.integers(3))] = 0.0
        raw = np.hstack([np.zeros((600, 1)), v / np.linalg.norm(v, axis=1)[:, None]])
        unit, ok = unit_quat_rows(raw)
        assert ok.all() and (unit[:, 0] == 0.0).all()
        q = [UnitQuat(*row) for row in unit.tolist()]
        p_rows = rng.standard_normal((600, 3))
        t_pos, t_quat = relative_pose_rows(p_rows[:300], unit[:300], p_rows[300:], unit[300:])
        angles = quat_angle_deg_rows(unit[:300], unit[300:])
        for k in range(300):
            rel = relative_pose(Pose(Vec3(*p_rows[k]), q[k]), Pose(Vec3(*p_rows[300 + k]), q[300 + k]))
            assert bits(t_pos[k]) == bits(rel.position.as_tuple())
            assert bits(t_quat[k]) == bits(rel.rotation.as_tuple())
            assert bits(angles[k]) == bits(quat_angle_deg(q[k].as_tuple(), q[300 + k].as_tuple()))
        assert bits(yaw_rows(unit)) == bits([r.yaw() for r in q])
        for b in (q[7], UnitQuat.identity(), random_quat(rng)):
            want = [quat_angle_deg(r.as_tuple(), b.as_tuple()) for r in q]
            assert bits(quat_angle_deg_rows(unit, np.array(b.as_tuple()))) == bits(want)

    def test_quat_dist_is_the_smaller_signed_norm(self):
        rng = np.random.default_rng(35)
        raw = awkward_quats(rng, 2000)
        q = [UnitQuat(*row) for row in raw[unit_quat_rows(raw)[1]].tolist()]
        for a, b in zip(q, q[1:] + q[:1]):
            d = [u - v for u, v in zip(a.as_tuple(), b.as_tuple())]
            s = [u + v for u, v in zip(a.as_tuple(), b.as_tuple())]
            dm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
            dp = math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])
            assert quat_dist(a, b).hex() == min(dm, dp).hex()

    def test_yaw_rows(self):
        raw = awkward_quats(np.random.default_rng(33), 3000)
        unit, ok = unit_quat_rows(raw)
        unit = np.vstack([unit[ok], [UnitQuat.from_yaw(a).as_tuple() for a in (0.0, math.pi, -math.pi / 2)]])
        assert bits(yaw_rows(unit)) == bits([UnitQuat(*row).yaw() for row in unit.tolist()])
