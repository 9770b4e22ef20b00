import base64
import math

import numpy as np
import pytest

from covis.bev import BevGrid, cell_centres, coverage_gain, fuse, transform_grid
from covis.estimator import PoseEstimate
from covis.geometry import Pose, UnitQuat, Vec3


def small_grid(values):
    a = np.asarray(values, dtype=float)
    n = a.shape[0]
    return BevGrid(a, extent=n * 0.09375, resolution=0.09375)


def estimate_at(p, yaw=0.0, sigma=0.1):
    return PoseEstimate(
        p_hat=Vec3(*p),
        sigma_p=Vec3(sigma, sigma, sigma),
        q_hat=UnitQuat.from_yaw(yaw),
        sigma_q=0.05,
        src=0,
        dst=1,
    )


class TestBevGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            BevGrid(np.zeros((4, 8)), extent=4.0, resolution=1.0)
        with pytest.raises(ValueError):
            BevGrid(np.zeros((4, 4)), extent=6.0, resolution=1.0)
        with pytest.raises(ValueError):
            BevGrid(np.full((4, 4), 1.5), extent=4.0, resolution=1.0)

    def test_nan_cells_rejected(self):
        # NaN is neither < 0 nor > 1, so a range check must be written to fail on it.
        with pytest.raises(ValueError, match=r"cells must lie in \[0, 1\]"):
            BevGrid(np.full((40, 40), np.nan), 4.0, 0.1)

    @pytest.mark.parametrize("resolution", [0.0, -0.25, math.inf, math.nan])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        # A negated resolution with a negated extent passes the shape * resolution rule.
        with pytest.raises(ValueError, match="must be positive and finite"):
            BevGrid(np.zeros((4, 4)), extent=4 * resolution, resolution=resolution)
        blob = bytearray(base64.b64decode(BevGrid(np.zeros((4, 4)), 1.0, 0.25).to_base64()))
        blob[8:12] = np.float32(resolution).tobytes()
        with pytest.raises(ValueError, match="must be positive and finite"):
            BevGrid.from_base64(base64.b64encode(blob))

    def test_grid_without_cells_rejected(self):
        with pytest.raises(ValueError, match="grid has no cells"):
            BevGrid(np.zeros((0, 0)), extent=0.0, resolution=0.25)
        blob = base64.b64decode(BevGrid(np.zeros((4, 4)), 1.0, 0.25).to_base64())
        with pytest.raises(ValueError, match="grid has no cells"):
            BevGrid.from_base64(base64.b64encode(bytes(8) + blob[8:16]))  # H = W = 0: the header alone

    def test_bytes_roundtrip(self):
        rng = np.random.default_rng(0)
        g = BevGrid(rng.uniform(size=(64, 64)).astype(np.float32).astype(float))
        text = g.to_base64()
        assert len(base64.b64decode(text)) == 16 + 4 * 64 * 64
        back = BevGrid.from_base64(text)
        assert back.cells.shape == g.cells.shape
        assert back.resolution == pytest.approx(g.resolution)
        assert np.array_equal(back.cells, g.cells)

    def test_cells_are_read_only(self):
        g = BevGrid(np.full((64, 64), 0.5))
        with pytest.raises(ValueError):
            g.cells[3, 4] = 1.0
        assert np.all(g.cells == 0.5)

    def test_cells_are_copied(self):
        source = np.zeros((8, 8))
        g = BevGrid(source, extent=8.0, resolution=1.0)
        source[:] = 1.0
        assert np.all(g.cells == 0.0) and g.sample(0.5, 0.5) == 0.0

    def test_base64_roundtrip(self):
        g = BevGrid(np.full((64, 64), 0.5))
        assert np.array_equal(BevGrid.from_base64(g.to_base64()).cells, g.cells)

    def test_bad_blob(self):
        with pytest.raises(ValueError, match="shorter than header"):
            BevGrid.from_base64(base64.b64encode(b"short"))
        blob = base64.b64decode(BevGrid(np.full((64, 64), 0.5)).to_base64())
        with pytest.raises(ValueError, match="16395 != expected 16400"):
            BevGrid.from_base64(base64.b64encode(blob[:-5]))


class TestCellCentres:
    @pytest.mark.parametrize("extent, resolution", [(6.0, 6.0 / 64), (4.0, 0.125), (0.5, 0.5)])
    def test_cached_read_only_centres(self, extent, resolution):
        xs, ys = cell_centres(extent, resolution)
        again = cell_centres(extent, resolution)
        assert again[0] is xs and again[1] is ys
        assert not xs.flags.writeable and not ys.flags.writeable
        n = int(round(extent / resolution))
        coords = (np.arange(n) + 0.5) * resolution - extent / 2.0
        want = np.meshgrid(coords, coords, indexing="ij")
        assert xs.tobytes() == want[0].tobytes() and ys.tobytes() == want[1].tobytes()
        with pytest.raises(ValueError):
            xs[0, 0] = 1.0


class TestTransformGrid:
    def test_identity_exact(self):
        rng = np.random.default_rng(1)
        g = BevGrid(rng.uniform(size=(64, 64)))
        out = transform_grid(g, Pose.identity())
        assert np.array_equal(out.cells, g.cells)

    def test_yaw180_is_index_reversal(self):
        rng = np.random.default_rng(2)
        g = BevGrid(rng.uniform(size=(64, 64)))
        out = transform_grid(g, Pose(Vec3.zero(), UnitQuat.from_yaw(math.pi)))
        assert np.array_equal(out.cells, g.cells[::-1, ::-1])

    def test_integer_shift(self):
        rng = np.random.default_rng(3)
        g = BevGrid(rng.uniform(size=(64, 64)))
        k = 5
        shift = k * g.resolution
        # Source ego sits at +x in the destination frame: destination cells
        # sample the source shifted down in index space; vacated band unknown.
        out = transform_grid(g, Pose(Vec3(shift, 0.0, 0.0), UnitQuat.identity()))
        assert np.array_equal(out.cells[k:, :], g.cells[:-k, :])
        assert np.all(out.cells[:k, :] == 0.5)

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(4)
        g = BevGrid(rng.uniform(size=(64, 64)))
        rel = Pose(Vec3(0.9375, -0.46875, 0.0), UnitQuat.from_yaw(math.pi / 2))
        inv = Pose(
            rel.rotation.conjugate().rotate(Vec3.zero() - rel.position),
            rel.rotation.conjugate(),
        )
        there = transform_grid(g, rel)
        back = transform_grid(there, inv)
        mapped = back.cells != 0.5
        # Cells mapped both ways must return exactly (nearest-neighbor on an
        # axis-aligned quarter-turn grid is lossless).
        assert mapped.sum() > 1000
        assert np.array_equal(back.cells[mapped], g.cells[mapped])


class TestFuse:
    def test_no_neighbors_returns_ego(self):
        rng = np.random.default_rng(5)
        ego = BevGrid(rng.uniform(size=(64, 64)))
        assert fuse(ego, [], gate_sigma=1.0) is ego

    def test_reinforcement(self):
        cells = np.full((64, 64), 0.5)
        cells[10:20, 10:20] = 0.8
        cells[30:40, 30:40] = 0.2
        ego = BevGrid(cells)
        out = fuse(ego, [(ego, estimate_at((0, 0, 0)))], gate_sigma=1.0)
        occupied = cells > 0.5
        free = cells < 0.5
        assert np.all(out.cells[occupied] > cells[occupied])
        assert np.all(out.cells[free] < cells[free])
        assert np.all(out.cells[cells == 0.5] == 0.5)

    def test_gate_skips_uncertain(self):
        rng = np.random.default_rng(6)
        ego = BevGrid(rng.uniform(size=(64, 64)))
        other = BevGrid(rng.uniform(size=(64, 64)))
        out = fuse(ego, [(other, estimate_at((0, 0, 0), sigma=2.0))], gate_sigma=1.0)
        assert np.array_equal(out.cells, ego.cells)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ego = BevGrid(rng.uniform(size=(64, 64)))
        n1 = (BevGrid(rng.uniform(size=(64, 64))), estimate_at((0.5, 0.2, 0.0), yaw=0.3))
        n2 = (BevGrid(rng.uniform(size=(64, 64))), estimate_at((-0.3, 0.8, 0.0), yaw=-1.0))
        a = fuse(ego, [n1, n2], gate_sigma=1.0)
        b = fuse(ego, [n2, n1], gate_sigma=1.0)
        assert np.allclose(a.cells, b.cells, atol=1e-12)


class TestCoverageGain:
    def test_fused_equals_ego(self):
        rng = np.random.default_rng(8)
        truth = BevGrid((rng.uniform(size=(64, 64)) > 0.7).astype(float))
        ego = BevGrid(rng.uniform(size=(64, 64)))
        d_ego, d_fused = coverage_gain(truth, ego, ego)
        assert d_ego == d_fused

    def test_neighbor_reveals_region(self):
        # Two-room scene: truth has a wall band; ego only saw the left half,
        # the neighbor reveals the right-half walls at an exact pose.
        truth_cells = np.zeros((64, 64))
        truth_cells[:, 30:33] = 1.0
        truth_cells[20:23, :] = 1.0
        truth = BevGrid(truth_cells)

        ego_cells = np.full((64, 64), 0.5)
        ego_cells[:, :32] = truth_cells[:, :32]
        ego = BevGrid(ego_cells)

        nbr_cells = np.full((64, 64), 0.5)
        nbr_cells[:, 32:] = truth_cells[:, 32:]
        neighbor = BevGrid(nbr_cells)

        fused = fuse(ego, [(neighbor, estimate_at((0, 0, 0)))], gate_sigma=1.0)
        d_ego, d_fused = coverage_gain(truth, ego, fused)
        assert d_fused > d_ego

    def test_shape_mismatch(self):
        unknown = BevGrid(np.full((64, 64), 0.5))
        with pytest.raises(ValueError):
            coverage_gain(unknown, unknown, small_grid(np.zeros((4, 4))))
