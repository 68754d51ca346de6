"""Ray geometry: incidence, triangulation, and the plane-transform theorem."""

import numpy as np
import pytest

from plenocal.errors import DegenerateRays, PointAtInfinity
from plenocal.tpp import (TppParams, decode_virtual_rays, incidence_matrix,
                          projective_matrix, transform_point, transform_rays,
                          triangulate)


def bundle_through(point, f, n, rng, spread=5.0):
    """Rays with separation f all passing through a given 3D point."""
    point = np.asarray(point, float)
    rays = np.empty((n, 5))
    rays[:, 0:2] = rng.normal(size=(n, 2)) * spread
    t = f / point[2]
    rays[:, 2] = rays[:, 0] + t * (point[0] - rays[:, 0])
    rays[:, 3] = rays[:, 1] + t * (point[1] - rays[:, 1])
    rays[:, 4] = f
    return rays


class TestIncidence:
    def test_axis_ray(self):
        rows = incidence_matrix(np.array([[0, 0, 0, 0, 10]]))
        np.testing.assert_array_equal(rows, [[10, 0, 0, 0], [0, 10, 0, 0]])
        assert rows @ np.array([0, 0, 5, 1]) == pytest.approx([0, 0])

    def test_direct_substitution(self):
        rows = incidence_matrix(np.array([[1, 0, 0, 0, 10]]))
        # row1 . (0, 0, 10, 1) = 10*0 + 1*10 - 10*1 = 0
        assert rows[0] @ np.array([0, 0, 10, 1]) == 0.0

    def test_points_sampled_on_line(self):
        # rows 2k, 2k+1 of the stacked matrix belong to ray k
        rng = np.random.default_rng(11)
        rays = np.column_stack([rng.normal(size=(20, 4)) * 3, rng.uniform(1, 20, 20)])
        M = incidence_matrix(rays)
        for k, (x, y, u, v, f) in enumerate(rays):
            rows = M[2 * k:2 * k + 2]
            scale = np.abs(rows).max()
            for t in np.linspace(-3, 3, 20):
                p = np.array([x + t * (u - x), y + t * (v - y), t * f, 1.0])
                assert np.abs(rows @ p).max() < 1e-12 * scale


class TestTriangulate:
    def test_symmetric_pair(self):
        point, res = triangulate(np.array([[1, 1, 0, 0, 10], [-1, -1, 0, 0, 10]]))
        np.testing.assert_allclose(point, [0, 0, 10], atol=1e-12)
        assert res < 1e-12

    def test_shared_point(self):
        point, _ = triangulate(np.array([[0, 0, 1, 0, 5], [2, 0, 1, 0, 5]]))
        np.testing.assert_allclose(point, [1, 0, 5], atol=1e-12)

    def test_exactness_random_bundles(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            target = np.array([rng.normal() * 10, rng.normal() * 10,
                               rng.uniform(5, 200)])
            rays = bundle_through(target, rng.uniform(1, 20), 6, rng)
            point, res = triangulate(rays)
            assert np.linalg.norm(point - target) < 1e-9 * max(1, np.linalg.norm(target))
            assert res < 1e-10 * np.abs(incidence_matrix(rays)).max()

    def test_perturbed_matches_lattice_oracle(self):
        # exhaustive lattice search plus local refinement, minimizing the same
        # stacked algebraic cost, kept independent of the solver under test
        rng = np.random.default_rng(7)
        target = np.array([3.0, -2.0, 40.0])
        rays = bundle_through(target, 10.0, 12, rng)
        rays[:, 0:2] += rng.normal(size=(12, 2)) * 0.01
        M = incidence_matrix(rays)
        A, b = M[:, :3], -M[:, 3]

        def cost(p):
            r = A @ p - b
            return r @ r

        best, best_c = None, np.inf
        step = 0.01
        for dx in np.arange(-0.06, 0.0601, step):
            for dy in np.arange(-0.06, 0.0601, step):
                for dz in np.arange(-0.6, 0.601, step * 10):
                    p = target + [dx, dy, dz]
                    c = cost(p)
                    if c < best_c:
                        best, best_c = p, c
        for _ in range(60):  # cyclic coordinate refinement
            for axis in range(3):
                for delta in (step, -step):
                    step_v = np.zeros(3)
                    step_v[axis] = delta
                    while cost(best + step_v) < cost(best):
                        best = best + step_v
            step *= 0.5

        point, _ = triangulate(rays)
        assert np.linalg.norm(point - best) < 1e-3

    def test_parallel_rays_degenerate(self):
        rays = np.array([[x, 0.0, x + 1.0, 0.0, 10.0] for x in (0.0, 1.0, 2.0)])
        with pytest.raises(DegenerateRays):
            triangulate(rays)

    def test_coincident_rays_degenerate(self):
        with pytest.raises(DegenerateRays):
            triangulate(np.array([[1, 2, 3, 4, 10]] * 3))

    def test_mismatched_separation_rejected(self):
        with pytest.raises(ValueError):
            triangulate(np.array([[0, 0, 1, 0, 5], [1, 0, 1, 0, 6]]))

    def test_duplicating_rays_keeps_point(self):
        rng = np.random.default_rng(5)
        rays = bundle_through([2, -1, 30], 8.0, 4, rng)
        rays[:, 0:2] += rng.normal(size=(4, 2)) * 0.05
        p1, _ = triangulate(rays)
        p2, _ = triangulate(np.vstack([rays, rays]))
        np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(8)
        rays = bundle_through([1, 2, 50], 12.0, 5, rng)
        rays[:, 0:2] += rng.normal(size=(5, 2)) * 0.02
        M = incidence_matrix(rays)
        A, b = M[:, :3], -M[:, 3]
        p1, *_ = np.linalg.lstsq(A, b, rcond=None)
        p2, *_ = np.linalg.lstsq(173.25 * A, 173.25 * b, rcond=None)
        np.testing.assert_allclose(p1, p2, rtol=1e-12)


class TestProjectiveMatrix:
    def test_identity_parameters(self):
        f = 7.0
        P = projective_matrix(TppParams(1, 1, 1, 1, 0, 0, f, f))
        np.testing.assert_allclose(P, f * np.eye(4))
        p = np.array([3.0, -2.0, 5.0])
        np.testing.assert_allclose(transform_point(P, p), p)

    def test_offset_parameters(self):
        f = 4.0
        P = projective_matrix(TppParams(1, 1, 1, 1, 2.5, -1.5, f, f))
        p = np.array([1.0, 2.0, 3.0])
        expected = [1.0 + 2.5 * 3.0 / f, 2.0 - 1.5 * 3.0 / f, 3.0]
        np.testing.assert_allclose(transform_point(P, p), expected)

    def test_ray_bundle_consistency(self):
        # the transform theorem: triangulating transformed rays equals the
        # matrix acting on the triangulated point
        rng = np.random.default_rng(13)
        for _ in range(100):
            k_x, k_y = rng.uniform(0.2, 3.0, 2)
            ratio = rng.uniform(0.2, 3.0)
            params = TppParams(k_x, k_y, ratio * k_x, ratio * k_y,
                               rng.normal() * 10, rng.normal() * 10,
                               rng.uniform(1, 50), rng.uniform(1, 50))
            target = np.array([rng.normal() * 10, rng.normal() * 10,
                               rng.uniform(2, 100)])
            rays = bundle_through(target, params.f, 8, rng)
            moved, _ = triangulate(transform_rays(rays, params))
            P = projective_matrix(params)
            expected = transform_point(P, target)
            err = np.linalg.norm(moved - expected)
            assert err < 1e-9 * max(1.0, np.linalg.norm(expected))

    def test_inadmissible_scales_rejected(self):
        with pytest.raises(ValueError):
            TppParams(1.0, 1.0, 2.0, 3.0, 0.0, 0.0, 5.0, 5.0)


class TestTransformPoint:
    def test_inverse_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = rng.uniform(0.3, 2.0)
            params = TppParams(k, k, 2 * k, 2 * k, rng.normal(), rng.normal(),
                               rng.uniform(1, 20), rng.uniform(1, 20))
            P = projective_matrix(params)
            p = np.array([rng.normal(), rng.normal(), rng.uniform(1, 50)])
            back = transform_point(np.linalg.inv(P), transform_point(P, p))
            np.testing.assert_allclose(back, p, atol=1e-10 * max(1, abs(p).max()))

    def test_point_at_infinity(self):
        P = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]])
        with pytest.raises(PointAtInfinity):
            transform_point(P, np.array([1.0, 1.0, 0.0]))


class TestDecode:
    def test_trivial_setting(self):
        rays = decode_virtual_rays([(0, 0)], [(0, 0)], TppParams(1, 1, 1, 1, 0, 0, 1, 1))
        np.testing.assert_array_equal(rays, [[0, 0, 0, 0, 1]])

    def test_direct_formula(self):
        setting = TppParams(2, 2, 100, 100, 5, -5, 1000, 1000)
        rays = decode_virtual_rays([(10, -4), (0, 1)], [(2, 3), (-1, 0)], setting)
        np.testing.assert_array_equal(rays, [[20, -8, 205, 295, 1000],
                                             [0, 2, -95, -5, 1000]])
