"""Distortion, forward projection, residuals, and the analytic Jacobian."""

from dataclasses import replace

import numpy as np
import pytest

from plenocal.errors import BehindPlane, MissingReference, NonInvertible
from plenocal.projection import (DistortionParams, Observation, Pose,
                                 ProjectionBatch, _rigid_motion, apply_distortion,
                                 observation_batch, project_pixels, residuals,
                                 sort_observations, undistort)
from plenocal.rotation import rodrigues_matrix, rotate_points_jacobian
from plenocal.tpp import TppParams, decode_virtual_rays, incidence_matrix


class TestDistortion:
    def test_zero_coefficients_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 2)) * 100
        out = apply_distortion(pts, (13.0, -4.0), (0.0, 0.0))
        np.testing.assert_array_equal(out, pts)

    def test_direct_evaluation(self):
        out = apply_distortion((100.0, 0.0), (0.0, 0.0), (1e-6, 0.0))
        np.testing.assert_allclose(out, (101.0, 0.0))

    def test_undistort_zero_identity(self):
        pts = np.array([[3.0, 4.0], [-10.0, 2.0]])
        np.testing.assert_allclose(undistort(pts, (1.0, 1.0), (0.0, 0.0)), pts)

    def test_undistort_forward_example(self):
        out = undistort((101.0, 0.0), (0.0, 0.0), (1e-6, 0.0))
        np.testing.assert_allclose(out, (100.0, 0.0), atol=1e-9)

    def test_round_trip_moderate_regime(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            center = rng.normal(size=2) * 10
            r = rng.uniform(10, 100)
            d1 = rng.uniform(-0.09, 0.09) / r**2     # keeps |d1 r^2| < 0.1
            d2 = rng.uniform(-0.3, 0.3) * abs(d1) / r**2
            pts = center + rng.normal(size=(20, 2)) * (r / 2)
            distorted = apply_distortion(pts, center, (d1, d2))
            back = undistort(distorted, center, (d1, d2))
            assert np.abs(back - pts).max() < 1e-9 * (1 + np.abs(pts).max())

    def test_round_trip_property_sweep(self):
        # points and coefficients drawn inside the monotone radial regime
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            center = rng.normal(size=2)
            r = rng.uniform(1, 50)
            d1 = rng.uniform(-0.05, 0.05) / r**2
            d2 = rng.uniform(-0.02, 0.02) / r**4
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            p = center + direction * rng.uniform(0.0, r)
            fwd = apply_distortion(p, center, (d1, d2))
            back = undistort(fwd, center, (d1, d2))
            worst = max(worst, float(np.abs(back - p).max()))
        assert worst < 1e-8

    def test_non_monotone_profile_rejected(self):
        # r (1 - 1e-4 r^2) folds at r = 57.7; beyond the fold there is no root
        with pytest.raises(NonInvertible):
            undistort((50.0, 0.0), (0.0, 0.0), (-1e-4, 0.0))


@pytest.fixture()
def simple_camera():
    tpp = TppParams.isotropic(1.0, 30.0, 0.0, 0.0, 400.0)
    return tpp, DistortionParams()


def project_one(point_w, pose, tpp, dist, lens):
    """Pixel of one world point under one labeled micro-lens."""
    batch = ProjectionBatch(points_w=point_w, lenses=lens, pose_index=[0],
                            rvecs=pose.rotation, tvecs=pose.translation)
    return project_pixels(batch, tpp, dist)[0]


class TestProjectPoint:
    def test_similar_triangles(self, simple_camera):
        tpp, dist = simple_camera
        pose = Pose(np.zeros(3), np.zeros(3))
        # lens u-v point at (30 d_lens, 0) and a point at twice the separation
        point = np.array([0.0, 0.0, 2.0 * tpp.f])
        pixel = project_one(point, pose, tpp, dist, (2, 0))
        np.testing.assert_allclose(pixel, (2 * 30.0 * 2, 0.0))

    def test_decoded_ray_passes_point(self, simple_camera):
        tpp, dist = simple_camera
        rng = np.random.default_rng(3)
        for _ in range(30):
            pose = Pose(rng.normal(size=3) * 0.4,
                        [rng.normal() * 50, rng.normal() * 50, rng.uniform(3e3, 2e4)])
            point_w = np.array([rng.normal() * 100, rng.normal() * 100, 0.0])
            lens = rng.integers(-20, 20, 2)
            pixel = project_one(point_w, pose, tpp, dist, lens)
            rays = decode_virtual_rays(pixel, lens, tpp)
            point_c = pose.apply(point_w)[0]
            rows = incidence_matrix(rays)
            val = np.abs(rows @ np.append(point_c, 1.0)).max()
            assert val < 1e-10 * np.abs(rows).max() * max(1, np.abs(point_c).max())

    def test_behind_plane_rejected(self, simple_camera):
        tpp, dist = simple_camera
        pose = Pose(np.zeros(3), np.zeros(3))
        with pytest.raises(BehindPlane):
            project_one(np.array([0.0, 0.0, tpp.f]), pose, tpp, dist, (0, 0))

    def test_simulator_round_trip(self, camera, board_points, poses12,
                                  clean_observations, tpp_truth):
        # noise-free stored pixels match a fresh forward projection exactly
        for o in clean_observations[::97]:
            point = np.append(board_points[o.point_id], 0.0)
            pixel = project_one(point, poses12[o.pose_id], tpp_truth,
                                DistortionParams(), (o.lens_i, o.lens_j))
            np.testing.assert_allclose(pixel, (o.px, o.py), atol=1e-9)


class TestResiduals:
    def test_ground_truth_zero(self, clean_observations, board_points, poses12,
                               tpp_truth):
        res, rms = residuals(clean_observations, board_points, poses12,
                             tpp_truth, DistortionParams())
        assert rms < 1e-9

    def test_noise_matches_chi(self, noisy_observations, board_points, poses12,
                               tpp_truth):
        assert len(noisy_observations) >= 2000
        _, rms = residuals(noisy_observations, board_points, poses12,
                           tpp_truth, DistortionParams())
        assert 0.24 <= rms <= 0.36

    def test_local_minimum_probe(self, noisy_observations, board_points, poses12,
                                 tpp_truth):
        _, rms0 = residuals(noisy_observations, board_points, poses12,
                            tpp_truth, DistortionParams())
        bumped = replace(tpp_truth, f=tpp_truth.f * 1.01)
        _, rms1 = residuals(noisy_observations, board_points, poses12,
                            bumped, DistortionParams())
        assert rms1 > rms0

    def test_order_is_deterministic(self, noisy_observations, board_points,
                                    poses12, tpp_truth):
        rng = np.random.default_rng(0)
        shuffled = list(noisy_observations)
        rng.shuffle(shuffled)
        r1, _ = residuals(noisy_observations, board_points, poses12, tpp_truth,
                          DistortionParams())
        r2, _ = residuals(shuffled, board_points, poses12, tpp_truth,
                          DistortionParams())
        np.testing.assert_array_equal(r1, r2)

    def test_missing_pose_reference(self, board_points, tpp_truth):
        obs = [Observation(5, 0, 0, 0, 1.0, 1.0)]
        with pytest.raises(MissingReference):
            residuals(obs, board_points, [Pose(np.zeros(3), np.zeros(3))],
                      tpp_truth, DistortionParams())

    def test_missing_point_reference(self, tpp_truth):
        obs = [Observation(0, 99, 0, 0, 1.0, 1.0)]
        with pytest.raises(MissingReference):
            residuals(obs, {0: np.zeros(2)}, [Pose(np.zeros(3), np.zeros(3))],
                      tpp_truth, DistortionParams())

    def test_sort_key(self):
        obs = [Observation(1, 0, 0, 0, 0, 0), Observation(0, 2, 1, 0, 0, 0),
               Observation(0, 2, 0, 5, 0, 0), Observation(0, 1, 9, 9, 0, 0)]
        ordered = sort_observations(obs)
        keys = [(o.pose_id, o.point_id, o.lens_i, o.lens_j) for o in ordered]
        assert keys == sorted(keys)


def random_configuration(seed, optimize_centers):
    """Random camera/pose/distortion draw inside the model's working regime.

    Distortion strengths are dimensionless at the working radii and capped at
    2e-2, an order of magnitude above the physically reported regime.
    """
    rng = np.random.default_rng(seed)
    n_poses, n = 2, 40
    tpp = TppParams.isotropic(rng.uniform(1.5, 4.0), rng.uniform(50, 150),
                              rng.normal() * 300, rng.normal() * 300,
                              rng.uniform(2000, 5000))
    rvecs = rng.normal(size=(n_poses, 3)) * 0.3
    tvecs = np.column_stack([rng.normal(size=n_poses) * 1e3,
                             rng.normal(size=n_poses) * 1e3,
                             rng.uniform(5e4, 1e5, n_poses)])
    pts = np.column_stack([rng.normal(size=n) * 1e4, rng.normal(size=n) * 1e4,
                           np.zeros(n)])
    lenses = rng.integers(-50, 50, size=(n, 2)).astype(float)
    idx = rng.integers(0, n_poses, n)
    batch = ProjectionBatch(pts, lenses, idx, rvecs, tvecs)
    centers = (rng.normal() * 100, rng.normal() * 100,
               rng.normal() * 100, rng.normal() * 100)
    undistorted = project_pixels(batch, tpp, DistortionParams(*(0.0,) * 4, *centers))
    r_uv = np.sqrt(np.max((tpp.k_u * lenses[:, 0] + tpp.u_0 - centers[2])**2
                          + (tpp.k_u * lenses[:, 1] + tpp.v_0 - centers[3])**2))
    r_xy = np.sqrt(np.max((tpp.k_x * undistorted[:, 0] - centers[0])**2
                          + (tpp.k_x * undistorted[:, 1] - centers[1])**2))
    dist = DistortionParams(s1=rng.uniform(-0.02, 0.02) / r_xy**2,
                            s2=rng.uniform(-0.02, 0.02) / r_xy**4,
                            t1=rng.uniform(-0.02, 0.02) / r_uv**2,
                            t2=rng.uniform(-0.02, 0.02) / r_uv**4,
                            x_c=centers[0], y_c=centers[1],
                            u_c=centers[2], v_c=centers[3])
    return batch, tpp, dist


def densify(J_intr, J_pose, pose_index):
    """The dense 2N x (m + 6P) Jacobian of ``project_pixels``' blocks: rows
    alternate pixel-x / pixel-y per observation, the m intrinsic columns come
    first, and pose p owns columns m + 6p .. m + 6p + 5."""
    n, _, m = J_intr.shape
    n_poses = int(pose_index.max()) + 1
    J = np.zeros((2 * n, m + 6 * n_poses))
    J[:, :m] = J_intr.reshape(2 * n, m)
    cols = m + 6 * np.repeat(pose_index, 2)[:, None] + np.arange(6)
    J[np.arange(2 * n)[:, None], cols] = J_pose.reshape(2 * n, 6)
    return J


def jacobian_gap(seed, optimize_centers):
    """Worst relative disagreement between analytic and central differences,
    over every entry of the dense Jacobian."""
    batch, tpp, dist = random_configuration(seed, optimize_centers)
    pixels, J_intr, J_pose = project_pixels(batch, tpp, dist, jacobian=True,
                                            optimize_centers=optimize_centers)
    J = densify(J_intr, J_pose, batch.pose_index)
    n_poses = batch.rvecs.shape[0]
    theta = [tpp.k_x, tpp.k_u, tpp.u_0, tpp.v_0, tpp.f,
             dist.s1, dist.s2, dist.t1, dist.t2]
    if optimize_centers:
        theta += [dist.x_c, dist.y_c, dist.u_c, dist.v_c]
    for p in range(n_poses):
        theta.extend(batch.rvecs[p])
        theta.extend(batch.tvecs[p])
    theta = np.array(theta)

    def forward(th):
        base = 13 if optimize_centers else 9
        t = TppParams.isotropic(*th[:5])
        if optimize_centers:
            d = DistortionParams(*th[5:13])
        else:
            d = DistortionParams(th[5], th[6], th[7], th[8],
                                 dist.x_c, dist.y_c, dist.u_c, dist.v_c)
        rv = th[base:].reshape(n_poses, 6)
        b = ProjectionBatch(batch.points_w, batch.lenses, batch.pose_index,
                            rv[:, :3], rv[:, 3:])
        return project_pixels(b, t, d)

    r_uv = np.sqrt(np.mean((tpp.k_u * batch.lenses[:, 0] + tpp.u_0 - dist.u_c)**2
                           + (tpp.k_u * batch.lenses[:, 1] + tpp.v_0 - dist.v_c)**2))
    r_xy = np.sqrt(np.mean((tpp.k_x * pixels[:, 0] - dist.x_c)**2
                           + (tpp.k_x * pixels[:, 1] - dist.y_c)**2))
    scales = np.maximum(np.abs(theta), 1.0)
    scales[5:9] = [r_xy**-2, r_xy**-4, r_uv**-2, r_uv**-4]
    base = 9
    if optimize_centers:
        scales[9:13] = [r_xy, r_xy, r_uv, r_uv]
        base = 13
    # translation components share the pose's depth scale: a step sized by a
    # near-zero component alone would sit at the cancellation floor
    for p in range(n_poses):
        t_scale = max(1.0, float(np.linalg.norm(batch.tvecs[p])))
        scales[base + 6 * p + 3:base + 6 * p + 6] = t_scale
    Jn = np.zeros_like(J)
    for c in range(theta.size):
        h = 1e-6 * scales[c]
        tp, tm = theta.copy(), theta.copy()
        tp[c] += h
        tm[c] -= h
        Jn[:, c] = ((forward(tp) - forward(tm)) / (2 * h)).reshape(-1)
    # central differences at the pinned step carry ~1e-8 absolute noise, so
    # entries below 1e-3 of their column's leading magnitude cannot be graded
    # at 1e-4 relative; they contribute < 1e-6 of the column's squared mass
    # to the normal equations, so skipping them keeps the gate meaningful
    col_floor = 1e-3 * np.abs(Jn).max(axis=0, keepdims=True)
    denom = np.maximum(np.maximum(np.abs(J), np.abs(Jn)), col_floor)
    return float((np.abs(J - Jn) / denom).max())


@pytest.mark.parametrize("optimize_centers", [False, True])
def test_jacobian_matches_finite_differences(optimize_centers):
    for seed in range(5):
        assert jacobian_gap(seed, optimize_centers) < 1e-4


def test_rigid_motion_matches_per_pose_rotation():
    """The gathered rigid motion and sum_b p_b G(e_b) agree with each pose's
    own rotation and rotate_points_jacobian; pose 0 takes the small-angle
    branch, and the points leave the board plane so every basis term counts."""
    rng = np.random.default_rng(6)
    n_poses, n = 4, 200
    rvecs = rng.normal(size=(n_poses, 3)) * 0.5
    rvecs[0] = rng.normal(size=3) * 1e-12
    tvecs = rng.normal(size=(n_poses, 3)) * 1e3
    pts = rng.normal(size=(n, 3)) * 1e4
    idx = np.sort(rng.integers(0, n_poses, n))
    batch = ProjectionBatch(pts, np.zeros((n, 2)), idx, rvecs, tvecs)
    Xc, rot_jac = _rigid_motion(batch, True)
    for p in range(n_poses):
        sel = idx == p
        ref = rotate_points_jacobian(rvecs[p], pts[sel])
        assert np.abs(rot_jac[sel] - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = pts[sel] @ rodrigues_matrix(rvecs[p]).T + tvecs[p]
        assert np.abs(Xc[sel] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_observation_batch_layout(noisy_observations, board_points, poses12):
    batch, observed, pose_ids, ordered = observation_batch(
        noisy_observations, board_points, dict(enumerate(poses12)))
    assert pose_ids == sorted({o.pose_id for o in noisy_observations})
    assert observed.shape == (len(noisy_observations), 2)
    assert batch.points_w.shape == observed.shape[:1] + (3,)
    keys = [(o.pose_id, o.point_id, o.lens_i, o.lens_j) for o in ordered]
    assert keys == sorted(keys)
