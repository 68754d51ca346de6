"""Observation table, forward projection, residuals, and the analytic Jacobian."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import rodrigues_matrix, rotate_points_jacobian

from plenocal import io
from plenocal.errors import BehindPlane, MissingReference
from plenocal.projection import (INTRINSIC_NAMES, DistortionParams, Observations,
                                 ProjectionBatch, _distort_jacobian, _radial_factors,
                                 apply_pose, observation_batch, project_pixels,
                                 residuals)
from plenocal.rotation import rodrigues_matrices, rotation_basis_jacobians
from plenocal.tpp import TppParams, decode_virtual_rays, incidence_matrix


def row_batch(points_w, lenses, pose_index, rvecs, tvecs):
    """An unfactored batch: every observation its own site and lens."""
    n = len(np.atleast_2d(points_w))
    return ProjectionBatch(points_w, pose_index, lenses, np.arange(n), np.arange(n),
                           rvecs, tvecs)


def project_pixels_reference(batch, tpp, dist, *, jacobian=False,
                             optimize_centers=False):
    """The unfactored projection, one row at a time through every stage and
    with per-pose rotations: the reference for ``project_pixels``."""
    points_w, lenses, idx = batch.points_w[batch.site], batch.lenses, batch.pose_index
    n = len(idx)
    k_xy, k_uv, f = tpp.k_x, tpp.k_u, tpp.f
    R = np.stack([rodrigues_matrix(r) for r in batch.rvecs])
    Xc = np.einsum("nab,nb->na", R[idx], points_w) + batch.tvecs[idx]
    uv_hat = np.column_stack([k_uv * lenses[:, 0] + tpp.u_0,
                              k_uv * lenses[:, 1] + tpp.v_0])
    d_uv, r2_uv, g_uv, gp_uv = _radial_factors(uv_hat, (dist.u_c, dist.v_c),
                                               dist.t1, dist.t2)
    uv_d = d_uv * g_uv[:, None] + np.array([dist.u_c, dist.v_c])
    denom = Xc[:, 2] - f
    xy_hat = (uv_d * Xc[:, 2:3] - f * Xc[:, :2]) / denom[:, None]
    d_xy, r2_xy, g_xy, gp_xy = _radial_factors(xy_hat, (dist.x_c, dist.y_c),
                                               dist.s1, dist.s2)
    pixels = (d_xy * g_xy[:, None] + np.array([dist.x_c, dist.y_c])) / k_xy
    if not jacobian:
        return pixels
    G = np.stack([rotate_points_jacobian(r, np.eye(3)) for r in batch.rvecs])
    rot_jac = np.einsum("nb,nbac->nac", points_w, G[idx])
    E = _distort_jacobian(d_xy, g_xy, gp_xy)
    C = _distort_jacobian(d_uv, g_uv, gp_uv)
    duv = Xc[:, 2] / denom
    Dxc = np.zeros((n, 2, 3))
    Dxc[:, 0, 0] = Dxc[:, 1, 1] = -f / denom
    Dxc[:, :, 2] = f * (Xc[:, :2] - uv_d) / denom[:, None]**2
    df_hat = Xc[:, 2:3] * (uv_d - Xc[:, :2]) / denom[:, None]**2
    E_duv = E * duv[:, None, None]
    T_uv = E_duv @ C
    T_xc = E @ Dxc
    J_intr = np.empty((n, 2, len(INTRINSIC_NAMES) + (4 if optimize_centers else 0)))
    J_intr[:, :, 0] = -pixels
    J_intr[:, :, 1] = np.einsum("nij,nj->ni", T_uv, lenses)
    J_intr[:, :, 2:4] = T_uv
    J_intr[:, :, 4] = np.einsum("nij,nj->ni", E, df_hat)
    J_intr[:, :, 5] = d_xy * r2_xy[:, None]
    J_intr[:, :, 6] = d_xy * (r2_xy**2)[:, None]
    J_intr[:, :, 7] = np.einsum("nij,nj->ni", E_duv, d_uv * r2_uv[:, None])
    J_intr[:, :, 8] = np.einsum("nij,nj->ni", E_duv, d_uv * (r2_uv**2)[:, None])
    if optimize_centers:
        J_intr[:, :, 9:11] = np.eye(2) - E
        J_intr[:, :, 11:13] = E_duv @ (np.eye(2) - C)
    J_pose = np.concatenate([T_xc @ rot_jac, T_xc], axis=2)
    return pixels, J_intr / k_xy, J_pose / k_xy


class TestDistortion:
    def test_zero_coefficients_identity(self):
        rng = np.random.default_rng(0)
        batch, tpp, _ = random_configuration(0, False)
        centers = rng.normal(size=4) * 100
        plain = project_pixels(batch, tpp, DistortionParams())
        moved = project_pixels(batch, tpp, DistortionParams(0.0, 0.0, 0.0, 0.0, *centers))
        np.testing.assert_allclose(moved, plain, rtol=1e-12)

    def test_direct_evaluation(self):
        # a point on the axis at twice the separation, seen under lens (0, 0)
        # at u-v point (50, 0), lands at x-y point (100, 0); s1 = 1e-6 moves
        # it to 100 (1 + 1e-6 100^2) = 101
        tpp = TppParams.isotropic(1.0, 30.0, 50.0, 0.0, 400.0)
        batch = row_batch([0.0, 0.0, 2.0 * tpp.f], [0, 0], [0], np.zeros(3), np.zeros(3))
        out = project_pixels(batch, tpp, DistortionParams(s1=1e-6))
        np.testing.assert_allclose(out[0], (101.0, 0.0))


class TestObservations:
    def test_rows_sorted(self):
        obs = Observations(pose=[1, 0, 0, 0], point=[0, 2, 2, 1],
                           lens=[(0, 0), (1, 0), (0, 5), (9, 9)],
                           pixel=[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
        keys = list(zip(obs.pose.tolist(), obs.point.tolist(),
                        *obs.lens.T.tolist()))
        assert keys == [(0, 1, 9, 9), (0, 2, 0, 5), (0, 2, 1, 0), (1, 0, 0, 0)]
        # the pixels travel with their rows
        np.testing.assert_array_equal(obs.pixel[:, 0], [4.0, 3.0, 2.0, 1.0])

    def test_len_is_record_count(self, noisy_observations):
        n = len(noisy_observations)
        assert n == len(noisy_observations.pixel) > 0
        assert len(noisy_observations[::25]) == len(range(0, n, 25))
        assert len(Observations([], [], [], [])) == 0

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            Observations([0, 0], [0, 1], [(0, 0)], [(0.0, 0.0), (1.0, 1.0)])

    def test_write_read_round_trip_bit_identical(self, tmp_path, camera, board,
                                                 noisy_observations):
        path = tmp_path / "observations.json"
        io.write_observations(path, noisy_observations, board_rows=board.rows,
                              board_cols=board.cols, cell_mm=board.cell,
                              pixel_pitch_mm=camera.pixel_pitch,
                              sensor_px=camera.sensor_resolution)
        back, _, _ = io.read_observations(path)
        assert back == noisy_observations


@pytest.fixture()
def simple_camera():
    tpp = TppParams.isotropic(1.0, 30.0, 0.0, 0.0, 400.0)
    return tpp, DistortionParams()


def project_one(point_w, pose, tpp, dist, lens):
    """Pixel of one world point under one labeled micro-lens and one
    [rvec | tvec] pose row."""
    batch = row_batch(point_w, lens, [0], pose[:3], pose[3:])
    return project_pixels(batch, tpp, dist)[0]


class TestProjectPoint:
    def test_similar_triangles(self, simple_camera):
        tpp, dist = simple_camera
        pose = np.zeros(6)
        # lens u-v point at (30 d_lens, 0) and a point at twice the separation
        point = np.array([0.0, 0.0, 2.0 * tpp.f])
        pixel = project_one(point, pose, tpp, dist, (2, 0))
        np.testing.assert_allclose(pixel, (2 * 30.0 * 2, 0.0))

    def test_decoded_ray_passes_point(self, simple_camera):
        tpp, dist = simple_camera
        rng = np.random.default_rng(3)
        for _ in range(30):
            pose = np.r_[rng.normal(size=3) * 0.4,
                         rng.normal() * 50, rng.normal() * 50, rng.uniform(3e3, 2e4)]
            point_w = np.array([rng.normal() * 100, rng.normal() * 100, 0.0])
            lens = rng.integers(-20, 20, 2)
            pixel = project_one(point_w, pose, tpp, dist, lens)
            rays = decode_virtual_rays(pixel, lens, tpp)
            point_c = apply_pose(pose, point_w)[0]
            rows = incidence_matrix(rays)
            val = np.abs(rows @ np.append(point_c, 1.0)).max()
            assert val < 1e-10 * np.abs(rows).max() * max(1, np.abs(point_c).max())

    def test_behind_plane_rejected(self, simple_camera):
        tpp, dist = simple_camera
        pose = np.zeros(6)
        with pytest.raises(BehindPlane):
            project_one(np.array([0.0, 0.0, tpp.f]), pose, tpp, dist, (0, 0))

    def test_simulator_round_trip(self, camera, board_points, poses12,
                                  clean_observations, tpp_truth):
        # noise-free stored pixels match a fresh forward projection exactly
        obs = clean_observations
        for k in range(0, len(obs), 97):
            point = np.append(board_points[int(obs.point[k])], 0.0)
            pixel = project_one(point, poses12[int(obs.pose[k])], tpp_truth,
                                DistortionParams(), obs.lens[k])
            np.testing.assert_allclose(pixel, obs.pixel[k], atol=1e-9)


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
        # a table built from shuffled rows sorts them back
        obs = noisy_observations
        perm = np.random.default_rng(0).permutation(len(obs))
        shuffled = Observations(obs.pose[perm], obs.point[perm], obs.lens[perm],
                                obs.pixel[perm])
        r1, _ = residuals(noisy_observations, board_points, poses12, tpp_truth,
                          DistortionParams())
        r2, _ = residuals(shuffled, board_points, poses12, tpp_truth,
                          DistortionParams())
        np.testing.assert_array_equal(r1, r2)

    def test_missing_pose_reference(self, board_points, tpp_truth):
        # pose rows follow the sorted distinct pose ids, whatever their
        # values: one row serves pose 5, and two rows are one too many
        obs = Observations([5], [0], [(0, 0)], [(1.0, 1.0)])
        pose = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3 * tpp_truth.f])
        residuals(obs, board_points, pose[None], tpp_truth, DistortionParams())
        with pytest.raises(MissingReference, match="2 pose rows for 1 pose ids"):
            residuals(obs, board_points, np.stack([pose, pose]), tpp_truth,
                      DistortionParams())

    def test_missing_point_reference(self, tpp_truth):
        obs = Observations([0], [99], [(0, 0)], [(1.0, 1.0)])
        with pytest.raises(MissingReference, match="point 99"):
            residuals(obs, {0: np.zeros(2)}, np.zeros((1, 6)),
                      tpp_truth, DistortionParams())

    def test_sort_key(self, noisy_observations, board_points, poses12, tpp_truth):
        # residual rows follow the table's (pose, point, lens) order
        obs = noisy_observations[::7]
        res, _ = residuals(obs, board_points, poses12, tpp_truth, DistortionParams())
        for k in (0, len(obs) // 2, len(obs) - 1):
            pred = project_one(np.append(board_points[int(obs.point[k])], 0.0),
                               poses12[int(obs.pose[k])], tpp_truth,
                               DistortionParams(), obs.lens[k])
            np.testing.assert_allclose(res[k], obs.pixel[k] - pred, atol=1e-9)


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
    batch = row_batch(pts, lenses, idx, rvecs, tvecs)
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
        return project_pixels(replace(batch, rvecs=rv[:, :3], tvecs=rv[:, 3:]), t, d)

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
    """The rotations and basis derivatives of all poses at once equal each
    pose's own scalar reference, bit for bit, as does ``apply_pose``, and
    sum_b p_b G(e_b) gives the derivative at any point; pose 0 takes the
    small-angle branch, and the points leave the board plane so every basis
    term counts."""
    rng = np.random.default_rng(6)
    n_poses, n = 4, 200
    rvecs = rng.normal(size=(n_poses, 3)) * 0.5
    rvecs[0] = rng.normal(size=3) * 1e-12
    pts = rng.normal(size=(n, 3)) * 1e4
    R, G = rodrigues_matrices(rvecs), rotation_basis_jacobians(rvecs)
    for p in range(n_poses):
        np.testing.assert_array_equal(R[p], rodrigues_matrix(rvecs[p]))
        np.testing.assert_array_equal(apply_pose(np.r_[rvecs[p], 0.0, 0.0, 0.0], pts),
                                      pts @ R[p].T)
        np.testing.assert_array_equal(G[p], rotate_points_jacobian(rvecs[p], np.eye(3)))
        ref = rotate_points_jacobian(rvecs[p], pts)
        got = np.einsum("nb,bac->nac", pts, G[p])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_observation_batch_layout(noisy_observations, board_points, poses12):
    obs = noisy_observations
    batch = observation_batch(obs, board_points, poses12)
    sites = np.unique(np.column_stack([obs.pose, obs.point]), axis=0)
    assert batch.points_w.shape == (len(sites), 3)
    np.testing.assert_array_equal(batch.site_pose, sites[:, 0])
    np.testing.assert_array_equal(batch.points_w[:, :2],
                                  [board_points[k] for k in sites[:, 1]])
    assert len(batch.labels) == len(np.unique(obs.lens, axis=0)) < len(obs)
    # gathered back to rows, the factored layout is the table
    np.testing.assert_array_equal(batch.pose_index, obs.pose)
    np.testing.assert_array_equal(batch.lenses, obs.lens)
    np.testing.assert_array_equal(batch.points_w[batch.site, :2],
                                  [board_points[k] for k in obs.point])


def tilted_distortion(tpp):
    """About 1 % radial distortion on both planes at the working radii, with
    centers off the axes."""
    return DistortionParams(1e-9, -1e-17, 1e-10, -1e-18,
                            tpp.k_x * 2000.0, tpp.k_x * 1340.0,
                            tpp.u_0 + 5.0, tpp.v_0 - 3.0)


@pytest.mark.parametrize("dataset", ["clean_observations", "noisy_observations"])
@pytest.mark.parametrize("optimize_centers", [False, True], ids=["9-columns", "13-columns"])
def test_factored_projection_matches_reference(request, dataset, optimize_centers,
                                               board_points, poses12, tpp_truth):
    obs = request.getfixturevalue(dataset)
    batch = observation_batch(obs, board_points, poses12)
    for dist in (DistortionParams(), tilted_distortion(tpp_truth)):
        got = project_pixels(batch, tpp_truth, dist, jacobian=True,
                             optimize_centers=optimize_centers)
        ref = project_pixels_reference(batch, tpp_truth, dist, jacobian=True,
                                       optimize_centers=optimize_centers)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()
        np.testing.assert_allclose(project_pixels(batch, tpp_truth, dist), got[0],
                                   rtol=1e-12)
