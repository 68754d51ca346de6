"""Linear stage (homography, Q, closed form, extrinsics) and refinement."""

import tracemalloc

import numpy as np
import pytest
from oracles import q_entries, rodrigues_matrix
from test_projection import blocks, densify, tilted_distortion

from plenocal import simulator as sim
from plenocal.calibration import (_LM_DIAG_FLOOR, CalibrationResult,
                                  RefineOptions, _NormalEquations, calibrate,
                                  estimate_homography, extrinsics_from_homography,
                                  linear_calibrate, orthonormality_defect, refine,
                                  scene_tpp_from_transform,
                                  setting_from_observations, solve_q)
from plenocal.errors import (DegenerateBoard, IllConditioned, InsufficientData,
                             InsufficientPoses, NegativeDiscriminant)
from plenocal.evaluate import intrinsic_errors, pose_errors
from plenocal.projection import DistortionParams, observation_batch, project_pixels
from plenocal.rotation import rodrigues_matrices
from plenocal.tpp import TppParams, projective_matrix


def transform_params(setting, tpp_scene):
    """Plane-transform parameters that map scene rays to decoded rays."""
    k_xy = setting.k_x / tpp_scene.k_x
    k_uv = setting.k_u / tpp_scene.k_u
    u_0 = setting.u_0 - k_uv * tpp_scene.u_0
    v_0 = setting.v_0 - k_uv * tpp_scene.v_0
    return TppParams.isotropic(k_xy, k_uv, u_0, v_0, tpp_scene.f,
                               f_prime=setting.f_prime)


def synthetic_homography(P, pose, rng=None, normalize=True):
    """The homography of one [rvec | tvec] pose row."""
    R = rodrigues_matrix(pose[:3])
    H = P @ np.column_stack([np.append(R[:, 0], 0.0), np.append(R[:, 1], 0.0),
                             np.append(pose[3:], 1.0)])
    if normalize:
        H = H / np.linalg.norm(H)
        if H[3, 2] < 0:
            H = -H
    return H


def decoded_bundles(P, pose, board_xy, f, f_prime, rays_per_point, rng):
    """Exact decoded-ray groups for one [rvec | tvec] pose row: rays through
    the transformed board points with separation f_prime."""
    from plenocal.tpp import transform_point
    R = rodrigues_matrix(pose[:3])
    entries = []
    for xy in board_xy:
        Xc = R @ np.array([xy[0], xy[1], 0.0]) + pose[3:]
        Xd = transform_point(P, Xc)
        rays = np.empty((rays_per_point, 5))
        rays[:, 0:2] = Xd[:2] + rng.normal(size=(rays_per_point, 2)) * abs(Xd[2]) * 0.02
        t = f_prime / Xd[2]
        rays[:, 2] = rays[:, 0] + t * (Xd[0] - rays[:, 0])
        rays[:, 3] = rays[:, 1] + t * (Xd[1] - rays[:, 1])
        rays[:, 4] = f_prime
        entries.append((np.asarray(xy, float), rays))
    return entries


def as_columns(entries):
    """One pose's (board xy, rays) pairs as ``estimate_homography``'s
    arrays: board xy per site, ray count per site, and the stacked rays."""
    return (np.array([xy for xy, _ in entries]), np.array([len(r) for _, r in entries]),
            np.vstack([r for _, r in entries]))


def seed1_observations(camera, board, n_poses):
    """Poses of seed 1 at sigma 0.3, noise seed 2."""
    env = sim.default_envelope(camera, board)
    return sim.synthesize_observations(camera, board, sim.generate_poses(n_poses, 1, env),
                                       DistortionParams(), 0.3, 2)


@pytest.fixture(scope="module")
def observations12(camera, board):
    return seed1_observations(camera, board, 12)


@pytest.fixture(scope="module")
def observations48(camera, board):
    """About 23k observations."""
    return seed1_observations(camera, board, 48)


@pytest.fixture()
def gauge_setup(setting, tpp_truth):
    xd = transform_params(setting, tpp_truth)
    return xd, projective_matrix(xd)


class TestHomography:
    def test_construct_and_recover(self, gauge_setup, setting):
        xd, P = gauge_setup
        rng = np.random.default_rng(0)
        pose = np.array([0.2, -0.3, 0.1, 500.0, -300.0, 1.4e5])
        board = [(x * 6000.0, y * 6000.0) for x in range(3) for y in range(3)]
        entries = decoded_bundles(P, pose, board, xd.f, setting.f_prime, 4, rng)
        H = estimate_homography(*as_columns(entries))
        H0 = synthetic_homography(P, pose)
        assert abs(float(np.sum(H * H0))) > 1.0 - 1e-10

    def test_collinear_board_degenerate(self, gauge_setup, setting):
        xd, P = gauge_setup
        rng = np.random.default_rng(1)
        pose = np.array([0.2, -0.1, 0.0, 0.0, 0.0, 1.4e5])
        board = [(k * 5000.0, 2.0 * k * 5000.0) for k in range(8)]
        entries = decoded_bundles(P, pose, board, xd.f, setting.f_prime, 3, rng)
        with pytest.raises(DegenerateBoard):
            estimate_homography(*as_columns(entries))

    def test_too_few_points(self, gauge_setup, setting):
        xd, P = gauge_setup
        rng = np.random.default_rng(2)
        pose = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 1.3e5])
        board = [(x * 5000.0, y * 5000.0) for x in range(2) for y in range(2)]
        entries = decoded_bundles(P, pose, board, xd.f, setting.f_prime, 3, rng)
        with pytest.raises(InsufficientData):
            estimate_homography(*as_columns(entries))

    def test_single_ray_point_rejected(self, gauge_setup, setting):
        xd, P = gauge_setup
        rng = np.random.default_rng(3)
        pose = np.array([0.1, 0.2, 0.0, 0.0, 0.0, 1.3e5])
        board = [(x * 5000.0, y * 5000.0) for x in range(3) for y in range(2)]
        entries = decoded_bundles(P, pose, board, xd.f, setting.f_prime, 2, rng)
        entries[0] = (entries[0][0], entries[0][1][:1])
        with pytest.raises(InsufficientData):
            estimate_homography(*as_columns(entries))

    def test_residual_grows_with_noise(self, camera, board, board_points, setting):
        from plenocal.calibration import _group_rays
        from plenocal.tpp import incidence_matrix
        env = sim.default_envelope(camera, board)
        poses = sim.generate_poses(3, 5, env)
        levels = [0.1, 0.3, 0.5, 0.8]
        means = []
        for sigma in levels:
            obs = sim.synthesize_observations(camera, board, poses,
                                              DistortionParams(), sigma, 9)
            grouped = _group_rays(obs, board_points, setting)
            vals = []
            for board_xy, counts, rays in grouped.values():
                H = estimate_homography(board_xy, counts, rays)
                for xy, r in zip(board_xy, np.split(rays, np.cumsum(counts)[:-1])):
                    M = incidence_matrix(r)
                    vals.append(np.linalg.norm(M @ H @ np.append(xy, 1.0)))
            means.append(np.mean(vals))
        assert means == sorted(means)
        ratio = means[-1] / means[0]
        assert 3.0 < ratio < 20.0          # roughly linear over an 8x sweep


class TestSolveQ:
    def test_exact_recovery(self, clean_observations, board_points, setting,
                            tpp_truth):
        from plenocal.calibration import _group_rays
        grouped = _group_rays(clean_observations, board_points, setting)
        hs = [estimate_homography(*sites) for _, sites in sorted(grouped.items())]
        xd = transform_params(setting, tpp_truth)
        np.testing.assert_allclose(solve_q(hs, setting.f_prime),
                                   [xd.k_x, xd.k_u, xd.u_0, xd.v_0, xd.f], rtol=1e-8)

    def test_two_poses_insufficient(self, gauge_setup):
        _, P = gauge_setup
        hs = [synthetic_homography(P, np.array([0.2, 0.1, 0.0, 0, 0, 1.4e5])),
              synthetic_homography(P, np.array([-0.1, 0.2, 0.0, 0, 0, 1.5e5]))]
        with pytest.raises(InsufficientPoses):
            solve_q(hs, 378.0)

    def test_near_parallel_poses_ill_conditioned(self, camera, board,
                                                 board_points, setting):
        base = np.array([0.35, 0.22, 0.1])
        poses = np.array([np.r_[base + [0.0, 0.0, 0.0], 0.0, 0.0, 1.4e5],
                          np.r_[base + [0.008, 0.0, 0.0], 800.0, 0.0, 1.45e5],
                          np.r_[base + [0.0, 0.008, 0.0], 0.0, 800.0, 1.5e5]])
        obs = sim.synthesize_observations(camera, board, poses,
                                          DistortionParams(), 0.0, 3)
        with pytest.raises(IllConditioned):
            linear_calibrate(obs, board_points, setting)


class TestClosedForm:
    def q_from_matrix(self, params):
        """Independent oracle: the distinct entries of P^-T P^-1 numerically."""
        P = projective_matrix(params)
        Pi = np.linalg.inv(P)
        Q = Pi.T @ Pi
        return np.array([Q[0, 0], Q[0, 2], Q[1, 2], Q[2, 2], Q[2, 3], Q[3, 3]])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k_xy, k_uv = rng.uniform(0.2, 3.0, 2)
            params = TppParams.isotropic(k_xy, k_uv, rng.normal() * 500,
                                         rng.normal() * 500, rng.uniform(100, 5000),
                                         f_prime=rng.uniform(50, 800))
            rng.uniform(0.1, 10.0)      # unused Q-scale draw keeps seed 5's sequence
            q = self.q_from_matrix(params)
            np.testing.assert_allclose(
                q_entries(k_xy, k_uv, params.u_0, params.v_0, params.f, params.f_prime),
                q, rtol=1e-12)

    def test_symmetric_camera_branch(self):
        params = TppParams.isotropic(0.8, 0.8, 0.0, 0.0, 2000.0, f_prime=300.0)
        q = self.q_from_matrix(params)
        assert q[1] == q[2] == q[4] == 0.0
        np.testing.assert_allclose(q_entries(0.8, 0.8, 0.0, 0.0, 2000.0, 300.0), q,
                                   rtol=1e-12)

    def test_full_pipeline_loop_closure(self, clean_observations, board_points,
                                        setting, tpp_truth):
        result, _ = linear_calibrate(clean_observations, board_points, setting)
        errs = intrinsic_errors(result.tpp, tpp_truth)
        assert max(errs.values()) < 1e-6

    def test_pose_ids_with_a_gap(self, clean_observations, board_points, setting,
                                 tpp_truth, poses12):
        # poses are matched to their ids, not to their positions
        obs = clean_observations[clean_observations.pose != 1]
        result, _ = linear_calibrate(obs, board_points, setting)
        assert result.rms < 1e-6
        errs = pose_errors(result.poses, np.delete(poses12, 1, axis=0))
        assert max(e["rotation_rad"] for e in errs) < 1e-6

    def test_negative_discriminant(self, gauge_setup, setting, poses12):
        _, P = gauge_setup
        hs = [synthetic_homography(P, pose) for pose in poses12]
        for H in hs:
            # fourth-row ratio 2/f' makes k_u/k_x = 1 - f' * 2/f' = -1
            H[3, :2] = (2.0 / setting.f_prime) * H[2, :2]
        with pytest.raises(NegativeDiscriminant):
            solve_q(hs, setting.f_prime)


class TestExtrinsics:
    def test_axis_aligned_pose(self, gauge_setup):
        _, P = gauge_setup
        z = 1.5e5
        H = synthetic_homography(P, np.array([0.0, 0.0, 0.0, 0.0, 0.0, z]))
        pose = extrinsics_from_homography(H, P)
        assert pose.shape == (6,)
        np.testing.assert_allclose(rodrigues_matrices(pose[:3])[0], np.eye(3),
                                   atol=1e-10)
        np.testing.assert_allclose(pose[3:], [0.0, 0.0, z],
                                   rtol=1e-10, atol=1e-9 * z)

    def test_recovers_simulator_poses(self, clean_observations, board_points,
                                      setting, poses12):
        result, _ = linear_calibrate(clean_observations, board_points, setting)
        errs = pose_errors(result.poses, poses12)
        assert max(e["rotation_rad"] for e in errs) < 1e-6
        assert max(e["translation_rel"] for e in errs) < 1e-6

    def test_orthonormality_defect_shrinks_with_points(self, camera, setting):
        from plenocal.calibration import _group_rays
        rng_defects = {}
        env_board = {}
        for rows, cols, cell in ((4, 5, 54.0), (8, 10, 27.0)):
            board = sim.BoardSpec(rows, cols, (cell, cell))
            env = sim.default_envelope(camera, board)
            poses = sim.generate_poses(4, 11, env)
            obs = sim.synthesize_observations(camera, board, poses,
                                              DistortionParams(), 0.5, 13)
            pts = board.points_mm() / camera.pixel_pitch
            result, xd = linear_calibrate(obs, pts, setting)
            P = projective_matrix(TppParams.isotropic(*xd, f_prime=setting.f_prime))
            grouped = _group_rays(obs, pts, setting)
            defects = [orthonormality_defect(estimate_homography(*sites), P)
                       for sites in grouped.values()]
            rng_defects[rows * cols] = np.median(defects)
        assert rng_defects[80] < rng_defects[20]


class TestRefine:
    def test_starts_at_minimum(self, clean_observations, board_points, poses12,
                               tpp_truth, camera, setting):
        init = CalibrationResult(
            TppParams.isotropic(tpp_truth.k_x, tpp_truth.k_u, tpp_truth.u_0,
                                tpp_truth.v_0, tpp_truth.f,
                                f_prime=setting.f_prime),
            DistortionParams(), poses12, 0.0)
        result, trace, _ = refine(init, clean_observations, board_points,
                                  RefineOptions(sensor_size=camera.sensor_resolution))
        assert len(trace) <= 2
        assert result.rms < 1e-9

    def test_basin_of_attraction(self, clean_observations, board_points, poses12,
                                 tpp_truth, camera, setting):
        bumped = TppParams.isotropic(tpp_truth.k_x * 1.1, tpp_truth.k_u * 1.1,
                                     tpp_truth.u_0 * 1.1, tpp_truth.v_0 * 1.1,
                                     tpp_truth.f * 1.1, f_prime=setting.f_prime)
        init = CalibrationResult(bumped, DistortionParams(), poses12, 1.0)
        result, trace, _ = refine(init, clean_observations, board_points,
                                  RefineOptions(sensor_size=camera.sensor_resolution))
        errs = intrinsic_errors(result.tpp, tpp_truth)
        assert max(errs.values()) < 1e-6

    def test_accepted_steps_never_increase_cost(self, noisy_observations,
                                                board_points, setting, camera):
        out = calibrate(noisy_observations, board_points, setting,
                        RefineOptions(sensor_size=camera.sensor_resolution))
        costs = [t["cost"] for t in out.trace if t["accepted"]]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert out.refined.rms <= out.linear.rms

    def test_noisy_rms_in_band(self, noisy_observations, board_points, setting,
                               camera):
        out = calibrate(noisy_observations, board_points, setting,
                        RefineOptions(sensor_size=camera.sensor_resolution))
        assert 0.8 * 0.3 <= out.refined.rms <= 1.2 * 0.3

    def test_free_distortion_centers(self, noisy_observations, board_points,
                                     setting, camera):
        out = calibrate(noisy_observations, board_points, setting,
                        RefineOptions(optimize_distortion_centers=True,
                                      sensor_size=camera.sensor_resolution))
        costs = [t["cost"] for t in out.trace if t["accepted"]]
        assert len(costs) > 1
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert out.refined.rms <= out.linear.rms
        assert 0.8 * 0.3 <= out.refined.rms <= 1.2 * 0.3
        d = out.refined.dist
        assert np.all(np.isfinite([d.x_c, d.y_c, d.u_c, d.v_c]))

    @pytest.mark.parametrize("centers, frozen, distorted",
                             [(False, [5, 6], True), (True, [], True), (True, [], False)],
                             ids=["9-columns-s1-s2-frozen", "13-columns-free-centers",
                                  "13-columns-zero-center-columns"])
    def test_schur_step_matches_dense_step(self, noisy_observations, board_points,
                                           poses12, tpp_truth, centers, frozen,
                                           distorted):
        # one LM step on the reduced system equals the dense solve of
        # (A + damping D), D = diag(A) floored at _LM_DIAG_FLOOR of its mean
        obs = noisy_observations[::25]
        batch = observation_batch(obs, board_points, poses12)
        n_poses = batch.rvecs.shape[0]
        dist = tilted_distortion(tpp_truth) if distorted else DistortionParams()
        pixels, J_cm = project_pixels(batch, tpp_truth, dist, jacobian=True,
                                      optimize_centers=centers)
        J_cm = -np.delete(J_cm, frozen, axis=0)
        J_intr, J_pose = blocks(J_cm)
        J = densify(J_cm, batch.pose_index)
        # column norms spread over three decades, so that diag(A) is far from a
        # multiple of I; free centers at zero distortion give exactly zero
        # columns, whose damping comes from the floor alone
        col = np.linalg.norm(J, axis=0)
        assert (col == 0).any() != distorted
        norms = 10.0 ** np.random.default_rng(5).uniform(-1.5, 1.5, col.size)
        scale = np.divide(norms, col, out=np.zeros_like(col), where=col > 0)
        m = J_intr.shape[2]
        J *= scale
        J_intr *= scale[:m]
        J_pose *= scale[m:].reshape(n_poses, 6)[batch.pose_index][:, None, :]
        r = obs.pixel - pixels
        eq = _NormalEquations.from_blocks(
            J_cm, r.T, np.searchsorted(batch.pose_index, np.arange(n_poses + 1)))
        r = r.reshape(-1)
        A, g = J.T @ J, J.T @ r
        assert eq.grad_inf() == pytest.approx(np.abs(g).max(), rel=1e-12)
        D = np.diag(np.maximum(np.diag(A), _LM_DIAG_FLOOR * np.diag(A).mean()))
        # entry by entry at a damping of 1, where the damped system is well
        # conditioned; at refine's initial damping (condition ~1e4 after
        # Jacobi scaling) roundoff in either solve reaches single small
        # entries, so the steps are compared as vectors
        for damping, entrywise in ((1.0, True), (1e-3, False)):
            d_i, d_p = eq.step(damping)
            step = np.concatenate([d_i, d_p.reshape(-1)])
            dense = np.linalg.solve(A + damping * D, -g)
            if entrywise:
                np.testing.assert_allclose(step, dense, rtol=1e-10)
            else:
                assert np.linalg.norm(step - dense) < 1e-10 * np.linalg.norm(dense)
            # damping by a multiple of I would give another step
            plain = np.linalg.lstsq(A + damping * np.eye(A.shape[0]), -g, rcond=None)[0]
            assert np.linalg.norm(step - plain) > 1e-3 * np.linalg.norm(dense)

    @pytest.mark.parametrize("centers, frozen", [(False, []), (True, []), (False, [5, 6])],
                             ids=["9-columns", "13-columns-free-centers",
                                  "9-columns-s1-s2-frozen"])
    def test_scaled_blocks_match_dense_normal_equations(self, noisy_observations,
                                                        board_points, poses12, tpp_truth,
                                                        centers, frozen):
        # the blocks accumulated from the unscaled Jacobian, then restricted
        # to the kept columns and scaled by D, equal (J D)^T (J D) and
        # (J D)^T r of the dense Jacobian; each entry is graded against
        # sqrt(A_ii A_jj) (resp. sqrt(A_ii) |r|), its Cauchy-Schwarz bound,
        # which scales with D as the entry does
        obs = noisy_observations[::5]
        batch = observation_batch(obs, board_points, poses12)
        n_poses = batch.rvecs.shape[0]
        pixels, J = project_pixels(batch, tpp_truth, tilted_distortion(tpp_truth),
                                   jacobian=True, optimize_centers=centers)
        m = J.shape[0] - 6
        keep = np.ones(m, dtype=bool)
        keep[frozen] = False
        rng = np.random.default_rng(9)
        d_i = -10.0 ** rng.uniform(-3, 3, keep.sum())
        d_p = -10.0 ** rng.uniform(-3, 3, (n_poses, 6))
        r = obs.pixel - pixels
        eq = _NormalEquations.from_blocks(
            J, r.T, np.searchsorted(batch.pose_index, np.arange(n_poses + 1))
        ).scaled(keep, d_i, d_p)

        cols = np.concatenate([np.flatnonzero(keep), m + np.arange(6 * n_poses)])
        Jd = densify(J, batch.pose_index)[:, cols] * np.concatenate([d_i, d_p.ravel()])
        A, g = Jd.T @ Jd, Jd.T @ r.reshape(-1)
        k = keep.sum()
        got = np.zeros_like(A)
        got[:k, :k] = eq.U
        for p in range(n_poses):
            pose = slice(k + 6 * p, k + 6 * p + 6)
            got[:k, pose], got[pose, :k] = eq.W[p], eq.W[p].T
            got[pose, pose] = eq.V[p]
        norms = np.sqrt(np.diag(A))
        assert np.all(norms > 0)
        assert np.all(np.abs(got - A) <= 1e-12 * np.outer(norms, norms))
        g_got = np.concatenate([eq.g_i, eq.g_p.ravel()])
        assert np.all(np.abs(g_got - g) <= 1e-12 * norms * np.linalg.norm(r))

    @pytest.mark.parametrize("dataset", ["noisy_observations", "observations12",
                                         "observations48"])
    def test_free_centers_cost_no_higher_than_fixed(self, request, dataset,
                                                    board_points, setting, camera):
        # free distortion centers refine a superset of the fixed-center model;
        # their columns start at exactly zero, and without the floor of the
        # damping diagonal the 12-pose set ends above the fixed-center cost
        obs = request.getfixturevalue(dataset)
        rms = {centers: calibrate(obs, board_points, setting, RefineOptions(
                   optimize_distortion_centers=centers,
                   sensor_size=camera.sensor_resolution)).refined.rms
               for centers in (False, True)}
        assert rms[True] <= rms[False]

    def test_stop_reason(self, noisy_observations, board_points, setting, camera):
        capped = calibrate(noisy_observations, board_points, setting,
                           RefineOptions(max_iterations=3,
                                         sensor_size=camera.sensor_resolution))
        assert (len(capped.trace), capped.stop) == (3, "max_iterations")
        out = calibrate(noisy_observations, board_points, setting,
                        RefineOptions(sensor_size=camera.sensor_resolution))
        assert out.stop in ("gradient", "step", "cost", "rejections")
        assert len(out.trace) < 200

    def test_memory_linear_in_observations(self, observations48, board_points,
                                           setting, camera):
        # 48 poses, about 23k observations: a dense 2N x (9 + 6P) Jacobian
        # alone would take 105 MiB; the component-major form peaks at 12.5 MiB
        obs = observations48
        initial, _ = linear_calibrate(obs, board_points, setting)
        tracemalloc.start()
        try:
            refine(initial, obs, board_points,
                   RefineOptions(sensor_size=camera.sensor_resolution))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_mib = 2 * len(obs) * (9 + 6 * 48) * 8 / 2**20
        assert dense_mib > 100
        assert peak / 2**20 < 40

    def test_too_few_poses(self, board_points, tpp_truth):
        init = CalibrationResult(tpp_truth, DistortionParams(),
                                 np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 1e5], (2, 1)), 1.0)
        with pytest.raises(InsufficientPoses):
            refine(init, [], board_points)

    def test_histogram_counts(self, noisy_observations, board_points, setting,
                              camera):
        out = calibrate(noisy_observations, board_points, setting,
                        RefineOptions(sensor_size=camera.sensor_resolution))
        hist = out.refined.residual_histogram
        assert sum(c for _, c in hist) == len(noisy_observations)
        edges = [e for e, _ in hist]
        np.testing.assert_allclose(np.diff(edges), 0.1)


class TestSettingHeuristic:
    def test_pitch_near_lens_pitch(self, camera, clean_observations,
                                   noisy_observations):
        k_u = sim.default_setting(camera).k_u
        for obs in (clean_observations, noisy_observations):
            assert setting_from_observations(obs, None).k_u == pytest.approx(k_u, rel=0.01)

    def test_offsets_at_sensor_center(self, camera, clean_observations):
        w, h = camera.sensor_resolution
        setting = setting_from_observations(clean_observations, (w, h))
        assert (setting.u_0, setting.v_0) == (w / 2, h / 2)

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError, match="micro-image pitch"):
            setting_from_observations([], None)


class TestStability:
    def test_point_count_change(self, camera, setting):
        results = {}
        for rows, cols, cell in ((4, 5, 54.0), (8, 10, 27.0)):
            board = sim.BoardSpec(rows, cols, (cell, cell))
            env = sim.default_envelope(camera, board)
            poses = sim.generate_poses(8, 21, env)
            obs = sim.synthesize_observations(camera, board, poses,
                                              DistortionParams(), 0.3, 23)
            pts = board.points_mm() / camera.pixel_pitch
            out = calibrate(obs, pts, setting,
                            RefineOptions(sensor_size=camera.sensor_resolution))
            results[rows * cols] = out.refined.tpp
        a, b = results[20], results[80]
        for name in ("k_x", "k_u", "u_0", "v_0", "f"):
            assert abs(getattr(a, name) - getattr(b, name)) \
                < 0.02 * abs(getattr(b, name))


def test_gauge_map_round_trip(setting, tpp_truth):
    xd = transform_params(setting, tpp_truth)
    back = scene_tpp_from_transform(xd.k_x, xd.k_u, xd.u_0, xd.v_0, xd.f, setting)
    for name in ("k_x", "k_u", "u_0", "v_0", "f"):
        assert getattr(back, name) == pytest.approx(getattr(tpp_truth, name),
                                                    rel=1e-12)


def _derive(seed, *keys):
    """A 32-bit seed fixed by a run seed and keys, as the benchmark's
    ``workloads.derive`` makes them."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "linear-stage local minimum at sigma 0.8: solve_q's scale is off by about "
    "2.9x (per-pose scale ratios scatter 0.16-5.2), and refine converges to a "
    "minimum about 9 % above the one reached from the truth"))
@pytest.mark.parametrize("seed, trial", [(503, 159), (504, 99)])
def test_sigma_08_trial_reaches_truth_basin(camera, board, board_points, setting,
                                            tpp_truth, seed, trial):
    # the 12-pose sigma 0.8 sweep trials that miss the benchmark's accuracy
    # check: poses from SeedSequence([seed, 3, trial]), noise from [seed, 4, trial]
    poses = sim.generate_poses(12, _derive(seed, 3, trial),
                               sim.default_envelope(camera, board))
    obs = sim.synthesize_observations(camera, board, poses, DistortionParams(), 0.8,
                                      _derive(seed, 4, trial))
    options = RefineOptions(sensor_size=camera.sensor_resolution)
    from_linear = calibrate(obs, board_points, setting, options).refined
    from_truth, _, _ = refine(CalibrationResult(tpp_truth, DistortionParams(), poses, 0.0),
                              obs, board_points, options)
    assert from_linear.rms**2 <= 1.01 * from_truth.rms**2
