"""Physical-to-TPP mapping, pose generation, synthesis, and determinism."""

import numpy as np
import pytest

from plenocal import simulator as sim
from plenocal.errors import EnvelopeInfeasible, FocalSingularity
from plenocal.projection import DistortionParams, residuals
from plenocal.tpp import decode_virtual_rays


def physical_exterior_ray(spec, px, py, i, j):
    """Thin-lens + pinhole trace: conjugates of the sensor point and the
    micro-lens center, in main-lens mm coordinates."""
    S = spec.sensor_origin + np.array([px * spec.pixel_pitch,
                                       py * spec.pixel_pitch, 0.0])
    A = spec.mla_origin + np.array([i * spec.lens_pitch,
                                    j * spec.lens_pitch, 0.0])
    return (sim.scene_conjugate(S, spec.main_focal)[0],
            sim.scene_conjugate(A, spec.main_focal)[0])


class TestPhysicalToTpp:
    def test_ray_trace_oracle(self, camera, tpp_truth):
        # decoded scene rays must coincide with the two-refraction trace
        rng = np.random.default_rng(0)
        fr = sim.exterior_frame(camera)
        pixels = np.column_stack([rng.uniform(0, camera.width, 100),
                                  rng.uniform(0, camera.height, 100)])
        lenses = rng.integers(-50, 50, size=(100, 2))
        rays = decode_virtual_rays(pixels, lenses, tpp_truth)
        for ray, (px, py), (i, j) in zip(rays, pixels, lenses):
            S, A = physical_exterior_ray(camera, px, py, i, j)
            s_ext = fr.from_lens_frame(S)[0]
            a_ext = fr.from_lens_frame(A)[0]
            assert abs(ray[0] - s_ext[0]) < 1e-9 * max(1, abs(s_ext[0]))
            assert abs(ray[1] - s_ext[1]) < 1e-9 * max(1, abs(s_ext[1]))
            assert abs(s_ext[2]) < 1e-9
            assert abs(ray[2] - a_ext[0]) < 1e-9 * max(1, abs(a_ext[0]))
            assert abs(ray[3] - a_ext[1]) < 1e-9 * max(1, abs(a_ext[1]))
            assert abs(ray[4] - a_ext[2]) < 1e-9 * a_ext[2]

    def test_centered_geometry_zero_offsets(self):
        spec = sim.PhysicalCameraSpec(
            main_focal=50.0, sensor_origin=(0.0, 0.0, 68.76),
            mla_origin=(0.0, 0.0, 65.35), pixel_pitch=0.009,
            sensor_resolution=(4008, 2672), lens_pitch=0.3,
            micro_image_radius=16.5)
        tpp_in, tpp_out = sim.physical_to_tpp(spec)
        assert tpp_in.u_0 == tpp_in.v_0 == 0.0
        assert tpp_out.u_0 == tpp_out.v_0 == 0.0

    def test_scale_ratios_match_conjugate_formulas(self, camera):
        tpp_in, tpp_out = sim.physical_to_tpp(camera)
        F = camera.main_focal
        z_s, z_a = camera.sensor_origin[2], camera.mla_origin[2]
        assert tpp_in.k_x / tpp_out.k_x == pytest.approx(abs((F - z_s) / F), rel=1e-12)
        assert tpp_in.k_u / tpp_out.k_u == pytest.approx(abs((F - z_a) / F), rel=1e-12)

    def test_plane_separation_from_conjugates(self, camera):
        _, tpp_out = sim.physical_to_tpp(camera)
        F = camera.main_focal
        z_s, z_a = camera.sensor_origin[2], camera.mla_origin[2]
        f_expected = abs(F * z_a / (F - z_a) - F * z_s / (F - z_s)) / camera.pixel_pitch
        assert tpp_out.f == pytest.approx(f_expected, rel=1e-12)

    def test_focal_singularity(self):
        with pytest.raises(FocalSingularity):
            sim.PhysicalCameraSpec(
                main_focal=50.0, sensor_origin=(0.0, 0.0, 50.0),
                mla_origin=(0.0, 0.0, 65.0), pixel_pitch=0.009,
                sensor_resolution=(100, 100), lens_pitch=0.3,
                micro_image_radius=10.0)


class TestGeneratePoses:
    def test_frontal_pose(self, camera, board):
        env = sim.default_envelope(camera, board, max_rotation_deg=0.0)
        poses = sim.generate_poses(1, 0, env)
        np.testing.assert_array_equal(poses[0].rotation, np.zeros(3))

    def test_deterministic(self, camera, board):
        env = sim.default_envelope(camera, board)
        a = sim.generate_poses(5, 123, env)
        b = sim.generate_poses(5, 123, env)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_rotation_bounded(self, poses12):
        for p in poses12:
            assert np.linalg.norm(p.rotation) <= np.radians(40.0) + 1e-12

    def test_multiplicity_at_least_twelve(self, clean_observations):
        keys = np.array([(o.pose_id, o.point_id) for o in clean_observations])
        _, counts = np.unique(keys, axis=0, return_counts=True)
        assert np.median(counts) >= 12

    def test_envelope_infeasible(self, camera, board):
        _, tpp = sim.physical_to_tpp(camera)
        env = sim.PoseEnvelope(camera, board,
                               (tpp.f * 1.05, tpp.f * 1.1),
                               max_rotation_deg=10.0, max_rejections=20)
        with pytest.raises(EnvelopeInfeasible):
            sim.generate_poses(1, 0, env)

    def test_rejects_non_positive_count(self, camera, board):
        env = sim.default_envelope(camera, board)
        with pytest.raises(ValueError):
            sim.generate_poses(0, 0, env)


class TestSynthesize:
    def test_noise_free_residuals(self, clean_observations, board_points,
                                  poses12, tpp_truth):
        _, rms = residuals(clean_observations, board_points, poses12, tpp_truth,
                           DistortionParams())
        assert rms < 1e-9

    def test_noise_std_matches(self, camera, board, poses12, board_points,
                               tpp_truth, noisy_observations):
        assert len(noisy_observations) >= 5000
        res, _ = residuals(noisy_observations, board_points, poses12, tpp_truth,
                           DistortionParams())
        assert abs(res.std() - 0.3) < 0.05 * 0.3

    def test_deterministic(self, camera, board, poses12):
        a = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.4, 99)
        b = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.4, 99)
        assert a == b

    def test_misaligned_zero_rotation_matches_aligned(self, camera, board):
        env = sim.default_envelope(camera, board)
        poses = sim.generate_poses(2, 17, env)
        a = sim.synthesize_observations(camera, board, poses,
                                        DistortionParams(), 0.0, 1)
        b = sim.synthesize_observations(camera, board, poses,
                                        DistortionParams(), 0.0, 1,
                                        misalignment=sim.aligned_mla(camera))
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert (oa.pose_id, oa.point_id, oa.lens_i, oa.lens_j) \
                == (ob.pose_id, ob.point_id, ob.lens_i, ob.lens_j)
            assert abs(oa.px - ob.px) < 1e-9 and abs(oa.py - ob.py) < 1e-9

    def test_misalignment_with_distortion_rejected(self, camera, board, poses12):
        with pytest.raises(ValueError):
            sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(t1=1e-12), 0.0, 1,
                                        misalignment=sim.aligned_mla(camera))

    def test_pixels_inside_sensor(self, noisy_observations, camera):
        # noise is added after the visibility test, so allow its tail
        for o in noisy_observations:
            assert -2.0 <= o.px <= camera.width + 1.0
            assert -2.0 <= o.py <= camera.height + 1.0


class TestWhiteImage:
    def test_deterministic(self, camera, white_image):
        again = sim.synthesize_white_image(camera)
        np.testing.assert_array_equal(white_image, again)

    def test_detection_round_trip(self, camera, white_image):
        from plenocal.rectification import detect_centers
        pitch = sim.default_setting(camera).k_u
        centers = detect_centers(white_image, pitch)
        i_rng, j_rng = sim.lens_index_range(camera)
        labels = np.array([(i, j) for i in i_rng for j in j_rng])
        truth_xy = sim.micro_image_center_px(camera, labels, sim.aligned_mla(camera))
        truth = {tuple(l): xy for l, xy in zip(map(tuple, labels), truth_xy)}
        w, h = camera.width, camera.height
        best = min(centers, key=lambda c: (c.x - w / 2)**2 + (c.y - h / 2)**2)
        tlab = min(truth, key=lambda k: np.hypot(truth[k][0] - best.x,
                                                 truth[k][1] - best.y))
        di, dj = tlab[0] - best.i, tlab[1] - best.j
        errs = [np.hypot(c.x - truth[(c.i + di, c.j + dj)][0],
                         c.y - truth[(c.i + di, c.j + dj)][1]) for c in centers]
        assert max(errs) < 0.05

    def test_misaligned_slopes_descend(self, camera):
        from plenocal.rectification import detect_centers, row_slopes
        mla = sim.aligned_mla(camera, rotation=np.radians([0.0, 0.5, 0.0]))
        img = sim.synthesize_white_image(camera, mla)
        centers = detect_centers(img, sim.default_setting(camera).k_u)
        slopes = row_slopes(centers)
        js = np.array([j for j, _ in slopes], float)
        vs = np.array([s for _, s in slopes])
        coef = np.polyfit(js, vs, 1)
        assert abs(coef[0]) > 0
        resid = vs - np.polyval(coef, js)
        assert np.abs(resid).max() < 0.05 * np.ptp(vs)


def test_loop_closure(clean_observations, board_points, setting, tpp_truth):
    from plenocal.calibration import linear_calibrate
    from plenocal.evaluate import intrinsic_errors
    result, _ = linear_calibrate(clean_observations, board_points, setting)
    assert max(intrinsic_errors(result.tpp, tpp_truth).values()) < 1e-6
