"""Physical-to-TPP mapping, pose generation, synthesis, and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from plenocal import simulator as sim
from plenocal.errors import EnvelopeInfeasible, FocalSingularity
from plenocal.projection import DistortionParams, Observations, apply_pose, residuals
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
        np.testing.assert_array_equal(poses[0, :3], np.zeros(3))

    def test_deterministic(self, camera, board):
        env = sim.default_envelope(camera, board)
        a = sim.generate_poses(5, 123, env)
        b = sim.generate_poses(5, 123, env)
        np.testing.assert_array_equal(a, b)

    def test_rotation_bounded(self, poses12):
        for p in poses12:
            assert np.linalg.norm(p[:3]) <= np.radians(40.0) + 1e-12

    def test_multiplicity_at_least_twelve(self, clean_observations):
        keys = np.column_stack([clean_observations.pose, clean_observations.point])
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
                                        mla_rotation=np.zeros(3))
        assert len(a) == len(b)
        for column in ("pose", "point", "lens"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
        assert np.abs(a.pixel - b.pixel).max() < 1e-9

    def test_misalignment_with_distortion_rejected(self, camera, board, poses12):
        with pytest.raises(ValueError):
            sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(t1=1e-12), 0.0, 1,
                                        mla_rotation=np.zeros(3))

    def test_pixels_inside_sensor(self, noisy_observations, camera):
        # noise is added after the visibility test, so allow its tail
        px, py = noisy_observations.pixel.T
        assert np.all((-2.0 <= px) & (px <= camera.width + 1.0))
        assert np.all((-2.0 <= py) & (py <= camera.height + 1.0))


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
        truth_xy = sim.micro_lenses(camera, labels)[1]
        truth = {tuple(l): xy for l, xy in zip(map(tuple, labels), truth_xy)}
        w, h = camera.width, camera.height
        best = np.argmin(np.hypot(*(centers.pixel - (w / 2, h / 2)).T))
        bx, by = centers.pixel[best]
        tlab = min(truth, key=lambda k: np.hypot(truth[k][0] - bx, truth[k][1] - by))
        shift = np.subtract(tlab, centers.label[best])
        errs = [np.hypot(*(xy - truth[tuple(ij)]))
                for ij, xy in zip((centers.label + shift).tolist(), centers.pixel)]
        assert max(errs) < 0.05

    def test_misaligned_slopes_descend(self, camera):
        from plenocal.rectification import detect_centers, row_slopes
        img = sim.synthesize_white_image(camera, np.radians([0.0, 0.5, 0.0]))
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


# --- references: the per-point, per-draw and per-lens loops the batched
# simulator replaced.  Without a rotation the per-point reference projects
# through the fitted TPP model, so it is also the oracle of the paper's claim
# that the physical trace is a TPP camera: rows must match and pixels agree
# within 1e-9 px.  With a rotation it traces like the simulator, and tables,
# white images and pose arrays must equal theirs bit for bit ---

def reference_observe_points(spec, tpp, points_c, dist, rotation):
    """Per scene point, the labels and pixels of its observing lenses."""
    import math
    from plenocal.errors import BehindPlane
    from plenocal.projection import ProjectionBatch, project_pixels
    k_xy, k_uv, u_0, v_0, f = tpp.k_x, tpp.k_u, tpp.u_0, tpp.v_0, tpp.f
    z_s, z_a = spec.sensor_origin[2], spec.mla_origin[2]
    a_c = (z_s / z_a) * spec.lens_pitch / spec.pixel_pitch
    b_c = ((z_s / z_a) * spec.mla_origin[:2] - spec.sensor_origin[:2]) / spec.pixel_pitch
    i_rng, j_rng = sim.lens_index_range(spec)
    frame = sim.exterior_frame(spec)
    radius = spec.micro_image_radius
    results = []
    for X in np.atleast_2d(points_c):
        denom = X[2] - f
        if abs(denom) < 1e-9 * max(1.0, f):
            raise BehindPlane("scene point lies on the u-v conjugate plane")
        a_p = k_uv * X[2] / (denom * k_xy)
        b_p = np.array([(u_0 * X[2] - f * X[0]) / (denom * k_xy),
                        (v_0 * X[2] - f * X[1]) / (denom * k_xy)])
        slope = a_p - a_c
        if abs(slope) < 1e-9:
            win, ci, cj = 60, 0.0, 0.0
        else:
            ci, cj = (b_c - b_p) / slope
            win = min(60, radius / abs(slope) + 3)
        ii = np.arange(max(i_rng.start, math.floor(ci - win)),
                       min(i_rng.stop, math.ceil(ci + win) + 1))
        jj = np.arange(max(j_rng.start, math.floor(cj - win)),
                       min(j_rng.stop, math.ceil(cj + win) + 1))
        if len(ii) == 0 or len(jj) == 0:
            results.append((np.empty((0, 2), int), np.empty((0, 2))))
            continue
        gi, gj = np.meshgrid(ii, jj, indexing="ij")
        labels = np.column_stack([gi.ravel(), gj.ravel()])
        if rotation is None:
            batch = ProjectionBatch(
                points_w=X, site_pose=[0], labels=labels,
                site=np.zeros(len(labels), dtype=int), lens=np.arange(len(labels)),
                rvecs=np.zeros((1, 3)), tvecs=np.zeros((1, 3)))
            pixels = project_pixels(batch, tpp, dist)
            centers = a_c * labels + b_c
        else:
            q = frame.to_lens_frame(X)[0]
            img = sim.interior_image(q, spec.main_focal)[0]
            lens_pts, centers = sim.micro_lenses(spec, labels, rotation)
            t = (z_s - img[2]) / (lens_pts[:, 2] - img[2])
            hit = img[None, :2] + t[:, None] * (lens_pts[:, :2] - img[None, :2])
            pixels = (hit - spec.sensor_origin[:2]) / spec.pixel_pitch
        d = pixels - centers
        ok = (np.hypot(d[:, 0], d[:, 1]) <= radius) \
            & (pixels[:, 0] >= 0) & (pixels[:, 0] <= spec.width - 1) \
            & (pixels[:, 1] >= 0) & (pixels[:, 1] <= spec.height - 1)
        results.append((labels[ok], pixels[ok]))
    return results


def reference_generate_poses(n, seed, envelope):
    """The pose draw loop with its per-point visibility test."""
    import math
    rng = np.random.default_rng(seed)
    spec, board = envelope.camera, envelope.board
    _, tpp = sim.physical_to_tpp(spec)
    pts_w = np.column_stack([board.points_mm() / spec.pixel_pitch,
                             np.zeros(board.rows * board.cols)])
    center_w = pts_w.mean(axis=0)
    lo, hi = envelope.distance_px
    max_rot = math.radians(envelope.max_rotation_deg)
    slots = rng.permutation(n)
    poses, rejections = [], 0
    while len(poses) < n:
        if rejections > envelope.max_rejections:
            raise EnvelopeInfeasible("too many rejected draws")
        if max_rot == 0.0:
            rvec = np.zeros(3)
        else:
            axis = rng.normal(size=3)
            norm = np.linalg.norm(axis)
            axis = axis / norm if norm > 0 else np.array([0.0, 0.0, 1.0])
            rvec = axis * rng.uniform(0.5 * max_rot, max_rot)
        slot = slots[len(poses)]
        z = lo + (slot + rng.uniform()) * (hi - lo) / n
        lateral = rng.uniform(-envelope.lateral_fraction,
                              envelope.lateral_fraction, size=2) * z
        target = np.array([lateral[0], lateral[1], z])
        pose = np.r_[rvec, 0.0, 0.0, 0.0]
        pose[3:] = target - apply_pose(pose, center_w)[0]
        seen = reference_observe_points(spec, tpp, apply_pose(pose, pts_w),
                                        DistortionParams(), None)
        if np.mean([len(lbl) > 0 for lbl, _ in seen]) >= envelope.min_visible_fraction:
            poses.append(pose)
        else:
            rejections += 1
    return np.array(poses), rejections


def reference_observations(spec, board, poses, dist, rotation=None):
    """Noise-free table assembled point by point from the reference."""
    _, tpp = sim.physical_to_tpp(spec)
    pts_w = np.column_stack([board.points_mm() / spec.pixel_pitch,
                             np.zeros(board.rows * board.cols)])
    pose_ids, point_ids, lenses, pixels = [], [], [np.empty((0, 2), int)], [np.empty((0, 2))]
    for pose_id, pose in enumerate(poses):
        seen = reference_observe_points(spec, tpp, apply_pose(pose, pts_w), dist,
                                        rotation)
        for point_id, (labels, px) in enumerate(seen):
            pose_ids += [pose_id] * len(labels)
            point_ids += [point_id] * len(labels)
            lenses.append(labels)
            pixels.append(px)
    return Observations(np.array(pose_ids, dtype=np.int64),
                        np.array(point_ids, dtype=np.int64),
                        np.concatenate(lenses), np.concatenate(pixels))


def reference_white_image(spec, rotation=None):
    """The white raster stamped one micro-image at a time."""
    import math
    i_rng, j_rng = sim.lens_index_range(spec)
    gi, gj = np.meshgrid(np.arange(i_rng.start, i_rng.stop),
                         np.arange(j_rng.start, j_rng.stop), indexing="ij")
    _, centers = sim.micro_lenses(spec, np.column_stack([gi.ravel(), gj.ravel()]),
                                  rotation)
    h, w = spec.height, spec.width
    img = np.zeros((h, w))
    sigma = spec.micro_image_radius / 3.0
    half = int(math.ceil(3.0 * sigma))
    for cx, cy in centers:
        if cx < -half or cx > w + half or cy < -half or cy > h + half:
            continue
        x0, x1 = max(0, int(cx) - half), min(w, int(cx) + half + 1)
        y0, y1 = max(0, int(cy) - half), min(h, int(cy) + half + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        img[y0:y1, x0:x1] += 58000.0 * np.exp(
            -((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    return np.clip(img, 0.0, 65535.0).astype(np.uint16)


def assert_same_table(a, b):
    for column in ("pose", "point", "lens", "pixel"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape, column
        assert x.tobytes() == y.tobytes(), column


def assert_same_rows(a, b, tol=1e-9):
    """Identical (pose, point, lens) rows with pixels within ``tol`` px."""
    for column in ("pose", "point", "lens"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape, column
        assert x.tobytes() == y.tobytes(), column
    assert a.pixel.shape == b.pixel.shape
    assert np.abs(a.pixel - b.pixel).max(initial=0.0) < tol


def assert_same_poses(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


MISALIGNED_ROTATION = np.radians((0.2, -0.1, 0.3))
DISTORTED = DistortionParams(s1=1e-9, s2=-1e-16, t1=1e-10, t2=1e-17,
                             x_c=1500.0, y_c=900.0, u_c=-40.0, v_c=25.0)


@pytest.fixture(scope="module")
def poses48(camera, board):
    return sim.generate_poses(48, 1, sim.default_envelope(camera, board))


class TestBatchedEqualsReference:
    @pytest.mark.parametrize("mode", ["aligned", "distorted", "misaligned"])
    @pytest.mark.parametrize("pose_set", ["poses12", "poses48"])
    def test_tables(self, request, camera, board, mode, pose_set):
        poses = request.getfixturevalue(pose_set)
        dist = DISTORTED if mode == "distorted" else DistortionParams()
        rotation = MISALIGNED_ROTATION if mode == "misaligned" else None
        got = sim.synthesize_observations(camera, board, poses, dist, 0.0, 1,
                                          mla_rotation=rotation)
        want = reference_observations(camera, board, poses, dist, rotation)
        assert len(got) > 0
        if rotation is None:
            assert_same_rows(got, want)
        else:
            assert_same_table(got, want)

    @pytest.mark.parametrize("mode", ["aligned", "misaligned"])
    def test_noise_added_in_table_order(self, camera, board, poses12, mode):
        # one normal draw per row of the sorted table, in row order
        rotation = MISALIGNED_ROTATION if mode == "misaligned" else None
        clean, noisy = (sim.synthesize_observations(camera, board, poses12,
                                                    DistortionParams(), sigma, 5,
                                                    mla_rotation=rotation)
                        for sigma in (0.0, 0.3))
        noise = np.random.default_rng(5).normal(0.0, 0.3, size=(len(clean), 2))
        assert_same_table(noisy, Observations(clean.pose, clean.point, clean.lens,
                                              clean.pixel + noise))

    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_poses_default_envelope(self, camera, board, seed):
        env = sim.default_envelope(camera, board)
        assert_same_poses(sim.generate_poses(12, seed, env),
                          reference_generate_poses(12, seed, env)[0])

    @pytest.mark.parametrize("seed, visible", [(0, 1.0), (1, 1.0), (2, 0.92)])
    def test_poses_rejecting_envelope(self, camera, board, seed, visible):
        # wide lateral placement: some draws push board points off the sensor
        env = sim.default_envelope(camera, board, lateral_fraction=0.35,
                                   min_visible_fraction=visible)
        poses, rejections = reference_generate_poses(8, seed, env)
        assert rejections > 0
        assert_same_poses(sim.generate_poses(8, seed, env), poses)

    def test_envelope_infeasible_still_fires(self, camera, board):
        _, tpp = sim.physical_to_tpp(camera)
        env = sim.PoseEnvelope(camera, board, (tpp.f * 1.05, tpp.f * 1.1),
                               max_rotation_deg=10.0, max_rejections=5)
        with pytest.raises(EnvelopeInfeasible):
            reference_generate_poses(1, 0, env)
        with pytest.raises(EnvelopeInfeasible):
            sim.generate_poses(1, 0, env)


class TestObservePoints:
    @pytest.fixture
    def seen_point(self, poses12, board_points):
        """A board point of a sampled pose, in the scene-side frame."""
        return apply_pose(poses12[0], np.append(board_points[12], 0.0))[0]

    @staticmethod
    def observe(camera, points):
        _, tpp = sim.physical_to_tpp(camera)
        got = sim._observe_points(camera, tpp, sim.exterior_frame(camera), points,
                                  DistortionParams(), None)
        ref = reference_observe_points(camera, tpp, points, DistortionParams(), None)
        point = np.repeat(np.arange(len(ref)), [len(lbl) for lbl, _ in ref])
        assert got[0].tobytes() == point.tobytes()
        assert got[1].tobytes() == np.concatenate([lbl for lbl, _ in ref]).tobytes()
        pixels = np.concatenate([px for _, px in ref])
        assert got[2].shape == pixels.shape
        assert np.abs(got[2] - pixels).max(initial=0.0) < 1e-9
        return got

    def test_slope_zero_depth_caps_the_window(self, camera, seen_point):
        # at this depth a point's micro-images repeat with the lens lattice's
        # pitch, so the candidate window falls back to the capped one
        _, tpp = sim.physical_to_tpp(camera)
        z_s, z_a = camera.sensor_origin[2], camera.mla_origin[2]
        a_c = (z_s / z_a) * camera.lens_pitch / camera.pixel_pitch
        z = a_c * tpp.f / (a_c - tpp.k_u / tpp.k_x)
        assert abs(tpp.k_u * z / ((z - tpp.f) * tpp.k_x) - a_c) < 1e-9
        point, labels, _ = self.observe(
            camera, np.array([[tpp.u_0, tpp.v_0, z], seen_point]))
        assert np.abs(labels[point == 0]).max() <= 60
        assert 1 in point

    def test_window_outside_lens_range_has_no_rows(self, camera, seen_point):
        far = seen_point + [1e6, 1e6, 0.0]
        point, _, _ = self.observe(camera, np.array([far, seen_point]))
        assert 0 not in point and 1 in point

    def test_point_on_uv_plane_raises(self, camera, seen_point):
        from plenocal.errors import BehindPlane
        _, tpp = sim.physical_to_tpp(camera)
        points = np.array([seen_point, [0.0, 0.0, tpp.f]])
        with pytest.raises(BehindPlane):
            sim._observe_points(camera, tpp, sim.exterior_frame(camera), points,
                                DistortionParams(), None)


class TestWhiteImageEqualsReference:
    @pytest.mark.parametrize("rotation", [None, MISALIGNED_ROTATION],
                             ids=["aligned", "misaligned"])
    def test_reference_camera(self, camera, white_image, rotation):
        got = (white_image if rotation is None
               else sim.synthesize_white_image(camera, rotation))
        assert got.dtype == np.uint16 and got.shape == (camera.height, camera.width)
        assert got.tobytes() == reference_white_image(camera, rotation).tobytes()

    def test_centers_left_of_and_above_the_sensor(self, camera):
        # lens (0, 0) images at (-8.3, -4.1): int() truncates toward zero,
        # so its window starts one pixel right of a floor()'s
        pitch = camera.pixel_pitch
        small = sim.PhysicalCameraSpec(
            main_focal=camera.main_focal,
            sensor_origin=(8.3 * pitch, 4.1 * pitch, camera.sensor_origin[2]),
            mla_origin=(0.0, 0.0, camera.mla_origin[2]), pixel_pitch=pitch,
            sensor_resolution=(150, 110), lens_pitch=camera.lens_pitch,
            micro_image_radius=camera.micro_image_radius)
        center = sim.micro_lenses(small, np.array([[0, 0]]))[1][0]
        half = int(np.ceil(small.micro_image_radius))
        assert -half <= center[0] < 0 and -half <= center[1] < 0
        got = sim.synthesize_white_image(small)
        assert got.any()
        assert got.tobytes() == reference_white_image(small).tobytes()

    @pytest.mark.parametrize("rotation", [None, np.radians((0.5, -0.4, 2.0))],
                             ids=["aligned", "rotated"])
    @pytest.mark.parametrize("radius", [36.0, 70.0])
    def test_band_edges(self, camera, rotation, radius):
        # more than three bands of rows, windows across all four sensor
        # edges and pixels under three or more windows; at radius 70 a
        # window is taller than a band
        pitch = camera.pixel_pitch
        h, w = 3 * sim._BAND_ROWS + 47, 190
        small = sim.PhysicalCameraSpec(
            main_focal=camera.main_focal,
            sensor_origin=(8.3 * pitch, 4.1 * pitch, camera.sensor_origin[2]),
            mla_origin=(0.0, 0.0, camera.mla_origin[2]), pixel_pitch=pitch,
            sensor_resolution=(w, h), lens_pitch=camera.lens_pitch,
            micro_image_radius=radius)
        i_rng, j_rng = sim.lens_index_range(small)
        labels = np.array([(i, j) for i in i_rng for j in j_rng])
        centers = sim.micro_lenses(small, labels, rotation)[1]
        half = int(np.ceil(small.micro_image_radius))
        n = 2 * half + 1
        cx, cy = centers.T
        kept = (cx >= -half) & (cx <= w + half) & (cy >= -half) & (cy <= h + half)
        # windows per pixel on the sensor padded by n on every side
        depth = np.zeros((h + 2 * n, w + 2 * n), dtype=int)
        for x, y in centers[kept].astype(int) - half:
            depth[y + n:y + 2 * n, x + n:x + 2 * n] += 1
        assert depth[n:n + h, n:n + w].max() >= 3
        assert depth[n:n + h, n - 1].any() and depth[n:n + h, n + w].any()
        assert depth[n - 1, n:n + w].any() and depth[n + h, n:n + w].any()
        got = sim.synthesize_white_image(small, rotation)
        assert got.tobytes() == reference_white_image(small, rotation).tobytes()


# the benchmark's MLA misalignment: 0.5 degrees about a mostly in-plane axis
BENCH_AXIS = np.array([0.064, 0.048, 0.99679])
BENCH_ROTATION = np.radians(0.5 * BENCH_AXIS / np.linalg.norm(BENCH_AXIS))


def test_white_image_memory(camera):
    # measured 34.8 MiB: the uint16 raster (20.4 MiB), the band buffer
    # (5.1 MiB), one band's stamps and the lens centers; a float64 raster of
    # the sensor alone would take 81.7 MiB (106 MiB peak when one was used)
    import tracemalloc
    tracemalloc.start()
    try:
        sim.synthesize_white_image(camera, BENCH_ROTATION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 48


def test_synthesis_memory_is_per_pose(camera, board, poses48):
    # batching all poses at once would peak near 50 MiB here
    import tracemalloc
    tracemalloc.start()
    try:
        sim.synthesize_observations(camera, board, poses48, DistortionParams(), 0.3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --- the paper's claim: a focused plenoptic camera, traced physically, is a
# TPP camera.  At sigma = 0 the fitted model with the true parameters and
# the same model-form distortion reproduces every traced pixel ---

def galilean_camera():
    """The reference camera with its MLA five micro-gaps in front of the
    intermediate image of the 1.5 m focus plane and the sensor one gap
    behind the MLA (a Galilean layout)."""
    ref = sim.reference_camera()
    image_z = 50.0 * 1500.0 / (1500.0 - 50.0)
    gap = 2.726 * 5.0 / 4.0
    mla_z = image_z - 5.0 * gap
    return replace(ref, sensor_origin=(*ref.sensor_origin[:2], mla_z + gap),
                   mla_origin=(*ref.mla_origin[:2], mla_z))


def sensor_in_front_camera():
    """A compact camera with the sensor mirrored to the main-lens side of
    the MLA, which the CLI refuses for white images and rotated arrays."""
    return sim.PhysicalCameraSpec(
        main_focal=50.0, sensor_origin=(-9.0, -6.1, 2 * 65.35 - 68.76),
        mla_origin=(0.07, -0.05, 65.35), pixel_pitch=0.009,
        sensor_resolution=(2000, 1350), lens_pitch=0.3, micro_image_radius=16.5)


SWEEP_CAMERAS = {
    "reference": (sim.reference_camera, sim.reference_board()),
    "galilean": (galilean_camera, sim.reference_board()),
    "sensor-in-front": (sensor_in_front_camera, sim.BoardSpec(5, 5, (27.0, 27.0))),
}


def distorted_like_reference(tpp):
    """DISTORTED carried to another camera: the same x-y map in sensor
    pixels, and the u-v center at the same place relative to the u-v offset.
    On the reference camera it is DISTORTED itself."""
    ref = sim.physical_to_tpp(sim.reference_camera())[1]
    s = ref.k_x / tpp.k_x
    return replace(DISTORTED, s1=DISTORTED.s1 * s**2, s2=DISTORTED.s2 * s**4,
                   x_c=DISTORTED.x_c / s, y_c=DISTORTED.y_c / s,
                   u_c=DISTORTED.u_c + tpp.u_0 - ref.u_0,
                   v_c=DISTORTED.v_c + tpp.v_0 - ref.v_0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("distortion", ["none", "distorted", "criterion-5"])
@pytest.mark.parametrize("camera_name", list(SWEEP_CAMERAS))
def test_physical_trace_is_a_tpp_camera(camera_name, distortion, seed):
    from test_acceptance import reference_distortion
    make_camera, board = SWEEP_CAMERAS[camera_name]
    camera = make_camera()
    _, tpp = sim.physical_to_tpp(camera)
    if distortion == "none":
        dist = DistortionParams()
    elif distortion == "distorted":
        dist = distorted_like_reference(tpp)
    else:
        t1, t2 = reference_distortion(camera, tpp)
        dist = DistortionParams(t1=t1, t2=t2, u_c=tpp.u_0, v_c=tpp.v_0)
    env = sim.default_envelope(camera, board, (1300.0, 1700.0))
    poses = sim.generate_poses(12, seed, env)
    obs = sim.synthesize_observations(camera, board, poses, dist, 0.0, 0)
    assert len(obs) > 1000
    # residuals take one pose row per pose id that has observations
    _, rms = residuals(obs, board.points_mm() / camera.pixel_pitch,
                       poses[np.unique(obs.pose)], tpp, dist)
    assert rms < 1e-9


def test_generator_does_not_use_the_fitted_projection():
    # the simulator must not share the function calibrate fits, or a fault
    # in it would pass every recovery criterion unseen
    from plenocal import projection
    for name in ("project_pixels", "ProjectionBatch"):
        assert not hasattr(sim, name)
        assert getattr(projection, name) not in vars(sim).values()


class TestMicroLenses:
    @staticmethod
    def camera(mla_origin=(0.0, 0.0, 65.0)):
        # sensor 3.4 mm behind the array, pixel (0, 0) on the optical axis
        return sim.PhysicalCameraSpec(
            main_focal=50.0, sensor_origin=(0.0, 0.0, mla_origin[2] + 3.4),
            mla_origin=mla_origin, pixel_pitch=0.009, sensor_resolution=(100, 100),
            lens_pitch=0.3, micro_image_radius=10.0)

    @staticmethod
    def label_grid(ni, nj):
        ii, jj = np.meshgrid(np.arange(-ni, ni + 1), np.arange(-nj, nj + 1),
                             indexing="ij")
        return np.column_stack([ii.ravel(), jj.ravel()])

    def test_identity_rotation_uniform_grid(self):
        spec = self.camera()
        labels = self.label_grid(10, 8)
        _, c = sim.micro_lenses(spec, labels, np.zeros(3))
        mag = spec.sensor_origin[2] / spec.mla_origin[2]
        expected = labels * (spec.lens_pitch * mag / spec.pixel_pitch)
        np.testing.assert_allclose(c, expected, atol=1e-9)
        # pairwise spacing constant to 1e-12
        by = {tuple(l): xy for l, xy in zip(map(tuple, labels), c)}
        sp = [np.hypot(*(np.subtract(by[(i + 1, j)], by[(i, j)])))
              for (i, j) in by if (i + 1, j) in by]
        assert np.ptp(sp) < 1e-12 * np.mean(sp)
        np.testing.assert_array_equal(sim.micro_lenses(spec, labels)[1], c)

    def test_reference_lens_any_rotation(self):
        spec = self.camera(mla_origin=(1.5, -2.5, 65.0))
        lens, c = sim.micro_lenses(spec, [[0, 0]], (0.02, -0.015, 0.4))
        np.testing.assert_array_equal(lens[0], spec.mla_origin)
        mag = spec.sensor_origin[2] / spec.mla_origin[2]
        np.testing.assert_allclose(c[0], (mag * 1.5 / 0.009, mag * -2.5 / 0.009))

    def test_y_rotation_slopes_descend_linearly(self):
        from plenocal.rectification import MicroImageCenters, row_slopes
        labels = self.label_grid(40, 20)
        _, c = sim.micro_lenses(self.camera(), labels, (0.0, np.radians(0.5), 0.0))
        slopes = row_slopes(MicroImageCenters(labels, c))
        js = np.array([j for j, _ in slopes], float)
        vs = np.array([s for _, s in slopes])
        coef = np.polyfit(js, vs, 1)
        resid = vs - np.polyval(coef, js)
        assert np.ptp(vs) > 0
        assert np.abs(resid).max() < 1e-3 * np.ptp(vs)

    def test_degenerate_geometry(self):
        from plenocal.errors import DegenerateGeometry
        spec = self.camera(mla_origin=(0.0, 0.0, 1.0))
        with pytest.raises(DegenerateGeometry):
            sim.micro_lenses(spec, [[40, 0]], (0.0, np.radians(89.0), 0.0))
