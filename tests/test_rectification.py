"""Micro-image centers, slope analysis, rectifying homography, PGM I/O."""

import math
import re
import tracemalloc
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from plenocal import rectification
from plenocal import simulator as sim
from plenocal.errors import (AmbiguousPitch, DegenerateConfiguration, NoGridFound,
                             PointAtInfinity, TooFewCenters)
from plenocal.projection import Observations
from plenocal.rectification import (MicroImageCenters, apply_homography, detect_centers,
                                    estimate_rectifying_homography, read_pgm,
                                    rectify_observations, row_slopes, write_pgm)


def mla_centers(rotation, labels):
    """Micro-image centers of the labelled lenses of an array 65 mm behind
    the main lens, turned by ``rotation``, with the sensor 3.4 mm behind it
    and pixel (0, 0) on the optical axis."""
    spec = sim.PhysicalCameraSpec(
        main_focal=50.0, sensor_origin=(0.0, 0.0, 68.4), mla_origin=(0.0, 0.0, 65.0),
        pixel_pitch=0.009, sensor_resolution=(100, 100), lens_pitch=0.3,
        micro_image_radius=10.0)
    return sim.micro_lenses(spec, labels, rotation)[1]


def label_grid(ni, nj):
    ii, jj = np.meshgrid(np.arange(-ni, ni + 1), np.arange(-nj, nj + 1),
                         indexing="ij")
    return np.column_stack([ii.ravel(), jj.ravel()])


def reference_detect_centers(white_image, expected_pitch):
    """detect_centers as one query and one seed at a time: center_of_mass
    seeds, a per-seed centroid window clipped to the raster, and a sequential
    breadth-first lattice walk.  The vectorized detector must match it."""
    work = reference_work(white_image)
    seeds = reference_seeds(work, expected_pitch)
    margin = rectification._CENTROID_RADIUS * expected_pitch
    h, w = work.shape
    seeds = seeds[(seeds[:, 0] > margin) & (seeds[:, 0] < w - 1 - margin)
                  & (seeds[:, 1] > margin) & (seeds[:, 1] < h - 1 - margin)]
    r = int(round(rectification._CENTROID_RADIUS * expected_pitch))
    centers = np.empty_like(seeds)
    for k, (sx, sy) in enumerate(seeds):
        cx, cy = int(round(sx)), int(round(sy))
        x0, x1 = max(0, cx - r), min(w, cx + r + 1)
        y0, y1 = max(0, cy - r), min(h, cy + r + 1)
        patch = work[y0:y1, x0:x1]
        total = patch.sum()
        if total <= 0.0:
            centers[k] = (sx, sy)
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        centers[k] = ((xs * patch).sum() / total, (ys * patch).sum() / total)

    tree = cKDTree(centers)
    nn, _ = tree.query(centers, k=2)
    spacing = float(np.median(nn[:, 1]))
    start = int(np.argmin(np.hypot(centers[:, 0] - (w - 1) / 2,
                                   centers[:, 1] - (h - 1) / 2)))
    step_i, step_j = rectification._orient_axes(centers, start, spacing)
    labels = {start: (0, 0)}
    queue = deque([(start, np.asarray(step_i, float), np.asarray(step_j, float))])
    attach = rectification._ATTACH_RADIUS * spacing
    while queue:
        k, si, sj = queue.popleft()
        i, j = labels[k]
        pos = centers[k]
        for di, dj, step in ((1, 0, si), (-1, 0, -si), (0, 1, sj), (0, -1, -sj)):
            dist, m = tree.query(pos + step)
            if dist > attach or m in labels:
                continue
            labels[m] = (i + di, j + dj)
            local = centers[m] - pos
            nsi = local * (1 if di > 0 else -1) if di != 0 else si
            nsj = local * (1 if dj > 0 else -1) if dj != 0 else sj
            queue.append((m, nsi, nsj))
    return MicroImageCenters(list(labels.values()), centers[list(labels)])


def reference_work(white_image):
    """The raster as floats, less its background percentile, clipped at 0."""
    img = np.asarray(white_image, dtype=float)
    work = img - np.percentile(img, rectification._BACKGROUND_PERCENTILE)
    return np.clip(work, 0.0, None)


def reference_seeds(work, pitch):
    """Blob seeds (x, y) as the centers of mass of the local-maximum plateaus."""
    peak = float(work.max())
    size = max(3, int(round(pitch * 0.7)) | 1)
    is_max = (work == ndimage.maximum_filter(work, size=size)) \
        & (work > rectification._PEAK_FRACTION * peak)
    labeled, count = ndimage.label(is_max)
    yx = np.asarray(ndimage.center_of_mass(is_max, labeled, np.arange(1, count + 1)))
    return yx[:, ::-1].copy()


def reference_blob_candidates(raster, background, pitch):
    """_blob_candidates as a full-raster maximum filter and ndimage.label;
    the sparse search must return its seeds bit for bit, in its order."""
    peak = max(float(raster.max()) - background, 0.0)
    if peak <= 0.0:
        return np.empty((0, 2))
    size = max(3, int(round(pitch * 0.7)) | 1)
    ys, xs = np.nonzero(raster == ndimage.maximum_filter(raster, size=size))
    bright = raster[ys, xs] - background > rectification._PEAK_FRACTION * peak
    ys, xs = ys[bright], xs[bright]
    is_max = np.zeros(raster.shape, dtype=bool)
    is_max[ys, xs] = True
    labeled, count = ndimage.label(is_max)
    if count == 0:
        return np.empty((0, 2))
    lab = labeled[ys, xs]
    n = np.bincount(lab, minlength=count + 1)[1:]
    x = np.bincount(lab, weights=xs, minlength=count + 1)[1:] / n
    y = np.bincount(lab, weights=ys, minlength=count + 1)[1:] / n
    return np.column_stack([x, y])


class TestMicroImageCenters:
    def test_rows_sorted_by_j_then_i(self):
        centers = MicroImageCenters([(1, 1), (0, 2), (0, 1), (1, 1)],
                                    [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        assert len(centers) == 4
        np.testing.assert_array_equal(centers.label, [(0, 1), (1, 1), (1, 1), (0, 2)])
        # equal labels keep their input order
        np.testing.assert_array_equal(centers.pixel[:, 0], [3.0, 1.0, 4.0, 2.0])

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="2 center labels but 1 pixels"):
            MicroImageCenters([(0, 0), (1, 0)], [(0.0, 0.0)])


class TestRowSlopes:
    def grid_centers(self, theta=0.0, pitch=30.0, ni=12, nj=3):
        labels = label_grid(ni, nj)
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        return MicroImageCenters(labels, labels * pitch @ R.T)

    def test_axis_aligned_grid(self):
        slopes = row_slopes(self.grid_centers())
        assert max(abs(s) for _, s in slopes) == 0.0

    def test_rigid_rotation(self):
        theta = 0.06
        slopes = row_slopes(self.grid_centers(theta=theta))
        for _, s in slopes:
            assert s == pytest.approx(np.tan(theta), abs=1e-9)

    def test_too_few_centers(self):
        with pytest.raises(TooFewCenters):
            row_slopes(self.grid_centers(ni=3))


class TestRectifyingHomography:
    def test_uniform_grid_identity(self):
        labels = label_grid(8, 6)
        fit = estimate_rectifying_homography(MicroImageCenters(labels, 31.0 * labels))
        np.testing.assert_allclose(fit.homography, np.eye(3), atol=1e-9)
        assert fit.fitted_pitch == pytest.approx(31.0)
        assert fit.rms < 1e-9

    def test_misalignment_round_trip(self):
        labels = label_grid(40, 25)
        centers = MicroImageCenters(labels,
                                    mla_centers(np.radians([0.1, 0.5, 0.2]), labels))
        fit = estimate_rectifying_homography(centers)
        assert fit.rms < 0.05

    def test_slope_range_reduction_up_to_two_degrees(self):
        rng = np.random.default_rng(0)
        for deg in (0.3, 0.5, 1.0, 2.0):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            labels = label_grid(40, 25)
            centers = MicroImageCenters(labels,
                                        mla_centers(np.radians(deg) * axis, labels))
            before = row_slopes(centers)
            fit = estimate_rectifying_homography(centers)
            after = row_slopes(rectify_observations(centers, fit.homography))
            rng_b = np.ptp([s for _, s in before])
            rng_a = np.ptp([s for _, s in after])
            assert rng_a < rng_b

    def test_refit_on_own_output_is_identity(self):
        labels = label_grid(30, 20)
        centers = MicroImageCenters(labels,
                                    mla_centers(np.radians([0.0, 0.6, 0.1]), labels))
        fit = estimate_rectifying_homography(centers)
        refit = estimate_rectifying_homography(
            rectify_observations(centers, fit.homography))
        np.testing.assert_allclose(refit.homography, np.eye(3), atol=1e-8)

    def test_too_few_centers(self):
        centers = MicroImageCenters([(i, 0) for i in range(4)],
                                    [(30.0 * i, 0.0) for i in range(4)])
        with pytest.raises(TooFewCenters):
            estimate_rectifying_homography(centers)

    def test_single_row_is_degenerate(self):
        labels = np.column_stack([np.arange(8), np.zeros(8, int)])
        with pytest.raises(DegenerateConfiguration, match="2 rows and columns"):
            estimate_rectifying_homography(MicroImageCenters(labels, 30.0 * labels))

    def test_no_adjacent_labels_is_degenerate(self):
        labels = 2 * label_grid(2, 2)
        with pytest.raises(DegenerateConfiguration, match="no adjacent labels"):
            estimate_rectifying_homography(MicroImageCenters(labels, 30.0 * labels))


# what cKDTree's median spacing gave on the dense_seed_white raster
DENSE_SEED_MESSAGE = ("median spacing 0.16 px deviates from expected 35.07 px "
                      "by more than 25%")


def small_camera():
    # compact sensor keeps the raster quick to render and scan
    return sim.PhysicalCameraSpec(
        main_focal=50.0,
        sensor_origin=(-3.0, -2.3, 68.76),
        mla_origin=(0.04, -0.03, 65.35),
        pixel_pitch=0.009, sensor_resolution=(660, 500),
        lens_pitch=0.3, micro_image_radius=16.5)


class TestDetectCenters:
    def test_clean_round_trip(self):
        spec = small_camera()
        img = sim.synthesize_white_image(spec)
        pitch = sim.default_setting(spec).k_u
        centers = detect_centers(img, pitch)
        i_rng, j_rng = sim.lens_index_range(spec)
        labels = np.array([(i, j) for i in i_rng for j in j_rng])
        truth_xy = sim.micro_lenses(spec, labels)[1]
        truth = {tuple(l): xy for l, xy in zip(map(tuple, labels), truth_xy)}
        # labels from detection are defined relative to the central blob
        best = np.argmin(np.hypot(*(centers.pixel - (330, 250)).T))
        bx, by = centers.pixel[best]
        tlab = min(truth, key=lambda k: np.hypot(truth[k][0] - bx, truth[k][1] - by))
        shift = np.subtract(tlab, centers.label[best])
        errs = [np.hypot(*(xy - truth[tuple(ij)]))
                for ij, xy in zip((centers.label + shift).tolist(), centers.pixel)]
        # this raster is tiny, so count against lenses whose centroid window
        # fits inside it; the full-size count check runs on the session image
        margin = 0.45 * pitch
        expected_interior = sum(
            1 for xy in truth_xy
            if margin <= xy[0] < spec.width - margin
            and margin <= xy[1] < spec.height - margin)
        assert len(centers) >= 0.9 * expected_interior
        assert max(errs) < 0.05

    def test_full_size_count(self, camera, white_image):
        pitch = sim.default_setting(camera).k_u
        centers = detect_centers(white_image, pitch)
        i_rng, j_rng = sim.lens_index_range(camera)
        labels = np.array([(i, j) for i in i_rng for j in j_rng])
        truth_xy = sim.micro_lenses(camera, labels)[1]
        expected = sum(1 for xy in truth_xy
                       if 0 <= xy[0] < camera.width and 0 <= xy[1] < camera.height)
        assert len(centers) >= 0.9 * expected

    def test_featureless_image(self):
        with pytest.raises(NoGridFound):
            detect_centers(np.full((400, 600), 900, dtype=np.uint16), 35.0)

    def test_wrong_pitch(self):
        spec = small_camera()
        img = sim.synthesize_white_image(spec)
        with pytest.raises(AmbiguousPitch):
            detect_centers(img, 50.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_pixels(self, rotated_white, value):
        img, pitch, _ = rotated_white
        bad = img.astype(float)
        bad[100, 200] = bad[300, 10] = value
        with pytest.raises(ValueError, match="holds 2 non-finite pixel"):
            detect_centers(bad, pitch)

    def test_detection_memory(self, camera, white_image):
        # measured 20.4 MiB on this 10.7 Mpx raster: the seed search's two
        # full-raster boolean masks; the percentile's 20.4 MiB raster copy and
        # float64 centroid gathers of 1024 windows made it 26.5 MiB
        pitch = sim.default_setting(camera).k_u
        tracemalloc.start()
        try:
            detect_centers(white_image, pitch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < 24

    def test_dense_seeds_are_an_ambiguous_pitch(self, camera, dense_seed_white):
        # about 156k seeds, many of them sharing a centroid window
        pitch = sim.default_setting(camera).k_u
        with pytest.raises(AmbiguousPitch, match=re.escape(DENSE_SEED_MESSAGE)):
            detect_centers(dense_seed_white, pitch)

    def test_integer_raster_centroids_are_exact(self, rotated_white):
        # an integral background keeps every window sum an exact integer
        img, pitch, _ = rotated_white
        assert float(np.percentile(img, rectification._BACKGROUND_PERCENTILE)).is_integer()
        np.testing.assert_array_equal(detect_centers(img, pitch).pixel,
                                      reference_detect_centers(img, pitch).pixel)

    def test_rotated_labels_consistent(self):
        spec = small_camera()
        img = sim.synthesize_white_image(spec, np.radians([0.0, 0.5, 0.0]))
        centers = detect_centers(img, sim.default_setting(spec).k_u)
        # an affine lattice fit must explain every label without row skips
        A = np.column_stack([centers.label, np.ones(len(centers))])
        xy = centers.pixel
        coef, *_ = np.linalg.lstsq(A, xy, rcond=None)
        resid = np.abs(A @ coef - xy).max()
        assert resid < 0.3 * sim.default_setting(spec).k_u


@pytest.fixture(scope="module")
def rotated_white():
    spec = small_camera()
    pitch = sim.default_setting(spec).k_u
    img = sim.synthesize_white_image(spec, np.radians([0.0, 0.5, 0.0]))
    return img, pitch, reference_seeds(reference_work(img), pitch)


def crop_at_margin(img, seeds, pitch, k, inside):
    """A crop putting a seed within 1 px of the border margin on each edge,
    just inside it (kept, its centroid window touching the border) or just
    outside it (dropped, its window would cross the border)."""
    margin = rectification._CENTROID_RADIUS * pitch
    xs, ys = seeds.T
    xa = xs[np.argmin(abs(xs - (90 + 11 * k)))]
    xb = xs[np.argmin(abs(xs - (570 - 13 * k)))]
    ya = ys[np.argmin(abs(ys - (80 + 9 * k)))]
    yb = ys[np.argmin(abs(ys - (420 - 7 * k)))]
    x0, x1 = math.ceil(xa - margin - 1), math.floor(xb + 1 + margin) + 1
    y0, y1 = math.ceil(ya - margin - 1), math.floor(yb + 1 + margin) + 1
    crop = img[y0:y1, x0:x1]
    return crop if inside else crop[1:-1, 1:-1]


def near_center_seed(seeds, img, offset):
    xs, ys = seeds.T
    h, w = img.shape
    k = np.argmin(np.hypot(xs - (w - 1) / 2 - offset[0], ys - (h - 1) / 2 - offset[1]))
    return int(round(xs[k])), int(round(ys[k]))


def with_hole(img, seeds, pitch):
    """One interior micro-image blanked out."""
    x, y = near_center_seed(seeds, img, (2 * pitch, 0.0))
    half = math.ceil(small_camera().micro_image_radius)    # the disc's 3 sigma
    out = img.copy()
    out[y - half:y + half + 1, x - half:x + half + 1] = 0
    return out


def with_dark_plateau_center(img, seeds, pitch):
    """One micro-image replaced by a saturated square outline around a dark
    core: the outline is one plateau whose centroid window holds no light."""
    x, y = near_center_seed(seeds, img, (-3 * pitch, -pitch))
    r = int(round(rectification._CENTROID_RADIUS * pitch))
    out = img.copy()
    out[y - r - 2:y + r + 3, x - r - 2:x + r + 3] = 65535
    out[y - r:y + r + 1, x - r:x + r + 1] = 0
    return out


def dislocated_lattice(pitch=35.0, core=(400.0, 250.0)):
    """Discs on a square lattice with an edge dislocation: walking around the
    core gains one column, so the label a blob gets depends on which claim
    on it is granted first."""
    gi, gj = np.meshgrid(np.arange(-1, 21), np.arange(-1, 16), indexing="ij")
    pts = np.column_stack([gi.ravel(), gj.ravel()]) * pitch + 5.0
    pts[:, 0] += pitch * np.arctan2(pts[:, 1] - core[1], pts[:, 0] - core[0]) / (2 * np.pi)
    h, w = 500, 660
    sigma = 16.5 / 3.0
    half = int(math.ceil(3.0 * sigma))
    img = np.zeros((h, w))
    for cx, cy in pts:
        x0, x1 = max(0, int(cx) - half), min(w, int(cx) + half + 1)
        y0, y1 = max(0, int(cy) - half), min(h, int(cy) + half + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        img[y0:y1, x0:x1] += 58000.0 * np.exp(
            -((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    return np.clip(img, 0.0, 65535.0).astype(np.uint16)


class TestDetectCentersMatchesReference:
    """The batched detector returns the sequential detector's labels, in the
    same order, and its centers."""

    def assert_matches(self, img, pitch):
        got = detect_centers(img, pitch)
        want = reference_detect_centers(img, pitch)
        np.testing.assert_array_equal(got.label, want.label)
        np.testing.assert_allclose(got.pixel, want.pixel, rtol=0, atol=1e-9)
        return got

    def test_full_raster(self, rotated_white):
        img, pitch, _ = rotated_white
        self.assert_matches(img, pitch)

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    @pytest.mark.parametrize("k", range(3))
    def test_seeds_at_the_margin(self, rotated_white, k, inside):
        img, pitch, seeds = rotated_white
        crop = crop_at_margin(img, seeds, pitch, k, inside)
        h, w = crop.shape
        margin = rectification._CENTROID_RADIUS * pitch
        lo, hi = (margin, margin + 1) if inside else (margin - 1, margin)
        sx, sy = reference_seeds(reference_work(crop), pitch).T
        assert np.any((sx > lo) & (sx <= hi))
        assert np.any((sx < w - 1 - lo) & (sx >= w - 1 - hi))
        assert np.any((sy > lo) & (sy <= hi))
        assert np.any((sy < h - 1 - lo) & (sy >= h - 1 - hi))
        self.assert_matches(crop, pitch)

    def test_missing_micro_image(self, rotated_white):
        img, pitch, seeds = rotated_white
        got = self.assert_matches(with_hole(img, seeds, pitch), pitch)
        assert len(got) == len(detect_centers(img, pitch)) - 1

    def test_plateau_without_light_in_its_window(self, rotated_white):
        img, pitch, seeds = rotated_white
        x, y = near_center_seed(seeds, img, (-3 * pitch, -pitch))
        got = self.assert_matches(with_dark_plateau_center(img, seeds, pitch), pitch)
        # the outline's seed keeps its position and is labeled
        assert np.any((got.pixel == (x, y)).all(axis=1))

    def test_lattice_dislocation(self):
        self.assert_matches(dislocated_lattice(), 35.0)


def plateaus_at_the_border():
    """Saturated plateaus along the top edge and in the bottom-right corner,
    each with a dimmer peak within its window, and one lone peak."""
    img = np.zeros((90, 120), dtype=np.uint16)
    img[0:2, 30:37] = 60000
    img[4, 40] = 50000
    img[-3:, -5:] = 60000
    img[-6, -9] = 59000
    img[50, 60] = 40000
    return img


def peaks_at_the_window_edge():
    """Pairs of peaks, one a unit brighter, r pixels apart along each axis in
    each direction and one pair r + 1 apart, for the 15-pixel window of pitch
    20 (r = 7): only the dimmer peak r + 1 away from its pair is a maximum."""
    img = np.zeros((90, 120), dtype=np.uint16)
    for (y, x), (by, bx) in (((30, 20), (30, 27)), ((30, 60), (30, 68)),
                             ((60, 27), (60, 20)), ((20, 90), (27, 90)),
                             ((70, 100), (63, 100))):
        img[y, x], img[by, bx] = 40000, 40001
    return img


def peaks_at_the_brightness_floor(dtype):
    """A peak 50000 above a zero background, one exactly at the brightness
    floor (a fifth of that) and one just above it."""
    img = np.zeros((90, 120), dtype=dtype)
    img[20, 20] = 50000
    img[20, 60] = 10000
    img[60, 60] = np.nextafter(10000.0, np.inf) if img.dtype.kind == "f" else 10001
    return img


def winding_plateaus():
    """Saturated one-pixel-wide plateaus: a serpentine whose rows join only at
    alternate ends, then a U whose arms join only at its foot, with a dot
    between the arms that the U's first row precedes in raster order."""
    img = np.zeros((120, 120), dtype=np.uint16)
    img[10:51:2, 10:81] = 60000
    img[11:50:4, 80] = 60000
    img[13:50:4, 10] = 60000
    img[70:101, 30] = img[70:101, 60] = img[100, 30:61] = 60000
    img[80, 45] = 60000
    return img


def diagonal_twins():
    """Two equal peaks that touch only at a corner: two 4-connected plateaus."""
    img = np.zeros((90, 120), dtype=np.uint16)
    img[40, 50] = img[41, 51] = 50000
    return img


def across_a_row_end():
    """Two equal plateaus, one ending a row and one starting the next: they
    touch in the raveled raster but not in the image."""
    img = np.zeros((90, 120), dtype=np.uint16)
    img[30, 117:] = img[31, :3] = 50000
    return img


def with_read_noise(img, sigma):
    """The white image with Gaussian read noise of ``sigma`` counts: each noise
    bump on a disc's bright top is a candidate seed."""
    noise = np.random.default_rng(5).normal(0.0, sigma, img.shape)
    return np.clip(img + noise, 0, 65535).astype(np.uint16)


def saturated(img, gain):
    """The white image ``gain`` times brighter, its disc tops clipped at
    65535: every pixel of a clipped top is a candidate seed."""
    return np.clip(img * float(gain), 0, 65535).astype(np.uint16)


class TestBlobCandidatesMatchReference:
    """The sparse seed search returns the full-raster search's seeds."""

    PITCH = 20.0

    def assert_matches(self, raster, pitch):
        background = float(np.percentile(raster, rectification._BACKGROUND_PERCENTILE))
        got = rectification._blob_candidates(raster, background, pitch)
        want = reference_blob_candidates(raster, background, pitch)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    def test_full_raster(self, rotated_white):
        img, pitch, _ = rotated_white
        assert len(self.assert_matches(img, pitch)) > 100

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    @pytest.mark.parametrize("k", range(3))
    def test_crops_at_the_margin(self, rotated_white, k, inside):
        img, pitch, seeds = rotated_white
        self.assert_matches(crop_at_margin(img, seeds, pitch, k, inside), pitch)

    @pytest.mark.parametrize("edit", [with_hole, with_dark_plateau_center])
    def test_edited_raster(self, rotated_white, edit):
        img, pitch, seeds = rotated_white
        self.assert_matches(edit(img, seeds, pitch), pitch)

    def test_lattice_dislocation(self):
        self.assert_matches(dislocated_lattice(), 35.0)

    def test_plateaus_at_the_border(self):
        got = self.assert_matches(plateaus_at_the_border(), self.PITCH)
        assert (got == (33.0, 0.5)).all(axis=1).any()
        assert (got == (117.0, 88.0)).all(axis=1).any()

    def test_plateaus_across_a_row_end(self):
        got = self.assert_matches(across_a_row_end(), self.PITCH)
        np.testing.assert_array_equal(got, [(118.0, 30.0), (1.0, 31.0)])

    def test_peaks_at_the_window_edge(self):
        got = self.assert_matches(peaks_at_the_window_edge(), self.PITCH)
        assert len(got) == 6

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, float])
    def test_peaks_at_the_brightness_floor(self, dtype):
        got = self.assert_matches(peaks_at_the_brightness_floor(dtype), self.PITCH)
        np.testing.assert_array_equal(got, [(20.0, 20.0), (60.0, 60.0)])

    def test_winding_plateaus(self):
        got = self.assert_matches(winding_plateaus(), self.PITCH)
        assert len(got) == 3 and tuple(got[2]) == (45.0, 80.0)

    def test_diagonal_neighbours_are_two_plateaus(self):
        got = self.assert_matches(diagonal_twins(), self.PITCH)
        np.testing.assert_array_equal(got, [(50.0, 40.0), (51.0, 41.0)])

    @pytest.mark.parametrize("sigma", [300.0, 3000.0])
    def test_noisy_raster(self, rotated_white, sigma):
        img, pitch, _ = rotated_white
        self.assert_matches(with_read_noise(img, sigma), pitch)

    @pytest.mark.parametrize("gain", [1.5, 3.0])
    def test_saturated_raster(self, rotated_white, gain):
        img, pitch, _ = rotated_white
        raster = saturated(img, gain)
        assert (raster == 65535).sum() > 10 * len(self.assert_matches(raster, pitch))

    def test_float_raster(self, rotated_white):
        img, pitch, _ = rotated_white
        self.assert_matches(img / 7.0, pitch)

    def test_negative_signed_raster(self, rotated_white):
        img, pitch, _ = rotated_white
        shifted = img.astype(np.int32) - 70000
        assert shifted.max() < 0
        got = self.assert_matches(shifted, pitch)
        assert np.array_equal(got, self.assert_matches(img, pitch))

    def test_all_dark_raster(self):
        got = self.assert_matches(np.zeros((90, 120), dtype=np.uint16), self.PITCH)
        assert got.shape == (0, 2)


def constant_runs(dtype, size):
    """Runs of a few values, the longest of them holding the 20th percentile
    and its neighbours in sorted order."""
    values = np.array([3, 9, 9, 40, 41, 200], dtype=dtype)
    lengths = np.array([size // 10, size // 5, size // 4, 1, size // 3, 0])
    lengths[-1] = size - lengths.sum()
    rng = np.random.default_rng(size)
    return rng.permutation(np.repeat(values, lengths))


class TestPercentile:
    """The copy-free background percentile equals np.percentile bit for bit."""

    QS = (rectification._BACKGROUND_PERCENTILE, 0.0, 37.3, 50.0, 70.0, 100.0)

    def assert_matches(self, raster):
        for q in self.QS:
            want = np.percentile(raster, q)
            got = rectification._percentile(raster, q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), q

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, float])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (61, 37), (60, 38), (301, 417)])
    def test_random_raster(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        raster = rng.normal(100.0, 40.0, shape)
        if dtype is not float:
            raster = np.clip(raster, 0, 255).astype(dtype)
        self.assert_matches(raster)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, float])
    @pytest.mark.parametrize("size", [20001, 20000, 9])
    def test_long_constant_runs(self, dtype, size):
        self.assert_matches(constant_runs(dtype, size).reshape(-1, 1))
        self.assert_matches(np.sort(constant_runs(dtype, size)).reshape(1, -1))

    def test_white_images(self, rotated_white):
        img, _, _ = rotated_white
        self.assert_matches(img)
        self.assert_matches(img / 7.0)
        self.assert_matches(img.astype(np.int32) - 70000)
        self.assert_matches(img[1:, 3:])

    def test_interpolation_from_the_upper_value(self):
        # at q = 70 the weight is 0.7, and numpy interpolates down from 0.7,
        # which gives 0.5199999999999999, not 0.52
        self.assert_matches(np.array([[0.1, 0.7]]))

    @pytest.mark.parametrize("end", ["min", "max"])
    def test_bracket_that_misses(self, monkeypatch, end):
        # one sampled pixel, the raster's (0, 0), brackets nothing else when
        # it holds the raster's unique extreme: the full range takes over
        raster = np.random.default_rng(7).integers(10, 1000, (90, 70)).astype(np.int32)
        raster[0, 0] = 0 if end == "min" else 5000
        monkeypatch.setattr(rectification, "_SAMPLE", 1)
        self.assert_matches(raster)


def lattice_with_holes(pitch=7.0):
    """A 30 x 20 lattice turned by 0.1 rad, a fifth of its points dropped."""
    i, j = np.meshgrid(np.arange(30), np.arange(20), indexing="ij")
    c, s = math.cos(0.1), math.sin(0.1)
    pts = pitch * np.column_stack([c * i.ravel() - s * j.ravel(),
                                   s * i.ravel() + c * j.ravel()]) + (50.0, 20.0)
    return pts[np.random.default_rng(0).random(len(pts)) >= 0.2]


def dislocated_points(pitch=7.0):
    """A square lattice whose upper half holds one extra column, squeezed in
    over the lower half's 20: an edge dislocation."""
    lower = [(x * pitch, y * pitch) for y in range(8) for x in range(20)]
    upper = [(x * pitch * 20 / 21, y * pitch) for y in range(8, 16) for x in range(21)]
    return np.array(lower + upper, dtype=float)


POINT_SETS = {
    "random": lambda: np.random.default_rng(1).uniform(0.0, 300.0, (500, 2)),
    "single": lambda: np.array([[4.0, -2.5]]),
    "pair": lambda: np.array([[0.0, 0.0], [3.0, 4.0]]),
    "lattice-with-holes": lattice_with_holes,
    "dislocation": dislocated_points,
    "duplicates": lambda: np.round(np.random.default_rng(2).uniform(0.0, 12.0, (400, 2))),
    "all-equal": lambda: np.full((5, 2), 3.25),
    "collinear": lambda: np.column_stack([np.arange(50.0) ** 1.5, np.full(50, 8.0)]),
}


class TestCellGrid:
    """Nearest points from the cell grid are cKDTree's: the same distances,
    bit for bit, and among equally near points the lowest index."""

    def queries(self, grid, points):
        rng = np.random.default_rng(3)
        lo, hi = points.min(axis=0), points.max(axis=0)
        span = np.maximum(hi - lo, 1.0)
        inside = rng.uniform(lo, hi, (300, 2))
        outside = rng.uniform(lo - 20 * span, hi + 20 * span, (300, 2))
        # cell corners and edge midpoints, within and beyond the grid
        k = np.arange(-2, max(grid.shape) + 3) / 2.0
        edges = grid.origin + grid.side * np.stack(np.meshgrid(k, k), -1).reshape(-1, 2)
        return np.concatenate([points, points + 0.3, inside, outside, edges,
                               [[1e7, -1e7]]])

    def assert_matches(self, points, queries, bound=math.inf):
        dist, index = rectification._CellGrid(points).nearest(queries, bound)
        want, _ = cKDTree(points).query(queries)
        miss = want > bound
        np.testing.assert_array_equal(dist, np.where(miss, np.inf, want))
        d = np.sqrt(((points[None] - queries[:, None]) ** 2).sum(axis=2))
        lowest = np.argmax(d == want[:, None], axis=1)
        np.testing.assert_array_equal(index, np.where(miss, len(points), lowest))

    @pytest.mark.parametrize("name", POINT_SETS)
    def test_nearest(self, name):
        points = POINT_SETS[name]()
        self.assert_matches(points, self.queries(rectification._CellGrid(points), points))

    @pytest.mark.parametrize("name", POINT_SETS)
    def test_nearest_within_a_bound(self, name):
        points = POINT_SETS[name]()
        queries = self.queries(rectification._CellGrid(points), points)
        for bound in (0.0, 0.5, 2.45, 40.0):
            self.assert_matches(points, queries, bound)

    @pytest.mark.parametrize("name", POINT_SETS)
    def test_nearest_other_point(self, name):
        points = POINT_SETS[name]()
        dist, _ = rectification._CellGrid(points).nearest(points, skip_self=True)
        if len(points) == 1:
            assert dist.tolist() == [np.inf]
        else:
            np.testing.assert_array_equal(dist, cKDTree(points).query(points, k=2)[0][:, 1])

    def test_queries_are_batched(self):
        # 200 points around each of 200 sites: every query's block holds
        # about 200 points, 8M (query, point) pairs in all, 61 MiB for each
        # array over them; measured 5.6 MiB, and 48.6 MiB in batches of
        # 4096 queries alone
        rng = np.random.default_rng(4)
        sites = rng.uniform(0.0, 4000.0, (200, 2))
        points = np.repeat(sites, 200, axis=0) + rng.normal(0.0, 0.5, (40000, 2))
        grid = rectification._CellGrid(points)
        tracemalloc.start()
        try:
            dist, _ = grid.nearest(points, skip_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sample = rng.choice(len(points), 2000, replace=False)
        want = cKDTree(points).query(points[sample], k=2)[0][:, 1]
        np.testing.assert_array_equal(dist[sample], want)
        assert peak / 2**20 < 16


class TestRectifyObservations:
    def test_identity(self):
        obs = Observations([0], [1], [(2, 3)], [(10.5, -4.0)])
        assert rectify_observations(obs, np.eye(3)) == obs

    def test_pure_translation(self):
        k = np.arange(5)
        obs = Observations(np.zeros(5), k, np.column_stack([k, -k]),
                           np.column_stack([k, 2.0 * k]))
        H = np.array([[1.0, 0, 7.5], [0, 1.0, -2.5], [0, 0, 1.0]])
        out = rectify_observations(obs, H)
        np.testing.assert_array_equal(out.pixel - obs.pixel, [[7.5, -2.5]] * 5)
        for column in ("pose", "point", "lens"):
            np.testing.assert_array_equal(getattr(out, column), getattr(obs, column))

    def test_point_at_infinity(self):
        H = np.array([[1.0, 0, 0], [0, 1.0, 0], [-0.01, 0, 1.0]])
        with pytest.raises(PointAtInfinity):
            rectify_observations(Observations([0], [0], [(0, 0)], [(100.0, 0.0)]), H)

    def test_centers_keep_their_labels(self):
        labels = label_grid(3, 2)
        centers = MicroImageCenters(labels, 30.0 * labels)
        H = np.array([[1.01, 0.02, 7.5], [-0.01, 0.99, -2.5], [1e-5, 0, 1.0]])
        out = rectify_observations(centers, H)
        assert isinstance(out, MicroImageCenters)
        np.testing.assert_array_equal(out.label, centers.label)
        np.testing.assert_array_equal(out.pixel, apply_homography(centers.pixel, H))


# --- references: the per-center object format the table replaced; slopes,
# pitch, homography and fit RMS must equal theirs bit for bit ---

@dataclass(frozen=True)
class RefCenter:
    i: int
    j: int
    x: float
    y: float


def reference_row_slopes(centers):
    rows = {}
    for c in centers:
        rows.setdefault(c.j, []).append(c)
    usable = {j: cs for j, cs in rows.items() if len(cs) >= 10}
    if len(usable) < 2:
        raise TooFewCenters("need at least 2 rows with 10 or more centers")
    out = []
    for j in sorted(usable):
        pts = np.array([(c.x, c.y) for c in usable[j]])
        pts = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts, full_matrices=False)
        vx, vy = vt[0]
        out.append((j, float(vy / vx)))
    return out


def reference_fitted_pitch(centers):
    by_label = {(c.i, c.j): (c.x, c.y) for c in centers}
    spacings = []
    for (i, j), xy in by_label.items():
        for nb in ((i + 1, j), (i, j + 1)):
            if nb in by_label:
                spacings.append(math.hypot(by_label[nb][0] - xy[0],
                                           by_label[nb][1] - xy[1]))
    return float(np.median(spacings))


def reference_rectifying_homography(centers):
    """(H, pitch, rms) by the per-center normalized DLT."""
    p = reference_fitted_pitch(centers)
    src = np.array([(c.x, c.y) for c in centers])
    dst = np.array([(c.i * p, c.j * p) for c in centers])
    dst += (src - dst).mean(axis=0)
    sn, Ts = rectification._normalize_2d(src)
    dn, Td = rectification._normalize_2d(dst)
    A = np.zeros((2 * len(centers), 9))
    A[0::2, 0:2] = -sn
    A[0::2, 2] = -1.0
    A[0::2, 6:8] = dn[:, 0:1] * sn
    A[0::2, 8] = dn[:, 0]
    A[1::2, 3:5] = -sn
    A[1::2, 5] = -1.0
    A[1::2, 6:8] = dn[:, 1:2] * sn
    A[1::2, 8] = dn[:, 1]
    _, _, Vt = np.linalg.svd(A, full_matrices=False)
    H = np.linalg.inv(Td) @ Vt[-1].reshape(3, 3) @ Ts
    H = H / H[2, 2]
    mapped = apply_homography(src, H)
    return H, p, float(np.sqrt(np.mean(np.sum((mapped - dst) ** 2, axis=1))))


def reference_rectify_centers(centers, H):
    mapped = apply_homography(np.array([(c.x, c.y) for c in centers]), H)
    return [RefCenter(c.i, c.j, float(x), float(y)) for c, (x, y) in zip(centers, mapped)]


@pytest.mark.parametrize("misaligned", [False, True], ids=["aligned", "misaligned"])
def test_table_fit_equals_object_reference(camera, white_image, misaligned):
    image = (sim.synthesize_white_image(camera, np.radians([0.2, -0.1, 0.3]))
             if misaligned else white_image)
    centers = detect_centers(image, sim.default_setting(camera).k_u)
    objects = [RefCenter(i, j, x, y) for (i, j), (x, y) in
               zip(centers.label.tolist(), centers.pixel.tolist())]
    fit = estimate_rectifying_homography(centers)
    H, pitch, rms = reference_rectifying_homography(objects)
    assert fit.homography.tobytes() == H.tobytes()
    assert (fit.fitted_pitch, fit.rms) == (pitch, rms)
    assert row_slopes(centers) == reference_row_slopes(objects)
    assert (row_slopes(rectify_observations(centers, H))
            == reference_row_slopes(reference_rectify_centers(objects, H)))


class TestPgm:
    def test_round_trip_uint16(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 65535, size=(37, 53)).astype(np.uint16)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_array_equal(back, img)

    def test_round_trip_uint8(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 255, size=(21, 19)).astype(np.uint8)
        path = tmp_path / "y.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_rejects_other_dtypes(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "z.pgm", np.zeros((4, 4), dtype=np.float32))


def test_end_to_end_misalignment_recovery(camera, board, board_points, setting,
                                          poses12):
    # calibrating rectified misaligned data matches the misalignment-free run
    from plenocal.calibration import RefineOptions, calibrate
    from plenocal.projection import DistortionParams
    axis = np.array([0.064, 0.048, 0.99679])
    axis /= np.linalg.norm(axis)
    rotation = np.radians(0.5) * axis
    opts = RefineOptions(sensor_size=camera.sensor_resolution)
    obs_c = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.1, 7)
    ref_c = calibrate(obs_c, board_points, setting, opts).refined
    obs_m = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.1, 7,
                                        mla_rotation=rotation)
    image = sim.synthesize_white_image(camera, rotation)
    fit = estimate_rectifying_homography(
        detect_centers(image, sim.default_setting(camera).k_u))
    obs_r = rectify_observations(obs_m, fit.homography)
    ref_r = calibrate(obs_r, board_points, setting, opts).refined
    for name in ("k_x", "k_u", "u_0", "v_0", "f"):
        a, b = getattr(ref_c.tpp, name), getattr(ref_r.tpp, name)
        assert abs(a - b) < 0.01 * abs(a)
