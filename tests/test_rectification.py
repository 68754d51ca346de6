"""Micro-image centers, slope analysis, rectifying homography, PGM I/O."""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from plenocal import rectification
from plenocal import simulator as sim
from plenocal.errors import (AmbiguousPitch, DegenerateConfiguration,
                             DegenerateGeometry, NoGridFound, PointAtInfinity,
                             TooFewCenters)
from plenocal.projection import Observations
from plenocal.rectification import (MicroImageCenters, MlaMisalignmentSpec,
                                    apply_homography, detect_centers,
                                    estimate_rectifying_homography, lens_positions,
                                    project_centers, read_pgm,
                                    rectify_observations, row_slopes, write_pgm)


def make_mla(rotation=(0.0, 0.0, 0.0), offset=(0.0, 0.0, 65.0)):
    return MlaMisalignmentSpec(rotation=np.asarray(rotation, float),
                               offset=np.asarray(offset, float),
                               lens_pitch=0.3, sensor_gap=3.4, pixel_pitch=0.009)


def mla_centers(mla, labels):
    """Axis-relative micro-image centers of the labelled lenses."""
    return project_centers(mla, lens_positions(mla, labels))


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


class TestProjectCenter:
    def test_identity_rotation_uniform_grid(self):
        mla = make_mla()
        labels = label_grid(10, 8)
        c = mla_centers(mla, labels)
        mag = (mla.offset[2] + mla.sensor_gap) / mla.offset[2]
        expected = labels * (mla.lens_pitch * mag / mla.pixel_pitch)
        np.testing.assert_allclose(c, expected, atol=1e-9)
        # pairwise spacing constant to 1e-12
        by = {tuple(l): xy for l, xy in zip(map(tuple, labels), c)}
        sp = [np.hypot(*(np.subtract(by[(i + 1, j)], by[(i, j)])))
              for (i, j) in by if (i + 1, j) in by]
        assert np.ptp(sp) < 1e-12 * np.mean(sp)

    def test_reference_lens_any_rotation(self):
        mla = make_mla(rotation=(0.02, -0.015, 0.4), offset=(1.5, -2.5, 65.0))
        c = mla_centers(mla, [[0, 0]])[0]
        mag = (mla.offset[2] + mla.sensor_gap) / mla.offset[2]
        np.testing.assert_allclose(c,
                                   (mag * 1.5 / 0.009, mag * -2.5 / 0.009))

    def test_y_rotation_slopes_descend_linearly(self):
        mla = make_mla(rotation=(0.0, np.radians(0.5), 0.0))
        labels = label_grid(40, 20)
        slopes = row_slopes(MicroImageCenters(labels, mla_centers(mla, labels)))
        js = np.array([j for j, _ in slopes], float)
        vs = np.array([s for _, s in slopes])
        coef = np.polyfit(js, vs, 1)
        resid = vs - np.polyval(coef, js)
        assert np.ptp(vs) > 0
        assert np.abs(resid).max() < 1e-3 * np.ptp(vs)

    def test_degenerate_geometry(self):
        mla = make_mla(rotation=(0.0, np.radians(89.0), 0.0),
                       offset=(0.0, 0.0, 1.0))
        with pytest.raises(DegenerateGeometry):
            mla_centers(mla, [[40, 0]])


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
        mla = make_mla(rotation=np.radians([0.1, 0.5, 0.2]))
        labels = label_grid(40, 25)
        centers = MicroImageCenters(labels, mla_centers(mla, labels))
        fit = estimate_rectifying_homography(centers)
        assert fit.rms < 0.05

    def test_slope_range_reduction_up_to_two_degrees(self):
        rng = np.random.default_rng(0)
        for deg in (0.3, 0.5, 1.0, 2.0):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            mla = make_mla(rotation=np.radians(deg) * axis)
            labels = label_grid(40, 25)
            centers = MicroImageCenters(labels, mla_centers(mla, labels))
            before = row_slopes(centers)
            fit = estimate_rectifying_homography(centers)
            after = row_slopes(rectify_observations(centers, fit.homography))
            rng_b = np.ptp([s for _, s in before])
            rng_a = np.ptp([s for _, s in after])
            assert rng_a < rng_b

    def test_refit_on_own_output_is_identity(self):
        mla = make_mla(rotation=np.radians([0.0, 0.6, 0.1]))
        labels = label_grid(30, 20)
        centers = MicroImageCenters(labels, mla_centers(mla, labels))
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
        truth_xy = sim.micro_image_center_px(spec, labels, sim.aligned_mla(spec))
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
        truth_xy = sim.micro_image_center_px(camera, labels, sim.aligned_mla(camera))
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

    def test_rotated_labels_consistent(self):
        spec = small_camera()
        mla = sim.aligned_mla(spec, rotation=np.radians([0.0, 0.5, 0.0]))
        img = sim.synthesize_white_image(spec, mla)
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
    mla = sim.aligned_mla(spec, rotation=np.radians([0.0, 0.5, 0.0]))
    pitch = sim.default_setting(spec).k_u
    img = sim.synthesize_white_image(spec, mla)
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
    image = (sim.synthesize_white_image(
        camera, sim.aligned_mla(camera, rotation=np.radians([0.2, -0.1, 0.3])))
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
    mla = sim.aligned_mla(camera, rotation=np.radians(0.5) * axis)
    opts = RefineOptions(sensor_size=camera.sensor_resolution)
    obs_c = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.1, 7)
    ref_c = calibrate(obs_c, board_points, setting, opts).refined
    obs_m = sim.synthesize_observations(camera, board, poses12,
                                        DistortionParams(), 0.1, 7,
                                        misalignment=mla)
    image = sim.synthesize_white_image(camera, mla)
    fit = estimate_rectifying_homography(
        detect_centers(image, sim.default_setting(camera).k_u))
    obs_r = rectify_observations(obs_m, fit.homography)
    ref_r = calibrate(obs_r, board_points, setting, opts).refined
    for name in ("k_x", "k_u", "u_0", "v_0", "f"):
        a, b = getattr(ref_c.tpp, name), getattr(ref_r.tpp, name)
        assert abs(a - b) < 0.01 * abs(a)
