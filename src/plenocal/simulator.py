"""Ground-truth data generator for calibration experiments.

Maps a physical focused-plenoptic layout (thin main lens, pinhole micro-lens
array, planar sensor) to its equivalent scene-side TPP coordinate, samples
board poses in that frame, and synthesizes raw-image observations and white
images.  All geometry is converted to sensor-pixel units on ingest; the scene
frame is mirrored where needed so plane scales stay positive (the real-image
inversion of the main lens otherwise makes them negative).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (BehindPlane, DegenerateGeometry, EnvelopeInfeasible,
                     FocalSingularity)
from .projection import DistortionParams, Observations, apply_pose
from .rotation import rodrigues_matrices
from .tpp import TppParams

logger = logging.getLogger("plenocal.simulator")

_WINDOW_MARGIN = 3        # candidate lens window padding, lens indices
_WINDOW_CAP = 60          # cap on the candidate radius near the focus singularity
_BAND_ROWS = 128          # white-image rows finished per band


@dataclass(frozen=True)
class PhysicalCameraSpec:
    """Physical layout of a focused plenoptic camera, in mm and pixels.

    ``sensor_origin`` is the 3D position of pixel (0, 0); ``mla_origin`` the
    optical center of the reference micro-lens, label (0, 0).  Both live in
    the main-lens frame (aperture at the origin, optical axis along +z on the
    sensor side).  Construction raises ValueError, naming the field, unless
    the origins are finite, the focal length, pitches and micro-image radius
    finite and positive, and the resolution two positive integers.
    """

    main_focal: float
    sensor_origin: np.ndarray
    mla_origin: np.ndarray
    pixel_pitch: float
    sensor_resolution: tuple[int, int]
    lens_pitch: float
    micro_image_radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensor_origin",
                           np.asarray(self.sensor_origin, dtype=float).reshape(3).copy())
        object.__setattr__(self, "mla_origin",
                           np.asarray(self.mla_origin, dtype=float).reshape(3).copy())
        for name in ("sensor_origin", "mla_origin"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("main_focal", "pixel_pitch", "lens_pitch", "micro_image_radius"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")
        res = tuple(self.sensor_resolution)
        if not (len(res) == 2 and all(isinstance(v, numbers.Integral)
                                      and not isinstance(v, bool) and v > 0 for v in res)):
            raise ValueError(f"sensor_resolution must be two positive integers, got {res}")
        object.__setattr__(self, "sensor_resolution", (int(res[0]), int(res[1])))
        F = self.main_focal
        z_s, z_a = self.sensor_origin[2], self.mla_origin[2]
        if abs(z_s - F) < 1e-9 or abs(z_a - F) < 1e-9:
            raise FocalSingularity(
                "sensor or MLA plane coincides with the main-lens focal plane")
        if abs(z_s - z_a) < 1e-9:
            raise ValueError("sensor and MLA planes must be distinct")
        if (F - z_s) * (F - z_a) < 0:
            raise ValueError(
                "sensor and MLA must lie on the same side of the focal plane")

    @property
    def width(self) -> int:
        return self.sensor_resolution[0]

    @property
    def height(self) -> int:
        return self.sensor_resolution[1]


@dataclass(frozen=True)
class BoardSpec:
    """Planar calibration board: a rows x cols point grid with given cell size."""

    rows: int
    cols: int
    cell: tuple[float, float]       # (width, height) mm

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("board needs at least 2 rows and 2 columns")
        if min(self.cell) <= 0:
            raise ValueError("cell size must be positive")

    def points_mm(self) -> np.ndarray:
        """(rows*cols, 2) grid points, id = row * cols + col, row-major."""
        w, h = self.cell
        pts = [(c * w, r * h) for r in range(self.rows) for c in range(self.cols)]
        return np.asarray(pts, dtype=float)


def scene_conjugate(points_mm: np.ndarray, focal: float) -> np.ndarray:
    """Scene-side conjugate of interior points through the thin main lens."""
    p = np.atleast_2d(np.asarray(points_mm, dtype=float))
    den = focal - p[:, 2]
    if np.any(np.abs(den) < 1e-9):
        raise FocalSingularity("point on the focal plane has no finite conjugate")
    return p * (focal / den)[:, None]


def interior_image(points_mm: np.ndarray, focal: float) -> np.ndarray:
    """Interior image of scene points through the thin main lens."""
    p = np.atleast_2d(np.asarray(points_mm, dtype=float))
    den = focal + p[:, 2]
    if np.any(np.abs(den) < 1e-9):
        raise FocalSingularity("scene point on the front focal plane")
    return p * (focal / den)[:, None]


@dataclass(frozen=True)
class ExteriorFrame:
    """Scene-side TPP frame derived from the camera's conjugate planes.

    The frame origin is the conjugate of pixel (0, 0); +z points from the
    sensor-conjugate plane toward the MLA-conjugate plane, and x/y keep the
    main-lens axes up to the mirror that makes the plane scales positive.
    """

    sensor_conjugate: np.ndarray      # mm, main-lens frame
    mla_conjugate: np.ndarray         # mm
    k_pixel_signed: float             # exterior px per sensor px (signed)
    k_lens_signed: float              # exterior px per lens index (signed)
    u_offset_signed: float            # exterior px, before mirroring
    v_offset_signed: float
    f_px: float                       # plane separation, exterior px (> 0)
    mirrored: bool
    z_sign: float
    pixel_pitch: float

    def to_lens_frame(self, points_ext: np.ndarray) -> np.ndarray:
        """Map exterior-frame points (px) back to main-lens mm coordinates."""
        p = np.atleast_2d(np.asarray(points_ext, dtype=float))
        sxy = -1.0 if self.mirrored else 1.0
        out = np.empty_like(p)
        out[:, 0] = sxy * p[:, 0] * self.pixel_pitch + self.sensor_conjugate[0]
        out[:, 1] = sxy * p[:, 1] * self.pixel_pitch + self.sensor_conjugate[1]
        out[:, 2] = self.z_sign * p[:, 2] * self.pixel_pitch + self.sensor_conjugate[2]
        return out

    def from_lens_frame(self, points_mm: np.ndarray) -> np.ndarray:
        """Map main-lens mm coordinates into the exterior frame (px)."""
        p = np.atleast_2d(np.asarray(points_mm, dtype=float))
        sxy = -1.0 if self.mirrored else 1.0
        out = np.empty_like(p)
        out[:, 0] = sxy * (p[:, 0] - self.sensor_conjugate[0]) / self.pixel_pitch
        out[:, 1] = sxy * (p[:, 1] - self.sensor_conjugate[1]) / self.pixel_pitch
        out[:, 2] = self.z_sign * (p[:, 2] - self.sensor_conjugate[2]) / self.pixel_pitch
        return out


def exterior_frame(spec: PhysicalCameraSpec) -> ExteriorFrame:
    F = spec.main_focal
    s0 = scene_conjugate(spec.sensor_origin, F)[0]
    a0 = scene_conjugate(spec.mla_origin, F)[0]
    pitch = spec.pixel_pitch
    k_px = F / (F - spec.sensor_origin[2])
    k_lens = (spec.lens_pitch / pitch) * F / (F - spec.mla_origin[2])
    f_signed = (a0[2] - s0[2]) / pitch
    return ExteriorFrame(
        sensor_conjugate=s0, mla_conjugate=a0,
        k_pixel_signed=k_px, k_lens_signed=k_lens,
        u_offset_signed=(a0[0] - s0[0]) / pitch,
        v_offset_signed=(a0[1] - s0[1]) / pitch,
        f_px=abs(f_signed), mirrored=k_px < 0,
        z_sign=math.copysign(1.0, f_signed), pixel_pitch=pitch)


def physical_to_tpp(spec: PhysicalCameraSpec) -> tuple[TppParams, TppParams]:
    """Interior and scene-side TPP parameters of the camera, in pixel units.

    The interior coordinate has the sensor as its x-y plane and the MLA as
    its u-v plane.  The scene-side coordinate uses the conjugate planes; its
    x/y axes are mirrored when the main lens inverts the image, which keeps
    every scale positive and flips the sign of the u-v offsets.
    """
    pitch = spec.pixel_pitch
    tpp_in = TppParams.isotropic(
        1.0, spec.lens_pitch / pitch,
        (spec.mla_origin[0] - spec.sensor_origin[0]) / pitch,
        (spec.mla_origin[1] - spec.sensor_origin[1]) / pitch,
        abs(spec.mla_origin[2] - spec.sensor_origin[2]) / pitch)
    fr = exterior_frame(spec)
    sxy = -1.0 if fr.mirrored else 1.0
    tpp_out = TppParams.isotropic(
        abs(fr.k_pixel_signed), abs(fr.k_lens_signed),
        sxy * fr.u_offset_signed, sxy * fr.v_offset_signed, fr.f_px)
    return tpp_in, tpp_out


def _center_lattice(spec: PhysicalCameraSpec) -> tuple[float, np.ndarray]:
    """Micro-image centers of the aligned array as the lattice a_c * label +
    b_c in raster pixels: each lens center seen from the main-lens aperture."""
    z_s, z_a = spec.sensor_origin[2], spec.mla_origin[2]
    a_c = (z_s / z_a) * spec.lens_pitch / spec.pixel_pitch
    b_c = ((z_s / z_a) * spec.mla_origin[:2] - spec.sensor_origin[:2]) / spec.pixel_pitch
    return a_c, b_c


def default_setting(spec: PhysicalCameraSpec) -> TppParams:
    """Decode setting used before calibration: unit pixel scale on x-y, the
    nominal micro-image pitch on u-v, offsets at the image center, and the
    nominal sensor-MLA gap as plane separation.  Keeps the decoded ray
    coordinates within a few orders of magnitude of each other.
    """
    gap = abs(spec.sensor_origin[2] - spec.mla_origin[2]) / spec.pixel_pitch
    return TppParams.isotropic(1.0, abs(_center_lattice(spec)[0]), spec.width / 2.0,
                               spec.height / 2.0, gap)


def check_sensor_behind_mla(spec: PhysicalCameraSpec) -> None:
    """Raise ValueError unless the sensor sits behind the MLA, the layout in
    which a white image and a rotated array are simulated."""
    if spec.sensor_origin[2] <= spec.mla_origin[2]:
        raise ValueError("sensor must sit behind the MLA")


def micro_lenses(spec: PhysicalCameraSpec, labels: np.ndarray,
                 rotation=None) -> tuple[np.ndarray, np.ndarray]:
    """Centers (N, 3) mm of labeled micro-lenses, the array turned about lens
    (0, 0) by the Rodrigues vector ``rotation`` (radians; None: aligned), and
    their micro-image centers (N, 2) in raster pixels: each lens center
    projected from the main-lens aperture onto the sensor plane."""
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    grid = np.column_stack([labels * spec.lens_pitch, np.zeros(len(labels))])
    if rotation is not None:
        grid = grid @ rodrigues_matrices(rotation)[0].T
    lens = grid + spec.mla_origin
    if np.any(lens[:, 2] <= 0.0):
        raise DegenerateGeometry("micro-lens center at or behind the aperture plane")
    centers = (lens[:, :2] * (spec.sensor_origin[2] / lens[:, 2])[:, None]) \
        / spec.pixel_pitch - spec.sensor_origin[:2] / spec.pixel_pitch
    return lens, centers


def lens_index_range(spec: PhysicalCameraSpec) -> tuple[range, range]:
    """Label ranges of micro-lenses whose images can touch the sensor."""
    a_c, b = _center_lattice(spec)
    lo_i = math.floor((0.0 - b[0]) / a_c) - 1
    hi_i = math.ceil((spec.width - 1 - b[0]) / a_c) + 1
    lo_j = math.floor((0.0 - b[1]) / a_c) - 1
    hi_j = math.ceil((spec.height - 1 - b[1]) / a_c) + 1
    return range(lo_i, hi_i + 1), range(lo_j, hi_j + 1)


@dataclass(frozen=True)
class PoseEnvelope:
    """Sampling envelope for board poses in the scene-side TPP frame."""

    camera: PhysicalCameraSpec
    board: BoardSpec
    distance_px: tuple[float, float]
    max_rotation_deg: float = 40.0
    lateral_fraction: float = 0.10
    min_visible_fraction: float = 1.0
    max_rejections: int = 1000


def default_envelope(spec: PhysicalCameraSpec, board: BoardSpec,
                     scene_range_mm: tuple[float, float] = (900.0, 2200.0),
                     **kwargs) -> PoseEnvelope:
    """Envelope whose depth range corresponds to scene distances in front of
    the main lens (mm), converted to exterior-frame pixels.

    The default spans a wide depth range: depth diversity anchors the global
    scale of the recovered camera, which is otherwise the weakest direction
    of the calibration problem.
    """
    fr = exterior_frame(spec)
    zs = [float(fr.from_lens_frame([[0.0, 0.0, -d]])[0, 2]) for d in scene_range_mm]
    return PoseEnvelope(spec, board, (min(zs), max(zs)), **kwargs)


def _radial_shift(points: np.ndarray, center, d1: float, d2: float) -> np.ndarray:
    """How far the radial map (p - c)(1 + d1 r^2 + d2 r^4) + c, r = |p - c|,
    moves each of (N, 2) points; exactly zero for zero coefficients."""
    d = points - center
    r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    return d * (r2 * (d1 + d2 * r2))[:, None]


def _observe_points(spec: PhysicalCameraSpec, tpp: TppParams, frame: ExteriorFrame,
                    points_c: np.ndarray, dist: DistortionParams, rotation
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (scene point, observing lens) pair of one pose, as flat rows.

    Points are given in the scene-side TPP frame.  Each ray is traced
    through the thin main lens, then through the pinhole of a micro-lens of
    the array turned by ``rotation`` (radians, see ``micro_lenses``) onto
    the sensor.  Distortion takes model form (the fitted model's two-plane
    terms): the u-v terms shift each pinhole in the array plane by the u-v
    displacement times that plane's scale to the array, and the x-y terms
    map the traced pixel radially about (x_c, y_c) / k_xy with coefficients
    s1 k_xy^2 and s2 k_xy^4.  A point is observed by a lens when its pixel
    falls inside the sensor and inside the disc about that lens's undisplaced
    micro-image center.  Each point's candidate lenses are a window of labels
    about the lens that sees it head-on; a point on the u-v conjugate plane
    raises BehindPlane before anything is traced.

    Returns the point index (N,), lens label (N, 2) and exact pixel (N, 2)
    of each observation, grouped by point in input order and ordered by
    label within a point.
    """
    points_c = np.atleast_2d(points_c)
    k_xy, k_uv, u_0, v_0, f = tpp.k_x, tpp.k_u, tpp.u_0, tpp.v_0, tpp.f
    F, z_s, z_a = spec.main_focal, spec.sensor_origin[2], spec.mla_origin[2]
    a_c, b_c = _center_lattice(spec)
    i_rng, j_rng = lens_index_range(spec)
    radius = spec.micro_image_radius

    # candidate window per point: where the point's micro-image line crosses
    # the lattice of centers, padded by the disc radius over the slope
    X, Y, Z = points_c.T
    denom = Z - f
    if np.any(np.abs(denom) < 1e-9 * max(1.0, f)):
        raise BehindPlane("scene point lies on the u-v conjugate plane")
    a_p = k_uv * Z / (denom * k_xy)
    b_p = np.column_stack([(u_0 * Z - f * X) / (denom * k_xy),
                           (v_0 * Z - f * Y) / (denom * k_xy)])
    slope = a_p - a_c
    flat = np.abs(slope) < 1e-9             # near focus: window at the origin
    slope = np.where(flat, 1.0, slope)
    center = np.where(flat[:, None], 0.0, (b_c - b_p) / slope[:, None])
    win = np.where(flat, _WINDOW_CAP,
                   np.minimum(_WINDOW_CAP, radius / np.abs(slope) + _WINDOW_MARGIN))
    lo = np.maximum(np.floor(center - win[:, None]), [i_rng.start, j_rng.start])
    hi = np.minimum(np.ceil(center + win[:, None]) + 1, [i_rng.stop, j_rng.stop])
    size = np.maximum(hi - lo, 0).astype(np.int64)
    lo = lo.astype(np.int64)

    # one row per (point, candidate lens), labels in meshgrid "ij" order
    counts = size[:, 0] * size[:, 1]
    point = np.repeat(np.arange(len(points_c)), counts)
    k = np.arange(len(point)) - np.repeat(np.cumsum(counts) - counts, counts)
    nj = size[point, 1]
    labels = lo[point] + np.column_stack([k // nj, k % nj])

    # only points with candidate lenses are traced through the main lens
    seen = counts > 0
    img = np.zeros((len(points_c), 3))
    img[seen] = interior_image(frame.to_lens_frame(points_c[seen]), F)
    img = img[point]
    lens_pts, centers = micro_lenses(spec, labels, rotation)
    uv = k_uv * labels + (u_0, v_0)
    lens_pts[:, :2] += _radial_shift(uv, (dist.u_c, dist.v_c), dist.t1, dist.t2) \
        * (spec.pixel_pitch * abs(F - z_a) / F)
    t = (z_s - img[:, 2]) / (lens_pts[:, 2] - img[:, 2])
    hit = img[:, :2] + t[:, None] * (lens_pts[:, :2] - img[:, :2])
    pixels = (hit - spec.sensor_origin[:2]) / spec.pixel_pitch
    pixels += _radial_shift(pixels, (dist.x_c / k_xy, dist.y_c / k_xy),
                            dist.s1 * k_xy**2, dist.s2 * k_xy**4)

    d = pixels - centers
    ok = (np.hypot(d[:, 0], d[:, 1]) <= radius) \
        & (pixels[:, 0] >= 0) & (pixels[:, 0] <= spec.width - 1) \
        & (pixels[:, 1] >= 0) & (pixels[:, 1] <= spec.height - 1)
    return point[ok], labels[ok], pixels[ok]


def generate_poses(n: int, seed: int, envelope: PoseEnvelope) -> np.ndarray:
    """Sample board poses: bounded rotation from frontal, depth and lateral
    placement inside the envelope, re-drawn until enough points are visible.
    Returns the (n, 6) array of [rvec | tvec] rows; row k is pose id k.

    Depths are stratified over the envelope range (shuffled slots) so every
    pose set spans it; tilt magnitudes stay in the upper half of the allowed
    range, where the projective constraints carry the most leverage.
    """
    if n < 1:
        raise ValueError("need at least one pose")
    rng = np.random.default_rng(seed)
    spec, board = envelope.camera, envelope.board
    _, tpp = physical_to_tpp(spec)
    frame = exterior_frame(spec)
    pts_w = np.column_stack([board.points_mm() / spec.pixel_pitch,
                             np.zeros(board.rows * board.cols)])
    center_w = pts_w.mean(axis=0)
    lo, hi = envelope.distance_px
    max_rot = math.radians(envelope.max_rotation_deg)
    slots = rng.permutation(n)

    poses = []
    rejections = 0
    while len(poses) < n:
        if rejections > envelope.max_rejections:
            raise EnvelopeInfeasible(
                f"{rejections} rejected pose draws for envelope {envelope.distance_px}")
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
        pose = np.concatenate([rvec, np.zeros(3)])
        pose[3:] = target - apply_pose(pose, center_w)[0]
        pts_c = apply_pose(pose, pts_w)
        point, _, _ = _observe_points(spec, tpp, frame, pts_c, DistortionParams(), None)
        if len(np.unique(point)) / len(pts_c) >= envelope.min_visible_fraction:
            poses.append(pose)
        else:
            rejections += 1
    return np.array(poses)


def synthesize_observations(spec: PhysicalCameraSpec, board: BoardSpec,
                            poses: np.ndarray, dist: DistortionParams,
                            noise_sigma: float, seed: int, mla_rotation=None
                            ) -> Observations:
    """Emit one observation per (pose, board point, observing micro-lens);
    row k of the (P, 6) [rvec | tvec] ``poses`` gets pose id k.

    Pixels are traced through the thin main lens and pinhole micro-lenses,
    the MLA turned by the Rodrigues vector ``mla_rotation`` in radians when
    given; ``dist`` takes model form (see ``_observe_points``) and is refused
    with a rotation (ValueError).  I.i.d. Gaussian noise of the given sigma
    is added afterwards in table order, deterministically per seed.
    """
    if mla_rotation is not None:
        check_sensor_behind_mla(spec)
        if any((dist.s1, dist.s2, dist.t1, dist.t2)):
            raise ValueError("distortion plus MLA misalignment is not supported")
    _, tpp = physical_to_tpp(spec)
    frame = exterior_frame(spec)
    pts_w = np.column_stack([board.points_mm() / spec.pixel_pitch,
                             np.zeros(board.rows * board.cols)])
    # per pose: the pose id, point ids, lens labels and pixels of its rows
    columns = [(np.empty(0, int), np.empty(0, int), np.empty((0, 2), int),
                np.empty((0, 2)))]
    for pose_id, pose in enumerate(np.asarray(poses, dtype=float).reshape(-1, 6)):
        point, labels, px = _observe_points(spec, tpp, frame, apply_pose(pose, pts_w),
                                            dist, mla_rotation)
        columns.append((np.full(len(point), pose_id), point, labels, px))
    # each pose's rows come grouped by point and ordered by label: table order
    pose, point, lens, pixel = map(np.concatenate, zip(*columns))
    if len(pixel) == 0:
        logger.warning("synthesized zero observations for %d poses", len(poses))
    elif noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        pixel = pixel + rng.normal(0.0, noise_sigma, size=pixel.shape)
    return Observations(pose, point, lens, pixel)


def synthesize_white_image(spec: PhysicalCameraSpec, mla_rotation=None) -> np.ndarray:
    """Render a white-scene raster: one Gaussian-profile disc per micro-image,
    the MLA turned by ``mla_rotation``, a Rodrigues vector in radians, when
    given.  Raises ValueError unless the sensor sits behind the MLA.

    Each lens adds a (2 half + 1)^2 stamp, the outer product of a row and a
    column profile, at its truncated center; pixels off the sensor are
    dropped.  Lenses are taken in order of their window's top row and added
    in bands of ``_BAND_ROWS`` rows to one float buffer, which carries the
    rows a band's windows hang over into the next band; each band's finished
    rows are clipped into the uint16 raster.
    """
    check_sensor_behind_mla(spec)
    i_rng, j_rng = lens_index_range(spec)
    gi, gj = np.meshgrid(np.arange(i_rng.start, i_rng.stop),
                         np.arange(j_rng.start, j_rng.stop), indexing="ij")
    _, centers = micro_lenses(spec, np.column_stack([gi.ravel(), gj.ravel()]),
                              mla_rotation)

    h, w = spec.height, spec.width
    sigma = spec.micro_image_radius / 3.0
    half = int(math.ceil(3.0 * sigma))
    n = 2 * half + 1
    amp = 58000.0
    cx, cy = centers.T
    centers = centers[(cx >= -half) & (cx <= w + half) & (cy >= -half) & (cy <= h + half)]
    # window origins: int() truncates toward zero, so top rows lie in
    # [1 - n, h] and left columns in [1 - n, w]
    corners = centers.astype(np.int64) - half
    order = np.argsort(corners[:, 1], kind="stable")
    (cx, cy), (x0, y0) = centers[order].T, corners[order].T
    span = np.arange(n)
    img = np.empty((h, w), dtype=np.uint16)
    # buffer row 0 is the band's top row, column n is sensor column 0
    buf = np.zeros((_BAND_ROWS + n, w + 2 * n))
    for top in range(-n, h, _BAND_ROWS):
        lo, hi = np.searchsorted(y0, [top, top + _BAND_ROWS])
        dy = y0[lo:hi, None] + span - cy[lo:hi, None]
        dx = x0[lo:hi, None] + span - cx[lo:hi, None]
        rows = amp * np.exp(-dy ** 2 / (2.0 * sigma * sigma))
        stamps = rows[:, :, None] * np.exp(-dx ** 2 / (2.0 * sigma * sigma))[:, None, :]
        for stamp, y, x in zip(stamps, (y0[lo:hi] - top).tolist(),
                               (x0[lo:hi] + n).tolist()):
            buf[y:y + n, x:x + n] += stamp
        r0, r1 = max(top, 0), min(top + _BAND_ROWS, h)
        if r0 < r1:
            np.minimum(buf[r0 - top:r1 - top, n:n + w], 65535.0, out=img[r0:r1],
                       casting="unsafe")
        buf[:n] = buf[_BAND_ROWS:]
        buf[n:] = 0.0
    return img


def reference_camera() -> PhysicalCameraSpec:
    """Reference simulated camera: 4008x2672 sensor with 9 um pixels, 50 mm
    main lens, 300 um micro-lens pitch.  The array is placed so the micro
    lenses (2.726 mm focal length) re-image the intermediate image of a scene
    about 1.5 m away with enough overlap that each scene point is seen by a
    dozen or more micro-images.
    """
    focal = 50.0
    focus_mm = 1500.0
    mla_focal = 2.726
    image_z = focal * focus_mm / (focus_mm - focal)
    # micro-lens conjugates: object side 4x the sensor side
    gap = mla_focal * 5.0 / 4.0
    mla_z = image_z + 4.0 * gap
    sensor_z = mla_z + gap
    width, height = 4008, 2672
    pitch = 0.009
    return PhysicalCameraSpec(
        main_focal=focal,
        sensor_origin=(-width / 2 * pitch + 0.45, -height / 2 * pitch - 0.27, sensor_z),
        mla_origin=(0.117, -0.083, mla_z),
        pixel_pitch=pitch,
        sensor_resolution=(width, height),
        lens_pitch=0.3,
        micro_image_radius=16.5)


def reference_board() -> BoardSpec:
    """Reference board: 5x5 points on 54 mm cells."""
    return BoardSpec(rows=5, cols=5, cell=(54.0, 54.0))
