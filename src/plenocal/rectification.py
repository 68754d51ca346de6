"""MLA-sensor misalignment: center detection, slope analysis, rectification.

A slightly rotated micro-lens array makes micro-image centers drift off the
ideal square grid; the per-row line slopes then vary across rows.  Detecting
the centers on a white image and fitting the 8-dof homography that maps them
back to a uniform grid reparameterizes the two light-field planes to parallel.
Observations are rectified by mapping their pixel coordinates through that
homography; the raster itself is never resampled.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import (AmbiguousPitch, DegenerateConfiguration, DegenerateGeometry,
                     NoGridFound, PointAtInfinity, TooFewCenters)
from .projection import Observations
from .rotation import rodrigues_matrices

_PEAK_FRACTION = 0.2          # local maxima below this fraction of peak are noise
_BACKGROUND_PERCENTILE = 20.0
# window must stay inside the micro-image's Voronoi cell: at 0.6 pitch the
# neighbors' tails pull centroids off by ~0.1 px
_CENTROID_RADIUS = 0.45
_ATTACH_RADIUS = 0.35         # lattice walk: max deviation from predicted site
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])  # +i, -i, +j, -j
_CENTROID_CHUNK = 1024        # centroid windows gathered per batch
_DLT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class MlaMisalignmentSpec:
    """Pose of the micro-lens array relative to the main lens.

    ``offset`` is the position (x_m, y_m, L) of the reference micro-lens
    (label (0, 0)) and ``sensor_gap`` the axial MLA-to-sensor distance, both
    in the same metric unit as ``lens_pitch``.
    """

    rotation: np.ndarray          # Rodrigues vector of the array rotation
    offset: np.ndarray            # (x_m, y_m, L)
    lens_pitch: float             # d_m > 0
    sensor_gap: float             # l > 0
    pixel_pitch: float            # metric size of one sensor pixel

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=float).reshape(3).copy())
        object.__setattr__(self, "offset",
                           np.asarray(self.offset, dtype=float).reshape(3).copy())
        if self.offset[2] <= 0:
            raise ValueError("MLA distance L must be positive")
        if self.lens_pitch <= 0 or self.sensor_gap <= 0 or self.pixel_pitch <= 0:
            raise ValueError("lens_pitch, sensor_gap and pixel_pitch must be positive")

    @property
    def rotation_matrix(self) -> np.ndarray:
        return rodrigues_matrices(self.rotation)[0]


@dataclass(frozen=True)
class MicroImageCenters:
    """Micro-image centers as one table: (N, 2) integer lattice labels (i, j)
    and (N, 2) sub-pixel centers (x, y).  Construction sorts the rows by (j, i)
    with a stable sort, so each lattice row is one contiguous slice."""

    label: np.ndarray
    pixel: np.ndarray

    def __post_init__(self) -> None:
        label = np.asarray(self.label, dtype=np.int64).reshape(-1, 2)
        pixel = np.asarray(self.pixel, dtype=float).reshape(-1, 2)
        if len(label) != len(pixel):
            raise ValueError(f"{len(label)} center labels but {len(pixel)} pixels")
        order = np.lexsort((label[:, 0], label[:, 1]))
        object.__setattr__(self, "label", label[order])
        object.__setattr__(self, "pixel", pixel[order])

    def __len__(self) -> int:
        return len(self.label)


def lens_positions(spec: MlaMisalignmentSpec, labels: np.ndarray) -> np.ndarray:
    """3D micro-lens centers (x_g, y_g, z_g) for an (N, 2) label array."""
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    grid = np.zeros((labels.shape[0], 3))
    grid[:, 0] = labels[:, 0] * spec.lens_pitch
    grid[:, 1] = labels[:, 1] * spec.lens_pitch
    return grid @ spec.rotation_matrix.T + spec.offset


def project_centers(spec: MlaMisalignmentSpec, g: np.ndarray) -> np.ndarray:
    """Micro-image centers in axis-relative pixels of (N, 3) lens positions.

    Each lens center is projected from the main-lens aperture origin onto the
    sensor plane at distance L + l and converted to pixels.
    """
    if np.any(g[:, 2] <= 0.0):
        raise DegenerateGeometry("micro-lens center at or behind the aperture plane")
    depth = spec.offset[2] + spec.sensor_gap
    return (g[:, :2] * (depth / g[:, 2])[:, None]) / spec.pixel_pitch


def _blob_candidates(raster: np.ndarray, background: float, pitch: float) -> np.ndarray:
    """Local-maximum blob seeds as (N, 2) pixel coordinates (x, y).

    A seed is the mean position of one 4-connected plateau of pixels that
    equal the maximum of their neighborhood and rise above ``_PEAK_FRACTION``
    of the peak over the background.  Subtracting the background and clipping
    at zero is monotone, so the maxima are found on the raster itself.
    """
    peak = max(float(raster.max()) - background, 0.0)
    if peak <= 0.0:
        return np.empty((0, 2))
    size = max(3, int(round(pitch * 0.7)) | 1)
    ys, xs = np.nonzero(raster == ndimage.maximum_filter(raster, size=size))
    bright = raster[ys, xs] - background > _PEAK_FRACTION * peak
    ys, xs = ys[bright], xs[bright]
    is_max = np.zeros(raster.shape, dtype=bool)
    is_max[ys, xs] = True
    labeled, count = ndimage.label(is_max)
    if count == 0:
        return np.empty((0, 2))
    # coordinate sums are integers, so these means equal center_of_mass's
    lab = labeled[ys, xs]
    n = np.bincount(lab, minlength=count + 1)[1:]
    x = np.bincount(lab, weights=xs, minlength=count + 1)[1:] / n
    y = np.bincount(lab, weights=ys, minlength=count + 1)[1:] / n
    return np.column_stack([x, y])


def _refine_centroids(raster: np.ndarray, background: float, seeds: np.ndarray,
                      pitch: float) -> np.ndarray:
    """Intensity-weighted centroid of the background-subtracted raster in a
    (2r+1)-square window around each rounded seed.

    Every window must lie inside the raster.  A seed whose window holds no
    intensity (possible only for a non-convex plateau) keeps its position.
    """
    r = int(round(_CENTROID_RADIUS * pitch))
    side = 2 * r + 1
    windows = sliding_window_view(raster, (side, side))
    corner = np.rint(seeds).astype(np.intp) - r
    offsets = np.arange(side)
    out = seeds.copy()
    for lo in range(0, len(seeds), _CENTROID_CHUNK):
        x0, y0 = corner[lo:lo + _CENTROID_CHUNK].T
        patch = np.maximum(windows[y0, x0] - background, 0.0)
        total = patch.sum(axis=(1, 2))
        # absolute pixel coordinates as weights keep every sum bit-equal to
        # that of the per-seed reference loop in the tests
        xs = x0[:, None, None] + offsets[None, None, :]
        ys = y0[:, None, None] + offsets[None, :, None]
        moments = np.column_stack([(xs * patch).sum(axis=(1, 2)),
                                   (ys * patch).sum(axis=(1, 2))])
        lit = total > 0.0
        block = out[lo:lo + _CENTROID_CHUNK]
        block[lit] = moments[lit] / total[lit, None]
    return out


def _orient_axes(centers: np.ndarray, start: int, spacing: float):
    """Initial +i and +j lattice steps from the start blob's neighbors.

    Candidates are restricted to well below the diagonal distance (sqrt(2)
    spacing) and the best-aligned candidate per axis wins, so a diagonal
    neighbor can never masquerade as a lattice axis.
    """
    d = centers - centers[start]
    dist = np.hypot(d[:, 0], d[:, 1])
    near = np.flatnonzero((dist > 0.5 * spacing) & (dist < 1.25 * spacing))
    step_i = step_j = None
    best_i = best_j = 45.0
    for k in near:
        ang = math.degrees(math.atan2(d[k, 1], d[k, 0]))
        if abs(ang) < best_i:
            best_i, step_i = abs(ang), d[k]
        if abs(ang - 90.0) < best_j:
            best_j, step_j = abs(ang - 90.0), d[k]
    if step_i is None or step_j is None or best_i > 30.0 or best_j > 30.0:
        raise NoGridFound("cannot orient lattice axes around the central blob")
    return step_i, step_j


def detect_centers(white_image: np.ndarray, expected_pitch: float) -> MicroImageCenters:
    """Detect and label micro-image centers on a white (pure scene) image.

    Blobs are local maxima refined by intensity-weighted centroids.  Seeds
    within ``_CENTROID_RADIUS`` pitch of the border are dropped first: their
    windows would clip, and since rounding is monotone every kept seed's
    (2r+1)-square window lies wholly inside the raster.

    Labels are grown outward from the blob nearest the image center by a
    breadth-first nearest-neighbor walk, so smooth lattice distortion
    (rotation, perspective) is tolerated.  Each labeled blob predicts its four
    neighbors from the local lattice steps it was reached with; the blob
    nearest a prediction, if within ``_ATTACH_RADIUS`` spacing and not yet
    labeled, takes the neighbor's label.  A prediction depends only on its
    parent's position and steps, so one whole BFS frontier is queried at once
    and claims are granted in queue order (+i, -i, +j, -j per parent), the
    first claim on a blob winning; this is the order of a one-at-a-time walk.
    Blobs that a lattice defect gives one label keep the walk's order.
    """
    raster = np.asarray(white_image)
    if raster.ndim != 2:
        raise ValueError("white image must be a single-channel raster")
    if expected_pitch <= 4.0:
        raise ValueError("expected pitch must exceed 4 pixels")
    if min(raster.shape) < 3 * expected_pitch:
        raise ValueError("image too small for the expected pitch")
    # an integer raster stays integer: the percentile, the maximum filter and
    # the window sums below give the same numbers on it, with less memory
    if raster.dtype.kind not in "ui":
        raster = raster.astype(float)

    background = float(np.percentile(raster, _BACKGROUND_PERCENTILE))
    seeds = _blob_candidates(raster, background, expected_pitch)
    # blobs whose centroid window would clip at the border carry biased
    # centroids (truncated discs); drop them before refinement
    margin = _CENTROID_RADIUS * expected_pitch
    h, w = raster.shape
    keep = ((seeds[:, 0] > margin) & (seeds[:, 0] < w - 1 - margin)
            & (seeds[:, 1] > margin) & (seeds[:, 1] < h - 1 - margin))
    seeds = seeds[keep]
    if seeds.shape[0] < 10:
        raise NoGridFound(f"only {seeds.shape[0]} usable blobs found")
    centers = _refine_centroids(raster, background, seeds, expected_pitch)

    tree = cKDTree(centers)
    nn, _ = tree.query(centers, k=2)
    spacing = float(np.median(nn[:, 1]))
    if abs(spacing - expected_pitch) > 0.25 * expected_pitch:
        raise AmbiguousPitch(
            f"median spacing {spacing:.2f} px deviates from expected "
            f"{expected_pitch:.2f} px by more than 25%")

    start = int(np.argmin(np.hypot(centers[:, 0] - (w - 1) / 2,
                                   centers[:, 1] - (h - 1) / 2)))
    step_i, step_j = _orient_axes(centers, start, spacing)

    attach = _ATTACH_RADIUS * spacing
    labels = np.zeros((len(centers), 2), dtype=int)
    labeled = np.zeros(len(centers), dtype=bool)
    labeled[start] = True
    visited = [np.array([start])]
    frontier = visited[0]
    si = np.asarray(step_i, float)[None]
    sj = np.asarray(step_j, float)[None]
    while frontier.size:
        pos = centers[frontier]
        steps = np.stack([si, -si, sj, -sj], axis=1)          # (F, 4, 2)
        dist, m = tree.query((pos[:, None, :] + steps).reshape(-1, 2))
        cand = np.flatnonzero((dist <= attach) & ~labeled[m])
        _, first = np.unique(m[cand], return_index=True)
        claim = cand[np.sort(first)]
        parent, move = np.divmod(claim, 4)
        new = m[claim]
        labeled[new] = True
        labels[new] = labels[frontier[parent]] + _MOVES[move]
        local = centers[new] - pos[parent]
        si = np.where((move == 0)[:, None], local,
                      np.where((move == 1)[:, None], -local, si[parent]))
        sj = np.where((move == 2)[:, None], local,
                      np.where((move == 3)[:, None], -local, sj[parent]))
        frontier = new
        visited.append(new)

    order = np.concatenate(visited)
    return MicroImageCenters(labels[order], centers[order])


def row_slopes(centers: MicroImageCenters) -> list[tuple[int, float]]:
    """Total-least-squares line slope for every row with enough centers.

    Returns (row index j, tangent of the fitted line angle), sorted by j.
    """
    bounds = np.flatnonzero(np.diff(centers.label[:, 1])) + 1
    usable = [(int(label[0, 1]), pixel) for label, pixel in
              zip(np.split(centers.label, bounds), np.split(centers.pixel, bounds))
              if len(pixel) >= 10]
    if len(usable) < 2:
        raise TooFewCenters("need at least 2 rows with 10 or more centers")
    out = []
    for j, pts in usable:
        pts = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts, full_matrices=False)
        vx, vy = vt[0]
        if vx == 0.0:
            raise DegenerateConfiguration(f"row {j} centers are vertical")
        out.append((j, float(vy / vx)))
    return out


def _normalize_2d(pts: np.ndarray):
    mean = pts.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((pts - mean) ** 2, axis=1)))
    s = 1.0 if rms == 0.0 else math.sqrt(2.0) / rms
    T = np.array([[s, 0.0, -s * mean[0]], [0.0, s, -s * mean[1]], [0.0, 0.0, 1.0]])
    return (pts - mean) * s, T


@dataclass(frozen=True, slots=True)
class RectificationFit:
    """8-dof rectifying homography with its fit diagnostics."""

    homography: np.ndarray     # 3x3, h33 = 1
    fitted_pitch: float        # px, median adjacent-label spacing
    rms: float                 # px, residual to the ideal grid after mapping


def _fitted_pitch(centers: MicroImageCenters) -> float:
    by_label = dict(zip(map(tuple, centers.label.tolist()), centers.pixel.tolist()))
    spacings = []
    for (i, j), xy in by_label.items():
        for nb in ((i + 1, j), (i, j + 1)):
            if nb in by_label:
                spacings.append(math.hypot(by_label[nb][0] - xy[0],
                                           by_label[nb][1] - xy[1]))
    if not spacings:
        return 0.0
    return float(np.median(spacings))


def estimate_rectifying_homography(centers: MicroImageCenters) -> RectificationFit:
    """Fit the homography mapping detected centers to the ideal uniform grid.

    The grid pitch is the median adjacent-label center spacing.
    Normalized DLT; the result is scaled so h33 = 1.
    """
    if len(centers) < 5:
        raise TooFewCenters(f"need at least 5 centers, got {len(centers)}")
    if np.ptp(centers.label, axis=0).min() == 0:
        raise DegenerateConfiguration("centers must span at least 2 rows and columns")

    p = _fitted_pitch(centers)
    if p == 0.0:
        raise DegenerateConfiguration("no adjacent labels to fit a pitch from")

    src = centers.pixel
    dst = centers.label * p
    # the lattice origin is free; anchoring it at the mean label offset keeps
    # the homography near identity and independent of the labeling reference
    dst += (src - dst).mean(axis=0)
    sn, Ts = _normalize_2d(src)
    dn, Td = _normalize_2d(dst)
    n = len(centers)
    A = np.zeros((2 * n, 9))
    A[0::2, 0:2] = -sn
    A[0::2, 2] = -1.0
    A[0::2, 6:8] = dn[:, 0:1] * sn
    A[0::2, 8] = dn[:, 0]
    A[1::2, 3:5] = -sn
    A[1::2, 5] = -1.0
    A[1::2, 6:8] = dn[:, 1:2] * sn
    A[1::2, 8] = dn[:, 1]
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-2] < _DLT_RANK_TOL * s[0]:
        raise DegenerateConfiguration("homography system is rank deficient")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ Hn @ Ts
    if abs(H[2, 2]) < 1e-12 * np.abs(H).max():
        raise DegenerateConfiguration("homography has a vanishing scale entry")
    H = H / H[2, 2]
    mapped = apply_homography(src, H)
    rms = float(np.sqrt(np.mean(np.sum((mapped - dst) ** 2, axis=1))))
    return RectificationFit(H, p, rms)


def apply_homography(points: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Map (N, 2) points through a 3x3 homography with dehomogenization."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    hom = np.column_stack([pts, np.ones(len(pts))]) @ np.asarray(H, float).T
    scale = np.linalg.norm(hom, axis=1)
    bad = np.abs(hom[:, 2]) < 1e-14 * scale
    if np.any(bad):
        raise PointAtInfinity(f"{int(bad.sum())} point(s) map to the line at infinity")
    return hom[:, :2] / hom[:, 2:3]


def rectify_observations(table: Observations | MicroImageCenters, H: np.ndarray
                         ) -> Observations | MicroImageCenters:
    """Map the pixel column of an observation or center table through the
    rectifying homography; every other column is kept.
    """
    return replace(table, pixel=apply_homography(table.pixel, H))


# --- PGM (binary P5) rasters --------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write an 8-bit or 16-bit single-channel raster as binary PGM (P5)."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        maxval, payload = 255, img.tobytes()
    elif img.dtype == np.uint16:
        maxval, payload = 65535, img.astype(">u2").tobytes()
    else:
        raise ValueError(f"PGM rasters must be uint8 or uint16, got {img.dtype}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) raster as uint8 or uint16."""
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise ValueError(f"{path} is not a binary PGM file")
    width, height, maxval = (int(g) for g in m.groups())
    body = data[m.end():]
    if maxval < 256:
        img = np.frombuffer(body, dtype=np.uint8, count=width * height)
    elif maxval < 65536:
        img = np.frombuffer(body, dtype=">u2", count=width * height).astype(np.uint16)
    else:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    return img.reshape(height, width).copy()
