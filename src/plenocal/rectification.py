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

from .errors import (AmbiguousPitch, DegenerateConfiguration, NoGridFound,
                     PointAtInfinity, TooFewCenters)
from .projection import Observations

# a neighbour whose peak rises above the background by no more than this
# fraction of its parent's peak is noise; a patch seed, of the patch's peak.
# Relative to the parent, the test follows vignetting across the sensor
_PEAK_FRACTION = 0.2
_BACKGROUND_PERCENTILE = 20.0
_PATCH_PITCHES = 8            # side of the central seed patch, in pitches
# window must stay inside the micro-image's Voronoi cell: at 0.6 pitch the
# neighbors' tails pull centroids off by ~0.1 px
_CENTROID_RADIUS = 0.45
_ATTACH_RADIUS = 0.35         # lattice walk: max deviation from predicted site
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])  # +i, -i, +j, -j
_CENTROID_PIXELS = 1 << 18    # centroid window pixels gathered per batch
_NEAREST_PAIRS = 1 << 18      # (query, point) distances taken per batch
_DLT_RANK_TOL = 1e-8


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


def _blob_candidates(raster: np.ndarray, background: float, pitch: float) -> np.ndarray:
    """Local-maximum blob seeds as (N, 2) pixel coordinates (x, y).

    A seed is the mean position of one 4-connected plateau of pixels that
    equal the maximum of their square window of about 0.7 pitch, clipped to
    the raster, and rise above ``_PEAK_FRACTION`` of the peak over the
    background.  Seeds come in raster order of their plateau's first pixel.
    """
    peak = max(float(raster.max()) - background, 0.0)
    if peak <= 0.0:
        return np.empty((0, 2))
    r = max(3, int(round(pitch * 0.7)) | 1) // 2
    # edge padding makes each window the one clipped to the raster, whose
    # maximum is maximum_filter's with reflected borders
    top = np.pad(raster, r, mode="edge")
    for axis in (0, 1):
        top = sliding_window_view(top, 2 * r + 1, axis=axis).max(axis=-1)
    lin = np.flatnonzero((raster == top) & (raster - background > _PEAK_FRACTION * peak))

    # plateaus: runs of kept pixels along a row, joined where a run overlaps
    # one of the next row.  Numbering them by their first run, which holds
    # their first pixel in raster order, is ndimage.label's numbering, and
    # coordinate sums are integers, so the means are exact
    w = raster.shape[1]
    ys, xs = np.divmod(lin, w)
    opens = np.ones(lin.size, dtype=bool)
    opens[1:] = (lin[1:] != lin[:-1] + 1) | (xs[1:] == 0)
    first = np.flatnonzero(opens)
    start, end = lin[first], lin[np.append(first[1:], lin.size) - 1]
    # no run crosses a row, so the runs that overlap run r one row down are
    # those from lo[r] (the first to end at or past r's start) to hi[r] - 1
    # (the last to start at or before r's end)
    lo = np.searchsorted(end, start + w)
    hi = np.searchsorted(start, end + w, side="right")
    links = hi - lo
    a = np.repeat(np.arange(first.size), links)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(links) - links), links)
    _, plateau = np.unique(_component_roots(first.size, a, b), return_inverse=True)
    plateau = plateau[np.cumsum(opens) - 1]
    n = np.bincount(plateau)
    return np.column_stack([np.bincount(plateau, weights=xs) / n,
                            np.bincount(plateau, weights=ys) / n])


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for n nodes
    joined by the undirected edges (a[k], b[k]).

    Every node points at a smaller or equal node of its component.  Each
    round hooks every root that an edge joins to a smaller root under the
    smallest such root, then shortcuts every pointer to its root.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _refine_centroids(raster: np.ndarray, background: float, seeds: np.ndarray,
                      pitch: float) -> np.ndarray:
    """Intensity-weighted centroid of the background-subtracted raster in a
    (2r+1)-square window around each rounded seed.

    Every window must lie inside the raster.  A seed whose window holds no
    intensity (possible only for a non-convex plateau) keeps its position.
    The moments are taken from each window's row and column sums.  On an
    integer raster with an integral background every partial sum is an exact
    integer below 2**53, so the centroids do not depend on the order of the
    sums.
    """
    r = int(round(_CENTROID_RADIUS * pitch))
    side = 2 * r + 1
    windows = sliding_window_view(raster, (side, side))
    corner = np.rint(seeds).astype(np.intp) - r
    offsets = np.arange(side, dtype=float)
    chunk = max(1, _CENTROID_PIXELS // (side * side))
    out = seeds.copy()
    for lo in range(0, len(seeds), chunk):
        x0, y0 = corner[lo:lo + chunk].T
        patch = windows[y0, x0] - background
        np.maximum(patch, 0.0, out=patch)
        cols, rows = patch.sum(axis=1), patch.sum(axis=2)
        total = cols.sum(axis=1)
        moments = np.column_stack([x0 * total + cols @ offsets,
                                   y0 * total + rows @ offsets])
        lit = total > 0.0
        block = out[lo:lo + chunk]
        block[lit] = moments[lit] / total[lit, None]
    return out


def _nearest(points: np.ndarray, queries: np.ndarray, bound: float = math.inf,
             skip_self: bool = False):
    """Distance to and index of each query's nearest point, by brute force:
    the lowest index among equally near ones, and distance inf and index N
    where no point lies within ``bound`` (inclusive).  With ``skip_self``
    query k is point k, which is passed over, as cKDTree's second neighbour.
    Queries go in batches of about ``_NEAREST_PAIRS`` (query, point) pairs,
    so a patch crowded with seeds cannot build an N x N distance matrix.
    """
    n = len(points)
    dist = np.full(len(queries), np.inf)
    index = np.full(len(queries), n)
    chunk = max(1, _NEAREST_PAIRS // max(n, 1))
    for lo in range(0, len(queries) if n else 0, chunk):
        dx = points[:, 0] - queries[lo:lo + chunk, :1]
        dy = points[:, 1] - queries[lo:lo + chunk, 1:]
        d2 = dx * dx + dy * dy
        if skip_self:
            rows = np.arange(len(d2))
            d2[rows, rows + lo] = np.inf
        m = d2.argmin(axis=1)
        d = np.sqrt(d2[np.arange(len(d2)), m])
        near = np.isfinite(d) & (d <= bound)
        dist[lo:lo + chunk][near] = d[near]
        index[lo:lo + chunk][near] = m[near]
    return dist, index


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


def _peaks(raster: np.ndarray, points: np.ndarray, radius: float):
    """The brightest pixels within ``radius`` of each point (x, y): their
    mean position as (N, 2) coordinates (x, y), which is a clipped disc top's
    center, and their (N,) value as floats.  Pixels off the raster are not
    searched; a point with none in reach gets the lowest value of the
    raster's dtype.
    """
    h, w = raster.shape
    reach = int(radius) + 1
    side = 2 * reach + 1
    offsets = np.arange(side)
    # a window moved inside the raster still holds every pixel of the raster
    # within reach of its point
    x0 = np.clip(np.rint(points[:, 0]).astype(np.intp) - reach, 0, w - side)
    y0 = np.clip(np.rint(points[:, 1]).astype(np.intp) - reach, 0, h - side)
    dx2 = (x0[:, None] + offsets - points[:, :1]) ** 2                 # (N, S)
    room = radius * radius - (y0[:, None] + offsets - points[:, 1:]) ** 2
    window = sliding_window_view(raster, (side, side))[y0, x0]         # (N, S, S)
    lowest = -np.inf if raster.dtype.kind == "f" else np.iinfo(raster.dtype).min
    np.putmask(window, dx2[:, None, :] > room[:, :, None], lowest)
    top = window.max(axis=(1, 2))
    at = window == top[:, None, None]
    n = at.sum(axis=(1, 2))
    mean = np.column_stack([x0 + at.sum(axis=1) @ offsets / n,
                            y0 + at.sum(axis=2) @ offsets / n])
    return mean, top.astype(float)


def detect_centers(white_image: np.ndarray, expected_pitch: float) -> MicroImageCenters:
    """Detect and label micro-image centers on a white (pure scene) image.

    Only a central patch of ``_PATCH_PITCHES`` pitches square is searched in
    full.  Its local maxima, refined by intensity-weighted centroids, give the
    background percentile, the median nearest-center spacing and the start
    blob, the one nearest the image center.  Seeds within
    ``_CENTROID_RADIUS`` pitch of the raster border are dropped first: their
    windows would clip, and since rounding is monotone every kept seed's
    (2r+1)-square window lies wholly inside the raster.

    Labels are grown outward from the start blob by a breadth-first lattice
    walk, so smooth lattice distortion (rotation, perspective) is tolerated.
    Each labelled blob predicts its four neighbours from the local lattice
    steps it was reached with.  A prediction depends only on its parent's
    position and steps, so a whole BFS frontier predicts at once, and the
    first claim on each label not yet held, in queue order (+i, -i, +j, -j per
    parent) is confirmed in place: the brightest pixels within
    ``_ATTACH_RADIUS`` spacing of the predicted site must rise above the
    background by more than ``_PEAK_FRACTION`` of its parent's peak, their
    mean must lie outside the border margin, and the centroid of the window
    on that mean must lie within the same radius of the site.  A confirmed
    claim takes the label unless an earlier claim holds the pixel its window
    sits on, so each label and each such pixel holds at most one blob.
    Beyond the patch the raster is read only in these windows.
    """
    raster = np.asarray(white_image)
    if raster.ndim != 2:
        raise ValueError("white image must be a single-channel raster")
    if not math.isfinite(expected_pitch):
        raise ValueError(f"expected pitch must be finite, got {expected_pitch}")
    if expected_pitch <= 4.0:
        raise ValueError("expected pitch must exceed 4 pixels")
    if min(raster.shape) < 3 * expected_pitch:
        raise ValueError("image too small for the expected pitch")
    # an integer raster stays integer: the percentile, the window maxima and
    # the window sums below give the same numbers on it, with less memory
    if raster.dtype.kind not in "ui":
        raster = raster.astype(float)
        bad = raster.size - np.count_nonzero(np.isfinite(raster))
        if bad:
            raise ValueError(f"white image holds {bad} non-finite pixel(s)")

    h, w = raster.shape
    half = int(round(_PATCH_PITCHES * expected_pitch / 2))
    y0, x0 = max(h // 2 - half, 0), max(w // 2 - half, 0)
    patch = raster[y0:h // 2 + half + 1, x0:w // 2 + half + 1]
    background = float(np.percentile(patch, _BACKGROUND_PERCENTILE))
    seeds = _blob_candidates(patch, background, expected_pitch) + (x0, y0)
    # blobs whose centroid window would clip at the border carry biased
    # centroids (truncated discs); drop them before refinement
    margin = _CENTROID_RADIUS * expected_pitch
    keep = ((seeds[:, 0] > margin) & (seeds[:, 0] < w - 1 - margin)
            & (seeds[:, 1] > margin) & (seeds[:, 1] < h - 1 - margin))
    seeds = seeds[keep]
    if seeds.shape[0] < 10:
        raise NoGridFound(f"only {seeds.shape[0]} usable blobs found")
    centers = _refine_centroids(raster, background, seeds, expected_pitch)

    spacing = float(np.median(_nearest(centers, centers, skip_self=True)[0]))
    if abs(spacing - expected_pitch) > 0.25 * expected_pitch:
        raise AmbiguousPitch(
            f"median spacing {spacing:.2f} px deviates from expected "
            f"{expected_pitch:.2f} px by more than 25%")

    start = int(_nearest(centers, np.array([[(w - 1) / 2, (h - 1) / 2]]))[1][0])
    step_i, step_j = _orient_axes(centers, start, spacing)

    attach = _ATTACH_RADIUS * spacing
    pos = centers[[start]]
    label = np.zeros((1, 2), dtype=np.int64)
    peak, value = _peaks(raster, pos, attach)
    height = value - background
    # labels and peak pixels held by a blob, each as one integer
    held_labels, held_peaks = {0}, {int(np.rint(peak[0, 1]) * w + np.rint(peak[0, 0]))}
    found = [(label, pos)]
    si = np.asarray(step_i, float)[None]
    sj = np.asarray(step_j, float)[None]
    while len(pos):
        steps = np.stack([si, -si, sj, -sj], axis=1)          # (F, 4, 2)
        sites = (pos[:, None, :] + steps).reshape(-1, 2)
        names = (label[:, None, :] + _MOVES).reshape(-1, 2)
        codes = ((names[:, 0] << 32) + names[:, 1]).tolist()
        first = {}
        for k, code in enumerate(codes):
            if code not in held_labels:
                first.setdefault(code, k)
        claim = np.fromiter(first.values(), np.intp, len(first))
        peak, value = _peaks(raster, sites[claim], attach)
        # a peak whose centroid window would clip at the border is a
        # truncated disc, dropped like a seed there
        keep = ((value - background > _PEAK_FRACTION * height[claim // 4])
                & (peak > margin).all(axis=1)
                & (peak < (w - 1 - margin, h - 1 - margin)).all(axis=1))
        claim, peak, value = claim[keep], peak[keep], value[keep]
        blob = _refine_centroids(raster, background, peak, expected_pitch)
        # a peak is known by the pixel its centroid window sits on
        lin = (np.rint(peak[:, 1]) * w + np.rint(peak[:, 0])).astype(np.int64).tolist()
        granted = []
        for k in np.flatnonzero(np.hypot(*(blob - sites[claim]).T) <= attach).tolist():
            if lin[k] not in held_peaks:
                held_peaks.add(lin[k])
                held_labels.add(codes[claim[k]])
                granted.append(k)
        claim, value, blob = claim[granted], value[granted], blob[granted]
        parent, move = np.divmod(claim, 4)
        local = blob - pos[parent]
        si = np.where((move == 0)[:, None], local,
                      np.where((move == 1)[:, None], -local, si[parent]))
        sj = np.where((move == 2)[:, None], local,
                      np.where((move == 3)[:, None], -local, sj[parent]))
        pos, label, height = blob, names[claim], value - background
        found.append((label, pos))

    labels, pixels = zip(*found)
    return MicroImageCenters(np.concatenate(labels), np.concatenate(pixels))


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
        maxval, payload = 255, np.ascontiguousarray(img)
    elif img.dtype == np.uint16:
        maxval, payload = 65535, img.astype(">u2")
    else:
        raise ValueError(f"PGM rasters must be uint8 or uint16, got {img.dtype}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) raster as uint8 or uint16.

    Raises ValueError, naming the file, unless it is a P5 file with a maxval
    from 1 to 65535 and at least width x height samples."""
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise ValueError(f"{path} is not a binary PGM file")
    width, height, maxval = (int(g) for g in m.groups())
    if not 0 < maxval < 65536:
        raise ValueError(f"{path} has unsupported PGM maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    count = width * height
    if len(data) - m.end() < count * dtype.itemsize:
        raise ValueError(f"{path} holds fewer than {width} x {height} samples")
    img = np.frombuffer(data, dtype=dtype, count=count, offset=m.end())
    # one copy, which also gives native byte order and a writable array
    return img.astype(np.uint16 if maxval > 255 else np.uint8).reshape(height, width)
