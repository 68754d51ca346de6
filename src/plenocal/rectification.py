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

_PEAK_FRACTION = 0.2          # local maxima below this fraction of peak are noise
_BACKGROUND_PERCENTILE = 20.0
# window must stay inside the micro-image's Voronoi cell: at 0.6 pitch the
# neighbors' tails pull centroids off by ~0.1 px
_CENTROID_RADIUS = 0.45
_ATTACH_RADIUS = 0.35         # lattice walk: max deviation from predicted site
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])  # +i, -i, +j, -j
_WINDOW_CHUNK = 1024          # raster windows gathered per batch
_CENTROID_PIXELS = 1 << 18    # centroid window pixels gathered per batch
_BLOCK_PIXELS = 1 << 16       # raster pixels compared per batch
_SAMPLE = 1 << 14             # pixels sampled to bracket a percentile
_QUERY_CHUNK = 1 << 12        # nearest-point queries per batch
_PAIR_CHUNK = 1 << 16         # (query, point) pairs measured per batch
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


def _percentile(raster: np.ndarray, q: float) -> float:
    """``np.percentile(raster, q)`` (linear interpolation), without the copy
    of the whole raster that it partitions.

    The two order statistics it interpolates are bracketed by values of a
    spread sample of pixels; one pass counts the pixels below, at and above
    the bracket's ends, and only the pixels strictly inside it are copied and
    partitioned.  A bracket that misses either statistic is replaced by the
    raster's full range.  The interpolation repeats numpy's steps and types.
    """
    n = raster.size
    virtual = (n - 1) * (q / 100)
    k = int(virtual)
    gamma = virtual - k
    ranks = (k, min(k + 1, n - 1))
    w = raster.shape[1]
    m = min(n, _SAMPLE)
    # a Weyl sequence of flat indices: spread, and not aliased with a lattice
    flat = np.arange(m) * int(0.6180339887498949 * n) % n
    sample = np.sort(raster[flat // w, flat % w])
    at = k * m // n
    margin = 4 * math.isqrt(m) + 2
    step = max(1, _BLOCK_PIXELS // w)
    blocks = [raster[r:r + step] for r in range(0, raster.shape[0], step)]
    for lo, hi in ((sample[max(at - margin, 0)], sample[min(at + margin, m - 1)]),
                   (raster.min(), raster.max())):
        below = at_lo = under_hi = upto_hi = 0
        for b in blocks:
            below += np.count_nonzero(b < lo)
            at_lo += np.count_nonzero(b <= lo)
            under_hi += np.count_nonzero(b < hi)
            upto_hi += np.count_nonzero(b <= hi)
        if below <= ranks[0] and ranks[1] < upto_hi:
            break
    # ranks [below, at_lo) hold lo, [under_hi, upto_hi) hold hi, the rest of
    # the bracket the pixels strictly between them
    inside = [r - at_lo for r in ranks if at_lo <= r < under_hi]
    if inside:
        between = np.concatenate([b[(b > lo) & (b < hi)] for b in blocks])
        between.partition(inside)
    a, b = (lo if r < at_lo else hi if r >= under_hi else between[r - at_lo]
            for r in ranks)
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


def _blob_candidates(raster: np.ndarray, background: float, pitch: float) -> np.ndarray:
    """Local-maximum blob seeds as (N, 2) pixel coordinates (x, y).

    A seed is the mean position of one 4-connected plateau of pixels that
    equal the maximum of their square window of about 0.7 pitch, clipped to
    the raster, and rise above ``_PEAK_FRACTION`` of the peak over the
    background.  Seeds come in raster order of their plateau's first pixel.

    Only pixels that clear a brightness bound and are no lower than their four
    neighbours are kept from the full raster; the exact brightness test, the
    window test and the plateau labelling run on those alone.  A smooth disc
    leaves about one such pixel; read noise leaves one per noise bump on its
    bright top, which a 5-pixel window drops before the full one, and clipping
    leaves its whole top, whose windows are never gathered (see
    ``_window_tops``) and whose rows are labelled as runs.
    """
    top = raster.max()
    peak = max(float(top) - background, 0.0)
    if peak <= 0.0:
        return np.empty((0, 2))
    floor = _PEAK_FRACTION * peak
    # every v with v - background > floor is at least this bound, whatever
    # the rounding of the sum; an integer raster compares with an integer bound
    bound = background + floor
    bound -= 2.0 * np.spacing(abs(bound))
    if raster.dtype.kind in "ui":
        info = np.iinfo(raster.dtype)
        bound = raster.dtype.type(min(max(math.floor(bound), info.min), info.max))
    cand = raster >= bound
    cand[:, 1:] &= raster[:, 1:] >= raster[:, :-1]
    cand[:, :-1] &= raster[:, :-1] >= raster[:, 1:]
    cand[1:] &= raster[1:] >= raster[:-1]
    cand[:-1] &= raster[:-1] >= raster[1:]
    lin = np.flatnonzero(cand)
    del cand
    flat = raster.ravel()
    lin = lin[flat[lin] - background > floor]

    # window maxima; a 5-pixel window first drops most maxima of sensor
    # noise at a twenty-fifth of the full window's gathers
    size = max(3, int(round(pitch * 0.7)) | 1)
    for side in sorted({min(5, size), size}):
        lin = lin[_window_tops(flat, raster.shape, lin, side, top)]
    if lin.size == 0:
        return np.empty((0, 2))

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


def _window_tops(flat: np.ndarray, shape: tuple, lin: np.ndarray, side: int,
                 top) -> np.ndarray:
    """Which of the indices ``lin`` into the raveled raster ``flat`` of the
    given shape hold the maximum of their side x side window.

    Clipping the window to the raster gives maximum_filter's reflected-border
    maximum.  A pixel at the raster's maximum ``top`` tops every window, so
    the windows of saturated plateaus, where every pixel is a candidate, are
    never gathered.
    """
    h, w = shape
    offsets = np.arange(side) - side // 2
    tops = np.ones(lin.size, dtype=bool)
    below = np.flatnonzero(flat[lin] < top)
    for lo in range(0, below.size, _WINDOW_CHUNK):
        k = below[lo:lo + _WINDOW_CHUNK]
        ys, xs = np.divmod(lin[k], w)
        rows = np.clip(ys[:, None] + offsets, 0, h - 1) * w
        cols = np.clip(xs[:, None] + offsets, 0, w - 1)
        window = flat[rows[:, :, None] + cols[:, None, :]]
        tops[k] = window.max(axis=(1, 2)) <= flat[lin[k]]
    return tops


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


class _CellGrid:
    """Exact nearest-point queries on a fixed set of N >= 1 points (x, y).

    The points are bucketed into square cells and sorted by cell in row-major
    order, with each cell's start offset (CSR form).  The cell side is the
    root of the bounding box's area per point, or its longer extent per point
    if that is larger, so a cell holds about one point on average at any
    density.  A query searches the 2 x 2 cells nearest it, then the 4 x 4,
    8 x 8, ... cells, until the nearest point found is no farther than the
    nearest edge of the block with grid cells beyond it.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        self.origin = points.min(axis=0)
        extent = points.max(axis=0) - self.origin
        n = len(points)
        side = max(math.sqrt(extent[0] * extent[1] / n), extent.max() / n)
        self.side = side if side > 0.0 else 1.0
        cell = np.floor((points - self.origin) / self.side).astype(np.intp)
        self.shape = cell.max(axis=0) + 1                  # cells along x, y
        key = cell[:, 1] * self.shape[0] + cell[:, 0]
        self.order = np.argsort(key, kind="stable")
        self.points = points[self.order]
        self.start = np.searchsorted(key[self.order], np.arange(self.shape.prod() + 1))

    def nearest(self, queries: np.ndarray, bound: float = math.inf,
                skip_self: bool = False):
        """Distance to and index of each query's nearest point, the lowest
        index among equally near ones; distance inf and index N where no
        point lies within ``bound`` (inclusive).  With ``skip_self`` query k
        is point k, which is passed over, as cKDTree's second neighbour."""
        q = np.asarray(queries, dtype=float).reshape(-1, 2)
        dist = np.full(len(q), np.inf)
        index = np.full(len(q), len(self.order))
        for first in range(0, len(q), _QUERY_CHUNK):
            pending = np.arange(first, min(first + _QUERY_CHUNK, len(q)))
            reach = 1
            while pending.size:
                u = (q[pending] - self.origin) / self.side   # in cells
                lo = np.floor(u + 0.5).astype(np.intp) - reach
                hi = lo + 2 * reach
                # cells from the query to the block's nearest edge with grid
                # cells beyond it: every point outside the block lies farther
                gap = np.minimum(np.where(lo > 0, u - lo, np.inf),
                                 np.where(hi < self.shape, hi - u, np.inf)).min(axis=1)
                d, m = self._search_blocks(q[pending], lo, hi,
                                           pending if skip_self else None)
                # the margin covers the rounding of the cell coordinates
                done = np.minimum(d, bound) <= (gap - 1e-9) * self.side
                found = done & (d <= bound) & np.isfinite(d)
                dist[pending[found]] = d[found]
                index[pending[found]] = m[found]
                pending = pending[~done]
                reach *= 2
        return dist, index

    def _search_blocks(self, q, lo, hi, skip):
        """Nearest point to each query among the cells [lo, hi) of its block,
        as (distance, index); (inf, N) for an empty block.  Queries go in
        batches of about ``_PAIR_CHUNK`` (query, point) pairs."""
        nx, ny = self.shape
        n = len(self.order)
        x0, x1 = np.clip(lo[:, 0], 0, nx), np.clip(hi[:, 0], 0, nx)
        y0, y1 = np.clip(lo[:, 1], 0, ny), np.clip(hi[:, 1], 0, ny)
        # one run of sorted points per (query, cell row) of its block
        rows = np.where(x1 > x0, y1 - y0, 0)
        owner = np.repeat(np.arange(len(q)), rows)
        row = y0[owner] + np.arange(owner.size) - np.repeat(np.cumsum(rows) - rows, rows)
        first = self.start[row * nx + x0[owner]]
        count = self.start[row * nx + x1[owner]] - first
        run_end = np.cumsum(rows)
        pairs = np.cumsum(np.bincount(owner, weights=count, minlength=len(q)))
        d2 = np.full(len(q), np.inf)
        m = np.full(len(q), n)
        a = 0
        while a < len(q):
            before = pairs[a - 1] if a else 0.0
            b = max(a + 1, int(np.searchsorted(pairs, before + _PAIR_CHUNK, side="right")))
            r0, r1 = (run_end[a - 1] if a else 0), run_end[b - 1]
            f, c = first[r0:r1], count[r0:r1]
            pos = np.arange(c.sum()) + np.repeat(f - (np.cumsum(c) - c), c)
            who = np.repeat(owner[r0:r1], c)
            a = b
            if pos.size == 0:
                continue
            dx = self.points[pos, 0] - q[who, 0]
            dy = self.points[pos, 1] - q[who, 1]
            pd2 = dx * dx + dy * dy
            idx = self.order[pos]
            if skip is not None:
                pd2[idx == skip[who]] = np.inf
            cut = np.flatnonzero(np.r_[True, who[1:] != who[:-1]])
            best = np.minimum.reduceat(pd2, cut)
            tied = pd2 == np.repeat(best, np.diff(np.r_[cut, who.size]))
            d2[who[cut]] = best
            m[who[cut]] = np.minimum.reduceat(np.where(tied, idx, n), cut)
        return np.sqrt(d2), m


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
    # an integer raster stays integer: the percentile, the window maxima and
    # the window sums below give the same numbers on it, with less memory
    if raster.dtype.kind not in "ui":
        raster = raster.astype(float)
        bad = raster.size - np.count_nonzero(np.isfinite(raster))
        if bad:
            raise ValueError(f"white image holds {bad} non-finite pixel(s)")

    background = _percentile(raster, _BACKGROUND_PERCENTILE)
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

    grid = _CellGrid(centers)
    spacing = float(np.median(grid.nearest(centers, skip_self=True)[0]))
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
        dist, m = grid.nearest((pos[:, None, :] + steps).reshape(-1, 2), attach)
        cand = np.flatnonzero(dist <= attach)
        cand = cand[~labeled[m[cand]]]
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
