"""Forward projection of world points into raw-image pixels.

The calibrated camera is a TPP coordinate in scene space: a board point is
moved into that frame by a rigid pose, joined to the (distorted) u-v point of
a micro-lens, and the connecting line is intersected with the x-y plane.  The
intersection, after its own radial distortion, divides by the x-y plane scale
to give raw-image pixel coordinates.

``project_pixels`` evaluates the whole chain for a batch of observations and
can return the analytic Jacobian with respect to every model parameter.  The
Jacobian is component-major: one (m + 6, 2, N) array whose row c holds the
derivative of both pixel coordinates of every observation wrt parameter c,
m intrinsics first, then the six (rvec, tvec) components of each
observation's own pose.  Every factor of the chain is computed as a
contiguous vector over the observations (or over the sites and lenses, then
gathered), so no small per-observation matrix product is formed, and the
refinement's normal equations are BLAS products over its rows.  The
refinement stage depends on that Jacobian matching finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindPlane, MissingReference
from .rotation import rodrigues_matrices, rotation_basis_jacobians
from .tpp import TppParams

_PLANE_TOL = 1e-12      # |Z_c - f| threshold (relative to max(1, |f|))

# intrinsic parameter slots used by the Jacobian column layout
INTRINSIC_NAMES = ("k_xy", "k_uv", "u_0", "v_0", "f", "s1", "s2", "t1", "t2")


@dataclass(frozen=True, slots=True)
class DistortionParams:
    """Two-plane radial distortion: (s1, s2) on x-y, (t1, t2) on u-v.

    A point p maps to (p - c)(1 + d1 r^2 + d2 r^4) + c about its plane's
    center c, with r = |p - c|; zero coefficients leave p in place, up to
    rounding, whatever the centers.
    """

    s1: float = 0.0
    s2: float = 0.0
    t1: float = 0.0
    t2: float = 0.0
    x_c: float = 0.0
    y_c: float = 0.0
    u_c: float = 0.0
    v_c: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.s1, self.s2, self.t1, self.t2,
                self.x_c, self.y_c, self.u_c, self.v_c)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"distortion parameters must be finite, got {vals}")


def apply_pose(pose: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(N, 3) points moved by one [rvec | tvec] pose row: R(rvec) p + tvec."""
    return np.atleast_2d(points) @ rodrigues_matrices(pose[:3])[0].T + pose[3:]


@dataclass(frozen=True, eq=False)
class Observations:
    """Observations as one table of columns, one row per detected projection
    of a board point under a micro-lens.

    ``pose`` and ``point`` are (N,) integer ids, ``lens`` the (N, 2) integer
    labels (i, j) and ``pixel`` the (N, 2) raw-image coordinates.
    Construction sorts the rows by (pose, point, lens_i, lens_j) with a
    stable sort; every consumer relies on that order, and residuals come out
    in it.
    """

    pose: np.ndarray
    point: np.ndarray
    lens: np.ndarray
    pixel: np.ndarray

    def __post_init__(self) -> None:
        pose = np.asarray(self.pose, dtype=np.int64).reshape(-1)
        point = np.asarray(self.point, dtype=np.int64).reshape(-1)
        lens = np.asarray(self.lens, dtype=np.int64).reshape(-1, 2)
        pixel = np.asarray(self.pixel, dtype=float).reshape(-1, 2)
        if not len(pose) == len(point) == len(lens) == len(pixel):
            raise ValueError(
                f"observation columns differ in length: pose {len(pose)}, point "
                f"{len(point)}, lens {len(lens)}, pixel {len(pixel)}")
        order = np.lexsort((lens[:, 1], lens[:, 0], point, pose))
        for name, column in (("pose", pose), ("point", point), ("lens", lens),
                             ("pixel", pixel)):
            object.__setattr__(self, name, column[order])

    def __len__(self) -> int:
        return len(self.pose)

    def __getitem__(self, rows) -> "Observations":
        """The observations of the selected rows (a slice, mask or indices)."""
        return Observations(self.pose[rows], self.point[rows], self.lens[rows],
                            self.pixel[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observations):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("pose", "point", "lens", "pixel"))


def _radial(d0: np.ndarray, d1: np.ndarray, k1: float, k2: float):
    """r^2, g = 1 + k1 r^2 + k2 r^4 and g' = dg/d(r^2) of the offsets (d0, d1)
    of points from their distortion center."""
    r2 = d0 * d0 + d1 * d1
    return r2, 1.0 + k1 * r2 + k2 * r2 * r2, k1 + 2.0 * k2 * r2


def _radial_jacobian(d0: np.ndarray, d1: np.ndarray, g: np.ndarray, gp: np.ndarray):
    """Entries (j00, j01, j11) of the symmetric 2x2 Jacobian of the radial
    distortion d g(r^2) + c wrt the undistorted point."""
    return g + 2.0 * d0 * d0 * gp, 2.0 * d0 * d1 * gp, g + 2.0 * d1 * d1 * gp


@dataclass
class ProjectionBatch:
    """Inputs for a batch projection, factored by the structure of the data.

    A site is one (pose, board point) pair.  Observation n sees the point of
    site ``site[n]`` through the micro-lens ``labels[lens[n]]``, so the rigid
    motion is computed once per site and the u-v side once per lens.
    """

    points_w: np.ndarray          # (S, 3) board point of each site, TPP length units
    site_pose: np.ndarray         # (S,) index into rvecs/tvecs
    labels: np.ndarray            # (L, 2) micro-lens labels (float ok)
    site: np.ndarray              # (N,) site of each observation
    lens: np.ndarray              # (N,) index into labels of each observation
    rvecs: np.ndarray             # (P, 3)
    tvecs: np.ndarray             # (P, 3)

    def __post_init__(self) -> None:
        self.points_w = np.atleast_2d(np.asarray(self.points_w, dtype=float))
        self.site_pose = np.asarray(self.site_pose, dtype=int).reshape(-1)
        self.labels = np.atleast_2d(np.asarray(self.labels, dtype=float))
        self.site = np.asarray(self.site, dtype=int).reshape(-1)
        self.lens = np.asarray(self.lens, dtype=int).reshape(-1)
        self.rvecs = np.atleast_2d(np.ascontiguousarray(self.rvecs, dtype=float))
        self.tvecs = np.atleast_2d(np.ascontiguousarray(self.tvecs, dtype=float))

    @property
    def pose_index(self) -> np.ndarray:
        """(N,) index into rvecs/tvecs of each observation."""
        return self.site_pose[self.site]

    @property
    def lenses(self) -> np.ndarray:
        """(N, 2) micro-lens label of each observation."""
        return self.labels[self.lens]


def project_pixels(batch: ProjectionBatch, tpp: TppParams, dist: DistortionParams,
                   *, jacobian: bool = False, optimize_centers: bool = False):
    """Project a batch of board points to raw-image pixels.

    Returns ``pixels`` of shape (N, 2), or ``(pixels, J)`` when ``jacobian``
    is set.  ``J`` is component-major, one (m + 6, 2, N) array and never a
    dense 2N x (m + 6P) one: ``J[c, a, n]`` is the derivative of pixel
    coordinate a (x, y) of observation n wrt parameter c.  The first m = 9
    rows are the intrinsics (k_xy, k_uv, u_0, v_0, f, s1, s2, t1, t2), then,
    with ``optimize_centers``, (x_c, y_c, u_c, v_c) (m = 13); the last six
    are (rvec, tvec) of the observation's own pose ``batch.pose_index[n]``,
    every other pose's derivative being zero.  ``J.reshape(m + 6, 2 * N)``
    is thus the transposed Jacobian with the x rows of all observations
    before their y rows.

    Rotations and their derivatives are formed for all poses at once, the
    rigid motion and d X_c / d rvec once per site and the u-v side with its
    derivatives once per lens, then gathered; the plane intersection and
    the x-y distortion run per observation, on one contiguous vector per
    component.  The pixels do not depend on ``jacobian``: both paths share
    every operation up to them.
    """
    site, lens = batch.site, batch.lens
    k_xy, k_uv, f = tpp.k_x, tpp.k_u, tpp.f

    # rigid motion per site; d(R p)/d rvec is linear in p, so it is
    # sum_b p_b G(e_b) with G evaluated once per pose at the basis vectors
    sp = batch.site_pose
    R = rodrigues_matrices(batch.rvecs)
    Xc = np.einsum("sab,sb->sa", R[sp], batch.points_w) + batch.tvecs[sp]
    X, Y, Z = np.take(Xc.T, site, axis=1)

    # u-v side per lens
    li, lj = batch.labels.T
    du = k_uv * li + tpp.u_0 - dist.u_c
    dv = k_uv * lj + tpp.v_0 - dist.v_c
    r2_uv, g_uv, gp_uv = _radial(du, dv, dist.t1, dist.t2)
    ud, vd = np.take(np.stack([du * g_uv + dist.u_c, dv * g_uv + dist.v_c]), lens, axis=1)

    denom = Z - f
    if np.any(np.abs(denom) < _PLANE_TOL * max(1.0, abs(f))):
        raise BehindPlane("a transformed point lies on the u-v plane (Z_c = f)")

    # plane intersection, then the x-y distortion, as offsets from its center
    dx = (ud * Z - f * X) / denom - dist.x_c
    dy = (vd * Z - f * Y) / denom - dist.y_c
    r2, g, gp = _radial(dx, dy, dist.s1, dist.s2)
    pixels = np.stack([dx * g + dist.x_c, dy * g + dist.y_c], axis=1) / k_xy
    if not jacobian:
        return pixels

    # --- analytic Jacobian ---------------------------------------------------
    # written row by row into J; per-site and per-lens factors are gathered
    # one row at a time into a reused buffer, so that the call holds J and a
    # few N-vectors, never a (k, N) temporary
    n = len(site)
    m = len(INTRINSIC_NAMES) + (4 if optimize_centers else 0)
    J = np.empty((m + 6, 2, n))
    J[0] = pixels.T / -k_xy                   # k_xy divides the distorted point
    # E = d pixel / d xy_hat, symmetric; the plane intersection gives
    # d xy_hat / d uv_d = Z / denom and d xy_hat / d (X, Y) = -f / denom, both
    # diagonal, and d xy_hat / d (Z, f) = (-f, Z) h with h = (uv_d - XY) / denom^2
    e00, e01, e11 = (e / k_xy for e in _radial_jacobian(dx, dy, g, gp))
    den2 = denom * denom
    h0, h1 = (ud - X) / den2, (vd - Y) / den2
    dxy = -f / denom
    for a, (ea0, ea1), d in ((0, (e00, e01), dx), (1, (e01, e11), dy)):
        # d pixel_a / d tvec = d pixel_a / d X_c = (ea0, ea1) dxy, -f (E h)_a;
        # d pixel_a / d f = Z (E h)_a
        J[m + 3, a] = ea0 * dxy
        J[m + 4, a] = ea1 * dxy
        J[m + 5, a] = ea0 * h0 + ea1 * h1
        J[4, a] = Z * J[m + 5, a]
        J[m + 5, a] *= -f
        J[5, a] = d * r2 / k_xy
        J[6, a] = J[5, a] * r2
        if optimize_centers:
            J[9, a] = (a == 0) / k_xy - ea0     # d pixel / d (x_c, y_c) = I / k_xy - E
            J[10, a] = (a == 1) / k_xy - ea1

    # d pixel / d rvec = d pixel / d X_c times d X_c / d rvec, the latter per
    # site: rot[k, c, s] = d X_c[k] / d rvec_c at site s
    G = rotation_basis_jacobians(batch.rvecs)
    rot = np.einsum("sb,sbkc->kcs", batch.points_w, G[sp])
    row = np.empty((3, n))
    J[m:m + 3] = 0.0
    for k in range(3):
        np.take(rot[k], site, axis=1, out=row)
        for a in (0, 1):
            J[m:m + 3, a] += J[m + 3 + k, a] * row

    # d pixel / d uv_d = E Z / denom, times per-lens (row of J, x, y) entries
    # of d uv_d / d (k_uv, u_0, v_0) = C [label | I], d uv_d / d (t1, t2) =
    # d (r^2, r^4) and d uv_d / d (u_c, v_c) = I - C, with C the symmetric
    # u-v distortion Jacobian
    c00, c01, c11 = _radial_jacobian(du, dv, g_uv, gp_uv)
    per_lens = [(1, c00 * li + c01 * lj, c01 * li + c11 * lj), (2, c00, c01),
                (3, c01, c11), (7, du * r2_uv, dv * r2_uv),
                (8, du * r2_uv**2, dv * r2_uv**2)]
    if optimize_centers:
        per_lens += [(11, 1.0 - c00, -c01), (12, -c01, 1.0 - c11)]
    duv = Z / denom
    ed00, ed01, ed11 = e00 * duv, e01 * duv, e11 * duv
    row0, row1 = row[0], row[1]
    for c, l0, l1 in per_lens:
        np.take(l0, lens, out=row0)
        np.take(l1, lens, out=row1)
        np.multiply(ed00, row0, out=J[c, 0])
        J[c, 0] += ed01 * row1
        np.multiply(ed01, row0, out=J[c, 1])
        J[c, 1] += ed11 * row1
    return pixels, J


def board_sites(observations: Observations, board_points
                ) -> tuple[np.ndarray, np.ndarray]:
    """The sites of a table, one per (pose, point) pair: the row where each
    begins, then N, and each site's (X, Y) board point.

    ``board_points`` is the (n_points, 2) array of board (X, Y) indexed by
    point id; MissingReference names the smallest id outside it.
    """
    board = np.array([board_points[k] for k in range(len(board_points))], float)
    pose, point = observations.pose, observations.point
    outside = (point < 0) | (point >= len(board))
    if outside.any():
        raise MissingReference(
            f"observation references unknown point {point[outside].min()}")
    first = np.ones(len(pose), dtype=bool)
    first[1:] = (pose[1:] != pose[:-1]) | (point[1:] != point[:-1])
    return np.append(np.flatnonzero(first), len(pose)), board.reshape(-1, 2)[point[first]]


def observation_batch(observations: Observations, board_points, poses
                      ) -> ProjectionBatch:
    """The projection batch of an observation table, in its row order.

    ``board_points`` is the (n_points, 2) board array of ``board_sites``;
    ``poses`` holds one [rvec | tvec] row per distinct pose id of the table,
    in sorted id order, as a (P, 6) array.

    Raises MissingReference when the row count differs from the number of
    distinct pose ids, and for dangling point ids.
    """
    pose_ids, pose_row = np.unique(observations.pose, return_inverse=True)
    poses = np.asarray(poses, dtype=float).reshape(-1, 6)
    if len(poses) != len(pose_ids):
        raise MissingReference(f"{len(poses)} pose rows for {len(pose_ids)} pose ids")
    starts, board_xy = board_sites(observations, board_points)
    first = starts[:-1]
    points_w = np.column_stack([board_xy, np.zeros(len(first))])
    site = np.repeat(np.arange(len(first)), np.diff(starts))
    labels, lens = _unique_rows(observations.lens)
    return ProjectionBatch(points_w, pose_row.reshape(-1)[first], labels, site, lens,
                           poses[:, :3], poses[:, 3:])


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, 2) array, sorted, and each row's index into them."""
    order = np.lexsort((a[:, 1], a[:, 0]))
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def residuals(observations: Observations, board_points, poses, tpp: TppParams,
              dist: DistortionParams):
    """Re-projection residuals (observed - predicted) and their RMS.

    ``board_points`` and the (P, 6) ``poses``, one row per distinct pose id
    in sorted id order, are as in ``observation_batch``.  Residuals come in
    the table's row order; the RMS is taken over all 2N scalar components.
    """
    batch = observation_batch(observations, board_points, poses)
    res = observations.pixel - project_pixels(batch, tpp, dist)
    rms = float(np.sqrt(np.mean(res**2))) if len(res) else 0.0
    return res, rms
