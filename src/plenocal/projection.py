"""Forward projection of world points into raw-image pixels.

The calibrated camera is a TPP coordinate in scene space: a board point is
moved into that frame by a rigid pose, joined to the (distorted) u-v point of
a micro-lens, and the connecting line is intersected with the x-y plane.  The
intersection, after its own radial distortion, divides by the x-y plane scale
to give raw-image pixel coordinates.

``project_pixels`` evaluates the whole chain for a batch of observations and
can return the analytic Jacobian with respect to every model parameter, as an
intrinsic block and a per-observation pose block; the refinement stage
depends on that Jacobian matching finite differences.
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


def _radial_factors(pts: np.ndarray, center, d1: float, d2: float):
    """Shared distortion factors: offsets, g = 1 + d1 r^2 + d2 r^4, g' wrt r^2."""
    d = pts - np.asarray(center, dtype=float)
    r2 = np.sum(d * d, axis=1)
    g = 1.0 + d1 * r2 + d2 * r2 * r2
    gp = d1 + 2.0 * d2 * r2
    return d, r2, g, gp


def _distort_jacobian(d: np.ndarray, g: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """(N, 2, 2) Jacobian of the radial distortion wrt the undistorted point."""
    J = np.empty((d.shape[0], 2, 2))
    J[:, 0, 0] = g + 2.0 * d[:, 0] * d[:, 0] * gp
    J[:, 0, 1] = 2.0 * d[:, 0] * d[:, 1] * gp
    J[:, 1, 0] = J[:, 0, 1]
    J[:, 1, 1] = g + 2.0 * d[:, 1] * d[:, 1] * gp
    return J


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

    Returns ``pixels`` of shape (N, 2), or ``(pixels, J_intr, J_pose)`` when
    ``jacobian`` is set.  The Jacobian comes in block form, never as one
    dense 2N x (9 [+4] + 6P) array:

    * ``J_intr`` (N, 2, 9) or (N, 2, 13): ``J_intr[n, a, c]`` is the
      derivative of pixel coordinate a (x, y) of observation n wrt intrinsic
      c in the order (k_xy, k_uv, u_0, v_0, f, s1, s2, t1, t2), then, with
      ``optimize_centers``, (x_c, y_c, u_c, v_c);
    * ``J_pose`` (N, 2, 6): ``J_pose[n, a]`` is the derivative wrt
      (rvec, tvec) of pose ``batch.pose_index[n]``; every other pose's
      derivative is zero.

    Rotations and their derivatives are formed for all poses at once, the
    rigid motion once per site and the u-v side once per lens, then gathered;
    only the plane intersection and the x-y distortion run per observation.
    Every per-observation value equals that of an unfactored batch bit for
    bit, since each gathered entry is computed by the same operations.
    """
    site, lens = batch.site, batch.lens
    n = site.shape[0]
    k_xy, k_uv = tpp.k_x, tpp.k_u
    f = tpp.f

    # rigid motion per site; d(R p)/d rvec is linear in p, so it is
    # sum_b p_b G(e_b) with G evaluated once per pose at the basis vectors
    sp = batch.site_pose
    R = rodrigues_matrices(batch.rvecs)
    Xc = (np.einsum("sab,sb->sa", R[sp], batch.points_w) + batch.tvecs[sp])[site]

    # u-v side per lens
    labels = batch.labels
    uv_hat = np.empty((labels.shape[0], 2))
    uv_hat[:, 0] = k_uv * labels[:, 0] + tpp.u_0
    uv_hat[:, 1] = k_uv * labels[:, 1] + tpp.v_0
    d_uv, r2_uv, g_uv, gp_uv = _radial_factors(uv_hat, (dist.u_c, dist.v_c),
                                               dist.t1, dist.t2)
    uv_d = (d_uv * g_uv[:, None] + np.array([dist.u_c, dist.v_c]))[lens]

    denom = Xc[:, 2] - f
    if np.any(np.abs(denom) < _PLANE_TOL * max(1.0, abs(f))):
        raise BehindPlane("a transformed point lies on the u-v plane (Z_c = f)")

    xy_hat = np.empty((n, 2))
    xy_hat[:, 0] = (uv_d[:, 0] * Xc[:, 2] - f * Xc[:, 0]) / denom
    xy_hat[:, 1] = (uv_d[:, 1] * Xc[:, 2] - f * Xc[:, 1]) / denom

    d_xy, r2_xy, g_xy, gp_xy = _radial_factors(xy_hat, (dist.x_c, dist.y_c),
                                               dist.s1, dist.s2)
    xy_d = d_xy * g_xy[:, None] + np.array([dist.x_c, dist.y_c])

    pixels = xy_d / k_xy
    if not jacobian:
        return pixels

    # --- analytic Jacobian ---------------------------------------------------
    G = rotation_basis_jacobians(batch.rvecs)
    rot_jac = np.einsum("sb,sbac->sac", batch.points_w, G[sp])[site]
    E = _distort_jacobian(d_xy, g_xy, gp_xy)          # d xy_d / d xy_hat
    C = _distort_jacobian(d_uv, g_uv, gp_uv)[lens]    # d uv_d / d uv_hat

    # plane intersection partials (x depends on u_d, not v_d, and vice versa)
    duv = Xc[:, 2] / denom                            # d xy_hat / d uv_d (diagonal)
    Dxc = np.zeros((n, 2, 3))                         # d xy_hat / d Xc
    Dxc[:, 0, 0] = -f / denom
    Dxc[:, 1, 1] = -f / denom
    Dxc[:, 0, 2] = f * (Xc[:, 0] - uv_d[:, 0]) / denom**2
    Dxc[:, 1, 2] = f * (Xc[:, 1] - uv_d[:, 1]) / denom**2
    df_hat = np.empty((n, 2))                         # d xy_hat / d f
    df_hat[:, 0] = Xc[:, 2] * (uv_d[:, 0] - Xc[:, 0]) / denom**2
    df_hat[:, 1] = Xc[:, 2] * (uv_d[:, 1] - Xc[:, 1]) / denom**2

    E_duv = E * duv[:, None, None]                    # E @ diag(duv, duv)
    T_uv = E_duv @ C                                  # d xy_d / d uv_hat
    T_xc = E @ Dxc                                    # d xy_d / d Xc

    n_intr = len(INTRINSIC_NAMES) + (4 if optimize_centers else 0)
    J_intr = np.empty((n, 2, n_intr))
    # k_xy enters only through the final pixel division
    J_intr[:, :, 0] = -pixels
    # k_uv, u_0, v_0 act through uv_hat = (k_uv i + u_0, k_uv j + v_0)
    J_intr[:, :, 1] = np.einsum("nij,nj->ni", T_uv, labels[lens])
    J_intr[:, :, 2:4] = T_uv
    # f: direct effect on the plane intersection
    J_intr[:, :, 4] = np.einsum("nij,nj->ni", E, df_hat)
    # x-y distortion coefficients
    J_intr[:, :, 5] = d_xy * r2_xy[:, None]
    J_intr[:, :, 6] = d_xy * (r2_xy**2)[:, None]
    # u-v distortion coefficients propagate through the intersection
    J_intr[:, :, 7] = np.einsum("nij,nj->ni", E_duv, (d_uv * r2_uv[:, None])[lens])
    J_intr[:, :, 8] = np.einsum("nij,nj->ni", E_duv,
                                (d_uv * (r2_uv**2)[:, None])[lens])
    if optimize_centers:
        eye2 = np.eye(2)[None, :, :]
        J_intr[:, :, 9:11] = eye2 - E                 # d xy_d / d (x_c, y_c)
        J_intr[:, :, 11:13] = E_duv @ (eye2 - C)      # d xy_d / d (u_c, v_c)
    J_intr /= k_xy

    # pose block: d xy_d / d rvec = T_xc @ G, d xy_d / d tvec = T_xc
    J_pose = np.empty((n, 2, 6))
    J_pose[:, :, :3] = T_xc @ rot_jac
    J_pose[:, :, 3:] = T_xc
    J_pose /= k_xy
    return pixels, J_intr, J_pose


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
