"""Forward projection of world points into raw-image pixels.

The calibrated camera is a TPP coordinate in scene space: a board point is
moved into that frame by a rigid pose, joined to the (distorted) u-v point of
a micro-lens, and the connecting line is intersected with the x-y plane.  The
intersection, after its own radial distortion, divides by the x-y plane scale
to give raw-image pixel coordinates.

``project_pixels`` evaluates the whole chain for a batch of observations and
can return the analytic Jacobian with respect to every model parameter; the
refinement stage depends on that Jacobian matching finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindPlane, MissingReference, NonInvertible
from .rotation import rodrigues_matrix, rotate_points_jacobian
from .tpp import TppParams

_PLANE_TOL = 1e-12      # |Z_c - f| threshold (relative to max(1, |f|))
_UNDISTORT_ITERS = 50
_UNDISTORT_TOL = 1e-12

# intrinsic parameter slots used by the Jacobian column layout
INTRINSIC_NAMES = ("k_xy", "k_uv", "u_0", "v_0", "f", "s1", "s2", "t1", "t2")


@dataclass(frozen=True, slots=True)
class DistortionParams:
    """Two-plane radial distortion: (s1, s2) on x-y, (t1, t2) on u-v.

    Zero coefficients give the exact identity regardless of the centers.
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


@dataclass(frozen=True)
class Pose:
    """Rigid motion of the board: Rodrigues rotation vector + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=float).reshape(3).copy())
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3).copy())
        if not (np.all(np.isfinite(self.rotation))
                and np.all(np.isfinite(self.translation))):
            raise ValueError("pose components must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return rodrigues_matrix(self.rotation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.matrix.T + self.translation


@dataclass(frozen=True, slots=True)
class Observation:
    """One detected projection of a board point under one micro-lens."""

    pose_id: int
    point_id: int
    lens_i: int
    lens_j: int
    px: float
    py: float


def apply_distortion(plane_point, center, coeffs):
    """Radially distort points about a center: p_d = (p - c)(1 + d1 r^2 + d2 r^4) + c.

    Works on a single (a, b) pair or an (N, 2) array.
    """
    p = np.asarray(plane_point, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    d1, d2 = coeffs
    if d1 == 0.0 and d2 == 0.0:
        out = p.copy()
        return out[0] if single else out
    c = np.asarray(center, dtype=float)
    d = p - c
    r2 = np.sum(d * d, axis=1, keepdims=True)
    out = d * (1.0 + d1 * r2 + d2 * r2 * r2) + c
    return out[0] if single else out


def undistort(plane_point_d, center, coeffs):
    """Numerically invert :func:`apply_distortion` (Newton on the radius).

    Radial distortion preserves direction from the center, so the inverse
    reduces to a scalar root find: solve r (1 + d1 r^2 + d2 r^4) = r_d.

    Raises
    ------
    NonInvertible
        If the radial profile is non-monotone at the working radius or the
        iteration fails to converge.
    """
    p_d = np.asarray(plane_point_d, dtype=float)
    single = p_d.ndim == 1
    p_d = np.atleast_2d(p_d)
    d1, d2 = coeffs
    if d1 == 0.0 and d2 == 0.0:
        out = p_d.copy()
        return out[0] if single else out
    c = np.asarray(center, dtype=float)
    delta = p_d - c
    r_d = np.sqrt(np.sum(delta * delta, axis=1))
    r = r_d.copy()
    tol = _UNDISTORT_TOL * (1.0 + r_d)
    for _ in range(_UNDISTORT_ITERS):
        r2 = r * r
        g = r * (1.0 + d1 * r2 + d2 * r2 * r2) - r_d
        gp = 1.0 + 3.0 * d1 * r2 + 5.0 * d2 * r2 * r2
        if np.any(gp <= 0.0):
            raise NonInvertible("radial profile is non-monotone at this radius")
        step = g / gp
        r = r - step
        if np.all(np.abs(step) <= tol):
            break
    else:
        raise NonInvertible("radius iteration did not converge")
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise NonInvertible("radius iteration diverged")
    scale = np.where(r_d > 0.0, r / np.where(r_d > 0.0, r_d, 1.0), 0.0)
    out = delta * scale[:, None] + c
    return out[0] if single else out


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
    """Inputs for a batch projection, grouped to keep signatures sane."""

    points_w: np.ndarray          # (N, 3) board points, TPP length units
    lenses: np.ndarray            # (N, 2) micro-lens labels (float ok)
    pose_index: np.ndarray        # (N,) index into rvecs/tvecs
    rvecs: np.ndarray             # (P, 3)
    tvecs: np.ndarray             # (P, 3)

    def __post_init__(self) -> None:
        self.points_w = np.atleast_2d(np.asarray(self.points_w, dtype=float))
        self.lenses = np.atleast_2d(np.asarray(self.lenses, dtype=float))
        self.pose_index = np.asarray(self.pose_index, dtype=int).reshape(-1)
        self.rvecs = np.atleast_2d(np.asarray(self.rvecs, dtype=float))
        self.tvecs = np.atleast_2d(np.asarray(self.tvecs, dtype=float))


def project_pixels(batch: ProjectionBatch, tpp: TppParams, dist: DistortionParams,
                   *, jacobian: bool = False, optimize_centers: bool = False):
    """Project a batch of board points to raw-image pixels.

    Returns ``pixels`` of shape (N, 2), or ``(pixels, J)`` when ``jacobian``
    is set.  Jacobian rows alternate pixel-x / pixel-y per observation and the
    columns are the 9 intrinsics (k_xy, k_uv, u_0, v_0, f, s1, s2, t1, t2),
    then optionally the 4 distortion centers, then 6 (rvec, tvec) per pose.
    """
    n = batch.points_w.shape[0]
    n_poses = batch.rvecs.shape[0]
    k_xy, k_uv = tpp.k_x, tpp.k_u
    f = tpp.f

    # rigid motion, grouped by pose so Rodrigues terms are computed once each
    Xc = np.empty((n, 3))
    rot_jac = np.empty((n, 3, 3)) if jacobian else None
    for p in range(n_poses):
        sel = batch.pose_index == p
        if not np.any(sel):
            continue
        R = rodrigues_matrix(batch.rvecs[p])
        Xc[sel] = batch.points_w[sel] @ R.T + batch.tvecs[p]
        if jacobian:
            rot_jac[sel] = rotate_points_jacobian(batch.rvecs[p], batch.points_w[sel])

    uv_hat = np.empty((n, 2))
    uv_hat[:, 0] = k_uv * batch.lenses[:, 0] + tpp.u_0
    uv_hat[:, 1] = k_uv * batch.lenses[:, 1] + tpp.v_0

    d_uv, r2_uv, g_uv, gp_uv = _radial_factors(uv_hat, (dist.u_c, dist.v_c),
                                               dist.t1, dist.t2)
    uv_d = d_uv * g_uv[:, None] + np.array([dist.u_c, dist.v_c])

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
    E = _distort_jacobian(d_xy, g_xy, gp_xy)          # d xy_d / d xy_hat
    C = _distort_jacobian(d_uv, g_uv, gp_uv)          # d uv_d / d uv_hat

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

    n_centers = 4 if optimize_centers else 0
    n_intr = len(INTRINSIC_NAMES) + n_centers
    n_cols = n_intr + 6 * n_poses
    J = np.zeros((2 * n, n_cols))
    rows_x = np.arange(n) * 2
    rows_y = rows_x + 1

    def put(col: int, dx: np.ndarray, dy: np.ndarray) -> None:
        J[rows_x, col] = dx / k_xy
        J[rows_y, col] = dy / k_xy

    # k_xy enters only through the final pixel division
    J[rows_x, 0] = -xy_d[:, 0] / k_xy**2
    J[rows_y, 0] = -xy_d[:, 1] / k_xy**2

    # k_uv, u_0, v_0 act through uv_hat = (k_uv i + u_0, k_uv j + v_0)
    duv_dkuv = np.stack([batch.lenses[:, 0], batch.lenses[:, 1]], axis=1)
    put(1, np.einsum("nj,nj->n", T_uv[:, 0, :], duv_dkuv),
        np.einsum("nj,nj->n", T_uv[:, 1, :], duv_dkuv))
    put(2, T_uv[:, 0, 0], T_uv[:, 1, 0])
    put(3, T_uv[:, 0, 1], T_uv[:, 1, 1])

    # f: direct effect on the plane intersection
    df_d = np.einsum("nij,nj->ni", E, df_hat)
    put(4, df_d[:, 0], df_d[:, 1])

    # x-y distortion coefficients
    put(5, d_xy[:, 0] * r2_xy, d_xy[:, 1] * r2_xy)
    put(6, d_xy[:, 0] * r2_xy**2, d_xy[:, 1] * r2_xy**2)

    # u-v distortion coefficients propagate through the intersection
    dt1 = np.einsum("nij,nj->ni", E_duv, d_uv * r2_uv[:, None])
    dt2 = np.einsum("nij,nj->ni", E_duv, d_uv * (r2_uv**2)[:, None])
    put(7, dt1[:, 0], dt1[:, 1])
    put(8, dt2[:, 0], dt2[:, 1])

    if optimize_centers:
        eye2 = np.eye(2)[None, :, :]
        dxy_c = eye2 - E                               # d xy_d / d (x_c, y_c)
        duv_c = E_duv @ (eye2 - C)                     # d xy_d / d (u_c, v_c)
        put(9, dxy_c[:, 0, 0], dxy_c[:, 1, 0])
        put(10, dxy_c[:, 0, 1], dxy_c[:, 1, 1])
        put(11, duv_c[:, 0, 0], duv_c[:, 1, 0])
        put(12, duv_c[:, 0, 1], duv_c[:, 1, 1])

    # pose blocks: d xy_d / d rvec = T_xc @ G, d xy_d / d tvec = T_xc
    drv = T_xc @ rot_jac
    base = n_intr + 6 * batch.pose_index
    cols3 = np.arange(3)[None, :]
    J[rows_x[:, None], base[:, None] + cols3] = drv[:, 0, :] / k_xy
    J[rows_y[:, None], base[:, None] + cols3] = drv[:, 1, :] / k_xy
    J[rows_x[:, None], base[:, None] + 3 + cols3] = T_xc[:, 0, :] / k_xy
    J[rows_y[:, None], base[:, None] + 3 + cols3] = T_xc[:, 1, :] / k_xy
    return pixels, J


def sort_observations(observations) -> list[Observation]:
    """Deterministic residual ordering: (pose_id, point_id, lens_i, lens_j)."""
    return sorted(observations,
                  key=lambda o: (o.pose_id, o.point_id, o.lens_i, o.lens_j))


def observation_batch(observations, board_points, poses):
    """Build a ProjectionBatch (plus observed pixels) from observation records.

    ``board_points`` maps point_id -> (X, Y) board coordinates (Z = 0 plane);
    ``poses`` maps pose_id -> Pose.  Mappings may be dicts or sequences.

    Raises MissingReference for dangling pose or point ids.
    """
    obs = sort_observations(observations)
    pose_ids = sorted({o.pose_id for o in obs})
    if isinstance(poses, dict):
        pose_map = poses
    else:
        pose_map = dict(enumerate(poses))
    for pid in pose_ids:
        if pid not in pose_map:
            raise MissingReference(f"observation references unknown pose {pid}")
    if not isinstance(board_points, dict):
        board_points = dict(enumerate(np.atleast_2d(np.asarray(board_points, float))))

    pose_row = {pid: k for k, pid in enumerate(pose_ids)}
    n = len(obs)
    pts = np.empty((n, 3))
    lenses = np.empty((n, 2))
    idx = np.empty(n, dtype=int)
    observed = np.empty((n, 2))
    for k, o in enumerate(obs):
        if o.point_id not in board_points:
            raise MissingReference(f"observation references unknown point {o.point_id}")
        bx, by = np.asarray(board_points[o.point_id], dtype=float)[:2]
        pts[k] = (bx, by, 0.0)
        lenses[k] = (o.lens_i, o.lens_j)
        idx[k] = pose_row[o.pose_id]
        observed[k] = (o.px, o.py)
    rvecs = np.stack([pose_map[pid].rotation for pid in pose_ids])
    tvecs = np.stack([pose_map[pid].translation for pid in pose_ids])
    batch = ProjectionBatch(pts, lenses, idx, rvecs, tvecs)
    return batch, observed, pose_ids, obs


def residuals(observations, board_points, poses, tpp: TppParams,
              dist: DistortionParams):
    """Re-projection residuals (observed - predicted) and their RMS.

    Residuals are stacked in (pose_id, point_id, lens) lexicographic order;
    the RMS is taken over all 2N scalar components.
    """
    batch, observed, _, _ = observation_batch(observations, board_points, poses)
    predicted = project_pixels(batch, tpp, dist)
    res = observed - predicted
    rms = float(np.sqrt(np.mean(res**2))) if len(res) else 0.0
    return res, rms
