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


def _rigid_motion(batch: ProjectionBatch, jacobian: bool):
    """Board points moved into the camera frame, and with ``jacobian`` their
    (N, 3, 3) derivative wrt the rvec of each observation's pose.

    Rotations are formed once per pose and gathered by ``pose_index``.  Since
    d(R p)/d rvec is linear in p, it is sum_b p_b G(e_b), with G evaluated
    once per pose at the three basis vectors.
    """
    idx = batch.pose_index
    R = np.stack([rodrigues_matrix(r) for r in batch.rvecs])
    Xc = np.einsum("nab,nb->na", R[idx], batch.points_w) + batch.tvecs[idx]
    if not jacobian:
        return Xc, None
    G = np.stack([rotate_points_jacobian(r, np.eye(3)) for r in batch.rvecs])
    return Xc, np.einsum("nb,nbac->nac", batch.points_w, G[idx])


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
    """
    n = batch.points_w.shape[0]
    k_xy, k_uv = tpp.k_x, tpp.k_u
    f = tpp.f

    Xc, rot_jac = _rigid_motion(batch, jacobian)

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

    n_intr = len(INTRINSIC_NAMES) + (4 if optimize_centers else 0)
    J_intr = np.empty((n, 2, n_intr))
    # k_xy enters only through the final pixel division
    J_intr[:, :, 0] = -pixels
    # k_uv, u_0, v_0 act through uv_hat = (k_uv i + u_0, k_uv j + v_0)
    J_intr[:, :, 1] = np.einsum("nij,nj->ni", T_uv, batch.lenses)
    J_intr[:, :, 2:4] = T_uv
    # f: direct effect on the plane intersection
    J_intr[:, :, 4] = np.einsum("nij,nj->ni", E, df_hat)
    # x-y distortion coefficients
    J_intr[:, :, 5] = d_xy * r2_xy[:, None]
    J_intr[:, :, 6] = d_xy * (r2_xy**2)[:, None]
    # u-v distortion coefficients propagate through the intersection
    J_intr[:, :, 7] = np.einsum("nij,nj->ni", E_duv, d_uv * r2_uv[:, None])
    J_intr[:, :, 8] = np.einsum("nij,nj->ni", E_duv, d_uv * (r2_uv**2)[:, None])
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
