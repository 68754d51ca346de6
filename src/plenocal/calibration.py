"""Closed-form initialization and nonlinear refinement of the TPP intrinsics.

Linear stage: decoded rays of each pose constrain a 4x3 plane-to-space
homography; the rotation-column orthogonality of at least three homographies
is solved in closed form straight to the plane-transform parameters
(k_xy, k_uv, u_0, v_0, f); extrinsics then follow column-by-column.  The
transform parameters are mapped through the decode setting to the scene-side
camera parameters.

Refinement: damped least squares on the re-projection error over intrinsics,
two-plane distortion and all poses, with the analytic Jacobian from the
projection module, linearized once per accepted step.  Each observation
touches the intrinsics and its own pose only, so every step eliminates the
pose blocks and solves a system of intrinsic size (the Schur complement of
Triggs, McLauchlan, Hartley & Fitzgibbon, "Bundle Adjustment -- A Modern
Synthesis", 2000); memory stays linear in the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BehindPlane, DegenerateBoard, DivergedOptimization,
                     IllConditioned, InsufficientData, InsufficientPoses,
                     NegativeDiscriminant, NonFiniteResidual, ReflectionDetected)
from .projection import (DistortionParams, Observations, _unique_rows,
                         board_sites, observation_batch, project_pixels, residuals)
from .rotation import nearest_rotation, rodrigues_vector
from .rectification import _normalize_2d
from .tpp import TppParams, decode_virtual_rays, incidence_matrix, projective_matrix

_HOMOGRAPHY_RANK_TOL = 1e-8
_Q_COLLAPSE_RATIO = 0.05
_MIN_BOARD_POINTS = 6

# damped least squares schedule
_LM_DAMPING_INIT = 1e-3          # times the floored diagonal of J^T J
_LM_DIAG_FLOOR = 1e-6            # damping floor, relative to the mean of diag(J^T J)
_LM_UP, _LM_DOWN = 10.0, 0.1
_LM_MAX_REJECTED = 20
_GRAD_TOL = 1e-10                # relative to the initial gradient inf-norm
_COST_TOL = 1e-12                # a candidate changing the cost by less than
                                 # this fraction ends the refinement
_STEP_TOL = 1e-12


@dataclass
class CalibrationResult:
    """Calibrated scene-side camera, distortion, per-pose extrinsics, residuals.

    ``poses`` holds one [rvec | tvec] row per distinct pose id of the
    observation table, in sorted id order; ``residuals`` the (N, 2)
    re-projection residuals (observed - predicted) in its row order, when known.
    """

    tpp: TppParams
    dist: DistortionParams
    poses: np.ndarray
    rms: float
    residual_histogram: list[tuple[float, int]] = field(default_factory=list)
    residuals: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class RefineOptions:
    """Knobs for the nonlinear stage.

    ``optimize_xy_distortion`` frees (s1, s2); because every pixel sits close
    to its micro-image center, the x-y and u-v radial families are nearly
    collinear on raw-image data, and freezing the x-y pair at zero makes the
    u-v pair identifiable.
    """

    optimize_distortion_centers: bool = False
    optimize_xy_distortion: bool = True
    max_iterations: int = 200
    sensor_size: tuple[int, int] | None = None    # (width, height) px


@dataclass
class CalibrationOutput:
    """Linear and refined results plus the iteration trace of the refinement
    and why it stopped (see ``refine``)."""

    linear: CalibrationResult
    refined: CalibrationResult
    setting: TppParams
    trace: list[dict]
    stop: str


def estimate_homography(board_xy, counts, rays) -> np.ndarray:
    """Estimate the 4x3 homography from board points to decoded-ray space.

    One pose's sites, site after site: ``board_xy`` (S, 2) board points,
    ``counts`` (S,) decoded rays per site and ``rays`` (counts.sum(), 5) the
    rays.  Board and ray coordinates are both normalized before the
    null-space solve and the result de-normalized, Frobenius-normalized, and
    sign-fixed so H[3, 2] > 0.
    """
    if len(board_xy) < _MIN_BOARD_POINTS:
        raise InsufficientData(
            f"need at least {_MIN_BOARD_POINTS} board points, got {len(board_xy)}")
    if np.any(counts < 2):
        xy = board_xy[int(np.argmax(counts < 2))]
        raise InsufficientData(f"board point {tuple(xy)} has fewer than 2 decoded rays")

    board_n, Tb = _normalize_2d(board_xy)

    # normalize ray coordinates: common planar shift and a global scale keep
    # the incidence rows balanced; both are exact similarities of the decoded
    # 3D frame and are undone on H afterwards.  The planar points go site by
    # site, x-y before u-v: H depends on that summation order in its last bits.
    site = np.repeat(np.arange(len(counts)), counts)
    order = np.argsort(2 * np.repeat(site, 2) + np.tile([0, 1], len(rays)), kind="stable")
    planar = rays[:, 0:4].reshape(-1, 2)[order]
    shift = -planar.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((planar + shift) ** 2, axis=1)))
    scale = 1.0 if rms == 0.0 else math.sqrt(2.0) / rms
    Td = np.array([[scale, 0.0, 0.0, scale * shift[0]],
                   [0.0, scale, 0.0, scale * shift[1]],
                   [0.0, 0.0, scale, 0.0],
                   [0.0, 0.0, 0.0, 1.0]])

    # each incidence row of a ray times its board point (X, Y, 1)
    M = incidence_matrix(scale * (rays + [shift[0], shift[1], shift[0], shift[1], 0.0]))
    xb = np.repeat(np.column_stack([board_n, np.ones(len(board_n))]), 2 * counts, axis=0)
    A = np.einsum("rk,rc->rkc", M, xb).reshape(-1, 12)

    col = np.linalg.norm(A, axis=0)
    col[col == 0.0] = 1.0
    _, s, Vt = np.linalg.svd(A / col, full_matrices=False)
    if s[-2] < _HOMOGRAPHY_RANK_TOL * s[0]:
        raise DegenerateBoard(
            "homography system is rank deficient (collinear board points?)")
    h = Vt[-1] / col
    H = np.linalg.inv(Td) @ h.reshape(4, 3) @ Tb
    H /= np.linalg.norm(H)
    if H[3, 2] < 0:
        H = -H
    return H


def _orthogonality_rows(H: np.ndarray) -> np.ndarray:
    """Two constraints per pose on the upper-block inverse-Gram entries.

    With rows 1-3 of H equal to K [r1 r2 t] (up to scale) for the upper
    triangular block K of the plane transform, orthogonality and equal norm
    of r1, r2 are linear in the four distinct entries (g11, g13, g23, g33)
    of the patterned symmetric form G = K^-T K^-1 (g22 = g11, g12 = 0).
    """
    h = H
    row_a = np.array([
        h[0, 0] * h[0, 1] + h[1, 0] * h[1, 1],
        h[0, 0] * h[2, 1] + h[0, 1] * h[2, 0],
        h[1, 0] * h[2, 1] + h[1, 1] * h[2, 0],
        h[2, 0] * h[2, 1],
    ])
    row_b = np.array([
        h[0, 0] ** 2 - h[0, 1] ** 2 + h[1, 0] ** 2 - h[1, 1] ** 2,
        2.0 * (h[0, 0] * h[2, 0] - h[0, 1] * h[2, 1]),
        2.0 * (h[1, 0] * h[2, 0] - h[1, 1] * h[2, 1]),
        h[2, 0] ** 2 - h[2, 1] ** 2,
    ])
    return np.stack([row_a, row_b])


def solve_q(homographies, f_prime: float
            ) -> tuple[float, float, float, float, float]:
    """Solve the plane-transform parameters (k_xy, k_uv, u_0, v_0, f) from
    the rotation-column orthogonality of at least three homographies.

    The constraints are linear in the six distinct entries of the
    inverse-Gram form Q = P^-T P^-1, but the naive six-unknown null-space
    solve is numerically rank deficient: the q34/q44 columns are weaker than
    the rest by the square of the small ratio (k_x - k_u)/(f' k_x), which
    buries them below double precision.  The same constraints are therefore
    solved by structured elimination, which yields the parameters directly:

    * rows 1-3 of each H are a planar-target pinhole problem whose patterned
      inverse-Gram form gives the parameter shape (a/c, u_0/f', v_0/f');
    * row 4 gives the ratio (k_x - k_u)/(f' k_x) directly, linearly in H;
    * the translation column's unit homogeneous component pins the absolute
      scale through f k_u = sigma (h43 - rho h33).
    """
    hs = [np.asarray(H, dtype=float) for H in homographies]
    if len(hs) < 3:
        raise InsufficientPoses(f"need at least 3 poses, got {len(hs)}")

    A = np.vstack([_orthogonality_rows(H) for H in hs])
    rn = np.linalg.norm(A, axis=1)
    rn[rn == 0.0] = 1.0
    A = A / rn[:, None]
    col = np.linalg.norm(A, axis=0)
    col[col == 0.0] = 1.0
    _, s, Vt = np.linalg.svd(A / col, full_matrices=False)
    # near-parallel poses collapse the weakest genuine direction s[-2] by two
    # orders (healthy pose sets keep s[-2]/s[0] above ~0.1); the trailing
    # ratio s[-1]/s[-2] alone cannot discriminate, since it stays tiny on
    # noise-free degenerate data and rises on healthy data with unmodeled
    # distortion
    if s[-2] < _Q_COLLAPSE_RATIO * s[0]:
        raise IllConditioned(
            f"intrinsic constraints nearly rank deficient "
            f"(singular values {s[0]:.3e} .. {s[-2]:.3e}, {s[-1]:.3e})")
    g = Vt[-1] / col
    if g[0] < 0:
        g = -g
    g11, g13, g23, g33 = g
    if g11 <= 0:
        raise NegativeDiscriminant(f"leading inverse-Gram entry not positive: {g11}")
    shape_sq = g33 - (g13**2 + g23**2) / g11     # (a/c)^2 * g11-scale factor
    if shape_sq <= 0:
        raise NegativeDiscriminant(
            f"noise overwhelmed the linear stage (shape term {shape_sq})")
    a_over_c = math.sqrt(shape_sq / g11)
    b_over_c = -g13 / g11                        # u_0 / f'
    bp_over_c = -g23 / g11                       # v_0 / f'

    # fourth-row ratio rho = (k_x - k_u) / (f' k_x), linear least squares
    num = sum(H[3, 0] * H[2, 0] + H[3, 1] * H[2, 1] for H in hs)
    den = sum(H[2, 0]**2 + H[2, 1]**2 for H in hs)
    rho = num / den
    gamma = 1.0 - f_prime * rho                  # k_u / k_x
    if gamma <= 0:
        raise NegativeDiscriminant(f"u-v over x-y scale ratio not positive: {gamma}")

    # absolute scale: e/c = f k_u / (f' k_x) from the translation column
    Khat = np.array([[a_over_c, 0.0, b_over_c],
                     [0.0, a_over_c, bp_over_c],
                     [0.0, 0.0, 1.0]])
    Kinv = np.linalg.inv(Khat)
    ratios = []
    for H in hs:
        nu = np.linalg.norm(Kinv @ H[:3, 0])     # |c / sigma_H|
        w = H[3, 2] - rho * H[2, 2]              # e / sigma_H (sign of sigma_H)
        ratios.append(abs(w) / nu)
    e_over_c = float(np.mean(ratios))
    if e_over_c <= 0:
        raise NegativeDiscriminant("translation column gives no positive scale")

    f = f_prime * e_over_c / gamma
    k_x = a_over_c / e_over_c
    k_u = gamma * k_x
    u_0 = f_prime * b_over_c
    v_0 = f_prime * bp_over_c
    if k_x <= 0 or k_u <= 0 or f <= 0:
        raise NegativeDiscriminant(
            f"recovered scales not positive: k_xy={k_x}, k_uv={k_u}, f={f}")
    return k_x, k_u, u_0, v_0, f


def extrinsics_from_homography(H: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Recover the board pose, as one [rvec | tvec] row, from its homography
    and the plane transform.

    The first two columns of P^-1 H are the rotation columns up to a common
    scale; the third carries the translation with a unit fourth component,
    which also fixes the overall sign.  The rotation is re-orthonormalized by
    polar projection before Rodrigues encoding.
    """
    Pinv = np.linalg.inv(np.asarray(P, dtype=float))
    C = Pinv @ np.asarray(H, dtype=float)
    if C[3, 2] < 0:          # homogeneous scale of the translation column
        C = -C
    n1 = np.linalg.norm(C[:3, 0])
    n2 = np.linalg.norm(C[:3, 1])
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateBoard("homography columns collapse under P^-1")
    r1 = C[:3, 0] / n1
    r2 = C[:3, 1] / n2
    R = nearest_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    if np.linalg.det(R) < 0:
        raise ReflectionDetected("recovered rotation is a reflection")
    t = C[:3, 2] / n1
    return np.concatenate([rodrigues_vector(R), t])


def orthonormality_defect(H: np.ndarray, P: np.ndarray) -> float:
    """Frobenius distance of the raw recovered rotation from orthonormality."""
    C = np.linalg.inv(np.asarray(P, float)) @ np.asarray(H, float)
    n1 = np.linalg.norm(C[:3, 0])
    r1, r2 = C[:3, 0] / n1, C[:3, 1] / np.linalg.norm(C[:3, 1])
    R = np.column_stack([r1, r2, np.cross(r1, r2)])
    return float(np.linalg.norm(R.T @ R - np.eye(3)))


def scene_tpp_from_transform(k_xy: float, k_uv: float, u_0: float, v_0: float,
                             f: float, setting: TppParams) -> TppParams:
    """Map plane-transform parameters through the decode setting to the
    scene-side camera: scales become ratios and offsets difference-ratios."""
    return TppParams.isotropic(
        setting.k_x / k_xy, setting.k_u / k_uv,
        (setting.u_0 - u_0) / k_uv, (setting.v_0 - v_0) / k_uv,
        f, f_prime=setting.f_prime)


def residual_histogram(res: np.ndarray, bin_width: float = 0.1
                       ) -> list[tuple[float, int]]:
    """Histogram of per-observation residual magnitudes in fixed-width bins."""
    if len(res) == 0:
        return []
    mags = np.hypot(res[:, 0], res[:, 1])
    n_bins = max(1, int(math.ceil((float(mags.max()) + 1e-12) / bin_width)))
    counts, edges = np.histogram(mags, bins=n_bins, range=(0.0, n_bins * bin_width))
    return [(float(e), int(c)) for e, c in zip(edges[:-1], counts)]


def setting_from_observations(observations: Observations, sensor_px) -> TppParams:
    """Heuristic decode setting for data that comes without one.

    Unit x-y scale, the micro-image pitch fitted to the mean pixel position
    of each lens label, offsets at the image center (half of the (width,
    height) ``sensor_px``, or of the observed extent when it is None), and a
    plane separation in the same regime.  Raises ValueError when no positive
    pitch can be fitted.
    """
    if len(observations) == 0:
        raise ValueError("cannot estimate a micro-image pitch from the observations")
    pixels = observations.pixel
    labels, inverse = _unique_rows(observations.lens)
    counts = np.bincount(inverse)
    means = np.column_stack([np.bincount(inverse, weights=pixels[:, k]) / counts
                             for k in (0, 1)])
    A = np.column_stack([labels, np.ones(len(labels))])
    coef_x, *_ = np.linalg.lstsq(A, means[:, 0], rcond=None)
    coef_y, *_ = np.linalg.lstsq(A, means[:, 1], rcond=None)
    pitch = (abs(coef_x[0]) + abs(coef_y[1])) / 2.0
    if not np.isfinite(pitch) or pitch <= 0:
        raise ValueError("cannot estimate a micro-image pitch from the observations")
    w, h = sensor_px if sensor_px is not None else (2.0 * means[:, 0].max(),
                                                    2.0 * means[:, 1].max())
    return TppParams.isotropic(1.0, pitch, w / 2.0, h / 2.0, 11.0 * pitch)


def _group_rays(observations: Observations, board_points, setting: TppParams):
    """Per pose id, in table order, ``estimate_homography``'s input: board xy,
    ray counts and decoded rays of the pose's sites with at least two rays."""
    rays = decode_virtual_rays(observations.pixel, observations.lens, setting)
    starts, board_xy = board_sites(observations, board_points)
    counts = np.diff(starts)
    kept = counts >= 2
    site_pose = observations.pose[starts[:-1]][kept]
    rays, board_xy, counts = rays[np.repeat(kept, counts)], board_xy[kept], counts[kept]
    ends = np.append(0, np.cumsum(counts))
    pose_ids = np.unique(observations.pose)
    lo, hi = (np.searchsorted(site_pose, pose_ids, side) for side in ("left", "right"))
    return {int(p): (board_xy[a:b], counts[a:b], rays[ends[a]:ends[b]])
            for p, a, b in zip(pose_ids, lo, hi)}


def linear_calibrate(observations: Observations, board_points, setting: TppParams
                     ) -> tuple[CalibrationResult, tuple]:
    """Closed-form stage: homographies, plane transform, extrinsics, gauge map.

    Returns the scene-side result (zero distortion) and the raw transform
    parameters (k_xy, k_uv, u_0, v_0, f) for diagnostics.
    """
    grouped = _group_rays(observations, board_points, setting)
    if len(grouped) < 3:
        raise InsufficientPoses(f"need at least 3 poses, got {len(grouped)}")
    homographies = [estimate_homography(*sites) for sites in grouped.values()]
    k_xy, k_uv, u_0, v_0, f = solve_q(homographies, setting.f_prime)
    P = projective_matrix(TppParams.isotropic(k_xy, k_uv, u_0, v_0, f,
                                              f_prime=setting.f_prime))
    poses = np.array([extrinsics_from_homography(H, P) for H in homographies])
    tpp = scene_tpp_from_transform(k_xy, k_uv, u_0, v_0, f, setting)
    res, rms = residuals(observations, board_points, poses, tpp, DistortionParams())
    result = CalibrationResult(tpp, DistortionParams(), poses, rms,
                               residual_histogram(res), res)
    return result, (k_xy, k_uv, u_0, v_0, f)


# --- nonlinear refinement -------------------------------------------------------

def _default_centers(initial: CalibrationResult, observed: np.ndarray,
                     options: RefineOptions) -> DistortionParams:
    """The initial distortion with the default centers: image-center on x-y,
    the u-v offset on u-v."""
    if options.sensor_size is not None:
        cx, cy = options.sensor_size[0] / 2.0, options.sensor_size[1] / 2.0
    else:
        cx, cy = observed.mean(axis=0)
    tpp = initial.tpp
    return replace(initial.dist, x_c=tpp.k_x * cx, y_c=tpp.k_x * cy, u_c=tpp.u_0,
                   v_c=tpp.v_0)


def _pack(tpp: TppParams, dist: DistortionParams, poses) -> np.ndarray:
    """The 13 intrinsics (k_xy, k_uv, u_0, v_0, f, s1, s2, t1, t2, x_c, y_c,
    u_c, v_c), then the [rvec | tvec] pose rows."""
    head = [tpp.k_x, tpp.k_u, tpp.u_0, tpp.v_0, tpp.f, dist.s1, dist.s2, dist.t1,
            dist.t2, dist.x_c, dist.y_c, dist.u_c, dist.v_c]
    return np.concatenate([head, np.ravel(poses)])


def _unpack(theta: np.ndarray, f_prime: float):
    """Camera, distortion, and the (P, 6) [rvec | tvec] rows of the poses."""
    tpp = TppParams.isotropic(*theta[:5], f_prime=f_prime)
    return tpp, DistortionParams(*theta[5:13]), theta[13:].reshape(-1, 6)


def _parameter_scales(theta0: np.ndarray, lenses: np.ndarray,
                      observed: np.ndarray) -> np.ndarray:
    """Characteristic magnitudes for conditioning the scaled normal equations."""
    k_xy, k_uv, u_0, v_0, f = theta0[:5]
    x_c, y_c, u_c, v_c = theta0[9:13]
    uu = k_uv * lenses[:, 0] + u_0 - u_c
    vv = k_uv * lenses[:, 1] + v_0 - v_c
    r_uv = max(1.0, float(np.sqrt(np.mean(uu**2 + vv**2))))
    xx = k_xy * observed[:, 0] - x_c
    yy = k_xy * observed[:, 1] - y_c
    r_xy = max(1.0, float(np.sqrt(np.mean(xx**2 + yy**2))))
    head = [abs(k_xy), abs(k_uv), max(abs(u_0), k_uv), max(abs(v_0), k_uv), abs(f),
            r_xy**-2, r_xy**-4, r_uv**-2, r_uv**-4, r_xy, r_xy, r_uv, r_uv]
    # rotations are O(1); translations share the pose's depth scale
    poses = np.ones(((theta0.size - 13) // 6, 6))
    poses[:, 3:] = np.maximum(np.abs(theta0[13:].reshape(-1, 6)[:, 3:]), max(1.0, abs(f)))
    return np.concatenate([head, poses.ravel()])


@dataclass(frozen=True)
class _NormalEquations:
    """Gauss-Newton matrix A = J^T J and gradient g = J^T r in block form.

    With m intrinsic columns and P poses: ``U`` (m, m) is the intrinsic
    block, ``V`` (P, 6, 6) the pose blocks (A's pose-pose part is block
    diagonal), ``W`` (P, m, 6) the intrinsic-pose couplings, and ``g_i``
    (m,), ``g_p`` (P, 6) the gradient split the same way.  They are
    accumulated straight from ``project_pixels``' component-major
    (m + 6, 2, N) Jacobian: U and g_i by BLAS products over all 2N rows, and
    W_p, V_p and g_p by products over pose p's slice of observations; no
    per-observation product and no dense 2N x (m + 6P) array is formed.
    """

    U: np.ndarray
    W: np.ndarray
    V: np.ndarray
    g_i: np.ndarray
    g_p: np.ndarray

    @classmethod
    def from_blocks(cls, J: np.ndarray, r: np.ndarray, starts: np.ndarray
                    ) -> "_NormalEquations":
        """Accumulate from the (m + 6, 2, N) Jacobian of ``project_pixels``
        and the (2, N) residuals, x then y of every observation;
        observations starts[p]:starts[p + 1] are those of pose p."""
        m = J.shape[0] - 6
        Ji = J[:m].reshape(m, -1)
        n_poses = len(starts) - 1
        W = np.empty((n_poses, m, 6))
        V = np.empty((n_poses, 6, 6))
        g_p = np.empty((n_poses, 6))
        for p in range(n_poses):
            rows = slice(starts[p], starts[p + 1])
            x, y = J[:, 0, rows], J[:, 1, rows]
            B = x @ x[m:].T + y @ y[m:].T          # [W_p; V_p]
            W[p], V[p] = B[:m], B[m:]
            g_p[p] = x[m:] @ r[0, rows] + y[m:] @ r[1, rows]
        return cls(Ji @ Ji.T, W, V, Ji @ r.reshape(-1), g_p)

    def scaled(self, keep: np.ndarray, d_i: np.ndarray, d_p: np.ndarray
               ) -> "_NormalEquations":
        """The blocks of J D restricted to the ``keep`` intrinsic columns,
        D being diag(d_i) on the kept intrinsics and diag(d_p[p]) on pose p."""
        U = self.U[np.ix_(keep, keep)] * (d_i[:, None] * d_i)
        W = self.W[:, keep] * d_i[:, None] * d_p[:, None, :]
        V = self.V * d_p[:, :, None] * d_p[:, None, :]
        return _NormalEquations(U, W, V, self.g_i[keep] * d_i, self.g_p * d_p)

    def grad_inf(self) -> float:
        return float(max(np.abs(self.g_i).max(), np.abs(self.g_p).max()))

    def step(self, damping: float) -> tuple[np.ndarray, np.ndarray]:
        """Solve (A + damping D) delta = -g for the intrinsic step (m,) and
        the pose steps (P, 6), D being diag(A) floored at ``_LM_DIAG_FLOOR``
        of its mean entry (Marquardt's damping; in ``refine``'s scaled space
        the floor lifts only the free distortion-center columns, which are
        exactly zero at zero distortion and stay tiny after).  The pose
        blocks are eliminated: the reduced m x m
        system is S = U' - sum_p W_p V_p'^-1 W_p^T, primes marking the damped
        blocks, and each pose step follows by back-substitution."""
        m = self.U.shape[0]
        diag_u = np.diagonal(self.U)
        diag_v = np.diagonal(self.V, axis1=1, axis2=2)
        floor = _LM_DIAG_FLOOR * (diag_u.sum() + diag_v.sum()) / (diag_u.size + diag_v.size)
        V = self.V + damping * np.maximum(diag_v, floor)[:, :, None] * np.eye(6)
        U = self.U + damping * np.diag(np.maximum(diag_u, floor))
        rhs = np.concatenate([self.W.transpose(0, 2, 1), self.g_p[:, :, None]], axis=2)
        X = np.linalg.solve(V, rhs)                          # V_p'^-1 [W_p^T | g_p]
        S = U - np.einsum("pik,pkj->ij", self.W, X[:, :, :m])
        b = np.einsum("pik,pk->i", self.W, X[:, :, m]) - self.g_i
        try:
            d_i = np.linalg.solve(S, b)
        except np.linalg.LinAlgError:
            d_i = np.linalg.lstsq(S, b, rcond=None)[0]
        d_p = -X[:, :, m] - X[:, :, :m] @ d_i
        return d_i, d_p


def refine(initial: CalibrationResult, observations: Observations, board_points,
           options: RefineOptions | None = None
           ) -> tuple[CalibrationResult, list[dict], str]:
    """Minimize the re-projection error by damped least squares.

    Optimizes (k_xy, k_uv, u_0, v_0, f, s1, s2, t1, t2) plus every pose, and
    optionally the distortion centers (x_c, y_c, u_c, v_c): theta holds all
    13 and the pose rows, and a mask freezes the rest.  The decode-plane
    separation stays a fixed convention.  Accepted steps never increase the
    cost; the damping, relative to the floored diagonal of J^T J, is scaled
    up by 10 on rejection and down by 10 on acceptance.  Each step is solved
    on the reduced intrinsic system (see ``_NormalEquations``).  The refinement
    stops once the gradient has shrunk by ``_GRAD_TOL`` ("gradient"), the
    step vanishes ("step"), an accepted step lowers the cost by less than
    ``_COST_TOL`` of it or a rejected one raises it by less ("cost"; the cost
    then sits at its numerical floor, and the rejected candidate gets no
    trace entry since it changes nothing),
    ``_LM_MAX_REJECTED`` steps in a row are rejected after some progress
    ("rejections"), or at ``options.max_iterations`` ("max_iterations").

    Returns the refined result, whose ``residuals`` are those of its
    parameters in table order, the per-iteration trace, and the stop reason.
    """
    options = options or RefineOptions()
    if len(initial.poses) < 3:
        raise InsufficientPoses(f"refinement needs >= 3 poses, got {len(initial.poses)}")
    batch = observation_batch(observations, board_points, initial.poses)
    observed = observations.pixel
    n_poses = len(initial.poses)
    # the table is sorted by pose, so each pose owns one slice of rows
    starts = np.searchsorted(batch.pose_index, np.arange(n_poses + 1))
    centers = options.optimize_distortion_centers
    f_prime = initial.tpp.f_prime

    theta = _pack(initial.tpp, _default_centers(initial, observed, options), initial.poses)
    scales = _parameter_scales(theta, observations.lens, observed)
    active = np.ones(theta.size, dtype=bool)
    if not options.optimize_xy_distortion:
        active[5:7] = False              # freeze s1, s2 at their initial values
    active[9:13] = centers               # and the centers at their defaults
    # project_pixels returns the 4 center columns only when they are free;
    # the residual Jacobian in scaled space is -J diag(scales)
    intr_active = active[:13 if centers else 9]
    intr_scales = -scales[:13][active[:13]]
    pose_scales = -scales[13:].reshape(n_poses, 6)
    observed_xy = np.ascontiguousarray(observed.T)

    def evaluate(th: np.ndarray, with_jacobian: bool):
        """Residuals, as (2, N) x then y rows, and optionally the prediction
        Jacobian; None when the candidate parameters are not evaluable."""
        try:
            tpp, dist, pose_rows = _unpack(th, f_prime)
            if not np.all(np.isfinite(pose_rows)):
                raise ValueError("pose components must be finite")
            posed = replace(batch, rvecs=pose_rows[:, :3], tvecs=pose_rows[:, 3:])
            out = project_pixels(posed, tpp, dist,
                                 jacobian=with_jacobian, optimize_centers=centers)
        except (ValueError, BehindPlane):
            return None
        pred, J = out if with_jacobian else (out, None)
        r = observed_xy - pred.T
        if not np.all(np.isfinite(r)):
            raise NonFiniteResidual("residual evaluation produced NaN/Inf")
        return r, J

    def linearize(th: np.ndarray):
        """Residuals r and the block normal equations over the active
        parameters in scaled space."""
        ev = evaluate(th, True)
        if ev is None:
            raise NonFiniteResidual("parameters are not evaluable")
        r, J = ev
        if not np.all(np.isfinite(J)):
            raise NonFiniteResidual("Jacobian evaluation produced NaN/Inf")
        eq = _NormalEquations.from_blocks(J, r, starts)
        return r, eq.scaled(intr_active, intr_scales, pose_scales)

    r, eq = linearize(theta)
    cost = float(np.vdot(r, r))
    g0_inf = eq.grad_inf()
    damping = _LM_DAMPING_INIT

    trace: list[dict] = []
    stop = "max_iterations"
    rejected_run = 0
    for iteration in range(options.max_iterations):
        grad_inf = eq.grad_inf()
        if g0_inf > 0 and grad_inf < _GRAD_TOL * g0_inf:
            stop = "gradient"
            break
        d_i, d_p = eq.step(damping)
        step = np.concatenate([d_i, d_p.reshape(-1)])
        step_norm = float(np.linalg.norm(step))
        if step_norm < _STEP_TOL:
            stop = "step"
            break
        candidate = theta.copy()
        candidate[active] += step * scales[active]
        ev = evaluate(candidate, False)
        new_cost = float(np.vdot(ev[0], ev[0])) if ev is not None else math.inf
        accepted = new_cost < cost
        if not accepted and new_cost - cost < _COST_TOL * cost:
            # a rise within rounding noise: the cost sits at its floor, and
            # raising the damping would only shrink the step to nothing
            stop = "cost"
            break
        trace.append({"iteration": iteration, "cost": cost, "candidate_cost": new_cost,
                      "damping": damping, "accepted": accepted,
                      "grad_inf": grad_inf})
        if accepted:
            at_floor = cost - new_cost < _COST_TOL * cost
            theta, cost = candidate, new_cost
            if at_floor:
                r = ev[0]
                stop = "cost"
                break
            r, eq = linearize(theta)
            damping *= _LM_DOWN
            rejected_run = 0
        else:
            damping *= _LM_UP
            rejected_run += 1
            if rejected_run >= _LM_MAX_REJECTED:
                # a long rejection streak after real progress means the cost
                # sits at its numerical floor; only a streak with no accepted
                # step at all signals a genuinely broken setup
                if any(t["accepted"] for t in trace):
                    stop = "rejections"
                    break
                raise DivergedOptimization(
                    f"{rejected_run} consecutive rejected steps at cost {cost}")

    tpp, dist, poses = _unpack(theta, f_prime)
    res = np.ascontiguousarray(r.T)
    rms = float(np.sqrt(np.mean(res**2)))
    result = CalibrationResult(tpp, dist, poses, rms, residual_histogram(res), res)
    return result, trace, stop


def calibrate(observations: Observations, board_points, setting: TppParams,
              options: RefineOptions | None = None) -> CalibrationOutput:
    """Full pipeline: closed-form initialization then damped least squares.

    ``board_points`` is the (n_points, 2) array of board (X, Y) indexed by
    point id, in the pixel units of the observations.  A linear-algebra
    failure inside either stage (say, a normalization that overflowed on
    extreme pixel values) is raised as IllConditioned.
    """
    try:
        linear, _ = linear_calibrate(observations, board_points, setting)
        refined, trace, stop = refine(linear, observations, board_points, options)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"linear algebra failed: {exc}") from exc
    return CalibrationOutput(linear, refined, setting, trace, stop)
