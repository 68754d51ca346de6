"""Reference implementations the tests compare the production code against.

Each is the direct scalar form of a formula that ``plenocal`` evaluates in
batched or eliminated form: the per-vector Rodrigues rotation and its
derivative (``rotation.rodrigues_matrices``, ``rotation_basis_jacobians``),
the row-major radial distortion factors and 2x2 Jacobians
(``projection.project_pixels``) and the paper's closed form of Q
(``calibration.solve_q``).
"""

import numpy as np

from plenocal.rotation import _SMALL_ANGLE


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rodrigues_matrix(rvec: np.ndarray) -> np.ndarray:
    """Expand a Rodrigues vector (axis * angle, radians) to a rotation matrix."""
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    theta = float(np.linalg.norm(rvec))
    if theta < _SMALL_ANGLE:
        return np.eye(3) + skew(rvec)
    k = rvec / theta
    K = skew(k)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def rotate_points_jacobian(rvec: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Derivative of R(rvec) @ p with respect to rvec, for a batch of points.

    Parameters
    ----------
    rvec : (3,) Rodrigues vector.
    points : (N, 3) points being rotated.

    Returns
    -------
    (N, 3, 3) array G with G[n, a, b] = d(R p_n)_a / d rvec_b.
    """
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    theta = float(np.linalg.norm(rvec))
    if theta < _SMALL_ANGLE:
        # limit of the exact formula: d(Rp)/dv -> -[p]x
        G = np.zeros((n, 3, 3))
        G[:, 0, 1] = pts[:, 2]
        G[:, 0, 2] = -pts[:, 1]
        G[:, 1, 0] = -pts[:, 2]
        G[:, 1, 2] = pts[:, 0]
        G[:, 2, 0] = pts[:, 1]
        G[:, 2, 1] = -pts[:, 0]
        return G

    k = rvec / theta
    s, c = np.sin(theta), np.cos(theta)
    kp = pts @ k                                   # (N,) k . p
    kxp = np.cross(np.broadcast_to(k, pts.shape), pts)  # (N, 3) k x p

    # d(Rp) = A dtheta + B dk, with dtheta = k^T dv, dk = (I - kk^T)/theta dv
    A = -pts * s + kxp * c + (k[None, :] * kp[:, None]) * s          # (N, 3)
    B = np.empty((n, 3, 3))
    # B = -s [p]x + (1-c) ((k.p) I + k p^T)
    B[:, 0, 0] = 0.0
    B[:, 0, 1] = s * pts[:, 2]
    B[:, 0, 2] = -s * pts[:, 1]
    B[:, 1, 0] = -s * pts[:, 2]
    B[:, 1, 1] = 0.0
    B[:, 1, 2] = s * pts[:, 0]
    B[:, 2, 0] = s * pts[:, 1]
    B[:, 2, 1] = -s * pts[:, 0]
    B[:, 2, 2] = 0.0
    B += (1.0 - c) * (kp[:, None, None] * np.eye(3)[None, :, :]
                      + k[None, :, None] * pts[:, None, :])
    proj = (np.eye(3) - np.outer(k, k)) / theta
    return A[:, :, None] * k[None, None, :] + B @ proj


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


def q_entries(k_xy: float, k_uv: float, u_0: float, v_0: float, f: float,
              f_prime: float) -> np.ndarray:
    """Exact distinct entries (q11, q13, q23, q33, q34, q44) of P^-T P^-1 for
    the plane transform: the paper's closed form of Q, which
    ``calibration.solve_q`` inverts by structured elimination."""
    q11 = 1.0 / (f**2 * k_xy**2 * k_uv**2)
    q13 = -u_0 * q11 / f_prime
    q23 = -v_0 * q11 / f_prime
    q33 = 1.0 / (f_prime**2 * k_xy**2) + (u_0**2 + v_0**2) * q11 / f_prime**2 \
        + (k_uv - k_xy)**2 * q11 / f_prime**2
    q34 = (k_uv - k_xy) * q11 * k_xy / f_prime
    q44 = 1.0 / (f**2 * k_uv**2)
    return np.array([q11, q13, q23, q33, q34, q44])
