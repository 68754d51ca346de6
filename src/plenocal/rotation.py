"""Rodrigues axis-angle rotations and their exact derivatives."""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-10


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


def _axis_angle(rvecs: np.ndarray):
    """Angles, small-angle mask and unit axes of (P, 3) Rodrigues vectors;
    small angles read 1 so the axes stay finite.  Each norm goes through
    the same BLAS dot product as ``np.linalg.norm`` on its row alone."""
    theta = np.sqrt((rvecs[:, None, :] @ rvecs[:, :, None])[:, 0, 0])
    small = theta < _SMALL_ANGLE
    theta = np.where(small, 1.0, theta)
    return theta, small, rvecs / theta[:, None]


def _skews(v: np.ndarray) -> np.ndarray:
    """(P, 3, 3) cross-product matrices of (P, 3) vectors."""
    S = np.zeros(v.shape[:1] + (3, 3))
    S[:, 0, 1], S[:, 0, 2] = -v[:, 2], v[:, 1]
    S[:, 1, 0], S[:, 1, 2] = v[:, 2], -v[:, 0]
    S[:, 2, 0], S[:, 2, 1] = -v[:, 1], v[:, 0]
    return S


def rodrigues_matrices(rvecs: np.ndarray) -> np.ndarray:
    """(P, 3, 3) rotation matrices of (P, 3) Rodrigues vectors; each equals
    :func:`rodrigues_matrix` of its row, bit for bit."""
    rvecs = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    theta, small, k = _axis_angle(rvecs)
    K = _skews(k)
    R = np.eye(3) + np.sin(theta)[:, None, None] * K \
        + (1.0 - np.cos(theta))[:, None, None] * (K @ K)
    R[small] = np.eye(3) + _skews(rvecs[small])
    return R


def rodrigues_vector(R: np.ndarray) -> np.ndarray:
    """Log map: rotation matrix to Rodrigues vector (angle in [0, pi])."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _SMALL_ANGLE:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) * 0.5
    if np.pi - theta < 1e-6:
        # near pi the antisymmetric part is ill conditioned; use the symmetric part
        A = (R + np.eye(3)) * 0.5
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs from the off-diagonals relative to the largest component
        m = int(np.argmax(axis))
        for i in range(3):
            if i != m and A[m, i] < 0:
                axis[i] = -axis[i]
        axis /= np.linalg.norm(axis)
        return axis * theta
    axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return axis * (theta / (2.0 * np.sin(theta)))


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Polar projection of a 3x3 matrix onto the orthogonal group.

    Returns U @ Vt without any determinant fix-up, so a reflection in the
    input stays a reflection in the output and can be detected by the caller.
    """
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    return U @ Vt


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


def rotation_basis_jacobians(rvecs: np.ndarray) -> np.ndarray:
    """(P, 3, 3, 3) derivatives of R(rvec) e_b wrt rvec at the basis vectors
    e_b, for (P, 3) Rodrigues vectors: entry [p, b] equals
    ``rotate_points_jacobian(rvecs[p], np.eye(3))[b]`` bit for bit.  Since
    d(R p)/d rvec is linear in p, these three give it for every point.
    """
    rvecs = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    eye = np.eye(3)
    theta, small, k = _axis_angle(rvecs)
    s, c = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    kxp = np.cross(k[:, None, :], eye[None, :, :])          # k x e_b
    # d(R e_b) = A dtheta + B dk, as in rotate_points_jacobian with p = e_b
    A = -eye * s + kxp * c + (k[:, None, :] * k[:, :, None]) * s
    B = -s[:, :, :, None] * _skews(eye)[None]               # -s [e_b]x
    B += (1.0 - c)[:, :, :, None] * (k[:, :, None, None] * eye
                                     + k[:, None, :, None] * eye[None, :, None, :])
    proj = (eye - k[:, :, None] * k[:, None, :]) / theta[:, None, None]
    G = A[:, :, :, None] * k[:, None, None, :] + B @ proj[:, None]
    G[small] = _skews(-eye)                                 # limit: -[e_b]x
    return G
