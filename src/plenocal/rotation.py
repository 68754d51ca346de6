"""Rodrigues axis-angle rotations and their exact derivatives."""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-10


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
    the test oracle ``oracles.rodrigues_matrix`` of its row, bit for bit."""
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


def rotation_basis_jacobians(rvecs: np.ndarray) -> np.ndarray:
    """(P, 3, 3, 3) derivatives of R(rvec) e_b wrt rvec at the basis vectors
    e_b, for (P, 3) Rodrigues vectors: entry [p, b] equals the test oracle
    ``oracles.rotate_points_jacobian(rvecs[p], np.eye(3))[b]`` bit for bit.
    Since d(R p)/d rvec is linear in p, these three give it for every point.
    """
    rvecs = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    eye = np.eye(3)
    theta, small, k = _axis_angle(rvecs)
    s, c = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    kxp = np.cross(k[:, None, :], eye[None, :, :])          # k x e_b
    # d(R e_b) = A dtheta + B dk, with dtheta = k^T dv, dk = (I - kk^T)/theta dv
    A = -eye * s + kxp * c + (k[:, None, :] * k[:, :, None]) * s
    B = -s[:, :, :, None] * _skews(eye)[None]               # -s [e_b]x
    B += (1.0 - c)[:, :, :, None] * (k[:, :, None, None] * eye
                                     + k[:, None, :, None] * eye[None, :, None, :])
    proj = (eye - k[:, :, None] * k[:, None, :]) / theta[:, None, None]
    G = A[:, :, :, None] * k[:, None, None, :] + B @ proj[:, None]
    G[small] = _skews(-eye)                                 # limit: -[e_b]x
    return G
