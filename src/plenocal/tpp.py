"""Two-parallel-plane (TPP) ray geometry.

A light-field ray is parameterized by its intersections with two parallel
planes: (x, y) on the first plane at z = 0 and (u, v) on the second plane at
z = f.  All operations here are pure functions on those coordinates: building
point-incidence constraints, intersecting ray bundles, and applying the 4x4
projective transformation that a reparameterization of the two planes induces
on reconstructed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRays, PointAtInfinity, SingularParams

# Reconstructed 3D points are plain float arrays of shape (3,).
Point3 = np.ndarray

_RANK_TOL = 1e-8          # smallest/largest singular value ratio for degeneracy
_INFINITY_TOL = 1e-14     # homogeneous w threshold relative to |P (p,1)|
_RATIO_TOL = 1e-9         # admissibility tolerance on k_u/k_x == k_v/k_y


@dataclass(frozen=True, slots=True)
class TppParams:
    """Scales and offsets of a TPP coordinate, plus its plane separations.

    As a plane transform, (x, y, u, v) maps to (k_x x, k_y y, k_u u + u_0,
    k_v v + v_0) and the separation changes from ``f`` to ``f_prime``.  As a
    plain coordinate (a decode setting or a calibrated camera) the two
    separations coincide: rays decode against ``f_prime`` and reconstructed
    geometry lives at separation ``f``.
    """

    k_x: float
    k_y: float
    k_u: float
    k_v: float
    u_0: float
    v_0: float
    f_prime: float
    f: float

    def __post_init__(self) -> None:
        vals = (self.k_x, self.k_y, self.k_u, self.k_v,
                self.u_0, self.v_0, self.f_prime, self.f)
        if not all(math.isfinite(c) for c in vals):
            raise ValueError(f"parameters must be finite, got {vals}")
        for name in ("k_x", "k_y", "k_u", "k_v", "f_prime", "f"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        lhs, rhs = self.k_u / self.k_x, self.k_v / self.k_y
        if abs(lhs - rhs) > _RATIO_TOL * max(abs(lhs), abs(rhs)):
            raise ValueError(
                f"inadmissible scales: k_u/k_x = {lhs!r} but k_v/k_y = {rhs!r}")

    @classmethod
    def isotropic(cls, k_xy: float, k_uv: float, u_0: float, v_0: float,
                  f: float, f_prime: float | None = None) -> "TppParams":
        """Construct with k_x = k_y and k_u = k_v (the calibration assumption)."""
        return cls(k_xy, k_xy, k_uv, k_uv, u_0, v_0,
                   f if f_prime is None else f_prime, f)


def incidence_matrix(rays: np.ndarray) -> np.ndarray:
    """Stacked incidence rows (2N, 4) for an (N, 5) ray array.

    For any point P = (X, Y, Z) on the ray (x, y, u, v, f), its two rows
    satisfy rows @ (X, Y, Z, 1) == 0:

        [f  0  x-u  -f x]
        [0  f  y-v  -f y]
    """
    rays = np.asarray(rays, dtype=float)
    n = rays.shape[0]
    M = np.zeros((2 * n, 4))
    x, y, u, v, f = rays.T
    M[0::2, 0] = f
    M[0::2, 2] = x - u
    M[0::2, 3] = -f * x
    M[1::2, 1] = f
    M[1::2, 2] = y - v
    M[1::2, 3] = -f * y
    return M


def triangulate(rays: np.ndarray) -> tuple[Point3, float]:
    """Least-squares intersection of two or more rays, given as (N, 5).

    The homogeneous system M (P, 1) = 0 is solved as the inhomogeneous
    3-unknown system M[:, :3] P = -M[:, 3] by orthogonal factorization.

    Returns the point and the RMS of the algebraic row residuals.

    Raises
    ------
    DegenerateRays
        If the rays are parallel or coincident (rank-deficient system).
    """
    arr = np.asarray(rays, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"expected N rays of 5 coordinates, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("triangulation needs at least two rays")
    f0 = arr[0, 4]
    if np.any(np.abs(arr[:, 4] - f0) > 1e-9 * abs(f0)):
        raise ValueError("all rays must share the same plane separation")
    M = incidence_matrix(arr)
    A, b = M[:, :3], -M[:, 3]
    # scale invariance: normalize rows so the rank test is meaningful
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] < _RANK_TOL * s[0]:
        raise DegenerateRays(
            f"ray system is rank deficient (singular values {s})")
    point, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    res = A @ point - b
    return point, float(np.sqrt(np.mean(res**2)))


def projective_matrix(params: TppParams) -> np.ndarray:
    """4x4 point transform induced by reparameterizing the two planes.

    A bundle of rays through P that is mapped ray-wise by ``params`` (from
    separation f to f_prime) intersects at the dehomogenized image of this
    matrix applied to (P, 1).
    """
    k_x, k_y, k_u, k_v = params.k_x, params.k_y, params.k_u, params.k_v
    u_0, v_0, fp, f = params.u_0, params.v_0, params.f_prime, params.f
    P = np.array([
        [f * k_u * k_x, 0.0, k_x * u_0, 0.0],
        [0.0, f * k_v * k_x, k_x * v_0, 0.0],
        [0.0, 0.0, fp * k_x, 0.0],
        [0.0, 0.0, k_x - k_u, f * k_u],
    ])
    # det P = f^2 f' k_x^3 k_u^2 k_v; zero only for degenerate parameters
    if np.linalg.det(P) == 0.0:
        raise SingularParams(f"projective matrix is singular for {params}")
    return P


def transform_point(P: np.ndarray, point: Point3) -> Point3:
    """Apply a homogeneous 4x4 transform and dehomogenize."""
    h = np.asarray(P, dtype=float) @ np.append(np.asarray(point, float), 1.0)
    w = h[3]
    if abs(w) < _INFINITY_TOL * np.linalg.norm(h):
        raise PointAtInfinity(f"point {point} maps to infinity (w = {w})")
    return h[:3] / w


def transform_rays(rays: np.ndarray, params: TppParams) -> np.ndarray:
    """Map an (N, 5) ray array through the plane reparameterization."""
    rays = np.asarray(rays, dtype=float)
    out = np.empty_like(rays)
    out[:, 0] = params.k_x * rays[:, 0]
    out[:, 1] = params.k_y * rays[:, 1]
    out[:, 2] = params.k_u * rays[:, 2] + params.u_0
    out[:, 3] = params.k_v * rays[:, 3] + params.v_0
    out[:, 4] = params.f_prime
    return out


def decode_virtual_rays(pixels: np.ndarray, lenses: np.ndarray,
                        setting: TppParams) -> np.ndarray:
    """Decode raw-image samples (pixels under labeled micro-lenses) to rays.

    (N, 2) pixels and (N, 2) lens labels give (N, 5) rays; ray k passes
    (k_x px, k_y py, 0) and (k_u i + u_0, k_v j + v_0, f_prime).
    """
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    lenses = np.atleast_2d(np.asarray(lenses, dtype=float))
    n = pixels.shape[0]
    rays = np.empty((n, 5))
    rays[:, 0] = setting.k_x * pixels[:, 0]
    rays[:, 1] = setting.k_y * pixels[:, 1]
    rays[:, 2] = setting.k_u * lenses[:, 0] + setting.u_0
    rays[:, 3] = setting.k_v * lenses[:, 1] + setting.v_0
    rays[:, 4] = setting.f_prime
    return rays
