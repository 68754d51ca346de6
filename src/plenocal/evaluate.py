"""Error metrics between calibration results and simulator ground truth.

Calibrated parameters and ground truth are both expressed as scene-side TPP
coordinates (positive-scale convention), so comparisons are plain per
parameter errors; offsets are normalized by the lens-pitch scale when the
true offset is small.
"""

from __future__ import annotations

import math

import numpy as np

from .rotation import rodrigues_matrices
from .tpp import TppParams

INTRINSIC_KEYS = ("k_xy", "k_uv", "u_0", "v_0", "f")


def intrinsic_errors(estimate: TppParams, truth: TppParams) -> dict[str, float]:
    """Per-parameter relative errors of the scene-side intrinsics."""
    out = {}
    for key, est, tru in (("k_xy", estimate.k_x, truth.k_x),
                          ("k_uv", estimate.k_u, truth.k_u),
                          ("f", estimate.f, truth.f)):
        out[key] = abs(est - tru) / abs(tru)
    # offsets can legitimately be near zero; fall back to one lens pitch
    denom = max(abs(truth.u_0), truth.k_u)
    out["u_0"] = abs(estimate.u_0 - truth.u_0) / denom
    denom = max(abs(truth.v_0), truth.k_u)
    out["v_0"] = abs(estimate.v_0 - truth.v_0) / denom
    return out


def mean_intrinsic_error(estimate: TppParams, truth: TppParams) -> float:
    errs = intrinsic_errors(estimate, truth)
    return float(np.mean([errs[k] for k in INTRINSIC_KEYS]))


def settings_match(a: dict, b: dict, tol: float = 1e-9) -> bool:
    """Whether two decode settings, as written by ``io.tpp_to_dict``, agree
    to a relative tolerance; results are comparable only in one gauge."""
    for key in ("k_xy", "k_uv", "u_0", "v_0", "f_prime"):
        va, vb = float(a[key]), float(b[key])
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return False
    return True


def rotation_angle(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic angle between two rotations, radians."""
    cos = (np.trace(Ra @ Rb.T) - 1.0) * 0.5
    return float(math.acos(min(1.0, max(-1.0, cos))))


def pose_errors(estimates: np.ndarray, truths: np.ndarray) -> list[dict[str, float]]:
    """Rotation geodesic error (rad) and relative translation error per pose,
    row by row of two (P, 6) arrays of [rvec | tvec] rows."""
    if len(estimates) != len(truths):
        raise ValueError(f"pose count mismatch: {len(estimates)} vs {len(truths)}")
    est, tru = (np.asarray(p, dtype=float).reshape(-1, 6) for p in (estimates, truths))
    rotations = (rodrigues_matrices(np.ascontiguousarray(p[:, :3])) for p in (est, tru))
    return [{"rotation_rad": rotation_angle(Re, Rt),
             "translation_rel": float(np.linalg.norm(e[3:] - t[3:]))
             / max(1.0, float(np.linalg.norm(t[3:])))}
            for e, t, Re, Rt in zip(est, tru, *rotations)]
