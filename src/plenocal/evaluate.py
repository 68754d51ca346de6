"""Error metrics between calibration results and simulator ground truth.

Calibrated parameters and ground truth are both expressed as scene-side TPP
coordinates (positive-scale convention), so comparisons are plain per
parameter errors; offsets are normalized by the lens-pitch scale when the
true offset is small.
"""

from __future__ import annotations

import math

import numpy as np

from .projection import Pose
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


def pose_errors(estimates: list[Pose], truths: list[Pose]) -> list[dict[str, float]]:
    """Rotation geodesic error (rad) and relative translation error per pose."""
    if len(estimates) != len(truths):
        raise ValueError(f"pose count mismatch: {len(estimates)} vs {len(truths)}")
    out = []
    for est, tru in zip(estimates, truths):
        rot = rotation_angle(est.matrix, tru.matrix)
        denom = max(1.0, float(np.linalg.norm(tru.translation)))
        trans = float(np.linalg.norm(est.translation - tru.translation)) / denom
        out.append({"rotation_rad": rot, "translation_rel": trans})
    return out
