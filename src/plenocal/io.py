"""JSON/CSV serialization of observations, ground truth, and reports.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, floats use repr round-tripping, and nothing timestamp-like goes into
the payloads, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .calibration import CalibrationOutput, CalibrationResult
from .projection import DistortionParams, Observation, Pose
from .rectification import MicroImageCenter, MlaMisalignmentSpec
from .simulator import BoardSpec, PhysicalCameraSpec
from .tpp import TppParams

OBSERVATIONS_SCHEMA = "plenocal.observations/1"
GROUND_TRUTH_SCHEMA = "plenocal.ground_truth/1"
REPORT_SCHEMA = "plenocal.calibration_report/1"
METRICS_SCHEMA = "plenocal.metrics/1"
RECTIFICATION_SCHEMA = "plenocal.rectification/1"
CENTERS_SCHEMA = "plenocal.centers/1"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def dump_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tpp_to_dict(tpp: TppParams) -> dict:
    return {"k_xy": tpp.k_x, "k_uv": tpp.k_u, "u_0": tpp.u_0, "v_0": tpp.v_0,
            "f": tpp.f, "f_prime": tpp.f_prime}


def tpp_from_dict(d: dict) -> TppParams:
    return TppParams.isotropic(d["k_xy"], d["k_uv"], d["u_0"], d["v_0"],
                               d["f"], f_prime=d.get("f_prime"))


def dist_to_dict(dist: DistortionParams) -> dict:
    return asdict(dist)


def dist_from_dict(d: dict) -> DistortionParams:
    return DistortionParams(**d)


def pose_to_dict(pose: Pose) -> dict:
    return {"rvec": list(pose.rotation), "tvec": list(pose.translation)}


def pose_from_dict(d: dict) -> Pose:
    return Pose(np.array(d["rvec"]), np.array(d["tvec"]))


def camera_to_dict(spec: PhysicalCameraSpec) -> dict:
    return {"main_focal_mm": spec.main_focal,
            "sensor_origin_mm": list(spec.sensor_origin),
            "mla_origin_mm": list(spec.mla_origin),
            "pixel_pitch_mm": spec.pixel_pitch,
            "sensor_resolution": list(spec.sensor_resolution),
            "lens_pitch_mm": spec.lens_pitch,
            "micro_image_radius_px": spec.micro_image_radius}


def camera_from_dict(d: dict) -> PhysicalCameraSpec:
    return PhysicalCameraSpec(
        main_focal=float(d["main_focal_mm"]),
        sensor_origin=np.array(d["sensor_origin_mm"], dtype=float),
        mla_origin=np.array(d["mla_origin_mm"], dtype=float),
        pixel_pitch=float(d["pixel_pitch_mm"]),
        sensor_resolution=(int(d["sensor_resolution"][0]),
                           int(d["sensor_resolution"][1])),
        lens_pitch=float(d["lens_pitch_mm"]),
        micro_image_radius=float(d["micro_image_radius_px"]))


def board_to_dict(board: BoardSpec) -> dict:
    return {"rows": board.rows, "cols": board.cols, "cell_mm": list(board.cell)}


def board_from_dict(d: dict) -> BoardSpec:
    return BoardSpec(rows=int(d["rows"]), cols=int(d["cols"]),
                     cell=(float(d["cell_mm"][0]), float(d["cell_mm"][1])))


def mla_to_dict(mla: MlaMisalignmentSpec) -> dict:
    return {"rotation_rvec": list(mla.rotation), "offset_mm": list(mla.offset),
            "lens_pitch_mm": mla.lens_pitch, "sensor_gap_mm": mla.sensor_gap,
            "pixel_pitch_mm": mla.pixel_pitch}


# --- observation files -------------------------------------------------------

def write_observations(path, observations: list[Observation], *, board_rows: int,
                       board_cols: int, cell_mm, pixel_pitch_mm: float,
                       sensor_px) -> None:
    poses: dict[int, list[Observation]] = {}
    for o in observations:
        poses.setdefault(o.pose_id, []).append(o)
    payload = {
        "schema": OBSERVATIONS_SCHEMA,
        "board": {"rows": board_rows, "cols": board_cols,
                  "cell_mm": [float(cell_mm[0]), float(cell_mm[1])]},
        "pixel_pitch_mm": float(pixel_pitch_mm),
        "sensor_px": [int(sensor_px[0]), int(sensor_px[1])],
        "poses": [
            {"id": pid,
             "observations": [
                 {"point_id": o.point_id, "lens": [o.lens_i, o.lens_j],
                  "pixel": [o.px, o.py]}
                 for o in sorted(poses[pid],
                                 key=lambda o: (o.point_id, o.lens_i, o.lens_j))]}
            for pid in sorted(poses)],
    }
    dump_json(path, payload)


def read_observations(path):
    """Returns (observations, board_points_px dict, meta dict).

    Raises ValueError on a non-finite pixel or on a (pose, point, lens)
    record that appears more than once.
    """
    payload = load_json(path)
    if payload.get("schema") != OBSERVATIONS_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    board = payload["board"]
    pitch = float(payload["pixel_pitch_mm"])
    cell = board["cell_mm"]
    points = {}
    for r in range(int(board["rows"])):
        for c in range(int(board["cols"])):
            points[r * int(board["cols"]) + c] = np.array(
                [c * cell[0] / pitch, r * cell[1] / pitch])
    observations = []
    seen = set()
    for pose in payload["poses"]:
        pid = int(pose["id"])
        for rec in pose["observations"]:
            o = Observation(
                pid, int(rec["point_id"]), int(rec["lens"][0]), int(rec["lens"][1]),
                float(rec["pixel"][0]), float(rec["pixel"][1]))
            key = (o.pose_id, o.point_id, o.lens_i, o.lens_j)
            if not (math.isfinite(o.px) and math.isfinite(o.py)):
                raise ValueError(f"{path}: non-finite pixel for (pose, point, lens) {key}")
            if key in seen:
                raise ValueError(f"{path}: repeated (pose, point, lens) record {key}")
            seen.add(key)
            observations.append(o)
    meta = {"board": board, "pixel_pitch_mm": pitch,
            "sensor_px": tuple(payload.get("sensor_px", (0, 0)))}
    return observations, points, meta


# --- ground truth sidecar -------------------------------------------------------

def write_ground_truth(path, *, tpp: TppParams, tpp_interior: TppParams,
                       dist: DistortionParams, poses: list[Pose],
                       setting: TppParams, noise_sigma: float, seed: int,
                       physical: dict, misalignment: dict | None = None) -> None:
    payload = {
        "schema": GROUND_TRUTH_SCHEMA,
        "frame_convention": (
            "scene-side conjugate planes; +z from the x-y plane toward the u-v "
            "plane; x/y mirrored so plane scales are positive"),
        "tpp": tpp_to_dict(tpp),
        "tpp_interior": tpp_to_dict(tpp_interior),
        "distortion": dist_to_dict(dist),
        "poses": [dict(id=k, **pose_to_dict(p)) for k, p in enumerate(poses)],
        "setting": tpp_to_dict(setting),
        "noise_sigma": float(noise_sigma),
        "seed": int(seed),
        "physical": physical,
        "misalignment": misalignment,
    }
    dump_json(path, payload)


def read_ground_truth(path) -> dict:
    payload = load_json(path)
    if payload.get("schema") != GROUND_TRUTH_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload


# --- calibration report ---------------------------------------------------------

def result_to_dict(result: CalibrationResult) -> dict:
    return {
        "tpp": tpp_to_dict(result.tpp),
        "distortion": dist_to_dict(result.dist),
        "poses": [dict(id=k, **pose_to_dict(p)) for k, p in enumerate(result.poses)],
        "rms_px": result.rms,
        "residual_histogram": [[edge, count]
                               for edge, count in result.residual_histogram],
    }


def result_from_dict(d: dict) -> CalibrationResult:
    return CalibrationResult(
        tpp=tpp_from_dict(d["tpp"]),
        dist=dist_from_dict(d["distortion"]),
        poses=[pose_from_dict(p) for p in d["poses"]],
        rms=float(d["rms_px"]),
        residual_histogram=[(float(e), int(c))
                            for e, c in d.get("residual_histogram", [])])


def write_report(path, output: CalibrationOutput, *, options: dict) -> None:
    payload = {
        "schema": REPORT_SCHEMA,
        "setting": tpp_to_dict(output.setting),
        "options": options,
        "linear": result_to_dict(output.linear),
        "refined": result_to_dict(output.refined),
        "refinement": {
            "iterations": len(output.trace),
            "accepted_steps": sum(1 for t in output.trace if t["accepted"]),
            "trace": output.trace,
        },
    }
    dump_json(path, payload)


def read_report(path) -> dict:
    payload = load_json(path)
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload


def write_residual_csv(path, observations: list[Observation],
                       residuals: np.ndarray) -> None:
    lines = ["pose_id,point_id,i,j,dx,dy"]
    for o, (dx, dy) in zip(observations, residuals):
        lines.append(f"{o.pose_id},{o.point_id},{o.lens_i},{o.lens_j},{dx!r},{dy!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- rectification artifacts ------------------------------------------------------

def write_centers(path, centers: list[MicroImageCenter]) -> None:
    payload = {
        "schema": CENTERS_SCHEMA,
        "centers": [{"label": [c.i, c.j], "pixel": [c.x, c.y]} for c in centers],
    }
    dump_json(path, payload)


def read_centers(path) -> list[MicroImageCenter]:
    payload = load_json(path)
    if payload.get("schema") != CENTERS_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return [MicroImageCenter(int(c["label"][0]), int(c["label"][1]),
                             float(c["pixel"][0]), float(c["pixel"][1]))
            for c in payload["centers"]]


def write_rectification(path, *, homography: np.ndarray, fitted_pitch: float,
                        rms: float, slope_range_before: float | None,
                        slope_range_after: float | None, centers_detected: int) -> None:
    payload = {
        "schema": RECTIFICATION_SCHEMA,
        "homography": [[float(v) for v in row] for row in homography],
        "fitted_pitch_px": float(fitted_pitch),
        "fit_rms_px": float(rms),
        "slope_range_before": slope_range_before,
        "slope_range_after": slope_range_after,
        "centers_detected": int(centers_detected),
    }
    dump_json(path, payload)


def write_metrics(path, payload: dict) -> None:
    payload = {"schema": METRICS_SCHEMA, **payload}
    dump_json(path, payload)
