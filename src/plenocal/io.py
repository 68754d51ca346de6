"""JSON/CSV serialization of observations, ground truth, and reports.

All writers are atomic (temp file + rename) and deterministic: keys are
sorted, floats use repr round-tripping, and nothing timestamp-like goes into
the payloads, so identical inputs give byte-identical files.  The large
files (observations, centers) are written compactly, which lets ``json`` use
its C encoder; the small ones are indented for reading.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .calibration import CalibrationOutput, CalibrationResult
from .projection import DistortionParams, Observations
from .rectification import MicroImageCenters
from .simulator import BoardSpec, PhysicalCameraSpec
from .tpp import TppParams

OBSERVATIONS_SCHEMA = "plenocal.observations/1"
GROUND_TRUTH_SCHEMA = "plenocal.ground_truth/1"
REPORT_SCHEMA = "plenocal.calibration_report/1"
METRICS_SCHEMA = "plenocal.metrics/1"
RECTIFICATION_SCHEMA = "plenocal.rectification/1"
CENTERS_SCHEMA = "plenocal.centers/1"

# ingest rejects a pixel farther outside the sensor than this many sensor
# widths (x) or heights (y)
SENSOR_MARGIN = 1.0


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def dump_json(path, payload: dict, *, compact: bool = False) -> None:
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    atomic_write_text(path, json.dumps(payload, sort_keys=True, **layout) + "\n")


def load_json(path) -> dict:
    """The JSON object in ``path``; ValueError when its top level is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level is a JSON {type(payload).__name__}, "
                         "not an object")
    return payload


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


def poses_to_records(ids, poses: np.ndarray) -> list[dict]:
    """One ``{id, rvec, tvec}`` record per [rvec | tvec] row, with its id."""
    return [{"id": k, "rvec": row[:3], "tvec": row[3:]}
            for k, row in zip(np.asarray(ids).tolist(),
                              np.asarray(poses, dtype=float).tolist())]


def poses_from_records(records: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """The (P,) ids and (P, 6) [rvec | tvec] rows of pose records, in record
    order; ValueError unless the ids are distinct JSON integers and each
    ``rvec`` and ``tvec`` is three finite numbers."""
    ids = [r["id"] for r in records]
    if not _integral(ids) or len(set(ids)) != len(ids):
        raise ValueError(f"pose record ids must be distinct JSON integers, got {ids}")
    parts = [np.asarray(r[key], dtype=float) for r in records for key in ("rvec", "tvec")]
    for k, v in enumerate(parts):
        if v.shape != (3,) or not np.isfinite(v).all():
            raise ValueError(f"pose record {k // 2}: {('rvec', 'tvec')[k % 2]} is not "
                             f"three finite numbers: {v.tolist()}")
    return np.array(ids, dtype=np.int64), np.array(parts).reshape(-1, 6)


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
        sensor_resolution=tuple(d["sensor_resolution"]),
        lens_pitch=float(d["lens_pitch_mm"]),
        micro_image_radius=float(d["micro_image_radius_px"]))


def board_to_dict(board: BoardSpec) -> dict:
    return {"rows": board.rows, "cols": board.cols, "cell_mm": list(board.cell)}


def board_from_dict(d: dict) -> BoardSpec:
    return BoardSpec(rows=int(d["rows"]), cols=int(d["cols"]),
                     cell=(float(d["cell_mm"][0]), float(d["cell_mm"][1])))


# --- observation files -------------------------------------------------------

def write_observations(path, observations: Observations, *, board_rows: int,
                       board_cols: int, cell_mm, pixel_pitch_mm: float,
                       sensor_px) -> None:
    """Write a table; ``sensor_px`` None (an unknown sensor) is written [0, 0]."""
    records = [{"point_id": k, "lens": ij, "pixel": xy} for k, ij, xy in
               zip(observations.point.tolist(), observations.lens.tolist(),
                   observations.pixel.tolist())]
    pose_ids, starts = np.unique(observations.pose, return_index=True)
    bounds = np.append(starts, len(observations)).tolist()
    payload = {
        "schema": OBSERVATIONS_SCHEMA,
        "board": {"rows": board_rows, "cols": board_cols,
                  "cell_mm": [float(cell_mm[0]), float(cell_mm[1])]},
        "pixel_pitch_mm": float(pixel_pitch_mm),
        "sensor_px": [int(v) for v in ((0, 0) if sensor_px is None else sensor_px)],
        "poses": [{"id": pid, "observations": records[a:b]}
                  for pid, a, b in zip(pose_ids.tolist(), bounds, bounds[1:])],
    }
    dump_json(path, payload, compact=True)


def read_observations(path):
    """Returns (observations, (n_points, 2) board pixels by point id, meta dict).

    ``meta["sensor_px"]`` is the sensor's (width, height), or None when the
    file states it unknown as [0, 0] (or not at all).  Raises ValueError on a
    board that ``BoardSpec`` refuses, a pixel pitch that is not positive and
    finite, a ``sensor_px`` that is not two JSON integers, both zero or both
    positive, a pose id, point id or lens label that is not a JSON integer, a
    pose id shared by two pose blocks, a non-finite pixel, a (pose, point,
    lens) record that appears more than once, a point id off the board, and,
    for a known sensor, a pixel more than ``SENSOR_MARGIN`` sensor widths or
    heights outside it.
    """
    payload = load_json(path)
    if payload.get("schema") != OBSERVATIONS_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    board = payload["board"]
    pitch = float(payload["pixel_pitch_mm"])
    if not 0.0 < pitch < np.inf:
        raise ValueError(f"{path}: pixel_pitch_mm must be positive and finite, got {pitch}")
    points = board_from_dict(board).points_mm() / pitch
    sensor_px = tuple(payload.get("sensor_px", (0, 0)))
    if not (len(sensor_px) == 2 and _integral(sensor_px)
            and (min(sensor_px) > 0 or sensor_px == (0, 0))):
        raise ValueError(f"{path}: sensor_px must be two non-negative JSON integers, "
                         f"both zero (unknown) or both positive, "
                         f"got {list(sensor_px)!r}")
    sensor_px = sensor_px if sensor_px != (0, 0) else None
    poses = payload["poses"]
    ids = [pose["id"] for pose in poses]
    for k, pose_id in enumerate(ids):
        if not _integral([pose_id]):
            raise ValueError(f"{path}: pose id {pose_id!r} is not a JSON integer")
        if pose_id in ids[:k]:
            raise ValueError(f"{path}: pose id {pose_id} names more than one pose block")
    records = [rec for pose in poses for rec in pose["observations"]]
    point_ids = [rec["point_id"] for rec in records]
    lenses = [rec["lens"] for rec in records]
    if not (_integral(point_ids) and _integral(chain.from_iterable(lenses))):
        pose_id, rec = next((pose["id"], rec) for pose in poses
                            for rec in pose["observations"]
                            if not _integral([rec["point_id"], *rec["lens"]]))
        raise ValueError(f"{path}: record (pose {pose_id}, point {rec['point_id']!r}, "
                         f"lens {rec['lens']!r}) has an id or label that is not a "
                         "JSON integer")
    observations = Observations(
        np.repeat(np.array(ids, dtype=np.int64),
                  [len(pose["observations"]) for pose in poses]),
        point_ids,
        np.array(lenses, dtype=np.int64).reshape(-1, 2),
        np.array([rec["pixel"] for rec in records], dtype=float).reshape(-1, 2))
    _check_records(path, observations, len(points), sensor_px)
    meta = {"board": board, "pixel_pitch_mm": pitch, "sensor_px": sensor_px}
    return observations, points, meta


def _integral(values) -> bool:
    """True when every value is a JSON integer: not a float, bool or string."""
    return set(map(type, values)) <= {int}


def _check_records(path, obs: Observations, n_points: int, sensor_px) -> None:
    """Raise ValueError naming the first (pose, point, lens) record of the
    sorted table that breaks an ingest rule of ``read_observations``."""
    def key(row: int) -> tuple:
        return (int(obs.pose[row]), int(obs.point[row]),
                int(obs.lens[row, 0]), int(obs.lens[row, 1]))

    bad = ~np.isfinite(obs.pixel).all(axis=1)
    if bad.any():
        raise ValueError(
            f"{path}: non-finite pixel for (pose, point, lens) {key(np.argmax(bad))}")
    same = ((obs.pose[1:] == obs.pose[:-1]) & (obs.point[1:] == obs.point[:-1])
            & (obs.lens[1:] == obs.lens[:-1]).all(axis=1))
    if same.any():
        raise ValueError(
            f"{path}: repeated (pose, point, lens) record {key(np.argmax(same))}")
    bad = (obs.point < 0) | (obs.point >= n_points)
    if bad.any():
        raise ValueError(f"{path}: (pose, point, lens) record {key(np.argmax(bad))} "
                         f"names a point off the {n_points}-point board")
    if sensor_px is not None:
        size = np.array(sensor_px, dtype=float)
        margin = SENSOR_MARGIN * size
        bad = ((obs.pixel < -margin) | (obs.pixel > size + margin)).any(axis=1)
        if bad.any():
            row = np.argmax(bad)
            raise ValueError(
                f"{path}: pixel {tuple(obs.pixel[row].tolist())} of (pose, point, lens) "
                f"{key(row)} lies more than {SENSOR_MARGIN:g} sensor width or height "
                f"outside the {int(size[0])}x{int(size[1])} sensor")


# --- ground truth sidecar -------------------------------------------------------

def write_ground_truth(path, *, tpp: TppParams, tpp_interior: TppParams,
                       dist: DistortionParams, poses: np.ndarray,
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
        "poses": poses_to_records(range(len(poses)), poses),
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

def result_to_dict(result: CalibrationResult, pose_ids) -> dict:
    return {
        "tpp": tpp_to_dict(result.tpp),
        "distortion": dist_to_dict(result.dist),
        "poses": poses_to_records(pose_ids, result.poses),
        "rms_px": result.rms,
        "residual_histogram": [[edge, count]
                               for edge, count in result.residual_histogram],
    }


def result_from_dict(d: dict) -> tuple[np.ndarray, CalibrationResult]:
    """The pose ids of a report's result and the result."""
    pose_ids, poses = poses_from_records(d["poses"])
    return pose_ids, CalibrationResult(
        tpp=tpp_from_dict(d["tpp"]),
        dist=dist_from_dict(d["distortion"]),
        poses=poses,
        rms=float(d["rms_px"]),
        residual_histogram=[(float(e), int(c))
                            for e, c in d.get("residual_histogram", [])])


def write_report(path, output: CalibrationOutput, *, options: dict, pose_ids) -> None:
    """The report of a calibration whose pose rows belong to ``pose_ids``,
    the sorted distinct pose ids of its observation table."""
    payload = {
        "schema": REPORT_SCHEMA,
        "setting": tpp_to_dict(output.setting),
        "options": options,
        "linear": result_to_dict(output.linear, pose_ids),
        "refined": result_to_dict(output.refined, pose_ids),
        "refinement": {
            "iterations": len(output.trace),
            "accepted_steps": sum(1 for t in output.trace if t["accepted"]),
            "stop": output.stop,
            "trace": output.trace,
        },
    }
    dump_json(path, payload)


def read_report(path) -> dict:
    payload = load_json(path)
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload


def write_residual_csv(path, observations: Observations,
                       residuals: np.ndarray) -> None:
    """One line per observation, in table order; floats in repr form."""
    lines = ["pose_id,point_id,i,j,dx,dy"]
    lines += [f"{p},{k},{i},{j},{dx!r},{dy!r}" for p, k, (i, j), (dx, dy) in
              zip(observations.pose.tolist(), observations.point.tolist(),
                  observations.lens.tolist(), np.asarray(residuals).tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- rectification artifacts ------------------------------------------------------

def write_centers(path, centers: MicroImageCenters) -> None:
    payload = {
        "schema": CENTERS_SCHEMA,
        "centers": [{"label": ij, "pixel": xy} for ij, xy in
                    zip(centers.label.tolist(), centers.pixel.tolist())],
    }
    dump_json(path, payload, compact=True)


def read_centers(path) -> MicroImageCenters:
    """Raises ValueError on a label entry that is not a JSON integer, on a
    non-finite pixel and on a repeated label."""
    payload = load_json(path)
    if payload.get("schema") != CENTERS_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {payload.get('schema')!r}")
    labels = [rec["label"] for rec in payload["centers"]]
    if not _integral(chain.from_iterable(labels)):
        label = next(ij for ij in labels if not _integral(ij))
        raise ValueError(f"{path}: center label {label!r} is not two JSON integers")
    centers = MicroImageCenters(labels, [rec["pixel"] for rec in payload["centers"]])
    bad = ~np.isfinite(centers.pixel).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: non-finite pixel for center label "
                         f"{tuple(centers.label[np.argmax(bad)].tolist())}")
    same = (centers.label[1:] == centers.label[:-1]).all(axis=1)
    if same.any():
        raise ValueError(f"{path}: repeated center label "
                         f"{tuple(centers.label[np.argmax(same)].tolist())}")
    return centers


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
