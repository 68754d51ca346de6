"""Batch command-line front end: simulate | rectify | calibrate | evaluate.

Every command writes its fully resolved configuration next to its outputs and
is deterministic for fixed seeds.  Exit codes are a stable contract:

    2  configuration / argument error
    3  simulation (generation) failure
    4  calibration failure
    5  gauge mismatch between result and ground truth
    6  center detection / rectification failure
"""

import os

# honor the thread cap before numpy pulls in its BLAS thread pools
_threads = os.environ.get("PLENOCAL_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .calibration import RefineOptions, calibrate, setting_from_observations
from .errors import PlenocalError
from .evaluate import (intrinsic_errors, mean_intrinsic_error, pose_errors,
                       settings_match)
# residuals stays bound here: the benchmark's tracer (bench/workloads.py)
# wraps cli.residuals
from .projection import DistortionParams, residuals  # noqa: F401
from .rectification import (detect_centers, estimate_rectifying_homography,
                            read_pgm, rectify_observations, row_slopes, write_pgm)
from .simulator import (aligned_mla, default_envelope, default_setting,
                        generate_poses, reference_board, reference_camera,
                        physical_to_tpp, synthesize_observations,
                        synthesize_white_image)
from .tpp import TppParams

log = logging.getLogger("plenocal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_CALIBRATION = 4
EXIT_GAUGE = 5
EXIT_DETECTION = 6


class ConfigError(Exception):
    pass


# what reading a configuration or an input file raises on malformed content,
# including a JSON value of the wrong type (null where a number belongs, a key
# a record type does not take) and an id or label too large for int64; each is
# a configuration error, exit 2
_CONFIG_ERRORS = (ConfigError, OSError, json.JSONDecodeError, KeyError,
                  OverflowError, TypeError, ValueError)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_config(out: Path, payload: dict) -> None:
    io.dump_json(out / "run_config.json", payload)


# --- simulate -----------------------------------------------------------------

def _load_simulate_config(args) -> dict:
    cfg = {
        "camera": io.camera_to_dict(reference_camera()),
        "board": io.board_to_dict(reference_board()),
        "poses": 12,
        "sigma": 0.0,
        "seed": 0,
        "distortion": None,
        "misalignment_deg": None,
        "white_image": False,
        "scene_range_mm": [1300.0, 1700.0],
        "max_rotation_deg": 40.0,
    }
    if args.config:
        cfg.update(io.load_json(args.config))
    for key in ("poses", "sigma", "seed"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.white_image:
        cfg["white_image"] = True
    if args.misalign_deg is not None:
        cfg["misalignment_deg"] = list(args.misalign_deg)
    if not _is_int(cfg["poses"]) or cfg["poses"] < 1:
        raise ConfigError(f"poses must be a positive integer, got {cfg['poses']!r}")
    if not _finite_real(cfg["sigma"]) or cfg["sigma"] < 0:
        raise ConfigError(
            f"sigma must be a finite non-negative number, got {cfg['sigma']!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    if not _finite_real(cfg["max_rotation_deg"]) or cfg["max_rotation_deg"] < 0:
        raise ConfigError("max_rotation_deg must be a finite non-negative number, "
                          f"got {cfg['max_rotation_deg']!r}")
    if not _finite_reals(cfg["scene_range_mm"], 2):
        raise ConfigError(
            f"scene_range_mm must be two finite numbers, got {cfg['scene_range_mm']!r}")
    if cfg["misalignment_deg"] is not None and not _finite_reals(cfg["misalignment_deg"], 3):
        raise ConfigError("misalignment_deg must be three finite numbers, "
                          f"got {cfg['misalignment_deg']!r}")
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _finite_reals(values, count: int) -> bool:
    return (isinstance(values, (list, tuple)) and len(values) == count
            and all(map(_finite_real, values)))


def cmd_simulate(args) -> int:
    try:
        cfg = _load_simulate_config(args)
        camera = io.camera_from_dict(cfg["camera"])
        board = io.board_from_dict(cfg["board"])
        dist = (DistortionParams(**cfg["distortion"]) if cfg["distortion"]
                else DistortionParams())
        envelope = default_envelope(camera, board,
                                    tuple(cfg["scene_range_mm"]),
                                    max_rotation_deg=cfg["max_rotation_deg"])
        # a misaligned MLA and the white image both need the array's pose,
        # which aligned_mla refuses unless the sensor sits behind the MLA
        mla = None
        if cfg["misalignment_deg"] is not None:
            rvec = np.radians(np.asarray(cfg["misalignment_deg"], dtype=float))
            mla = aligned_mla(camera, rotation=rvec)
            if any((dist.s1, dist.s2, dist.t1, dist.t2)):
                raise ConfigError("distortion cannot be combined with "
                                  "misalignment_deg")
        elif cfg["white_image"]:
            aligned_mla(camera)
    except _CONFIG_ERRORS as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    out = _out_dir(args)
    try:
        poses = generate_poses(cfg["poses"], cfg["seed"], envelope)
        observations = synthesize_observations(
            camera, board, poses, dist, cfg["sigma"], cfg["seed"] + 1,
            misalignment=mla)
        tpp_in, tpp_out = physical_to_tpp(camera)
        io.write_observations(
            out / "observations.json", observations,
            board_rows=board.rows, board_cols=board.cols, cell_mm=board.cell,
            pixel_pitch_mm=camera.pixel_pitch, sensor_px=camera.sensor_resolution)
        io.write_ground_truth(
            out / "ground_truth.json", tpp=tpp_out, tpp_interior=tpp_in,
            dist=dist, poses=poses, setting=default_setting(camera),
            noise_sigma=cfg["sigma"], seed=cfg["seed"],
            physical=io.camera_to_dict(camera),
            misalignment=io.mla_to_dict(mla) if mla is not None else None)
        if cfg["white_image"]:
            write_pgm(out / "white.pgm", synthesize_white_image(camera, mla))
        _write_run_config(out, {"command": "simulate", **cfg})
    except PlenocalError as exc:
        log.error("simulation failed: %s: %s", type(exc).__name__, exc)
        return EXIT_GENERATION
    log.info("simulated %d observations over %d poses", len(observations),
             cfg["poses"])
    return EXIT_OK


# --- calibrate -----------------------------------------------------------------

def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    try:
        observations, board_points, meta = io.read_observations(args.observations)
        if args.setting:
            setting = io.tpp_from_dict(io.load_json(args.setting))
        else:
            setting = setting_from_observations(observations, meta["sensor_px"])
        if args.max_iterations < 1:
            raise ConfigError("--max-iterations must be at least 1")
        if args.fixed_fprime is not None:
            if args.fixed_fprime <= 0:
                raise ConfigError("--fixed-fprime must be positive")
            setting = TppParams.isotropic(setting.k_x, setting.k_u, setting.u_0,
                                          setting.v_0, args.fixed_fprime,
                                          f_prime=args.fixed_fprime)
    except _CONFIG_ERRORS as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    options = RefineOptions(
        optimize_distortion_centers=args.optimize_distortion_centers,
        optimize_xy_distortion=not args.fix_xy_distortion,
        max_iterations=args.max_iterations,
        sensor_size=meta["sensor_px"] if meta["sensor_px"][0] else None)
    try:
        output = calibrate(observations, board_points, setting, options)
    except PlenocalError as exc:
        log.error("calibration failed: %s: %s", type(exc).__name__, exc)
        return EXIT_CALIBRATION
    if output.stop == "max_iterations":
        log.warning("refinement stopped at --max-iterations %d before converging",
                    args.max_iterations)
    option_echo = {
        "optimize_distortion_centers": args.optimize_distortion_centers,
        "fix_xy_distortion": args.fix_xy_distortion,
        "max_iterations": args.max_iterations,
    }
    io.write_report(out / "report.json", output, options=option_echo)
    io.write_residual_csv(out / "residuals.csv", observations,
                          output.refined.residuals)
    _write_run_config(out, {
        "command": "calibrate", "observations": str(args.observations),
        "setting": io.tpp_to_dict(setting), **option_echo})
    log.info("linear RMS %.6g px, refined RMS %.6g px",
             output.linear.rms, output.refined.rms)
    return EXIT_OK


# --- evaluate -----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    try:
        report = io.read_report(args.result)
        truth = io.read_ground_truth(args.truth)
        same_gauge = settings_match(report["setting"], truth["setting"])
        tpp_true = io.tpp_from_dict(truth["tpp"])
        poses_true = io.poses_from_records(truth["poses"])
        results = {stage: io.result_from_dict(report[stage])
                   for stage in ("linear", "refined")}
    except _CONFIG_ERRORS as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    if not same_gauge:
        log.error("gauge mismatch: result and ground truth use different "
                  "decode settings")
        return EXIT_GAUGE
    payload = {}
    for stage, result in results.items():
        if len(result.poses) != len(poses_true):
            log.error("gauge mismatch: %d estimated poses vs %d ground-truth poses",
                      len(result.poses), len(poses_true))
            return EXIT_GAUGE
        errs = intrinsic_errors(result.tpp, tpp_true)
        payload[stage] = {
            "intrinsic_errors": errs,
            "mean_intrinsic_error": mean_intrinsic_error(result.tpp, tpp_true),
            "pose_errors": pose_errors(result.poses, poses_true),
            "rms_px": result.rms,
        }
    io.write_metrics(out / "metrics.json", payload)
    _write_run_config(out, {"command": "evaluate", "result": str(args.result),
                            "truth": str(args.truth)})
    log.info("refined mean intrinsic error %.3e",
             payload["refined"]["mean_intrinsic_error"])
    return EXIT_OK


# --- rectify -----------------------------------------------------------------

def cmd_rectify(args) -> int:
    out = _out_dir(args)
    try:
        observations, board_points, meta = io.read_observations(args.observations)
        centers = io.read_centers(args.centers) if args.centers else None
        pitch = args.pitch
        if args.white_image and pitch is None:
            pitch = setting_from_observations(observations, meta["sensor_px"]).k_u
    except _CONFIG_ERRORS as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    try:
        if centers is None:
            centers = detect_centers(read_pgm(args.white_image), pitch)
        fit = estimate_rectifying_homography(centers)
        before = row_slopes(centers)
        after = row_slopes(rectify_observations(centers, fit.homography))
    except (PlenocalError, OSError, ValueError) as exc:
        log.error("rectification failed: %s: %s", type(exc).__name__, exc)
        return EXIT_DETECTION
    range_before, range_after = (float(np.ptp([s for _, s in slopes]))
                                 for slopes in (before, after))
    rectified = rectify_observations(observations, fit.homography)
    board = meta["board"]
    io.write_observations(
        out / "observations_rectified.json", rectified,
        board_rows=board["rows"], board_cols=board["cols"], cell_mm=board["cell_mm"],
        pixel_pitch_mm=meta["pixel_pitch_mm"], sensor_px=meta["sensor_px"])
    io.write_centers(out / "centers.json", centers)
    io.write_rectification(
        out / "rectification.json", homography=fit.homography,
        fitted_pitch=fit.fitted_pitch, rms=fit.rms,
        slope_range_before=range_before, slope_range_after=range_after,
        centers_detected=len(centers))
    _write_run_config(out, {
        "command": "rectify", "observations": str(args.observations),
        "white_image": str(args.white_image) if args.white_image else None,
        "centers": str(args.centers) if args.centers else None,
        "pitch": args.pitch})
    log.info("slope range %.3e -> %.3e over %d centers",
             range_before, range_after, len(centers))
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plenocal",
        description="Focused plenoptic camera calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic observations")
    p.add_argument("--config", type=Path, help="JSON config overriding the defaults")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None, help="pixel noise std dev")
    p.add_argument("--poses", type=int, default=None)
    p.add_argument("--white-image", action="store_true")
    p.add_argument("--misalign-deg", type=float, nargs=3, metavar=("RX", "RY", "RZ"),
                   help="MLA rotation in degrees (Rodrigues components)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="closed-form + refined calibration")
    p.add_argument("observations", type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--setting", type=Path, help="JSON decode setting")
    p.add_argument("--fixed-fprime", type=float, default=None)
    p.add_argument("--optimize-distortion-centers", action="store_true")
    p.add_argument("--fix-xy-distortion", action="store_true",
                   help="freeze the x-y plane radial coefficients at zero")
    p.add_argument("--max-iterations", type=int, default=200)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="compare a report against ground truth")
    p.add_argument("result", type=Path)
    p.add_argument("truth", type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rectify", help="estimate and apply the rectifying homography")
    p.add_argument("observations", type=Path)
    p.add_argument("--white-image", type=Path)
    p.add_argument("--centers", type=Path)
    p.add_argument("--pitch", type=float, default=None,
                   help="expected micro-image pitch in pixels")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_rectify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rectify" and bool(args.white_image) == bool(args.centers):
        parser.error("rectify needs exactly one of --white-image or --centers")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
