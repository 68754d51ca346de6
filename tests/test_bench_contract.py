"""The benchmark's tracer can rebind every plenocal name it lists.

``bench/run.py --trace 1`` wraps the entries of ``workloads.patch_table`` in
place; a name that moved or was renamed would break the traced run only.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from plenocal import calibration, cli, io, simulator
from plenocal.rectification import write_pgm

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_patch_table_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        table = workloads.patch_table(workloads.load_api())
    finally:
        del sys.modules[spec.name]
    assert table
    missing = [(getattr(owner, "__name__", "api"), attr)
               for owner, attr, *_ in table if not hasattr(owner, attr)]
    assert missing == []


def test_refine_calls_project_pixels_through_its_module_name(
        monkeypatch, clean_observations, board_points, setting):
    # the tracer splits projection.project_pixels.{jac,eval} by the
    # ``jacobian`` keyword of calls made through calibration.project_pixels;
    # the linear stage is exact on clean data, so f starts 1 % off to make
    # refine take steps
    linear, _ = calibration.linear_calibrate(clean_observations, board_points,
                                             setting)
    initial = replace(linear, tpp=replace(linear.tpp, f=1.01 * linear.tpp.f))
    original = calibration.project_pixels
    seen = []

    def recorder(*args, **kwargs):
        seen.append(bool(kwargs.get("jacobian")))
        return original(*args, **kwargs)

    monkeypatch.setattr(calibration, "project_pixels", recorder)
    calibration.refine(initial, clean_observations, board_points)
    assert True in seen and False in seen


def test_rectify_calls_detect_centers_through_the_cli_module(
        monkeypatch, tmp_path, camera, board, clean_observations, white_image):
    # the tracer's rectification.detect_centers span wraps calls made through
    # cli.detect_centers, and rectification.centers counts what they return
    obs = tmp_path / "observations.json"
    io.write_observations(obs, clean_observations, board_rows=board.rows,
                          board_cols=board.cols, cell_mm=board.cell,
                          pixel_pitch_mm=camera.pixel_pitch,
                          sensor_px=camera.sensor_resolution)
    pgm = tmp_path / "white.pgm"
    write_pgm(pgm, white_image)
    original = cli.detect_centers
    counts = []

    def recorder(*args, **kwargs):
        centers = original(*args, **kwargs)
        counts.append(len(centers))
        return centers

    monkeypatch.setattr(cli, "detect_centers", recorder)
    pitch = simulator.default_setting(camera).k_u
    assert cli.main(["rectify", str(obs), "--white-image", str(pgm),
                     "--pitch", str(pitch), "--out", str(tmp_path / "rect")]) == 0
    detected = io.load_json(tmp_path / "rect" / "rectification.json")
    assert counts == [detected["centers_detected"]]


def test_synthesize_observations_len_is_row_count(camera, board, poses12,
                                                  noisy_observations):
    # the tracer's simulator.observations and calibration.refine.jacobian_rows
    # take len() of the observations the simulator returns
    assert len(noisy_observations) == noisy_observations.pixel.shape[0] > 0
    few = simulator.synthesize_observations(camera, board, poses12[:1],
                                            simulator.DistortionParams(), 0.0, 1)
    assert 0 < len(few) < len(noisy_observations)


def test_generate_poses_returns_a_list_of_poses(poses12):
    # the tracer's simulator.poses takes len() of what generate_poses returns
    assert isinstance(poses12, list) and len(poses12) == 12
    assert all(isinstance(p, simulator.Pose) for p in poses12)


def test_white_image_is_a_uint16_raster(camera, white_image):
    # cli.simulate hands the raster to write_pgm as a 16-bit image
    assert white_image.dtype == np.uint16
    assert white_image.shape == (camera.height, camera.width)
