"""Command-line pipeline: subcommands, files, exit codes, determinism."""

import json

import numpy as np
import pytest

from plenocal import io
from plenocal.cli import main
from plenocal.rectification import detect_centers, read_pgm, write_pgm
from plenocal.simulator import default_setting, reference_camera


def small_config(tmp_path, **overrides):
    """Config with a compact sensor so CLI runs stay quick."""
    cfg = {
        "camera": {
            "main_focal_mm": 50.0,
            "sensor_origin_mm": [-9.0, -6.1, 68.76],
            "mla_origin_mm": [0.07, -0.05, 65.35],
            "pixel_pitch_mm": 0.009,
            "sensor_resolution": [2000, 1350],
            "lens_pitch_mm": 0.3,
            "micro_image_radius_px": 16.5,
        },
        "board": {"rows": 5, "cols": 5, "cell_mm": [27.0, 27.0]},
        "poses": 6,
        "sigma": 0.0,
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        assert (out / "observations.json").exists()
        assert (out / "ground_truth.json").exists()
        assert (out / "run_config.json").exists()
        obs, points, meta = io.read_observations(out / "observations.json")
        assert len(obs) > 0
        assert meta["sensor_px"] == (2000, 1350)

    def test_zero_poses_is_config_error(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x",
                   "--poses", 0) == 2

    def test_negative_sigma_is_config_error(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x",
                   "--sigma", -1.0) == 2

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path, sigma=0.2)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", a, "--seed", 5) == 0
        assert run("simulate", "--config", cfg, "--out", b, "--seed", 5) == 0
        for name in ("observations.json", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_white_image_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out,
                   "--white-image") == 0
        assert (out / "white.pgm").exists()

    def test_distortion_with_misalignment_exit_2(self, tmp_path, caplog):
        cfg = small_config(tmp_path, distortion={"s1": 1e-9})
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out,
                   "--misalign-deg", 0.1, 0, 0) == 2
        assert "misalignment_deg" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--white-image"], ["--misalign-deg", 0.1, 0, 0]],
                             ids=["white-image", "misalign-deg"])
    def test_sensor_in_front_of_mla_exit_2(self, tmp_path, caplog, flags):
        # the sensor mirrored to the far side of the MLA: observations can
        # still be synthesized, but the MLA's pose is undefined
        cfg = small_config(tmp_path)
        payload = json.loads(cfg.read_text())
        camera = payload["camera"]
        mla_z = camera["mla_origin_mm"][2]
        camera["sensor_origin_mm"][2] = 2 * mla_z - camera["sensor_origin_mm"][2]
        cfg.write_text(json.dumps(payload))
        assert run("simulate", "--config", cfg, "--out", tmp_path / "plain") == 0
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out, *flags) == 2
        assert "sensor must sit behind the MLA" in caplog.text
        assert not out.exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = small_config(tmp)
    out = tmp / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    return out


class TestCalibrate:
    def test_noise_free_report(self, sim_dir, tmp_path):
        out = tmp_path / "cal"
        truth = io.read_ground_truth(sim_dir / "ground_truth.json")
        setting_path = tmp_path / "setting.json"
        setting_path.write_text(json.dumps(truth["setting"]))
        assert run("calibrate", sim_dir / "observations.json", "--out", out,
                   "--setting", setting_path) == 0
        report = io.read_report(out / "report.json")
        assert report["refined"]["rms_px"] < 1e-6
        assert (out / "residuals.csv").exists()
        header = (out / "residuals.csv").read_text().splitlines()[0]
        assert header == "pose_id,point_id,i,j,dx,dy"

    def test_residual_csv_rows(self, sim_dir, tmp_path):
        # one numeric row per observation, in table order, matching the
        # refined RMS of the report
        out = tmp_path / "cal"
        assert run("calibrate", sim_dir / "observations.json", "--out", out) == 0
        obs, _, _ = io.read_observations(sim_dir / "observations.json")
        table = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, :4],
                                      np.column_stack([obs.pose, obs.point, obs.lens]))
        rms = np.sqrt(np.mean(table[:, 4:] ** 2))
        assert rms == io.read_report(out / "report.json")["refined"]["rms_px"]

    def test_default_setting_heuristic(self, sim_dir, tmp_path):
        out = tmp_path / "cal"
        assert run("calibrate", sim_dir / "observations.json", "--out", out) == 0
        assert io.read_report(out / "report.json")["refined"]["rms_px"] < 1e-6

    def test_two_pose_file_fails_with_exit_4(self, tmp_path):
        cfg = small_config(tmp_path, poses=2)
        simout = tmp_path / "sim2"
        assert run("simulate", "--config", cfg, "--out", simout) == 0
        assert run("calibrate", simout / "observations.json",
                   "--out", tmp_path / "cal2") == 4

    def test_overflowing_pixel_exit_4(self, sim_dir, tmp_path):
        # finite but huge in a file that states no sensor size: ingest accepts
        # it, the ray normalization overflows
        def huge_pixel(payload):
            payload["sensor_px"] = [0, 0]
            payload["poses"][0]["observations"][0]["pixel"][0] = 1e300
        obs = tampered_observations(sim_dir, tmp_path, huge_pixel)
        setting_path = tmp_path / "setting.json"
        setting_path.write_text(json.dumps(
            io.read_ground_truth(sim_dir / "ground_truth.json")["setting"]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run("calibrate", obs, "--out", tmp_path / "cal",
                       "--setting", setting_path) == 4

    @pytest.mark.parametrize("n", [0, -5])
    def test_max_iterations_below_one_exit_2(self, sim_dir, tmp_path, caplog, n):
        assert run("calibrate", sim_dir / "observations.json", "--out", tmp_path / "cal",
                   "--max-iterations", n) == 2
        assert "--max-iterations must be at least 1" in caplog.text
        assert not (tmp_path / "cal" / "report.json").exists()

    def test_stop_reason_and_iteration_cap_warning(self, tmp_path, caplog):
        cfg = small_config(tmp_path, sigma=0.3)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 0
        obs = tmp_path / "sim" / "observations.json"
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 0
        refinement = io.read_report(tmp_path / "cal" / "report.json")["refinement"]
        assert refinement["stop"] in ("gradient", "step", "cost", "rejections")
        def warnings():
            return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings() == []
        assert run("calibrate", obs, "--out", tmp_path / "capped",
                   "--max-iterations", 3) == 0
        refinement = io.read_report(tmp_path / "capped" / "report.json")["refinement"]
        assert (refinement["iterations"], refinement["stop"]) == (3, "max_iterations")
        assert warnings() == ["refinement stopped at --max-iterations 3 before converging"]

    def test_misaligned_chain_converges_before_the_cap(self, tmp_path):
        # a rectified 12-pose chain on the reference sensor that crawled to
        # the 200-iteration cap, at a mean intrinsic error of 0.181, while
        # the damping was a multiple of the identity
        sim, rect, cal, ev = (tmp_path / name for name in ("sim", "rect", "cal", "ev"))
        assert run("simulate", "--out", sim, "--poses", 12, "--sigma", 0.3,
                   "--seed", 424734013, "--white-image", "--misalign-deg",
                   0.03200015513552813, 0.024000116351646103, 0.49839741621161077) == 0
        setting = tmp_path / "setting.json"
        io.dump_json(setting, io.tpp_to_dict(default_setting(reference_camera())))
        assert run("rectify", sim / "observations.json", "--white-image",
                   sim / "white.pgm", "--out", rect) == 0
        assert run("calibrate", rect / "observations_rectified.json",
                   "--setting", setting, "--out", cal) == 0
        assert run("evaluate", cal / "report.json", sim / "ground_truth.json",
                   "--out", ev) == 0
        refinement = io.read_report(cal / "report.json")["refinement"]
        assert refinement["iterations"] < 200
        assert io.load_json(ev / "metrics.json")["refined"]["mean_intrinsic_error"] < 0.15
        assert refinement["stop"] != "max_iterations"

    def test_noisy_rms_band(self, tmp_path):
        cfg = small_config(tmp_path, sigma=0.3, poses=8)
        simout = tmp_path / "sims"
        assert run("simulate", "--config", cfg, "--out", simout) == 0
        out = tmp_path / "cals"
        assert run("calibrate", simout / "observations.json", "--out", out) == 0
        report = io.read_report(out / "report.json")
        assert 0.24 <= report["refined"]["rms_px"] <= 0.36


def tampered_observations(sim_dir, tmp_path, edit):
    """Copy of the simulated observations file after ``edit(payload)``."""
    payload = json.loads((sim_dir / "observations.json").read_text())
    edit(payload)
    path = tmp_path / "observations.json"
    path.write_text(json.dumps(payload))
    return path


def nan_pixel(payload):
    payload["poses"][0]["observations"][0]["pixel"][0] = float("nan")


def no_poses(payload):
    payload["poses"] = []


def single_lens(payload):
    payload["poses"] = [{"id": 0, "observations": [
        {"point_id": k, "lens": [0, 0], "pixel": [0.0, 0.0]} for k in range(6)]}]


class TestIngestValidation:
    def test_nan_pixel_with_setting_exit_2(self, sim_dir, tmp_path):
        obs = tampered_observations(sim_dir, tmp_path, nan_pixel)
        setting_path = tmp_path / "setting.json"
        setting_path.write_text(json.dumps(
            io.read_ground_truth(sim_dir / "ground_truth.json")["setting"]))
        assert run("calibrate", obs, "--out", tmp_path / "cal",
                   "--setting", setting_path) == 2

    def test_nan_pixel_without_setting_exit_2(self, sim_dir, tmp_path, caplog):
        obs = tampered_observations(sim_dir, tmp_path, nan_pixel)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert "non-finite pixel" in caplog.text
        assert "micro-image pitch" not in caplog.text

    def test_duplicate_record_exit_2(self, sim_dir, tmp_path, caplog):
        def duplicate(payload):
            records = payload["poses"][0]["observations"]
            records.append(dict(records[0]))
        obs = tampered_observations(sim_dir, tmp_path, duplicate)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert run("rectify", obs, "--white-image", tmp_path / "absent.pgm",
                   "--out", tmp_path / "rect") == 2
        assert "repeated (pose, point, lens)" in caplog.text

    @pytest.mark.parametrize("x, y", [(1e300, 10.0), (10.0, -1351.0), (4001.0, 10.0)],
                             ids=["huge-x", "below-sensor", "right-of-sensor"])
    def test_pixel_far_outside_sensor_exit_2(self, sim_dir, tmp_path, caplog, x, y):
        # the file states a 2000 x 1350 sensor; one sensor width or height of
        # margin is allowed on every side
        def far_pixel(payload):
            payload["poses"][1]["observations"][2]["pixel"] = [x, y]
        obs = tampered_observations(sim_dir, tmp_path, far_pixel)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert run("rectify", obs, "--white-image", tmp_path / "absent.pgm",
                   "--out", tmp_path / "rect") == 2
        assert "outside the 2000x1350 sensor" in caplog.text
        assert "(pose, point, lens) (1, " in caplog.text

    def test_pixel_within_sensor_margin_accepted(self, sim_dir, tmp_path):
        def near_pixels(payload):
            records = payload["poses"][1]["observations"]
            records[2]["pixel"] = [-2000.0, 2700.0]
            records[3]["pixel"] = [4000.0, -1350.0]
        obs, _, _ = io.read_observations(
            tampered_observations(sim_dir, tmp_path, near_pixels))
        assert len(obs) > 0

    def test_point_off_board_exit_2(self, sim_dir, tmp_path, caplog):
        def off_board(payload):
            payload["poses"][0]["observations"][0]["point_id"] = 25
        obs = tampered_observations(sim_dir, tmp_path, off_board)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert "off the 25-point board" in caplog.text

    def test_repeated_pose_id_exit_2(self, sim_dir, tmp_path, caplog):
        # two boards under one id would merge into one pose
        obs = tampered_observations(sim_dir, tmp_path,
                                    lambda p: p["poses"][1].update(id=p["poses"][0]["id"]))
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert run("rectify", obs, "--white-image", tmp_path / "absent.pgm",
                   "--out", tmp_path / "rect") == 2
        assert "pose id 0 names more than one pose block" in caplog.text

    @pytest.mark.parametrize("sensor_px", [[-2000, -1350], [2000, -1], [2000.0, 1350],
                                           [2000]],
                             ids=["negative", "negative-height", "float", "one-entry"])
    def test_malformed_sensor_px_exit_2(self, sim_dir, tmp_path, caplog, sensor_px):
        obs = tampered_observations(sim_dir, tmp_path,
                                    lambda p: p.update(sensor_px=sensor_px))
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert run("rectify", obs, "--white-image", tmp_path / "absent.pgm",
                   "--out", tmp_path / "rect") == 2
        assert "sensor_px must be two non-negative JSON integers" in caplog.text

    @pytest.mark.parametrize("fields, message", [
        ({"board": {"rows": 5, "cols": 5, "cell_mm": [0.0, 54.0]}},
         "cell size must be positive"),
        ({"board": {"rows": 1, "cols": 25, "cell_mm": [54.0, 54.0]}}, "at least 2 rows"),
        ({"pixel_pitch_mm": 0.0}, "pixel_pitch_mm must be positive and finite"),
        ({"pixel_pitch_mm": float("inf")}, "pixel_pitch_mm must be positive and finite"),
    ], ids=["zero-cell", "one-row", "zero-pitch", "infinite-pitch"])
    def test_malformed_board_exit_2(self, sim_dir, tmp_path, caplog, fields, message):
        obs = tampered_observations(sim_dir, tmp_path, lambda p: p.update(fields))
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert message in caplog.text

    @pytest.mark.parametrize("edit, record", [
        (lambda p: p["poses"][0]["observations"][0]["lens"].__setitem__(0, 1000.5),
         "lens [1000.5, "),
        (lambda p: p["poses"][0]["observations"][0]["lens"].__setitem__(1, True),
         ", True]"),
        (lambda p: p["poses"][0]["observations"][0].update(point_id=3.0),
         "point 3.0,"),
        (lambda p: p["poses"][1].update(id=1.5), "pose id 1.5"),
        (lambda p: p["poses"][1].update(id="1"), "pose id '1'")],
        ids=["fractional-lens-label", "boolean-lens-label", "float-point-id",
             "fractional-pose-id", "string-pose-id"])
    def test_non_integer_id_or_label_exit_2(self, sim_dir, tmp_path, caplog,
                                            edit, record):
        obs = tampered_observations(sim_dir, tmp_path, edit)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2
        assert run("rectify", obs, "--white-image", tmp_path / "absent.pgm",
                   "--out", tmp_path / "rect") == 2
        assert record in caplog.text
        assert "not a JSON integer" in caplog.text

    @pytest.mark.parametrize("edit, command", [
        (no_poses, "calibrate"), (no_poses, "rectify"), (single_lens, "rectify")],
        ids=["no-poses-calibrate", "no-poses-rectify", "single-lens-rectify"])
    def test_pitch_heuristic_unusable_exit_2(self, sim_dir, tmp_path, caplog,
                                             edit, command):
        obs = tampered_observations(sim_dir, tmp_path, edit)
        white = tmp_path / "white.pgm"
        write_pgm(white, np.full((600, 800), 500, dtype=np.uint16))
        source = ["--white-image", white] if command == "rectify" else []
        assert run(command, obs, *source, "--out", tmp_path / "out") == 2
        assert "cannot estimate a micro-image pitch" in caplog.text


class TestEvaluate:
    def test_noise_free_errors_vanish(self, sim_dir, tmp_path):
        cal = tmp_path / "cal"
        truth = io.read_ground_truth(sim_dir / "ground_truth.json")
        setting_path = tmp_path / "setting.json"
        setting_path.write_text(json.dumps(truth["setting"]))
        assert run("calibrate", sim_dir / "observations.json", "--out", cal,
                   "--setting", setting_path) == 0
        out = tmp_path / "eval"
        assert run("evaluate", cal / "report.json",
                   sim_dir / "ground_truth.json", "--out", out) == 0
        metrics = io.load_json(out / "metrics.json")
        assert metrics["refined"]["mean_intrinsic_error"] < 1e-6
        for pose in metrics["refined"]["pose_errors"]:
            assert pose["rotation_rad"] < 1e-6
            assert pose["translation_rel"] < 1e-6

    def test_gauge_mismatch_exit_5(self, sim_dir, tmp_path):
        cal = tmp_path / "cal"
        assert run("calibrate", sim_dir / "observations.json", "--out", cal) == 0
        truth = io.read_ground_truth(sim_dir / "ground_truth.json")
        truth["setting"]["f_prime"] *= 2.0
        tampered = tmp_path / "truth.json"
        io.dump_json(tampered, truth)
        assert run("evaluate", cal / "report.json", tampered,
                   "--out", tmp_path / "eval") == 5

    @pytest.mark.parametrize("missing", ["setting", "results"])
    def test_malformed_report_exit_2(self, sim_dir, tmp_path, missing):
        truth = io.read_ground_truth(sim_dir / "ground_truth.json")
        setting = {} if missing == "setting" else truth["setting"]
        report = tmp_path / "report.json"
        io.dump_json(report, {"schema": io.REPORT_SCHEMA, "setting": setting})
        assert run("evaluate", report, sim_dir / "ground_truth.json",
                   "--out", tmp_path / "eval") == 2


@pytest.fixture(scope="module")
def report_path(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    assert run("calibrate", sim_dir / "observations.json", "--out", out) == 0
    return out / "report.json"


def null_setting_scale(payload):
    payload["setting"]["k_xy"] = None


def extra_distortion_key(payload):
    payload["refined"]["distortion"]["k3"] = 0.0


class TestWronglyTypedJson:
    """A JSON value of the wrong type is a configuration error, not a
    traceback."""

    @pytest.mark.parametrize("edit", [null_setting_scale, extra_distortion_key],
                             ids=["null-setting-scale", "extra-distortion-key"])
    def test_evaluate_report_exit_2(self, sim_dir, report_path, tmp_path, edit):
        payload = json.loads(report_path.read_text())
        edit(payload)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload))
        assert run("evaluate", report, sim_dir / "ground_truth.json",
                   "--out", tmp_path / "eval") == 2

    @pytest.mark.parametrize("source, edit", [
        ("report", lambda p: p["refined"]["poses"][0].update(rvec=[1, 2])),
        ("report", lambda p: p["linear"]["poses"][1].update(tvec=[1, 2, 3, 4])),
        ("report", lambda p: p["refined"]["poses"][2].update(rvec="abc")),
        ("truth", lambda p: p["poses"][2]["tvec"].__setitem__(1, float("nan"))),
        ("truth", lambda p: p["poses"][0]["rvec"].__setitem__(0, float("inf"))),
        ("truth", lambda p: p["poses"][1].update(tvec=[[1.0, 2.0, 3.0]])),
    ], ids=["report-two-rvec-entries", "report-four-tvec-entries", "report-string-rvec",
            "truth-nan-tvec", "truth-infinite-rvec", "truth-nested-tvec"])
    def test_evaluate_malformed_pose_record_exit_2(self, sim_dir, report_path, tmp_path,
                                                   source, edit):
        # every pose record needs an rvec and a tvec of three finite numbers
        paths = {"report": report_path, "truth": sim_dir / "ground_truth.json"}
        payload = json.loads(paths[source].read_text())
        edit(payload)
        paths[source] = tmp_path / f"{source}.json"
        paths[source].write_text(json.dumps(payload))
        assert run("evaluate", paths["report"], paths["truth"],
                   "--out", tmp_path / "eval") == 2

    def test_calibrate_null_setting_scale_exit_2(self, sim_dir, tmp_path):
        setting = io.read_ground_truth(sim_dir / "ground_truth.json")["setting"]
        setting["k_xy"] = None
        setting_path = tmp_path / "setting.json"
        setting_path.write_text(json.dumps(setting))
        assert run("calibrate", sim_dir / "observations.json", "--out",
                   tmp_path / "cal", "--setting", setting_path) == 2

    def test_simulate_null_camera_field_exit_2(self, tmp_path):
        cfg = small_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["camera"]["pixel_pitch_mm"] = None
        cfg.write_text(json.dumps(payload))
        assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2

    @pytest.mark.parametrize("field, value", [
        ("max_rotation_deg", None), ("seed", "x"), ("seed", -1),
        ("max_rotation_deg", float("nan")), ("scene_range_mm", [1300.0, float("inf")]),
        ("poses", 2.5), ("sigma", float("nan")), ("misalignment_deg", [0.1, 0.2]),
    ], ids=["null-rotation", "string-seed", "negative-seed", "nan-rotation",
            "infinite-scene-range", "fractional-poses", "nan-sigma",
            "two-misalignment-angles"])
    def test_simulate_bad_generator_field_exit_2(self, tmp_path, caplog, field, value):
        # the generators read these only after the config was accepted
        cfg = small_config(tmp_path, **{field: value})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2
        assert field in caplog.text

    @pytest.mark.parametrize("field, value, name", [
        ("sensor_resolution", [2000], "sensor_resolution"),
        ("sensor_resolution", [2000.5, 1350], "sensor_resolution"),
        ("sensor_resolution", [0, 0], "sensor_resolution"),
        ("sensor_resolution", [-10, 1350], "sensor_resolution"),
        ("main_focal_mm", float("inf"), "main_focal"),
        ("pixel_pitch_mm", float("nan"), "pixel_pitch"),
        ("lens_pitch_mm", float("inf"), "lens_pitch"),
        ("micro_image_radius_px", 0, "micro_image_radius"),
        ("micro_image_radius_px", -5, "micro_image_radius"),
        ("micro_image_radius_px", float("nan"), "micro_image_radius"),
        ("sensor_origin_mm", [float("nan"), -6.1, 68.76], "sensor_origin"),
    ], ids=["one-resolution-entry", "fractional-resolution", "zero-resolution",
            "negative-resolution", "infinite-focal", "nan-pixel-pitch",
            "infinite-lens-pitch", "zero-radius", "negative-radius", "nan-radius",
            "nan-sensor-origin"])
    def test_simulate_bad_physical_camera_exit_2(self, tmp_path, caplog, field, value,
                                                 name):
        # each was a traceback (exit 1), a sampler that gave up after 1001
        # rejected draws (exit 3), or a silently truncated resolution (exit 0)
        cfg = small_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["camera"][field] = value
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert f"{name} must be" in caplog.text
        assert not out.exists()

    def test_calibrate_null_pixel_exit_2(self, sim_dir, tmp_path):
        def null_pixel(payload):
            payload["poses"][0]["observations"][0]["pixel"] = None
        obs = tampered_observations(sim_dir, tmp_path, null_pixel)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2

    def test_calibrate_lens_label_beyond_int64_exit_2(self, sim_dir, tmp_path):
        def huge_label(payload):
            payload["poses"][0]["observations"][0]["lens"] = [2 ** 70, 0]
        obs = tampered_observations(sim_dir, tmp_path, huge_label)
        assert run("calibrate", obs, "--out", tmp_path / "cal") == 2


class TestRectify:
    def test_identity_misalignment(self, tmp_path):
        cfg = small_config(tmp_path)
        simout = tmp_path / "simw"
        assert run("simulate", "--config", cfg, "--out", simout,
                   "--white-image") == 0
        out = tmp_path / "rect"
        assert run("rectify", simout / "observations.json",
                   "--white-image", simout / "white.pgm", "--out", out) == 0
        rect = io.load_json(out / "rectification.json")
        H = np.array(rect["homography"])
        assert np.abs(H - np.eye(3)).max() < 0.05
        # aligned input: both slope ranges sit at the detection noise floor
        assert rect["slope_range_before"] < 1e-5
        assert rect["slope_range_after"] < 1e-5
        assert (out / "observations_rectified.json").exists()
        assert (out / "centers.json").exists()

    def test_featureless_image_exit_6(self, sim_dir, tmp_path):
        flat = tmp_path / "flat.pgm"
        write_pgm(flat, np.full((600, 800), 500, dtype=np.uint16))
        assert run("rectify", sim_dir / "observations.json",
                   "--white-image", flat, "--out", tmp_path / "r") == 6

    def test_requires_exactly_one_source(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("rectify", sim_dir / "observations.json",
                "--out", tmp_path / "r")
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def white_run(tmp_path_factory):
    """A misaligned simulate --white-image run and its rectify --white-image."""
    tmp = tmp_path_factory.mktemp("white")
    cfg = small_config(tmp, misalignment_deg=[0.2, -0.1, 0.3], white_image=True)
    simout, rect = tmp / "sim", tmp / "rect"
    assert run("simulate", "--config", cfg, "--out", simout) == 0
    assert run("rectify", simout / "observations.json",
               "--white-image", simout / "white.pgm", "--out", rect) == 0
    return simout, rect


def tampered_centers(white_run, tmp_path, edit):
    """Copy of the rectify run's centers file after ``edit(payload)``, and
    what the edit returned."""
    payload = json.loads((white_run[1] / "centers.json").read_text())
    named = edit(payload)
    path = tmp_path / "centers.json"
    path.write_text(json.dumps(payload))
    return path, named


def nan_center_pixel(payload):
    record = payload["centers"][3]
    record["pixel"][1] = float("nan")
    return tuple(record["label"])


def repeated_center(payload):
    record = payload["centers"][5]
    payload["centers"].append(dict(record))
    return tuple(record["label"])


class TestRectifyCenters:
    def test_matches_white_image_run(self, white_run, tmp_path):
        simout, rect = white_run
        out = tmp_path / "rc"
        assert run("rectify", simout / "observations.json",
                   "--centers", rect / "centers.json", "--out", out) == 0
        for name in ("rectification.json", "observations_rectified.json",
                     "centers.json"):
            assert (out / name).read_bytes() == (rect / name).read_bytes(), name

    def test_centers_file_round_trip(self, white_run, tmp_path):
        simout, _ = white_run
        camera = io.camera_from_dict(json.loads(
            (simout / "run_config.json").read_text())["camera"])
        centers = detect_centers(read_pgm(simout / "white.pgm"),
                                 default_setting(camera).k_u)
        io.write_centers(tmp_path / "centers.json", centers)
        back = io.read_centers(tmp_path / "centers.json")
        for column in ("label", "pixel"):
            a, b = getattr(centers, column), getattr(back, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column

    @pytest.mark.parametrize("edit, message", [
        (nan_center_pixel, "non-finite pixel for center label"),
        (repeated_center, "repeated center label")], ids=["nan-pixel", "repeated-label"])
    def test_bad_record_exit_2_names_label(self, white_run, tmp_path, caplog,
                                           edit, message):
        path, label = tampered_centers(white_run, tmp_path, edit)
        assert run("rectify", white_run[0] / "observations.json",
                   "--centers", path, "--out", tmp_path / "r") == 2
        assert f"{message} {label}" in caplog.text

    @pytest.mark.parametrize("edit", [
        lambda p: p["centers"][0].update(label=None),
        lambda p: p["centers"][0].pop("label"),
        lambda p: p.pop("centers"),
        lambda p: p["centers"][0].update(label=[2 ** 70, 0])],
        ids=["null-label", "no-label", "no-centers", "huge-label"])
    def test_malformed_file_exit_2(self, white_run, tmp_path, edit):
        path, _ = tampered_centers(white_run, tmp_path, edit)
        assert run("rectify", white_run[0] / "observations.json",
                   "--centers", path, "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize("label", [[1.5, 2], [1, 2.0], [True, 2]],
                             ids=["fractional", "integral-float", "boolean"])
    def test_non_integer_label_exit_2(self, white_run, tmp_path, caplog, label):
        path, _ = tampered_centers(white_run, tmp_path,
                                   lambda p: p["centers"][7].update(label=label))
        assert run("rectify", white_run[0] / "observations.json",
                   "--centers", path, "--out", tmp_path / "r") == 2
        assert f"center label {label!r} is not two JSON integers" in caplog.text

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_file_exit_2(self, sim_dir, tmp_path, content):
        path = tmp_path / "centers.json"
        if content is not None:
            path.write_text(content)
        assert run("rectify", sim_dir / "observations.json",
                   "--centers", path, "--out", tmp_path / "r") == 2


def test_calibrate_reports_are_deterministic(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("calibrate", sim_dir / "observations.json", "--out", out) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "residuals.csv").read_bytes() == (b / "residuals.csv").read_bytes()


@pytest.mark.parametrize("command", [
    "calibrate", "calibrate-setting", "evaluate-report", "evaluate-truth",
    "rectify-centers", "simulate-config"])
def test_json_top_level_not_an_object_exit_2(sim_dir, report_path, tmp_path, caplog,
                                             command):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    obs, truth = sim_dir / "observations.json", sim_dir / "ground_truth.json"
    argv = {
        "calibrate": ("calibrate", bad),
        "calibrate-setting": ("calibrate", obs, "--setting", bad),
        "evaluate-report": ("evaluate", bad, truth),
        "evaluate-truth": ("evaluate", report_path, bad),
        "rectify-centers": ("rectify", obs, "--centers", bad),
        "simulate-config": ("simulate", "--config", bad),
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert "top level is a JSON list, not an object" in caplog.text
