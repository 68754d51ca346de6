"""The three benchmark workloads and the check applied to each operation.

Each workload is a closed loop: one caller issues an operation and waits for
it before issuing the next.  Inputs derive from the benchmark seed only; the
program sees nothing but the generated inputs.  Why each workload exists and
which layer it exposes is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SIGMA = 0.3
SWEEP_SIGMAS = (0.1, 0.3, 0.5, 0.8)
RMS_BAND = (0.8, 1.2)                # refined RMS within [0.8, 1.2] sigma
SLOPE_CUT = 0.10                     # rectified slope range below 10 % of the raw one
# 0.5 degree MLA rotation about a mostly in-plane axis, as in acceptance
# criterion 6, given as Rodrigues components in degrees for --misalign-deg
_AXIS = np.array([0.064, 0.048, 0.99679])
MISALIGN_DEG = tuple(float(c) for c in 0.5 * _AXIS / np.linalg.norm(_AXIS))


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for the program, fixed by the benchmark seed and keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def load_api() -> SimpleNamespace:
    """Every plenocal entry point the workloads call, as attributes of one
    object; a traced operation rebinds them (see ``patch_table``)."""
    from plenocal import calibration, cli, evaluate, io, simulator
    from plenocal.projection import DistortionParams
    from plenocal.tpp import TppParams

    return SimpleNamespace(
        generate_poses=simulator.generate_poses,
        synthesize_observations=simulator.synthesize_observations,
        calibrate=calibration.calibrate,
        mean_intrinsic_error=evaluate.mean_intrinsic_error,
        cli_main=cli.main,
        sim=simulator, io=io, RefineOptions=calibration.RefineOptions,
        DistortionParams=DistortionParams, TppParams=TppParams)


def _count_observations(attrs, args, kwargs, result):
    attrs["observations"] = len(result)


def _count_poses(attrs, args, kwargs, result):
    attrs["poses"] = len(result)


def _count_centers(attrs, args, kwargs, result):
    attrs["centers"] = len(result)


def _count_refine(attrs, args, kwargs, result):
    initial, observations = args[0], args[1]
    options = args[3] if len(args) > 3 else kwargs.get("options")
    centers = bool(options and options.optimize_distortion_centers)
    trace = result[1]
    attrs["iterations"] = len(trace)
    attrs["accepted"] = sum(1 for t in trace if t["accepted"])
    # computed size of the dense Jacobian: 2N rows x (9 [+4] + 6P) float64
    attrs["jacobian_rows"] = 2 * len(observations)
    attrs["jacobian_cols"] = (13 if centers else 9) + 6 * len(initial.poses)
    attrs["jacobian_mb"] = attrs["jacobian_rows"] * attrs["jacobian_cols"] * 8 / 2**20


def _project_name(args, kwargs):
    return ("projection.project_pixels.jac" if kwargs.get("jacobian")
            else "projection.project_pixels.eval")


def _cli_name(args, kwargs):
    return f"cli.{args[0][0]}"


RSS_SPANS = ("calibration.refine", "rectification.estimate_rectifying_homography")


def patch_table(api) -> list[tuple]:
    """(owner, attribute, span name, count recorder) for every traced call.

    The owner is the namespace the caller looks the name up in: the
    benchmark's own ``api`` for calls it makes, ``plenocal.calibration`` and
    ``plenocal.cli`` for names those modules bound at import, and
    ``plenocal.io`` for the ``io.<name>`` calls of the CLI.
    """
    from plenocal import calibration, cli, io

    table = [
        (api, "generate_poses", "simulator.generate_poses", _count_poses),
        (api, "synthesize_observations", "simulator.synthesize_observations",
         _count_observations),
        (api, "calibrate", "calibration.calibrate", None),
        (api, "mean_intrinsic_error", "evaluate.mean_intrinsic_error", None),
        (api, "cli_main", _cli_name, None),
        (calibration, "linear_calibrate", "calibration.linear_calibrate", None),
        (calibration, "refine", "calibration.refine", _count_refine),
        (calibration, "project_pixels", _project_name, None),
        (calibration, "residuals", "projection.residuals", None),
        (calibration, "decode_virtual_rays", "tpp.decode_virtual_rays", None),
        (calibration, "estimate_homography", "calibration.estimate_homography", None),
        (calibration, "solve_q", "calibration.solve_q", None),
        (calibration, "extrinsics_from_homography",
         "calibration.extrinsics_from_homography", None),
        (cli, "generate_poses", "simulator.generate_poses", _count_poses),
        (cli, "synthesize_observations", "simulator.synthesize_observations",
         _count_observations),
        (cli, "synthesize_white_image", "simulator.synthesize_white_image", None),
        (cli, "calibrate", "calibration.calibrate", None),
        (cli, "residuals", "projection.residuals", None),
        (cli, "detect_centers", "rectification.detect_centers", _count_centers),
        (cli, "estimate_rectifying_homography",
         "rectification.estimate_rectifying_homography", None),
        (cli, "row_slopes", "rectification.row_slopes", None),
        (cli, "rectify_observations", "rectification.rectify_observations", None),
        (cli, "read_pgm", "rectification.read_pgm", None),
        (cli, "write_pgm", "rectification.write_pgm", None),
    ]
    for name in ("write_observations", "read_observations", "write_ground_truth",
                 "read_ground_truth", "write_centers", "write_rectification",
                 "write_report", "read_report", "write_residual_csv",
                 "write_metrics", "load_json"):
        table.append((io, name, f"io.{name}", None))
    return table


@dataclass
class OpResult:
    """One operation: its wall time, the time of its calibration step, the
    accuracy it reached and the checks it failed (empty when correct)."""

    seconds: float = 0.0
    calibrate_s: float = 0.0
    rms: float = math.nan
    error: float = math.nan
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    files_written: int = 0
    completed: bool = True            # False when the operation raised
    probe_s: float = math.nan         # speed probe taken right after it


def check_accuracy(res: OpResult, sigma: float, error_per_sigma: float) -> None:
    lo, hi = RMS_BAND
    if not lo * sigma <= res.rms <= hi * sigma:
        res.problems.append(
            f"refined RMS {res.rms:.4f} px outside [{lo}, {hi}] x sigma={sigma}")
    bound = error_per_sigma * sigma
    if not res.error < bound:
        res.problems.append(
            f"mean intrinsic error {res.error:.3e} not below {bound:.3e}")


class Workload:
    """Base: ``prepare(r)`` sets up inputs, ``run(k)`` performs operation
    ``k``.  ``truth_f_scale`` perturbs the ground truth the checks compare
    against; the self-test sets it to show that a wrong result is counted as
    failed.

    ``error_per_sigma`` bounds mean_intrinsic_error / sigma.  The bounds were
    recorded from the seed commit (README.md, "Correctness checks").
    """

    name = ""
    poses = 12
    error_per_sigma = 0.5
    camera_config: dict | None = None   # simulate --config payload; None = reference
    round_size = 1           # operations are issued in whole rounds of this size
    setup_reps = 3           # set-up repetitions, each timed (see ``prepare``)

    def __init__(self, api, seed: int, workdir: Path, truth_f_scale: float = 1.0):
        self.api, self.seed, self.workdir = api, seed, workdir
        self.truth_f_scale = truth_f_scale
        sim, cfg = api.sim, self.camera_config
        self.camera = (api.io.camera_from_dict(cfg["camera"]) if cfg
                       else sim.reference_camera())
        self.board = api.io.board_from_dict(cfg["board"]) if cfg else sim.reference_board()
        self.points = dict(enumerate(self.board.points_mm() / self.camera.pixel_pitch))
        self.setting = sim.default_setting(self.camera)
        t = sim.physical_to_tpp(self.camera)[1]
        self.truth = api.TppParams.isotropic(t.k_x, t.k_u, t.u_0, t.v_0,
                                             t.f * truth_f_scale, f_prime=t.f_prime)
        self.options = api.RefineOptions(sensor_size=self.camera.sensor_resolution)

    def prepare(self, r: int) -> None:
        """Set-up repetition ``r`` of ``setup_reps``; the benchmark times each
        and reports the median.  The default has nothing to prepare."""

    def run(self, k: int) -> OpResult:
        raise NotImplementedError

    def _synthesize(self, pose_seed: int, noise_seed: int, sigma: float):
        api = self.api
        envelope = api.sim.default_envelope(self.camera, self.board)
        poses = api.generate_poses(self.poses, pose_seed, envelope)
        return api.synthesize_observations(self.camera, self.board, poses,
                                           api.DistortionParams(), sigma, noise_seed)

    def _calibrate(self, obs, sigma: float, res: OpResult) -> None:
        t0 = time.perf_counter()
        out = self.api.calibrate(obs, self.points, self.setting, self.options)
        res.calibrate_s = time.perf_counter() - t0
        res.rms = out.refined.rms
        res.error = self.api.mean_intrinsic_error(out.refined.tpp, self.truth)
        check_accuracy(res, sigma, self.error_per_sigma)


class Refine48(Workload):
    """One large problem: 48 poses, sigma 0.3, about 23.4k observations.
    Each set-up repetition synthesizes one set; operation k calibrates set
    k mod ``setup_reps``, and runs end on whole rounds over the sets, so each
    run averages the same number of pose draws."""

    name = "refine-48pose"
    poses = 48
    error_per_sigma = 0.1
    setup_reps = round_size = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.datasets = []

    def prepare(self, r: int) -> None:
        self.datasets.append(self._synthesize(derive(self.seed, 1, r),
                                              derive(self.seed, 2, r), SIGMA))

    def run(self, k: int) -> OpResult:
        res = OpResult()
        t0 = time.perf_counter()
        self._calibrate(self.datasets[k % len(self.datasets)], SIGMA, res)
        res.seconds = time.perf_counter() - t0
        return res


class Sweep12(Workload):
    """Monte-Carlo trials shaped like acceptance criterion 3: each trial draws
    its own 12 poses, synthesizes, calibrates and scores.  Trials come in
    rounds of one trial per sigma, and runs end on whole rounds."""

    name = "sweep-12pose"
    round_size = len(SWEEP_SIGMAS)

    def run(self, k: int) -> OpResult:
        res = OpResult()
        sigma = SWEEP_SIGMAS[k % self.round_size]
        t0 = time.perf_counter()
        obs = self._synthesize(derive(self.seed, 3, k), derive(self.seed, 4, k), sigma)
        self._calibrate(obs, sigma, res)
        res.seconds = time.perf_counter() - t0
        return res


class PipelineFullSensor(Workload):
    """The CLI chain simulate -> rectify -> calibrate -> evaluate on the
    4008x2672 reference sensor: 12 poses, sigma 0.3, a misaligned MLA and a
    white image, in a scratch directory under the run's work directory."""

    name = "pipeline-fullsensor"

    def prepare(self, r: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.setting_path = self.workdir / "setting.json"
        self.api.io.dump_json(self.setting_path, self.api.io.tpp_to_dict(self.setting))
        self.config_args = []
        if self.camera_config:
            self.config_args = ["--config", self.workdir / "camera.json"]
            self.api.io.dump_json(self.config_args[1], self.camera_config)

    def _step(self, res: OpResult, *argv) -> bool:
        code = self.api.cli_main([str(a) for a in argv])
        if code != 0:
            res.problems.append(f"plenocal {argv[0]} exited {code}")
        return code == 0

    def run(self, k: int) -> OpResult:
        res = OpResult()
        d = self.workdir / f"op{k}"
        sim, rect, cal, ev = d / "sim", d / "rect", d / "cal", d / "eval"
        t0 = time.perf_counter()
        ok = self._step(res, "simulate", "--out", sim, "--poses", self.poses,
                        "--sigma", SIGMA, "--seed", derive(self.seed, 5, k),
                        "--white-image", "--misalign-deg", *MISALIGN_DEG,
                        *self.config_args)
        if ok and self.truth_f_scale != 1.0:
            truth = json.loads((sim / "ground_truth.json").read_text())
            truth["tpp"]["f"] *= self.truth_f_scale
            (sim / "ground_truth.json").write_text(json.dumps(truth))
        # calibrating a raw capture is rectify + calibrate: the time a user
        # waits from white image and observations to report.json
        t1 = time.perf_counter()
        ok = ok and self._step(res, "rectify", sim / "observations.json",
                               "--white-image", sim / "white.pgm", "--out", rect)
        ok = ok and self._step(res, "calibrate", rect / "observations_rectified.json",
                               "--setting", self.setting_path, "--out", cal)
        res.calibrate_s = time.perf_counter() - t1
        ok = ok and self._step(res, "evaluate", cal / "report.json",
                               sim / "ground_truth.json", "--out", ev)
        res.seconds = time.perf_counter() - t0
        if ok:
            refined = json.loads((ev / "metrics.json").read_text())["refined"]
            res.rms, res.error = refined["rms_px"], refined["mean_intrinsic_error"]
            check_accuracy(res, SIGMA, self.error_per_sigma)
            r = json.loads((rect / "rectification.json").read_text())
            if not r["slope_range_after"] < SLOPE_CUT * r["slope_range_before"]:
                res.problems.append(
                    f"slope range {r['slope_range_before']:.3e} -> "
                    f"{r['slope_range_after']:.3e} not cut below {SLOPE_CUT:.0%}")
        files = [p for p in d.rglob("*") if p.is_file()]
        res.files_written = len(files)
        res.bytes_written = sum(p.stat().st_size for p in files)
        shutil.rmtree(d, ignore_errors=True)
        return res


WORKLOADS = {w.name: w for w in (Refine48, Sweep12, PipelineFullSensor)}
