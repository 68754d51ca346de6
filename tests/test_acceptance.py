"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
The Jacobian gate is evaluated (once) before any criterion that depends on
the optimizer.
"""

import json
import time
from pathlib import Path

import numpy as np

from plenocal import simulator as sim
from plenocal.calibration import RefineOptions, calibrate
from plenocal.cli import main as cli_main
from plenocal.evaluate import intrinsic_errors, mean_intrinsic_error
from plenocal.projection import DistortionParams
from plenocal.rectification import (MicroImageCenter, apply_homography,
                                    detect_centers, estimate_rectifying_homography,
                                    rectify_observations, row_slopes)
from plenocal.tpp import TppParams, projective_matrix, transform_point, transform_rays, triangulate

from test_projection import jacobian_gap
from test_tpp import bundle_through

_INTRINSIC_KEYS = ("k_x", "k_u", "u_0", "v_0", "f")
_jacobian_gate_result = None


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def ensure_jacobian_gate():
    """Criterion 7 must pass before any optimization-dependent criterion."""
    global _jacobian_gate_result
    if _jacobian_gate_result is None:
        worst = 0.0
        for seed in range(25):
            worst = max(worst, jacobian_gap(seed, False))
            worst = max(worst, jacobian_gap(1000 + seed, True))
        _jacobian_gate_result = worst
    assert _jacobian_gate_result < 1e-4, (
        f"jacobian gate failed ({_jacobian_gate_result:.3e}); "
        "optimization-dependent criteria not attempted")
    return _jacobian_gate_result


def test_criterion_7_jacobian_gate():
    worst = ensure_jacobian_gate()
    verdict(7, worst < 1e-4,
            f"analytic vs central-difference jacobian, 50 configurations, "
            f"worst relative gap {worst:.3e} (< 1e-4)")


def test_criterion_1_projective_consistency():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        k_x, k_y = rng.uniform(0.2, 3.0, 2)
        ratio = rng.uniform(0.2, 3.0)
        params = TppParams(k_x, k_y, ratio * k_x, ratio * k_y,
                           rng.normal() * 10, rng.normal() * 10,
                           rng.uniform(1, 50), rng.uniform(1, 50))
        target = np.array([rng.normal() * 10, rng.normal() * 10,
                           rng.uniform(2, 100)])
        rays = bundle_through(target, params.f, 8, rng)
        moved, _ = triangulate(transform_rays(rays, params))
        expected = transform_point(projective_matrix(params), target)
        err = np.linalg.norm(moved - expected) / max(1.0, np.linalg.norm(expected))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-8 and elapsed < 5.0,
            f"500 random bundles, worst relative gap {worst:.3e} (< 1e-8), "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_loop_closure(camera, board_points, setting, tpp_truth,
                                  clean_observations):
    ensure_jacobian_gate()
    start = time.perf_counter()
    out = calibrate(clean_observations, board_points, setting,
                    RefineOptions(sensor_size=camera.sensor_resolution))
    elapsed = time.perf_counter() - start
    lin_err = max(intrinsic_errors(out.linear.tpp, tpp_truth).values())
    verdict(2, lin_err < 1e-6 and out.refined.rms < 1e-6 and elapsed < 30.0,
            f"linear intrinsics within {lin_err:.2e} (< 1e-6) of ground truth, "
            f"refined RMS {out.refined.rms:.2e} px (< 1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_3_noise_robustness(camera, board, board_points, setting,
                                      tpp_truth):
    ensure_jacobian_gate()
    start = time.perf_counter()
    opts = RefineOptions(sensor_size=camera.sensor_resolution)
    sigmas = (0.1, 0.3, 0.5, 0.8)
    medians = []
    rms_ok = True
    rms_detail = []
    for sigma in sigmas:
        errs = []
        for seed in range(10):
            env = sim.default_envelope(camera, board)
            poses = sim.generate_poses(12, 1000 + seed, env)
            obs = sim.synthesize_observations(camera, board, poses,
                                              DistortionParams(), sigma,
                                              2000 + seed)
            out = calibrate(obs, board_points, setting, opts)
            errs.append(mean_intrinsic_error(out.refined.tpp, tpp_truth))
            if not (0.8 * sigma <= out.refined.rms <= 1.2 * sigma):
                rms_ok = False
                rms_detail.append(f"sigma={sigma} seed={seed} rms={out.refined.rms:.3f}")
        medians.append(float(np.median(errs)))
    elapsed = time.perf_counter() - start
    monotone = all(b > a for a, b in zip(medians, medians[1:]))
    verdict(3, rms_ok and monotone and elapsed < 600.0,
            f"refined RMS within [0.8s, 1.2s] for all 40 runs"
            f"{'' if rms_ok else ' EXCEPT ' + '; '.join(rms_detail)}, median "
            f"intrinsic errors {['%.2e' % m for m in medians]} monotone={monotone}, "
            f"{elapsed:.0f}s (< 600s)")


def test_criterion_4_pose_count_trend(camera, board, board_points, setting,
                                      tpp_truth):
    # nested design: each trial renders 12 poses once and calibrates with the
    # first 3, 6, and all 12, so the comparisons are paired per seed
    ensure_jacobian_gate()
    opts = RefineOptions(sensor_size=camera.sensor_resolution)
    errs = {3: [], 6: [], 12: []}
    for seed in range(20):
        env = sim.default_envelope(camera, board)
        poses = sim.generate_poses(12, 3000 + seed, env)
        obs = sim.synthesize_observations(camera, board, poses,
                                          DistortionParams(), 0.3, 4000 + seed)
        for n in errs:
            subset = obs[obs.pose < n]
            out = calibrate(subset, board_points, setting, opts)
            errs[n].append(mean_intrinsic_error(out.refined.tpp, tpp_truth))
    medians = {n: float(np.median(v)) for n, v in errs.items()}
    ok = medians[6] < medians[3] and medians[12] <= medians[6]
    verdict(4, ok,
            f"median intrinsic error by pose count: "
            f"3 -> {medians[3]:.2e}, 6 -> {medians[6]:.2e}, "
            f"12 -> {medians[12]:.2e} (20 seeds, sigma = 0.3, nested subsets)")


def reference_distortion(camera, tpp_truth):
    """u-v plane coefficients representative of a physical camera regime
    (u-v lens-index scale ~1084 px/lens over a ~+-60 lens field), rescaled so
    the dimensionless radial profile matches this simulator.

    Matching t r^2 and t r^4 at the edge radius gives the rescaling; the
    ratio of same-quantile radii is the scale ratio, so the quantile choice
    does not matter.
    """
    t1_ref, t2_ref = -3.8e-13, 3.5e-22
    r_ref = 1084.0 * 60.0
    i_rng, j_rng = sim.lens_index_range(camera)
    span = max(abs(i_rng.start), abs(i_rng.stop - 1))
    r_sim = tpp_truth.k_u * span
    scale = r_ref / r_sim
    return t1_ref * scale**2, t2_ref * scale**4


def test_criterion_5_distortion_recovery(camera, board, board_points, setting,
                                         tpp_truth, poses12):
    ensure_jacobian_gate()
    t1, t2 = reference_distortion(camera, tpp_truth)
    dist_true = DistortionParams(t1=t1, t2=t2,
                                 u_c=tpp_truth.u_0, v_c=tpp_truth.v_0)
    obs = sim.synthesize_observations(camera, board, poses12, dist_true, 0.1, 7)
    # x-y coefficients are frozen at zero: every pixel sits near its
    # micro-image center, which makes the two radial families nearly
    # collinear when both are free
    out = calibrate(obs, board_points, setting,
                    RefineOptions(sensor_size=camera.sensor_resolution,
                                  optimize_xy_distortion=False))
    e1 = abs(out.refined.dist.t1 - t1) / abs(t1)
    e2 = abs(out.refined.dist.t2 - t2) / abs(t2)
    verdict(5, e1 < 0.1 and e2 < 0.1,
            f"injected t1={t1:.3e}, t2={t2:.3e}; recovered within "
            f"{e1:.1%} and {e2:.1%} (< 10%) at sigma = 0.1")


def misalignment_rotation():
    """A 0.5 degree array rotation about a mostly in-plane axis.

    In-plane rotation is the dominant physical assembly error and is exactly
    correctable by a homography; the out-of-plane component creates per-lens
    axial offsets no planar map can represent, so it is kept at a realistic
    fraction of the total.
    """
    axis = np.array([0.064, 0.048, 0.99679])
    axis /= np.linalg.norm(axis)
    return np.radians(0.5) * axis


def test_criterion_6_rectification(camera, board, board_points, setting,
                                   poses12, clean_observations):
    ensure_jacobian_gate()
    opts = RefineOptions(sensor_size=camera.sensor_resolution)
    mla = sim.aligned_mla(camera, rotation=misalignment_rotation())
    obs_mis = sim.synthesize_observations(camera, board, poses12,
                                          DistortionParams(), 0.0, 7,
                                          misalignment=mla)
    image = sim.synthesize_white_image(camera, mla)
    centers = detect_centers(image, setting.k_u)
    pre = row_slopes(centers)
    fit = estimate_rectifying_homography(centers)
    mapped = [MicroImageCenter(c.i, c.j,
                               *apply_homography([[c.x, c.y]], fit.homography)[0])
              for c in centers]
    post = row_slopes(mapped)
    range_pre = float(np.ptp([s for _, s in pre]))
    range_post = float(np.ptp([s for _, s in post]))

    ref_clean = calibrate(clean_observations, board_points, setting, opts).refined
    obs_rect = rectify_observations(obs_mis, fit.homography)
    ref_rect = calibrate(obs_rect, board_points, setting, opts).refined
    drifts = {k: abs(getattr(ref_clean.tpp, k) - getattr(ref_rect.tpp, k))
              / abs(getattr(ref_clean.tpp, k)) for k in _INTRINSIC_KEYS}
    slope_ok = range_post < 0.10 * range_pre
    drift_ok = max(drifts.values()) < 0.01
    verdict(6, slope_ok and drift_ok,
            f"slope range {range_pre:.2e} -> {range_post:.2e} "
            f"({range_post / range_pre:.1%} < 10%), post-rectification "
            f"intrinsics within {max(drifts.values()):.2%} (< 1%) of the "
            f"misalignment-free run")


def _cli(*argv):
    assert cli_main([str(a) for a in argv]) == 0


def _dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_criterion_8_determinism(tmp_path, camera, board):
    """Representative pipelines behind criteria 2-6, each run twice."""
    small = {
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
        "poses": 6, "sigma": 0.0, "seed": 3,
    }
    variants = {
        "closure": dict(small, poses=8),                       # criterion 2 shape
        "noise": dict(small, sigma=0.3),                       # criterion 3 cell
        "fewpose": dict(small, poses=3, sigma=0.3, seed=11),   # criterion 4 cell
        "distort": dict(small, sigma=0.1,
                        distortion={"t1": -2e-11, "t2": 2e-18}),  # criterion 5 cell
        "rectify": dict(small, white_image=True,
                        misalignment_deg=[0.03, 0.02, 0.45]),  # criterion 6 cell
    }
    mismatches = []
    for name, cfg in variants.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run in ("a", "b"):
            base = tmp_path / name / run
            _cli("simulate", "--config", cfg_path, "--out", base / "sim")
            if name == "rectify":
                _cli("rectify", base / "sim" / "observations.json",
                     "--white-image", base / "sim" / "white.pgm",
                     "--out", base / "rect")
                obs_path = base / "rect" / "observations_rectified.json"
            else:
                obs_path = base / "sim" / "observations.json"
            truth = json.loads((base / "sim" / "ground_truth.json").read_text())
            setting_path = base / "setting.json"
            setting_path.write_text(json.dumps(truth["setting"]))
            _cli("calibrate", obs_path, "--out", base / "cal",
                 "--setting", setting_path)
            _cli("evaluate", base / "cal" / "report.json",
                 base / "sim" / "ground_truth.json", "--out", base / "eval")
            payload = {}
            for sub in ("sim", "cal", "eval", "rect"):
                if (base / sub).exists():
                    files = _dir_bytes(base / sub)
                    # the config echo embeds the run's own output paths
                    files.pop("run_config.json", None)
                    payload[sub] = files
            outputs.append(payload)
        if outputs[0] != outputs[1]:
            diff = [f"{s}/{f}" for s in outputs[0]
                    for f in outputs[0].get(s, {})
                    if outputs[0][s].get(f) != outputs[1].get(s, {}).get(f)]
            mismatches.append(f"{name}: {diff}")
    verdict(8, not mismatches,
            "two runs of each representative pipeline produced byte-identical "
            f"artifacts{'' if not mismatches else ': MISMATCH ' + '; '.join(mismatches)}")
