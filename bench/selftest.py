"""Quick self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

On small variants of the three workloads (6 poses; a 2000x1350 sensor for
the pipeline) it shows that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, in the
  untraced and in the traced mode, and every end-to-end value is positive;
* correct runs count no failure, while a deliberately wrong ground truth
  (plane separation f scaled by 0.1) fails every operation's check;
* in a directory holding only ``BENCHMARK.json`` and ``bench/``, ``run.py``
  exits non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SMALL_CAMERA = {
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
}


def small_variants():
    from workloads import PipelineFullSensor, Refine48, Sweep12

    def shrink(cls, **attrs):
        return type(f"Small{cls.__name__}", (cls,),
                    {"poses": 6, "error_per_sigma": 0.5, **attrs})

    return [shrink(Refine48), shrink(Sweep12),
            shrink(PipelineFullSensor, camera_config=SMALL_CAMERA)]


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bare_directory_exits_nonzero(failures: list) -> None:
    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep-12pose", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ run.py exits {proc.returncode} and prints no result", failures)


def main() -> int:
    run.pin_threads()
    run.import_program()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names exactly the benchmark's workloads", failures)

    for cls in small_variants():
        for trace in (0, 1):
            res = run.measure(cls, seed=1, seconds=0.0, trace=bool(trace))
            units = {name: unit for name, (_, unit) in res.metrics.items()}
            check(units == expected[trace],
                  f"{cls.name} trace={trace}: every named metric emitted with its unit",
                  failures)
            values = [v for v, _ in res.metrics.values()]
            finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
            check(finite and (trace or min(values) > 0),
                  f"{cls.name} trace={trace}: values finite"
                  f"{'' if trace else ' and positive'}", failures)
            check(res.failed == 0, f"{cls.name} trace={trace}: 0 of {len(res.ops)} "
                  f"operations failed ({[p for o in res.ops for p in o.problems]})",
                  failures)
        res = run.measure(cls, seed=1, seconds=0.0, trace=False, truth_f_scale=0.1)
        check(res.failed == len(res.ops) >= 1,
              f"{cls.name}: perturbed ground truth fails {res.failed} of "
              f"{len(res.ops)} operations", failures)

    bare_directory_exits_nonzero(failures)
    print("selftest " + ("passed" if not failures else f"FAILED: {len(failures)} checks"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
