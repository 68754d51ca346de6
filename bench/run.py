"""plenocal benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload refine-48pose --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from ``src/`` next to this directory.  With ``--trace 0`` the run is
untraced and prints the end-to-end metrics; with ``--trace 1`` it interleaves
untraced and traced operations on identical inputs and prints the per-layer
metrics, including the tracing overhead.  Every metric is printed by name
with its unit, a record with the environment goes to ``bench/results/``, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run workloads one after
another, never concurrently: pipeline-fullsensor alone peaks near 4.6 GB.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PLENOCAL_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
# about speed_probe's time on the 2-core host the benchmark was defined on,
# in a quiet period; scaled times are seconds on that host at that speed
PROBE_REF_S = 0.027


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("refine-48pose", "sweep-12pose", "pipeline-fullsensor"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """Fix the BLAS/OpenMP pools before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreted Python, elementwise numpy
    and single-threaded BLAS work that involves no plenocal code.

    The host is shared: identical work runs up to twice as slow for periods
    of 5-20 s.  Timed between operations, the probe measures how fast the
    host runs at that moment, and end-to-end times are scaled by
    PROBE_REF_S / probe time (README.md, "Host noise")."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((200, 200)), rng.standard_normal(100_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(20):
        a @ a
        np.sqrt(x * x + 1.0).sum()
    return time.perf_counter() - t0


def run_op(workload, k: int):
    """One operation; an exception is a failed operation, not a failed run."""
    from workloads import OpResult

    t0 = time.perf_counter()
    try:
        return workload.run(k)
    except Exception as exc:                       # counted in failed, run goes on
        traceback.print_exc(file=sys.stderr)
        return OpResult(seconds=time.perf_counter() - t0, completed=False,
                        problems=[f"raised {type(exc).__name__}: {exc}"])


def _median(values) -> float:
    values = [v for v in values if v == v]         # drop NaN
    return statistics.median(values) if values else math.nan


def _per_round(ops, round_size, value) -> float:
    """Median over rounds of the mean of ``value`` within each round; a
    round holds one operation per dataset or per sigma, so its mean weighs
    the workload's mix the same way in every run.  NaN values (operations
    that raised) are left out."""
    return _median([_mean([v for v in map(value, ops[i:i + round_size]) if v == v])
                    for i in range(0, len(ops), round_size)])


def end_to_end_metrics(ops, round_size, setup_s) -> dict:
    """Times are scaled by PROBE_REF_S / the probe time right after each
    operation (see ``speed_probe``); the raw times stay in the record."""
    def scaled(attr):
        return lambda o: getattr(o, attr) * PROBE_REF_S / o.probe_s if o.completed \
            else math.nan

    return {
        "setup_s": (setup_s, "s"),
        "calibrate_s": (_per_round(ops, round_size, scaled("calibrate_s")), "s"),
        "trials_per_s": (len(ops) / sum(o.seconds * PROBE_REF_S / o.probe_s
                                        for o in ops), "1/s"),
        "pipeline_s": (_per_round(ops, round_size, scaled("seconds")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
        "refined_rms_px": (_per_round(ops, round_size, lambda o: o.rms), "px"),
    }


def _per_unit(tracer, groups) -> dict:
    """Layer totals of each group of operations divided by the group's size,
    merged; RSS growth keeps its maximum instead."""
    merged: dict = {}
    for ops in groups:
        if not ops:
            continue
        for name, totals in tracer.layer_totals(ops).items():
            out = merged.setdefault(name, {})
            for key, val in totals.items():
                if key == "rss_growth_mb":
                    out[key] = max(out.get(key, 0.0), val)
                else:
                    out[key] = out.get(key, 0.0) + val / len(ops)
    return merged


def per_layer_metrics(tracer, traced_ids, setup_ids, pairs, ops) -> dict:
    """Per-layer values per traced operation; layers that only set-up calls
    (the simulator on refine-48pose) are per set-up repetition."""
    from tracing import ROOT_SPAN

    per = _per_unit(tracer, [traced_ids, setup_ids])
    in_ops = _per_unit(tracer, [traced_ids])

    def u(name, key="s"):
        return per.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    ref = "calibration.refine"
    m[f"{ref}.s"] = (u(ref), "s")
    m[f"{ref}.self_s"] = (u(ref, "self_s"), "s")
    m[f"{ref}.per_iter_s"] = (ratio(u(ref), u(ref, "iterations")), "s")
    m[f"{ref}.iterations"] = (u(ref, "iterations"), "count")
    m[f"{ref}.accepted"] = (u(ref, "accepted"), "count")
    m[f"{ref}.accept_ratio"] = (ratio(u(ref, "accepted"), u(ref, "iterations")), "1")
    for key in ("jacobian_rows", "jacobian_cols"):
        m[f"{ref}.{key}"] = (ratio(u(ref, key), u(ref, "calls")), "count")
    m[f"{ref}.jacobian_mb"] = (ratio(u(ref, "jacobian_mb"), u(ref, "calls")), "MiB")
    m[f"{ref}.rss_growth_mb"] = (u(ref, "rss_growth_mb"), "MiB")
    for kind in ("jac", "eval"):
        name = f"projection.project_pixels.{kind}"
        m[f"{name}.s"] = (u(name), "s")
        m[f"{name}.calls"] = (u(name, "calls"), "count")
    m["projection.residuals.s"] = (u("projection.residuals"), "s")
    m["calibration.linear_calibrate.s"] = (u("calibration.linear_calibrate"), "s")
    m["calibration.linear_calibrate.self_s"] = (
        u("calibration.linear_calibrate", "self_s"), "s")
    for name in ("tpp.decode_virtual_rays", "calibration.estimate_homography",
                 "simulator.generate_poses"):
        m[f"{name}.s"] = (u(name), "s")
        m[f"{name}.calls"] = (u(name, "calls"), "count")
    for name in ("calibration.solve_q", "calibration.extrinsics_from_homography",
                 "simulator.synthesize_observations", "simulator.synthesize_white_image",
                 "rectification.detect_centers",
                 "rectification.estimate_rectifying_homography",
                 "rectification.row_slopes", "rectification.rectify_observations",
                 "rectification.read_pgm", "rectification.write_pgm",
                 "cli.simulate", "cli.rectify", "cli.calibrate", "cli.evaluate",
                 "io.write_observations", "io.read_observations", "io.write_centers",
                 "io.write_report", "io.write_residual_csv"):
        m[f"{name}.s"] = (u(name), "s")
    m["simulator.observations"] = (u("simulator.synthesize_observations",
                                     "observations"), "count")
    m["simulator.poses"] = (u("simulator.generate_poses", "poses"), "count")
    m["rectification.centers"] = (u("rectification.detect_centers", "centers"), "count")
    m["rectification.estimate_rectifying_homography.rss_growth_mb"] = (
        u("rectification.estimate_rectifying_homography", "rss_growth_mb"), "MiB")

    traced = [t for t, _ in pairs]
    m["io.bytes_written"] = (_mean(o.bytes_written for o in traced), "B")
    m["io.files_written"] = (_mean(o.files_written for o in traced), "count")
    traced_s = _mean(t.seconds for t, _ in pairs)
    untraced_s = _mean(o.seconds for _, o in pairs)
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_frac"] = (ratio(traced_s - untraced_s, untraced_s), "1")
    # the root span's self time is what no layer span covers
    m["trace.unattributed_s"] = (in_ops.get(ROOT_SPAN, {}).get("self_s", 0.0), "s")
    m["trace.self_sum_s"] = (sum(t["self_s"] for n, t in in_ops.items()
                                 if n != ROOT_SPAN), "s")
    m["bench.traced_ops"] = (float(len(traced_ids)), "count")
    m["bench.setup_reps"] = (float(len(setup_ids)), "count")
    failed = sum(1 for o in ops if o.problems)
    m["failed_frac"] = (ratio(failed, len(ops)), "1")
    m["mean_intrinsic_error"] = (_median([o.error for o in ops]), "1")
    return m


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def import_program() -> float:
    """Put ``src/`` and this directory on the path and import every layer;
    returns the import time in seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    t0 = time.perf_counter()
    import plenocal.cli  # noqa: F401  (the CLI imports every layer)
    import workloads
    workloads.load_api()
    return time.perf_counter() - t0


def measure(workload_cls, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, truth_f_scale: float = 1.0) -> SimpleNamespace:
    """Set up ``workload_cls`` and run it in a closed loop for at most
    ``seconds``: whole rounds, at least one, and no round that would end
    after ``seconds``.  Traced runs pair every operation with an untraced
    run of the same operation and report per-layer metrics.  The speed probe
    runs after the imports, after set-up and after every operation."""
    from tracing import Tracer
    from workloads import RSS_SPANS, load_api, patch_table

    api = load_api()
    workdir = RESULTS / f"work-{workload_cls.name}-{seed}-{os.getpid()}"
    tracer = Tracer(RSS_SPANS) if trace else None
    table = patch_table(api) if trace else None
    try:
        speed_probe()                      # first call pays one-off costs
        probes = [speed_probe()]
        t0 = time.perf_counter()
        workload = workload_cls(api, seed, workdir, truth_f_scale)
        construct_s = time.perf_counter() - t0
        setup_times = []
        for r in range(workload.setup_reps):
            with tracer.operation(f"setup{r}", table) if trace else nullcontext():
                t0 = time.perf_counter()
                workload.prepare(r)
                setup_times.append(time.perf_counter() - t0)
        probes.append(speed_probe())
        setup_probe_s = (probes[0] + probes[1]) / 2

        ops, pairs, k = [], [], 0
        start = time.perf_counter()
        while True:
            if trace:
                # one untraced and one traced run of operation k, alternating
                # which goes first so warm-up does not favour either side
                pair = {}
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    with tracer.operation(k, table) if traced else nullcontext():
                        pair[traced] = run_op(workload, k)
                    ops.append(pair[traced])
                    ops[-1].probe_s = speed_probe()
                    probes.append(ops[-1].probe_s)
                pairs.append((pair[True], pair[False]))
            else:
                ops.append(run_op(workload, k))
                ops[-1].probe_s = speed_probe()
                probes.append(ops[-1].probe_s)
            k += 1
            if k % workload.round_size == 0:
                # stop before a round that would end after ``seconds``,
                # judged by the mean round so far
                elapsed = time.perf_counter() - start
                if elapsed * (1 + workload.round_size / k) > seconds:
                    break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(tracer, range(k),
                                    [f"setup{r}" for r in range(workload.setup_reps)],
                                    pairs, ops)
        metrics["bench.probe_s"] = (statistics.median(probes), "s")
    else:
        setup_s = (import_s + construct_s + statistics.median(setup_times)) \
            * PROBE_REF_S / setup_probe_s
        metrics = end_to_end_metrics(ops, workload.round_size, setup_s)
    return SimpleNamespace(metrics=metrics, ops=ops, elapsed=elapsed,
                           setup_times=setup_times, probes=probes, tracer=tracer,
                           failed=sum(1 for o in ops if o.problems))


def report(args, run, import_s: float) -> dict:
    """Print every metric with its unit, write the run record under
    ``bench/results/`` and return the result object for the last line."""
    env = environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(run.ops)} operations, {run.failed} failed, "
          f"closed loop, 1 caller, {BLAS_THREADS} BLAS thread(s)")
    print("# environment " + json.dumps(env, sort_keys=True))
    for o in run.ops:
        for problem in o.problems:
            print(f"# FAILED CHECK: {problem}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in run.metrics.items()}
    record = {"args": vars(args), "environment": env, "attempted": len(run.ops),
              "failed": run.failed, "import_s": import_s,
              "setup_times_s": run.setup_times, "probes_s": run.probes,
              "elapsed_s": run.elapsed,
              "metrics": metrics, "operations": [vars(o) for o in run.ops]}
    if run.tracer:
        record["spans"] = run.tracer.spans_as_dicts()
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float))
    return {"correct": run.failed == 0, "attempted": len(run.ops), "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (ROOT / "src" / "plenocal" / "__init__.py").is_file():
        print(f"error: no plenocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = import_program()
    from workloads import WORKLOADS

    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                  import_s)
    print(json.dumps(report(args, run, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
