"""Benchmark launcher for heatrates.

    python3 heatbench/run.py --workload classify|bounds|montecarlo \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.  The
launcher pins BLAS and OpenMP to one thread, measures set-up in
SETUP_RUNS fresh processes (the median is ``setup_s``), and runs the
workload in one more fresh process whose stderr goes to
.heatbench_out/.  Times are CPU times taken to a reference speed (see
speed.py and worker.py).  Python's default warning filters stay in force, so
warnings the package emits are paid for and land in that file.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones.  ``correct`` is false
when an op outside the known baseline failures (NOTES.md) failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from worker import MIN_SAMPLES

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
#: a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_frac": "1",
    "peak_rss_mb": "MB",
    "oracle_digits_min": "digits",
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def worker(args: list[str], env: dict, stderr_path: Path, timeout: float) -> dict:
    """Run worker.py in a fresh process and return its last JSON line."""
    with stderr_path.open("a") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                stdout=subprocess.PIPE, stderr=err, env=env, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker stopped after {timeout} s: the workload is too slow to measure") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}; see {stderr_path}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("classify", "bounds", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "heatrates" / "__init__.py").is_file():
        print(f"no heatrates package under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = root / ".heatbench_out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    stderr_path = out_dir / f"{tag}.stderr"
    stderr_path.write_text("")

    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out_dir)]
    setups = [
        worker([*worker_args, "--setup-only"], env, stderr_path, WORKER_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    res = worker(worker_args, env, stderr_path, WORKER_TIMEOUT_S)
    setups.append(res["setup_s"])
    if res["samples"] < MIN_SAMPLES:
        print(f"only {res['samples']} ops succeeded, fewer than {MIN_SAMPLES}: "
              "op_p90_ms would rest on too few samples", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            # the failure share plus half an op per pass, so that it is never 0
            "failed_frac": (res["failed"] + 0.5 * res["passes"]) / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
            "oracle_digits_min": res["oracle_digits_min"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "setup_runs_s": setups,
        "passes": res["passes"], "timed_s": res["wall_s"], "latency_samples": res["samples"],
        "probes": res["probes"], "probe_median_s": res["probe_median_s"],
        "failures": res["failures"], "unexpected_failures": res["unexpected"],
        "failure_reasons": res["reasons"],
    }
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
