"""Per-layer metrics from a traced run, and the baseline table.

Times are mean self times per call of the spans a metric names (a span's
self time excludes its child spans).  A metric whose spans the workload
never records reads 0: that layer does no work in that workload.
"""

from __future__ import annotations

import statistics
import time


from heatrates import kernels as kn
from heatrates import potential as pt
from heatrates import scaling as sc
from heatrates import simulate as sim

import spans as sp
import workloads

MS, US = 1e3, 1e6

#: metric -> (unit, scale, span names): mean self time per call
SPAN_METRICS = {
    "scaling.from_id_ms": ("ms", MS, ("scaling.from_id",)),
    "scaling.inverse_exact_us": ("us", US, ("scaling.inverse.exact",)),
    "scaling.inverse_bisect_us": ("us", US, ("scaling.inverse.bisect",)),
    "integral_tests.classify_ms": ("ms", MS, ("integral_tests.classify_tail_integral",)),
    "integral_tests.named_test_ms.kolmogorov": ("ms", MS, ("integral_tests.kolmogorov_test",)),
    "integral_tests.named_test_ms.dvoretzky_erdos": ("ms", MS, ("integral_tests.dvoretzky_erdos_test",)),
    "integral_tests.named_test_ms.upper_rate": ("ms", MS, ("integral_tests.upper_rate_test",)),
    "integral_tests.named_test_ms.subcritical_lower": (
        "ms", MS, ("integral_tests.subcritical_lower_rate_test",)),
    "integral_tests.named_test_ms.critical_lower": ("ms", MS, ("integral_tests.critical_lower_rate_test",)),
    "kernels.from_id_ms": ("ms", MS, ("kernels.from_id",)),
    "kernels.classify_long_run_ms": ("ms", MS, ("kernels.classify_long_run",)),
    "kernels.density_near_us": ("us", US, ("kernels.density.near",)),
    "kernels.density_far_us": ("us", US, ("kernels.density.far",)),
    "kernels.cdf_near_us": ("us", US, ("kernels.radial_cdf.near",)),
    "kernels.sf_far_us": ("us", US, ("kernels.radial_sf.far",)),
    "kernels.tail_probability_ms": ("ms", MS, ("kernels.tail_probability.near", "kernels.tail_probability.far")),
    "kernels.comparability_sweep_ms": ("ms", MS, ("kernels.comparability_sweep",)),
    "potential.green_quadrature_ms": ("ms", MS, ("potential.green_function.quadrature",)),
    "potential.green_envelope_ms": ("ms", MS, ("potential.green_function.envelope",)),
    "potential.closed_form_us": ("us", US, (
        "potential.capacity_bound", "potential.hit_ball_from_distance",
        "potential.q_bound", "potential.occupation_sandwich")),
    "simulate.sample_path_us.short": ("us", US, ("simulate.sample_path.short",)),
    "simulate.sample_path_us.long": ("us", US, ("simulate.sample_path.long",)),
    "simulate.first_hit_us": ("us", US, ("simulate.first_hit_time",)),
    "simulate.window_us": ("us", US, ("simulate.window_min_distance", "simulate.window_max_distance")),
}

#: exception types counted for the kernels layer; any other type is "other"
KERNEL_ERRORS = ("OverflowError", "ZeroDivisionError", "ValueError", "other")

#: the baseline table of ROADMAP item 1, as named probes
BASELINE_REPEATS = 3


def _baseline_probes():
    stable = kn.from_id("stable:1.5,3")
    cfg = workloads.HIT_CONFIGS["stable:1.5,3"]
    scheme = sim.DyadicBlocks(per_block=workloads.HIT_SHORT["per_block"])
    null = sp.NullRecorder()
    return {
        "baseline.power_ms": lambda: sc.power(1.5),
        "baseline.kernels_from_id_ms": lambda: kn.from_id("stable:1.5,3"),
        "baseline.classify_long_run_ms": lambda: kn.classify_long_run(stable),
        "baseline.density_far_3d_ms": lambda: kn.density(stable, 1.0, 10.0),
        "baseline.radial_sf_far_ms": lambda: kn.radial_sf(stable, 1.0, 10.0),
        "baseline.green_quadrature_ms": lambda: pt.green_function(stable, 2.0, pt.QUADRATURE),
        "baseline.comparability_sweep_ms": lambda: kn.comparability_sweep(stable, n_dist=8),
        "baseline.hit_200_paths_ms": lambda: workloads.hit_estimate(
            stable, cfg, 12345, workloads.HIT_SHORT["n"], scheme, null),
    }


BASELINE_METRICS = (
    "baseline.power_ms", "baseline.kernels_from_id_ms", "baseline.classify_long_run_ms",
    "baseline.density_far_3d_ms", "baseline.radial_sf_far_ms", "baseline.green_quadrature_ms",
    "baseline.comparability_sweep_ms", "baseline.hit_200_paths_ms",
)


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in the order printed."""
    units = {name: unit for name, (unit, _s, _n) in SPAN_METRICS.items()}
    units.update({
        "integral_tests.integrand_evals": "count",
        "integral_tests.inconclusive_frac": "1",
        **{f"kernels.errors.{e}": "count" for e in KERNEL_ERRORS},
        "kernels.warnings": "count",
        "potential.warnings": "count",
        "potential.green_relerr_max": "1",
        "simulate.increments_per_s": "1/s",
        "simulate.path_bytes": "B",
        "simulate.hit_z_max": "sigma",
        "trace.overhead_frac": "1",
    })
    units.update({name: "ms" for name in BASELINE_METRICS})
    return units


def baseline_table() -> dict:
    """Median wall time of each baseline probe over BASELINE_REPEATS calls."""
    out = {}
    for name, probe in _baseline_probes().items():
        times = []
        for _ in range(BASELINE_REPEATS):
            t = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t)
        out[name] = {"value": statistics.median(times) * MS, "unit": "ms"}
    return out


def layer_metrics(rec: sp.Recorder, overhead_frac: float) -> dict:
    selfs = sp.self_times(rec.spans)
    out = {}
    for name, (unit, scale, names) in SPAN_METRICS.items():
        out[name] = {"value": sp.mean_self_time(rec.spans, selfs, set(names)) * scale, "unit": unit}

    n_classify = sum(1 for s in rec.spans if s[0] == "integral_tests.classify_tail_integral")
    evals = rec.counts["integral_tests.integrand_evals"]
    out["integral_tests.integrand_evals"] = {
        "value": evals / n_classify if n_classify else 0.0, "unit": "count"}
    verdicts = rec.counts["integral_tests.verdicts"]
    out["integral_tests.inconclusive_frac"] = {
        "value": rec.counts["integral_tests.inconclusive"] / verdicts if verdicts else 0.0, "unit": "1"}

    kernel_errors = {k: 0 for k in KERNEL_ERRORS}
    for (layer, etype), n in rec.errors.items():
        if layer == "kernels":
            kernel_errors[etype if etype in kernel_errors else "other"] += n
    for etype, n in kernel_errors.items():
        out[f"kernels.errors.{etype}"] = {"value": n, "unit": "count"}
    out["kernels.warnings"] = {"value": rec.warnings["kernels"], "unit": "count"}
    out["potential.warnings"] = {"value": rec.warnings["potential"], "unit": "count"}
    out["potential.green_relerr_max"] = {
        "value": rec.maxima.get("potential.green_relerr_max", 0.0), "unit": "1"}

    # computed from array sizes: increments drawn per second of sample_path
    # self time, and the largest times + positions arrays of one path
    paths = {"simulate.sample_path.short", "simulate.sample_path.long"}
    busy = sum(t for s, t in zip(rec.spans, selfs) if s[0] in paths)
    out["simulate.increments_per_s"] = {
        "value": rec.counts["simulate.increments"] / busy if busy else 0.0, "unit": "1/s"}
    out["simulate.path_bytes"] = {"value": rec.maxima.get("simulate.path_bytes", 0), "unit": "B"}
    out["simulate.hit_z_max"] = {"value": rec.maxima.get("simulate.hit_z_max", 0.0), "unit": "sigma"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "1"}
    return out
