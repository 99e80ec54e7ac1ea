"""Tests of the benchmark itself: decks, checks and span arithmetic.

    python -m pytest heatbench/tests -q
"""

import json
import math
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from heatrates.integral_tests import CONVERGENT, DIVERGENT  # noqa: E402


def _makeup(ops):
    return [(op.name, op.kind, op.preset, op.band) for op in ops]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_deck_is_deterministic(workload):
    a, b = wl.deck(workload, 7, 3), wl.deck(workload, 7, 3)
    assert _makeup(a) == _makeup(b)
    assert [op.params for op in a] == [op.params for op in b]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seeds_vary_only_parameters(workload):
    a, b = wl.deck(workload, 1, 0), wl.deck(workload, 2, 0)
    assert _makeup(a) == _makeup(b)
    assert [set(x.params) for x in a] == [set(y.params) for y in b]
    assert any(x.params != y.params for x, y in zip(a, b))
    assert _makeup(wl.deck(workload, 1, 1)) == _makeup(a)


def test_draws_of_a_name_cover_its_band_for_every_seed():
    # ten passes of one classify name: the Halton points fill [1.3, 1.9] evenly
    for seed in (1, 2, 3):
        betas = sorted(
            op.params["beta"] for k in range(10) for op in wl.deck("classify", seed, k)
            if op.name == "upper_rate_test/critical-bisect/divergent"
        )
        gaps = [b - a for a, b in zip([1.3] + betas, betas + [1.9])]
        assert max(gaps) < 0.6 / 4


def test_quantiles_use_name_medians_weighted_by_slots():
    lat = {"a": [0.001, 0.003, 0.002], "b": [0.010], "c": [0.100, 0.300]}
    p50, p90 = worker.latency_quantiles(lat, {"a": 5, "b": 4, "c": 1})
    # a pass is five a, four b and one c, at 2, 10 and 200 ms
    typical = [2.0] * 5 + [10.0] * 4 + [200.0]
    assert p50 == pytest.approx(6.0)
    assert p90 == pytest.approx(statistics.quantiles(typical, n=10)[8])


def test_speed_scale_uses_the_probes_around_an_op():
    log = speed.SpeedLog()
    for i in range(40):
        log.record(float(i), 2.0 * speed.PROBE_REF_S if i >= 20 else speed.PROBE_REF_S)
    assert log.scale(5.5) == pytest.approx(1.0)
    assert log.scale(35.5) == pytest.approx(0.5)
    assert log.scale(100.0) == pytest.approx(0.5)


def test_bounds_bands_straddle_the_branch_switch():
    for op in wl.deck("bounds", 3, 0):
        if op.band in ("near", "far", "near-edge"):
            scale = op.params["t"] ** (1.0 / wl._alpha(op.preset))
            ratio = op.params["r"] / scale
            assert ratio <= 2.0 if op.band.startswith("near") else ratio >= 5.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_known_failures_name_ops_of_the_deck(workload):
    names = {op.name for op in wl.deck(workload, 0, 0)}
    assert wl.KNOWN_FAILURES[workload] <= names


def test_known_failures_do_not_set_oracle_digits():
    known = "green_quadrature/stable:0.5,2/d2"
    tally = worker.Tally({known})
    tally.add(wl.Op(known, "green_quadrature", "stable:0.5,2", "d2"), False, 0.31, "relerr", 1.0)
    assert tally.digits_min == math.inf
    tally.add(wl.Op("density/cauchy1d/near", "density", "cauchy1d", "near"), True, 9.0, "", 1e-4)
    assert tally.digits_min == 9.0
    assert tally.failed == 1 and tally.attempted == 2


def test_stale_mc_reference_is_refused(monkeypatch):
    assert set(wl.load_reference()) == {"hit-short", "window-long"}
    monkeypatch.setitem(wl.HIT_SHORT, "n", 100)
    with pytest.raises(RuntimeError, match="stale"):
        wl.load_reference()


def test_classify_deck_has_enough_bisection_ops():
    names = [op.name for op in wl.deck("classify", 0, 0)]
    slow = [n for n in names if "bisect" in n or "powerlog:" in n]
    assert len(slow) >= 0.15 * len(names)


def test_planted_density_error_is_rejected():
    for preset in ("cauchy1d", "stable:1,3", "gaussian:3"):
        exact = checks.law_oracle(preset, "density", 1.5, 2.0)
        assert checks.check_density(preset, 1.5, 2.0, exact)[0]
        assert not checks.check_density(preset, 1.5, 2.0, exact * 1.01)[0]
    assert not checks.check_density("stable:0.5,2", 1.0, 2.0, -0.113)[0]


def test_planted_label_flip_is_rejected():
    assert checks.check_label(CONVERGENT, CONVERGENT)[0]
    assert not checks.check_label(DIVERGENT, CONVERGENT)[0]


def test_planted_partial_sum_error_is_rejected():
    _f, F, t0 = wl.TAIL_FAMILIES["log"]
    exact = F(t0 * 2.0**240, 2.0) - F(t0, 2.0)
    assert checks.against(exact, exact, checks.TOL["partial_sum"], "s")[0]
    assert not checks.against(exact * 1.01, exact, checks.TOL["partial_sum"], "s")[0]


@pytest.mark.parametrize("shift", [6.0, -6.0])
def test_planted_mc_shift_is_rejected(shift):
    p, n, n_ref = 0.3, 200, 40000
    sigma = checks.mc_sigma(p, n, n_ref)
    assert checks.check_mc(p, p, n, n_ref)[0][0]
    assert not checks.check_mc(p + shift * sigma, p, n, n_ref)[0][0]


def test_mc_upper_oracle_is_enforced():
    p, n = 0.22, 200
    assert checks.check_mc(p, p, n, 40000, upper_oracle=1.0 / 3.0)[0][0]
    assert not checks.check_mc(p, p, n, 40000, upper_oracle=0.05)[0][0]


@pytest.mark.parametrize("sf", [1.2, -0.2, 1.0])
def test_planted_sf_outside_unit_interval_is_rejected(sf):
    # sf = 1 at r > 0 puts no mass inside the ball: the clamped failure mode
    assert not checks.check_sf_cdf("stable:1.5,3", 1.0, 2.0, sf, 1.0 - sf)[0]


def test_sf_cdf_oracles_agree():
    for preset in ("cauchy1d", "stable:1,2", "stable:1,3", "gaussian:2", "gaussian:3"):
        for r in (0.5, 3.0, 40.0):
            sf = checks.law_oracle(preset, "sf", 2.0, r)
            cdf = checks.law_oracle(preset, "cdf", 2.0, r)
            assert checks.check_sf_cdf(preset, 2.0, r, sf, cdf)[0]


def test_riesz_oracle_reduces_to_newton_kernel():
    # alpha = 2 in the variance-2t convention: G(r) = 1 / (4 pi r) in 3-d
    assert math.isclose(checks.riesz_green(2.0, 3, 2.0), 1.0 / (8.0 * math.pi))


def test_self_time_on_nested_trace():
    trace = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["c", 5.5, 7.0, 0, 0],  # overlaps b: the covered union is [5, 7]
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])
    assert spans.mean_self_time(trace, spans.self_times(trace), {"b", "c"}) == pytest.approx(1.25)
    assert spans.mean_self_time(trace, spans.self_times(trace), {"absent"}) == 0.0


def test_recorder_counts_errors_by_raising_layer():
    from heatrates import kernels as kn

    rec = spans.Recorder()
    with pytest.raises(OverflowError):
        rec.call("potential.green_function.quadrature", kn.density, kn.from_id("stable:1.9,3"), 1.0, 10.0)
    assert rec.errors == {("kernels", "OverflowError"): 1}
    assert spans.self_times(rec.spans)[0] > 0.0


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.per_layer_units()


def test_layer_metrics_print_every_per_layer_name():
    names = set(layers.layer_metrics(spans.Recorder(), 0.0)) | set(layers.BASELINE_METRICS)
    assert names == set(layers.per_layer_units())


def test_baseline_probes_match_their_metric_names():
    assert tuple(layers._baseline_probes()) == layers.BASELINE_METRICS


def test_calibration_is_not_imported():
    assert "heatrates.calibration" not in sys.modules
