import bisect
import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import wrightomega

from heatrates import scaling as sc
from heatrates.errors import BracketError, EvaluationError, PreconditionError
from heatrates.integral_tests import _block_nodes


class TestScalingFunctionConstruction:
    def test_power_accepts_exact_envelope(self):
        f = sc.power(1.5)
        assert f(4.0) == pytest.approx(8.0)

    def test_positive_required(self):
        with pytest.raises(EvaluationError):
            sc.ScalingFunction(
                evaluator=lambda r: r - 1.0,
                monotonicity=sc.INCREASING,
                envelope=sc.Envelope(1.0, 1.0, 1.0, 1.0),
                domain_floor=1e-3,
            )

    def test_monotonicity_enforced(self):
        with pytest.raises(PreconditionError, match="not nondecreasing near r=1e-06"):
            sc.ScalingFunction(
                evaluator=lambda r: 1.0 / r,
                monotonicity=sc.INCREASING,
                envelope=sc.Envelope(1.0, -1.0, 1.0, -1.0),
            )
        with pytest.raises(PreconditionError, match="not nonincreasing near r=1e-06"):
            sc.ScalingFunction(lambda r: r, sc.DECREASING, sc.Envelope(1.0, 1.0, 1.0, 1.0))

    def test_envelope_violation_rejected(self):
        # r^2 cannot satisfy a linear upper envelope
        with pytest.raises(PreconditionError):
            sc.ScalingFunction(
                evaluator=lambda r: r**2,
                monotonicity=sc.INCREASING,
                envelope=sc.Envelope(0.5, 1.0, 2.0, 1.0),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c_lo", "d_lo", "c_hi", "d_hi"])
    def test_envelope_must_be_finite(self, field, bad):
        # a NaN fails every comparison, so it would pass every grid check
        env = dict(c_lo=1.0, d_lo=2.0, c_hi=1.0, d_hi=2.0)
        env[field] = bad
        with pytest.raises(ValueError, match="finite"):
            sc.Envelope(**env)

    @pytest.mark.parametrize("ev", [lambda r: 0.0 if r < 1 else r, lambda r: r - 1.0])
    def test_fit_envelope_names_a_non_positive_value(self, ev):
        # the log of the values would be -inf or NaN, and the exponents NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-positive value at r=1e-06"):
                sc.fit_envelope(ev, 1e-6)

    def test_envelope_holds_on_grid_pairs(self):
        # accepted construction implies the bracket at every grid pair
        f = sc.powerlog(1.0, 2.0)
        g = f.grid()
        vals = np.array([f(r) for r in g])
        env = f.envelope
        for i in range(0, len(g), 7):
            for j in range(i + 1, len(g), 7):
                span = g[j] / g[i]
                ratio = vals[j] / vals[i]
                assert env.c_lo * span**env.d_lo <= ratio * (1 + 1e-9)
                assert ratio <= env.c_hi * span**env.d_hi * (1 + 1e-9)


def _pair_loop_fit(evaluator, domain_floor, logs=None):
    # reference: the pairwise slope sweep as one Python loop over grid pairs,
    # on the given log f or on one evaluator call per grid point
    g = sc.log_grid(domain_floor, domain_floor * 10.0**sc.GRID_DECADES)
    if logs is None:
        logs = np.log(np.array([float(evaluator(r)) for r in g]))
    lg = np.log(g)
    slopes = [
        (logs[j] - logs[i]) / (lg[j] - lg[i])
        for i in range(len(g))
        for j in range(i + 1, len(g))
    ]
    return min(slopes), max(slopes)


def _all_pairs_check(ev, env, name, domain_floor=1e-6):
    # reference: the envelope on every grid pair i < j, as ratios of values
    # against powers of the span; returns the message naming the first
    # violating pair in i-major order (None if there is none) and the margin,
    # the smallest relative distance of a ratio from either slackened bound
    g = sc.log_grid(domain_floor, domain_floor * 10.0**sc.GRID_DECADES)
    vals = np.array([float(ev(r)) for r in g])
    i, j = np.triu_indices(len(g), k=1)
    span, ratio = g[j] / g[i], vals[j] / vals[i]
    lo = env.c_lo * span**env.d_lo * (1 - sc.GRID_RTOL)
    hi = env.c_hi * span**env.d_hi * (1 + sc.GRID_RTOL)
    with np.errstate(divide="ignore"):  # a bound that underflows to 0 is never near
        margin = float(np.min(np.minimum(np.abs(ratio / lo - 1), np.abs(ratio / hi - 1))))
    bad = (ratio < lo) | (ratio > hi)
    if not bad.any():
        return None, margin
    k = int(np.argmax(bad))
    return (
        f"{name}: envelope violated at (r={g[i[k]]:g}, R={g[j[k]]:g}): "
        f"ratio={ratio[k]:g} outside [{env.c_lo * span[k]**env.d_lo:g}, "
        f"{env.c_hi * span[k]**env.d_hi:g}]"
    ), margin


def _construction_message(ev, env, name, domain_floor=1e-6, mono=sc.INCREASING):
    # the message of the envelope check on construction, None if it passes
    try:
        sc.ScalingFunction(ev, mono, env, domain_floor=domain_floor, name=name)
    except PreconditionError as exc:
        return str(exc)
    return None


# log r of the default grid's ends, from floor 1e-6
_LOG_ENDS = (math.log(1e-6), math.log(1e2))


def _piecewise_power(knots, slopes, scale):
    # exp of a continuous piecewise-linear function of log r, slopes[k] after
    # the k-th knot (slopes[0] before the first): monotone when the slopes
    # share a sign
    starts = [_LOG_ENDS[0], *knots]
    levels = [0.0]
    for k in range(len(knots)):
        levels.append(levels[-1] + slopes[k] * (starts[k + 1] - starts[k]))

    def ev(r):
        x = math.log(r)
        k = bisect.bisect_right(knots, x)
        return scale * math.exp(levels[k] + slopes[k] * (x - starts[k]))

    return ev


@st.composite
def _piecewise_functions(draw):
    sign = draw(st.sampled_from([1.0, -1.0]))
    n = draw(st.integers(0, 4))
    knots = sorted(draw(st.lists(st.floats(*_LOG_ENDS), min_size=n, max_size=n)))
    slopes = [sign * draw(st.floats(0.0, 4.0)) for _ in range(n + 1)]
    scale = draw(st.floats(1e-3, 1e3))
    return _piecewise_power(knots, slopes, scale), sign


class TestBroadcastEnvelope:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: sc.powerlog(1.5, 1.0),
            lambda: sc.powerlog(0.0, -0.7),
            lambda: sc.powerlog(2.5, -1.5),
            lambda: sc.powerlog(-1.0, 0.5),
            lambda: sc.exp_decay(0.25, 2.0),
            lambda: sc.exp_decay(3.0, 0.3),
            lambda: sc.loglog_g(0.0),
            lambda: sc.loglog_g(1.0),
            lambda: sc.iterated_log_g(0.5),
            lambda: sc.iterated_log_g(-0.5),
        ],
    )
    def test_fit_matches_pair_loop(self, build):
        # the neighbouring slopes give the all-pairs bracket bit for bit, on
        # the values of the one ell call on the grid that construction makes
        f = build()
        d_lo, d_hi = _pair_loop_fit(None, f.domain_floor, f.ell(np.log(f.grid())))
        assert (f.envelope.d_lo, f.envelope.d_hi) == (d_lo, d_hi)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(fn=_piecewise_functions())
    def test_fit_matches_pair_slopes(self, fn):
        # a chord's slope is a weighted mean of the neighbouring slopes it
        # spans, so the extremes agree up to the rounding of one slope
        ev, _sign = fn
        env = sc.fit_envelope(ev, 1e-6)
        for got, want in zip((env.d_lo, env.d_hi), _pair_loop_fit(ev, 1e-6)):
            assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize(
        "ev, env",
        [
            (lambda r: r**2, sc.Envelope(0.5, 1.0, 2.0, 1.0)),  # too steep
            (lambda r: r**1.5, sc.Envelope(1.0, 1.6, 1.0, 2.0)),  # too shallow
            # kinked: only pairs whose R lies past the kink at r = 10 break it
            (lambda r: r if r < 10.0 else 10.0 * (r / 10.0) ** 1.3, sc.Envelope(1.0, 1.0, 1.1, 1.2)),
        ],
    )
    def test_violation_names_first_pair(self, ev, env):
        expected, _margin = _all_pairs_check(ev, env, "probe")
        assert expected is not None
        assert _construction_message(ev, env, "probe") == expected

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        fn=_piecewise_functions(),
        d_lo=st.floats(-0.5, 0.5),
        d_hi=st.floats(-0.5, 0.5),
        c_lo=st.floats(0.2, 1.2),
        c_hi=st.floats(0.8, 5.0),
    )
    def test_check_matches_all_pairs(self, fn, d_lo, d_hi, c_lo, c_hi):
        # envelopes around the fitted exponents: some hold, some break at
        # one end of the grid or at a kink, in either bound; a c_lo above 1
        # or a c_hi below 1 brackets no f(R)/f(r) with R close to r
        ev, sign = fn
        fit = sc.fit_envelope(ev, 1e-6)
        args = (c_lo, fit.d_lo + min(d_lo, d_hi), c_hi, fit.d_hi + max(d_lo, d_hi))
        if c_lo > 1 or c_hi < 1:
            with pytest.raises(ValueError, match="c_lo <= 1 <= c_hi"):
                sc.Envelope(*args)
            return
        env = sc.Envelope(*args)
        expected, margin = _all_pairs_check(ev, env, "probe")
        if margin > 1e-12:
            mono = sc.INCREASING if sign > 0 else sc.DECREASING
            assert _construction_message(ev, env, "probe", mono=mono) == expected

    @pytest.mark.parametrize(
        "spec", ["powerlog:1.5,1", "powerlog:0,-2", "exp-decay:0.25,2", "loglog-g:1",
                 "iterated-log-g:0.5"],
    )
    @pytest.mark.parametrize(
        "field, scale, shift",
        [("c_lo", 0.9, 0.0), ("c_lo", 1.1, 0.0), ("c_hi", 0.9, 0.0), ("c_hi", 1.1, 0.0),
         ("d_lo", 1.0, -1e-3), ("d_lo", 1.0, 1e-3), ("d_hi", 1.0, -1e-3), ("d_hi", 1.0, 1e-3)],
    )
    def test_presets_with_moved_envelopes(self, spec, field, scale, shift):
        # a preset's own envelope with one constant or exponent moved; a
        # c_lo moved above 1 or a c_hi below 1 is refused outright
        f = sc.from_id(spec)
        moved = {field: getattr(f.envelope, field) * scale + shift}
        if moved.get("c_lo", 1.0) > 1 or moved.get("c_hi", 1.0) < 1:
            with pytest.raises(ValueError, match="c_lo <= 1 <= c_hi"):
                dataclasses.replace(f.envelope, **moved)
            return
        env = dataclasses.replace(f.envelope, **moved)
        expected, margin = _all_pairs_check(f.evaluator, env, "probe", f.domain_floor)
        assert margin > 1e-12
        got = _construction_message(f.evaluator, env, "probe", f.domain_floor, f.monotonicity)
        assert got == expected


    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("nudge, holds", [(-1e-11, True), (1e-11, False)])
    def test_slack_is_grid_rtol(self, side, nudge, holds):
        # r**2 against exponents half a unit above (lo) or below (hi) its
        # own, whose tightest constant, at the grid's widest pair, is span**-0.5
        # or span**0.5; with that constant 1e-11 inside (the envelope holds) or
        # outside (it breaks) the one the GRID_RTOL slack allows
        ev = lambda r: r**2
        g = sc.log_grid(1e-6, 1e-6 * 10.0**sc.GRID_DECADES)
        span = g[-1] / g[0]
        if side == "lo":
            env = sc.Envelope(span**-0.5 / (1 - sc.GRID_RTOL) * (1 + nudge), 2.5, 1.0, 2.5)
        else:
            env = sc.Envelope(1.0, 1.5, span**0.5 / (1 + sc.GRID_RTOL) * (1 - nudge), 1.5)
        expected, margin = _all_pairs_check(ev, env, "probe")
        assert margin > 1e-12 and (expected is None) == holds
        assert _construction_message(ev, env, "probe") == expected


class TestLogGrid:
    #: the largest floor whose grid top, floor * 10**GRID_DECADES, is finite
    TOP = sys.float_info.max / 10.0**sc.GRID_DECADES

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(lo=st.floats(5e-324, TOP))
    @example(lo=1e-300)
    @example(lo=TOP)
    @example(lo=5e-324)
    @example(lo=1e-6)
    @example(lo=16.0)
    def test_matches_geomspace(self, lo):
        hi = lo * 10.0**sc.GRID_DECADES
        with np.errstate(over="ignore"):  # near TOP, 10**log10(hi) may pass the float range
            got, want = sc.log_grid(lo, hi), np.geomspace(lo, hi, sc.GRID_POINTS)
        assert got.tobytes() == want.tobytes()

    def test_top_floor_is_the_largest(self):
        assert math.isfinite(self.TOP * 10.0**sc.GRID_DECADES)
        assert math.isinf(math.nextafter(self.TOP, math.inf) * 10.0**sc.GRID_DECADES)


def _h_loop(h, pts):
    # reference: the decay check as one Python loop over float grid points,
    # (ok, theta, c0, worst_point) with the first point of the largest ratio
    pts = [r for r in pts if r > 1.0]

    def worst(theta):
        w, arg = -math.inf, pts[0]
        for r in pts:
            diff = h.log_value(theta * r) - h.log_value(r)
            ratio = math.exp(diff) if diff < 700.0 else math.inf
            if ratio > w:
                w, arg = ratio, r
        return w, arg

    best = None
    for theta in (2.0, 4.0, 8.0):
        w, arg = worst(theta)
        if 0 < w < 1:
            return True, theta, w, arg
        if best is None or w < best[2]:
            best = (False, theta, w, arg)
    return best


def _report(rep):
    # numpy's array log, exp and power may round the last bit of a value
    # differently from a float call, so the value is compared to 1e-15 and
    # the point exactly
    return rep.ok, rep.theta, pytest.approx(rep.c0, rel=1e-15), rep.worst_point


class TestGridChecksMatchLoops:
    # the array expressions against the loops, equal in value and point, on
    # the function's own grid and on a grid of [1.01, 100] within its domain
    GRID = np.geomspace(1.01, 100.0, 64)

    @pytest.mark.parametrize(
        "spec", ["power:-1.5", "exp-decay:0.25,2", "exp-decay:1,1.5", "loglog-g:1",
                 "iterated-log-g:0.5", "const:0.5"],
    )
    def test_upper_decay(self, spec):
        h = sc.from_id(spec)
        for grid in (h.grid(), self.GRID[self.GRID >= h.domain_floor]):
            got = sc.check_h_conditions(h, grid=grid)
            assert _report(got) == _h_loop(h, grid.tolist()), (spec, grid[0])

    def test_past_the_cutoff(self):
        # a user's h, declared decreasing and verified on [1e-8, 1], that
        # rises past r = 100: log h(2r) - log h(r) = 705 passes 700, so the
        # ratio is inf, though e**705 would still be a float, and the first
        # such point is reported
        h = sc.ScalingFunction(lambda r: math.exp(-700.0 if r <= 100.0 else 5.0), sc.DECREASING,
                               sc.Envelope(1.0, 0.0, 1.0, 0.0), domain_floor=1e-8)
        got = sc.check_h_conditions(h, grid=self.GRID)
        first = float(self.GRID[self.GRID > 50.0][0])
        assert (got.ok, got.theta, got.c0, got.worst_point) == (False, 2.0, math.inf, first)
        assert _report(got) == _h_loop(h, self.GRID.tolist())

    def test_scalar_only_profile(self):
        h = sc.ScalingFunction(lambda s: math.exp(-s), sc.DECREASING,
                               sc.fit_envelope(lambda s: math.exp(-s), 1e-6))
        assert h(self.GRID).tolist() == [h(r) for r in self.GRID.tolist()]
        got = sc.check_h_conditions(h, grid=self.GRID)
        assert _report(got) == _h_loop(h, self.GRID.tolist())

def _grid_values_loop(evaluator, g, name=""):
    """_grid_values as one call per np.float64 grid point, with its two checks."""
    vals = np.array([float(evaluator(r)) for r in g])
    for bad, what in ((~np.isfinite(vals), "non-finite"), (vals <= 0, "non-positive")):
        if bad.any():
            raise EvaluationError(f"{name or 'scaling function'}: {what} value at r={g[bad][0]:g}")
    return vals


class TestGridValues:
    # Python floats and np.float64 scalars reach the same libm calls, so the
    # values are equal bit for bit, as float hex
    @pytest.mark.parametrize(
        "spec", ["power:2", "power:-1.5", "power:0.1", "const:0.5", "powerlog:1.5,1", "powerlog:1.2,0.6",
                 "powerlog:0,-2", "powerlog:1.5,-0.3", "exp-decay:0.25,2", "exp-decay:1,1.5",
                 "iterated-log-g:0.5", "iterated-log-g:-0.5", "loglog-g:0", "loglog-g:1"],
    )
    def test_presets_match_float64_loop(self, spec):
        f = sc.from_id(spec)
        g = f.grid()
        got = sc._grid_values(f.evaluator, g, f.name)
        assert got.dtype == float
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in _grid_values_loop(f.evaluator, g).tolist()]

    @pytest.mark.parametrize(
        "ev", [lambda r: int(r) + 1, lambda r: np.float64(r) ** 1.5, lambda r: r**0.5,
               lambda r: math.exp(-r), lambda r: 2.0**-r + math.log1p(r)],
        ids=["int", "float64", "pow", "exp", "mixed"],
    )
    def test_user_evaluators_match_float64_loop(self, ev):
        g = sc.log_grid(1e-3, 1e2)
        got = sc._grid_values(ev, g)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in _grid_values_loop(ev, g).tolist()]

    @pytest.mark.parametrize(
        "ev", [lambda r: math.nan if r > 1 else r, lambda r: math.inf if r > 1 else r,
               lambda r: -math.inf if r > 1 else r, lambda r: 0.0 if r > 1 else r,
               lambda r: r - 1.0, lambda r: 0.0 if r < 1 else (math.nan if r > 10 else r)],
        ids=["nan", "inf", "-inf", "zero", "negative", "zero-then-nan"],
    )
    def test_messages_unchanged(self, ev):
        # the first non-finite value is named before the first non-positive one
        g = sc.log_grid(1e-3, 1e5)
        with pytest.raises(EvaluationError) as want:
            _grid_values_loop(ev, g, "f")
        with pytest.raises(EvaluationError) as got:
            sc._grid_values(ev, g, "f")
        assert str(got.value) == str(want.value)


class TestHConditions:
    def test_power_upper_decay(self):
        beta = 1.5
        h = sc.power(-beta)
        rep = sc.check_h_conditions(h)
        assert rep.ok
        assert rep.c0 == pytest.approx(2.0**-beta, rel=1e-9)
        assert rep.theta == 2.0

    def test_stretched_exponential_shape(self):
        # exp(-c0 s^{beta/(beta-1)}) decays geometrically
        h = sc.exp_decay(0.25, 2.0)
        up = sc.check_h_conditions(h, grid=np.geomspace(1.01, 12.0, 64))
        assert up.ok and up.c0 < 1.0

    def test_zero_at_both_points_is_an_error(self):
        # exp-decay:1,2 is 0 (log h = -inf) from r = 1e200 on: h(theta r)/h(r)
        # is 0/0 there, which warned and read inf
        with pytest.raises(EvaluationError, match=r"exp-decay:1,2: 0 at both 2 r and r at r=1e\+200"):
            sc.check_h_conditions(sc.exp_decay(1.0, 2.0), grid=[1e200, 1e201])

    def test_nonfinite_evaluation_reported(self):
        # verified on [1e-8, 1]; NaN past r = 50, where theta r = 2 r reaches
        h = sc.ScalingFunction(
            lambda r: float("nan") if r > 50 else 1.0 / r,
            sc.DECREASING,
            sc.Envelope(1.0, -1.0, 1.0, -1.0),
            domain_floor=1e-8,
        )
        with pytest.raises(EvaluationError, match=r"non-finite value at r=80$"):
            sc.check_h_conditions(h, grid=np.array([2.0, 10.0, 40.0]))

    def test_not_decreasing_rejected(self):
        f = sc.power(1.0)
        with pytest.raises(PreconditionError):
            sc.check_h_conditions(f)


class TestInverse:
    def test_square(self):
        assert sc.inverse(sc.power(2.0), 9.0) == pytest.approx(3.0, rel=1e-12)

    def test_fractional_power(self):
        assert sc.inverse(sc.power(1.5), 8.0) == pytest.approx(4.0, rel=1e-12)

    def test_against_independent_root_finder(self):
        def ev(r):
            return r**2 * math.log(math.e + r)

        f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 1e-6))
        y = 100.0
        t_star = brentq(lambda r: ev(r) - y, 1e-3, 100.0, xtol=1e-14, rtol=1e-15)
        got = sc.inverse(f, y)
        assert got == pytest.approx(t_star, rel=1e-10)

    def test_round_trip_property(self):
        def ev(r):
            return r**1.3 * math.log(math.e + r) ** 0.5

        f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 1e-6))
        rng = np.random.default_rng(7)
        ys = np.exp(rng.uniform(math.log(ev(0.01)), math.log(ev(500.0)), size=100))
        for y in ys:
            t = sc.inverse(f, float(y))
            assert abs(ev(t) - y) <= 1e-12 * y

    def test_monotone_in_y(self):
        f = dataclasses.replace(sc.power(2.0), exact_inverse=None)  # regula falsi
        ys = np.linspace(1.0, 100.0, 25)
        ts = [sc.inverse(f, float(y)) for y in ys]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_evaluations_per_solve(self):
        # evaluators with no exact inverse: gallop from 1, then regula falsi;
        # without the Illinois halving, exp and the kinked function take 77
        # to 83 evaluations on some of these targets
        cases = [
            (sc.powerlog(1.5, 1.0).evaluator, 2.0, np.geomspace(1e2, 1e300, 16)),
            (math.exp, 1e-8, np.geomspace(1.1, 1e307, 40)),
            (_kinked, 1e-3, np.geomspace(1e-2, 1e12, 40)),
        ]
        for base, floor, ys in cases:
            calls = [0]

            def ev(r, base=base):
                calls[0] += 1
                return base(r)

            f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(base, floor), domain_floor=floor)
            for y in ys:
                calls[0] = 0
                t = sc.inverse(f, float(y))
                assert calls[0] <= 40, (base, y, calls[0])
                assert abs(base(t) - y) <= 1e-12 * y

    def test_target_beyond_two_to_the_200(self):
        # the root sits near 2^200: a doubling search capped there missed it
        # (the gallop and regula falsi, without powerlog's exact inverse)
        f = _illinois(sc.powerlog(1.2, 0.6))
        y = 64.0 * 2.0**240
        t = sc.inverse(f, y)
        assert t > 2.0**190
        assert abs(f(t) - y) <= 1e-12 * y
        _assert_root(t, _omega_inverse(1.2, 0.6, y), 1.2 + 0.6 / math.log(t))

    def test_evaluator_overflow_past_root(self):
        # the gallop overshoots into math.exp overflow and backs off
        f = sc.ScalingFunction(
            math.exp, sc.INCREASING, sc.fit_envelope(math.exp, 1e-8), domain_floor=1e-8
        )
        for y in (1e2, 1e250, 1e307):
            t = sc.inverse(f, y)
            assert abs(math.exp(t) - y) <= 1e-12 * y
            _assert_root(t, math.log(y), t)

    @pytest.mark.parametrize(
        "ev, y",
        [(lambda r: r / (1.0 + r), 2.0), (lambda r: 1.0 + r / (1.0 + r), 0.5)],
    )
    def test_unreachable_target(self, ev, y):
        f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 1e-6))
        with pytest.raises(BracketError):
            sc.inverse(f, y)

    def test_kinked_piecewise_power(self):
        # continuous, increasing, with slope jumps at r = 10 and r = 1e3
        f = _scalar_only_functions()["kinked"]
        ys = np.concatenate([np.geomspace(1e-2, 1e12, 40), [_kinked(10.0), _kinked(1e3)]])
        for y in ys:
            want = _kinked_inverse(y)
            t = sc.inverse(f, float(y))
            assert abs(_kinked(t) - y) <= 1e-12 * y, y
            _assert_root(t, want, min(_kinked_slope(t), _kinked_slope(want)))


class TestPowerlogDomain:
    def test_below_one_raises(self):
        # (log r)**q is complex below r = 1
        f = sc.powerlog(1.5, 0.9)
        assert f(1.0) == 0.0
        with pytest.raises(EvaluationError, match="r=0.9"):
            f(0.9)
        with pytest.raises(EvaluationError, match="r=0.5"):
            f.log_value(0.5)

    @pytest.mark.parametrize("r", [1.0, np.float64(1.0), np.array(1.0)])
    def test_positive_log_exponent_log_value_at_one(self, r):
        # f(1) = 0, so log f(1) = -inf: a float call raised "math domain
        # error" and an array call warned
        f = sc.powerlog(1.5, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(r) == 0.0
            v = f.log_value(r)
            assert type(v) is float and v == -math.inf
            arr = f.log_value(np.array([1.0, 2.0]))
        assert arr[0] == -math.inf and arr[1] == f.log_value(2.0)
        assert arr[1] == pytest.approx(math.log(f(2.0)), rel=1e-14)

    def test_zero_log_exponent_log_value_at_one(self):
        # (log r)**0 = 1, so f(1) = 1 and log f(1) = 0
        f = sc.powerlog(1.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(1.0) == 1.0 and f.log_value(1.0) == 0.0
            assert np.array_equal(f.log_value(np.array([1.0, 4.0])), [0.0, 1.5 * math.log(4.0)])

    @pytest.mark.parametrize(
        "r, named", [(1.0, "r=1"), (np.float64(1.0), "r=1"), (np.array(1.0), "r=1"), (0.5, "r=0.5"),
                     (np.array([1.0, 2.0]), "r=1"), (np.array([2.0, 0.5, 1.0]), "r=0.5")],
    )
    def test_negative_log_exponent_undefined_at_one(self, r, named):
        # with q < 0, (log r)**q is 1/0 at r = 1: a float call divided by
        # zero and an array call warned and gave inf
        f = sc.powerlog(1.5, -0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in (f, f.log_value):
                with pytest.raises(EvaluationError, match=f"powerlog:1.5,-0.3: undefined at {named} "):
                    method(r)

    def test_negative_log_exponent_inverse(self):
        # increasing on its domain [2, 2e8] and undefined at 1: the gallop
        # starts at the domain floor, not at t = 1
        f = sc.powerlog(1.5, -0.3)
        assert f.monotonicity == sc.INCREASING and f.exact_inverse is None
        ys = np.array([3.5, 12345.6, 1e9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in ys.tolist():
                assert abs(f(sc.inverse(f, y)) - y) <= 1e-12 * y, y
            assert np.all(np.abs(f(sc.inverse(f, ys)) - ys) <= 1e-12 * ys)
            # the minimum of f, 2.19 at r = e^0.2, lies above 2
            with pytest.raises(BracketError, match="could not bracket y=2 from below"):
                sc.inverse(f, 2.0)

    def test_bracket_error_names_a_target_past_the_float_range(self):
        # y = e^1100 is written from its log, not formed by exp; a user's f
        # takes t itself, so its gallop stops where t leaves the float range
        ev = lambda r: r**0.5 * np.log(r) ** -0.3
        f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 2.0), 2.0)
        with pytest.raises(BracketError, match=r"could not bracket y=exp\(1100\) from above: "
                                               r"no finite value past t=1.79769e\+308"):
            sc.log_inverse(f, np.array([1100.0]))

    @pytest.mark.parametrize("spec", ["powerlog:0.5,-0.3", "powerlog:0.5,0.5"])
    def test_log_inverse_past_the_float_range(self, spec):
        # a LogLog's ell takes s alone: regula falsi finds roots past t =
        # 1.8e308 (s = 709.78), as far out as s = 2e12, where the closed form,
        # if there is one, agrees; a float y with such a root (y = 1e300 at
        # s = 1374) overflows
        p = sc.from_id(spec)
        f = dataclasses.replace(p, exact_inverse=None)
        log_y = np.array([1100.0, 1e6, 1e12])
        s = sc.log_inverse(f, log_y)
        assert np.all(s > 709.79)
        assert np.all(np.abs(f.ell(s) - log_y) <= 1e-12 * log_y)
        if p.exact_inverse is not None:
            np.testing.assert_allclose(s, sc.log_inverse(p, log_y), rtol=1e-13, atol=0.0)
        with pytest.raises(OverflowError, match=r"inverse of y=1e\+300 overflows"):
            sc.inverse(f, 1e300)

    def test_gallop_stops_without_a_root(self):
        # an increasing LogLog bounded by 1 never reaches y = e: past the
        # float range of t its gallop steps on, doubling, to s = inf
        f = sc.ScalingFunction(sc.LogLog(lambda s: -np.exp(-s)), sc.INCREASING,
                               sc.Envelope(1.0, 0.0, 2.0, 1.0), 1.0)
        with pytest.raises(BracketError, match="could not bracket y=2.71828 from above"):
            sc.log_inverse(f, 1.0)

    def test_gallop_starts_at_the_domain_floor(self):
        # a target above f(floor) never evaluates f below the floor
        seen = []

        def ev(r):
            seen.append(float(np.min(r)))
            return r**2

        f = sc.ScalingFunction(ev, sc.INCREASING, sc.Envelope(1.0, 2.0, 1.0, 2.0), domain_floor=5.0)
        seen.clear()
        assert abs(sc.inverse(f, 1e4) - 100.0) <= 1e-10
        assert min(seen) == 5.0


class TestRateCandidates:
    def test_subcritical_example(self):
        cand = sc.RateCandidate("subcritical", sc.power(2.0), sc.power(-0.25))
        assert np.exp(sc.log_rate(cand, 16.0)) == pytest.approx(2.0, rel=1e-12)

    def test_critical_constant_g(self):
        cand = sc.RateCandidate("critical", sc.power(1.0), sc.constant(0.5))
        assert np.exp(sc.log_rate(cand, 10.0)) == pytest.approx(5.0, rel=1e-12)

    def test_critical_power_oracle(self):
        g = sc.loglog_g(0.0)  # 1/log(e+t)
        cand = sc.RateCandidate("critical", sc.power(1.3), g)
        t = 100.0
        expected = (t * g(t)) ** (1.0 / 1.3)
        assert np.exp(sc.log_rate(cand, t)) == pytest.approx(expected, rel=1e-10)

    def test_subcritical_unit_g_is_inverse(self):
        phi = sc.powerlog(2.0, 1.0)
        cand = sc.RateCandidate("subcritical", phi, sc.constant(1.0))
        for t in (3.0, 47.0, 1234.0):
            assert np.exp(sc.log_rate(cand, t)) == pytest.approx(
                sc.inverse(phi, t), rel=1e-10
            )

    def test_requires_nonincreasing_g(self):
        with pytest.raises(PreconditionError):
            sc.RateCandidate("subcritical", sc.power(2.0), sc.power(0.5))

    def test_requires_t_above_one(self):
        cand = sc.RateCandidate("direct", sc.power(1.0))
        with pytest.raises(PreconditionError):
            sc.log_rate(cand, 0.5)


class TestPresetGrammar:
    @pytest.mark.parametrize(
        "spec,arg,expected",
        [
            ("power:2", 3.0, 9.0),
            ("power:-1.5", 4.0, 0.125),
            ("const:0.5", 99.0, 0.5),
            ("powerlog:1,2", math.e**2, math.e**2 * 4.0),
            ("exp-decay:0.25,2", 2.0, math.exp(-1.0)),
            ("loglog-g:0", 100.0, 1.0 / math.log(math.e + 100.0)),
        ],
    )
    def test_ids_evaluate(self, spec, arg, expected):
        f = sc.from_id(spec)
        assert f(arg) == pytest.approx(expected, rel=1e-12)

    def test_iterated_log_id(self):
        f = sc.from_id("iterated-log-g:0.5")
        t = 1e4
        lt = math.log(t)
        assert f(t) == pytest.approx(math.exp(-lt * math.log(lt) ** 1.5), rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            sc.from_id("exotic:1")

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            sc.from_id("power:1,2")

    @pytest.mark.parametrize("spec, what", [
        ("exotic:1", "unknown scaling preset"), ("power:x", "bad numeric arguments in scaling preset id"),
        ("power", "wrong argument count in scaling preset id"), ("powerlog:1", "wrong argument count"),
    ])
    def test_errors_name_the_id(self, spec, what):
        with pytest.raises(ValueError, match=f"^{what}.*'{spec}'$"):
            sc.from_id(spec)

    @pytest.mark.parametrize("spec", ["exp-decay:1,inf", "exp-decay:inf,1", "exp-decay:0,2", "exp-decay:1,nan"])
    def test_exp_decay_needs_finite_positive_parameters(self, spec):
        # rejected before the grid is evaluated: an infinite gamma gives no float profile
        with pytest.raises(PreconditionError, match="exp-decay needs finite c0 > 0 and gamma > 0"):
            sc.from_id(spec)

    @pytest.mark.parametrize("x, text", [
        (2.0, "2"), (-1.5, "-1.5"), (1 / 3, "0.3333333333333333"), (1.23456789, "1.23456789"),
        (1e16, "1e+16"), (123456789.0, "123456789"), (-0.0, "-0"), (math.inf, "inf"),
    ])
    def test_ids_write_the_shortest_exact_digits(self, x, text):
        assert sc._id_float(x) == text and float(text) == x

    @pytest.mark.parametrize("make, args", [
        (sc.power, [st.floats(-50.0, 50.0)]),
        (sc.constant, [st.floats(1e-300, 1e300)]),
        (sc.powerlog, [st.floats(0.1, 10.0), st.floats(0.0, 10.0)]),
        (sc.exp_decay, [st.floats(0.01, 10.0), st.floats(0.1, 3.0)]),
        (sc.iterated_log_g, [st.floats(-0.5, 2.0)]),
        (sc.loglog_g, [st.floats(0.0, 1.0)]),
    ], ids=["power", "const", "powerlog", "exp-decay", "iterated-log-g", "loglog-g"])
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_names_rebuild_their_presets(self, make, args, data):
        # a name is an id of the same function: the same parameters read
        # back from it, and the same ell; a preset is a value, equal and
        # hashed alike to the one its name builds, and it pickles
        params = [data.draw(a) for a in args]
        f = make(*params)
        assert [float(a) for a in f.name.partition(":")[2].split(",")] == params
        g = sc.from_id(f.name)
        s = np.linspace(1.0, 5.0, 9)
        assert g.name == f.name and np.array_equal(g.ell(s), f.ell(s))
        assert g == f and hash(g) == hash(f) and make(*params) == f
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f) and np.array_equal(back.ell(s), f.ell(s))


# every preset the id grammar builds, with arguments inside its domain
PRESET_IDS = [
    "power:2", "power:-1.5", "power:0.1", "const:0.5", "powerlog:1.5,1", "powerlog:0,-2",
    "powerlog:1.2,0.6", "exp-decay:0.25,2", "iterated-log-g:0.5", "iterated-log-g:-0.5",
    "loglog-g:0", "loglog-g:1",
]


def _kinked(r):
    # continuous, increasing, with slope jumps at r = 10 and r = 1e3
    if r <= 10.0:
        return r**0.5
    if r <= 1e3:
        return 10.0**0.5 * (r / 10.0) ** 4
    return 10.0**8.5 * (r / 1e3) ** 1.1


def _kinked_inverse(y):
    # the piecewise inverse of _kinked
    y = np.asarray(y, dtype=float)
    return np.where(
        y <= 10.0**0.5, np.minimum(y, 10.0**0.5) ** 2,
        np.where(y <= 10.0**8.5, 10.0 * (y / 10.0**0.5) ** 0.25, 1e3 * (y / 10.0**8.5) ** (1 / 1.1)),
    )


def _kinked_slope(r):
    # d log f / d log r, the smaller one at a kink
    r = np.asarray(r, dtype=float)
    return np.where(r <= 10.0, 0.5, np.where(r < 1e3, 4.0, 1.1))


def _omega_inverse(p, q, y):
    # the root of r**p (log r)**q = y through the Wright omega function
    return np.exp(q / p * wrightomega(np.log(y) / q - math.log(q / p)))


def _assert_root(got, want, slope):
    # regula falsi stops at |f(t) - y| <= 1e-12 y, which leaves its root
    # 1e-12 / e wide relative to the root, where e = d log f / d log r
    assert np.all(np.abs(got - want) * slope <= 2e-12 * want), np.max(np.abs(got / want - 1))


def _scalar_only_functions():
    return {
        "kinked": sc.ScalingFunction(
            _kinked, sc.INCREASING, sc.fit_envelope(_kinked, 1e-3), domain_floor=1e-3
        ),
        "exp": sc.ScalingFunction(
            math.exp, sc.INCREASING, sc.fit_envelope(math.exp, 1e-8), domain_floor=1e-8
        ),
    }


class TestIteratedLogDomain:
    @pytest.mark.parametrize(
        "t, named", [(2.0, "t=2"), (np.array(2.0), "t=2"), (np.float64(2.5), "t=2.5"),
                     (1.0, "t=1"), (0.5, "t=0.5"), (0.0, "t=0"), (-1.0, "t=nan"),
                     (math.nan, "t=nan"), (np.array([2.0, 20.0]), "t=2"),
                     (np.array([20.0, 0.0, -1.0]), "t=0"), (np.array([20.0, math.nan]), "t=nan")],
    )
    def test_below_e_raises(self, t, named):
        # log log t < 0 below t = e, where its power is complex
        f = sc.from_id("iterated-log-g:0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in (f, f.log_value):
                with pytest.raises(EvaluationError, match=f"iterated-log-g:0.5: undefined at {named}"):
                    method(t)

    def test_defined_from_e(self):
        f = sc.from_id("iterated-log-g:0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(math.e) == 1.0
            assert f(np.array([math.e, 20.0])) == pytest.approx([1.0, f(20.0)], rel=1e-15)


def _illinois(f):
    """f without its exact inverse: inverse then gallops and runs regula falsi."""
    return dataclasses.replace(f, exact_inverse=None)


class TestArrays:
    @pytest.mark.parametrize("spec", PRESET_IDS)
    def test_presets_match_scalar_calls(self, spec):
        f = sc.from_id(spec)
        shapes = []  # one ell call per array, on the whole array
        counted = dataclasses.replace(
            f, evaluator=sc.LogLog(lambda s: shapes.append(np.shape(s)) or f.ell(s))
        )
        r = np.geomspace(max(f.domain_floor, 2.0), 1e70, 37)
        logs = f.log_value(r)
        for method in (f, f.log_value):
            got = method(r)
            assert isinstance(got, np.ndarray) and got.shape == r.shape
            want = np.array([method(float(x)) for x in r])
            # a value exp(x) carries a last-bit difference of x, times |x|
            rtol = 1e-15 * (1.0 + np.abs(logs)) if method is f else 1e-15
            assert np.all(np.abs(got - want) <= rtol * np.abs(want)), spec
            assert method(r.reshape(37, 1)).shape == (37, 1)
        shapes.clear()
        assert counted(r).tolist() == f(r).tolist() and counted.log_value(r).tolist() == logs.tolist()
        assert shapes == [r.shape, r.shape]
        assert type(f(3.0)) is float and type(f(np.float64(3.0))) is float
        assert type(f(3)) is float and type(f.log_value(np.array(3.0))) is float

    @pytest.mark.parametrize("name", ["kinked", "exp"])
    def test_scalar_only_evaluators_take_arrays(self, name):
        # one evaluator call per element, at r itself: the float calls' values
        f = _scalar_only_functions()[name]
        r = np.array([[0.5, 10.0, 37.0], [99.0, 1e2, 7e2]])
        want = np.array([[f.evaluator(float(x)) for x in row] for row in r])
        assert f(r).tolist() == want.tolist() == [[f(float(x)) for x in row] for row in r]
        assert f.log_value(r) == pytest.approx(np.log(want), rel=1e-15)

    def test_array_errors_name_the_argument(self):
        f = sc.powerlog(1.5, 0.9)
        with pytest.raises(EvaluationError, match="r=0.9"):
            f(np.array([2.0, 0.9, 0.5]))
        with pytest.raises(EvaluationError, match="r=0.5"):
            f.log_value(np.array([3.0, 0.5]))

    @pytest.mark.parametrize("name", ["powerlog", "powerlog-exact", "kinked", "exp"])
    def test_inverse_matches_float_inverse(self, name):
        # regula falsi (powerlog without its exact inverse, and two
        # evaluators that only take floats) and powerlog's closed form, on
        # arrays and on floats, against independent inverses
        if name.startswith("powerlog"):
            f = sc.powerlog(1.5, 1.0)
            f = f if name == "powerlog-exact" else _illinois(f)
            oracle = lambda y: _omega_inverse(1.5, 1.0, y)
            slope = lambda r: 1.5 + 1.0 / np.log(r)
        else:
            f = _scalar_only_functions()[name]
            oracle, slope = {"kinked": (_kinked_inverse, _kinked_slope), "exp": (np.log, lambda r: r)}[name]
        # exp overflows past the roots of the largest targets; below f(1)
        # (1 for the kinked function, e for exp) the gallop goes down
        below = {"kinked": np.geomspace(1e-2, 1.0, 5), "exp": [1.1, 2.0, math.e]}.get(name, [])
        ys = np.concatenate([below, np.geomspace(1e2, 1e300, 43)])
        ys = ys.reshape(-1, 2) if ys.size % 2 == 0 else ys
        got = sc.inverse(f, ys)
        assert got.shape == ys.shape
        want = oracle(ys)
        _assert_root(got, want, np.minimum(slope(got), slope(want)))
        assert np.all(np.abs(f(got) - ys) <= 1e-12 * ys)
        # a float target is a one-element array of targets
        floats = np.array([sc.inverse(f, float(y)) for y in ys.ravel()]).reshape(ys.shape)
        np.testing.assert_allclose(floats, got, rtol=1e-12, atol=0.0)
        _assert_root(floats, want, np.minimum(slope(floats), slope(want)))

    def test_exact_inverse_on_arrays(self):
        f = sc.power(1.5)
        ys = np.array([[1.0, 8.0], [1e3, 1e300]])
        assert sc.inverse(f, ys).tolist() == [[sc.inverse(f, float(y)) for y in row] for row in ys]

    def test_exact_inverse_overflow_raises(self):
        f = sc.power(0.1)
        with pytest.raises(OverflowError, match="y=1e\\+40"):
            sc.inverse(f, np.array([10.0, 1e40]))
        for y in (1e40, np.float64(1e40)):
            with pytest.raises(OverflowError):
                sc.inverse(f, y)

    def test_float_in_float_out(self):
        f = sc.powerlog(1.5, 1.0)
        for y in (50.0, np.float64(50.0), 50, np.array(50.0)):
            assert type(sc.inverse(f, y)) is float
            assert type(sc.inverse(sc.power(2.0), y)) is float
        assert sc.inverse(f, np.array([50.0])).shape == (1,)
        assert sc.inverse(f, np.array([50.0]))[0] == sc.inverse(f, 50.0)

    @pytest.mark.parametrize(
        "ev, ys",
        [
            (lambda r: r / (1.0 + r), [0.3, 2.0, 0.1]),
            (lambda r: 1.0 + r / (1.0 + r), [1.7, 0.5]),
        ],
    )
    def test_unreachable_target_in_an_array(self, ev, ys):
        f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 1e-6))
        with pytest.raises(BracketError):
            sc.inverse(f, np.array(ys))

    @pytest.mark.parametrize("y", [0.0, -1.0, math.nan, math.inf])
    def test_targets_must_be_positive_reals(self, y):
        with pytest.raises(BracketError):
            sc.inverse(sc.powerlog(1.5, 1.0), np.array([5.0, y]))

    @pytest.mark.parametrize("recipe, g", [("direct", None), ("subcritical", "powerlog:0,-0.5"),
                                           ("critical", "loglog-g:1")])
    def test_log_rate_matches_scalar_calls(self, recipe, g):
        cand = sc.RateCandidate(recipe, sc.powerlog(1.5, 1.0), g and sc.from_id(g))
        t = np.geomspace(16.0, 1e60, 25)
        want = [np.exp(sc.log_rate(cand, float(x))) for x in t]
        np.testing.assert_allclose(np.exp(sc.log_rate(cand, t)), want, rtol=1e-12, atol=0.0)
        with pytest.raises(PreconditionError, match="0.5"):
            sc.log_rate(cand, np.array([4.0, 0.5]))


class TestPowerlogExactInverse:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(p=st.floats(0.05, 4.0, exclude_min=True), q=st.floats(1e-300, 3.0))
    def test_matches_regula_falsi(self, p, q):
        f = sc.powerlog(p, q)
        assert f.exact_inverse is not None
        # targets from f(2) to 1e300, and the classifier's block nodes from
        # t0 = 16, as far as their roots stay below 1e300
        top = min(math.log(1e300), f.log_value(1e300))
        nodes = _block_nodes(16.0)[0]
        ys = np.concatenate(
            [np.exp(np.linspace(math.log(f(2.0)), top, 40)), nodes[np.log(nodes) <= top]]
        )
        got, want = sc.inverse(f, ys), sc.inverse(_illinois(f), ys)
        assert np.all(np.abs(f(got) - ys) <= 1e-12 * ys)
        # regula falsi stops at |f(t) - y| <= 1e-12 y, which leaves its root
        # 1e-12 / e wide relative to r, where e = d log f / d log r = p + q / log r
        e = p + q / np.log(want)
        assert np.all(np.abs(got - want) * e <= 2e-12 * want)

    def test_overflow_raises_naming_the_target(self):
        f = sc.powerlog(0.4, 0.5)
        with pytest.raises(OverflowError, match="y=1e\\+300"):
            sc.inverse(f, np.array([10.0, 1e300]))
        for y in (1e300, np.float64(1e300)):
            with pytest.raises(OverflowError, match="y=1e\\+300"):
                sc.inverse(f, y)

    def test_exact_inverse_is_checked_at_construction(self):
        # exact_inverse maps log y to s; a closed form y -> t, or a wrong
        # one, is refused at construction
        ell, env = sc.LogLog(lambda s: 2.0 * s), sc.Envelope(1.0, 2.0, 1.0, 2.0)
        for wrong in (lambda y: y**0.5, lambda log_y: log_y / 3.0):
            with pytest.raises(PreconditionError, match="exact_inverse is not log y -> s"):
                sc.ScalingFunction(ell, sc.INCREASING, env, exact_inverse=wrong)
        f = sc.ScalingFunction(ell, sc.INCREASING, env, exact_inverse=lambda log_y: log_y / 2.0)
        assert sc.inverse(f, 9.0) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "p, q", [(0.0, -1.0), (1.5, 0.0), (1.5, -0.5), (-1.0, 0.5), (-1.0, -1.0), (1.5, 1e-310)]
    )
    def test_no_closed_form_outside_its_domain(self, p, q):
        # p <= 0 or q <= 0; and q so small that log y / q overflows
        assert sc.powerlog(p, q).exact_inverse is None


_EPS = np.finfo(float).eps


def _omega_tol(x):
    # 8 ulps; on [-50, -2) scipy takes the residual x - w - log w with log w
    # near x, rounded to ulp(x), twice, and is up to 4 ulp(x) / eps ulps of w
    # off (32 near x = -33.3); the port's last step w = e**x e**-w is within
    # 2 ulps of omega there (test_matches_lambert_w_below_minus_two)
    x = np.asarray(x, dtype=float)
    return np.where((-50.0 <= x) & (x < -2.0), 8.0 + 4.0 * np.spacing(np.abs(x)) / _EPS, 8.0)


def _ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):  # inf - inf and NaN, where they are the same
        gap = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    return np.where(same, 0.0, gap)


#: (x, omega(x)) on [-50, -2): mpmath's lambertw(exp(x)) at 40 digits,
#: rounded to a float; Algorithm 917 alone is up to 32 ulps off near -33.3
_OMEGA_BELOW_MINUS_TWO = [
    (-49.5, "0x1.806f55208ce4fp-72"), (-40.25, "0x1.e84430d66e9fbp-59"),
    (-33.356, "0x1.d64f07188f1ebp-49"), (-33.344, "0x1.dbfc8501e7729p-49"),
    (-33.332, "0x1.e1bb8ef1b24c5p-49"), (-33.32, "0x1.e78c5b2291188p-49"),
    (-33.308, "0x1.ed6f2076bd9d9p-49"), (-33.296, "0x1.f364167a0ff0ap-49"),
    (-33.284, "0x1.f96b75640aa9dp-49"), (-33.272, "0x1.ff857619ed6d9p-49"),
    (-30.0, "0x1.a56e0c2ac7cbfp-44"), (-20.5, "0x1.57a3afe79aea9p-30"),
    (-12.0, "0x1.9c541dac6391bp-18"), (-6.249117, "0x1.f98737c6ff141p-10"),
    (-3.5, "0x1.e074c18d19f9ap-6"), (-2.125, "0x1.b76e97063e79fp-4"),
]


class TestWrightOmega:
    """scaling._omega, the real branch of Algorithm 917 in numpy with one
    last step below -2, against scipy.special.wrightomega, the algorithm
    in C, and against pinned values of omega."""

    def test_matches_lambert_w_below_minus_two(self):
        x = np.array([v for v, _ in _OMEGA_BELOW_MINUS_TWO])
        want = np.array([float.fromhex(h) for _, h in _OMEGA_BELOW_MINUS_TWO])
        assert np.all(_ulps(sc._omega(x), want) <= 4.0)
        assert all(_ulps(sc._omega(v), w) <= 4.0 for v, w in zip(x.tolist(), want.tolist()))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(x=st.one_of(st.floats(-745.0, 1e300), st.floats(-60.0, 60.0)))
    @example(x=-6.249117)  # 15 ulps apart
    @example(x=5.537545)
    @example(x=1.0)
    @example(x=-2.0)
    @example(x=-50.0)
    @example(x=1e20)
    def test_matches_scipy(self, x):
        assert _ulps(sc._omega(x), wrightomega(x)) <= _omega_tol(x)

    @pytest.mark.parametrize("x", [
        np.linspace(-745.0, -50.0, 100_001), np.linspace(-50.0, -2.0, 100_001),
        np.linspace(-2.0, 1.0, 100_001), np.linspace(1.0, 10.0, 100_001),
        np.linspace(10.0, 1e3, 100_001), np.geomspace(1e3, 1e300, 10_001),
    ], ids=["-745..-50", "-50..-2", "-2..1", "1..10", "10..1e3", "1e3..1e300"])
    def test_matches_scipy_on_a_sweep(self, x):
        assert np.all(_ulps(sc._omega(x), wrightomega(x)) <= _omega_tol(x))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(x=st.one_of(st.floats(-708.0, 1e300), st.floats(-60.0, 60.0)))
    @example(x=5.537545)
    def test_residual(self, x):
        # w + log w = x up to rounding, where w is a normal float (x above
        # log of the least one, -708.4); the algorithm stops once its
        # condition test says a further step would move w by less than
        # eps, and scipy's wrightomega, like this port, reaches 5.8 eps
        # max(1, |x|) near x = 5.54
        w = sc._omega(x)
        assert abs(w + math.log(w) - x) <= 8.0 * _EPS * max(1.0, abs(x))

    def test_edge_values(self):
        x = np.array([-np.inf, -1e300, -800.0, -745.0, 1e20, 1.5e20, 1e300, np.inf, np.nan, 0.0, 1.0])
        w = sc._omega(x)
        assert w[:3].tolist() == [0.0, 0.0, 0.0]
        assert w[3] == math.exp(-745.0) > 0.0  # the least float
        assert w[4:8].tolist() == x[4:8].tolist()
        assert math.isnan(w[8])
        assert w[9] == pytest.approx(0.5671432904097838, rel=2 * _EPS)  # the omega constant
        assert w[10] == 1.0
        assert np.all(_ulps(w, wrightomega(x)) <= _omega_tol(x))

    def test_shapes(self):
        # one code path: a float and a 0-d array give a numpy float, an array
        # an array of its shape, each element as a float call gives it
        x = np.array([[-800.0, -30.0, -5.0, 0.5], [1.0, 7.0, 1e5, 1e25]])
        w = sc._omega(x)
        assert w.shape == x.shape
        floats = [sc._omega(v) for v in x.ravel().tolist()]
        zero_d = [sc._omega(np.array(v)) for v in x.ravel()]
        for got in (floats, zero_d):
            assert all(type(g) is np.float64 for g in got)
            assert got == w.ravel().tolist()
        # all of x >= 1 takes the unmasked path, as a float does
        assert sc._omega(np.array([3.0, 30.0])).tolist() == [sc._omega(3.0), sc._omega(30.0)]
        assert sc._omega(np.zeros((0, 3))).shape == (0, 3)

    def test_no_runtime_warning(self):
        x = np.concatenate([
            [-np.inf, np.inf, np.nan, -1e308, 1e308, -0.0, 5e-324],
            np.linspace(-800.0, 100.0, 20_001), np.geomspace(100.0, 1e300, 2_001),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc._omega(x)
            for v in x[::97].tolist():
                sc._omega(v)


class TestPresetsPastTheFloatRange:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_loglog_g_matches_the_direct_formula(self, eps):
        # ell written in s agrees with log(e^e + t) and log(e + t) formed
        # from t = e**s wherever t is a float: within 8 ulps on the verified
        # domain (t >= 4), and within 4 eps absolute below it, where ell
        # tends to 0
        ee = math.exp(math.e)
        f = sc.loglog_g(eps)
        for s, tol in ((np.linspace(math.log(4.0), 700.0, 4_001), None), (np.linspace(-700.0, math.log(4.0), 4_001), 4 * _EPS)):
            t = np.exp(s)
            direct = eps * np.log(np.log(np.log(ee + t))) - np.log(np.log(math.e + t))
            got = f.ell(s)
            if tol is None:
                assert np.all(_ulps(got, direct) <= 8.0), np.max(_ulps(got, direct))
            else:
                assert np.all(np.abs(got - direct) <= tol)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_loglog_g_past_the_float_range(self, eps):
        # e**s overflows from s = 709.78 on; ell stays finite and decreasing,
        # and at s = inf, t = inf, g is 0
        s = np.array([700.0, 709.0, 710.0, 1e4, 1e300])
        f = sc.from_id(f"loglog-g:{eps}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = f.ell(s)
            assert f.ell(710.0) == v[2]
            assert f.ell(math.inf) == -math.inf and f(math.inf) == 0.0
            assert np.array_equal(f.ell(np.append(s, [math.inf, math.nan])), np.append(v, [-math.inf, math.nan]),
                                  equal_nan=True)
        assert np.all(np.isfinite(v)) and np.all(np.diff(v) < 0)
        # log log(e + t) = log s + log1p(e^(1-s)/s...) ~ log s for large s
        assert v[-1] == pytest.approx(eps * math.log(math.log(1e300)) - math.log(1e300), rel=1e-12)

    def test_exp_decay_overflow_is_minus_inf_quietly(self):
        f = sc.from_id("exp-decay:1,2")
        s = np.array([1.0, 300.0, 400.0, 710.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = f.ell(s)
            assert [f.ell(x) for x in s.tolist()] == v.tolist()
        # (e^s)^2 overflows from s = 354.9 on; below it, the values as before
        assert v[2:].tolist() == [-math.inf] * 3
        assert v[:2].tolist() == (-(np.exp(s[:2]) ** 2.0)).tolist()

    def test_exp_decay_past_the_float_range_of_r(self):
        # gamma < 1: r = e**s overflows at s = 710, r**gamma = e**(gamma s) not
        f = sc.from_id("exp-decay:3,0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = f.ell(np.array([10.0, 700.0, 710.0, 1e4]))
        assert v[0] == -3.0 * math.exp(10.0) ** 0.5 and v[1] == -3.0 * math.exp(700.0) ** 0.5
        assert v[2] == pytest.approx(-3.0 * math.exp(355.0), rel=1e-13)
        assert v[3] == -math.inf

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(c0=st.floats(1e-3, 1e12), gamma=st.floats(0.05, 5.0), s=st.floats(-50.0, 800.0))
    def test_exp_decay_unchanged_where_finite(self, c0, gamma, s):
        # the same expression wherever (e^s)^gamma is a float, and -inf or a
        # finite value, without a warning, past it
        f = sc.exp_decay(c0, gamma)
        s = np.array([s, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.ell(s)
        with np.errstate(over="ignore"):
            before = -c0 * np.exp(s) ** gamma
        if np.isfinite(before[0]):
            assert got.tolist() == before.tolist()
        else:
            assert got[0] == -math.inf or (s[0] >= sc._S_HI and np.isfinite(got[0]))
            assert got[1] == before[1]


# closed forms of every preset family at a float r, written out with math so
# that they share no code with the presets: f, log f, and the elasticity
# d log f / d log r
def _closed_power(p):
    return lambda r: r**p, lambda r: p * math.log(r), lambda r: p


def _closed_powerlog(p, q):
    return (lambda r: r**p * math.log(r) ** q,
            lambda r: p * math.log(r) + q * math.log(math.log(r)),
            lambda r: p + q / math.log(r))


def _closed_exp_decay(c0, gamma):
    return (lambda r: math.exp(-c0 * r**gamma), lambda r: -c0 * r**gamma,
            lambda r: -c0 * gamma * r**gamma)


def _closed_iterated_log(eps):
    log_f = lambda t: -math.log(t) * math.log(math.log(t)) ** (1.0 + eps)
    return (lambda t: math.exp(log_f(t)), log_f,
            lambda t: -math.log(math.log(t)) ** eps * (math.log(math.log(t)) + 1.0 + eps))


def _closed_loglog(eps):
    ee = math.exp(math.e)
    return (lambda t: math.log(math.log(ee + t)) ** eps / math.log(math.e + t),
            lambda t: eps * math.log(math.log(math.log(ee + t))) - math.log(math.log(math.e + t)),
            lambda t: eps * t / ((ee + t) * math.log(ee + t) * math.log(math.log(ee + t)))
            - t / ((math.e + t) * math.log(math.e + t)))


def _closed_const(c):
    return lambda r: c, lambda r: math.log(c), lambda r: 0.0


_ORACLE = dict(max_examples=25, deadline=None, database=None, derandomize=True)


class TestClosedFormOracles:
    # every preset family against its closed form, on floats, 0-d arrays and
    # a 2-d array over [domain floor, 1e70]
    @staticmethod
    def _check_values(f, closed):
        value, log_value, elasticity = closed
        r = np.geomspace(f.domain_floor, 1e70, 48)
        want = np.array([value(x) for x in r.tolist()])
        want_log = np.array([log_value(x) for x in r.tolist()])
        # f within (1 + |log f|) 1e-15, relative, and log f within that,
        # absolute; where f underflows to 0, log_value is ell at s = log r,
        # and the half-ulp rounding of s, times the elasticity, adds to it
        tol_log = 1e-15 * (1.0 + np.abs(want_log))
        tol = tol_log * np.abs(want)
        rounding = np.abs([elasticity(x) for x in r.tolist()]) * 0.5 * np.spacing(np.abs(np.log(r)))
        tol_log = tol_log + np.where(want == 0.0, rounding, 0.0)
        for method, ref, atol in ((f, want, tol), (f.log_value, want_log, tol_log)):
            floats = np.array([method(x) for x in r.tolist()])
            zero_d = np.array([method(np.array(x)) for x in r])
            two_d = method(r.reshape(6, 8)).ravel()
            for got in (floats, zero_d, two_d):
                assert np.all(np.abs(got - ref) <= atol), (f.name, method, np.max(np.abs(got - ref) / atol))
        assert type(f(float(r[3]))) is float and type(f.log_value(np.array(r[3]))) is float

    @staticmethod
    def _check_inverse(f, value, root, slope):
        # targets f(r) at r in [floor, 1e70], solved as floats, 0-d and a 2-d
        # array: |f(t) - y| <= 1e-12 y, the stopping rule of ``inverse``, and
        # the root within 2e-12 / slope of r (see _assert_root)
        r = np.geomspace(f.domain_floor, 1e70, 48)
        ys = np.array([value(x) for x in r.tolist()])
        want = root(ys)
        floats = np.array([sc.inverse(f, y) for y in ys.tolist()])
        zero_d = np.array([sc.inverse(f, np.array(y)) for y in ys])
        two_d = sc.inverse(f, ys.reshape(6, 8)).ravel()
        for got in (floats, zero_d, two_d):
            assert np.all(np.abs(np.array([value(t) for t in got.tolist()]) - ys) <= 1e-12 * ys), f.name
            _assert_root(got, want, np.minimum(slope(got), slope(want)))

    @settings(**_ORACLE)
    @given(p=st.floats(-4.0, 4.0).filter(lambda p: abs(p) >= 0.05))
    @example(p=2.0)
    @example(p=-1.5)
    @example(p=0.1)
    def test_power(self, p):
        f = sc.power(p)
        self._check_values(f, _closed_power(p))
        if p > 0:
            self._check_inverse(f, _closed_power(p)[0], lambda y: y ** (1.0 / p), lambda r: p)

    @settings(**_ORACLE)
    @given(p=st.floats(0.05, 4.0), q=st.floats(0.05, 3.0))
    @example(p=1.5, q=1.0)
    @example(p=1.2, q=0.6)
    def test_powerlog_positive_log_exponent(self, p, q):
        f = sc.powerlog(p, q)
        self._check_values(f, _closed_powerlog(p, q))
        self._check_inverse(f, _closed_powerlog(p, q)[0], lambda y: _omega_inverse(p, q, y),
                            lambda r: p + q / np.log(r))

    @settings(**_ORACLE)
    @given(p=st.floats(-4.0, 4.0).filter(lambda p: abs(p) >= 0.05))
    @example(p=1.5)
    def test_powerlog_zero_log_exponent(self, p):
        f = sc.powerlog(p, 0.0)
        self._check_values(f, _closed_powerlog(p, 0.0))
        if p > 0:
            self._check_inverse(f, _closed_powerlog(p, 0.0)[0], lambda y: y ** (1.0 / p), lambda r: p)

    @settings(**_ORACLE)
    @given(p=st.floats(-4.0, 0.0), q=st.floats(-3.0, -0.05))
    @example(p=0.0, q=-2.0)
    def test_powerlog_negative_log_exponent(self, p, q):
        self._check_values(sc.powerlog(p, q), _closed_powerlog(p, q))

    @settings(**_ORACLE)
    @given(p=st.floats(1.5, 4.0), q=st.floats(-0.5, -0.05))
    @example(p=1.5, q=-0.3)
    def test_powerlog_negative_log_exponent_increasing(self, p, q):
        # p + q / log r > 0 from r = 2: increasing, with no closed-form inverse
        f = sc.powerlog(p, q)
        assert f.monotonicity == sc.INCREASING
        self._check_values(f, _closed_powerlog(p, q))

    @settings(**_ORACLE)
    @given(c0=st.floats(0.1, 10.0), gamma=st.floats(0.2, 3.0))
    @example(c0=0.25, gamma=2.0)
    @example(c0=3.0, gamma=0.3)
    def test_exp_decay(self, c0, gamma):
        self._check_values(sc.exp_decay(c0, gamma), _closed_exp_decay(c0, gamma))

    @settings(**_ORACLE)
    @given(eps=st.floats(-0.5, 1.5))
    @example(eps=0.5)
    @example(eps=-0.5)
    def test_iterated_log_g(self, eps):
        self._check_values(sc.iterated_log_g(eps), _closed_iterated_log(eps))

    @settings(**_ORACLE)
    @given(eps=st.floats(0.0, 1.0))
    @example(eps=0.0)
    @example(eps=1.0)
    def test_loglog_g(self, eps):
        self._check_values(sc.loglog_g(eps), _closed_loglog(eps))

    @settings(**_ORACLE)
    @given(c=st.floats(1e-3, 1e3))
    @example(c=0.5)
    def test_const(self, c):
        self._check_values(sc.constant(c), _closed_const(c))
