import copy
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from heatrates import kernels as kn
from heatrates import scaling as sc
from heatrates.errors import PreconditionError, UnsupportedModelError
from heatrates.integral_tests import CONVERGENT, classify_tail_integral
from heatrates.scaling import ScalingFunction
from heatrates.scaling import from_id as scaling_from_id


@pytest.fixture(scope="module")
def cauchy():
    return kn.from_id("cauchy1d")


@pytest.fixture(scope="module")
def gaussian3():
    return kn.from_id("gaussian:3")


@pytest.fixture(scope="module")
def stable153():
    m = kn.from_id("stable:1.5,3")
    lo, hi = kn.comparability_sweep(m, n_dist=12)
    return dataclasses.replace(m, c_lo=0.9 * lo, c_hi=1.1 * hi)


def _kanter_bracket_log_eta(gamma, w, nodes=4000):
    """log eta by Kanter's integral on `nodes` Gauss-Legendre nodes over the
    u-bracket where exp(L - e^L) is above e^-45 of its peak, found by
    bisection on L(u) (increasing in u)."""
    g1, c = 1 - gamma, gamma / (1 - gamma)
    u_gl, w_gl = special.roots_legendre(nodes)

    def big_l(u, lw):
        return (gamma * np.log(np.sin(gamma * u)) + g1 * np.log(np.sin(g1 * u)) - np.log(np.sin(u))) / g1 - c * lw

    def solve(level, lw):
        a, b = np.zeros_like(lw), np.full_like(lw, math.pi)
        for _ in range(100):
            mid = 0.5 * (a + b)
            up = big_l(mid, lw) > level
            a, b = np.where(up, a, mid), np.where(up, mid, b)
        return 0.5 * (a + b)

    out = np.empty_like(w)
    for i in range(0, w.size, 16):
        lw = np.log(w[i:i + 16])
        l0 = (gamma * math.log(gamma) + g1 * math.log(g1)) / g1 - c * lw
        lo = np.where(l0 > -46.0, 0.0, solve(-46.0, lw))
        hi = solve(np.log(np.maximum(np.exp(np.minimum(l0, 700.0)), 1.0) + 50.0), lw)
        half = 0.5 * (hi - lo)
        L = big_l(lo[:, None] + half[:, None] * (u_gl + 1.0), lw[:, None])
        h = L - np.exp(np.minimum(L, 700.0))
        top = h.max(axis=1)
        total = half * (np.exp(h - top[:, None]) @ w_gl)
        out[i:i + 16] = math.log(gamma / (g1 * math.pi)) - lw + top + np.log(total)
    return out


@pytest.fixture(scope="module")
def near_two_reference():
    """(x, weights) of the t = 1 mixture for alpha near 2: the package's
    windows each halved, 32 nodes each, eta by the bracketed 4000-node
    Kanter sum below w = 4 and the tail series above (its mass past x = 60
    is below e^-57)."""
    cache = {}

    def build(alpha):
        if alpha not in cache:
            gamma = alpha / 2
            knots = kn._mixture_knots(gamma)
            fine = np.append((knots[:-1, None] + np.diff(knots)[:, None] * [0.0, 0.5]).ravel(), knots[-1])
            u, uw = np.polynomial.legendre.leggauss(32)
            half = 0.5 * np.diff(fine)[:, None]
            x = (fine[:-1, None] + half * (u + 1.0)).ravel()
            log_eta = kn._log_eta1(gamma, np.exp(x))
            head = x < math.log(4.0)
            log_eta[head] = _kanter_bracket_log_eta(gamma, np.exp(x[head]))
            cache[alpha] = x, (half * uw).ravel() * np.exp(log_eta + x)
        return cache[alpha]

    return build


class TestPresets:
    def test_ids(self):
        assert kn.from_id("cauchy1d").dim == 1
        assert kn.from_id("gaussian:2").c0 == 0.25
        assert kn.from_id("stablelike:3,1.5").form == kn.STABLE_LIKE
        assert kn.from_id("subgaussian:3,2,0.25").form == kn.SUB_GAUSSIAN
        j = kn.from_id("jump:power:3;powerlog:1.5,1")
        assert j.form == kn.TWO_SIDED_JUMP

    def test_exponents_from_envelopes(self):
        m = kn.from_id("stablelike:3,1.5")
        assert (m.d1, m.d2, m.d3, m.d4) == (3.0, 3.0, 1.5, 1.5)

    def test_unknown(self):
        with pytest.raises(ValueError):
            kn.from_id("brownian-sheet")

    @pytest.mark.parametrize("spec, name", [
        ("stablelike:3,0", "DW"), ("stablelike:3,-1", "DW"), ("stablelike:0,1.5", "DV"),
        ("stablelike:-1,1.5", "DV"), ("subgaussian:0,2,0.25", "DV"), ("subgaussian:3,2,0", "C0"),
        ("subgaussian:3,2,-1", "C0"), ("subgaussian:3,2,nan", "C0"),
    ])
    def test_envelope_parameters_must_be_positive(self, spec, name):
        with pytest.raises(UnsupportedModelError, match=f"need finite {name} > 0"):
            kn.from_id(spec)

    @pytest.mark.parametrize("spec, bad", [
        ("gaussian:2.7", "2.7"), ("stable:1.5,3.9", "3.9"), ("gaussian:nan", "nan"),
        ("stable:1.5,inf", "inf"), ("stable:1.5,nan", "nan"),
    ])
    def test_dimension_must_be_whole(self, spec, bad):
        # a fractional dimension used to be truncated (gaussian:2.7 was
        # gaussian:2), a non-finite one raised int()'s bare error
        with pytest.raises(UnsupportedModelError, match=f"whole dimension, got '{bad}'"):
            kn.from_id(spec)

    @pytest.mark.parametrize("spec, model_id", [
        ("gaussian:3", "gaussian:3"), ("gaussian:3.0", "gaussian:3"), ("stable:1.5,3.0", "stable:1.5,3"),
    ])
    def test_whole_dimension_written_as_a_float(self, spec, model_id):
        m = kn.from_id(spec)
        assert (m.model_id, m.dim) == (model_id, 3)

    @pytest.mark.parametrize("spec, what", [
        ("stable:1.5", "wrong argument count"), ("stable:1.5,3,4", "wrong argument count"),
        ("stable:abc,3", "bad numeric arguments"), ("gaussian", "wrong argument count"),
        ("stablelike:3", "wrong argument count"), ("subgaussian:3,2", "wrong argument count"),
        ("cauchy1d:5", "wrong argument count"), ("brownian-sheet:1", "unknown kernel preset"),
    ])
    def test_malformed_ids_raise_naming_the_id(self, spec, what):
        # the same three errors as scaling ids, each naming the id
        with pytest.raises(ValueError, match=f"^{what}.*{re.escape(repr(spec))}$"):
            kn.from_id(spec)

    _PARAM = st.floats(1e-3, 1e3)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(alpha=st.floats(1e-3, 2.0, exclude_max=True), dim=st.integers(1, 5),
           dv=_PARAM, dw=_PARAM, c0=_PARAM, q=st.floats(0.0, 3.0))
    def test_model_ids_rebuild_their_models(self, alpha, dim, dv, dw, c0, q):
        # and a model is a value: equal and hashed alike to the one its id
        # builds, and it pickles
        stable = kn.from_id(f"stable:{alpha!r},{dim}")
        assert (stable.alpha, stable.dim) == (alpha, dim)
        envelope_only = [kn.from_id(f"stablelike:{dv!r},{dw!r}"),
                         kn.from_id(f"subgaussian:{dv!r},{1.0 + dw!r},{c0!r}")]
        others = [kn.from_id("cauchy1d"), kn.from_id(f"gaussian:{min(dim, 3)}"),
                  kn.from_id(f"jump:power:{dv!r};powerlog:{min(dw, 10.0)!r},{q!r}")]
        for m in [stable] + envelope_only + others:
            again = kn.from_id(m.model_id)
            assert again.model_id == m.model_id
            assert (again.alpha, again.dim, again.c0) == (m.alpha, m.dim, m.c0)
            assert (again.V.envelope, again.phi.envelope) == (m.V.envelope, m.phi.envelope)
            assert again == m and hash(again) == hash(m)
            back = pickle.loads(pickle.dumps(m))
            assert back == m and hash(back) == hash(m)
        assert [m.V.envelope.d_lo for m in envelope_only] == [dv, dv]
        assert [m.phi.envelope.d_lo for m in envelope_only] == [dw, 1.0 + dw]


class TestUnitBall:
    def test_exact_in_one_to_three_dimensions(self):
        want = [2.0, math.pi, 4.0 * math.pi / 3.0]
        assert [kn.from_id(f"stable:1.5,{d}").mu_ball for d in (1, 2, 3)] == want
        assert [kn.from_id(f"gaussian:{d}").mu_ball for d in (1, 2, 3)] == want
        assert kn.from_id("cauchy1d").mu_ball == 2.0

    def test_one_without_a_law(self):
        assert kn.from_id("stablelike:3,1.5").mu_ball == 1.0
        assert kn.from_id("jump:power:3;powerlog:1.5,1").mu_ball == 1.0

    @pytest.mark.parametrize("dim", range(4, 9))
    def test_gamma_function_formula(self, dim):
        want = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        assert kn.from_id(f"stable:1.5,{dim}").mu_ball == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_underflows_to_zero_in_huge_dimensions(self):
        # the recurrence stops at the underflow, not after 5e299 steps; from_id
        # refuses such a law, so the model is built around it
        law = kn.StableLaw(1.5, 10**300)
        assert dataclasses.replace(kn.from_id("stable:1.5,3"), exact_law=law).mu_ball == 0.0

    @pytest.mark.parametrize("dim, named", [("453", "453"), ("1100", "1100"), ("1e300", "1e+300")])
    def test_from_id_refuses_a_dimension_past_the_underflow(self, dim, named):
        with pytest.raises(UnsupportedModelError, match=re.escape(f"got DIM={named}")):
            kn.from_id(f"stable:1.5,{dim}")

    def test_last_dimension_from_id_builds(self):
        # w_452 is subnormal, and positive
        assert 0.0 < kn.from_id("stable:1.5,452").mu_ball < 1e-300

    def test_tail_constant_carries_the_ball(self):
        # c1 = C_hi mu_ball sup V(theta r)/V(r) / (1 - c0): the 4-d law and
        # its envelope-only twin differ by the 4-d ball, pi^2 / 2
        law, envelope = kn.from_id("stable:1.5,4"), kn.from_id("stablelike:4,1.5")
        ratio = kn.tail_constant(law) / kn.tail_constant(envelope)
        assert ratio == pytest.approx(math.pi**2 / 2.0, rel=1e-14, abs=0.0)


class TestEnvelopeDensity:
    def test_on_diagonal_branch(self):
        m = kn.from_id("stablelike:1,1")
        assert kn.envelope_density(m, 1.0, 0.0) == 1.0

    def test_off_diagonal_minimum(self):
        m = kn.from_id("stablelike:1,1")
        assert kn.envelope_density(m, 1.0, 2.0) == pytest.approx(0.25)

    def test_crossover_continuity(self):
        # the two branches meet within factor 2 at d = phi^-1(t)
        for spec in ("stablelike:3,1.5", "jump:power:3;power:1.5"):
            m = kn.from_id(spec)
            for t in (1.0, 10.0, 1e3):
                d = t ** (1.0 / 1.5)
                below = kn.envelope_density(m, t, d * (1 - 1e-9))
                above = kn.envelope_density(m, t, d * (1 + 1e-9))
                assert 0.5 <= below / above <= 2.0

    def test_subgaussian_form(self):
        m = kn.from_id("subgaussian:3,2,0.25")
        t, d = 4.0, 6.0
        expect = t ** -1.5 * math.exp(-0.25 * (d / math.sqrt(t)) ** 2)
        assert kn.envelope_density(m, t, d) == pytest.approx(expect, rel=1e-12)

    @staticmethod
    def _float_envelope(m, t, d):
        """The three forms with every factor a float: V and phi called at d,
        and V at phi^-1(t)."""
        a, b = m.d1, m.d3
        if m.form == kn.SUB_GAUSSIAN:
            return t ** (-a / b) * math.exp(-m.c0 * (d / t ** (1.0 / b)) ** (b / (b - 1.0)))
        if m.form == kn.STABLE_LIKE:
            on_diag, v_phi = t ** (-a / b), d ** (a + b)
        else:  # powerlog's V(0) is undefined
            on_diag = 1.0 / m.V(kn.inverse(m.phi, t))
            v_phi = m.V(d) * m.phi(d) if d > 0 else 0.0
        return min(on_diag, t / v_phi) if v_phi > 0 else on_diag

    @pytest.mark.parametrize(
        "spec",
        [
            "cauchy1d", "stablelike:3,1.5", "subgaussian:3,2,0.25", "subgaussian:2,3,0.5",
            "jump:power:3;powerlog:1.5,1", "jump:power:2;power:1.5",
        ],
    )
    def test_forms_against_float_factors(self, spec):
        # the envelope is the exp of its log, which carries |log p| eps
        m = kn.from_id(spec)
        for t in (1e-3, 0.5, 4.0, 300.0, 1e5):
            for d in (0.0, 1.0, 1.5, 6.0, 40.0, 1e3):
                want = self._float_envelope(m, t, d)
                assert kn.envelope_density(m, t, d) == pytest.approx(want, rel=1e-12, abs=1e-300), (t, d)

    def test_decreasing_in_distance(self):
        m = kn.from_id("jump:power:3;powerlog:1.5,1")
        vals = [kn.envelope_density(m, 5.0, d) for d in np.linspace(0, 50, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "spec",
        [
            "stablelike:3,1.5", "subgaussian:3,2,0.25", "jump:power:3;powerlog:1.5,1",
            "jump:power:2;power:1.5", "gaussian:3",
        ],
    )
    def test_arrays_match_scalar_calls(self, spec):
        m = kn.from_id(spec)
        t = np.array([0.5, 4.0, 300.0])[:, None]
        d = np.array([0.0, 1.5, 6.0, 40.0])
        grid = kn.envelope_density(m, t, d)
        assert grid.shape == (3, 4)
        for i, tt in enumerate(t[:, 0]):
            for j, dd in enumerate(d):
                one = kn.envelope_density(m, float(tt), float(dd))
                assert type(one) is float
                assert grid[i, j] == one
        assert grid[:, 0].tolist() == kn.envelope_density(m, t[:, 0], 0.0).tolist()


@pytest.mark.parametrize(
    "call",
    [
        lambda m: kn.envelope_density(m, math.nan, 1.0),
        lambda m: kn.envelope_density(m, 1.0, math.nan),
        lambda m: kn.ball_probability(m, math.nan, 1.0),
        lambda m: kn.ball_probability(m, 1.0, math.nan),
        lambda m: kn.tail_probability(m, math.nan, 1.0),
        lambda m: kn.tail_probability(m, 4.0, math.nan),
    ],
    ids=["envelope-t", "envelope-d", "ball-t", "ball-r", "tail-t", "tail-r"],
)
def test_nan_arguments_raise_precondition_error(call):
    with pytest.raises(PreconditionError):
        call(kn.from_id("stable:1.5,3"))


@pytest.mark.parametrize("spec", ["gaussian:3", "cauchy1d", "stable:1.9,3", "stable:0.5,2"])
def test_comparability_sweep_matches_scalar_envelope_calls(spec):
    # the sweep makes one array envelope call per t; the same grid through
    # one scalar call per distance gives the same pair
    m = kn.from_id(spec)
    lo, hi = math.inf, -math.inf
    for t in np.geomspace(1.0, 1e3, 7):
        reach = 10.0 * kn.inverse(m.phi, t)
        dists = np.concatenate([[0.0], np.geomspace(1e-3 * reach, reach, 24)])
        envelope = np.array([kn.envelope_density(m, t, float(d)) for d in dists])
        ratio = kn.density(m, t, dists) / envelope
        lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
    assert kn.comparability_sweep(m) == (lo, hi)


class TestExactLaws:
    def test_cauchy_density(self, cauchy):
        assert kn.density(cauchy, 1.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)
        assert kn.density(cauchy, 2.0, 3.0) == pytest.approx(
            2.0 / (math.pi * 13.0), rel=1e-14
        )

    def test_cauchy_cdf(self, cauchy):
        assert kn.radial_cdf(cauchy, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_gaussian_density_convention(self, gaussian3):
        # per-coordinate variance 2t
        assert kn.density(gaussian3, 1.0, 0.0) == pytest.approx(
            (4 * math.pi) ** -1.5, rel=1e-14
        )

    def test_gaussian_tail(self):
        g1 = kn.from_id("gaussian:1")
        expect = 2 * stats.norm.sf(4.0 / math.sqrt(2.0))
        assert kn.radial_sf(g1, 1.0, 4.0) == pytest.approx(expect, rel=1e-12)

    def test_stable_alpha1_matches_cauchy(self):
        m = kn.KernelModel(
            model_id="s11", form=kn.STABLE_LIKE, V=kn.power(1.0), phi=kn.power(1.0),
            exact_law=kn.StableLaw(1.0, 1),
        )
        for t, r in [(1.0, 0.5), (2.0, 5.0), (1.0, 40.0)]:
            assert kn.density(m, t, r) == pytest.approx(
                t / (math.pi * (r * r + t * t)), rel=1e-7
            )
            assert kn.radial_cdf(m, t, r) == pytest.approx(
                2 / math.pi * math.atan(r / t), rel=1e-7
            )

    @pytest.mark.parametrize("t", [0.5, 1.0, 7.0])
    def test_normalization(self, t, stable153):
        models = [kn.from_id("cauchy1d"), kn.from_id("gaussian:3"), stable153]
        for m in models:
            dim = m.dim
            area = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}[dim]
            scale = t ** (1.0 / m.alpha)

            def radial(u):
                s = math.exp(u)
                return area * s**dim * kn.density(m, t, s)

            # piecewise segments around the envelope scale so the adaptive
            # rule cannot miss the density peak
            knots = [1e-9 * scale, 0.1 * scale, scale, 10.0 * scale, 300.0 * scale]
            body = sum(
                integrate.quad(radial, math.log(a), math.log(b), limit=300)[0]
                for a, b in zip(knots, knots[1:])
            )
            total = body + kn.radial_sf(m, t, knots[-1])
            assert total == pytest.approx(1.0, abs=1e-6), m.model_id

    @pytest.mark.parametrize("spec", ["cauchy1d", "gaussian:1"])
    def test_chapman_kolmogorov(self, spec):
        # numeric convolution of densities matches the semigroup in sup norm
        m = kn.from_id(spec)
        t, s = 0.7, 1.6
        for x in np.linspace(-4.0, 4.0, 9):
            conv, _ = integrate.quad(
                lambda z: kn.density(m, t, abs(z)) * kn.density(m, s, abs(x - z)),
                -np.inf,
                np.inf,
                limit=400,
            )
            assert conv == pytest.approx(kn.density(m, t + s, abs(x)), abs=1e-6)

    def test_envelope_bracket_on_grid(self, cauchy):
        lo, hi = kn.comparability_sweep(cauchy)
        # closed-form extremes: 1/(2 pi) at the crossover, 1/pi on-diagonal
        assert lo >= 1 / (2 * math.pi) - 1e-12
        assert hi <= 1 / math.pi + 1e-12

    def test_far_tail_against_series_oracle(self):
        # term-by-term closed form of the subordination mixture:
        # p_t(r) = sum_k (-1)^(k+1) G(kg+1) sin(pi k g)/(pi k!) t^k
        #          * pi^(-d/2) 4^(kg) G(d/2+kg) r^(-d-2kg),  g = alpha/2
        def series(alpha, d, t, r, terms=18):
            g = alpha / 2
            acc, sign, fact = 0.0, 1.0, 1.0
            for k in range(1, terms):
                fact *= k
                acc += sign * (
                    special.gamma(k * g + 1.0) * math.sin(math.pi * k * g)
                    / (math.pi * fact) * t**k * math.pi ** (-d / 2)
                    * 4.0 ** (k * g) * special.gamma(d / 2 + k * g)
                    * r ** (-d - 2 * k * g)
                )
                sign = -sign
            return acc

        cases = [(1.5, 3, t, r, 1e-7) for t, r in [(1.0, 10.0), (1.0, 50.0), (4.0, 150.0)]]
        # alpha near 2: eta carries w^(-gamma/(1-gamma)) = w^(-19), which must not overflow
        cases += [(1.9, d, t, 20.0 * t ** (1 / 1.9), 1e-9) for d in (1, 2, 3) for t in (1.0, 2.5)]
        for alpha, d, t, r, tol in cases:
            m = kn.from_id(f"stable:{alpha:g},{d}")
            assert kn.density(m, t, r) == pytest.approx(
                series(alpha, d, t, r), rel=tol
            ), (alpha, d, t, r)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cauchy_closed_forms_across_bands(self, dim):
        # stable:1,d is the d-dimensional Cauchy law: near band (0.2 to 2
        # scale lengths), far band (5 to 12) and beyond, as one array call each
        m = kn.from_id(f"stable:1,{dim}")
        t = np.array([0.5, 1.0, 3.0])[:, None]
        r = np.concatenate([np.geomspace(0.2, 2.0, 9), np.geomspace(5.0, 12.0, 5), [40.0, 1e3, 1e5]]) * t
        p = special.gamma((dim + 1) / 2) * math.pi ** (-(dim + 1) / 2) * t / (t * t + r * r) ** ((dim + 1) / 2)
        odd = 2 / math.pi * t * r / (t * t + r * r)
        sf = {1: 2 / math.pi * np.arctan2(t, r), 2: t / np.hypot(t, r),
              3: 2 / math.pi * np.arctan2(t, r) + odd}[dim]
        cdf = {1: 2 / math.pi * np.arctan2(r, t), 2: r * r / (np.hypot(t, r) * (t + np.hypot(t, r))),
               3: 2 / math.pi * np.arctan2(r, t) - odd}[dim]
        assert kn.density(m, t, r) == pytest.approx(p, rel=1e-10)
        assert kn.radial_sf(m, t, r) == pytest.approx(sf, rel=1e-12)
        assert kn.radial_cdf(m, t, r) == pytest.approx(cdf, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 1.9, 1.999, 1.9999])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_density_integrates_to_one(self, alpha, dim):
        # composite rule in log rho over [e^-25, e^160], one array call; the
        # two ends are closed by the cdf and the sf
        m = kn.from_id(f"stable:{alpha:g},{dim}")
        u, uw = np.polynomial.legendre.leggauss(32)
        ends = np.arange(-25.0, 160.5, 0.5)
        half = 0.5 * np.diff(ends)[:, None]
        rho = np.exp(ends[:-1, None] + half * (u + 1.0)).ravel()
        area = {1: 2.0, 3: 4.0 * math.pi}[dim]
        body = ((half * uw).ravel() * area * rho**dim) @ kn.density(m, 1.0, rho)
        mass = body + kn.radial_cdf(m, 1.0, rho[0]) + kn.radial_sf(m, 1.0, rho[-1])
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.9, 1.95, 1.99])
    def test_alpha_near_two_against_refined_reference(self, alpha, near_two_reference):
        # reference: Kanter's integral on 4000 nodes over each w's bracket
        # (found by bisection), the mixture rule refined twice over
        x, mix = near_two_reference(alpha)
        v = np.exp(x)
        rho = np.array([0.0, 0.2, 0.7, 1.5, 3.0, 5.0, 12.0, 40.0])
        for dim in (1, 2, 3):
            m = kn.from_id(f"stable:{alpha:g},{dim}")
            dens = (4 * math.pi * v) ** (-dim / 2) * np.exp(-np.outer(rho * rho, 1 / (4 * v)))
            sf = special.chdtrc(dim, np.outer(rho * rho, 1 / (2 * v)))
            assert kn.density(m, 1.0, rho) == pytest.approx(dens @ mix, rel=1e-10), dim
            assert kn.radial_sf(m, 1.0, rho[1:]) == pytest.approx(sf[1:] @ mix, rel=1e-10), dim

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("reach", [5.0, 20.0])
    def test_far_tail_alpha_near_two(self, dim, reach):
        m = kn.from_id(f"stable:1.9,{dim}")
        t = 1.5
        r = reach * t ** (1 / 1.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = kn.density(m, t, r)
            sf = kn.radial_sf(m, t, r)
            cdf = kn.radial_cdf(m, t, r)
        assert all(math.isfinite(v) for v in (p, sf, cdf))
        assert p > 0
        assert sf + cdf == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_far_band_cauchy_closed_forms(self, dim):
        # stable:1,d is the d-dimensional Cauchy law
        m = kn.from_id(f"stable:1,{dim}")
        for t, r in [(0.5, 2.0), (1.0, 12.0), (3.0, 1e3)]:
            p = special.gamma((dim + 1) / 2) * math.pi ** (-(dim + 1) / 2) * t / (
                t * t + r * r
            ) ** ((dim + 1) / 2)
            sf = {
                1: 2 / math.pi * math.atan(t / r),
                2: t / math.hypot(t, r),
                3: 2 / math.pi * (math.atan(t / r) + t * r / (t * t + r * r)),
            }[dim]
            assert kn.density(m, t, r) == pytest.approx(p, rel=1e-8)
            assert kn.radial_sf(m, t, r) == pytest.approx(sf, rel=1e-12)

    @pytest.mark.parametrize("r", [5.0, 12.0])
    def test_far_tail_sf_keeps_subordinator_mass(self, r):
        # reference: the same mixture on unit windows in log v up to
        # center + 200, where the subordinator mass left out is below 1e-20
        alpha, dim, t = 0.5, 3, 1.0
        gamma = alpha / 2
        log_scale = math.log(t) / gamma
        center = max(math.log(r * r / (2 * dim)), log_scale)
        knots = np.unique(np.concatenate([
            np.arange(center - 40.0, center + 200.5, 1.0), log_scale + np.array([-1.0, 0.0])
        ]))
        u, uw = np.polynomial.legendre.leggauss(32)
        half = 0.5 * np.diff(knots)[:, None]
        x = (knots[:-1, None] + half * (u + 1.0)).ravel()
        eta_v = np.exp(kn._log_eta1(gamma, np.exp(x - log_scale)) + x - log_scale)
        ref = float(((half * uw).ravel() * eta_v) @ special.chdtrc(dim, r * r / (2 * np.exp(x))))
        m = kn.from_id(f"stable:{alpha:g},{dim}")
        assert kn.radial_sf(m, t, r) == pytest.approx(ref, rel=1e-10)

    def test_eta1_against_levy(self):
        # gamma = 1/2: eta(w) = w^(-3/2) exp(-1/(4w)) / (2 sqrt(pi)); one array
        # call on both sides of the series switch at w = 4
        w = np.array([1e-6, 0.02, 0.3, 1.0, 3.5, 3.999, 4.0, 4.001, 6.0, 50.0, 1e6])
        log_levy = -1.5 * np.log(w) - 0.25 / w - math.log(2.0 * math.sqrt(math.pi))
        log_eta = kn._log_eta1(0.5, w)
        assert log_eta == pytest.approx(log_levy, rel=1e-12)
        moderate = w > 0.01
        assert np.exp(log_eta[moderate]) == pytest.approx(np.exp(log_levy[moderate]), rel=1e-12)


class TestArrayQueries:
    @pytest.mark.parametrize("spec", ["stable:1.5,3", "stable:0.5,2", "gaussian:3", "cauchy1d"])
    def test_arrays_match_scalar_calls(self, spec):
        m = kn.from_id(spec)
        t = np.array([0.5, 2.0, 30.0])[:, None]
        r = np.array([0.0, 0.3, 1.0, 7.0, 150.0])
        # one block's slice of windows covers all its rows, so a value may
        # differ from the scalar call's in rounding: probabilities by about
        # 1e-16 absolute
        for query, absolute in ((kn.density, 0.0), (kn.radial_cdf, 1e-15), (kn.radial_sf, 1e-15)):
            grid = query(m, t, r)
            assert grid.shape == (3, 5)
            for i, tt in enumerate(t[:, 0]):
                for j, rr in enumerate(r):
                    one = query(m, float(tt), float(rr))
                    assert type(one) is float
                    assert grid[i, j] == pytest.approx(one, rel=1e-12, abs=absolute)
        assert kn.radial_cdf(m, 1.0, np.zeros(2)).tolist() == [0.0, 0.0]
        assert kn.radial_sf(m, 1.0, np.zeros(2)).tolist() == [1.0, 1.0]
        assert kn.density(m, 1.0, np.zeros((0, 3))).shape == (0, 3)

    def test_array_preconditions(self):
        m = kn.from_id("stable:1.5,3")
        for query in (kn.density, kn.radial_cdf, kn.radial_sf):
            with pytest.raises(PreconditionError):
                query(m, np.array([1.0, 0.0]), 1.0)
            with pytest.raises(PreconditionError):
                query(m, 1.0, np.array([1.0, -1.0]))
            with pytest.raises(PreconditionError):
                query(m, 1.0, np.array([1.0, np.nan]))

    def test_far_radii_keep_the_series_tail(self):
        # rho^2 far past e^60: the whole density comes from the tail series
        # integrated past the rule's end; the leading term is
        # c_1 Gamma(d/2 + gamma) pi^(-d/2) 4^gamma rho^(-d-alpha)
        alpha, dim = 0.5, 3
        m = kn.from_id(f"stable:{alpha:g},{dim}")
        g = alpha / 2
        rho = np.exp(np.array([35.0, 50.0, 70.0]))
        c1 = special.gamma(g + 1) * math.sin(math.pi * g) / math.pi
        lead = c1 * special.gamma(dim / 2 + g) * math.pi ** (-dim / 2) * 4**g * rho ** (-dim - alpha)
        assert kn.density(m, 1.0, rho) == pytest.approx(lead, rel=1e-12)
        sf_lead = c1 * special.gamma(dim / 2 + g) / (g * special.gamma(dim / 2)) * (rho * rho / 4) ** -g
        assert kn.radial_sf(m, 1.0, rho) == pytest.approx(sf_lead, rel=1e-12)


    def test_extreme_radii_raise_no_warnings(self):
        # one block spanning 300 orders of magnitude, and radii whose rho^2
        # overflows past the rule's end, stay finite and warning-free
        m = kn.from_id("stable:0.2,3")
        rho = np.concatenate([np.geomspace(1e-150, 1e150, 40), [1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = kn.density(m, 1.0, rho)
            sf = kn.radial_sf(m, 1.0, rho)
            cdf = kn.radial_cdf(m, 1.0, rho)
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert sf + cdf == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(sf) <= 0)


class TestGaussianLaw:
    def test_cdf_sf_pinned(self):
        # values of the scipy.stats chi2 route, which chdtr/chdtrc equal bit for bit
        pinned = {
            (1, 1.0, 0.5): (0.27632639016823707, 0.7236736098317629),
            (1, 1.0, 12.0): (1.0, 2.1519736712498897e-17),
            (2, 0.3, 2.0): (0.9643260066527476, 0.035673993347252395),
            (2, 4.0, 3.0): (0.430217175269077, 0.569782824730923),
            (3, 1.0, 0.5): (0.011322857824208369, 0.9886771421757916),
            (3, 1.0, 12.0): (0.9999999999999984, 1.591900480262058e-15),
        }
        for (dim, t, r), (cdf, sf) in pinned.items():
            m = kn.from_id(f"gaussian:{dim}")
            assert (kn.radial_cdf(m, t, r), kn.radial_sf(m, t, r)) == (cdf, sf)

    def test_package_does_not_import_scipy_stats(self):
        code = "import sys, heatrates.kernels, heatrates.potential, heatrates.simulate; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestTableMemory:
    def test_table_build_and_queries_stay_small(self):
        law = kn.StableLaw(1.5, 3)
        tracemalloc.start()
        try:
            law.table
            build_peak = tracemalloc.get_traced_memory()[1]
            radii = np.geomspace(1e-3, 1e6, 4096)
            np.random.default_rng(7).shuffle(radii)
            peaks = []
            for query in (law.density, law.sf):
                tracemalloc.reset_peak()
                query(np.ones(1), radii)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert build_peak < 8e6
        assert max(peaks) < 8e6 + build_peak

    @settings(max_examples=16, deadline=None, database=None, derandomize=True)
    @given(spec=st.one_of(
        st.builds("stable:{!r},{}".format, st.floats(0.3, 1.9), st.integers(1, 3)),
        st.builds("gaussian:{}".format, st.integers(1, 3)), st.just("cauchy1d"),
        st.builds("subgaussian:{!r},{!r},{!r}".format, st.floats(0.5, 4.0), st.floats(1.2, 3.0),
                  st.floats(0.1, 2.0)),
        st.builds("jump:power:{!r};powerlog:{!r},{!r}".format, st.floats(0.5, 4.0), st.floats(0.5, 2.5),
                  st.floats(0.0, 1.5)),
    ), filled=st.booleans())
    def test_copies_answer_alike(self, spec, filled):
        # pickle and deepcopy carry the caches (long_run, the tail profile
        # and c1, StableLaw.table), and the copy answers as the model does,
        # bit for bit; replace starts empty
        def answers(m):
            out = [kn.classify_long_run(m)[0], m.long_run]
            try:
                out.append(kn.tail_constant(m).hex())
            except UnsupportedModelError as exc:
                out.append(str(exc))
            if m.has_density:
                t, r = np.array([[0.5], [3.0]]), np.array([0.0, 0.7, 2.0, 40.0])
                out += [v.hex() for v in kn.density(m, t, r).ravel().tolist()]
                out += [v.hex() for v in kn.radial_sf(m, t, r).ravel().tolist()]
            return out

        m = kn.from_id(spec)
        if filled:
            answers(m)
        for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert again == m
            if filled:
                assert "long_run" in again.__dict__
                assert not isinstance(m.exact_law, kn.StableLaw) or "table" in again.exact_law.__dict__
            assert answers(again) == answers(m)
        assert "long_run" not in dataclasses.replace(m).__dict__

    def test_classification_does_not_build_the_table(self):
        m = kn.from_id("stable:1.5,3")
        assert kn.classify_long_run(m)[0] == kn.TRANSIENT
        assert m.long_run == kn.TRANSIENT
        assert "table" not in m.exact_law.__dict__
        kn.density(m, 1.0, 1.0)
        assert "table" in m.exact_law.__dict__
        assert "table" not in kn.from_id("stable:1.5,3").exact_law.__dict__


#: the exact laws of the bounds benchmark, and two envelope-only models
TAIL_PRESETS = ["gaussian:3", "cauchy1d", "stable:1,1", "stable:1.5,3", "stable:0.5,2", "stable:1.9,2",
                "stablelike:3,1.5", "subgaussian:3,2,0.25"]


class TestTailProbability:
    def test_cauchy_oracle(self, cauchy):
        te = kn.tail_probability(cauchy, 1.0, 1.0)
        assert te.estimate == pytest.approx(0.5, rel=1e-12)
        assert te.estimate <= te.upper_bound

    def test_full_mass_at_zero_radius(self, gaussian3):
        te = kn.tail_probability(gaussian3, 1.0, 0.0)
        assert te.estimate == 1.0

    def test_reports_the_annulus_constant(self, cauchy):
        te = kn.tail_probability(cauchy, 4.0, 16.0)
        h, rho = kn.tail_profile(cauchy)
        assert te.c1 == kn.tail_constant(cauchy)
        assert te.upper_bound == te.c1 * h(16.0 / rho(4.0))

    @staticmethod
    def _count_builds(monkeypatch):
        """The names of the ScalingFunctions verified from here on."""
        built = []
        post_init = ScalingFunction.__post_init__

        def counted(self):
            built.append(self.name)
            post_init(self)

        monkeypatch.setattr(ScalingFunction, "__post_init__", counted)
        return built

    #: the three public readers of a model's tail derivation
    TAIL_CALLS = {
        "profile": kn.tail_profile,
        "constant": kn.tail_constant,
        "probability": lambda m: kn.tail_probability(m, 4.0, 16.0),
    }

    @pytest.mark.parametrize("spec", TAIL_PRESETS)
    def test_builds_one_profile_per_call(self, spec, monkeypatch):
        # a model's first tail call, through any of the three functions,
        # verifies h and rho on their grids (2 builds); every later call on
        # that model, r = 0 included, builds none
        model = kn.from_id(spec)
        built = self._count_builds(monkeypatch)
        for first in self.TAIL_CALLS.values():
            m = dataclasses.replace(model)
            built.clear()
            first(m)
            assert len(built) == 2, built
            built.clear()
            for call in (*self.TAIL_CALLS.values(), lambda m: kn.tail_probability(m, 1.0, 0.0)):
                call(m)
            assert built == []

    def test_copies_start_with_an_empty_cache(self, monkeypatch):
        m = kn.from_id("stablelike:3,1.5")
        c1 = kn.tail_constant(m)
        built = self._count_builds(monkeypatch)
        # c_hi * mu_ball * sup V(theta r) / V(r) / (1 - c0) is above 1/h(1) = 1
        # here, so c1 scales with the copy's own c_hi
        for copy in (dataclasses.replace(m, c_lo=0.02, c_hi=0.25), dataclasses.replace(m, c_hi=0.25)):
            built.clear()
            te = kn.tail_probability(copy, 4.0, 16.0)
            assert len(built) == 2, built
            assert te.c1 == kn.tail_constant(copy)
            assert te.c1 == pytest.approx(c1 * 0.25 / m.c_hi, rel=1e-15)
        built.clear()
        assert kn.tail_constant(m) == c1
        assert built == []

    def test_unsupported_derivations_raise_on_every_call(self, monkeypatch):
        # nothing is cached for a derivation that raises
        jump = kn.from_id("jump:power:3;powerlog:1.5,1")
        for _ in range(2):
            for call in self.TAIL_CALLS.values():
                with pytest.raises(UnsupportedModelError, match="two-sided-jump"):
                    call(jump)
        # a model whose c1 fails keeps its (h, rho)
        m = kn.from_id("stablelike:3,1.5")
        no_decay = sc.HConditionReport(ok=False, theta=8.0, c0=1.0, worst_point=2.0)
        monkeypatch.setattr(kn, "check_h_conditions", lambda *a, **k: no_decay)
        h, rho = kn.tail_profile(m)
        for _ in range(2):
            for call in (kn.tail_constant, self.TAIL_CALLS["probability"]):
                with pytest.raises(UnsupportedModelError, match="no geometric tail decay"):
                    call(m)
            again = kn.tail_profile(m)
            assert again[0] is h and again[1] is rho
        monkeypatch.undo()
        assert kn.tail_constant(m) == kn.tail_constant(kn.from_id("stablelike:3,1.5"))

    @pytest.mark.parametrize("spec", TAIL_PRESETS)
    def test_matches_the_two_call_formula(self, spec):
        # c1 = tail_constant(model) and the bound c1 h(r / rho(t)), as float hex
        m = kn.from_id(spec)
        c1 = kn.tail_constant(m)
        h, rho = kn.tail_profile(m)
        for t, r in ((1.0, 0.0), (1.0, 1.0), (4.0, 16.0), (37.5, 0.3), (1e3, 250.0)):
            te = kn.tail_probability(m, t, r)
            bound = math.inf if r == 0.0 else c1 * h(r / rho(t))
            assert (te.c1.hex(), te.upper_bound.hex()) == (c1.hex(), bound.hex()), (t, r)

    def test_decay_grid_is_read_only(self):
        assert not kn._TAIL_DECAY_GRID.flags.writeable
        with pytest.raises(ValueError):
            kn._TAIL_DECAY_GRID[0] = 2.0

    @pytest.mark.parametrize(
        "spec, V",
        [("cauchy1d", None), ("gaussian:3", None), ("stable:1,1", None), ("stable:1.5,3", None),
         ("stable:0.5,2", None), ("stable:1.9,2", None), ("subgaussian:2.5,3,0.3", None),
         ("stablelike:1.7,0.6", None),
         # V(theta r) / V(r) is constant for the presets' power V, not here
         ("stable:1.5,3", "powerlog:3,1"), ("gaussian:3", "powerlog:3,-1")],
    )
    def test_tail_constant_matches_loop(self, spec, V):
        # reference: the annulus constant with the decay sweep and the volume
        # doubling sup as Python loops over float grid points
        m = kn.from_id(spec)
        if V is not None:
            m = dataclasses.replace(m, V=scaling_from_id(V))
        h, _rho = kn.tail_profile(m)
        pts = np.geomspace(1.0 + 1e-9, 1e4, 64).tolist()
        for theta in (2.0, 4.0, 8.0):
            c0 = max(math.exp(d) if d < 700.0 else math.inf
                     for d in (h.log_value(theta * r) - h.log_value(r) for r in pts))
            if 0 < c0 < 1:
                break
        c_v = max(m.V(theta * r) / m.V(r) for r in m.V.grid().tolist())
        want = max(1.0 / h(1.0), m.c_hi * m.mu_ball * c_v / (1.0 - c0))
        # numpy's array log, exp and power may round a last bit differently
        assert kn.tail_constant(m) == pytest.approx(want, rel=1e-15)

    def test_tail_constant_in_high_dimension(self):
        # V = r^dim underflows on its grid from dim 54 on, so the doubling
        # ratio 2^dim is taken from log V: c1 = max(1, C_hi w_d 2^d / (1 - c0))
        # with theta = 2 and c0 = 2^-1.5 for h = r^-1.5
        for dim in range(40, 81):
            m = kn.from_id(f"stable:1.5,{dim}")
            want = max(1.0, m.c_hi * m.mu_ball * 2.0**dim / (1.0 - 2.0**-1.5))
            assert kn.tail_constant(m) == pytest.approx(want, rel=1e-12, abs=0.0), dim

    def test_tail_constant_in_low_dimension_is_unchanged(self):
        # the values of the linear ratio V(2r) / V(r)
        for dim, c1 in ((1, 618.7672642712118), (2, 1943.914691716294), (3, 5183.7725112434755)):
            got = kn.tail_constant(kn.from_id(f"stable:1.5,{dim}"))
            assert got == pytest.approx(c1, rel=1e-14, abs=0.0), dim

    def test_tail_constant_at_the_edge_of_the_float_range(self):
        # 2^1023 = e^709.09 is a float; the unit ball's volume underflows to
        # 0, so the formula reads max(1, 0) = 1 (from_id refuses this law, so
        # the model is built around it)
        m = dataclasses.replace(kn.from_id("stablelike:1023,1.5"), exact_law=kn.StableLaw(1.5, 1023))
        assert kn.tail_constant(m) == max(1.0, m.c_hi * m.mu_ball * 2.0**1023 / (1.0 - 2.0**-1.5)) == 1.0

    def test_tail_constant_past_the_float_range_raises(self):
        # V's doubling ratio 2^1100 overflows (stable:1.5,1100 is refused by from_id)
        with pytest.raises(UnsupportedModelError, match="stablelike:1100,1.5: the tail constant c1 is not finite"):
            kn.tail_constant(kn.from_id("stablelike:1100,1.5"))

    def test_bound_respected_on_grid(self, cauchy):
        for t in (1.0, 4.0, 16.0):
            for r in (1.0, 4.0, 16.0, 64.0):
                te = kn.tail_probability(cauchy, t, r)
                assert te.estimate <= te.upper_bound + 1e-12

    def test_stable3d_estimate_below_bound_mc_oracle(self, stable153):
        # estimate for t=4, r=64 against an independent subordination sampler
        t, r = 4.0, 64.0
        te = kn.tail_probability(stable153, t, r)
        assert te.estimate <= te.upper_bound
        rng = np.random.default_rng(123)
        n = 1_000_000
        gamma = 0.75
        u = rng.uniform(0.0, math.pi, n)
        w = rng.exponential(1.0, n)
        s1 = (np.sin(gamma * u) / np.sin(u) ** (1 / gamma)) * (
            np.sin((1 - gamma) * u) / w
        ) ** ((1 - gamma) / gamma)
        st = t ** (1 / gamma) * s1
        z = rng.standard_normal((n, 3))
        pts = np.sqrt(2.0 * st)[:, None] * z
        frac = float(np.mean(np.linalg.norm(pts, axis=1) >= r))
        ci3 = 3 * math.sqrt(frac * (1 - frac) / n)
        assert abs(te.estimate - frac) <= ci3

    def test_bound_regime_requires_t_at_least_one(self, cauchy):
        with pytest.raises(PreconditionError):
            kn.tail_probability(cauchy, 0.5, 1.0)

    def test_envelope_only_estimate_is_none(self):
        # an envelope brackets the tail only within its constants: no point estimate
        m = kn.from_id("stablelike:3,1.5")
        te = kn.tail_probability(m, 4.0, 64.0)
        assert te.estimate is None
        assert te.upper_bound == pytest.approx(te.c1 * 64.0**-1.5 * 4.0, rel=1e-14)
        assert kn.tail_probability(m, 4.0, 0.0).estimate == 1.0


class TestBallProbability:
    def test_saturated_envelope(self, cauchy):
        bp = kn.ball_probability(cauchy, 1.0, 2.0)
        assert bp.envelope == 1.0

    def test_cauchy_values(self, cauchy):
        bp = kn.ball_probability(cauchy, 1.0, 1.0)
        assert bp.probability == pytest.approx(0.5, rel=1e-12)
        assert bp.envelope == 1.0
        assert cauchy.c_lo <= bp.probability / bp.envelope <= cauchy.c_hi * 2.0

    def test_gaussian_small_ball(self, gaussian3):
        bp = kn.ball_probability(gaussian3, 1.0, 0.1)
        assert bp.envelope == pytest.approx(1e-3, rel=1e-12)
        assert bp.probability == pytest.approx(stats.chi2.cdf(0.005, df=3), rel=1e-12)

    def test_monotonicity(self, cauchy):
        rs = np.linspace(0.1, 5.0, 12)
        probs = [kn.ball_probability(cauchy, 1.0, float(r)).probability for r in rs]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        ts = np.linspace(0.5, 8.0, 12)
        probs_t = [kn.ball_probability(cauchy, float(t), 1.0).probability for t in ts]
        assert all(a >= b for a, b in zip(probs_t, probs_t[1:]))

    @pytest.mark.parametrize(
        "spec, t, r, want",
        [
            ("stablelike:3,1.5", 1e300, 1e150, 1e-150),  # V(r) and V(phi^-1(t)) pass the float range
            ("stablelike:3,1.5", 1e250, 1e110, 1e-170),
            ("stablelike:1,0.1", 1e40, 1e300, 1e-100),  # phi^-1(t) = 1e400 does
        ],
    )
    def test_envelope_in_logs(self, spec, t, r, want):
        assert kn.ball_probability(kn.from_id(spec), t, r).envelope == pytest.approx(want, rel=1e-12)


class TestClassifyLongRun:
    def test_transient_supercritical(self):
        assert kn.classify_long_run(kn.from_id("stablelike:3,1.5"))[0] == kn.TRANSIENT

    def test_recurrent_critical(self, cauchy):
        assert kn.classify_long_run(cauchy)[0] == kn.RECURRENT

    def test_recurrent_one_dim_diffusive(self):
        assert kn.classify_long_run(kn.from_id("stablelike:1,2"))[0] == kn.RECURRENT

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.45, 0.6])
    def test_small_alpha_3d_transient(self, alpha):
        # V(phi^-1(t)) = t^(3/alpha) overflows inside the block range; the
        # integrand itself only underflows towards 0
        assert kn.classify_long_run(kn.from_id(f"stable:{alpha:g},3"))[0] == kn.TRANSIENT

    @pytest.mark.parametrize("spec", ["stable:0.1,1", "stable:0.2,3"])
    def test_overflowing_exact_inverse_raises(self, spec):
        # phi^-1(t) = t^(1/alpha) leaves the float range inside the block
        # range; the integrand takes log phi^-1(t) from phi's log-inverse and
        # never forms phi^-1(t), so it classifies instead of raising
        label, verdict = kn.classify_long_run(kn.from_id(spec))
        assert label == kn.TRANSIENT and verdict.label == CONVERGENT

    def test_inconclusive_near_the_critical_exponent(self):
        # V(phi^-1(t)) = t^0.9957 is 1/t to within a geometric block ratio of
        # 1.003: inside the decision band, outside the descend band
        label, verdict = kn.classify_long_run(kn.from_id("stablelike:0.9957,1"))
        assert label == kn.INCONCLUSIVE_CLASS
        assert verdict.reason == "geometric rate 1.003 inside margin but not at boundary"

    def test_phi_undefined_at_one(self):
        # phi = powerlog:1.5,-0.3 is increasing on its domain [2, 2e8] but
        # divides by zero at r = 1, where inverse used to start its gallop
        m = kn.from_id("jump:power:3;powerlog:1.5,-0.3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kn.classify_long_run(m)[0] == kn.TRANSIENT
            env = kn.ball_probability(m, 10.0, 3.0).envelope
            assert abs(m.phi(kn.inverse(m.phi, 10.0)) - 10.0) <= 1e-11
        assert 0.0 < env < 1.0

    @pytest.mark.parametrize(
        "spec", ["jump:power:3;powerlog:1.5,1", "jump:power:1;powerlog:2,0.5", "stable:1.5,3", "gaussian:1"]
    )
    def test_matches_float_integrand(self, spec):
        # reference: the integrand as one float call per node
        m = kn.from_id(spec)
        _, got = kn.classify_long_run(m)
        want = classify_tail_integral(
            lambda t: math.exp(-m.V.log_value(kn.inverse(m.phi, t))), 16.0
        )
        assert (got.label, got.reason, got.depth_used) == (want.label, want.reason, want.depth_used)
        np.testing.assert_allclose(got.block_sums, want.block_sums, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("spec", ["cauchy1d", "stable:1.5,3"])
    def test_reads_the_prebuilt_frame(self, spec, monkeypatch):
        # the long-run integral starts at the classifier's prebuilt t0, so no
        # verdict builds a rule, block index or fit of its own: cauchy1d
        # decides at depth 1, on the prebuilt fits, stable:1.5,3 at depth 0
        from heatrates import integral_tests as it

        want = kn.classify_long_run(kn.from_id(spec))

        def built(*args):
            raise AssertionError("a per-call rule or fit was built")

        for name in ("_block_rule", "_block_index", "_fits"):
            monkeypatch.setattr(it, name, built)
        monkeypatch.setattr(np.linalg, "pinv", built)
        assert kn.classify_long_run(kn.from_id(spec)) == want
        assert want[1].depth_used == (1 if spec == "cauchy1d" else 0)

    def test_inverse_cost_per_integrand_evaluation(self):
        # phi = powerlog without its exact inverse, so the integrand
        # 1 / V(phi^-1(t)) solves ell_phi(s) = log t at every node by regula
        # falsi; V's ell is called once, on the array of all 3840 roots in s
        elements = {"V": 0, "phi": 0}
        calls = {"V": 0, "phi": 0}

        def counted(f, key):
            def ell(s, inner=f.ell):
                elements[key] += np.size(s)
                calls[key] += 1
                return inner(s)

            return dataclasses.replace(f, evaluator=sc.LogLog(ell))

        m = kn.from_id("jump:power:2;powerlog:1.5,1")
        phi = dataclasses.replace(m.phi, exact_inverse=None)
        want = kn.classify_long_run(dataclasses.replace(m, phi=phi))
        m = dataclasses.replace(m, V=counted(m.V, "V"), phi=counted(phi, "phi"))
        elements.update(V=0, phi=0)
        calls.update(V=0, phi=0)
        assert kn.classify_long_run(m) == want and want[0] == kn.TRANSIENT
        assert elements["V"] == 3840  # 240 blocks of the 16-point Gauss-Legendre rule
        assert calls["V"] == 1  # one array call, not one call per node
        assert 0 < elements["phi"] < 25 * elements["V"]
