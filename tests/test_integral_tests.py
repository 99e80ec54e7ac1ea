import dataclasses
import math

import numpy as np
import pytest

from heatrates import scaling as sc
from heatrates.errors import EvaluationError, PreconditionError
from heatrates.integral_tests import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    K_MAX,
    ONE_PROB,
    ZERO_PROB,
    classify_tail_integral,
    critical_lower_rate_test,
    dvoretzky_erdos_test,
    kolmogorov_test,
    subcritical_lower_rate_test,
    upper_rate_test,
)

log = math.log


def loglog(t):
    return math.log(math.log(t))


def logloglog(t):
    return math.log(math.log(math.log(t)))


# The labeled analytic suite.  Every label is known in closed form
# (p-integral, log log t or log log log t antiderivative); the single
# borderline item sits exactly at the depth-3 critical exponent and may
# honestly come back inconclusive.
LABELED_SUITE = [
    ("p2", lambda t: t**-2.0, 16.0, {CONVERGENT}),
    ("p15", lambda t: t**-1.5, 16.0, {CONVERGENT}),
    ("p105", lambda t: t**-1.05, 16.0, {CONVERGENT}),
    ("p1", lambda t: 1.0 / t, 16.0, {DIVERGENT}),
    ("p05", lambda t: t**-0.5, 16.0, {DIVERGENT}),
    ("p095", lambda t: t**-0.95, 16.0, {DIVERGENT}),
    ("log3_over_p2", lambda t: log(t) ** 3 / t**2, 16.0, {CONVERGENT}),
    ("p2_log2", lambda t: 1.0 / (t * t * log(t) ** 2), 16.0, {CONVERGENT}),
    ("log2", lambda t: 1.0 / (t * log(t) ** 2), 16.0, {CONVERGENT}),
    ("log15", lambda t: 1.0 / (t * log(t) ** 1.5), 16.0, {CONVERGENT}),
    ("log11", lambda t: 1.0 / (t * log(t) ** 1.1), 16.0, {CONVERGENT}),
    ("log1", lambda t: 1.0 / (t * log(t)), 16.0, {DIVERGENT}),
    ("log09", lambda t: 1.0 / (t * log(t) ** 0.9), 16.0, {DIVERGENT}),
    ("log05", lambda t: 1.0 / (t * log(t) ** 0.5), 16.0, {DIVERGENT}),
    ("ll2_log15", lambda t: loglog(t) ** 2 / (t * log(t) ** 1.5), 16.0, {CONVERGENT}),
    ("ll2", lambda t: 1.0 / (t * log(t) * loglog(t) ** 2), 16.0, {CONVERGENT}),
    ("ll15", lambda t: 1.0 / (t * log(t) * loglog(t) ** 1.5), 16.0, {CONVERGENT}),
    ("ll1", lambda t: 1.0 / (t * log(t) * loglog(t)), 16.0, {DIVERGENT}),
    ("ll05", lambda t: 1.0 / (t * log(t) * loglog(t) ** 0.5), 16.0, {DIVERGENT}),
    ("ll_neg1", lambda t: loglog(t) / (t * log(t)), 16.0, {DIVERGENT}),
    (
        "stretch_exp",
        lambda t: math.exp(-math.sqrt(t)) / t if t < 4.9e5 else 0.0,
        16.0,
        {CONVERGENT},
    ),
    (
        "oscillating_conv",
        lambda t: (1.0 + 0.3 * math.sin(log(t))) / t**2,
        16.0,
        {CONVERGENT},
    ),
    # borderline: exactly critical at depth 3 (truly divergent)
    (
        "lll1_borderline",
        lambda t: 1.0 / (t * log(t) * loglog(t) * logloglog(t)),
        32.0,
        {DIVERGENT, INCONCLUSIVE},
    ),
]


class TestClassifyTailIntegral:
    @pytest.mark.parametrize("name,f,t0,expected", LABELED_SUITE, ids=[c[0] for c in LABELED_SUITE])
    def test_labeled_suite(self, name, f, t0, expected):
        v = classify_tail_integral(f, t0)
        assert v.label in expected, f"{name}: got {v.label} ({v.reason})"

    def test_spec_examples(self):
        assert classify_tail_integral(lambda t: 1.0 / t**2).label == CONVERGENT
        assert classify_tail_integral(lambda t: 1.0 / (t * log(t))).label == DIVERGENT
        v = classify_tail_integral(
            lambda t: 1.0 / (t * log(t) * loglog(t) ** 1.5), 16.0
        )
        assert v.label == CONVERGENT

    def test_verdict_diagnostics(self):
        v = classify_tail_integral(lambda t: 1.0 / (t * log(t) ** 1.5))
        assert v.depth_used == 1
        assert v.tail_exponent_estimate == pytest.approx(1.5, abs=0.05)
        assert len(v.block_table) == 240
        assert v.partial_sum > 0

    def test_scale_invariance(self):
        for lam in (2.0, 10.0):
            for _, f, t0, expected in LABELED_SUITE[:12]:
                direct = classify_tail_integral(f, t0)
                scaled = classify_tail_integral(lambda t: lam * f(lam * t), t0 / lam)
                assert direct.label == scaled.label

    def test_monotone_dominance_on_suite(self):
        # if f <= g beyond t0 and g converges, f must not be labeled divergent
        cases = {name: (f, t0) for name, f, t0, _ in LABELED_SUITE}
        ordered_pairs = [
            ("log2", "log1"),      # 1/(t log^2) <= 1/(t log) for t > e
            ("ll2", "ll1"),
            ("p2", "p1"),
            ("log15", "log05"),
        ]
        for small, big in ordered_pairs:
            f, t0f = cases[small]
            g, t0g = cases[big]
            vf = classify_tail_integral(f, max(t0f, t0g))
            vg = classify_tail_integral(g, max(t0f, t0g))
            if vg.label == CONVERGENT:
                assert vf.label != DIVERGENT
            if vf.label == DIVERGENT:
                assert vg.label != CONVERGENT

    def test_one_evaluation_per_node_in_increasing_t(self):
        seen = []

        def f(t):
            seen.append(t)
            return t**-2.0

        classify_tail_integral(f, 16.0)
        assert len(seen) == K_MAX * 16 == 3840
        assert all(type(t) is float for t in seen)
        assert 16.0 < seen[0] and all(a < b for a, b in zip(seen, seen[1:]))
        assert seen[-1] < 16.0 * 2.0**K_MAX

    @pytest.mark.parametrize("t0", [0.0, -1.0, math.nan, math.inf, 1e250])
    def test_block_range_must_be_positive_and_finite(self, t0):
        # 1e250 is finite, but the last block end t0 2^K_MAX is not
        with pytest.raises(PreconditionError, match="t0"):
            classify_tail_integral(lambda t: 1.0 / t, t0)

    def test_negative_integrand_raises_with_block(self):
        with pytest.raises(PreconditionError, match="block 3: integrand negative"):
            classify_tail_integral(lambda t: -1.0 if t > 200.0 else 1.0 / t**2, 16.0)

    def test_nonfinite_integrand_raises_with_block(self):
        def f(t):
            return float("inf") if t > 1e6 else 1.0 / t**2

        with pytest.raises(EvaluationError, match="block"):
            classify_tail_integral(f, 16.0)

    def test_negative_integrand_rejected(self):
        with pytest.raises(PreconditionError):
            classify_tail_integral(lambda t: math.sin(t) / t**2, 16.0)

    def test_oscillating_blocks_inconclusive(self):
        # positive but violently non-monotone at block scale
        f = lambda t: (2.0 + 1.999 * math.sin(4.0 * log(t))) / t
        v = classify_tail_integral(f, 16.0)
        assert v.label == INCONCLUSIVE
        assert "monotone" in v.reason


def _block_closed_forms(u):
    """Exact block integrals for each family, from the rule's own block ends
    u_k = log t0 + k log 2 (so rounding of t0 2^k does not count), written
    without cancellation."""
    ua, du = u[:-1], np.diff(u)

    def power(p):  # t^-p
        return np.exp((1.0 - p) * ua) * -np.expm1((1.0 - p) * du) / (p - 1.0)

    d1 = np.log1p(du / ua)  # log log t
    d2 = np.log1p(d1 / np.log(ua))  # log log log t
    d3 = np.log1p(d2 / np.log(np.log(ua)))  # log log log log t
    ub = ua + du
    return {
        "p2": power(2.0),
        "p15": power(1.5),
        "p05": power(0.5),
        "log15": 2.0 * du / (np.sqrt(ua * ub) * (np.sqrt(ua) + np.sqrt(ub))),
        "log1": d1,
        "ll2": d1 / (np.log(ua) * np.log(ub)),
        "lll1_borderline": d3,
    }


class TestBlockRule:
    @pytest.mark.parametrize(
        "name", ["p2", "p15", "p05", "log15", "log1", "ll2", "lll1_borderline"]
    )
    def test_blocks_match_closed_form_antiderivatives(self, name):
        f, t0 = {c[0]: (c[1], c[2]) for c in LABELED_SUITE}[name]
        u = math.log(t0) + math.log(2.0) * np.arange(K_MAX + 1)
        exact = _block_closed_forms(u)[name]
        blocks = np.array([s for _, s in classify_tail_integral(f, t0).block_table])
        np.testing.assert_allclose(blocks, exact, rtol=1e-13, atol=0.0)


class TestKolmogorov:
    def test_loglog_threshold(self):
        def make(c):
            ev = lambda t: math.sqrt(c * loglog(t))
            return sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 16.0), 16.0)

        assert kolmogorov_test(make(3.0), 1).label == CONVERGENT
        assert kolmogorov_test(make(2.0), 1).label == DIVERGENT

    def test_fast_growth(self):
        assert kolmogorov_test(sc.power(0.25), 3).label == CONVERGENT

    def test_requires_increasing(self):
        with pytest.raises(PreconditionError):
            kolmogorov_test(sc.power(-1.0), 1)

    def test_nan_t0_raises_up_front(self):
        with pytest.raises(PreconditionError, match="t0"):
            kolmogorov_test(sc.power(0.25), 3, t0=math.nan)


class TestDvoretzkyErdos:
    def test_log_threshold(self):
        assert dvoretzky_erdos_test(sc.powerlog(0.0, -2.0), 3).label == CONVERGENT
        assert dvoretzky_erdos_test(sc.powerlog(0.0, -1.0), 3).label == DIVERGENT

    def test_power_decay(self):
        assert dvoretzky_erdos_test(sc.power(-0.1), 4).label == CONVERGENT

    def test_dimension_requirement(self):
        with pytest.raises(PreconditionError):
            dvoretzky_erdos_test(sc.power(-0.1), 2)

    def test_infinite_t0_raises(self):
        with pytest.raises(PreconditionError, match="t0"):
            dvoretzky_erdos_test(sc.powerlog(0.0, -1.0), 3, t0=math.inf)

    def test_nan_log_integrand_raises_with_block(self):
        # a NaN value of h is an error named by its block, as in
        # classify_tail_integral, not an integrand of 0
        def ev(r):
            return math.nan if r > 1e30 else 1.0 / math.log(r) ** 2

        h = sc.ScalingFunction(ev, sc.DECREASING, sc.fit_envelope(ev, 16.0), 16.0)
        with pytest.raises(EvaluationError, match="block 95: integrand non-finite at t=1.05"):
            dvoretzky_erdos_test(h, 3)


class TestUpperRate:
    BETA = 1.5

    def _phi(self, eps):
        return sc.RateCandidate(
            "direct", sc.powerlog(1.0 / self.BETA, (1.0 + eps) / self.BETA)
        )

    def test_stable_dichotomy(self):
        h, rho = sc.power(-self.BETA), sc.power(1.0 / self.BETA)
        assert upper_rate_test(h, rho, self._phi(1.0), 1.0, ONE_PROB).label == CONVERGENT
        assert upper_rate_test(h, rho, self._phi(0.0), 1.0, ONE_PROB).label == DIVERGENT

    def test_zero_prob_direction(self):
        h, rho = sc.power(-self.BETA), sc.power(1.0 / self.BETA)
        assert upper_rate_test(h, rho, self._phi(0.0), 1.0, ZERO_PROB).label == DIVERGENT

    def test_subgaussian_thresholds(self):
        beta, c0 = 2.0, 0.25
        h = sc.exp_decay(c0, beta / (beta - 1.0))
        rho = sc.power(1.0 / beta)

        def lil(eta):
            ev = lambda t: eta * t ** (1 / beta) * loglog(t) ** ((beta - 1) / beta)
            f = sc.ScalingFunction(ev, sc.INCREASING, sc.fit_envelope(ev, 16.0), 16.0)
            return sc.RateCandidate("direct", f)

        eta_hi = 1.1 * 2 ** (1 + 1 / beta) * c0 ** (-(beta - 1) / beta)
        eta_lo = 0.9 * 2 ** (-1 - 2 / beta) * c0 ** (-(beta - 1) / beta)
        assert upper_rate_test(h, rho, lil(eta_hi), 0.05, ONE_PROB).label == CONVERGENT
        assert upper_rate_test(h, rho, lil(eta_lo), 0.05, ZERO_PROB).label == DIVERGENT

    def test_eps_must_be_positive(self):
        h, rho = sc.power(-self.BETA), sc.power(1.0 / self.BETA)
        with pytest.raises(PreconditionError):
            upper_rate_test(h, rho, self._phi(1.0), 0.0, ONE_PROB)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, eps):
        h, rho = sc.power(-self.BETA), sc.power(1.0 / self.BETA)
        with pytest.raises(PreconditionError, match="eps"):
            upper_rate_test(h, rho, self._phi(0.0), eps, ONE_PROB)

    @pytest.mark.parametrize("beta", [0.15, 0.2])
    @pytest.mark.parametrize("eps, label", [(0.5, CONVERGENT), (-0.5, DIVERGENT)])
    def test_small_beta_direct_candidate(self, beta, eps, label):
        # phi(t) = t^(1/beta) (log t)^((1+eps)/beta) passes the float range
        # inside the block range; its log does not
        h, rho = sc.power(-beta), sc.power(1.0 / beta)
        phi = sc.powerlog(1.0 / beta, (1.0 + eps) / beta)
        assert upper_rate_test(h, rho, sc.RateCandidate("direct", phi), 1.0, ONE_PROB).label == label


class TestSubcriticalLowerRate:
    class _Model:
        def __init__(self):
            self.V = sc.power(3.0)
            self.phi = sc.power(1.5)

    def test_log_dichotomy(self):
        m = self._Model()
        assert subcritical_lower_rate_test(m, sc.powerlog(0.0, -1.0)).label == CONVERGENT
        assert subcritical_lower_rate_test(m, sc.powerlog(0.0, -0.5)).label == DIVERGENT

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.8, 1.5, 1.9])
    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_takeuchi_integral_on_stable_laws(self, alpha, s):
        # on stable:alpha,3 with g = (log t)^(-s/(3-alpha)) the integrand is
        # t^-1 (log t)^-s (Takeuchi 1964): convergent iff s > 1.  For small
        # alpha, phi(r) V(phi^-1(t)) passes the float range; its log does not
        from heatrates import kernels as kn

        g = sc.powerlog(0.0, -s / (3.0 - alpha))
        v = subcritical_lower_rate_test(kn.from_id(f"stable:{alpha!r},3"), g)
        assert v.label == (CONVERGENT if s > 1.0 else DIVERGENT)

    def test_reduces_to_dvoretzky_erdos(self):
        # V = r^d, phi = r^2, g = h reproduces the h^{d-2}/t integrand
        class M:
            V = sc.power(3.0)
            phi = sc.power(2.0)

        h = sc.powerlog(0.0, -2.0)
        via_reduction = subcritical_lower_rate_test(M(), h)
        via_de = dvoretzky_erdos_test(h, 3)
        assert via_reduction.label == via_de.label == CONVERGENT

    def test_requires_supercritical_volume(self):
        class M:
            V = sc.power(1.0)
            phi = sc.power(1.0)

        with pytest.raises(PreconditionError):
            subcritical_lower_rate_test(M(), sc.powerlog(0.0, -1.0))


    def test_starts_where_the_radius_reaches_phis_domain(self):
        # phi^-1(t) g(t) is 0.86 at t0 = 16, below powerlog's domain floor 2;
        # the integral starts at the first t0 2^k where it gets there
        from heatrates import kernels as kn

        m = kn.from_id("jump:power:3;powerlog:1.5,0.9")
        assert subcritical_lower_rate_test(m, sc.from_id("powerlog:0,-1.67")).label == CONVERGENT

    @pytest.mark.parametrize("t0", [0.0, math.nan, math.inf])
    def test_nonfinite_or_nonpositive_t0_raises(self, t0):
        with pytest.raises(PreconditionError, match="t0"):
            subcritical_lower_rate_test(self._Model(), sc.powerlog(0.0, -1.0), t0)

    def test_radius_never_reaching_phis_domain_raises(self):
        class M:
            V = sc.power(3.0)
            phi = sc.powerlog(1.5, 0.9)

        with pytest.raises(PreconditionError):
            subcritical_lower_rate_test(M(), sc.power(-2.0))


class TestCriticalLowerRate:
    def test_iterated_log_dichotomy(self):
        assert critical_lower_rate_test(sc.iterated_log_g(0.5)).label == CONVERGENT
        assert critical_lower_rate_test(sc.iterated_log_g(0.0)).label == DIVERGENT
        assert critical_lower_rate_test(sc.iterated_log_g(-0.5)).label == DIVERGENT

    def test_power_g(self):
        assert critical_lower_rate_test(sc.power(-1.0)).label == DIVERGENT

    @pytest.mark.parametrize("t0", [0.0, math.nan, math.inf])
    def test_nonfinite_or_nonpositive_t0_raises(self, t0):
        with pytest.raises(PreconditionError, match="t0"):
            critical_lower_rate_test(sc.power(-1.0), t0)


def _float_reference(name):
    """Each named test's integrand as one float call per node, and its t0."""
    from heatrates import kernels as kn

    beta = 1.5
    h, rho = sc.power(-beta), sc.power(1.0 / beta)
    sub = sc.RateCandidate("subcritical", sc.powerlog(1.6, 1.0), sc.powerlog(0.0, -0.5))
    crit = sc.RateCandidate("critical", sc.powerlog(1.6, 1.0), sc.loglog_g(0.5))
    lil = sc.ScalingFunction(
        lambda t: math.sqrt(3.0 * loglog(t)), sc.INCREASING,
        sc.fit_envelope(lambda t: math.sqrt(3.0 * loglog(t)), 16.0), 16.0,
    )
    model = kn.from_id("jump:power:3;powerlog:1.5,1")
    g_sub = sc.powerlog(0.0, -0.8)

    def cut(lo):
        return math.exp(lo) if lo > -745.0 else 0.0

    def kolmogorov(g, dim):
        def f(t):
            x = g(t)
            return cut(-0.5 * x * x + dim * math.log(x) - math.log(t))

        return (lambda: kolmogorov_test(g, dim)), f, 16.0

    def upper(cand, direction):
        if direction == ONE_PROB:
            arg = lambda t: sc.evaluate_rate(cand, t) / (2.0 * rho(4.0 * t))
        else:
            arg = lambda t: 2.0 * sc.evaluate_rate(cand, 4.0 * t) / rho(t)
        f = lambda t: cut(h.log_value(arg(t)) - math.log(t))
        return (lambda: upper_rate_test(h, rho, cand, 1.0, direction)), f, 16.0

    def subcritical(t):
        phi_inv_t = sc.inverse(model.phi, t)
        r = phi_inv_t * g_sub(t)
        return model.V(r) / (model.phi(r) * model.V(phi_inv_t))

    de = sc.powerlog(0.0, -1.5)
    g_crit = sc.iterated_log_g(0.5)
    cases = {
        "kolmogorov-lil": kolmogorov(lil, 1),
        "kolmogorov-power": kolmogorov(sc.power(0.25), 3),
        "dvoretzky-erdos": (
            lambda: dvoretzky_erdos_test(de, 3),
            lambda t: cut(de.log_value(t) - math.log(t)),
            16.0,
        ),
        "upper-subcritical": upper(sub, ONE_PROB),
        "upper-critical-zero": upper(crit, ZERO_PROB),
        "subcritical-lower": (
            lambda: subcritical_lower_rate_test(model, g_sub), subcritical, 16.0,
        ),
        "critical-lower": (
            lambda: critical_lower_rate_test(g_crit),
            lambda t: 1.0 / (t * abs(g_crit.log_value(t))),
            16.0,
        ),
    }
    return cases[name]


class TestNamedTestsOnArrays:
    @pytest.mark.parametrize(
        "name",
        [
            "kolmogorov-lil", "kolmogorov-power", "dvoretzky-erdos", "upper-subcritical",
            "upper-critical-zero", "subcritical-lower", "critical-lower",
        ],
    )
    def test_matches_float_integrand(self, name):
        # one array evaluation of the integrand gives the verdict, and the
        # blocks, of one float call per node
        run, f, t0 = _float_reference(name)
        got, want = run(), classify_tail_integral(f, t0)
        assert (got.label, got.reason, got.depth_used) == (want.label, want.reason, want.depth_used)
        np.testing.assert_allclose(
            [s for _, s in got.block_table], [s for _, s in want.block_table], rtol=1e-13, atol=0.0
        )


def _powerlog_inverting(name, exact):
    """The classify deck's configurations that invert a powerlog phi, with
    phi's exact inverse (exact) or without it (regula falsi)."""
    from heatrates import kernels as kn

    def phi(beta, lq):
        f = sc.powerlog(beta, lq)
        return f if exact else dataclasses.replace(f, exact_inverse=None)

    def model(spec, beta, lq):
        return dataclasses.replace(kn.from_id(f"{spec};powerlog:{beta!r},{lq!r}"), phi=phi(beta, lq))

    def upper(beta, lq, g, recipe, direction):
        h, rho = sc.power(-beta), sc.power(1.0 / beta)
        return upper_rate_test(h, rho, sc.RateCandidate(recipe, phi(beta, lq), g), 1.0, direction)

    def lower(beta, lq, s):
        return subcritical_lower_rate_test(
            model("jump:power:3", beta, lq), sc.powerlog(0.0, -s / (3.0 - beta))
        )

    cases = {
        "upper-subcritical": lambda: upper(1.6, 1.1, sc.powerlog(0.0, -0.6), "subcritical", ONE_PROB),
        "upper-subcritical-zero": lambda: upper(1.5, 0.8, sc.powerlog(0.0, -0.4), "subcritical", ZERO_PROB),
        "upper-subcritical-zero-small-beta": lambda: upper(
            1.2, 0.6, sc.powerlog(0.0, -0.7), "subcritical", ZERO_PROB
        ),
        "upper-critical": lambda: upper(1.7, 0.5, sc.loglog_g(0.4), "critical", ONE_PROB),
        "subcritical-lower": lambda: lower(1.4, 0.7, 1.3),
        "subcritical-lower-steep-g": lambda: lower(1.5, 0.9, 2.5),
        "long-run-3": lambda: kn.classify_long_run(model("jump:power:3", 2.2, 1.3))[1],
        "long-run-2": lambda: kn.classify_long_run(model("jump:power:2", 1.5, 0.6))[1],
        "long-run-1": lambda: kn.classify_long_run(model("jump:power:1", 1.8, 1.4))[1],
    }
    return cases[name]()


@pytest.mark.parametrize(
    "name",
    [
        "upper-subcritical", "upper-subcritical-zero", "upper-subcritical-zero-small-beta",
        "upper-critical", "subcritical-lower", "subcritical-lower-steep-g",
        "long-run-3", "long-run-2", "long-run-1",
    ],
)
def test_exact_powerlog_inverse_keeps_the_verdicts(name):
    # powerlog's closed-form inverse in place of regula falsi changes no label,
    # reason or depth.  Regula falsi leaves a root 1e-12 / e wide relative to
    # it (e = d log phi / d log r >= 1.2 here), and the integrands take powers
    # up to 3 of the roots, so a block may move by up to 3e-12 of itself
    got, want = _powerlog_inverting(name, True), _powerlog_inverting(name, False)
    assert (got.label, got.reason, got.depth_used) == (want.label, want.reason, want.depth_used)
    assert got.partial_sum == pytest.approx(want.partial_sum, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(
        [s for _, s in got.block_table], [s for _, s in want.block_table], rtol=3e-12, atol=0.0
    )
