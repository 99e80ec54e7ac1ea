import dataclasses
import json
import math

import numpy as np
import pytest

from heatrates import integral_tests as it
from heatrates import scaling as sc
from heatrates.errors import EvaluationError, PreconditionError
from heatrates.integral_tests import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    K_MAX,
    LOG2,
    ONE_PROB,
    ZERO_PROB,
    classify_tail_integral,
    critical_lower_rate_test,
    dvoretzky_erdos_test,
    kolmogorov_test,
    subcritical_lower_rate_test,
    upper_rate_test,
    _classify_blocks,
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
        assert len(v.block_sums) == 240
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
        blocks = np.array(classify_tail_integral(f, t0).block_sums)
        np.testing.assert_allclose(blocks, exact, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("t0", [1e-3, 16.0, 32.0, 16.0 * 2.0**40])
    def test_prebuilt_rule_matches_the_rule_built_for_t0(self, t0):
        # log t0 + (k log 2 + x) and (log t0 + k log 2) + x both round at the
        # larger of |u| and |log t0|: ulps are counted at that scale
        u, t_ref, weight_ref = _rule_built_for(t0)
        t, weight, _ = it._block_nodes(t0)
        ulp = np.spacing(np.maximum(np.abs(u), abs(math.log(t0))))
        assert np.all(np.abs(np.log(t) - u) <= 2.0 * ulp)
        np.testing.assert_allclose(t, t_ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(weight, weight_ref, rtol=1e-13, atol=0.0)

    def test_frame_is_its_formula_bit_for_bit(self):
        # the rule on [k log 2, (k + 1) log 2], its nodes shifted by log 16,
        # built at import by the code that builds every other t0's rule
        t, weight, log_t = it._block_nodes(16.0)
        assert it._block_nodes(16.0) is it._NODES
        u, w = it._gauss_legendre(LOG2 * np.arange(K_MAX + 1), 16)
        want = np.exp(u + math.log(16.0))
        built = it._block_rule(16.0)
        for got, formula, by_rule in zip((t, weight, log_t), (want, w * want, np.log(want)), built):
            assert got.tobytes() == formula.tobytes() == by_rule.tobytes()
        assert it._NODE_FLOATS == tuple(want.tolist())
        assert it._block_nodes(32.0)[0] is not t  # another t0 builds its own rule

    def test_prebuilt_rule_is_read_only(self):
        # and the rest of the frame built at import: the block index and fits
        fits = [a for fit in it._FITS for a in fit]
        for a in (*it._NODES, *it._BLOCK_INDEX, *fits):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_frame_index_is_the_computed_one(self, monkeypatch):
        want = it._block_index((np.ones(K_MAX) > 0).nonzero()[0], 16.0)
        assert len(it._BLOCK_INDEX) == len(want) == 6
        for got, computed in zip(it._BLOCK_INDEX, want):
            assert got.dtype == computed.dtype and got.tobytes() == computed.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1
        usable, _, tail, lo, hi, inv_steps = it._BLOCK_INDEX
        assert (usable[0], usable.size, tail[0], lo[0], hi[-1]) == (8, 232, 119, 162, 239)
        assert (inv_steps == 1.0).all()
        monkeypatch.setattr(it, "_block_index", None)  # t0 = 16, every block positive: not called
        assert classify_tail_integral(lambda t: t**-1.5).label == CONVERGENT

    @pytest.mark.parametrize("t0", [16.0, 32.0])
    def test_log_integrand_receives_the_log_of_its_nodes(self, t0):
        seen = []

        def log_f(t, log_t):
            seen.append((t.copy(), log_t.copy()))
            return -2.0 * log_t

        assert it._classify_log(log_f, t0).label == CONVERGENT
        [(t, log_t)] = seen
        assert t[0] > t0 and log_t.tobytes() == np.log(t).tobytes()


def _rule_built_for(t0):
    """u, t and the weights in dt of the block rule built afresh for t0, from
    the block ends log t0 + k log 2."""
    u, w = it._gauss_legendre(math.log(t0) + LOG2 * np.arange(K_MAX + 1), 16)
    t = np.exp(u)
    return u, t, w * t


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


class TestDvoretzkyErdos:
    def test_log_threshold(self):
        assert dvoretzky_erdos_test(sc.powerlog(0.0, -2.0), 3).label == CONVERGENT
        assert dvoretzky_erdos_test(sc.powerlog(0.0, -1.0), 3).label == DIVERGENT

    def test_power_decay(self):
        assert dvoretzky_erdos_test(sc.power(-0.1), 4).label == CONVERGENT

    def test_dimension_requirement(self):
        with pytest.raises(PreconditionError):
            dvoretzky_erdos_test(sc.power(-0.1), 2)

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

    def test_g_never_below_one_raises(self):
        with pytest.raises(PreconditionError, match="^g does not drop below 1 on any reachable scale$"):
            critical_lower_rate_test(sc.constant(1.0))

    def test_starts_where_g_drops_below_one(self, monkeypatch):
        # g = 20/r is 1.25 at 16 and 0.625 at 32: the integral of dt / (t
        # log(t/20)) starts at 32, on a rule built for it, and its partial
        # sum is log log(t/20) between the ends (its label is not asserted:
        # the fits read c/r for larger c as convergent, see ROADMAP item 2)
        built, rule = [], it._block_rule
        monkeypatch.setattr(it, "_block_rule", lambda t0: built.append(t0) or rule(t0))
        g = sc.ScalingFunction(lambda r: 20.0 / r, sc.DECREASING, sc.Envelope(1.0, -1.0, 1.0, -1.0))
        v = critical_lower_rate_test(g)
        assert built == [32.0]
        want = math.log(math.log(32.0 * 2.0**K_MAX / 20.0)) - math.log(math.log(32.0 / 20.0))
        assert v.partial_sum == pytest.approx(want, rel=0.0, abs=1e-12)


def _float_reference(name):
    """Each named test's run, and its integrand as one float call per node."""
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

        return (lambda: kolmogorov_test(g, dim)), f

    def upper(cand, direction):
        if direction == ONE_PROB:
            arg = lambda t: np.exp(sc.log_rate(cand, t)) / (2.0 * rho(4.0 * t))
        else:
            arg = lambda t: 2.0 * np.exp(sc.log_rate(cand, 4.0 * t)) / rho(t)
        f = lambda t: cut(h.log_value(arg(t)) - math.log(t))
        return (lambda: upper_rate_test(h, rho, cand, 1.0, direction)), f

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
        ),
        "upper-subcritical": upper(sub, ONE_PROB),
        "upper-critical-zero": upper(crit, ZERO_PROB),
        "subcritical-lower": (
            lambda: subcritical_lower_rate_test(model, g_sub), subcritical,
        ),
        "critical-lower": (
            lambda: critical_lower_rate_test(g_crit),
            lambda t: 1.0 / (t * abs(g_crit.log_value(t))),
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
        run, f = _float_reference(name)
        got, want = run(), classify_tail_integral(f)
        assert (got.label, got.reason, got.depth_used) == (want.label, want.reason, want.depth_used)
        np.testing.assert_allclose(got.block_sums, want.block_sums, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "name",
    [
        "kolmogorov-lil", "kolmogorov-power", "dvoretzky-erdos", "upper-subcritical",
        "upper-critical-zero", "subcritical-lower", "critical-lower", "stable:1.5,3", "stable:1,1",
    ],
)
def test_prebuilt_rule_keeps_the_verdicts(name, monkeypatch):
    # each named test, and classify_long_run, on the rule built at import and
    # on one built afresh for its t0: the same label, reason and depth
    from heatrates import kernels as kn

    if name.startswith("stable"):
        run = lambda: kn.classify_long_run(kn.from_id(name))[1]
    else:
        run = _float_reference(name)[0]
    got = run()

    def fresh(t0):  # the rule built afresh, and the log of its nodes
        _, t, weight = _rule_built_for(t0)
        return t, weight, np.log(t)

    monkeypatch.setattr(it, "_block_nodes", fresh)
    want = run()
    assert (got.label, got.reason, got.depth_used) == (want.label, want.reason, want.depth_used)
    assert got.partial_sum == pytest.approx(want.partial_sum, rel=1e-13, abs=0.0)
    if want.tail_exponent_estimate is not None:
        assert got.tail_exponent_estimate == pytest.approx(want.tail_exponent_estimate, rel=0.0, abs=1e-11)
    np.testing.assert_allclose(got.block_sums, want.block_sums, rtol=1e-13, atol=0.0)


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
    np.testing.assert_allclose(got.block_sums, want.block_sums, rtol=3e-12, atol=0.0)


#: u = log t at the middle of each block from t0 = 16
_BLOCK_U = math.log(16.0) + (np.arange(K_MAX) + 0.5) * LOG2


class TestClassifierAbstains:
    """Each INCONCLUSIVE return of the block classifier, on synthetic block
    sums s_k (the labels and reasons as they stand)."""

    @pytest.mark.parametrize("s, reason, depth", [
        # ten nonzero blocks, fewer than the fits need
        (np.where(np.arange(K_MAX) >= K_MAX - 10, 1.0, 0.0), "insufficient usable blocks", 0),
        # geometric ratio 1.003: past the 0.002 descend band, inside the 0.005 decision band
        (1.003 ** np.arange(K_MAX), "geometric rate 1.003 inside margin but not at boundary", 0),
        # u^-0.957: condensed ratio 2^0.043, past the 0.02 descend band, inside the 0.05 margin
        (_BLOCK_U**-0.957, "condensed ratio 1.0303 inside margin but not at boundary", 1),
        # 1 / (u log u log log u): critical at every depth
        (1.0 / (_BLOCK_U * np.log(_BLOCK_U) * np.log(np.log(_BLOCK_U))),
         "condensed ratio 1 within margin at depth 3", 3),
    ], ids=["few-blocks", "geometric", "condensed", "deepest"])
    def test_reason(self, s, reason, depth):
        v = _classify_blocks(s, 16.0)
        assert (v.label, v.reason, v.depth_used) == (INCONCLUSIVE, reason, depth)
        assert v.partial_sum == float(np.sum(s))

    @pytest.mark.parametrize("error", [EvaluationError, PreconditionError])
    def test_an_error_of_f_is_raised_again_with_its_block(self, error):
        def f(t):
            if t > 16.0 * 2.0**5:  # the first such node is in block 5
                raise error("no value here")
            return 1.0 / t**2

        with pytest.raises(error, match="^block 5: no value here$"):
            classify_tail_integral(f, 16.0)


@pytest.mark.parametrize("s", [None, np.where(np.arange(K_MAX) >= K_MAX - 10, 1.0, 0.0)],
                         ids=["convergent", "inconclusive"])
def test_verdict_as_dict_survives_json(s):
    v = classify_tail_integral(lambda t: t**-2.0, 16.0) if s is None else _classify_blocks(s, 16.0)
    d = v.as_dict()
    assert json.loads(json.dumps(d, allow_nan=False)) == d
    assert d["class"] == v.label and len(d["block_sums"]) == K_MAX


#: log f of the b-sweep families, one per condensation depth, as array expressions in t
_SWEEP_FAMILIES = {
    "log": lambda t, b: -np.log(t) - b * np.log(np.log(t)),
    "loglog": lambda t, b: -np.log(t) - np.log(np.log(t)) - b * np.log(np.log(np.log(t))),
    "logloglog": lambda t, b: (
        -np.log(t) - np.log(np.log(t)) - np.log(np.log(np.log(t))) - b * np.log(np.log(np.log(np.log(t))))
    ),
}


#: the reference fit, kept before a test makes np.linalg.lstsq raise
_LSTSQ = np.linalg.lstsq


def _reference_fits(s, t0):
    """(rows, c) that give coefficients 1 and 2 of the fits at depths 1, 2, 3
    on the block sums s from t0 as c alone: c by lstsq on the columns written
    out (log s, less the critical factor below each depth, against 1, the
    logs of t down to the fourth and the 1/u absorbers, on the positive
    blocks with u = log t >= 8), rows zero."""
    nz = (s > 0).nonzero()[0]
    u = math.log(t0) + (nz + 0.5) * LOG2
    uk, y = u[u >= 8.0], np.log(s[nz[u >= 8.0]])
    lu = np.log(uk)
    llu, one = np.log(lu), np.ones_like(uk)
    lllu = np.log(llu)
    return [
        (np.zeros((2, uk.size)), _LSTSQ(np.array(cols).T, target, rcond=None)[0][1:3])
        for target, cols in (
            (y, [one, uk, lu, llu, lllu, 1.0 / uk, 1.0 / uk**2]),
            (y + lu, [one, lu, llu, lllu, 1.0 / uk, 1.0 / (uk * lu)]),
            (y + lu + llu, [one, llu, lllu, 1.0 / lu, 1.0 / uk]),
        )
    ]


def _reference_verdict(s, t0, monkeypatch):
    """_classify_blocks(s, t0) with every depth's coefficients from lstsq."""
    fits = _reference_fits(s, t0)
    with monkeypatch.context() as m:
        m.setattr(it, "_FITS", fits)
        m.setattr(it, "_fits", lambda uk: iter(fits))
        return _classify_blocks(s, t0)


def _pinv_calls(monkeypatch):
    """A list that np.linalg.pinv appends its matrix's shape to on each call;
    np.linalg.lstsq raises."""
    calls, pinv = [], np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: calls.append(a.shape) or pinv(a, **kw))

    def lstsq(*args, **kw):
        raise AssertionError("the classifier calls lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    return calls


def _fits_reached(v):
    """How many depths' fits the verdict v read: none when the raw block
    ratio, or a check before it, decided."""
    return max(v.depth_used, 1) if v.depth_used or "geometric" in v.reason else 0


class TestPrebuiltFit:
    """The condensation fits, prebuilt at t0 = 16 with every block positive
    and built per depth reached otherwise, against lstsq on the same
    columns."""

    @pytest.mark.parametrize("family", sorted(_SWEEP_FAMILIES))
    def test_agrees_with_lstsq_on_b_sweeps(self, family, monkeypatch):
        calls = _pinv_calls(monkeypatch)
        for t0, zero in ((16.0, None), (32.0, None), (16.0, 20)):  # prebuilt, another t0, a zero block
            t, weight, _ = it._block_nodes(t0)
            calls.clear()
            cases = []
            for b in np.arange(0.5, 3.0 + 1e-9, 0.005):
                s = it._block_sums(t, weight, np.exp(_SWEEP_FAMILIES[family](t, b)))
                if zero is not None:
                    s[zero] = 0.0
                cases.append((b, s, _classify_blocks(s, t0)))
            # the prebuilt fits build nothing; any other frame builds one fit
            # per depth its verdict reaches, on its usable blocks
            prebuilt = t0 == 16.0 and zero is None
            assert len(calls) == (0 if prebuilt else sum(_fits_reached(v) for *_, v in cases))
            assert {c[0] for c in calls} <= {232 - (zero is not None) + (t0 == 32.0)}
            for b, s, got in cases:
                want = _reference_verdict(s, t0, monkeypatch)
                assert (got.label, got.depth_used, got.reason) == (want.label, want.depth_used, want.reason), b
                assert (got.partial_sum, got.block_sums) == (want.partial_sum, want.block_sums)
                assert abs(got.tail_exponent_estimate - want.tail_exponent_estimate) <= 1e-10, b

    def test_projection_is_read_only(self):
        # each depth's rows and offset, built at import by the code that
        # builds every other frame's fits
        assert len(it._FITS) == 3
        for (rows, c), (want_rows, want_c) in zip(it._FITS, it._fits(it._BLOCK_INDEX[1])):
            assert rows.shape == (2, 232) and c.shape == (2,)
            assert rows.tobytes() == want_rows.tobytes() and c.tobytes() == want_c.tobytes()
            for a in (rows, c):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert (it._FITS[0][1] == 0.0).all()  # depth 1 divides nothing out of log s

    def test_fits_at_another_t0(self, monkeypatch):
        # the classify deck's lll1-borderline slot, from t0 = 32: two depths,
        # two fits
        calls = _pinv_calls(monkeypatch)
        f = {c[0]: c[1] for c in LABELED_SUITE}["lll1_borderline"]
        v = classify_tail_integral(f, 32.0)
        assert (v.label, v.depth_used) == (DIVERGENT, 2)
        assert calls == [(233, 7), (233, 6)]
        want = _reference_verdict(np.array(v.block_sums), 32.0, monkeypatch)
        assert (v.label, v.depth_used, v.reason) == (want.label, want.depth_used, want.reason)
        assert abs(v.tail_exponent_estimate - want.tail_exponent_estimate) <= 1e-10

    def test_fits_with_a_zero_block(self, monkeypatch):
        # 1 / (t (log t)^2) with block 20 zeroed: the fit has 231 blocks
        calls = _pinv_calls(monkeypatch)
        s = _BLOCK_U**-2.0
        s[20] = 0.0
        v = _classify_blocks(s, 16.0)
        assert (v.label, v.depth_used) == (CONVERGENT, 1)
        assert v.tail_exponent_estimate == pytest.approx(2.0, abs=0.01)
        assert calls == [(231, 7)]
        want = _reference_verdict(s, 16.0, monkeypatch)
        assert (v.label, v.depth_used, v.reason) == (want.label, want.depth_used, want.reason)
        assert abs(v.tail_exponent_estimate - want.tail_exponent_estimate) <= 1e-10
