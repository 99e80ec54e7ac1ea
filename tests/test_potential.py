import math
import re

import pytest

from heatrates import kernels as kn
from heatrates import potential as pt
from heatrates.errors import DomainError, PreconditionError


@pytest.mark.parametrize(
    "spec", ["gaussian:3", "stable:1,3", "stable:1.5,3", "stable:0.5,1", "stable:1.9,3"]
)
def test_hit_ball_pair_in_order(spec):
    # the pair is passed to BoundPair unclamped, so it must come out ordered
    m = kn.from_id(spec)
    for r in (0.1, 1.0, 10.0):
        for ratio in (1.0, 1.5, 4.0, 100.0):
            pair = pt.hit_ball_from_distance(m, r, ratio * r)
            assert 0.0 <= pair.lower <= pair.upper


@pytest.mark.parametrize(
    "spec, r, D", [("stable:1.5,3", 1e-120, 3e-120), ("stable:1.5,3", 1e-7, 3e-7), ("stable:0.5,1", 1e-120, 1e-120)]
)
def test_hit_ball_radius_below_phis_floor_raises(spec, r, D):
    # raising D - r to the floor would put the upper member below the lower
    with pytest.raises(PreconditionError, match=re.escape(f"r >= phi's domain floor 1e-06, got r = {r:g}")):
        pt.hit_ball_from_distance(kn.from_id(spec), r, D)


def test_classification_is_per_model_not_per_id():
    # same id, different long-run behaviour: each model keeps its own verdict
    def model(dv):
        return kn.KernelModel(
            model_id="m", form=kn.STABLE_LIKE, V=kn.power(dv), phi=kn.power(1.5)
        )

    recurrent, transient = model(1.0), model(3.0)
    with pytest.raises(DomainError):
        pt.capacity_bound(recurrent, 1.0)
    assert pt.capacity_bound(transient, 1.0).lower == 1.0
    assert (recurrent.long_run, transient.long_run) == (kn.RECURRENT, kn.TRANSIENT)


#: the transient presets whose Green function the bounds benchmark checks
GREEN_PRESETS = [
    "gaussian:3", "stable:1,3", "stable:1.5,3", "stable:1.5,2", "stable:1,2",
    "stable:0.5,1", "stable:0.8,1", "stable:0.5,2", "stable:0.5,3", "stable:1.9,2", "stable:1.9,3",
]


def _riesz(m, d):
    # G(d) = Gamma((n - alpha)/2) / (2^alpha pi^(n/2) Gamma(alpha/2)) d^(alpha - n);
    # at alpha = 2, n = 3 the Newton kernel 1 / (4 pi d)
    a, n = m.alpha, m.dim
    return math.gamma((n - a) / 2) / (2**a * math.pi ** (n / 2) * math.gamma(a / 2)) * d ** (a - n)


@pytest.mark.parametrize("spec", GREEN_PRESETS)
def test_green_quadrature_against_riesz_potential(spec):
    m = kn.from_id(spec)
    for d in (0.5, 2.0, 8.0):
        assert pt.green_function(m, d, pt.QUADRATURE) == pytest.approx(_riesz(m, d), rel=1e-12), d


@pytest.mark.parametrize("spec", [p for p in GREEN_PRESETS if p.startswith("stable")] + ["stablelike:3,1.5"])
def test_green_envelope_stable_like_closed_form(spec):
    # int min(t^(-a/b), t d^(-a-b)) dt = d^(b-a) (1/2 + b/(a-b))
    m = kn.from_id(spec)
    a, b = m.d1, m.d3
    for d in (0.5, 2.0, 8.0):
        exact = d ** (b - a) * (0.5 + b / (a - b))
        pair = pt.green_function(m, d)
        assert pair.lower == pytest.approx(m.c_lo * exact, rel=1e-13), d
        assert pair.upper == pytest.approx(m.c_hi * exact, rel=1e-13), d


def test_green_envelope_gaussian_is_the_newton_kernel():
    # c_lo int t^(-3/2) exp(-d^2/4t) dt = 1 / (4 pi d) with c_lo = c_hi = (4 pi)^(-3/2)
    m = kn.from_id("gaussian:3")
    for d in (0.5, 2.0, 8.0):
        pair = pt.green_function(m, d)
        assert pair.lower == pytest.approx(1.0 / (4.0 * math.pi * d), rel=1e-12), d
        assert pair.lower == pair.upper


@pytest.mark.parametrize(
    "call",
    [
        lambda m: pt.green_function(m, math.nan),
        lambda m: pt.green_function(m, math.nan, pt.QUADRATURE),
        lambda m: pt.capacity_bound(m, math.nan),
        lambda m: pt.hit_ball_from_distance(m, math.nan, 5.0),
        lambda m: pt.hit_ball_from_distance(m, 1.0, math.nan),
        lambda m: pt.q_bound(m, math.nan, 5.0, "upper"),
        lambda m: pt.q_bound(m, 1.0, math.nan, "upper"),
        lambda m: pt.occupation_sandwich(kn.from_id("cauchy1d"), math.nan, 1.0, 100.0),
    ],
    ids=["green-envelope", "green-quadrature", "capacity", "hit-r", "hit-D", "q-r", "q-t", "occupation"],
)
def test_nan_arguments_raise_precondition_error(call):
    # checked up front, not after computing a non-finite bound
    with pytest.raises(PreconditionError):
        call(kn.from_id("stable:1.5,3"))


@pytest.mark.parametrize("mode", [pt.ENVELOPE, pt.QUADRATURE])
@pytest.mark.parametrize("d", [1e300, math.inf])
def test_green_past_the_float_range_names_d(d, mode):
    # G(1e300) = 1.5 d^-1.5 c underflows; d = inf is refused before the rule is built
    with pytest.raises(PreconditionError, match=re.escape(f"d={d:g}")):
        pt.green_function(kn.from_id("stable:1.5,3"), d, mode)


#: G(d) past the float range, in logs too
_PAST = "is not a positive float"
#: the density leaves the float range at the rule's smallest t, or t itself does
_DENSITY = "the integrand passes the float range"


@pytest.mark.parametrize(
    "spec, d, mode, want",
    [
        ("stable:1.5,3", 1e-300, pt.ENVELOPE, _PAST),
        ("stable:1.5,3", 1e-300, pt.QUADRATURE, _DENSITY),
        ("stable:1.5,3", 1e-210, pt.ENVELOPE, _PAST),
        ("stable:1.5,3", 1e-210, pt.QUADRATURE, _DENSITY),
        ("stable:1.5,3", 1e-200, pt.QUADRATURE, _DENSITY),
        ("gaussian:3", 1e-100, pt.QUADRATURE, _DENSITY),
        # the envelope's logs stay in range where the density does not: the
        # stable-like closed form c d^(b-a) (1/2 + b/(a-b)) and the Newton
        # kernel 1/(4 pi d)
        ("stable:1.5,3", 1e-200, pt.ENVELOPE, 0.01 * 1.5e300),
        ("gaussian:3", 1e-100, pt.ENVELOPE, 1.0 / (4.0 * math.pi * 1e-100)),
        # d^-(a+b) = 1e375 does not overflow into the on-diagonal branch
        ("stable:0.5,1", 1e-250, pt.ENVELOPE, 0.01 * 1.5e125),
    ],
)
def test_green_at_a_tiny_distance_names_d(spec, d, mode, want):
    # raised, or returned, without a warning on the way (pytest turns a
    # RuntimeWarning into an error)
    if isinstance(want, str):
        with pytest.raises(PreconditionError, match=re.escape(f"green function at d={d:g}: ") + ".*" + want):
            pt.green_function(kn.from_id(spec), d, mode)
    else:
        assert pt.green_function(kn.from_id(spec), d, mode).lower == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mode", [pt.ENVELOPE, pt.QUADRATURE])
@pytest.mark.parametrize("spec, d", [("stable:1.5,3", 1e-60), ("gaussian:3", 1e-60)])
def test_green_at_a_small_distance_keeps_its_scaling(spec, d, mode):
    # G(d) ~ phi(d) / V(d) = d^(alpha - dim), so G(d) / G(1000 d) = 1000^(dim - alpha)
    m = kn.from_id(spec)
    g = [pt.green_function(m, x, mode) for x in (d, 1e3 * d)]
    if mode == pt.ENVELOPE:
        g = [pair.lower for pair in g]
    assert g[0] / g[1] == pytest.approx(1e3 ** (m.d1 - m.d3), rel=1e-9)
