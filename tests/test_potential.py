import math

import pytest

from heatrates import kernels as kn
from heatrates import potential as pt
from heatrates.errors import DomainError


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


@pytest.mark.parametrize(
    "spec", ["stable:1,3", "stable:1.5,3", "stable:0.5,1", "stable:0.5,3", "stable:1.9,3"]
)
def test_green_quadrature_against_riesz_potential(spec):
    # G(d) = Gamma((n - alpha)/2) / (2^alpha pi^(n/2) Gamma(alpha/2)) d^(alpha - n)
    m = kn.from_id(spec)
    a, n = m.alpha, m.dim
    for d in (0.5, 2.0, 8.0):
        riesz = math.gamma((n - a) / 2) / (2**a * math.pi ** (n / 2) * math.gamma(a / 2)) * d ** (a - n)
        assert pt.green_function(m, d, pt.QUADRATURE) == pytest.approx(riesz, rel=1e-8), d
