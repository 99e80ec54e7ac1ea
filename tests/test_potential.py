import pytest

from heatrates import kernels as kn
from heatrates import potential as pt


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
