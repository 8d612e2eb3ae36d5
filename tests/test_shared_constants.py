"""Per-N and per-spin-pair constants are built once, shared, read-only and bounded."""

import inspect

import pytest

from ri_entropy import angular, geometry, oracle, states
from ri_entropy.angular import Spin, coupling_range
from ri_entropy.geometry import classify_region, normalized_chart, region_polygons
from ri_entropy.states import NormalizedCoords, block_weights

BUILDERS = [angular._coupling_range, angular._projector, angular._projector_stacks,
            angular._m_blocks, states._block_weights, states._block_weight_array,
            states._density_scales, states._prefactors, states._spin_of_n,
            geometry._normalized_chart, geometry._lines, oracle._polygon, oracle._reversal_map]


def test_block_weights_are_read_only():
    w = block_weights(Spin(2), Spin(4))
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


@pytest.mark.parametrize("build,args", [
    (coupling_range, (Spin(2), Spin(4))),
    (block_weights, (Spin(1), Spin(7))),
    (normalized_chart, (7,)),
])
def test_repeated_calls_share_one_object(build, args):
    assert build(*args) is build(*args)
    # equal spins built apart hit the same entry
    assert build(*args) is build(*(Spin(a.twice_j) if isinstance(a, Spin) else a
                                   for a in args))


def test_public_functions_stay_plain_for_the_tracer():
    for fn in (coupling_range, block_weights, normalized_chart, region_polygons,
               angular.projector):
        assert inspect.isfunction(fn)


def test_caches_are_bounded():
    for builder in BUILDERS:
        assert isinstance(builder.cache_info().maxsize, int)
    coords = NormalizedCoords(0.1, 0.1)
    for N in range(3, 3003):
        classify_region(N, coords)
        normalized_chart(N)
        block_weights(Spin(2), Spin(N - 1))
        states._prefactors(N)
    for builder in BUILDERS:
        info = builder.cache_info()
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("N", [2, 5.0, "5", -1])
def test_invalid_n_is_refused_on_every_call(N):
    for _ in range(3):
        for build in (normalized_chart, region_polygons):
            with pytest.raises(ValueError, match="need integer N >= 3"):
                build(N)
        with pytest.raises(ValueError, match="need integer N >= 3"):
            classify_region(N, NormalizedCoords(0.1, 0.1))
