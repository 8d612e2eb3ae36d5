"""Per-N and per-spin-pair constants are built once, shared, read-only and bounded."""

import inspect
import statistics

import pytest

from ri_entropy import angular, geometry, oracle, states
from ri_entropy.angular import Spin, coupling_range
from ri_entropy.closed_form import _value_3xn, e_gamma_3xn_even, ree_3x3, ree_3xn_odd, ree_dispatch
from ri_entropy.geometry import classify_region, normalized_chart, region_polygons
from ri_entropy.states import NormalizedCoords, block_weights, normalized_to_raw, raw_to_normalized

BUILDERS = [angular._coupling_range, angular._projector, angular._projector_stacks,
            angular._m_blocks, states._block_weights, states._block_weight_array,
            states._density_scales, states._prefactors, states._spin_of_n,
            geometry._normalized_chart, geometry._per_n, oracle._polygon, oracle._reversal_map]


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


def test_per_n_record_is_built_once_and_cannot_be_mutated():
    N = 2**40 + 3  # an N no other test uses
    before = geometry._per_n.cache_info()
    coords = NormalizedCoords(0.05, 0.9)
    for _ in range(3):
        classify_region(N, coords)
        ree_3xn_odd(N, coords)
    after = geometry._per_n.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 5)
    k = geometry._per_n(N)
    assert k is geometry._per_n(N) and k == geometry._per_n.__wrapped__(N)
    hash(k)  # every field is immutable all the way down
    with pytest.raises(AttributeError):
        k.floor = 0.0
    with pytest.raises(TypeError):
        k[0] = N + 2


def _lookups(fn, *args):
    """(hits, misses) added by one call to the per-N record, the chart, the
    prefactors and the spin, in that order."""
    builders = (geometry._per_n, geometry._normalized_chart, states._prefactors, states._spin_of_n)
    before = [b.cache_info() for b in builders]
    fn(*args)
    return [(a.hits - b.hits, a.misses - b.misses)
            for a, b in zip((b.cache_info() for b in builders), before)]


@pytest.mark.parametrize("N", [3, 4, 7, 10**8 + 1])
def test_a_warm_closed_form_call_looks_up_the_record_once(N):
    fn = (lambda N, c: ree_3x3(c)) if N == 3 else ree_3xn_odd if N % 2 else e_gamma_3xn_even
    once, none = (1, 0), (0, 0)
    for _, poly in region_polygons(N):
        coords = NormalizedCoords(*map(statistics.fmean, zip(*poly)))
        state = normalized_to_raw(N, coords)
        alphas = state.coeffs.alphas
        for call, args in ((fn, (N, coords)), (_value_3xn, (N, coords.ahat_lo, coords.ahat_mid)),
                           (classify_region, (N, coords))):
            call(*args)  # warm
            assert _lookups(call, *args) == [once, none, none, none], call
        # the closed form reads the prefactors off the record; converting the
        # input vector to coordinates takes them from states once
        assert _lookups(raw_to_normalized, state) == [none, none, once, none]
        ree_dispatch(Spin(2), Spin(N - 1), alphas)
        assert _lookups(ree_dispatch, Spin(2), Spin(N - 1), alphas) == [once, none, once, none]
