"""N is decided once: every 3(x)N entry point takes an int or numpy integer N as an int."""

import dataclasses
import warnings

import numpy as np
import pytest

from ri_entropy.closed_form import e_gamma_3xn_even, ree_3xn_odd
from ri_entropy.geometry import (
    classify_region,
    landmark_points,
    normalized_chart,
    polygon_area_ratio,
    ppt_image_vertices,
    ppt_polygon,
    region_polygons,
    simplex_vertices,
)
from ri_entropy.oracle import minimize_kl_over_polygon, verify_closed_form
from ri_entropy.states import NormalizedCoords, normalized_to_raw

NS = [3, 4, 5, 2**21 + 1, 10**8 + 1, 10**10 + 1, 10**12 + 1]


def _points(N):
    """Vertex B and the vertex mean of each region polygon."""
    return [NormalizedCoords(1.0, 0.0)] + [
        NormalizedCoords(sum(v.x for v in poly) / len(poly), sum(v.y for v in poly) / len(poly))
        for _, poly in region_polygons(N)]


def _results(n):
    """The result of every public function that takes N, at each N it accepts."""
    N = int(n)
    out = [simplex_vertices(n), ppt_image_vertices(n), ppt_polygon(n),
           normalized_chart(n), region_polygons(n), polygon_area_ratio(n)]
    if N >= 5:
        out.append(landmark_points(n))
    for coords in _points(N):
        out += [classify_region(n, coords), normalized_to_raw(n, coords),
                minimize_kl_over_polygon(n, coords)]
        if N % 2 == 0:
            out.append(e_gamma_3xn_even(n, coords))
        elif N >= 5:
            out += [ree_3xn_odd(n, coords), e_gamma_3xn_even(n - 1, coords)]
    return out


def _numpy_scalars(obj):
    """Every numpy scalar inside a result (arrays are numpy by design and skipped)."""
    if isinstance(obj, np.generic):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [s for item in obj for s in _numpy_scalars(item)]
    if dataclasses.is_dataclass(obj):
        return [s for f in dataclasses.fields(obj) for s in _numpy_scalars(getattr(obj, f.name))]
    return []


@pytest.mark.parametrize("N", NS)
def test_numpy_integer_n_matches_int_n(N):
    # int64 arithmetic used to overflow: G.x = 1.77e-06 at 10^8+1 instead of 0.866
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_int, by_numpy = _results(N), _results(np.int64(N))
    assert repr(by_numpy) == repr(by_int)
    assert _numpy_scalars(by_numpy) == []


def test_numpy_integer_n_shares_the_int_entry():
    assert normalized_chart(np.int64(9)) is normalized_chart(9)


COORDS = NormalizedCoords(0.25, 0.5)
ENTRY_POINTS = [
    simplex_vertices, ppt_image_vertices, ppt_polygon, normalized_chart, region_polygons,
    polygon_area_ratio,
    lambda N: classify_region(N, COORDS),
    lambda N: normalized_to_raw(N, COORDS),
    lambda N: minimize_kl_over_polygon(N, COORDS),
    lambda N: ree_3xn_odd(N, COORDS),
    lambda N: e_gamma_3xn_even(N, COORDS),
    lambda N: verify_closed_form("3xN-odd", N, samples=1, seed=0, tol=1e-6),
    lambda N: verify_closed_form("3xN-even", N, samples=1, seed=0, tol=1e-6),
]


@pytest.mark.parametrize("N", [2, np.int64(2), -1, 7.5, 7.0, np.float64(7.0), "7", None, True],
                         ids=repr)
def test_one_refusal_for_every_entry_point(N):
    # verify_closed_form used to truncate a float N: 7.5 ran at N = 7
    for call in ENTRY_POINTS:
        with pytest.raises(ValueError) as info:
            call(N)
        assert str(info.value) == f"need integer N >= 3, got {N!r}"


def test_landmarks_need_n_of_five():
    with pytest.raises(ValueError) as info:
        landmark_points(np.int64(4))
    assert str(info.value) == f"need integer N >= 5, got {np.int64(4)!r}"
