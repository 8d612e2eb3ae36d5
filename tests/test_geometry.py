"""Tests for the convex geometry of the 3(x)N state simplex."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ri_entropy.angular import Spin, partial_time_reversal
from ri_entropy.geometry import (
    Point2,
    Region,
    classify_region,
    landmark_points,
    normalized_chart,
    polygon_area_ratio,
    ppt_image_vertices,
    ppt_polygon,
    region_polygons,
    simplex_vertices,
)
from ri_entropy.oracle import ppt_min_eigenvalue
from ri_entropy.states import (
    NormalizedCoords,
    alpha_coords,
    make_ri_state,
    normalized_to_raw,
    to_density,
)


class TestVertices:
    def test_n3_vertex_b(self):
        _, B, _ = simplex_vertices(3)
        assert np.allclose(B, [3.0, 0.0, 0.0], atol=1e-15)

    def test_n5_vertex_a(self):
        A, _, _ = simplex_vertices(5)
        assert A[2] == pytest.approx(math.sqrt(15 / 7), abs=1e-15)

    def test_vertices_are_normalized_states(self):
        for N in (3, 4, 5, 8, 11):
            for v in simplex_vertices(N):
                make_ri_state(Spin(2), Spin(N - 1), v)  # must not raise

    def test_n3_image_a_prime(self):
        Ap, _, _ = ppt_image_vertices(3)
        expected = [1.0, math.sqrt(3) / 2, 0.5 * math.sqrt(3 / 15)]
        assert np.allclose(Ap, expected, atol=1e-14)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            simplex_vertices(2)
        with pytest.raises(ValueError):
            landmark_points(4)

    @pytest.mark.parametrize("N", range(3, 17))
    def test_images_match_dense_partial_time_reversal(self, N):
        """The printed A', B', C' equal the dense theta_2 images of A, B, C."""
        j1, j2 = Spin(2), Spin(N - 1)
        for vertex, image in zip(simplex_vertices(N), ppt_image_vertices(N)):
            rho = to_density(make_ri_state(j1, j2, vertex))
            got = alpha_coords(partial_time_reversal(rho), j1, j2)
            assert np.abs(got - image).max() < 1e-10

    def test_images_approach_b_and_c_in_the_large_n_limit(self):
        N = 201
        ch = normalized_chart(N)
        assert abs(ch.a_prime.x - 1.0) < 0.02 and abs(ch.a_prime.y) < 0.02
        assert abs(ch.e.y - 1.0) < 0.02


class TestPolygonAndLandmarks:
    def test_n3_vertex_e(self):
        *_, E = ppt_polygon(3)
        assert E == pytest.approx((0.0, math.sqrt(3) / 2), abs=1e-15)

    def test_n5_vertex_d(self):
        _, D, _, _ = ppt_polygon(5)
        assert D.x == pytest.approx(2 / math.sqrt(5), abs=1e-15)

    def test_landmarks_n5(self):
        F, G, H = landmark_points(5)
        assert F.x == pytest.approx(math.sqrt(5) / 2, abs=1e-12)
        assert F.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert G == pytest.approx((16 * math.sqrt(5) / 25, 0.0), abs=1e-12)
        assert H == pytest.approx((24 * math.sqrt(5) / 25, 0.0), abs=1e-12)

    def test_n3_chart_landmarks_are_vertices(self):
        # the general expressions degenerate exactly: F = C and G = H = B
        ch = normalized_chart(3)
        assert (ch.f, ch.g, ch.h) == (ch.c, ch.b, ch.b) == ((0.0, 1.0), (1.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("N", [5, 7, 9, 12, 15])
    def test_f_on_segment_bc(self, N):
        _, B, C = simplex_vertices(N)
        F, _, _ = landmark_points(N)
        # cross product of (C - B) with (F - B) vanishes, F between B and C
        cross = (C[0] - B[0]) * (F.y - 0.0) - (C[1] - 0.0) * (F.x - B[0])
        assert abs(cross) < 1e-10
        assert 0.0 <= F.y <= C[1]

    @pytest.mark.parametrize("N", [5, 7, 9, 12, 15])
    def test_g_h_on_segment_bd_ordering(self, N):
        _, B, _ = simplex_vertices(N)
        _, D, _, _ = ppt_polygon(N)
        F, G, H = landmark_points(N)
        assert G.y == 0.0 and H.y == 0.0
        assert D.x < G.x < H.x < B[0]

    @pytest.mark.parametrize("N", range(3, 42))
    def test_polygon_convex_inside_triangle(self, N):
        poly = ppt_polygon(N)
        n = len(poly)
        for i in range(n):
            o, p, q = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
            assert (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x) > 0
        _, B, C = simplex_vertices(N)
        for pt in poly:
            assert pt.x >= -1e-15 and pt.y >= -1e-15
            assert pt.x / B[0] + pt.y / C[1] <= 1.0 + 1e-12


class TestClassification:
    def test_near_a_is_separable(self):
        assert classify_region(5, NormalizedCoords(0.05, 0.05)) is Region.SEPARABLE

    def test_vertex_b(self):
        assert classify_region(3, NormalizedCoords(1.0, 0.0)) is Region.TRI_APRIME_BD
        for N in (5, 6, 9):
            assert classify_region(N, NormalizedCoords(1.0, 0.0)) is Region.POLY_APRIME_HBF

    def test_vertex_c(self):
        assert classify_region(3, NormalizedCoords(0.0, 1.0)) is Region.TRI_APRIME_CE
        for N in (5, 6, 9):
            assert classify_region(N, NormalizedCoords(0.0, 1.0)) is Region.POLY_APRIME_FCE

    def test_boundary_priority(self):
        """Dyadic points exactly on a shared edge go to the higher-priority region."""
        F = Fraction
        a5, a3 = (F(3, 5), F(1, 3)), (F(1, 3), F(1, 2))  # A' at N = 5 and N = 3
        cases = [  # N, point, the edge it lies on, expected region
            (5, (F(7, 16), F(1, 16)), (F(2, 5), F(0)), a5, Region.SEPARABLE),  # D-A'
            (3, (F(1, 4), F(1, 2)), a3, (F(0), F(1, 2)), Region.SEPARABLE),  # A'-E
            (5, (F(35, 64), F(27, 64)), a5, (F(1, 2), F(1, 2)), Region.POLY_APRIME_FCE),  # A'-F
            (5, (F(21, 32), F(9, 32)), a5, (F(24, 25), F(0)), Region.POLY_APRIME_HBF),  # A'-H
            (3, (F(1, 2), F(3, 8)), a3, (F(1), F(0)), Region.TRI_APRIME_BD),  # A'-B
            (3, (F(1, 4), F(5, 8)), a3, (F(0), F(1)), Region.TRI_APRIME_CE),  # A'-C
        ]
        for N, pt, o, p, region in cases:
            assert (p[0] - o[0]) * (pt[1] - o[1]) == (p[1] - o[1]) * (pt[0] - o[0])
            assert min(o[0], p[0]) < pt[0] < max(o[0], p[0])
            coords = NormalizedCoords(float(pt[0]), float(pt[1]))
            assert (F(coords.ahat_lo), F(coords.ahat_mid)) == pt
            assert classify_region(N, coords) is region

    def test_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            classify_region(5, NormalizedCoords(-0.2, 0.1))

    @pytest.mark.parametrize("N", [3, 5, 6, 8])
    def test_total_on_a_grid(self, N):
        """Every simplex point receives exactly one region tag."""
        for x in np.linspace(0.0, 1.0, 41):
            for y in np.linspace(0.0, 1.0 - x, max(2, int(41 * (1 - x)))):
                classify_region(N, NormalizedCoords(x, y))  # must not raise

    def test_interior_points_in_exactly_one_region(self):
        rng = np.random.default_rng(12)
        for N in (3, 5, 6):
            polys = region_polygons(N)
            hits = 0
            for _ in range(200):
                u = np.sort(rng.random(2))
                pt = Point2(u[0], u[1] - u[0])
                count = sum(
                    all((q.x - o.x) * (pt.y - o.y) - (q.y - o.y) * (pt.x - o.x) > 1e-9
                        for o, q in zip(poly, poly[1:] + poly[:1]))
                    for _, poly in polys)
                assert count <= 1
                hits += count
            assert hits > 150  # most random points are strictly interior

    @pytest.mark.parametrize("N", [5, 7])
    def test_consistent_with_ppt_eigenvalues(self, N):
        """For odd N, SEPARABLE classification matches the PPT criterion."""
        pts = []
        for x in np.linspace(0.0, 1.0, 45):
            for y in np.linspace(0.0, 1.0 - x, max(2, int(45 * (1 - x)))):
                pts.append((x, y))
        for x, y in pts:
            coords = NormalizedCoords(x, y)
            lam = ppt_min_eigenvalue(normalized_to_raw(N, coords))
            if classify_region(N, coords) is Region.SEPARABLE:
                assert lam >= -1e-10
            else:
                assert lam < 1e-10  # entangled-region interiors are strictly negative


class TestAreaRatio:
    def test_increasing_in_n(self):
        ratios = [polygon_area_ratio(N) for N in range(3, 42, 2)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_limit(self):
        assert polygon_area_ratio(201) > 0.95

    def test_below_one(self):
        for N in (3, 5, 10, 41, 201):
            assert 0.0 < polygon_area_ratio(N) < 1.0

    def test_correctly_rounded(self):
        bad = []
        for N in (*range(3, 2000), *(10**k + 1 for k in range(3, 13))):
            # twice the exact shoelace area of ADA'E in barycentric units, where ABC has area 1/2
            poly = [(Fraction(0), Fraction(0)), (Fraction(N - 1, 2 * N), Fraction(0)),
                    (Fraction(N - 2, N), Fraction(2, N + 1)), (Fraction(0), Fraction(N - 1, N + 1))]
            exact = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1]))
            assert exact == Fraction((N - 1) ** 2, N * (N + 1))
            if polygon_area_ratio(N) != float(exact):
                bad.append(N)
        assert bad == []
