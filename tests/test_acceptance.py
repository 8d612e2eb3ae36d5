"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (outside pytest's capture) so a
plain `pytest -v` run shows the per-criterion verdicts.
"""

import math

import numpy as np
import pytest

from ri_entropy.angular import Spin, partial_time_reversal
from ri_entropy.closed_form import (
    Region,
    _value_in_region,
    e_gamma_3xn_even,
    ree_2xn,
    ree_3x3,
    ree_3xn_odd,
    separability_threshold,
    state_2xn,
)
from ri_entropy.geometry import (
    _per_n,
    normalized_chart,
    polygon_area_ratio,
    ppt_image_vertices,
    simplex_vertices,
)
from ri_entropy.oracle import (
    CAMPAIGNS,
    minimize_kl_over_polygon,
    ppt_min_eigenvalue,
    verify_closed_form,
)
from ri_entropy.states import (
    NormalizedCoords,
    RIState,
    alpha_coords,
    block_weights,
    kl_alpha,
    make_ri_state,
    maximally_mixed,
    normalized_to_raw,
    quantum_relative_entropy,
    to_density,
    twirl,
)


def report(capsys, number: int, title: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {number} {verdict}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def test_criterion_1_closed_form_vs_oracle(capsys):
    worst = 0.0
    ok = True
    for family, param in CAMPAIGNS:
        summary = verify_closed_form(family, param, samples=1000, seed=7, tol=1e-6)
        worst = max(worst, summary.max_abs_diff)
        ok = ok and summary.passed
    report(capsys, 1, "closed form matches the oracle on 1000 samples per family",
           ok, f"max |closed - oracle| = {worst:.3e} <= 1e-6")


def test_criterion_2_ppt_threshold(capsys):
    worst = 0.0
    for tj in (1, 2, 3):
        j = Spin(tj)
        lo, hi = 0.0, 1.0
        for _ in range(60):  # bisect the sign change of the smallest eigenvalue
            mid = (lo + hi) / 2
            if ppt_min_eigenvalue(state_2xn(j, mid)) >= 0.0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs((lo + hi) / 2 - separability_threshold(j)))
    report(capsys, 2, "PPT eigenvalue crosses zero at p = 2j/(2j+1)",
           worst <= 1e-9, f"max threshold error {worst:.2e}")


def test_criterion_3_vertex_images(capsys):
    worst = 0.0
    for N in range(3, 17):
        j1, j2 = Spin(2), Spin(N - 1)
        for vertex, image in zip(simplex_vertices(N), ppt_image_vertices(N)):
            rho = to_density(make_ri_state(j1, j2, vertex))
            got = alpha_coords(partial_time_reversal(rho), j1, j2)
            worst = max(worst, float(np.abs(got - image).max()))
    report(capsys, 3, "dense images of A, B, C match the printed A', B', C' "
           "for N = 3..16", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_4_landmarks_n5(capsys):
    from ri_entropy.geometry import landmark_points
    F, G, H = landmark_points(5)
    expected = [(math.sqrt(5) / 2, math.sqrt(3) / 2),
                (16 * math.sqrt(5) / 25, 0.0),
                (24 * math.sqrt(5) / 25, 0.0)]
    worst = max(max(abs(p.x - ex), abs(p.y - ey))
                for p, (ex, ey) in zip((F, G, H), expected))
    # the general-N expressions reproduce the same points by substitution
    N = 5
    general = [((N - 3) / (N - 1) * math.sqrt(3 * N / (N - 2)), 2 * math.sqrt(3) / (N - 1)),
               ((N - 1) ** 2 * (N + 3) / (2 * (N * N - 5)) * math.sqrt(3 / (N * (N - 2))), 0.0),
               ((N + 3) * (N - 1) / (N * N - 5) * math.sqrt(3 * (N - 2) / N), 0.0)]
    worst = max(worst, max(max(abs(p.x - gx), abs(p.y - gy))
                           for p, (gx, gy) in zip((F, G, H), general)))
    report(capsys, 4, "landmarks F, G, H at N = 5 match the stated coordinates",
           worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_5_spot_values(capsys):
    cases = [
        ("3x3 vertex C", ree_3x3(NormalizedCoords(0.0, 1.0)), 3, math.log(2)),
        ("3x3 vertex B", ree_3x3(NormalizedCoords(1.0, 0.0)), 3, math.log(3)),
        ("3x5 vertex B", ree_3xn_odd(5, NormalizedCoords(1.0, 0.0)), 5, math.log(5 / 3)),
        ("3x4 vertex B", e_gamma_3xn_even(4, NormalizedCoords(1.0, 0.0)), 4, math.log(2)),
    ]
    ok = True
    details = []
    for label, res, N, expected in cases:
        coords = (NormalizedCoords(0.0, 1.0) if "C" in label
                  else NormalizedCoords(1.0, 0.0))
        orac = minimize_kl_over_polygon(N, coords).optimum_value
        closed_ok = abs(res.value - expected) <= 1e-10
        oracle_ok = abs(orac - expected) <= 1e-6
        ok = ok and closed_ok and oracle_ok
        details.append(f"{label}: |closed-exact|={abs(res.value - expected):.1e}")
    report(capsys, 5, "spot values ln 2, ln 3, ln(5/3), ln 2 reproduced", ok,
           "; ".join(details))


def test_criterion_6_curve_shape(capsys):
    ps = np.linspace(0.0, 1.0, 401)
    curves = {tj: [ree_2xn(Spin(tj), p).value for p in ps] for tj in (1, 2, 3)}
    ok = True
    for tj, vals in curves.items():
        pc = separability_threshold(Spin(tj))
        for p, v in zip(ps, vals):
            if p <= pc:
                ok = ok and v == 0.0
        above = [(p, v) for p, v in zip(ps, vals) if p > pc]
        ok = ok and all(v2 > v1 for (_, v1), (_, v2) in zip(above, above[1:]))
    for p, v1, v2, v3 in zip(ps, curves[1], curves[2], curves[3]):
        if p > 0.75:
            ok = ok and v1 >= v2 - 1e-14 >= v3 - 2e-14
    report(capsys, 6, "2xN curves: zero below threshold, strictly increasing "
           "above, ordered j=1/2 >= j=1 >= j=3/2 on (3/4, 1]", ok)


def test_criterion_7_boundary_continuity(capsys):
    worst = 0.0
    for N in (3, 5, 7):
        ch = normalized_chart(N)
        if N == 3:
            edges = [(ch.e, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_CE),
                     (ch.d, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_BD),
                     (ch.a_prime, ch.c, Region.TRI_APRIME_CE, Region.TRI_APRIME_BC),
                     (ch.a_prime, ch.b, Region.TRI_APRIME_BD, Region.TRI_APRIME_BC)]
        else:
            edges = [(ch.e, ch.a_prime, Region.SEPARABLE, Region.POLY_APRIME_FCE),
                     (ch.d, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_DH),
                     (ch.a_prime, ch.f, Region.POLY_APRIME_FCE, Region.POLY_APRIME_HBF),
                     (ch.a_prime, ch.h, Region.POLY_APRIME_HBF, Region.TRI_APRIME_DH)]
        for p0, p1, ra, rb in edges:
            for s in np.linspace(0.0, 1.0, 100):
                coords = NormalizedCoords((1 - s) * p0.x + s * p1.x,
                                          (1 - s) * p0.y + s * p1.y)
                worst = max(worst, abs(_value_in_region(_per_n(N), coords, ra)[0]
                                       - _value_in_region(_per_n(N), coords, rb)[0]))
    report(capsys, 7, "adjacent region formulas agree on shared edges",
           worst <= 1e-8, f"max disagreement {worst:.2e}")


def test_criterion_8_large_n_limit(capsys):
    ratios = [polygon_area_ratio(N) for N in range(5, 42, 2)]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    tail = polygon_area_ratio(201) > 0.95
    values_at_c = [ree_3xn_odd(N, NormalizedCoords(0.0, 1.0)).value
                   for N in (5, 7, 9, 11)]
    decreasing = all(a > b for a, b in zip(values_at_c, values_at_c[1:]))
    fallback = ree_3xn_odd(201, NormalizedCoords(0.0, 1.0)).value < 0.1
    ok = increasing and tail and (decreasing or fallback)
    report(capsys, 8, "PPT polygon fills the simplex and E_r at vertex C "
           "shrinks as N grows", ok,
           f"ratio(201)={polygon_area_ratio(201):.4f}, "
           f"E_r(C)@N=5..11 = {', '.join(f'{v:.4f}' for v in values_at_c)}")


def test_criterion_9_property_suite(capsys):
    ok = True
    details = []

    # twirl idempotence
    rng = np.random.default_rng(9)
    worst = 0.0
    for j1, j2 in [(Spin(1), Spin(1)), (Spin(2), Spin(2)), (Spin(2), Spin(4))]:
        w = block_weights(j1, j2)
        s = make_ri_state(j1, j2, rng.dirichlet(np.ones(len(w))) / w)
        worst = max(worst, float(np.abs(
            twirl(to_density(s), j1, j2).alphas() - s.alphas()).max()))
    ok = ok and worst <= 1e-12
    details.append(f"twirl {worst:.1e}")

    # CG orthonormality
    from fractions import Fraction
    from ri_entropy.angular import coupled_basis_vector, coupling_range
    worst = 0.0
    for tj1, tj2 in [(1, 1), (2, 2), (3, 3), (2, 6), (4, 4)]:
        j1, j2 = Spin(tj1), Spin(tj2)
        vecs = [coupled_basis_vector(j1, j2, J, Fraction(tM, 2))
                for J in coupling_range(j1, j2) for tM in J.twice_m_values()]
        gram = np.array([[u @ v for v in vecs] for u in vecs])
        worst = max(worst, float(np.abs(gram - np.eye(len(vecs))).max()))
    ok = ok and worst <= 1e-12
    details.append(f"CG {worst:.1e}")

    # projector completeness
    from ri_entropy.angular import projector
    worst = 0.0
    for j1, j2 in [(Spin(1), Spin(2)), (Spin(2), Spin(3))]:
        total = sum(projector(j1, j2, J).mat for J in coupling_range(j1, j2))
        worst = max(worst, float(np.abs(total - np.eye(j1.dim * j2.dim)).max()))
    ok = ok and worst <= 1e-12
    details.append(f"completeness {worst:.1e}")

    # KL reduction equals the dense relative entropy on commuting states
    worst = 0.0
    for j1, j2 in [(Spin(1), Spin(1)), (Spin(2), Spin(2)), (Spin(2), Spin(4))]:
        w = block_weights(j1, j2)
        for _ in range(5):
            a = make_ri_state(j1, j2, rng.dirichlet(np.ones(len(w))) / w)
            b = make_ri_state(j1, j2, rng.dirichlet(np.ones(len(w))) / w)
            dense = quantum_relative_entropy(to_density(a), to_density(b))
            worst = max(worst, abs(kl_alpha(a, b) - dense))
    ok = ok and worst <= 1e-10
    details.append(f"KL=dense {worst:.1e}")

    # REE convexity on 200 sampled mixtures
    def ree(N, coords):
        if N == 3:
            return ree_3x3(coords).value
        return (ree_3xn_odd(N, coords) if N % 2
                else e_gamma_3xn_even(N, coords)).value
    defect = 0.0
    count = 0
    for N in (3, 5, 4, 7):
        for _ in range(50):
            u1, u2 = np.sort(rng.random(2)), np.sort(rng.random(2))
            c1 = NormalizedCoords(u1[0], u1[1] - u1[0])
            c2 = NormalizedCoords(u2[0], u2[1] - u2[0])
            t = float(rng.random())
            mix = NormalizedCoords((1 - t) * c1.ahat_lo + t * c2.ahat_lo,
                                   (1 - t) * c1.ahat_mid + t * c2.ahat_mid)
            defect = max(defect, ree(N, mix)
                         - ((1 - t) * ree(N, c1) + t * ree(N, c2)))
            count += 1
    ok = ok and count >= 200 and defect <= 1e-10
    details.append(f"convexity defect {defect:.1e}")

    # mixing-line property: the minimizer stays optimal along the segment
    worst = 0.0
    for N in (3, 5):
        for _ in range(20):
            u = np.sort(rng.random(2))
            coords = NormalizedCoords(u[0], u[1] - u[0])
            res = (ree_3x3(coords) if N == 3 else ree_3xn_odd(N, coords))
            if res.region is Region.SEPARABLE:
                continue
            from ri_entropy.states import raw_to_normalized
            sig = raw_to_normalized(RIState(res.minimizer))
            sigma_state = normalized_to_raw(N, sig)
            for t in (0.1, 0.5, 0.9):
                mix = NormalizedCoords((1 - t) * coords.ahat_lo + t * sig.ahat_lo,
                                       (1 - t) * coords.ahat_mid + t * sig.ahat_mid)
                expected = kl_alpha(normalized_to_raw(N, mix), sigma_state)
                got = (ree_3x3(mix) if N == 3 else ree_3xn_odd(N, mix)).value
                worst = max(worst, abs(got - expected))
    ok = ok and worst <= 1e-8
    details.append(f"mixing line {worst:.1e}")

    report(capsys, 9, "property suite (twirl, CG, completeness, KL, convexity, "
           "mixing line)", ok, "; ".join(details))
