#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

    python3 bench/selftest.py

Runs one short round of each workload in-process, shows that the checks
pass the real outputs, then perturbs those outputs one way at a time and
shows that the matching check rejects each perturbation, so that no check
can pass vacuously.  Exits with code 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import machine

machine.pin_blas_threads()  # before numpy is imported
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
from reference import ptr_map  # noqa: E402
import worker  # noqa: E402

SEED = 3
RESULTS = []


def expect(name: str, errors: list, should_fail: bool):
    ok = bool(errors) == should_fail
    RESULTS.append(ok)
    verdict = "ok  " if ok else "FAIL"
    detail = errors[0] if errors else "no error"
    print(f"{verdict} {name}: {detail[:150]}")


def run(workload: str, rounds, **extra) -> dict:
    job = {"workload": workload, "mode": "run", "seconds": 0.0, "trace": 0,
           "warm_up": inputs.warm_up(workload), "states_per_op": 1, "rounds": rounds[:1],
           **extra}
    return worker.execute(job)


def pick(rounds, outputs, want):
    """First (state, output index) of round 0 whose state satisfies `want`."""
    for i, s in enumerate(rounds[0]):
        if want(s, outputs[0][i]):
            return s, i
    raise LookupError("no state fits")


def alphas_of(state, probs):
    if state["family"] == "2xN":
        return inputs.alphas_2xn(state["twice_j"], probs[0])
    return inputs.alphas_3xn(state["N"], probs[0], probs[1])


def closed_form_cases():
    rounds = inputs.sweep_rounds(SEED)
    res = run("closed_form_sweep", rounds)
    outs = res["outputs"]
    errors, fault_fails = checks.check_results(SEED, rounds, outs)
    expect("closed_form_sweep outputs pass", errors, False)
    expect("known-fault states fail today",
           [f"{fault_fails} known-fault failures in a round"] if fault_fails else [], True)

    def entangled_3xn(s, o):
        return (s["family"] == "3xN" and not s["fixed"] and o.get("value", 0) > 1e-3
                and s["stratum"] in ("POLY_A'FCE", "TRI_A'DH"))

    def perturbed(i, **change):
        bad = copy.deepcopy(outs)
        bad[0][i].update(change)
        return checks.check_results(SEED, rounds, bad)[0]

    s, i = pick(rounds, outs, entangled_3xn)
    o = outs[0][i]
    expect("value shifted by 1e-6", perturbed(i, value=o["value"] + 1e-6), True)
    expect("negative value", perturbed(i, value=-o["value"]), True)
    expect("entangled state reported as 0", perturbed(i, value=0.0), True)
    expect("seeded state refused", perturbed(i, value=None, error="ArithmeticError: x"), True)

    # minimizer moved 1e-9 outward across the nearest polygon edge, value kept consistent
    m = checks.probs_of(s, o["minimizer"])
    poly = ref.ppt_polygon(s["N"])
    d = ref.edge_distances(poly, m[:2])
    k = min(range(len(d)), key=lambda e: abs(d[e]))
    a, b = poly[k], poly[(k + 1) % len(poly)]
    ex, ey = float(b[0] - a[0]), float(b[1] - a[1])
    norm = (ex * ex + ey * ey) ** 0.5
    moved = (m[0] + 1e-9 * ey / norm, m[1] - 1e-9 * ex / norm)
    p = (s["x"], s["y"], 1 - s["x"] - s["y"])
    kl = float(ref.kl(p, (moved[0], moved[1], 1 - moved[0] - moved[1])))
    expect("minimizer moved outside the PPT polygon",
           checks.check_ree(s, kl, alphas_of(s, moved), with_reference=False), True)

    # a feasible but wrong minimizer (the vertex A'), value consistent with it:
    # only the mpmath reference can tell
    ap = ref.chart(s["N"])["A'"]
    kl = float(ref.kl(p, (float(ap[0]), float(ap[1]), float(1 - ap[0] - ap[1]))))
    wrong = alphas_of(s, (float(ap[0]), float(ap[1])))
    expect("feasible wrong minimizer passes the property checks",
           checks.check_ree(s, kl, wrong, with_reference=False), False)
    expect("feasible wrong minimizer fails the reference",
           checks.check_ree(s, kl, wrong, with_reference=True), True)

    s, i = pick(rounds, outs, lambda s, o: s["stratum"] == ref.SEPARABLE and s["family"] == "3xN")
    expect("separable state with value 1e-6", perturbed(i, value=1e-6), True)

    # above N = 10^4 only a refused or wrong state of the known-fault region counts as failed
    for stratum in ("POLY_A'FCE", "TRI_A'DH", ref.SEPARABLE):
        s, i = pick(rounds, outs, lambda s, o: s["fixed"] and s["N"] == inputs.LARGE_N[-1]
                    and s["stratum"] == stratum and "error" not in o)
        expect(f"fixed {stratum} state at N = 10^8+1 with a wrong value",
               perturbed(i, value=outs[0][i]["value"] + 1e-6), True)
        expect(f"fixed {stratum} state at N = 10^8+1 refused",
               perturbed(i, value=None, error="ArithmeticError: x"), True)
    s, i = pick(rounds, outs, lambda s, o: s["fixed"] and s["stratum"] == inputs.FAULT_REGION
                and "error" not in o)
    bad = copy.deepcopy(outs)
    bad[0][i].update(value=None, error="ArithmeticError: x")
    errs, more = checks.check_results(SEED, rounds, bad)
    expect("a refused known-fault state adds a failure, not an error",
           errs + ([] if more == fault_fails + 1 else [f"{more} failures"]), False)

    s, i = pick(rounds, outs, lambda s, o: s["family"] == "2xN" and o.get("value", 0) > 1e-3)
    pc = float(ref.threshold_2xn(s["twice_j"]))
    outside = alphas_of(s, (pc + 1e-9,))
    p = (s["p"], 1 - s["p"])
    expect("2xN minimizer beyond the threshold",
           checks.check_ree(s, float(ref.kl(p, (pc + 1e-9, 1 - pc - 1e-9))), outside, False), True)
    expect("2xN value shifted by 1e-6", perturbed(i, value=outs[0][i]["value"] + 1e-6), True)


def oracle_dense_cases():
    """One round of oracle_dense, split into its campaigns and its dense chains."""
    rounds = inputs.oracle_dense_rounds(SEED)[:1]
    points = inputs.oracle_check_points(SEED)
    res = run("oracle_dense", rounds, check_points=points, bisect_twice_js=[1, 3])
    campaigns, states = inputs.split_kinds(rounds[0])
    camp_outs, dense_outs = inputs.split_kinds(rounds[0], res["outputs"][0])
    oracle_cases([campaigns], [camp_outs], points, res["optima"])
    dense_cases([states], [dense_outs], res["bisection"])


def oracle_cases(rounds, outs, points, optima):
    expect("oracle campaigns pass", checks.check_campaigns(rounds, outs), False)
    expect("oracle optima meet the reference", checks.check_optima(points, optima), False)

    bad = copy.deepcopy(outs)
    bad[0][4]["passed"] = False
    expect("campaign not passed", checks.check_campaigns(rounds, bad), True)
    bad = copy.deepcopy(outs)
    bad[0][5]["max_abs_diff"] = 2e-6
    expect("campaign error above 1e-6", checks.check_campaigns(rounds, bad), True)
    bad = copy.deepcopy(outs)
    bad[0][6]["samples"] = 0
    expect("campaign ran too few samples", checks.check_campaigns(rounds, bad), True)
    bad = copy.deepcopy(optima)
    bad[-1]["value"] += 1e-6
    expect("oracle optimum shifted by 1e-6", checks.check_optima(points, bad), True)
    bad = copy.deepcopy(optima)
    bad[-1]["point"] = [bad[-1]["point"][0] + 0.6, bad[-1]["point"][1] + 0.6]
    expect("oracle optimum point moved out of the simplex", checks.check_optima(points, bad), True)
    bad = copy.deepcopy(optima)
    bad[0]["point"] = [1.0]
    expect("2xN oracle optimum beyond the threshold", checks.check_optima(points, bad), True)


def dense_cases(rounds, outs, bisection):
    expect("dense chain outputs pass", checks.check_dense(rounds, outs, 1), False)
    expect("bisection recovers 2j/(2j+1)", checks.check_bisection(bisection), False)

    def far(s, o):
        return o["qre"] is not None and checks.ppt_boundary_distance(s) > 1e-3

    s, i = pick(rounds, outs, far)
    for name, change in (("PPT eigenvalue sign flipped", {"min_eig": 1e-3}),
                         ("dense relative entropy shifted by 1e-6",
                          {"qre": outs[0][i]["qre"] + 1e-6}),
                         ("twirl alphas moved by 1e-9",
                          {"twirl": [outs[0][i]["twirl"][0] + 1e-9] + outs[0][i]["twirl"][1:]})):
        bad = copy.deepcopy(outs)
        bad[0][i].update(change)
        expect(name, checks.check_dense(rounds, bad, 1), True)
    found = dict(bisection)
    found["1"] += 1e-6
    expect("bisected threshold off by 1e-6", checks.check_bisection(found), True)


def _apply(T, p):
    return [sum(t * q for t, q in zip(row, p)) for row in T]


def chart_errors(N: int, c: dict) -> list:
    """Where the chart `c` of 3(x)N disagrees with the exact partial time reversal."""
    T = ptr_map(2, N - 1)
    probs = {k: (x, y, 1 - x - y) for k, (x, y) in c.items()}
    errors = []
    if [_apply(T, _apply(T, e)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] != \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]:
        errors.append(f"N={N}: the partial time reversal is not an involution")
    if _apply(T, probs["A"]) != list(probs["A'"]):
        errors.append(f"N={N}: theta(A) != A'")
    for k in ("D", "E"):
        img = _apply(T, probs[k])
        if min(img) != 0:
            errors.append(f"N={N}: {k} is not on the PPT boundary ({img})")
    for k in ("A", "D", "A'", "E"):
        if min(_apply(T, probs[k])) < 0:
            errors.append(f"N={N}: polygon vertex {k} is not PPT")
    for k in ("B", "C"):
        if min(_apply(T, probs[k])) >= 0:
            errors.append(f"N={N}: simplex vertex {k} is PPT")
    return errors


def chart_cases():
    """The rational chart against the partial time reversal built from exact 6j symbols."""
    errors = []
    for N in (3, 4, 5, 6, 7, 11, 101, 1001):  # Racah sums grow with N
        errors += chart_errors(N, ref.chart(N))
    for tj in (1, 2, 3, 10, 99):
        pc = ref.threshold_2xn(tj)
        img = _apply(ptr_map(1, tj), (pc, 1 - pc))
        if min(img) != 0:
            errors.append(f"2xN 2j={tj}: p = 2j/(2j+1) is not on the PPT boundary ({img})")
    expect("rational chart agrees with the exact partial time reversal", errors, False)
    for k in ("A'", "D", "E"):
        c = dict(ref.chart(7))
        x, y = c[k]
        c[k] = (x + Fraction(1, 10**12), y)
        expect(f"landmark {k} moved by 1e-12 is caught", chart_errors(7, c), True)


def main() -> int:
    for cases in (chart_cases, closed_form_cases, oracle_dense_cases):
        cases()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} self-test cases behaved as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
