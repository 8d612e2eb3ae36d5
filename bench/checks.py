"""Output checks, run after the timed phase against `reference` (never against stored outputs).

Every check function returns a list of error strings; an empty list means
the outputs passed.  `selftest.py` shows that each check rejects a
perturbed output.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

import reference as ref
from inputs import FAULT_REGION

TOL_VALUE = 1e-9        # |value - reference| and |KL(rho || sigma*) - value|
TOL_MINIMIZER = 1e-14   # how far (barycentric units) a minimizer may round outside the polygon
TOL_ORACLE = 1e-9       # |oracle optimum - reference|
TOL_ORACLE_POINT = 1e-9  # how far an oracle optimum point may lie outside the polygon
TOL_CAMPAIGN = 1e-6     # the criterion-1 tolerance of verify_closed_form
SIGN_MARGIN = 1e-9      # PPT sign is checked only this far from the PPT boundary
TOL_TWIRL = 1e-12       # |twirl(to_density(rho)) - rho| in alpha coordinates
TOL_BISECT = 1e-9       # |bisected threshold - 2j/(2j+1)|
REF_SUBSET = 48         # seeded states per run compared with the mpmath reference


def probs_of(state: dict, alphas) -> tuple:
    """Block probabilities w_J * alpha_J of an alpha-vector of the state's system."""
    if state["family"] == "2xN":
        tj = state["twice_j"]
        dim = 2 * (tj + 1)
        return (alphas[0] * math.sqrt(tj / dim), alphas[1] * math.sqrt((tj + 2) / dim))
    N = state["N"]
    return tuple(a * math.sqrt(d / (3 * N)) for a, d in zip(alphas, (N - 2, N, N + 2)))


def is_inside(state: dict) -> bool:
    """Exact membership of the state in the PPT set (interval or polygon)."""
    if state["family"] == "2xN":
        return Fraction(state["p"]) <= ref.threshold_2xn(state["twice_j"])
    return ref.inside(ref.ppt_polygon(state["N"]), (state["x"], state["y"]))


@functools.lru_cache(maxsize=None)
def _reference(key: tuple) -> float:
    if key[0] == "2xN":
        return float(ref.ree_2xn(key[1], key[2])[0])
    return float(ref.ree_3xn(key[1], key[2], key[3])[0])


def reference_value(state: dict) -> float:
    """E_r (E_Gamma for even N) of the state at 50 digits, rounded to a float."""
    if state["family"] == "2xN":
        return _reference(("2xN", state["twice_j"], state["p"]))
    return _reference(("3xN", state["N"], state["x"], state["y"]))


def check_ree(state: dict, value, minimizer_alphas, with_reference: bool) -> list:
    """Properties every closed-form result must have, and optionally the reference value."""
    where = _where(state)
    if not isinstance(value, float) or not math.isfinite(value) or value < 0.0:
        return [f"{where}: value {value!r} is not a finite number >= 0"]
    errors = []
    inside = is_inside(state)
    if (value == 0.0) != inside:
        errors.append(f"{where}: value {value!r} but exact PPT membership is {inside}")
    m = probs_of(state, minimizer_alphas)
    if state["family"] == "2xN":
        pc = ref.threshold_2xn(state["twice_j"])
        if not -TOL_MINIMIZER <= m[0] <= float(pc) + TOL_MINIMIZER:
            errors.append(f"{where}: minimizer weight {m[0]!r} outside [0, {pc}]")
        p = (state["p"], 1.0 - state["p"])
    else:
        dist = min(ref.edge_distances(ref.ppt_polygon(state["N"]), m[:2]))
        if dist < -TOL_MINIMIZER:
            errors.append(f"{where}: minimizer {m[:2]} lies {-dist:.3g} outside the PPT polygon")
        p = (state["x"], state["y"], 1.0 - state["x"] - state["y"])
    kl = float(ref.kl(p, m))
    if not abs(kl - value) <= TOL_VALUE:
        errors.append(f"{where}: KL(rho || sigma*) = {kl!r} but value {value!r}")
    if with_reference:
        want = reference_value(state)
        if not abs(want - value) <= TOL_VALUE:
            errors.append(f"{where}: value {value!r}, mpmath reference {want!r}")
    return errors


def _where(state: dict) -> str:
    if state["family"] == "2xN":
        return f"2xN 2j={state['twice_j']} p={state['p']!r}"
    return f"3xN N={state['N']} ({state['x']!r}, {state['y']!r}) [{state.get('stratum')}]"


def reference_subset(seed: int, rounds) -> set:
    """Seeded choice of (round, index) pairs of seeded states that meet the mpmath reference."""
    pairs = [(r, i) for r, states in enumerate(rounds) for i, s in enumerate(states)
             if not s["fixed"]]
    rng = np.random.default_rng([seed, 7])
    pick = rng.choice(len(pairs), size=min(REF_SUBSET, len(pairs)), replace=False)
    return {pairs[k] for k in pick}


def check_results(seed: int, rounds, outputs):
    """Closed-form results of the first pass over each round.

    Returns (errors, known-fault failures per round).  A fixed state of
    the known-fault region (FAULT_REGION above N = 10^4) fails when it is
    refused with an ArithmeticError or does not meet the reference; any
    other state that fails any check is an error.
    """
    errors = []
    subset = reference_subset(seed, rounds[:len(outputs)])
    per_round = []
    for r, outs in enumerate(outputs):
        fails = 0
        for i, (state, out) in enumerate(zip(rounds[r], outs)):
            errs = _result_errors(state, out, with_reference=state["fixed"] or (r, i) in subset)
            if state["fixed"] and state["stratum"] == FAULT_REGION:
                fails += bool(errs)
            else:
                errors += errs
        per_round.append(fails)
    if len(set(per_round)) > 1:
        errors.append(f"known-fault failures differ between rounds: {per_round}")
    return errors, (per_round[0] if per_round else 0)


def _result_errors(state: dict, out, with_reference: bool) -> list:
    if "error" in out:
        return [f"{_where(state)}: refused ({out['error']})"]
    return check_ree(state, out["value"], out["minimizer"], with_reference)


def check_campaigns(rounds, outputs) -> list:
    """Every campaign ran its samples and passed at 1e-6."""
    errors = []
    for r, outs in enumerate(outputs):
        for camp, out in zip(rounds[r], outs):
            label = f"verify {camp['family']} {camp['param']} seed={camp['seed']}"
            if out.get("samples") != camp["samples"]:
                errors.append(f"{label}: ran {out.get('samples')} samples")
            if out.get("passed") is not True or not out["max_abs_diff"] <= TOL_CAMPAIGN:
                errors.append(f"{label}: not passed (max |closed - oracle| "
                              f"{out.get('max_abs_diff')!r})")
    return errors


def check_optima(points, optima) -> list:
    """Single oracle optima against the reference value and the feasible set."""
    errors = []
    if len(optima) != len(points):
        return [f"{len(optima)} oracle optima for {len(points)} check points"]
    for state, opt in zip(points, optima):
        want = reference_value(state)
        if not abs(opt["value"] - want) <= TOL_ORACLE:
            errors.append(f"{_where(state)}: oracle optimum {opt['value']!r}, reference {want!r}")
        pt = opt["point"]
        if state["family"] == "2xN":
            pc = float(ref.threshold_2xn(state["twice_j"]))
            dist = min(pt[0], pc - pt[0])
        else:
            dist = min(ref.edge_distances(ref.ppt_polygon(state["N"]), pt))
        if dist < -TOL_ORACLE_POINT:
            errors.append(f"{_where(state)}: oracle optimum point {pt} is infeasible by {-dist:.3g}")
    return errors


def ppt_boundary_distance(state: dict) -> float:
    """Distance to the boundary between PPT and non-PPT states (not the simplex edges)."""
    if state["family"] == "2xN":
        return abs(state["p"] - float(ref.threshold_2xn(state["twice_j"])))
    c = ref.chart(state["N"])
    d = ref.edge_distances((c["D"], c["A'"], c["E"]), (state["x"], state["y"]))
    return min(abs(d[0]), abs(d[1]))


def check_dense(rounds, outputs, ref_rounds: int) -> list:
    errors = []
    for r, outs in enumerate(outputs):
        for state, out in zip(rounds[r], outs):
            where = _where(state)
            errors += check_ree(state, out["value"], out["minimizer"], with_reference=False)
            inside = is_inside(state)
            if ppt_boundary_distance(state) > SIGN_MARGIN and (out["min_eig"] >= 0.0) != inside:
                errors.append(f"{where}: PPT eigenvalue {out['min_eig']!r} but exact "
                              f"membership is {inside}")
            drift = max(abs(a - b) for a, b in zip(out["twirl"], state["alphas"]))
            if not drift <= TOL_TWIRL:
                errors.append(f"{where}: twirl(to_density(rho)) moved the alphas by {drift:.3g}")
            if inside != (out["qre"] is None):
                errors.append(f"{where}: dense relative entropy {out['qre']!r} for a state "
                              f"with PPT membership {inside}")
            elif out["qre"] is not None and r < ref_rounds:
                want = reference_value(state)
                if not abs(out["qre"] - want) <= TOL_VALUE:
                    errors.append(f"{where}: dense relative entropy {out['qre']!r}, "
                                  f"reference {want!r}")
    return errors


def check_bisection(found: dict) -> list:
    errors = []
    for tj, p in found.items():
        want = float(ref.threshold_2xn(int(tj)))
        if not abs(p - want) <= TOL_BISECT:
            errors.append(f"2xN 2j={tj}: PPT eigenvalue changes sign at {p!r}, not {want!r}")
    return errors
