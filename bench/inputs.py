"""Seeded inputs of the two workloads.

Region strata are sampled uniformly from the exact polygons of
`reference.region_polygons`, so every region of the chart is hit at every
N, including the thin entangled regions of large N that uniform sampling
of the whole simplex never reaches.

Every workload repeats whole rounds of operations.  A round holds the
seeded operations and the fixed ones: every state above N = 10^4, drawn
once from FAULT_SEED whatever --seed is.  The program's absolute snapping
tolerance misclassifies some states near region edges at large N (and
most A'HBF states above 10^4; see README.md).  Which states it hits
depends on the draw, so only a fixed draw makes the number that fail the
same in every round and every run.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

FAULT_SEED = 812_0074
FAULT_REGION = "POLY_A'HBF"
LARGE_N = (10_001, 1_000_001, 100_000_001)   # every state at these N is fixed

# seeded; no higher, since from about N = 2000 the fault strikes some seeds
# and not others (9 of 3000 uniform A'HBF states fail at N = 2000)
SWEEP_NS = (3, 4, 5, 6, 7, 101)
SWEEP_TWICE_JS = (1, 2, 3, 4)
SWEEP_PER_STRATUM = 4
SWEEP_FAULT_PER_N = 8
SWEEP_POOL_ROUNDS = 24

ORACLE_CAMPAIGNS = (("2xN", 0.5), ("2xN", 1.0), ("2xN", 1.5), ("2xN", 2.0),
                    ("3x3", 3), ("3xN-odd", 5), ("3xN-odd", 7),
                    ("3xN-even", 4), ("3xN-even", 6))
# samples per campaign: one interval-oracle call costs about 1/170 of a
# polygon-oracle call, so 2xN campaigns take 170 samples and every campaign
# costs about the same (some 16 ms), near the middle of the dense chains'
# 2-22 ms; one polygon sample per campaign keeps calls short enough for a
# run to make thousands, so that call_p99_us has dozens of calls above it
ORACLE_SAMPLES = {"2xN": 170, "3x3": 1, "3xN-odd": 1, "3xN-even": 1}
ORACLE_CHECKS_PER_CAMPAIGN = 2

DENSE_NS = (3, 4, 5, 7, 9, 11)
DENSE_TWICE_JS = (1, 2, 3, 5, 8, 10)
DENSE_REF_ROUNDS = 1          # rounds whose dense relative entropies meet mpmath

ORACLE_DENSE_POOL_ROUNDS = 24


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([abs(int(k)) for k in key])


def sample_polygon(rng: np.random.Generator, poly, n: int):
    """n uniform points (x, y) in a convex polygon of exact vertices."""
    P = np.array([[float(a), float(b)] for a, b in poly])
    fan = [(P[0], P[i], P[i + 1]) for i in range(1, len(P) - 1)]
    areas = np.array([abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
                      for a, b, c in fan])
    pick = rng.choice(len(fan), size=n, p=areas / areas.sum())
    u, v = rng.random(n), rng.random(n)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    out = []
    for k, uu, vv in zip(pick, u, v):
        a, b, c = fan[k]
        x = a[0] + uu * (b[0] - a[0]) + vv * (c[0] - a[0])
        y = a[1] + uu * (b[1] - a[1]) + vv * (c[1] - a[1])
        x, y = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
        if x + y > 1.0:
            y = 1.0 - x
        out.append((float(x), float(y)))
    return out


def sample_2xn(rng: np.random.Generator, twice_j: int, entangled: bool, n: int):
    """n weights p drawn uniformly from the separable or the entangled interval."""
    pc = float(ref.threshold_2xn(twice_j))
    lo, hi = (pc, 1.0) if entangled else (0.0, pc)
    return [float(p) for p in lo + (hi - lo) * rng.random(n)]


def alphas_3xn(N: int, x: float, y: float):
    """Raw alpha-vector (J ascending) of the 3(x)N state with block probabilities (x, y, 1-x-y)."""
    probs = (x, y, 1.0 - x - y)
    return [p / math.sqrt(d / (3 * N)) for p, d in zip(probs, (N - 2, N, N + 2))]


def alphas_2xn(twice_j: int, p: float):
    """Raw alpha-vector of the 2(x)(2j+1) state with lower-block weight p."""
    dim = 2 * (twice_j + 1)
    return [p / math.sqrt(twice_j / dim), (1.0 - p) / math.sqrt((twice_j + 2) / dim)]


def _state_3xn(N, x, y, stratum, fixed=False):
    return {"family": "3xN", "N": N, "x": x, "y": y, "alphas": alphas_3xn(N, x, y),
            "stratum": stratum, "fixed": fixed}


def _state_2xn(twice_j, p, stratum):
    return {"family": "2xN", "twice_j": twice_j, "p": p, "alphas": alphas_2xn(twice_j, p),
            "stratum": stratum, "fixed": False}


def warm_up(workload: str):
    """Fixed operations each measured process runs once before its first timed call."""
    if workload == "closed_form_sweep":
        states = [_state_2xn(1, 0.9, ""), _state_2xn(2, 0.9, ""), _state_3xn(3, 0.1, 0.8, ""),
                  _state_3xn(5, 0.1, 0.8, ""), _state_3xn(4, 0.1, 0.8, ""),
                  _state_3xn(5, 0.7, 0.25, "")]
        return _attach_paths(states + [dict(s) for s in states])
    if workload == "oracle_dense":
        return [_campaign("2xN", 0.5, 1, 0), _campaign("3xN-odd", 5, 1, 0),
                _state_2xn(1, 0.9, ""), _state_3xn(3, 0.1, 0.8, "")]
    return []


def fixed_states(per_region: int, per_fault_region: int):
    """Seed-independent states for every region at each N in LARGE_N."""
    out = []
    for N in LARGE_N:
        for tag, poly in ref.region_polygons(N).items():
            n = per_fault_region if tag == FAULT_REGION else per_region
            for x, y in sample_polygon(_rng(FAULT_SEED, N, len(tag)), poly, n):
                out.append(_state_3xn(N, x, y, tag, fixed=True))
    return out


def _attach_paths(states):
    """Alternate the library path and the raw-alpha (CLI) path."""
    for i, s in enumerate(states):
        s["path"] = "lib" if i % 2 == 0 else "dispatch"
    return states


def sweep_rounds(seed: int):
    """closed_form_sweep: SWEEP_POOL_ROUNDS distinct rounds, cycled by the worker."""
    fixed = _attach_paths(fixed_states(SWEEP_PER_STRATUM, SWEEP_FAULT_PER_N))
    rounds = []
    for r in range(SWEEP_POOL_ROUNDS):
        states = []
        for tj in SWEEP_TWICE_JS:
            for entangled in (False, True):
                stratum = ref.ENTANGLED_INTERVAL if entangled else ref.SEPARABLE
                for p in sample_2xn(_rng(seed, r, 2, tj, entangled), tj, entangled,
                                    SWEEP_PER_STRATUM):
                    states.append(_state_2xn(tj, p, stratum))
        for N in SWEEP_NS:
            for tag, poly in ref.region_polygons(N).items():
                for x, y in sample_polygon(_rng(seed, r, 3, N, len(tag)), poly,
                                           SWEEP_PER_STRATUM):
                    states.append(_state_3xn(N, x, y, tag))
        rounds.append(_attach_paths(states) + [dict(s) for s in fixed])
    return rounds


def dense_rounds(seed: int, n_rounds: int):
    """Dense chains: small systems whose dense matrices are at most 33 x 33."""
    rounds = []
    for r in range(n_rounds):
        states = []
        for tj in DENSE_TWICE_JS:
            for entangled in (False, True):
                stratum = ref.ENTANGLED_INTERVAL if entangled else ref.SEPARABLE
                for p in sample_2xn(_rng(seed, r, 20, tj, entangled), tj, entangled, 1):
                    states.append(_state_2xn(tj, p, stratum))
        for N in DENSE_NS:
            for tag, poly in ref.region_polygons(N).items():
                for x, y in sample_polygon(_rng(seed, r, 30, N, len(tag)), poly, 1):
                    states.append(_state_3xn(N, x, y, tag))
        rounds.append(states)
    return rounds


def _campaign(family, param, samples, seed):
    return {"kind": "campaign", "family": family, "param": param, "samples": samples,
            "seed": seed}


def oracle_campaigns(seed: int, n_rounds: int):
    """Per round, one verify_closed_form campaign per criterion-1 family with its own seed."""
    return [[_campaign(fam, param, ORACLE_SAMPLES[fam], int(_rng(seed, r, k).integers(2**31)))
             for k, (fam, param) in enumerate(ORACLE_CAMPAIGNS)]
            for r in range(n_rounds)]


def oracle_dense_rounds(seed: int):
    """oracle_dense: per round, the campaigns of one round and then its dense chains."""
    return [camps + dense for camps, dense in
            zip(oracle_campaigns(seed, ORACLE_DENSE_POOL_ROUNDS),
                dense_rounds(seed, ORACLE_DENSE_POOL_ROUNDS))]


def split_kinds(specs, outs=None):
    """(campaigns, dense states) of one oracle_dense round, or of its outputs."""
    n = sum(1 for s in specs if s.get("kind") == "campaign")
    items = specs if outs is None else outs
    return items[:n], items[n:]


def oracle_check_points(seed: int):
    """Seeded states on which single oracle optima are compared with the reference."""
    out = []
    for k, (fam, param) in enumerate(ORACLE_CAMPAIGNS):
        rng = _rng(seed, 99, k)
        for _ in range(ORACLE_CHECKS_PER_CAMPAIGN):
            if fam == "2xN":
                out.append(_state_2xn(int(2 * param), float(rng.random()), "uniform"))
            else:
                u = np.sort(rng.random(2))
                out.append(_state_3xn(int(param), float(u[0]), float(u[1] - u[0]), "uniform"))
    return out


def cli_argv(state, form: str):
    """`ri-entropy ree` arguments for a state; form is "alpha" or "normalized" (3(x)N only)."""
    if state["family"] == "2xN":
        tj = state["twice_j"]
        return ["ree", "--j1", "1/2", "--j2", f"{tj}/2" if tj % 2 else str(tj // 2),
                "--p", repr(state["p"])]
    N = state["N"]
    j2 = f"{N - 1}/2" if (N - 1) % 2 else str((N - 1) // 2)
    if form == "alpha":
        coords = ",".join(repr(a) for a in alphas_3xn(N, state["x"], state["y"]))
        return ["ree", "--j1", "1", "--j2", j2, "--alpha", coords]
    return ["ree", "--j1", "1", "--j2", j2, "--normalized", f"{state['x']!r},{state['y']!r}"]
