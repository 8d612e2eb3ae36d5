#!/usr/bin/env python3
"""Per-call times, in µs, of the closed forms, the dense layer and one-state oracle searches.

    python scripts/percall.py [--rounds R] [--calls C] [--against SRC] [--json PATH]

Cases, from fixed seeds:
  - the closed-form calls: `NormalizedCoords(x, y)`; `raw_to_normalized` and
    `make_ri_state` of a 3(x)7 state; `ree_2xn` at j = 3/2, separable and
    entangled; `ree_3xn_odd(N, c)` at N = 7 and 10^8+1, with c the vertex mean
    of each region's polygon, and `e_gamma_3xn_even(10^8+2, c)` in `TRI_A'DH`,
    where the constants in N round; `ree_dispatch` on a separable 2(x)2, an
    entangled 2(x)4 and a 3(x)7 alpha-vector, and on a 3(x)(10^8+1) alpha-vector
    at the vertex mean of each region; `ree_3xn_odd` and `ree_dispatch` at
    N = 10^8+1 on HBF_STATE, whose region test takes the exact fallback twice;
  - for every spin pair of the benchmark's dense chains (2(x)N for 2j = 1..10,
    3(x)N for N = 3..11): `quantum_relative_entropy` of a seeded entangled state
    and its closed-form minimizer, on the total-M blocks and on the same matrices
    without factor dims (one whole-matrix solve), `to_density` and
    `ppt_min_eigenvalue`;
  - `oracle._polygon_search` of one state outside the N = 5 polygon, and
    `oracle._interval_search` (j = 1/2) at 1 and at 170 columns.

A case's time in one round is the best of 3 blocks of C calls; its figure is the
median over the R rounds.  With --against, the `ri_entropy` package under SRC
(a second checkout's src/ directory) is loaded too, under another name; each
round times every case on both versions, the one first that went second in the
round before, and each cell reads "before -> after (the median over rounds of
after / before, the rounds in which after was faster)".  Both versions get the
same inputs, built by their own functions.

Prints Markdown tables and the machine block (`bench/machine.py`); --json also
writes the figures.  One BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import machine  # noqa: E402

machine.pin_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402

SEED = 2021
# the first POLY_A'HBF state of the benchmark's fixed draw at N = 10^8+1: like each
# of them, its region test takes the exact integer sign on lines A'-E and A'-H
HBF_STATE = (0.9999999968434531, 3.156546858860289e-09)
DENSE_PAIRS = [(1, tj) for tj in range(1, 11)] + [(2, n - 1) for n in range(3, 12)]


def load(src: str | None, name: str):
    """The ri_entropy package of this checkout, or the one under `src` as `name`."""
    if src is None:
        import ri_entropy
        mod = ri_entropy
    else:
        pkg = Path(src).resolve() / "ri_entropy"
        spec = importlib.util.spec_from_file_location(
            name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
    for sub in ("angular", "states", "geometry", "closed_form", "oracle"):
        importlib.import_module(f"{mod.__name__}.{sub}")
    return mod


def cases(mod) -> dict:
    """(function, arguments) of every case, keyed by (table, row, column)."""
    st, cf, orc, Spin = mod.states, mod.closed_form, mod.oracle, mod.angular.Spin
    out = {}
    closed, j = "closed", Spin(3)

    def centroids(N):
        return {str(region): st.NormalizedCoords(*map(statistics.fmean, zip(*polygon)))
                for region, polygon in mod.geometry.region_polygons(N)}

    fce = st.normalized_to_raw(7, centroids(7)["POLY_A'FCE"])
    out[closed, "`NormalizedCoords(x, y)`", "per call"] = (st.NormalizedCoords, (0.2, 0.3))
    out[closed, "`raw_to_normalized`, 3⊗7", "per call"] = (st.raw_to_normalized, (fce,))
    for p, kind in ((0.3, "separable"), (0.9, "entangled")):
        out[closed, f"`ree_2xn(j, {p})`, j = 3/2, {kind}", "per call"] = (cf.ree_2xn, (j, p))
    for N, label in ((7, "7"), (10**8 + 1, "10⁸+1")):
        for region, c in centroids(N).items():
            out[closed, f"`ree_3xn_odd({label}, c)`, c in `{region}`", "per call"] = (
                cf.ree_3xn_odd, (N, c))
    out[closed, "`e_gamma_3xn_even(10⁸+2, c)`, c in `TRI_A'DH`", "per call"] = (
        cf.e_gamma_3xn_even, (10**8 + 2, centroids(10**8 + 2)["TRI_A'DH"]))
    out[closed, "`ree_dispatch`, 2⊗2 at p = 0.3", "per call"] = (
        cf.ree_dispatch, (Spin(1), Spin(1), cf.state_2xn(Spin(1), 0.3).coeffs.alphas))
    out[closed, "`ree_dispatch`, 2⊗4 at p = 0.9", "per call"] = (
        cf.ree_dispatch, (Spin(1), j, cf.state_2xn(j, 0.9).coeffs.alphas))
    out[closed, "`ree_dispatch`, 3⊗7 in `POLY_A'FCE`", "per call"] = (
        cf.ree_dispatch, (Spin(2), Spin(6), fce.coeffs.alphas))
    for region, c in centroids(10**8 + 1).items():
        raw = st.normalized_to_raw(10**8 + 1, c).coeffs.alphas
        out[closed, f"`ree_dispatch`, 3⊗(10⁸+1) in `{region}`", "per call"] = (
            cf.ree_dispatch, (Spin(2), Spin(10**8), raw))
    hbf = st.NormalizedCoords(*HBF_STATE)
    out[closed, "`ree_3xn_odd(10⁸+1, s)`, s a fixed `POLY_A'HBF` state", "per call"] = (
        cf.ree_3xn_odd, (10**8 + 1, hbf))
    out[closed, "`ree_dispatch`, 3⊗(10⁸+1) at s", "per call"] = (
        cf.ree_dispatch, (Spin(2), Spin(10**8), st.normalized_to_raw(10**8 + 1, hbf).coeffs.alphas))
    out[closed, "`make_ri_state`, 3⊗7", "per call"] = (
        st.make_ri_state, (Spin(2), Spin(6), fce.coeffs.alphas))
    for tj1, tj2 in DENSE_PAIRS:
        j1, j2 = Spin(tj1), Spin(tj2)
        w = np.array(st._block_weights(tj1, tj2))
        rng = np.random.default_rng([SEED, tj1, tj2])
        while True:  # the first seeded state with a positive REE
            alphas = tuple((rng.dirichlet(np.ones(len(w))) / w).tolist())
            res = cf.ree_dispatch(j1, j2, alphas)
            if res.value > 0.0:
                break
        state = st.make_ri_state(j1, j2, alphas)
        rho = st.to_density(state)
        sigma = st.to_density(st.make_ri_state(j1, j2, res.minimizer.alphas))
        row = f"{j1.dim}⊗{j2.dim}"
        out["dense", row, "quantum_relative_entropy"] = (st.quantum_relative_entropy, (rho, sigma))
        whole = (mod.angular.DenseOperator(rho.mat), mod.angular.DenseOperator(sigma.mat))
        out["dense", row, "the same, whole matrix"] = (st.quantum_relative_entropy, whole)
        out["dense", row, "to_density"] = (st.to_density, (state,))
        out["dense", row, "ppt_min_eigenvalue"] = (orc.ppt_min_eigenvalue, (state,))
    xs, ys = np.array([0.05]), np.array([0.9])  # outside the N = 5 polygon ADA'E
    out["search", "_polygon_search, 1 state, N = 5", "per call"] = (
        orc._polygon_search, (5, xs, ys, orc._POLYGON_TOL))
    rng = np.random.default_rng([SEED, 170])
    for ps in (np.array([0.9]), rng.random(170)):
        out["search", f"_interval_search, {len(ps)} column{'s' * (len(ps) > 1)}", "per call"] = (
            orc._interval_search, (Spin(1), ps, orc._INTERVAL_TOL))
    return out


def best_of_3(fn, args, calls: int) -> float:
    clock, best = time.perf_counter_ns, None
    for _ in range(3):
        t = clock()
        for _ in range(calls):
            fn(*args)
        dt = (clock() - t) / calls / 1e3
        best = dt if best is None or dt < best else best
    return best


def measure(versions: list, rounds: int, calls: int) -> dict:
    """Per case, per version, the time of each round; versions alternate within a round."""
    keys = list(versions[0])
    for version in versions:  # warm every cache the calls use
        for fn, args in version.values():
            fn(*args)
    times = {key: [[] for _ in versions] for key in keys}
    for r in range(rounds):
        for key in keys:
            order = range(len(versions)) if r % 2 == 0 else reversed(range(len(versions)))
            for v in order:
                times[key][v].append(best_of_3(*versions[v][key], calls))
    return times


def cell(series: list, digits: int) -> str:
    if len(series) == 1:
        return f"{statistics.median(series[0]):.{digits}f}"
    before, after = series
    wins = sum(a < b for b, a in zip(before, after))
    ratio = statistics.median(a / b for b, a in zip(before, after))
    return (f"{statistics.median(before):.{digits}f} → {statistics.median(after):.{digits}f} "
            f"(×{ratio:.2f}, {wins}/{len(after)})")


def tables(times: dict) -> str:
    lines = []
    for table in ("closed", "dense", "search"):
        keys = [k for k in times if k[0] == table]
        columns = list(dict.fromkeys(k[2] for k in keys))
        rows = list(dict.fromkeys(k[1] for k in keys))
        first = {"closed": "call", "dense": "system", "search": "search"}[table]
        digits = 2 if table == "closed" else 1  # the closed forms take a few µs
        lines += ["", "| " + " | ".join([first] + [f"`{c}`" if c.isidentifier() else c
                                                   for c in columns]) + " |",
                  "|" + "---|" * (len(columns) + 1)]
        for row in rows:
            lines.append("| " + " | ".join([row] + [cell(times[table, row, c], digits)
                                                     for c in columns]) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--calls", type=int, default=200, help="calls per timed block")
    ap.add_argument("--against", metavar="SRC", help="src/ directory of the version before")
    ap.add_argument("--json", metavar="PATH", help="also write the figures here")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        ap.error("--rounds and --calls must be >= 1")
    mods = [load(args.against, "ri_entropy_against")] if args.against else []
    mods.append(load(None, "ri_entropy"))
    times = measure([cases(m) for m in mods], args.rounds, args.calls)
    env = machine.environment()
    print(f"µs per call, median of {args.rounds} rounds of the best of 3 × {args.calls} calls")
    print(json.dumps(env))
    print(tables(times))
    if args.json:
        versions = ["before", "after"] if args.against else ["this"]
        Path(args.json).write_text(json.dumps({
            "command": " ".join(["python scripts/percall.py", *sys.argv[1:]]),
            "environment": env, "rounds": args.rounds, "calls": args.calls,
            "us_per_call": [{"table": t, "row": r, "column": c,
                             **{v: s for v, s in zip(versions, series)}}
                            for (t, r, c), series in times.items()]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
