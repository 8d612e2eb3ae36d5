"""The measured process of one benchmark run.

Reads one job as JSON on stdin and writes one JSON object on stdout.
The set-up clock starts after the job (the benchmark's own inputs) has
been read and before anything of `ri_entropy` or numpy is imported; it
stops after the workload's warm-up.  Set-up time and call latencies are
scaled to a reference host speed by a calibration unit (see REF_UNIT_NS).  In mode "setup" the process stops
there; in mode "run" it goes on to the timed phase, repeating whole
rounds of operations until `seconds` have passed, and then to the
untimed calls the output checks need.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from array import array


def peak_rss_mib() -> float:
    """Peak resident memory of this process image (VmHWM; ru_maxrss where /proc is missing).

    ru_maxrss of a freshly executed process starts from its parent's peak,
    so it would report the benchmark's own launching process instead.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Api:
    """The modules a workload calls; ops look functions up after tracing starts."""

    def __init__(self, workload: str):
        self.workload = workload
        import ri_entropy
        self.angular, self.states = ri_entropy.angular, ri_entropy.states
        self.closed_form, self.oracle = ri_entropy.closed_form, ri_entropy.oracle

    def warm_up(self, specs):
        """The workload's warm-up before its first timed call."""
        for fn, args in BUILD[self.workload](self, specs):
            fn(*args)


def sweep_ops(api: Api, states):
    """One closed-form call per state, through a family function or ree_dispatch."""
    cf, st = api.closed_form, api.states
    Spin, NC = api.angular.Spin, st.NormalizedCoords
    spin = {}

    def sp(t):
        return spin.setdefault(t, Spin(t))

    def lib3(fn, N, x, y):
        return fn(N, NC(x, y))

    ops = []
    for s in states:
        if s["path"] == "dispatch":
            if s["family"] == "2xN":
                j1, j2 = sp(1), sp(s["twice_j"])
            else:
                j1, j2 = sp(2), sp(s["N"] - 1)
            ops.append((cf.ree_dispatch, (j1, j2, tuple(s["alphas"]))))
        elif s["family"] == "2xN":
            ops.append((cf.ree_2xn, (sp(s["twice_j"]), s["p"])))
        else:
            N = s["N"]
            fn = ((lambda _N, c: cf.ree_3x3(c)) if N == 3
                  else cf.ree_3xn_odd if N % 2 else cf.e_gamma_3xn_even)
            ops.append((lib3, (fn, N, s["x"], s["y"])))
    return ops


def verify_ops(api: Api, campaigns):
    """One verify_closed_form campaign per operation, tol 1e-6."""
    def campaign(c):
        return api.oracle.verify_closed_form(c["family"], c["param"], samples=c["samples"],
                                             seed=c["seed"], tol=1e-6)

    return [(campaign, (c,)) for c in campaigns]


def dense_ops(api: Api, states):
    """Per state: dense matrix, PPT eigenvalue, twirl and, if entangled, the dense relative entropy."""
    st, cf, orc, Spin = api.states, api.closed_form, api.oracle, api.angular.Spin

    def chain(j1, j2, alphas):
        state = st.make_ri_state(j1, j2, alphas)
        rho = st.to_density(state)
        lam = orc.ppt_min_eigenvalue(state)
        tw = st.twirl(rho, j1, j2)
        res = cf.ree_dispatch(j1, j2, alphas)
        qre = None
        if res.value > 0.0:
            sigma = st.make_ri_state(j1, j2, res.minimizer.alphas)
            qre = st.quantum_relative_entropy(rho, st.to_density(sigma))
        return lam, tw, res, qre

    ops = []
    for s in states:
        tj1, tj2 = (1, s["twice_j"]) if s["family"] == "2xN" else (2, s["N"] - 1)
        ops.append((chain, (Spin(tj1), Spin(tj2), tuple(s["alphas"]))))
    return ops


def oracle_dense_ops(api: Api, specs):
    """A round's campaigns, then its dense chains."""
    from inputs import split_kinds
    campaigns, states = split_kinds(specs)
    return verify_ops(api, campaigns) + dense_ops(api, states)


BUILD = {"closed_form_sweep": sweep_ops, "oracle_dense": oracle_dense_ops}


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolated percentile of a sorted, non-empty sequence."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


LATENCY_SAMPLES = 1 << 16  # reservoir size: the same memory however many calls a run makes

# Host-speed calibration.  This shared host's speed drifts by 10-15% over
# minutes and swings by up to 1.5x for seconds at a time; a fixed unit of
# work timed between calls tracks it.  Every call latency is scaled by
# REF_UNIT_NS over the unit's time around that call, so the figures are
# the program's time at the reference speed, and a change to the program
# moves them by the same factor as its raw times.
REF_UNIT_NS = 1_000_000    # about the unit's typical time on the reference machine
CALIBRATE_EVERY_NS = 100_000_000
WINDOW_CALLS = 4096        # calls between two calibrations at most


def _unit_work(values, np):
    """The fixed unit: interpreted arithmetic and small numpy element-wise calls (no BLAS)."""
    acc = 0.0
    for i in range(4000):
        acc += (i % 7) * 0.5
    for _ in range(150):
        acc += float(np.log1p(np.exp(-values)).sum())
    return acc


def make_unit():
    import numpy as np
    values = np.linspace(0.0, 1.0, 64)
    return lambda: _unit_work(values, np)


def unit_ns(unit, clock) -> int:
    """Best of three timings of the calibration unit."""
    best = None
    for _ in range(3):
        t = clock()
        unit()
        dt = clock() - t
        best = dt if best is None or dt < best else best
    return best


def timed_phase(rounds_ops, seconds: float, rec=None, seed: int = 0):
    """Repeat whole rounds until `seconds` have passed; keep the first pass's outputs.

    Between calls, every CALIBRATE_EVERY_NS or WINDOW_CALLS calls, the
    calibration unit is timed (outside the timed calls); each window's
    latencies are scaled by REF_UNIT_NS over the mean of the unit's times
    at its two ends.  Scaled latencies go into a fixed-size uniform
    reservoir (Algorithm R), so that a faster program does not show up as
    a larger peak memory.
    """
    clock = time.perf_counter_ns
    unit = make_unit()
    lat = array("d", bytes(8 * LATENCY_SAMPLES))
    pick = random.Random(seed).randrange
    first = [[None] * len(ops) for ops in rounds_ops]
    window = array("q")
    units = [unit_ns(unit, clock)]
    calls_ns = 0.0      # raw time inside the timed calls
    scaled_ns = 0.0     # the same, scaled to the reference speed
    exceptions = 0
    n_rounds = 0
    n_ops = 0

    def close_window():
        nonlocal n_ops, calls_ns, scaled_ns
        units.append(unit_ns(unit, clock))
        scale = REF_UNIT_NS / ((units[-2] + units[-1]) / 2)
        for dt in window:
            v = dt * scale
            if n_ops < LATENCY_SAMPLES:
                lat[n_ops] = v
            else:
                slot = pick(n_ops + 1)
                if slot < LATENCY_SAMPLES:
                    lat[slot] = v
            n_ops += 1
            calls_ns += dt
            scaled_ns += v
        del window[:]

    t0 = w0 = clock()
    deadline = t0 + int(seconds * 1e9)
    while True:
        r = n_rounds % len(rounds_ops)
        keep = n_rounds < len(rounds_ops)
        for i, (fn, args) in enumerate(rounds_ops[r]):
            t = clock()
            try:
                out = fn(*args)
            except ArithmeticError as exc:
                out = exc
                exceptions += 1
            now = clock()
            window.append(now - t)
            if keep:
                first[r][i] = out
            if rec is not None:
                rec.fold()
            if now - w0 >= CALIBRATE_EVERY_NS or len(window) >= WINDOW_CALLS:
                close_window()
                w0 = clock()
        n_rounds += 1
        if clock() >= deadline:
            break
    elapsed = (clock() - t0) / 1e9
    close_window()
    return {"elapsed_s": elapsed, "rounds": n_rounds, "calls": n_ops, "exceptions": exceptions,
            "calls_s": calls_ns / 1e9, "scaled_calls_s": scaled_ns / 1e9,
            "unit_us": [u / 1e3 for u in units],
            "latencies": lat[:min(n_ops, LATENCY_SAMPLES)]}, first


def _record(spec, out):
    """JSON-ready form of one operation's output."""
    if isinstance(out, ArithmeticError):
        return {"error": f"{type(out).__name__}: {out}"}
    if "path" in spec:  # a closed_form_sweep state
        return {"value": out.value, "region": str(out.region),
                "minimizer": list(out.minimizer.alphas)}
    if spec.get("kind") == "campaign":
        return {"passed": bool(out.passed), "max_abs_diff": float(out.max_abs_diff),
                "worst_input": list(out.worst_input), "samples": out.samples}
    lam, tw, res, qre = out
    return {"min_eig": float(lam), "twirl": [float(a) for a in tw.alphas()],
            "value": res.value, "minimizer": list(res.minimizer.alphas),
            "qre": None if qre is None else float(qre)}


def cli_main_self_us(argvs) -> float:
    """Self time of the `cli` functions per in-process `main(argv)` call, in its own traced pass.

    Standard output and error are captured; the exit code is not checked
    (the known-fault states exit with code 2).
    """
    import contextlib
    import io

    import ri_entropy.cli
    from tracer import Recorder
    rec = Recorder().install()
    try:
        main = ri_entropy.cli.main  # the wrapped function
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(list(argv))
            rec.fold()
    finally:
        rec.restore()
    return sum(d["self_ns"] for n, d in rec.totals.items() if n.startswith("cli.")) / 1e3 / len(argvs)


def check_calls(api: Api, workload: str, job: dict) -> dict:
    """Untimed calls whose outputs the checks compare with the reference."""
    from inputs import alphas_2xn
    Spin = api.angular.Spin
    out = {}
    if workload == "oracle_dense":
        optima = []
        for s in job["check_points"]:
            if s["family"] == "2xN":
                rep = api.oracle.minimize_kl_over_interval(Spin(s["twice_j"]), s["p"])
            else:
                rep = api.oracle.minimize_kl_over_polygon(
                    s["N"], api.states.NormalizedCoords(s["x"], s["y"]))
            optima.append({"value": float(rep.optimum_value),
                           "point": [float(c) for c in rep.optimum_point],
                           "converged": bool(rep.converged), "iterations": int(rep.iterations)})
        out["optima"] = optima
        found = {}
        for tj in job["bisect_twice_js"]:
            lo, hi = 0.0, 1.0
            for _ in range(34):  # sign change of the smallest PPT eigenvalue
                mid = (lo + hi) / 2
                state = api.states.make_ri_state(Spin(1), Spin(tj), tuple(alphas_2xn(tj, mid)))
                if api.oracle.ppt_min_eigenvalue(state) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            found[str(tj)] = (lo + hi) / 2
        out["bisection"] = found
    return out


def execute(job: dict) -> dict:
    workload = job["workload"]
    t0 = time.perf_counter()
    api = Api(workload)
    api.warm_up(job["warm_up"])
    raw_setup_s = time.perf_counter() - t0
    # scaled to the reference host speed by the calibration unit timed right after
    setup_s = raw_setup_s * REF_UNIT_NS / unit_ns(make_unit(), time.perf_counter_ns)
    if job["mode"] == "setup":
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}

    rec = None
    if job["trace"]:
        from tracer import Recorder
        rec = Recorder().install()
    try:
        rounds_ops = [BUILD[workload](api, ops) for ops in job["rounds"]]
        stats, first = timed_phase(rounds_ops, job["seconds"], rec, job.get("seed", 0))
    finally:
        if rec is not None:
            rec.restore()
    peak_mib = peak_rss_mib()

    import machine
    lat = sorted(stats.pop("latencies"))
    units = sorted(stats.pop("unit_us"))
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        **stats,
        "unit_us_quartiles": [percentile(units, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)],
        "call_p50_us": percentile(lat, 0.50) / 1e3,
        "call_p99_us": percentile(lat, 0.99) / 1e3,
        "peak_rss_mib": peak_mib,
        "outputs": [[_record(spec, o) for spec, o in zip(specs, outs)]
                    for specs, outs in zip(job["rounds"], first) if outs[0] is not None],
        "environment": machine.environment(),
    }
    result.update(check_calls(api, workload, job))
    if rec is not None:
        from tracer import layer_metrics
        states = job["states_per_op"] * stats["calls"]
        cli_us = cli_main_self_us(job["cli_argv"]) if job.get("cli_argv") else 0.0
        result["layers"] = layer_metrics(rec, states, cli_us)
        result["spans"] = rec.spans
    return result


def main():
    job = json.loads(sys.stdin.read())
    out = execute(job)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
