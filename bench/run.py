#!/usr/bin/env python3
"""Benchmark of ri-entropy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of closed_form_sweep, oracle_dense; `all` runs the two in
turn.  With --trace 0 the run reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each
run also writes its figures and the machine, Python, numpy and BLAS
versions to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import machine

# one BLAS thread here and in every child process, set before numpy is imported
machine.pin_blas_threads()

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import worker  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("closed_form_sweep", "oracle_dense")
CLI_LAYER_WORKLOAD = "closed_form_sweep"  # its traced runs also measure the cli layer
SETUP_SAMPLES = 21         # fresh processes whose set-up times give the median
CLI_IMPORT = ("import time; t = time.perf_counter(); import ri_entropy.cli; "
              "print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 150
REF_UNIT_US = worker.REF_UNIT_NS / 1e3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args):
    """Run one child process to its end; return (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def run_worker(job: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {job['workload']} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(job: dict, samples: int) -> list:
    """Set-up times (scaled and raw) of fresh processes that stop after the warm-up."""
    return [run_worker({**job, "mode": "setup"}) for _ in range(samples)]


def cli_import_times(samples: int) -> list:
    times = []
    for _ in range(samples):
        rc, out, err, _ = run_child([sys.executable, "-c", CLI_IMPORT])
        if rc != 0:
            raise RuntimeError(f"import ri_entropy.cli failed:\n{err}")
        times.append(float(out.strip()))
    return times


# ---------------------------------------------------------------------------
# workloads


def make_job(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    import inputs
    job = {"workload": workload, "mode": "run", "seconds": seconds, "trace": trace, "seed": seed,
           "warm_up": inputs.warm_up(workload), "states_per_op": 1}
    if workload == "closed_form_sweep":
        rounds = inputs.sweep_rounds(seed)
    else:
        rounds = inputs.oracle_dense_rounds(seed)
        # a campaign counts its samples, a dense chain its one state
        job["states_per_op"] = sum(s.get("samples", 1) for s in rounds[0]) / len(rounds[0])
        job["check_points"] = inputs.oracle_check_points(seed)
        job["bisect_twice_js"] = list(inputs.DENSE_TWICE_JS)
    job["rounds"] = rounds
    if trace and workload == CLI_LAYER_WORKLOAD:
        job["cli_argv"] = [inputs.cli_argv(s, "alpha" if i % 2 else "normalized")
                           for i, s in enumerate(rounds[0])]
    return job, rounds


def check(workload: str, seed: int, rounds, res: dict) -> tuple[list, int]:
    """Output checks; returns (errors, known-fault failures per round)."""
    import checks
    import inputs
    outputs = res["outputs"]
    if workload == "closed_form_sweep":
        return checks.check_results(seed, rounds, outputs)
    parts = [inputs.split_kinds(specs) + inputs.split_kinds(specs, outs)
             for specs, outs in zip(rounds, outputs)]
    errors = checks.check_campaigns([p[0] for p in parts], [p[2] for p in parts])
    errors += checks.check_optima(inputs.oracle_check_points(seed), res["optima"])
    errors += checks.check_dense([p[1] for p in parts], [p[3] for p in parts],
                                 inputs.DENSE_REF_ROUNDS)
    errors += checks.check_bisection(res["bisection"])
    return errors, 0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    job, rounds = make_job(workload, seed, seconds, trace)
    # set-up samples are taken half before and half after the timed run,
    # so that their median spans the run rather than one moment of it
    before = [] if trace else setup_times(job, SETUP_SAMPLES // 2)
    res = run_worker(job)
    if not trace:
        samples = before + [res] + setup_times(job, SETUP_SAMPLES - 1 - len(before))
        res["setup_s"] = statistics.median(x["setup_s"] for x in samples)
        res["raw_setup_s"] = statistics.median(x["raw_setup_s"] for x in samples)

    errors, fails_per_round = check(workload, seed, rounds, res)
    round_len = len(rounds[0])
    attempted = res["rounds"] * round_len
    if attempted != res["calls"]:
        errors.append(f"{res['calls']} calls for {res['rounds']} rounds of {round_len}")
    failed = res["rounds"] * fails_per_round
    # states over the time inside the timed calls, scaled to the reference
    # host speed; unscaled and over wall time for comparison
    states = attempted * job["states_per_op"]
    states_per_s = states / res["scaled_calls_s"]

    if trace:
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        if workload == CLI_LAYER_WORKLOAD:
            imports = cli_import_times(SETUP_SAMPLES)
            baseline = [run_child([sys.executable, "-c", "import numpy"])[3]
                        for _ in range(SETUP_SAMPLES)]
            metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
            metrics["cli.baseline_process_ms"] = (statistics.median(baseline) * 1e3, "ms")
        else:
            metrics["cli.import_ms"] = (0.0, "ms")
            metrics["cli.baseline_process_ms"] = (0.0, "ms")
    else:
        metrics = {
            "setup_s": (res["setup_s"], "s"),
            "states_per_s": (states_per_s, "states/s"),
            "call_p50_us": (res["call_p50_us"], "us"),
            "call_p99_us": (res["call_p99_us"], "us"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        }
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not errors, "attempted": attempted, "failed": failed,
        "rounds": res["rounds"], "elapsed_s": res["elapsed_s"],
        "unit_us_quartiles": res["unit_us_quartiles"], "raw_setup_s": res["raw_setup_s"],
        "traced_states_per_s": states_per_s if trace else None,
        "unscaled_states_per_s": states / res["calls_s"],
        "wall_states_per_s": states / res["elapsed_s"],
        "spans": res.get("spans"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors[:50], "environment": res["environment"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(summary, indent=1))
    return summary


# ---------------------------------------------------------------------------


def print_summary(s: dict):
    print(f"# {s['workload']}: seed {s['seed']}, {s['seconds']} s, trace {s['trace']}, "
          f"{s['rounds']} rounds in {s['elapsed_s']:.2f} s; calibration unit "
          f"{s['unit_us_quartiles'][2]:.1f} us (median), reference {REF_UNIT_US:.1f} us")
    for name, m in s["metrics"].items():
        print(f"{s['workload']}.{name} = {m['value']:.6g} {m['unit']}")
    print(f"{s['workload']}: attempted {s['attempted']}, failed {s['failed']}, "
          f"correct {str(s['correct']).lower()}")
    for err in s["errors"][:20]:
        print(f"  check failed: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ri_entropy" / "__init__.py").is_file():
        print(f"error: no ri_entropy sources under {SRC}", file=sys.stderr)
        return 2
    # compile the package once, so that no measured process pays for it
    compileall.compile_dir(str(SRC / "ri_entropy"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
