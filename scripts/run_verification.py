#!/usr/bin/env python3
"""Run the full closed-form-vs-oracle verification campaign.

For each supported family, draws seeded uniform samples from the state
simplex, computes the closed-form value and the independent convex-
minimization oracle, and reports the worst absolute difference.

Usage:
    python scripts/run_verification.py --samples 1000 --seed 7 --tol 1e-6
"""

import argparse
import sys
import time

from ri_entropy.oracle import CAMPAIGNS, verify_closed_form


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()

    all_ok = True
    for family, param in CAMPAIGNS:
        t0 = time.perf_counter()
        summary = verify_closed_form(family, param, samples=args.samples,
                                     seed=args.seed, tol=args.tol)
        verdict = "PASS" if summary.passed else "FAIL"
        all_ok = all_ok and summary.passed
        print(f"{verdict} {family:8s} param={param:<4} "
              f"max|closed-oracle|={summary.max_abs_diff:.3e} "
              f"({time.perf_counter() - t0:.1f}s)")
        if not summary.passed:
            print(f"     worst input: {summary.worst_input}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
