"""Command-line interface.

Subcommands:
  ree       compute E_r / E_Gamma for one state (JSON or text)
  curve     emit CSV curves p -> E_r for the 2(x)N family
  geometry  print vertex / landmark / area-ratio tables for 3(x)N
  verify    run one closed-form-vs-oracle verification campaign, or all of them

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 unsupported spin family, 4 I/O error.  All numbers are emitted with 17
significant digits; infinities appear as the literal string "inf".

The oracle, and with it numpy, is imported only by the commands that run it:
`ree --oracle`, `ree --force-oracle` and `verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .angular import Spin, coupling_range
from .closed_form import (
    REEResult,
    UnsupportedFamilyError,
    _by_family,
    _checked_2xn,
    _ree_3xn,
    _value_2xn,
    ree_2xn,
    separability_threshold,
)
from .geometry import (
    landmark_points,
    polygon_area_ratio,
    ppt_image_vertices,
    ppt_polygon,
    simplex_vertices,
)
from .states import NormalizedCoords, _check_n, _checked_alphas

SCHEMA_VERSION = "ri-entropy/1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4


def format_spin(j: Spin) -> str:
    return f"{j.twice_j}/2" if j.twice_j % 2 else str(j.twice_j // 2)


def _floats(text: str, n: int, label: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{label} needs {n} comma-separated values, got {text!r}")
    return [float(p) for p in parts]


# ---------------------------------------------------------------------------
# JSON emission with fixed float formatting


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if math.isnan(v):
        return '"nan"'
    return format(v, ".17g")


def dumps_record(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps_record(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_record(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _record(command: dict, result: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "result": result}


# ---------------------------------------------------------------------------
# ree


def _result_payload(res: REEResult) -> dict:
    payload = {
        "quantity": res.quantity,
        "value": res.value,
        "region": str(res.region),
        "minimizer_alphas": list(res.minimizer.alphas),
    }
    if res.aux is not None:
        payload["aux"] = {
            res.aux.branch: res.aux.root,
            "t1" if res.aux.branch == "a" else "t2": res.aux.t,
            "minimizer_point": [res.aux.minimizer_point.x, res.aux.minimizer_point.y],
        }
    else:
        payload["aux"] = None
    if res.quantity == "E_Gamma":
        payload["note"] = ("E_Gamma is the minimum over PPT states: a lower bound "
                          "of E_r and an upper bound of distillable entanglement")
    return payload


def cmd_ree(args) -> int:
    j1, j2 = Spin.of(args.j1), Spin.of(args.j2)
    given = [opt for opt in (args.p, args.alpha, args.normalized) if opt is not None]
    if len(given) != 1:
        raise ValueError("provide exactly one of --p, --alpha, --normalized")

    # the point that the closed form and the oracle both evaluate, as given:
    # (0, (j2, p)) of a 2(x)N state, (1, (N, x, y)) of a 3(x)N state
    if args.p is not None:
        if j1.twice_j != 1:
            raise ValueError("--p applies to the 2(x)N family (j1 = 1/2) only")
        family, point = 0, (j2, _checked_2xn(j2, args.p))
    elif args.alpha is not None:
        if j2.twice_j < j1.twice_j:  # first, as ree_dispatch refuses it
            raise ValueError("expected j2 >= j1")
        alphas = _floats(args.alpha, len(coupling_range(j1, j2)), "--alpha")
        family, point = _by_family(j1, j2, _checked_alphas(j1, j2, alphas)[0],
                                   lambda *a: (0, a), lambda *a: (1, a))
    else:
        if j1.twice_j != 2:
            raise ValueError("--normalized applies to 3(x)N systems (j1 = 1) only")
        coords = NormalizedCoords(*_floats(args.normalized, 2, "--normalized"))
        family, point = 1, (_check_n(j2.dim), coords.ahat_lo, coords.ahat_mid)

    command = {"name": "ree", "j1": format_spin(j1), "j2": format_spin(j2),
               "p": args.p, "alpha": args.alpha, "normalized": args.normalized,
               "oracle": bool(args.oracle), "force_oracle": bool(args.force_oracle)}

    if args.oracle or args.force_oracle:
        from .oracle import _polygon_report, minimize_kl_over_interval
        report = (minimize_kl_over_interval, _polygon_report)[family](*point)
    if args.force_oracle:
        result = {"quantity": "oracle_min", **_report_payload(report)}
    else:
        res = (ree_2xn, _ree_3xn)[family](*point)
        result = _result_payload(res)
        if args.oracle:
            result["oracle"] = {**_report_payload(report),
                                "abs_diff": abs(report.optimum_value - res.value)}

    _emit(_record(command, result), args.format)
    return EXIT_OK


def _report_payload(report) -> dict:
    return {"value": report.optimum_value, "optimum_point": list(report.optimum_point),
            "iterations": report.iterations, "converged": report.converged}


def _emit(record: dict, fmt: str, name: str | None = None):
    if fmt == "json":
        print(dumps_record(record))
    else:
        _emit_text(record["result"], indent="", key=name)


def _emit_text(obj, indent: str, key: str | None = None):
    label = f"{key}: " if key else ""
    if isinstance(obj, dict):
        if key:
            print(f"{indent}{key}:")
            indent += "  "
        for k, v in obj.items():
            _emit_text(v, indent, k)
    elif isinstance(obj, (list, tuple)):
        print(f"{indent}{label}" + ", ".join(
            _fmt_float(v).strip('"') if isinstance(v, float) else str(v) for v in obj))
    elif isinstance(obj, float):
        print(f"{indent}{label}{_fmt_float(obj).strip(chr(34))}")
    else:
        print(f"{indent}{label}{obj}")


# ---------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    if args.family != "2xN":
        raise ValueError("only --family 2xN emits curves")
    js = [Spin.of(tok) for tok in args.j_list.split(",")]
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    with open(args.out, "w", newline="") as out:
        out.write("p,j,E_r\n")
        for j in js:
            separability_threshold(j)  # refuses j = 0; each p is in [0, 1]
            for k in range(args.points):
                p = k / (args.points - 1)
                val = _value_2xn(j.twice_j, p)
                out.write(f"{format(p, '.17g')},{format_spin(j)},{format(val, '.17g')}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# geometry


def cmd_geometry(args) -> int:
    N = args.N
    command = {"name": "geometry", "N": N, "table": args.table}
    if args.table == "vertices":
        A, B, C = simplex_vertices(N)
        Ap, Bp, Cp = ppt_image_vertices(N)
        a, d, ap, e = ppt_polygon(N)
        result = {
            "simplex": {"A": list(A), "B": list(B), "C": list(C)},
            "theta2_images": {"A'": list(Ap), "B'": list(Bp), "C'": list(Cp)},
            "ppt_polygon": {"A": list(a), "D": list(d), "A'": list(ap), "E": list(e)},
        }
    elif args.table == "landmarks":
        F, G, H = landmark_points(N)
        result = {"F": list(F), "G": list(G), "H": list(H)}
    else:
        result = {"area_ratio": polygon_area_ratio(N)}
    _emit(_record(command, result), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if (args.family is None) != (args.param is None):
        raise ValueError("give both --family and --param, or neither")
    from .oracle import CAMPAIGNS, verify_closed_form
    campaigns = [(args.family, args.param)] if args.family else [
        (family, format_spin(Spin.of(param)) if family == "2xN" else str(param))
        for family, param in CAMPAIGNS]
    passed = True
    for family, text in campaigns:
        param = Spin.of(text).j if family == "2xN" else int(text)
        summary = verify_closed_form(family, param, samples=args.samples, seed=args.seed,
                                     tol=args.tol)
        command = {"name": "verify", "family": family, "param": text,
                   "samples": args.samples, "seed": args.seed, "tol": args.tol}
        result = {"passed": summary.passed, "max_abs_diff": summary.max_abs_diff,
                  "worst_input": list(summary.worst_input)}
        _emit(_record(command, result), args.format, None if args.family else f"{family} {text}")
        passed = passed and summary.passed
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ri-entropy",
                                     description="Relative entropy of entanglement "
                                                 "for rotationally invariant spin states")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ree", help="compute E_r / E_Gamma for one state")
    p.add_argument("--j1", required=True)
    p.add_argument("--j2", required=True)
    p.add_argument("--p", type=float, default=None,
                   help="lower-block weight (2xN family)")
    p.add_argument("--alpha", default=None, help="comma-separated raw alpha vector")
    p.add_argument("--normalized", default=None,
                   help="barycentric x,y coordinates (3xN family)")
    p.add_argument("--oracle", action="store_true",
                   help="append the oracle cross-check to the output")
    p.add_argument("--force-oracle", action="store_true",
                   help="report the oracle minimization instead of the closed form")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_ree)

    p = sub.add_parser("curve", help="emit CSV curves for the 2xN family")
    p.add_argument("--family", default="2xN")
    p.add_argument("--j-list", default="1/2,1,3/2")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("geometry", help="vertex / landmark / area-ratio tables")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--table", choices=("vertices", "landmarks", "area-ratio"),
                   default="vertices")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("verify", help="closed-form vs oracle campaigns")
    p.add_argument("--family", choices=("2xN", "3x3", "3xN-odd", "3xN-even"),
                   help="with --param, the one campaign to run; without both, all run")
    p.add_argument("--param", help="j for 2xN, N otherwise")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    # accepted and ignored, so that command lines written for the former
    # grid-search oracle keep their exit code and output
    p.add_argument("--grid", type=int, default=200, help=argparse.SUPPRESS)
    p.add_argument("--iters", type=int, default=40, help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    return parser


# argparse takes a token that starts with '-' and is not a plain number for
# an option, so '--alpha -1e-13,0.9,0.4' would lose its value; such a value
# of a comma-separated option is attached with '=' before parsing
_LIST_OPTIONS = ("--alpha", "--normalized")
_DASH_VALUE = re.compile(r"-\.?\d")


def _attach_dash_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and _DASH_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UnsupportedFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
