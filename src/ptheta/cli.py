"""Command-line front end: eval | zeros | spectrum | separate | trace | verify.

Exit codes: 0 success, 1 claim violation, 2 usage error, 3 numerical failure
(indeterminate or unconverged).  Output format defaults to a table on a
terminal and JSON when piped; all floats carry 17 significant digits.
THETA_MAX_N caps the truncation order of the direct series and of the tail G
(Theta* is summed by Jacobi's imaginary transformation and has no order).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .certified import DEFAULT_TOL
from .claims import RunConfig, run_all
from .core import theta_certified
from .errors import DomainError, PThetaError
from .separation import separating_line
from .spectrum import spectral_point
from .zeros import Disk, complex_zeros, real_zeros, track_zeros

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise DomainError(f"cannot parse {text!r} as a number") from exc


def _parse_range(text: str):
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise DomainError(f"range must be lo:hi:steps, got {text!r}") from exc
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _pick_format(args) -> str:
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tol(args) -> float:
    if not 1e-15 <= args.tol <= 1e-3:
        raise DomainError("tol must lie in [1e-15, 1e-3]")
    return args.tol


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ptheta",
        description="Certified evaluation and zero tracking for the partial "
                    "theta function",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", choices=("json", "csv", "table"))
        sp.add_argument("--output", help="write to this path instead of stdout")

    def common(sp):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        output(sp)

    e = sub.add_parser("eval", help="evaluate the function with an error bound")
    e.add_argument("--q", type=float)
    e.add_argument("--q-range", help="lo:hi:steps sweep over q")
    e.add_argument("--x", required=True, help="real or complex, e.g. -6 or 1+2j")
    common(e)

    z = sub.add_parser("zeros", help="real zeros in an interval or all zeros in a disk")
    z.add_argument("--q", type=float, required=True)
    z.add_argument("--x-min", type=float)
    z.add_argument("--x-max", type=float)
    z.add_argument("--complex", action="store_true", help="search a disk instead")
    z.add_argument("--radius", type=float, default=5.0)
    z.add_argument("--n-override", type=int,
                   help="study an explicit truncation order")
    common(z)

    s = sub.add_parser("spectrum", help="double-zero parameter values")
    s.add_argument("--case", choices=("A", "B"), required=True)
    s.add_argument("--k", type=int, required=True)
    common(s)

    sep = sub.add_parser("separate", help="separating line for a given q")
    sep.add_argument("--q", type=float, required=True)
    sep.add_argument("--kind", choices=("separating", "left", "right"))
    common(sep)

    t = sub.add_parser("trace", help="continuation trace of zeros over q")
    t.add_argument("--q-from", type=float, required=True)
    t.add_argument("--q-to", type=float, required=True)
    t.add_argument("--steps", type=int, default=50)
    t.add_argument("--seed-x", help="comma-separated starting zeros at q-from")
    t.add_argument("--auto-pair", type=int,
                   help="track the k-th rightmost real-zero pair")
    common(t)

    v = sub.add_parser("verify", help="run the named-claim suite")
    v.add_argument("--suite", default="all",
                   help="all | case-a | case-b | comma-separated claim ids")
    v.add_argument("--identity-samples", type=int, default=2000)
    # every claim fixes its own tolerance, so verify takes no --tol
    output(v)
    return p


def cmd_eval(args) -> int:
    tol = _tol(args)
    x = _parse_complex(args.x)
    if (args.q is None) == (args.q_range is None):
        raise DomainError("provide exactly one of --q / --q-range")
    qs = [args.q] if args.q is not None else _parse_range(args.q_range)
    rows = []
    for q in qs:
        cv = theta_certified(q, x, tol)
        v = complex(cv.value)
        rows.append((q, x.real, x.imag, v.real, v.imag, cv.err))
    fmt = _pick_format(args)
    if fmt == "json":
        payload = [
            {"q": q, "x": {"re": xr, "im": xi},
             "value": {"re": vr, "im": vi}, "err": err, "tol": tol}
            for q, xr, xi, vr, vi, err in rows
        ]
        _emit(args, serialize.to_json(payload if len(payload) > 1 else payload[0]) + "\n")
    else:
        cols = ("q", "re_x", "im_x", "re_value", "im_value", "err")
        text = (serialize.write_csv(rows, cols) if fmt == "csv"
                else serialize.table(cols, rows))
        _emit(args, text)
    return EXIT_OK


def cmd_zeros(args) -> int:
    tol = _tol(args)
    if args.complex:
        records = complex_zeros(args.q, Disk(0.0, args.radius), tol,
                                n_override=args.n_override)
    else:
        if args.x_min is None or args.x_max is None:
            raise DomainError("--x-min and --x-max are required without --complex")
        records = real_zeros(args.q, args.x_min, args.x_max, tol)
    fmt = _pick_format(args)
    if fmt == "json":
        _emit(args, serialize.to_json(serialize.zero_dicts(records)) + "\n")
    elif fmt == "csv":
        _emit(args, serialize.zeros_to_csv(records))
    else:
        _emit(args, serialize.table(serialize.ZERO_COLUMNS,
                                    serialize.zero_rows(records)))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    tol = _tol(args)
    point = spectral_point(args.case, args.k, tol)
    fmt = _pick_format(args)
    if fmt == "json":
        payload = {
            "case": point.case, "k": point.k, "q_star": point.q_star,
            "y": point.y, "character": point.character,
            "residual_theta": point.residual_theta,
            "residual_theta_x": point.residual_theta_x,
        }
        _emit(args, serialize.to_json(payload) + "\n")
    elif fmt == "csv":
        _emit(args, serialize.spectral_to_csv([point]))
    else:
        _emit(args, serialize.table(serialize.SPECTRAL_COLUMNS,
                                    serialize.spectral_rows([point])))
    return EXIT_OK


def cmd_separate(args) -> int:
    tol = _tol(args)
    kind = args.kind or ("separating" if args.q > 0 else "left")
    res = separating_line(args.q, kind, tol)
    fmt = _pick_format(args)
    if fmt == "json":
        _emit(args, serialize.to_json(serialize.separation_dict(res)) + "\n")
    else:
        rows = [(res.q, res.kind, res.a, res.margin, res.degenerate,
                 len(res.left), len(res.right))]
        cols = ("q", "kind", "a", "margin", "degenerate", "n_left", "n_right")
        text = (serialize.write_csv(rows, cols) if fmt == "csv"
                else serialize.table(cols, rows))
        _emit(args, text)
    return EXIT_OK


def cmd_trace(args) -> int:
    tol = _tol(args)
    if (args.seed_x is None) == (args.auto_pair is None):
        raise DomainError("provide exactly one of --seed-x / --auto-pair")
    if args.seed_x:
        seeds = [complex(s) for s in args.seed_x.split(",")]
    else:
        k = args.auto_pair
        scan = 3.0 * abs(args.q_from) ** (-2 * k)
        found = real_zeros(args.q_from, -scan, scan, tol=1e-10)
        by_right = sorted((r for r in found if r.x.real < 0), key=lambda r: -r.x.real)
        if len(by_right) < 2 * k:
            raise DomainError(f"could not seed pair {k} at q={args.q_from}")
        seeds = [by_right[2 * k - 2].x, by_right[2 * k - 1].x]
    max_step = abs(args.q_to - args.q_from) / max(args.steps, 1)
    trajs = track_zeros(seeds, args.q_from, args.q_to, max_step=max_step, tol=tol)
    fmt = _pick_format(args)
    if fmt == "json":
        payload = [
            {"zero_id": i, "q": t.q_grid, "re_x": [p.real for p in t.points],
             "im_x": [p.imag for p in t.points], "collision_q": t.collision_q}
            for i, t in enumerate(trajs)
        ]
        _emit(args, serialize.to_json(payload) + "\n")
    elif fmt == "table":
        _emit(args, serialize.table(serialize.TRACE_COLUMNS,
                                    serialize.trace_rows(trajs)))
    else:
        _emit(args, serialize.trace_to_csv(trajs))
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = args.suite.lower()
    if suite == "all":
        config = RunConfig(identity_samples=args.identity_samples)
    elif suite in ("case-a", "case-b"):
        config = RunConfig(cases=("A",) if suite == "case-a" else ("B",),
                           identity_samples=args.identity_samples)
    else:
        config = RunConfig(include=tuple(s.strip() for s in args.suite.split(",")),
                           identity_samples=args.identity_samples)
    reports = run_all(config)
    fmt = _pick_format(args)
    if fmt == "json":
        _emit(args, serialize.to_json([serialize.claim_dict(r) for r in reports]) + "\n")
    else:
        cols = ("id", "status", "worst_margin")
        rows = [(r.id, r.status, r.worst_margin) for r in reports]
        text = (serialize.write_csv(rows, cols) if fmt == "csv"
                else serialize.table(cols, rows))
        _emit(args, text)
    if any(r.status == "violated" for r in reports):
        return EXIT_VIOLATION
    if any(r.status == "indeterminate" for r in reports):
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "eval": cmd_eval,
        "zeros": cmd_zeros,
        "spectrum": cmd_spectrum,
        "separate": cmd_separate,
        "trace": cmd_trace,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PThetaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
