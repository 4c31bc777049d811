"""Command-line surface: every computation as a reproducible, scriptable command.

All numeric output is JSON (scalars included) except ``curves``, which emits
CSV with header ``r,value,label``.  Floats are rounded to a fixed number of
significant digits (--precision, default 9) with locale-independent
formatting, so identical commands produce byte-identical output.  Exit
codes: 0 success, 1 verification, domain or runtime failure, 2 usage error.

The Monte Carlo subcommand fits its repetitions together as array lanes,
and its reports are deterministic per (seed, M, R).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import acceptance, analysis, bloch, coding, estimator, infogeo, povm

_FIGURES = {
    1: "scaled Gill-Massar traces, N=4..7",
    2: "redundancy terms: (1/2)log I_q(r) vs (1/2)log(64/(1-r^2))",
    3: "metric profiles g(s) fitted from N=2, 4, 6",
    4: "spherical (1,1) Fisher entries divided by N",
    5: "Yuen-Lax traces scaled by N-1",
    6: "quasi-Bures traces scaled by their pure-state values",
}


def _round_floats(obj, precision):
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit(args, payload, write=None):
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if write is not None:
            write(out)
        else:
            json.dump(_round_floats(payload, args.precision), out, sort_keys=True)
            out.write("\n")
    finally:
        if args.output:
            out.close()


def _parse_point(text) -> bloch.BlochCartesian:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
        return bloch.BlochCartesian(x, y, z)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(lo: int, hi: int | None = None):
    """argparse type: an integer no smaller than ``lo`` (and no larger than ``hi``)."""
    def integer(text):  # argparse names the function in "invalid integer value"
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value
    return integer


def _scalar(text):
    """argparse type: a finite float of magnitude at most analysis.MAX_SCALAR."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if abs(value) > analysis.MAX_SCALAR:
        raise argparse.ArgumentTypeError(
            f"must be within +-{analysis.MAX_SCALAR:g}, got {text}")
    return value


_scalar.__name__ = "float"  # argparse names the type in "invalid float value"

#: most points per curve for ``curves --grid``.  The rows stream to the output:
#: 100,000 peak at 36-43 MB of RSS (figure 6, the largest, at 43 MB) and take
#: 0.8-1.9 s per figure on a 2-core host; 1,000,000 took 9-11 s and 92 MB (figure 1)
MAX_GRID = 100_000


def _matrix_payload(m: bloch.InfoMatrix) -> dict:
    return {"coords": m.coords, "matrix": m.entries.tolist()}


def cmd_helstrom(args):
    if args.spherical:
        s = bloch.to_spherical(args.point)
        payload = {"point_spherical": [s.r, s.theta, s.phi],
                   **_matrix_payload(infogeo.helstrom_spherical(s))}
    else:
        payload = {"point": [args.point.x, args.point.y, args.point.z],
                   **_matrix_payload(infogeo.helstrom_cartesian(args.point))}
    _emit(args, payload)
    return 0


def cmd_fisher(args):
    payload = {"n": args.n, "point": [args.point.x, args.point.y, args.point.z],
               **_matrix_payload(povm.fisher_closed_form(args.n, args.point))}
    _emit(args, payload)
    return 0


def cmd_gm_trace(args):
    s = bloch.BlochSpherical(args.r, args.theta, args.phi)
    value = analysis.gm_trace(args.metric, args.n, bloch.to_cartesian(s))
    _emit(args, value)
    return 0


def cmd_dominance(args):
    region = (0.0, args.rmax)
    scalar = args.scalar if args.scalar is not None else \
        analysis.min_dominating_scalar(args.n, region)
    report = analysis.scan_dominance(args.n, scalar, region)
    _emit(args, report.to_json())
    return 0


def cmd_bound_radius(args):
    _emit(args, analysis.dominance_boundary_radius())
    return 0


def cmd_volume(args):
    _emit(args, analysis.volume_integral(args.n, analysis.QuadratureSpec(order=args.order)))
    return 0


def cmd_curves(args):
    grid_n = args.grid
    interior = np.linspace(0.5 / grid_n, 1.0 - 0.5 / grid_n, grid_n)
    if args.figure == 1:
        tables = analysis.curve_sample("gm_scaled", (4, 5, 6, 7),
                                       np.linspace(0.0, 1.0, grid_n))
    elif args.figure == 2:
        q = [0.5 * math.log(coding.quantum_info_scalar(r)) for r in interior]
        c = [0.5 * math.log(64.0 / ((1.0 - r) * (1.0 + r))) for r in interior]
        tables = [analysis.CurveTable(interior, q, "half_log_Iq"),
                  analysis.CurveTable(interior, c, "half_log_classical")]
    elif args.figure == 3:
        s_grid = np.arange(1, grid_n + 1) / grid_n  # (0, 1]
        tables = analysis.curve_sample("g_functions", (2, 4, 6), s_grid)
    elif args.figure == 4:
        tables = analysis.curve_sample("entry11_over_N", (2, 4, 6), interior)
    elif args.figure == 5:
        tables = analysis.curve_sample("yl_scaled", (2, 4, 6),
                                       np.linspace(0.0, 1.0, grid_n))
    else:
        tables = analysis.curve_sample("qb_scaled", (2, 4, 6), interior)
    _emit(args, None, lambda out: analysis.write_curves_csv(tables, out, args.precision))
    return 0


def cmd_coding(args):
    if args.prior == "jeffreys":
        s = bloch.BlochSpherical(args.r, analysis.THETA0, analysis.PHI0)
        value = coding.classical_redundancy(args.N, s, coding.JEFFREYS)
        domain = "classical"
    else:
        value = coding.quantum_redundancy(args.N, args.r, coding.QUASI_BURES_PRIOR)
        domain = "quantum"
    units = "nats"
    if args.bits:
        value = coding.nats_to_bits(value)
        units = "bits"
    _emit(args, {"prior": args.prior, "domain": domain, "N": args.N, "r": args.r,
                 "redundancy": value, "units": units})
    return 0


def cmd_normalize(args):
    payload = {"prior": args.prior,
               "integral": coding.prior_normalization(args.prior)}
    if args.prior == "quasi-bures":
        payload["constant_tabulated"] = coding.QUASI_BURES_CONSTANT
        payload["constant_quadrature"] = coding.quasi_bures_constant_quadrature()
    _emit(args, payload)
    return 0


def cmd_mc(args):
    model = infogeo.quadrinomial_model() if args.n == "quad" else povm.vidal_model(int(args.n))
    run = estimator.EstimationRun(model, args.truth, args.M, args.R, args.seed)
    _emit(args, estimator.efficiency_report(run).to_json())
    return 0


def cmd_verify_all(args):
    results = acceptance.run_all(args.ids)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status} [{res.check_id:>2}] {res.title}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed or not results else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qig",
        description="Information geometry of optimal joint measurements on "
                    "copies of two-level quantum systems.")
    parser.add_argument("--output", help="write output to a file instead of stdout")
    parser.add_argument("--precision", type=_at_least(1), default=9,
                        help="significant digits in numeric output (default 9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("helstrom", help="Helstrom information matrix at a state")
    p.add_argument("--point", type=_parse_point, required=True, metavar="X,Y,Z")
    p.add_argument("--spherical", action="store_true",
                   help="emit the diagonal spherical form (x-polar chart)")
    p.set_defaults(fn=cmd_helstrom)

    p = sub.add_parser("fisher", help="closed-form Fisher matrix of the optimal "
                                      "N-copy measurement")
    p.add_argument("--n", type=int, choices=povm.SUPPORTED_MATRICES, required=True)
    p.add_argument("--point", type=_parse_point, required=True, metavar="X,Y,Z")
    p.set_defaults(fn=cmd_fisher)

    p = sub.add_parser("gm-trace", help="trace(G(metric)^-1 F_N) at a state")
    p.add_argument("--metric", choices=("helstrom", "yuen-lax", "quasi-bures"),
                   required=True)
    p.add_argument("--n", type=int, choices=povm.SUPPORTED_MATRICES, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=math.pi / 2,
                   help="x-polar colatitude (default pi/2; odd-N non-Helstrom "
                        "traces depend on it)")
    p.add_argument("--phi", type=float, default=math.pi / 4,
                   help="azimuth (default pi/4)")
    p.set_defaults(fn=cmd_gm_trace)

    p = sub.add_parser("dominance", help="scan c*H_q - F_N >= 0 over a radial region")
    p.add_argument("--n", type=int, choices=povm.SUPPORTED_MATRICES[1:], required=True)
    p.add_argument("--rmax", type=float, default=0.999)
    p.add_argument("--scalar", type=_scalar,
                   help=f"scalar c to test, |c| <= {analysis.MAX_SCALAR:g} "
                        "(default: smallest dominating c)")
    p.set_defaults(fn=cmd_dominance)

    p = sub.add_parser("bound-radius",
                       help="radius above which 4.99*H_q stops dominating F_6")
    p.set_defaults(fn=cmd_bound_radius)

    p = sub.add_parser("volume", help="integral of sqrt(det F_N) over the ball")
    p.add_argument("--n", type=int, choices=povm.SUPPORTED_MATRICES, required=True)
    spec = analysis.QuadratureSpec
    p.add_argument("--order", type=_at_least(spec.MIN_ORDER, spec.MAX_ORDER), default=48,
                   help=f"quadrature order ({spec.MIN_ORDER}..{spec.MAX_ORDER})")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("curves", help="figure data as CSV (r,value,label)")
    p.add_argument("--figure", type=int, choices=tuple(_FIGURES), required=True,
                   help="; ".join(f"{k}: {v}" for k, v in _FIGURES.items()))
    p.add_argument("--grid", type=_at_least(2, MAX_GRID), default=200,
                   help=f"points per curve (2..{MAX_GRID})")
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("coding", help="Clarke-Barron style redundancy (nats)")
    p.add_argument("--prior", choices=("jeffreys", "quasi-bures"), required=True)
    p.add_argument("--N", type=int, required=True, help="sequence length")
    p.add_argument("--r", type=float, default=0.5,
                   help="radial coordinate (default 0.5; Jeffreys classical "
                        "redundancy is point-independent)")
    p.add_argument("--bits", action="store_true", help="report bits instead of nats")
    p.set_defaults(fn=cmd_coding)

    p = sub.add_parser("normalize", help="integral of a prior over the ball")
    p.add_argument("--prior", choices=("jeffreys", "quasi-bures"), required=True)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("mc", help="Monte Carlo Cramer-Rao efficiency report")
    p.add_argument("--n", choices=("2", "3", "quad"), required=True,
                   help="measurement model: optimal 2- or 3-copy, or quadrinomial")
    p.add_argument("--truth", type=_parse_point, required=True, metavar="X,Y,Z")
    p.add_argument("--M", type=int, required=True, help="outcomes per repetition")
    p.add_argument("--R", type=int, required=True, help="repetitions")
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("verify-all", help="run the acceptance checks and print a ledger")
    p.add_argument("--ids", nargs="+", metavar="ID",
                   choices=[check_id for check_id, _, _ in acceptance.CHECKS],
                   help="run only these check ids")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
