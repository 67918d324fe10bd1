"""Command-line front end: named experiments, config handling, tables.

Subcommands
    fresnel    closed-form vs numeric oscillatory integrals
    division   build or validate gauge-fine divisions (JSON)
    kernel     closed and sliced propagator values for a query file
    perturb    perturbation partial-sum tables
    exchange   growth table + convergence verdict + comparison table
    selftest   run the acceptance suite

Exit codes: 0 on success, 1 on validation failure, 2 on usage errors.
A config file (JSON) may be named via --config or the GAUGEINT_CONFIG
environment variable; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .cells import Gauge1D, cousin_division, division_from_json, division_to_json, validate_division
from .config import CONFIG_ENV_VAR, FORMAT_VERSION, RunConfig, load_config
from .errors import GaugeIntError
from .propagator import PropagatorQuery
from .reports import (
    exchange_documents,
    fresnel_table,
    kernel_table,
    parse_coefficient,
    parse_potential,
    perturb_table,
    query_from_json_dict,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeint",
        description="Gauge-integration engine and path-integral laboratory.",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help=f"JSON config file (default: ${CONFIG_ENV_VAR} or built-ins)",
    )
    parser.add_argument(
        "--extent", type=float, default=None, help="slice-grid half width"
    )
    parser.add_argument(
        "--points", type=int, default=None, help="slice-grid node count"
    )
    parser.add_argument(
        "--damping", type=float, default=None, help="accepted but unused"
    )
    parser.add_argument("--mass", type=float, default=None, help="particle mass")
    parser.add_argument("--seed", type=int, default=None, help="lab RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fresnel = sub.add_parser(
        "fresnel", help="oscillatory line integrals vs closed forms"
    )
    p_fresnel.add_argument(
        "--c",
        default=None,
        metavar="COEFF",
        help="phase coefficient, e.g. 'i' for the full line of exp(ix^2/2)",
    )
    p_fresnel.add_argument(
        "--tol", type=float, default=None, help="integration tolerance"
    )

    p_div = sub.add_parser(
        "division", help="build or validate gauge-fine divisions"
    )
    group = p_div.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--gauge",
        default=None,
        metavar="SPEC",
        help="gauge spec: const:<delta> or peaked:<k> (delta = k/(1+x^2))",
    )
    group.add_argument(
        "--validate",
        default=None,
        metavar="FILE",
        help="validate an existing division JSON file",
    )
    p_div.add_argument(
        "--out", default=None, metavar="FILE", help="write division JSON here"
    )

    p_kernel = sub.add_parser(
        "kernel", help="closed and sliced propagator values"
    )
    p_kernel.add_argument(
        "--query", required=True, metavar="FILE", help="query JSON file"
    )

    p_perturb = sub.add_parser("perturb", help="perturbation partial sums")
    _add_query_flags(p_perturb)
    p_perturb.add_argument(
        "--mmax", type=int, default=8, help="highest order in the table"
    )

    p_ex = sub.add_parser(
        "exchange", help="growth table, verdict and comparison table"
    )
    _add_query_flags(p_ex)
    p_ex.add_argument(
        "--mmax", type=int, default=12, help="highest order in the table"
    )
    p_ex.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="where growth.csv, comparison.csv, verdict.json are written",
    )

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument(
        "--criterion",
        type=int,
        default=None,
        metavar="N",
        help="run a single criterion (1-8) instead of all",
    )

    return parser


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--V",
        dest="potential",
        default="zero",
        metavar="SPEC",
        help="potential: zero, const:<c> or harmonic:<omega>",
    )
    p.add_argument("--tau", type=float, default=1.0, help="final time")
    p.add_argument("--xi", type=float, default=0.0, help="end point")
    p.add_argument("--xiprime", type=float, default=0.0, help="start point")
    p.add_argument(
        "--slices", type=int, default=None, help="time slices (default: config)"
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    return cfg.with_overrides(
        integrator={
            "damping": args.damping,
            "tol": getattr(args, "tol", None),
        },
        pathint={
            "mass": args.mass,
            "extent": args.extent,
            "points": args.points,
        },
        lab={"seed": args.seed},
    )


def _query_from_args(args: argparse.Namespace, cfg: RunConfig) -> PropagatorQuery:
    slices = args.slices if args.slices is not None else cfg.pathint.slices
    return PropagatorQuery(
        xi_prime=args.xiprime,
        tau_prime=0.0,
        xi=args.xi,
        tau=args.tau,
        slices=slices,
        potential=parse_potential(args.potential),
    )


def _build_gauge(spec: str) -> Gauge1D:
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    if name == "const":
        d = float(arg)
        return Gauge1D(lambda x: d)
    if name == "peaked":
        k = float(arg)

        def delta(x: float) -> float:
            if math.isinf(x):
                return k
            return k / (1.0 + x * x)

        return Gauge1D(delta)
    raise ValueError(f"unknown gauge spec {spec!r}; use const:<d> or peaked:<k>")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _cmd_fresnel(args, cfg: RunConfig) -> int:
    c = parse_coefficient(args.c) if args.c is not None else None
    tol = args.tol if args.tol is not None else cfg.integrator.tol
    sys.stdout.write(fresnel_table(c, tol))
    return 0


def _cmd_division(args, cfg: RunConfig) -> int:
    if args.validate is not None:
        text = Path(args.validate).read_text(encoding="utf-8")
        division = division_from_json(text)
        report = validate_division(division)
    else:
        gauge = _build_gauge(args.gauge)
        division = cousin_division(gauge)
        report = validate_division(division, gauge)
        text = division_to_json(division)
        if args.out is not None:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            sys.stdout.write(text + "\n")
    doc = {
        "format_version": FORMAT_VERSION,
        "items": len(division),
        "valid": report.ok,
        "violations": [
            {"kind": v.kind, "detail": v.detail, "index": v.index}
            for v in report.violations
        ],
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if report.ok else 1


def _cmd_kernel(args, cfg: RunConfig) -> int:
    doc = json.loads(Path(args.query).read_text(encoding="utf-8"))
    q = query_from_json_dict(doc)
    sys.stdout.write(kernel_table(q, cfg))
    return 0


def _cmd_perturb(args, cfg: RunConfig) -> int:
    q = _query_from_args(args, cfg)
    if args.mmax < 0:
        raise ValueError("--mmax must be nonnegative")
    sys.stdout.write(perturb_table(q, args.mmax, cfg))
    return 0


def _cmd_exchange(args, cfg: RunConfig) -> int:
    q = _query_from_args(args, cfg)
    if args.mmax < 0:
        raise ValueError("--mmax must be nonnegative")
    docs = exchange_documents(q, args.mmax, cfg)
    out_dir = Path(args.output_dir if args.output_dir is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    sys.stdout.write(docs["verdict.json"])
    sys.stderr.write(
        "wrote " + ", ".join(str(out_dir / name) for name in sorted(docs)) + "\n"
    )
    return 0


def _cmd_selftest(args, cfg: RunConfig) -> int:
    from .acceptance import ALL_CRITERIA, format_line

    if args.criterion is not None:
        if not 1 <= args.criterion <= len(ALL_CRITERIA):
            raise ValueError(
                f"--criterion must be between 1 and {len(ALL_CRITERIA)}"
            )
        chosen = [ALL_CRITERIA[args.criterion - 1]]
    else:
        chosen = list(ALL_CRITERIA)
    all_passed = True
    for criterion in chosen:
        result = criterion(cfg)
        sys.stdout.write(format_line(result) + "\n")
        sys.stdout.flush()
        all_passed = all_passed and result.passed
    return 0 if all_passed else 1


_HANDLERS = {
    "fresnel": _cmd_fresnel,
    "division": _cmd_division,
    "kernel": _cmd_kernel,
    "perturb": _cmd_perturb,
    "exchange": _cmd_exchange,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](args, cfg)
    except (GaugeIntError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"gaugeint {args.command}: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
