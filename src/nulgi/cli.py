"""Command line front end.

Four subcommands: curve (model survival table), simulate (synthetic
spectrum), triples (tuple selection only: analyze's tuples.csv and
points.csv), analyze (full significance run). Settings merge in fixed
precedence: package defaults, then the JSON config file named by --config,
then explicit flags. No environment variable is read.

Exit codes: 0 success, 2 unusable input data, 3 bad configuration or
out-of-domain argument (an unknown flag or subcommand, a flag value of the
wrong type and a selection past the tuple budget among them), 4 analysis
ran but no tuples satisfied the sum rule.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .dataio import emit_report, write_dataset_csv
from .errors import DataError, DomainError, check_budget
from .montecarlo import REPLICA_BYTES, PseudoConfig
from .oscillation import OscParams
from .pipeline import RunConfig, curve_columns, run_analysis, run_triples, violation_count
from .synthetic import TRUTH_MODES, generate_synthetic

EXIT_OK = 0
EXIT_DATA = 2
EXIT_DOMAIN = 3
EXIT_NO_TUPLES = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_DOMAIN, as a bad setting in a config file
    does; the subcommands' parsers take this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _load_json_object(source: str) -> dict:
    """Parse inline JSON (starts with '{') or a JSON file path."""
    text = source.strip()
    label = "inline JSON"
    if not text.startswith("{"):
        path = Path(source)
        label = str(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise DomainError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{label}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError(f"{label}: expected a JSON object")
    return obj


def _fields(schema) -> set:
    return {f.name for f in dataclasses.fields(schema)}


def _reject_unknown(given, schema, what: str) -> None:
    if not isinstance(given, dict):
        raise DomainError(f"{what} must be a JSON object")
    unknown = sorted(set(given) - _fields(schema))
    if unknown:
        raise DomainError(f"unknown {what} keys: {', '.join(unknown)}")


def _construct(schema, kw: dict, what: str):
    """schema(**kw), its errors prefixed with the group they came from."""
    try:
        return schema(**kw)
    except (TypeError, DomainError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Config keys are RunConfig's fields; params and pseudo hold OscParams' and
    PseudoConfig's. A flag's dest is the field it sets. Any other key is refused.
    """
    cfg = _load_json_object(args.config) if args.config else {}
    _reject_unknown(cfg, RunConfig, "config")
    if args.params:
        cfg["params"] = _load_json_object(args.params)
    if cfg.get("params") is None:
        raise DomainError(
            "oscillation parameters are required: pass --params or a config "
            "file with a 'params' object"
        )
    params = cfg.pop("params")
    _reject_unknown(params, OscParams, "params")
    params = _construct(OscParams, params, "params")

    pseudo = cfg.pop("pseudo", {})
    _reject_unknown(pseudo, PseudoConfig, "pseudo")
    into = {name: pseudo for name in _fields(PseudoConfig)}
    into.update((name, cfg) for name in _fields(RunConfig) - {"params"})
    for dest, value in vars(args).items():
        if value is not None and dest in into:
            into[dest][dest] = value
    pseudo = _construct(PseudoConfig, pseudo, "pseudo")

    for key in ("data", "out_dir"):
        value = cfg.pop(key, None)
        if value is not None:
            if not isinstance(value, (str, os.PathLike)):
                raise DomainError(f"{key} must be a path string, got {value!r}")
            cfg[key] = Path(value)
    return RunConfig(**cfg, params=params, pseudo=pseudo)


def cmd_curve(args: argparse.Namespace) -> int:
    config = _build_config(args)
    curve = curve_columns(config.params, config.e_min_gev, config.e_max_gev, args.points)
    # sys.stdout is looked up here: a caller may have redirected it.
    out = args.out if args.out is not None else sys.stdout
    emit_report(curve, out)
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    points = generate_synthetic(
        config.params,
        config.truth,
        config.bins,
        config.e_min_gev,
        config.e_max_gev,
        config.rel_error,
        config.pseudo.seed,
        flat_p=config.flat_p,
    )
    out = args.out if args.out is not None else Path("synthetic.csv")
    write_dataset_csv(points, out)
    print(
        f"wrote {out}: {len(points)} points, truth={config.truth}, "
        f"seed={config.pseudo.seed}"
    )
    return EXIT_OK


def cmd_triples(args: argparse.Namespace) -> int:
    config = _build_config(args)
    table = run_triples(config)
    if not len(table):
        print(
            f"no order-{config.order} tuples at tolerance {config.tolerance}",
            file=sys.stderr,
        )
        return EXIT_NO_TUPLES
    n_viol = violation_count(table)
    print(
        f"{len(table)} tuples, {n_viol} above the bound; "
        f"wrote {Path(config.out_dir) / 'tuples.csv'}"
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    # The null refuses it too, but only after selection has run.
    check_budget("replicas", config.pseudo.replicas, REPLICA_BYTES)
    report = run_analysis(config)
    if report.status == "no_tuples":
        print(
            f"no order-{config.order} tuples at tolerance {config.tolerance}; "
            f"report written to {Path(config.out_dir) / 'report.json'}",
            file=sys.stderr,
        )
        return EXIT_NO_TUPLES

    fit = report.null_fit
    print(f"tuples: {report.n_tuples}")
    print(f"violations observed: {report.n_violations_observed}")
    print(
        f"null: mean {fit.mean_violations:.4f}, sd {fit.sd_violations:.4f} "
        f"({fit.kind}, {fit.n_samples} replicas)"
    )
    print(f"z: {report.z_score:.3f}")
    fitted = report.config.get("fitted_params")
    if fitted is not None:
        print(f"fitted model: dm2 {fitted['dm2']:.6g} eV^2, "
              f"sin2_2theta {fitted['sin2_2theta']:.6g}")
    if report.chi2_quantum is not None:
        print(f"chi2 vs model: {report.chi2_quantum:.2f} / {report.dof} dof")
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"report written to {Path(config.out_dir) / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument(
        "--params",
        help="oscillation parameters: JSON file path or inline JSON object",
    )
    common.add_argument("--out-dir", type=Path, help="artifact directory")

    span = argparse.ArgumentParser(add_help=False)
    span.add_argument(
        "--emin", dest="e_min_gev", metavar="EMIN", type=float, help="lowest energy in GeV"
    )
    span.add_argument(
        "--emax", dest="e_max_gev", metavar="EMAX", type=float, help="highest energy in GeV"
    )

    select = argparse.ArgumentParser(add_help=False)
    select.add_argument("--data", type=Path, help="input spectrum CSV")
    select.add_argument("--order", type=int, help="tuple order n (3 or 4)")
    select.add_argument(
        "--tolerance", type=float, help="phase sum mismatch tolerance"
    )
    select.add_argument(
        "--allow-high-order",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="permit orders above 4",
    )

    parser = _Parser(
        prog="nulgi",
        description=(
            "Macrorealistic bound tests on two-flavor neutrino survival spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser(
        "curve", parents=[common, span], help="tabulate the model survival curve"
    )
    p_curve.add_argument("--points", type=int, default=400, help="rows in the table")
    p_curve.add_argument("--out", type=Path, help="output CSV (default stdout)")
    p_curve.set_defaults(handler=cmd_curve)

    p_sim = sub.add_parser(
        "simulate", parents=[common, span], help="generate a synthetic spectrum"
    )
    p_sim.add_argument("--truth", choices=TRUTH_MODES)
    p_sim.add_argument("--bins", type=int, help="number of spectrum points")
    p_sim.add_argument("--rel-error", type=float, help="relative uncertainty")
    p_sim.add_argument("--seed", type=int, help="generator seed")
    p_sim.add_argument(
        "--flat-p", type=float, help="constant probability for classical_flat"
    )
    p_sim.add_argument(
        "--out", type=Path, help="output CSV (default synthetic.csv)"
    )
    p_sim.set_defaults(handler=cmd_simulate)

    p_tri = sub.add_parser(
        "triples", parents=[common, select], help="select sum-rule tuples only"
    )
    p_tri.set_defaults(handler=cmd_triples)

    p_ana = sub.add_parser(
        "analyze", parents=[common, select], help="full significance analysis"
    )
    p_ana.add_argument("--replicas", type=int, help="pseudo-experiment count")
    p_ana.add_argument("--seed", type=int, help="pseudo-experiment seed")
    p_ana.add_argument(
        "--sys-amplitude-sigma", type=float,
        help="amplitude nuisance width; a positive width draws the nuisances",
    )
    p_ana.add_argument(
        "--sys-phase-sigma", type=float,
        help="phase scale nuisance width; a positive width draws the nuisances",
    )
    p_ana.add_argument(
        "--fit-curve",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="refit the model curve before the chi-square",
    )
    p_ana.set_defaults(handler=cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
