"""Command line front end.

Four subcommands: curve (model survival table), simulate (synthetic
spectrum), triples (tuple selection only), analyze (full significance run).
Settings merge in fixed precedence: package defaults, then the JSON config
file (--config flag or NULGI_CONFIG env var), then explicit flags.

Exit codes: 0 success, 2 unusable input data, 3 bad configuration or
out-of-domain argument, 4 analysis ran but no tuples satisfied the sum rule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .dataio import write_dataset_csv, write_table_csv
from .errors import DataError, DomainError
from .montecarlo import PseudoConfig
from .oscillation import OscParams
from .pipeline import RunConfig, curve_table, run_analysis, run_triples
from .synthetic import TRUTH_MODES, generate_synthetic

CONFIG_ENV = "NULGI_CONFIG"

EXIT_OK = 0
EXIT_DATA = 2
EXIT_DOMAIN = 3
EXIT_NO_TUPLES = 4

_PARAM_KEYS = {"dm2", "sin2_2theta", "baseline_km", "v_c", "v_n"}
_PSEUDO_KEYS = {
    "replicas", "seed", "tolerance", "include_systematics",
    "sys_amplitude_sigma", "sys_phase_sigma",
}
_TOP_KEYS = {
    "params", "pseudo", "mode", "data", "out_dir", "order", "tolerance",
    "mismatch_mode", "truth", "bins", "e_min_gev", "e_max_gev", "rel_error",
    "flat_p", "fit_curve", "allow_high_order",
}
# (cli dest, config key) pairs for scalar settings that pass through unchanged.
_PASSTHROUGH = (
    ("order", "order"),
    ("tolerance", "tolerance"),
    ("mismatch_mode", "mismatch_mode"),
    ("truth", "truth"),
    ("bins", "bins"),
    ("emin", "e_min_gev"),
    ("emax", "e_max_gev"),
    ("rel_error", "rel_error"),
    ("flat_p", "flat_p"),
    ("fit_curve", "fit_curve"),
    ("allow_high_order", "allow_high_order"),
)


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


def _reject_unknown(given: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise DomainError(f"unknown {what} keys: {', '.join(unknown)}")


def _build_config(args: argparse.Namespace, mode: str) -> RunConfig:
    file_cfg: dict = {}
    cfg_source = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if cfg_source:
        file_cfg = _load_json_object(cfg_source)
        _reject_unknown(file_cfg, _TOP_KEYS, "config")

    params_dict = file_cfg.get("params")
    if getattr(args, "params", None):
        params_dict = _load_json_object(args.params)
    if params_dict is None:
        raise DomainError(
            "oscillation parameters are required: pass --params or a config "
            "file with a 'params' object"
        )
    _reject_unknown(params_dict, _PARAM_KEYS, "params")
    try:
        params = OscParams(**params_dict)
    except TypeError as exc:
        raise DomainError(f"params: {exc}") from exc

    pseudo_dict = dict(file_cfg.get("pseudo", {}))
    _reject_unknown(pseudo_dict, _PSEUDO_KEYS, "pseudo")
    for dest, key in (
        ("replicas", "replicas"),
        ("seed", "seed"),
        ("systematics", "include_systematics"),
        ("sys_amplitude_sigma", "sys_amplitude_sigma"),
        ("sys_phase_sigma", "sys_phase_sigma"),
    ):
        value = getattr(args, dest, None)
        if value is not None:
            pseudo_dict[key] = value
    try:
        pseudo = PseudoConfig(**pseudo_dict)
    except TypeError as exc:
        raise DomainError(f"pseudo: {exc}") from exc

    kw: dict = {}
    for key in _TOP_KEYS - {"params", "pseudo", "mode", "data", "out_dir"}:
        if key in file_cfg:
            kw[key] = file_cfg[key]
    for dest, key in _PASSTHROUGH:
        value = getattr(args, dest, None)
        if value is not None:
            kw[key] = value

    data = file_cfg.get("data")
    if getattr(args, "data", None) is not None:
        data = args.data
    out_dir = file_cfg.get("out_dir")
    if getattr(args, "out_dir", None) is not None:
        out_dir = args.out_dir
    if data is not None:
        kw["data"] = Path(data)
    if out_dir is not None:
        kw["out_dir"] = Path(out_dir)

    return RunConfig(params=params, mode=mode, pseudo=pseudo, **kw)


def _emit_rows(header, rows, out: Optional[Path]) -> None:
    if out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    else:
        write_table_csv(out, header, rows)
        print(f"wrote {out}")


def cmd_curve(args: argparse.Namespace) -> int:
    config = _build_config(args, "curve")
    energies, probs = curve_table(
        config.params, config.e_min_gev, config.e_max_gev, args.points
    )
    rows = [(float(e), float(p)) for e, p in zip(energies, probs)]
    _emit_rows(("energy_gev", "p_model"), rows, args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args, "simulate")
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
    config = _build_config(args, "triples")
    if config.data is None:
        raise DomainError("triples requires a dataset: pass --data")
    table = run_triples(config)
    if not len(table):
        print(
            f"no order-{config.order} tuples at tolerance {config.tolerance}",
            file=sys.stderr,
        )
        return EXIT_NO_TUPLES
    n_viol = int(table["violation"].sum())
    print(
        f"{len(table)} tuples, {n_viol} above the bound; "
        f"wrote {Path(config.out_dir) / 'tuples.csv'}"
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args, "analyze")
    if config.data is None:
        raise DomainError("analyze requires a dataset: pass --data")
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
    if report.chi2_quantum is not None:
        print(f"chi2 vs model: {report.chi2_quantum:.2f} / {report.dof} dof")
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"report written to {Path(config.out_dir) / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or set NULGI_CONFIG)")
    common.add_argument(
        "--params",
        help="oscillation parameters: JSON file path or inline JSON object",
    )
    common.add_argument("--out-dir", type=Path, help="artifact directory")

    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--emin", type=float, help="lowest energy in GeV")
    span.add_argument("--emax", type=float, help="highest energy in GeV")

    select = argparse.ArgumentParser(add_help=False)
    select.add_argument("--data", type=Path, help="input spectrum CSV")
    select.add_argument("--order", type=int, help="tuple order n (3 or 4)")
    select.add_argument(
        "--tolerance", type=float, help="phase sum mismatch tolerance"
    )
    select.add_argument("--mismatch-mode", choices=("relative", "absolute"))
    select.add_argument(
        "--allow-high-order",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="permit orders above 4",
    )

    parser = argparse.ArgumentParser(
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
        "--systematics",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="draw correlated nuisance shifts per replica",
    )
    p_ana.add_argument(
        "--sys-amplitude-sigma", type=float, help="amplitude nuisance width"
    )
    p_ana.add_argument(
        "--sys-phase-sigma", type=float, help="phase scale nuisance width"
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
