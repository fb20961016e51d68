"""Command-line interface.

Subcommands::

    lmtsim run <config> [--out DIR]
    lmtsim sweep <config> --axis {Q,n,method} --values v1,v2,... [--out DIR]
    lmtsim spectra {ring,complete} N | spectra file W.csv
    lmtsim plot trace.csv [...] --metric NAME --out plot.svg

Exit codes: 0 on success, 2 for configuration or usage errors, 3 for
runtime failures, including a run whose iterates stopped being finite
(``run`` and ``sweep`` write their outputs first).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness, plotting
from .config import SWEEP_AXES, TOPOLOGY_CHOICES, ConfigError, ExperimentConfig
from .objectives import DatasetError
from .topology import MixingMatrixError

_CONFIG_ERRORS = (ConfigError, DatasetError, MixingMatrixError,
                  FileNotFoundError, ValueError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmtsim",
        description="Decentralized stochastic optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="override output.dir")

    p_sweep = sub.add_parser("sweep", help="sweep one axis of an experiment")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--out", help="override output.dir")

    p_spec = sub.add_parser("spectra", help="print spectral quantities of a topology")
    p_spec.add_argument("kind", choices=TOPOLOGY_CHOICES)
    p_spec.add_argument("arg", help="agent count, or CSV path for kind=file")

    p_plot = sub.add_parser("plot", help="plot metric curves from trace CSVs")
    p_plot.add_argument("traces", nargs="+")
    p_plot.add_argument("--metric", default="grad_norm_avg")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--title")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg = replace(cfg, outdir=args.out)
    table = harness.run_experiment(cfg)
    last = table.rounds - 1
    print(f"method={cfg.method} rounds={table.rounds} "
          f"final grad_norm_avg={table.columns['grad_norm_avg'][last]:.6e} "
          f"final opt_gap_mean={table.columns['opt_gap_mean'][last]:.6e}")
    if cfg.outdir:
        print(f"wrote {cfg.outdir}/trace.csv")
    return _divergence_status([table])


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg = replace(cfg, outdir=args.out)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    tables, summary = harness.run_sweep(cfg, args.axis, values)
    for row in summary["rows"]:
        print(f"{row['axis']}={row['value']}: "
              f"final grad_norm_avg={row['final_grad_norm_avg']:.6e} "
              f"final opt_gap_mean={row['final_opt_gap_mean']:.6e}")
    if "loglog_slope_grad_norm_avg" in summary:
        print(f"loglog slope of final grad_norm_avg vs Q: "
              f"{summary['loglog_slope_grad_norm_avg']:.4f}")
    return _divergence_status(tables)


def _divergence_status(tables) -> int:
    """3 after reporting every diverged run on stderr, else 0."""
    diverged = [t for t in tables if t.diverged_at is not None]
    for table in diverged:
        print(f"runtime error: {table.label} diverged: iterates or metrics not finite "
              f"from round {table.diverged_at}", file=sys.stderr)
    return 3 if diverged else 0


def _cmd_spectra(args) -> int:
    file = args.kind == "file"
    mix = harness.build_mixing(ExperimentConfig(
        topology_kind=args.kind, n=0 if file else int(args.arg),
        topology_path=args.arg if file else None))
    print(f"n = {mix.n}")
    print(f"lambda = {mix.lam!r}")
    print(f"spectral_gap = {mix.spectral_gap!r}")
    for name in ("eta_w", "rho_w"):
        print(f"{name} = undefined (graph not connected)" if mix.lam >= 1.0
              else f"{name} = {getattr(mix, name)!r}")
    return 0


def _cmd_plot(args) -> int:
    tables = [harness.ResultTable.from_csv(path) for path in args.traces]
    plotting.emit_plot(tables, args.metric, args.out, title=args.title)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep,
             "spectra": _cmd_spectra, "plot": _cmd_plot}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
