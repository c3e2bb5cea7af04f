"""Command line interface.

Subcommands: ``simulate`` runs a scenario from a config file, ``model``
prints the fitted performance curves at one (distance, word count) point,
``checksum`` validates an Intel Hex file.  Exit codes: 0 success, 1
transfer failure or invalid file, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ihex import HexFileError, parse_file
from .metrics import model_curves
from .scenario import load_config, run_scenario

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        outcome = run_scenario(config, out_dir=args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for r in outcome.runs:
        status = "complete" if r.result.completed else f"FAILED ({r.result.failure_reason})"
        print(
            f"run {r.run}: {status}  t={r.metrics.t:.3f}s  m_t={r.metrics.m_t}  "
            f"m_r={r.metrics.m_r}  p_r={r.metrics.p_r:.4f}  "
            f"mean_S_p={r.metrics.mean_s_p:.2f}  theta={r.metrics.theta:.2f} B/s"
        )
    print(f"{outcome.completed_runs}/{len(outcome.runs)} transfers completed")
    return EXIT_OK if outcome.all_completed else EXIT_FAILURE


def _cmd_model(args) -> int:
    try:
        point = model_curves(args.distance, args.words)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"psi_t = {point.psi_t:.4f} ops/s")
    print(f"eta   = {point.eta:.4f}")
    print(f"psi_s = {point.psi_s:.4f} ops/s")
    print(f"theta = {point.theta:.4f} B/s")
    return EXIT_OK


def _cmd_checksum(args) -> int:
    path = Path(args.hexfile)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        matrix = parse_file(text)
    except HexFileError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"valid: {len(matrix)} records, {matrix.total_bytes()} data bytes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crfid-downlink",
        description="Simulate host-to-CRFID downstream transfers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario from a config file")
    sim.add_argument("--config", required=True, help="path to key = value config file")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="directory for CSV artifacts")
    sim.set_defaults(func=_cmd_simulate)

    model = sub.add_parser("model", help="evaluate the fitted performance model")
    model.add_argument("--distance", type=int, required=True, help="distance in cm")
    model.add_argument("--words", type=float, required=True, help="word count x")
    model.set_defaults(func=_cmd_model)

    chk = sub.add_parser("checksum", help="validate an Intel Hex file")
    chk.add_argument("hexfile")
    chk.set_defaults(func=_cmd_checksum)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
