"""Command-line interface.

Subcommands::

    hbnoma run --config scenario.cfg [--seed N] [--trials N] [--out F] [--format csv|json]
    hbnoma fig2 [--snr-db 0,5] [--step 0.25] [--trials N] [--seed N] [--out F] [--format ...]
    hbnoma fig3 [--step 0.5] [--seed N] [--out F] [--format ...]
    hbnoma validate --config scenario.cfg

Exit codes: 0 success, 2 configuration error, 3 numerical/singularity
abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .engine import design_trial
from .errors import ConfigurationError, SingularClusteringError
from .results import emit_results, render
from .runner import run_scenario, sweep_fig2, sweep_fig3
from .scenario import load_config, parse_numbers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbnoma",
        description="Hybrid-beamforming NOMA downlink simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured Monte Carlo scenario")
    run.add_argument("--config", required=True, help="scenario file path")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    _output_options(run)

    fig2 = sub.add_parser("fig2", help="beam-alignment sweep of the weak user")
    fig2.add_argument("--snr-db", default="0,5", help="comma list of SNRs in dB")
    fig2.add_argument("--step", type=float, default=0.25, help="sweep step in degrees")
    fig2.add_argument("--trials", type=int, default=1000)
    fig2.add_argument("--seed", type=int, default=1)
    _output_options(fig2)

    fig3 = sub.add_parser("fig3", help="correlation versus angle, three clusters")
    fig3.add_argument("--step", type=float, default=0.5, help="grid step in degrees")
    fig3.add_argument("--seed", type=int, default=1, help="JSON echo only; changes no CSV byte")
    _output_options(fig3)

    validate = sub.add_parser("validate", help="check a config and its precoder constraints")
    validate.add_argument("--config", required=True, help="scenario file path")
    return parser


def _output_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--out", default=None, help="output file (default: stdout)")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")


def _deliver(payload, args) -> None:
    if args.out is None:
        sys.stdout.write(render(payload, args.format))
    else:
        path = emit_results(payload, args.format, args.out)
        print(f"wrote {args.format} results to {path}")


def _cmd_run(args) -> int:
    config = load_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    trials = config.trials if args.trials is None else args.trials
    _deliver(run_scenario(replace(config, seed=seed, trials=trials)), args)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    snrs = parse_numbers(args.snr_db, "--snr-db")
    sweep = sweep_fig2(snr_db_values=snrs, step_deg=args.step, trials=args.trials, seed=args.seed)
    _deliver(sweep, args)
    return EXIT_OK


def _cmd_fig3(args) -> int:
    _deliver(sweep_fig3(step_deg=args.step, seed=args.seed), args)
    return EXIT_OK


def _cmd_validate(args) -> int:
    # the object-level modules load only here: no other command uses them
    from .arrays import AngleSpec, ArrayGeometry, steering_vector
    from .precoding import AnalogPrecoder, BasebandPrecoder, power_constraint_check
    config = load_config(args.config)
    config.single_snr_db()  # `run` needs one SNR, so a valid config has one
    attempt, design = design_trial(config, 0)
    bs = ArrayGeometry(config.bs_antennas)
    beams = [AngleSpec.from_normalized(float(x)) for x in design.beam_aod[0]]
    # centred beams, the basis of the design's baseband: F_rf F_bb is what `run` simulates
    centring = np.exp(0.5j * math.pi * (config.bs_antennas - 1) * design.beam_aod[0])
    precoder = AnalogPrecoder(np.column_stack([steering_vector(a, bs) for a in beams]) * centring)
    baseband = design.baseband[0]
    report = power_constraint_check(precoder, BasebandPrecoder(baseband))
    first = design.rows[0, :, 0]
    # |h_n^H f_j| / ||h_n|| of each cluster's SIC-first user n on every other beam j
    coupling = np.abs(first @ baseband) / np.linalg.norm(first, axis=1)[:, None]
    leakage = coupling[~np.eye(config.num_clusters, dtype=bool)].max(initial=0.0)
    print(f"config ok: {config.num_clusters} clusters x {config.users_per_cluster} users")
    print(f"design of trial 0 (attempt {attempt}), beams at "
          f"{[f'{math.degrees(a.physical_rad):.6g}' for a in beams]} deg")
    print(f"total radiated power (squared Frobenius): {report.frobenius_sq:.12g} "
          f"(target {report.expected_frobenius_sq:g})")
    print(f"max analog modulus deviation: {report.max_modulus_deviation:.3e}")
    print(f"per-beam radiated power: {[f'{c:.12g}' for c in report.column_norms]}")
    print(f"max relative first-user leakage: {leakage:.3e}")
    print("constraints satisfied" if report.ok else "constraint violation detected")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "fig2": _cmd_fig2, "fig3": _cmd_fig3, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularClusteringError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
