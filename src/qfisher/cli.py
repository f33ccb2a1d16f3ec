"""Command-line entry point: ``qfisher <campaign> [options]``.

Campaigns: table2, table3, bounds-curve, sweep-p, analyze, phase-sim,
bound-entangled-scan. A JSON config file can mirror any flag; explicit
flags win. Exit codes: 0 success, 2 invalid input, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys

from .campaigns import CAMPAIGNS, CampaignConfig, run_campaign
from .core import InvariantError

FULL_SCALE_SAMPLES = 1_000_000
DEFAULT_SAMPLES = 10_000  # quick profile; pass --full or --samples for more
# the flags each campaign reads, besides --seed, --workers, --out and --config,
# which every campaign takes
READS = {
    "table2": {"samples", "full", "mode"},
    "table3": {"samples", "full", "mode"},
    "bounds-curve": {"n", "k"},
    "sweep-p": {"state", "k"},
    "analyze": {"state", "mode"},
    "phase-sim": {"state", "m", "trials", "theta"},
    "bound-entangled-scan": {"samples", "full"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description="Fisher-information entanglement criteria: campaigns, sweeps, reports.",
    )
    parser.add_argument("campaign", choices=CAMPAIGNS)
    parser.add_argument("--n", type=int, default=None, help="qubit count (bounds-curve)")
    parser.add_argument("--k", type=int, default=None, help="producibility class filter")
    parser.add_argument("--samples", type=int, default=None, help="Monte-Carlo sample count")
    parser.add_argument("--full", action="store_true", help=f"use {FULL_SCALE_SAMPLES} samples")
    parser.add_argument("--seed", type=int, default=None, help="campaign seed (default 0)")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers (default 1)")
    parser.add_argument("--mode", default=None, help="campaign mode flag")
    parser.add_argument("--state", default=None, help="state spec, e.g. ghz:4 or file.json")
    parser.add_argument("--m", type=int, default=None, help="shots per estimate (phase-sim)")
    parser.add_argument("--trials", type=int, default=None, help="estimates (phase-sim)")
    parser.add_argument("--theta", type=float, default=None, help="true phase (phase-sim)")
    parser.add_argument("--out", default=None, help="output path (.csv or .json)")
    parser.add_argument("--config", default=None, help="JSON file mirroring the flags")
    return parser


def _merge_config(args: argparse.Namespace) -> CampaignConfig:
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object of flag values")
    given = {flag for flag, value in vars(args).items() if value is not None and value is not False} - {"campaign"}
    given |= {key for key, value in file_values.items() if value is not None}
    unread = sorted(given - READS[args.campaign] - {"seed", "workers", "out", "config"})
    if unread:
        raise ValueError(f"{args.campaign} does not read {', '.join('--' + flag for flag in unread)}")

    def pick(flag: str, default):
        cli_value = getattr(args, flag)
        if cli_value is not None:
            return cli_value
        if flag in file_values and file_values[flag] is not None:
            return file_values[flag]
        return default

    def typed(flag: str, kind: type, default=None):
        # argparse types the flags; a config file can hold any JSON value
        value = pick(flag, default)
        if value is not None and (not isinstance(value, kind) or isinstance(value, bool)):
            raise ValueError(f"config {flag} must be of type {kind.__name__}, got {value!r}")
        return value

    full = file_values.get("full")
    if full is not None and not isinstance(full, bool):
        raise ValueError(f"config full must be of type bool, got {full!r}")
    samples = typed("samples", int)
    if samples is None:
        samples = FULL_SCALE_SAMPLES if args.full or full else DEFAULT_SAMPLES
    theta = typed("theta", numbers.Real)
    return CampaignConfig(
        campaign=args.campaign,
        samples=samples,
        seed=typed("seed", int, 0),
        workers=typed("workers", int, 1),
        out=typed("out", str),
        n=typed("n", int),
        k=typed("k", int),
        state=typed("state", str),
        mode=typed("mode", str),
        m=typed("m", int, 1000),
        trials=typed("trials", int, 200),
        theta=None if theta is None else float(theta),
    )


def _emit(config: CampaignConfig, csv_text: str, payload: dict) -> None:
    if config.out is None:
        if config.campaign in ("analyze", "phase-sim"):
            print(json.dumps(payload, indent=2))
        else:
            sys.stdout.write(csv_text)
        return
    if config.out.endswith(".json"):
        with open(config.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        with open(config.out, "w") as fh:
            fh.write(csv_text)
    if config.campaign == "phase-sim" and not config.out.endswith(".json"):
        # estimates go to the CSV; the summary is still reported on stdout
        print(json.dumps(payload, indent=2))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        out_dir = os.path.dirname(config.out or "") or "."
        if not os.path.isdir(out_dir):  # found before the campaign runs, not after
            raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
        if config.out is not None and os.path.isdir(config.out):
            raise IsADirectoryError(f"output path {config.out!r} is a directory")
        csv_text, payload = run_campaign(config)
        _emit(config, csv_text, payload)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
