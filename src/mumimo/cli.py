"""Command line entry point: run a configured BER sweep and write CSV."""

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigError
from .harness import CONFIG_KEYS, parse_config, parse_value, run_sweep, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Uplink multiuser MIMO link-level BER sweep")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="flat key = value scenario file")
    # an override's dest is its config key, and its text parses as in a file
    parser.add_argument("--snr", dest="snr_db", metavar="A:B:STEP",
                        help="override the swept SNR points (dB)")
    parser.add_argument("--detector", help="override the detector")
    parser.add_argument("--seed", help="override the master seed")
    parser.add_argument("--packets", help="override packets per point")
    parser.add_argument("--out", help="override the output CSV path")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1; any count gives "
                             "identical results)")
    return parser


def _check_output_dir(path):
    """Raise ``OSError`` unless ``path`` can name a file in a directory that
    exists and is writable, so a bad path fails before the sweep, not after it."""
    if os.path.isdir(path) or path.endswith(os.sep):
        raise OSError(f"{path!r} names a directory, not a file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise OSError(f"directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise OSError(f"directory {parent!r} is not writable")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = parse_config(fh.read())
        overrides = {CONFIG_KEYS[key].field: parse_value(key, raw)
                     for key, raw in vars(args).items()
                     if key in CONFIG_KEYS and raw is not None}
        if overrides:
            spec = replace(spec, **overrides).validate()
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        _check_output_dir(spec.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # numerical failures come back as marked rows, never as exceptions
    result = run_sweep(spec, workers=max(1, args.workers))
    try:
        write_csv(result, spec.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for row in result.rows:
        if row.failed:
            print(f"snr {row.snr_db:g} dB: FAILED ({row.message})")
        else:
            print(f"snr {row.snr_db:g} dB: ber {row.ber:.6g} "
                  f"({row.errors}/{row.bits} bits)")
    print(f"wrote {spec.out} [{result.scenario_hash}] "
          f"in {result.wall_time_s:.1f} s")
    if result.failures:
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
