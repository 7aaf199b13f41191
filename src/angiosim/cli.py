"""Command line front end.

Subcommands:
    run <config>     simulate one scenario, write trajectory + report files
    sweep <config>   cartesian parameter sweep, aggregate CSV
    verify           self-check battery (inequalities, entropy, elliptic oracles)
    fit <csv>        log-linear decay-rate fit on a trajectory column

Exit codes: 0 ok, 1 usage or config error, 2 blow-up detected, 3 numerical
failure (invalid initial state, failed initial potential solve, failed step,
failed verification case, or any failure of the time loop's set-up such as
running out of memory: one stderr line of run, the point's row in a sweep).

At exit the process freezes the cycle collector (gc.freeze, registered with
atexit by main), so the interpreter's two closing collections skip the objects
numpy and angiosim leave tracked; every output file is closed before main
returns, and objects left in reference cycles are not finalized at exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from .config import ConfigError, parse_config, parse_sweep
from .harness import (
    EXIT_OK,
    EXIT_USAGE,
    fit_report,
    run_scenario,
    run_sweep,
    verify_suite,
)


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        window = (float(lo), float(hi))
    except ValueError:
        raise ConfigError(f"--window expects t0:t1, got '{text}'")
    if not window[0] < window[1]:
        raise ConfigError(f"--window needs t0 < t1, got '{text}'")
    return window


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="angiosim",
        description="Finite-volume simulator and verification harness for a "
        "chemotaxis-convection tumor angiogenesis model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, text in (("run", "run one scenario from a key=value config"),
                       ("sweep", "cartesian sweep from a config with sweep.* axes")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        p.add_argument("--out", help="output directory (overrides the out key)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides the seed key)")
        p.add_argument("--quiet", action="store_true")

    p_verify = sub.add_parser("verify", help="run the built-in verification battery")
    p_verify.add_argument("--out", default="out")
    p_verify.add_argument("--quiet", action="store_true")

    p_fit = sub.add_parser("fit", help="fit a decay rate to a trajectory CSV column")
    p_fit.add_argument("csv")
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--window", metavar="t0:t1",
                       help="fit window (default: the window run and sweep use)")

    return ap


def main(argv=None) -> int:
    # one handler per process, however often main is called
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, the blow-up code here
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command in ("run", "sweep"):
            if args.seed is not None and args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            overrides = {key: val for key, val in (("seed", args.seed), ("out", args.out))
                         if val is not None}
            if args.command == "run":
                return run_scenario(parse_config(args.config, overrides), quiet=args.quiet)
            return run_sweep(parse_sweep(args.config, overrides), quiet=args.quiet)

        if args.command == "verify":
            return verify_suite(out_dir=args.out, quiet=args.quiet)

        # argparse requires one of the four commands, so this one is fit
        window = None if args.window is None else _parse_window(args.window)
        return fit_report(args.csv, args.column, window)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing file, or an --out naming a file
        print(f"cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
