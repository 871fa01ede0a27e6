"""Command-line interface: single runs and convergence campaigns.

Two subcommands::

    aderfv solve    --system <preset> --order <2..5> --cells <N> ...
    aderfv converge --system <preset> --orders 2..5 --meshes 8,16,32,64,128 ...

Options may also come from a JSON config file (``--config``) using the same
keys as the flags; explicit flags win.  The thread count is taken from the
ADERFV_THREADS environment variable.
"""
from __future__ import annotations

import argparse
import json
import sys

from .harness import PRESET_NAMES, run_preset


def _parse_int_list(text: str, doubling: bool = False):
    """Parse "2,3,4", "2..5" (consecutive) or "8..128" (doubling meshes).

    Raises ValueError on a non-integer entry, and on a doubling range that
    does not start above zero (doubling would never pass its end).
    """
    text = text.strip()
    if ".." in text:
        lo, hi = (int(p) for p in text.split("..", 1))
        if doubling:
            if lo < 1:
                raise ValueError(f"doubling range {text!r} must start at a "
                                 "positive count")
            out = []
            n = lo
            while n <= hi:
                out.append(n)
                n *= 2
            return out
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",") if p]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--system", choices=PRESET_NAMES, help="benchmark preset")
    p.add_argument("--cfl", type=float, help="CFL number (preset default if omitted)")
    p.add_argument("--tout", type=float, help="output time")
    p.add_argument("--beta", type=float, help="source coefficient override")
    p.add_argument("--bc", choices=("periodic", "transmissive"),
                   help="boundary rule override")
    p.add_argument("--out", help="output directory (default aderfv-out)")
    p.add_argument("--config", help="JSON file with the same keys as the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aderfv",
        description="One-dimensional ADER finite-volume solver for "
                    "hyperbolic balance laws with stiff source terms.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="single run, writes the solution profile")
    _add_common(solve)
    solve.add_argument("--order", type=int, choices=(2, 3, 4, 5),
                       help="scheme order of accuracy")
    solve.add_argument("--cells", type=int, help="number of cells")
    solve.add_argument("--verbose", action="store_true",
                       help="after the solve, one line per step "
                            "(t, dt, lambda_abs) on stderr")

    conv = sub.add_parser(
        "converge", help="mesh-refinement study, writes tables",
        description="Mesh-refinement study: one table (text and CSV) per "
                    "order.  Per-step lines (--verbose) belong to solve; "
                    "a config file that sets verbose here is an error.")
    _add_common(conv)
    conv.add_argument("--orders", help="orders, e.g. 2..5 or 2,3,5")
    conv.add_argument("--meshes", help="cell counts, e.g. 8,16,32,64,128 or 8..128")
    return parser


def _merge_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> dict:
    """The config file's options with the explicit flags over them.

    A config value is parsed as its flag's argument (``"cells": "64"`` reads
    as ``--cells 64``), and a key the subcommand does not take raises
    ValueError.
    """
    merged: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        options = vars(args).keys() - {"command", "config"}
        unknown = sorted(loaded.keys() - options)
        if unknown:
            raise ValueError(f"config keys {unknown} are not options of "
                             f"{args.command}")
        argv = [f"--{key}" if value is True else f"--{key}={value}"
                for key, value in loaded.items() if value is not False]
        parsed = vars(parser.parse_args([args.command] + argv))
        merged.update((key, parsed[key]) for key in loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None or value is False:
            continue
        merged[key] = value
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_config(parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = opts.pop("system", None)
    if system is None:
        print("error: --system is required (flag or config file)", file=sys.stderr)
        return 2
    out_dir = opts.pop("out", "aderfv-out")

    if args.command == "converge":
        if "orders" not in opts or "meshes" not in opts:
            print("error: converge needs --orders and --meshes", file=sys.stderr)
            return 2
        try:
            opts["orders"] = _parse_int_list(opts["orders"])
            opts["meshes"] = _parse_int_list(opts["meshes"], doubling=True)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        artifacts = run_preset(system, opts, out_dir=out_dir)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, path in artifacts.items():
        print(f"{label}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
