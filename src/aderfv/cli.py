"""Command-line interface: single runs and convergence campaigns.

Two subcommands::

    aderfv solve    --system <preset> --order <2..5> --cells <N> ...
    aderfv converge --system <preset> --orders 2..5 --meshes 8,16,32,64,128 ...

Options may also come from a JSON config file (``--config``) using the same
keys as the flags; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (PRESET_NAMES, build_config, convergence_study,
                      field_interpolant, make_case, shu_osher_reference)
from .nodes import SUPPORTED_M
from .scheme import run
from .weno import BOUNDARY_RULES

ORDERS = tuple(M + 1 for M in SUPPORTED_M)


def _parse_int_list(text: str, doubling: bool = False):
    """Parse "2,3,4", "2..5" (consecutive) or "8..128" (doubling meshes).

    Raises ValueError on a non-integer entry, on a doubling range that
    does not start above zero (doubling would never pass its end), and on
    a text that lists no entry ("5..2", ",").
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
        else:
            out = list(range(lo, hi + 1))
    else:
        out = [int(p) for p in text.split(",") if p]
    if not out:
        raise ValueError(f"{text!r} lists no entry")
    return out


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--system", choices=PRESET_NAMES, help="benchmark preset")
    p.add_argument("--cfl", type=float, help="CFL number (preset default if omitted)")
    p.add_argument("--tout", type=float, help="output time")
    p.add_argument("--beta", type=float, help="source coefficient override")
    p.add_argument("--bc", choices=BOUNDARY_RULES,
                   help="boundary rule override")
    p.add_argument("--out", default="aderfv-out",
                   help="output directory (default aderfv-out)")
    p.add_argument("--config", help="JSON file with the same keys as the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aderfv",
        description="One-dimensional ADER finite-volume solver for "
                    "hyperbolic balance laws with stiff source terms.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="single run, writes the solution profile")
    _add_common(solve)
    solve.add_argument("--order", type=int, choices=ORDERS, default=2,
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


def _config_flags(args: argparse.Namespace) -> list:
    """The config file's options written as flags (``"cells": 64`` gives
    ``--cells=64``); a key that is not an option of the subcommand raises
    ValueError."""
    with open(args.config) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {args.config} does not hold a JSON "
                         "object")
    unknown = sorted(loaded.keys() - (vars(args).keys() - {"command", "config"}))
    if unknown:
        raise ValueError(f"config keys {unknown} are not options of "
                         f"{args.command}")
    return [f"--{key}" if value is True else f"--{key}={value}"
            for key, value in loaded.items() if value is not False]


def _write_profile(path: Path, x: np.ndarray, values: np.ndarray):
    data = np.column_stack([x, np.atleast_2d(values)])
    np.savetxt(path, data, fmt="%.10e")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config options first: argparse keeps the last value given, so
            # an explicit flag wins, and each value is parsed by its flag
            args = parser.parse_args([args.command, *_config_flags(args),
                                      *argv[1:]])
        if args.system is None:
            raise ValueError("--system is required (flag or config file)")
        case = make_case(args.system, beta=args.beta)
        run_args = dict(cfl=args.cfl, t_out=args.tout, boundary=args.bc)
        if args.command == "converge":
            if args.orders is None or args.meshes is None:
                raise ValueError("converge needs --orders and --meshes")
            orders = _parse_int_list(args.orders)
            meshes = _parse_int_list(args.meshes, doubling=True)
            for k in orders:    # every run's input is checked before any runs
                for n in meshes:
                    build_config(case, order=k, cells=n, **run_args)
        else:
            config = build_config(case, order=args.order, cells=args.cells,
                                  **run_args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}
    try:
        if args.command == "converge":
            exact = case.exact
            if exact is None:
                exact = field_interpolant(shu_osher_reference(), M=2)
            for k in orders:
                report = convergence_study(case, k, meshes, exact=exact,
                                           **run_args)
                txt = out / f"convergence_order{k}.txt"
                txt.write_text(report.format_table())
                csv = out / f"convergence_order{k}.csv"
                csv.write_text("\n".join(report.csv_lines()) + "\n")
                artifacts[f"table_order{k}"] = txt
                artifacts[f"csv_order{k}"] = csv
        else:
            result = run(config)
            if args.verbose:
                for rec in result.steps:
                    sys.stderr.write(f"{rec.t:.8e} {rec.dt:.8e} {rec.lam:.8e}\n")
            centers = result.field.cell_centers()
            artifacts["solution"] = out / "solution.dat"
            _write_profile(artifacts["solution"], centers,
                           result.field.averages)
            if case.exact is not None:
                artifacts["exact"] = out / "exact.dat"
                _write_profile(artifacts["exact"], centers,
                               np.asarray(case.exact(centers, result.t_final)))
            if case.name == "shu-osher":
                ref_field = shu_osher_reference()
                artifacts["reference"] = out / "reference.dat"
                _write_profile(artifacts["reference"],
                               ref_field.cell_centers(), ref_field.averages)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, path in artifacts.items():
        print(f"{label}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
