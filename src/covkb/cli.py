"""Command-line surface: parse, graph, metrics, run, grid."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .harness import (
    ConfigError,
    build_oneshot_state,
    export_dot,
    load_grid,
    load_scenario,
    make_out_dir,
    metrics_csv_text,
    run_grid,
    run_scenario,
    write_heatmap_csv,
)
from .parser import ParseError, parse_file
from .rules import canonical_form


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="covkb",
        description="Coverage-graph knowledge base: scoring, forgetting, consolidation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a rule file and print canonical forms")
    p.add_argument("file")

    p = sub.add_parser("graph", help="build the one-shot coverage graph as DOT")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="write DOT here instead of stdout")

    p = sub.add_parser("metrics", help="one-shot metrics CSV for a scenario")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("run", help="run a scenario simulation")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=".", help="output directory (steps.csv, state.snapshot)")

    p = sub.add_parser("grid", help="run a (capacity x fraction x repetition) sweep")
    p.add_argument("gridfile")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=".", help="output directory (heatmap.csv)")
    return top


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "parse":
            for rule in parse_file(args.file):
                print(canonical_form(rule))
            return 0
        if args.command == "graph":
            state = build_oneshot_state(load_scenario(args.scenario))
            table = state.ensure_metrics()
            _emit(export_dot(state.graph, table, state.classes), args.out)
            return 0
        if args.command == "metrics":
            state = build_oneshot_state(load_scenario(args.scenario))
            _emit(metrics_csv_text(state), args.out)
            return 0
        if args.command == "run":
            cfg = load_scenario(args.scenario)
            if args.seed is not None:
                try:
                    cfg = replace(cfg, seed=args.seed)
                except ValueError as exc:
                    raise ConfigError(f"--seed: {exc}") from None
            run_scenario(cfg, out_dir=args.out)
            return 0
        if args.command == "grid":
            if args.jobs < 1:
                raise ConfigError("--jobs must be >= 1")
            grid = load_grid(args.gridfile)
            make_out_dir(args.out)
            rows, failures = run_grid(grid, jobs=args.jobs)
            write_heatmap_csv(rows, os.path.join(args.out, "heatmap.csv"))
            for failure in failures:
                print(f"warning: {failure}", file=sys.stderr)
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
