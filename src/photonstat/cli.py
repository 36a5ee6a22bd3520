"""Command-line interface.

Subcommands: correlate, classical, deviation, conditions, figure <id>.
Exit codes: 0 success, 2 config error, 3 capacity error, 4 numerical
validation failure under --validate.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ResultTable, ScenarioConfig, Stopwatch, load_json, write_sidecar
from .errors import CapacityError, ConfigError, ValidationFailure
from .figures import (
    FIGURE_DEFAULTS,
    run_classical,
    run_conditions,
    run_correlate,
    run_deviation,
    run_figure,
)

VALIDATE_TOLERANCE = 1e-10


def _add_common(parser: argparse.ArgumentParser, needs_config: bool):
    parser.add_argument(
        "--config", type=Path, required=needs_config, help="scenario JSON path"
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", type=Path, default=None, help="output CSV path")
    parser.add_argument(
        "--validate", action="store_true",
        help="append oracle columns and fail on discrepancies beyond tolerance",
    )
    parser.add_argument(
        "--realizations", type=int, default=None, help="override realization count"
    )
    parser.add_argument("--threads", type=int, default=1, help="worker threads")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="photonstat",
        description="Photon correlation functions and Gaussian-moment-theorem deviations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("correlate", "classical", "deviation", "conditions"):
        _add_common(sub.add_parser(name), needs_config=True)
    fig = sub.add_parser("figure")
    fig.add_argument("figure_id", choices=sorted(FIGURE_DEFAULTS))
    _add_common(fig, needs_config=False)
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.realizations is not None:
        if args.realizations < 1:
            raise ConfigError("realizations", "must be >= 1")
        cfg.realizations = args.realizations
    return cfg


def _emit(table: ResultTable, summary: dict, out: Path, config_echo: dict, elapsed: float):
    table.write_csv(out)
    write_sidecar(out.with_suffix(out.suffix + ".meta.json"), config_echo, elapsed, summary)
    print(f"wrote {len(table.rows)} rows to {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {args.seed}")
        if args.command == "figure":
            overrides = {} if args.config is None else load_json(args.config)
            if not isinstance(overrides, dict):
                raise ConfigError("config", "figure overrides must be a JSON object")
            seed = args.seed if args.seed is not None else 7
            with Stopwatch() as clock:
                table, summary = run_figure(
                    args.figure_id,
                    overrides=overrides,
                    seed=seed,
                    realizations=args.realizations,
                    threads=args.threads,
                )
            out = args.out or Path(f"{args.figure_id}.csv")
            echo = {"figure": args.figure_id, "overrides": overrides, "seed": seed,
                    "realizations": args.realizations, "threads": args.threads}
            _emit(table, summary, out, echo, clock.elapsed)
            return 0

        cfg = _load_config(args)
        with Stopwatch() as clock:
            if args.command == "correlate":
                table, summary = run_correlate(
                    cfg, validate=args.validate, threads=args.threads
                )
            elif args.command == "classical":
                table, summary = run_classical(cfg, threads=args.threads)
            elif args.command == "deviation":
                table, summary = run_deviation(cfg, threads=args.threads)
            else:
                table, summary = run_conditions(cfg, threads=args.threads)
        out = args.out or Path(f"{args.command}.csv")
        _emit(table, summary, out, cfg.raw, clock.elapsed)
        if args.validate and args.command == "correlate":
            worst = summary.get("max_rel_discrepancy")
            if worst is not None and worst > VALIDATE_TOLERANCE:
                raise ValidationFailure(
                    f"max oracle discrepancy {worst:.3e} exceeds {VALIDATE_TOLERANCE}"
                )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
