"""Scenario configuration parsing and flat-file result output.

Configs are plain JSON; every validation failure carries the dotted path of
the offending field.  Results go to CSV (one header row, RFC-4180 quoting,
floats as shortest round-trip reprs so identical runs are byte-identical)
with a JSON sidecar echoing the full config, tool version, evaluation engine,
Python and numpy versions, and wall clock.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classical import MIN_MC_SAMPLES
from .errors import ConfigError
from .quantum import CorrelationOrder
from .states import classical_model_from_config, state_from_config


def as_int(value, path: str, minimum: int = 1) -> int:
    """An integer >= ``minimum``; integral floats such as 1e4 count, bools do not."""
    if isinstance(value, (bool, np.bool_)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(path, f"expected integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected integer, got {value!r}") from None
    if out < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {out}")
    return out


def as_grid(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(path, "must be a non-empty list")
    if any(isinstance(v, bool) for v in value):
        raise ConfigError(path, "entries must be numbers")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(path, "entries must be numbers") from None


# Values each state axis admits: pulse areas, saturation parameters, ratios.
_STATE_AXIS_RANGES = {
    "theta_grid": (lambda v: 0.0 <= v <= math.pi, "in [0, pi]"),
    "s_grid": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "r_grid": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
}


def _resolve_seed(cfg: dict, ens: dict) -> int:
    """``ensemble.seed`` when given, else the top-level ``seed``, else 0."""
    top = 0 if cfg.get("seed") is None else as_int(cfg["seed"], "seed", minimum=0)
    if ens.get("seed") is None:
        return top
    seed = as_int(ens["seed"], "ensemble.seed", minimum=0)
    if cfg.get("seed") is not None and top != seed:
        raise ConfigError("ensemble.seed", f"{seed} disagrees with the top-level seed {top}")
    return seed


@dataclass
class ScenarioConfig:
    """Validated scenario: state family, geometry, order, directions, sweep."""

    state: dict
    ensemble: dict
    order: CorrelationOrder
    directions: dict
    sweep: dict
    realizations: int
    samples: int
    seed: int
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, cfg: dict) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("", "config root must be a JSON object")

        order_cfg = cfg.get("order", {})
        try:
            order = CorrelationOrder(int(order_cfg.get("m", 0)), int(order_cfg.get("n", 0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError("order", str(exc)) from None

        state = cfg.get("state", {"kind": "pulse", "theta": math.pi})
        kind = state.get("kind")
        if kind not in ("pulse", "driven", "moments", "classical"):
            raise ConfigError("state.kind", f"unknown state kind {kind!r}")
        if kind == "pulse" and "theta" not in state:
            raise ConfigError("state.theta", "missing required field")
        if kind == "driven" and "s" not in state:
            raise ConfigError("state.s", "missing required field")
        if kind == "classical" and "e_incoh" not in state:
            raise ConfigError("state.e_incoh", "missing required field")
        build = classical_model_from_config if kind == "classical" else state_from_config
        try:
            build(state)
        except (TypeError, ValueError) as exc:
            raise ConfigError("state", str(exc)) from None

        ens = cfg.get("ensemble", {})
        if "positions" not in ens:
            as_int(ens.get("n", 0) or 0, "ensemble.n")

        directions = cfg.get("directions", {"preset": "forward"})
        if "vectors" in directions:
            vecs = np.asarray(directions["vectors"], dtype=float)
            if vecs.ndim != 2 or vecs.shape[1] != 3:
                raise ConfigError("directions.vectors", "must be a list of 3-vectors")
            if vecs.shape[0] != order.total:
                raise ConfigError(
                    "directions.vectors",
                    f"need {order.total} vectors for order ({order.m},{order.n}), "
                    f"got {vecs.shape[0]}",
                )
        else:
            preset = directions.get("preset", "forward")
            if preset not in ("forward", "off-axis"):
                raise ConfigError("directions.preset", f"unresolvable preset {preset!r}")

        sweep = cfg.get("sweep", {})
        parsed_sweep: dict[str, list[float]] = {}
        for axis in ("n_grid", "r_grid", "theta_grid", "s_grid"):
            if axis in sweep:
                parsed_sweep[axis] = as_grid(sweep[axis], f"sweep.{axis}")
        if "n_grid" in parsed_sweep:
            parsed_sweep["n_grid"] = [
                as_int(v, "sweep.n_grid") for v in parsed_sweep["n_grid"]
            ]
        for axis, (ok, bound) in _STATE_AXIS_RANGES.items():
            for v in parsed_sweep.get(axis, ()):
                if not ok(v):
                    raise ConfigError(f"sweep.{axis}", f"entries must be {bound}, got {v!r}")
        state_axes = [a for a in ("r_grid", "theta_grid", "s_grid") if a in parsed_sweep]
        if len(state_axes) > 1:
            raise ConfigError("sweep", f"at most one state axis allowed, got {state_axes}")

        realizations = as_int(cfg.get("realizations", 1), "realizations")
        samples = cfg.get("samples")
        samples = 0 if samples is None else as_int(samples, "samples", minimum=0)
        if 0 < samples < MIN_MC_SAMPLES:
            raise ConfigError(
                "samples",
                f"must be 0 (no Monte Carlo) or >= {MIN_MC_SAMPLES} for two batches, "
                f"got {samples}",
            )
        seed = _resolve_seed(cfg, ens)

        return cls(
            state=state,
            ensemble=ens,
            order=order,
            directions=directions,
            sweep=parsed_sweep,
            realizations=realizations,
            samples=samples,
            seed=seed,
            raw=cfg,
        )

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_dict(load_json(path))


def load_json(path):
    """Parsed JSON file; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None


def format_cell(value: Any) -> str:
    """Deterministic text form: shortest round-trip repr for floats."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class ResultTable:
    """Row-major records with a fixed column schema."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def append(self, **cells) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"cells {unknown} not in schema")
        self.rows.append(tuple(cells.get(col) for col in self.columns))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_cell(v) for v in row])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())


def write_sidecar(path, config_echo: dict, wall_clock_s: float, extra: dict | None = None):
    from . import __version__, kernels

    payload = {
        "tool": "photonstat",
        "version": __version__,
        "engine": kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_clock_s": wall_clock_s,
        "config": config_echo,
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


class Stopwatch:
    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        return False
