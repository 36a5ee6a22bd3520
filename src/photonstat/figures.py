"""Sweep orchestration and figure-data pipelines.

Each public ``run_*`` function maps a scenario config onto a
:class:`~photonstat.config.ResultTable`.  Grid points and disorder
realizations are independent tasks: the realization RNG is keyed by
(seed, index), results are merged by index, so output is identical for any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import classical_mc_G
from .config import ResultTable, ScenarioConfig, as_grid, as_int
from .ensemble import (
    Ensemble,
    ensemble_from_config,
    equal_directions,
    off_axis_direction,
    random_cloud,
)
from .errors import ConfigError, ZeroIntensityError
from .gmt import LEADING_UNEQUAL, check_conditions, crossover_ratio, deviation, leading_unequal
from .quantum import (
    CorrelationOrder,
    autocorrelation_sums,
    closed_form_range,
    correlate,
    deviation_coh_autocorrelation,
    deviation_coh_forward_ratio,
    forward_g_equal_ratio,
    forward_g_unequal_ratio_abs,
    oracle_g,
    row_geometry,
)
from .states import (
    ClassicalEmitterModel,
    SingleAtomState,
    classical_model_from_config,
    classical_model_for_ratio,
    driven_steady_state,
    pulse_area_for_ratio,
    pulse_state,
    state_from_config,
)

ORACLE_VALIDATE_GUARD = 10**6
_FIG_N_DEFAULT = 10_000


def _parallel_map(fn, items, threads: int = 1) -> list:
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _angle_rng(seed: int, realization: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization, 1))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class _Point:
    """One sweep task: atom count, state-axis point and realization.

    The ensemble and the directions are built on first access, so rows that
    need no geometry build none.  A point stands in for its ensemble in
    ``correlate`` and ``deviation``: a forward row reads ``n`` but never
    ``positions``, which builds the cloud.
    """

    cfg: ScenarioConfig
    n: int
    axis: str
    value: float | None
    real: int

    @property
    def positions(self) -> np.ndarray:
        return self.ensemble.positions

    @cached_property
    def ensemble(self) -> Ensemble:
        if "positions" in self.cfg.ensemble:
            return ensemble_from_config(self.cfg.ensemble)
        distribution = self.cfg.ensemble.get("distribution", "uniform-cube")
        return random_cloud(self.n, self.cfg.seed, distribution, realization=self.real)

    @cached_property
    def directions(self) -> tuple[np.ndarray, str]:
        """(vectors, preset label)."""
        cfg, total = self.cfg, self.cfg.order.total
        if "vectors" in cfg.directions:
            return np.asarray(cfg.directions["vectors"], dtype=float), "explicit"
        if cfg.directions.get("preset", "forward") == "forward":
            return np.zeros((total, 3)), "forward"
        angle = cfg.directions.get("angle")
        if angle is None:
            angle = _angle_rng(cfg.seed, self.real).uniform(0.0, 2.0 * math.pi)
        return equal_directions(off_axis_direction(float(angle)), total), "off-axis"


def _state_points(cfg: ScenarioConfig) -> list[tuple[str, float | None]]:
    """Sweep points along the state axis as (axis_name, value) pairs."""
    if "theta_grid" in cfg.sweep:
        return [("theta", v) for v in cfg.sweep["theta_grid"]]
    if "s_grid" in cfg.sweep:
        return [("s", v) for v in cfg.sweep["s_grid"]]
    if "r_grid" in cfg.sweep:
        return [("r", v) for v in cfg.sweep["r_grid"]]
    return [("none", None)]


def _n_grid(cfg: ScenarioConfig) -> list[int]:
    if "n_grid" in cfg.sweep:
        return [int(v) for v in cfg.sweep["n_grid"]]
    if "positions" in cfg.ensemble:
        return [len(cfg.ensemble["positions"])]
    return [int(cfg.ensemble["n"])]


def _sweep(cfg: ScenarioConfig, columns, evaluate, threads: int = 1, realizations=None):
    """One table row per (N, state point, realization), in that order.

    ``evaluate(point, cells)`` fills the row's cells in place.  In tables
    with a ``status`` column a ZeroIntensityError keeps the cells written so
    far and marks the row ``dark-state``; finished rows are ``ok``.
    """
    table = ResultTable(columns=list(columns))
    reals = cfg.realizations if realizations is None else realizations
    tasks = [
        (nat, axis, value, real)
        for nat in _n_grid(cfg)
        for axis, value in _state_points(cfg)
        for real in range(reals)
    ]

    def run(task) -> dict:
        point = _Point(cfg, *task)  # local, so its cloud is freed with the row
        cells = {}
        try:
            evaluate(point, cells)
            status = "ok"
        except ZeroIntensityError:
            if "status" not in table.columns:
                raise
            status = "dark-state"
        if "status" in table.columns:
            cells["status"] = status
        return cells

    for cells in _parallel_map(run, tasks, threads):
        table.append(**cells)
    return table


def _check_emitter_kind(cfg: ScenarioConfig, classical: bool) -> None:
    """Refuse a state of the other emitter kind before the sweep starts.

    A ``classical`` config without a ``state`` key keeps the default model.
    """
    kind = cfg.state.get("kind")
    if classical and kind != "classical" and "state" in cfg.raw:
        raise ConfigError("state.kind", f"{kind!r} is not a model of the classical subcommand")
    if not classical and kind == "classical":
        raise ConfigError("state.kind", "classical models need the classical subcommand")


def _quantum_state_at(cfg: ScenarioConfig, axis: str, value):
    """(state, state_kind, state_param) at one point of the state axis."""
    if axis == "theta":
        return pulse_state(value), "pulse", value
    if axis == "s":
        return driven_steady_state(value), "driven", value
    if axis == "none":
        kind = cfg.state.get("kind", "pulse")
        return state_from_config(cfg.state), kind, cfg.state.get("theta", cfg.state.get("s"))
    kind = "driven" if cfg.state.get("kind") == "driven" else "pulse"
    return _state_for_ratio(kind, value), kind, value


def _state_for_ratio(kind: str, r: float) -> SingleAtomState:
    """The driven or pulse-excited state with coherence ratio R."""
    if kind != "driven":
        return pulse_state(pulse_area_for_ratio(r))
    if r <= 0.0:
        raise ConfigError("sweep.r_grid", "driven states need R > 0")
    return driven_steady_state(1.0 / r)


def _quantum_row(cfg: ScenarioConfig, point: _Point, cells: dict):
    """Write the label cells of a correlate or deviation row; return (state, dirs)."""
    state, kind, param = _quantum_state_at(cfg, point.axis, point.value)
    dirs, preset = point.directions
    cells.update(
        n_atoms=point.n, m=cfg.order.m, n=cfg.order.n, state_kind=kind,
        state_param=param, ratio=state.ratio, preset=preset, seed=cfg.seed,
        realization=point.real,
    )
    return state, dirs


CORRELATE_COLUMNS = [
    "n_atoms", "m", "n", "state_kind", "state_param", "ratio", "preset",
    "method", "seed", "realization", "status", "g_re", "g_im", "g_abs",
    "oracle_re", "oracle_im", "rel_discrepancy",
]


def run_correlate(cfg: ScenarioConfig, validate: bool = False, threads: int = 1):
    """g^(m,n) over the grid via the cheapest exact path (``quantum.row_geometry``).

    Returns (table, summary); with ``validate`` the oracle is run alongside
    wherever its tuple guard allows and the summary carries the maximum
    relative discrepancy.
    """
    _check_emitter_kind(cfg, classical=False)
    order = cfg.order

    def evaluate(point: _Point, cells: dict) -> None:
        state, dirs = _quantum_row(cfg, point, cells)
        result = correlate(state, point, order, dirs)
        cells.update(
            method=result.method,
            g_re=result.value.real, g_im=result.value.imag, g_abs=abs(result.value),
        )
        if validate and point.n**order.total <= ORACLE_VALIDATE_GUARD:
            oracle_value = oracle_g(state, point.ensemble, order, dirs)
            denom = max(abs(oracle_value), abs(result.value), 1e-300)
            cells.update(
                oracle_re=oracle_value.real,
                oracle_im=oracle_value.imag,
                rel_discrepancy=abs(oracle_value - result.value) / denom,
            )

    table = _sweep(cfg, CORRELATE_COLUMNS, evaluate, threads)
    discrepancies = [v for v in table.column("rel_discrepancy") if v is not None]
    summary = {"max_rel_discrepancy": max(discrepancies) if discrepancies else None}
    return table, summary


CLASSICAL_COLUMNS = [
    "n_atoms", "m", "n", "e_coh_re", "e_coh_im", "e_incoh", "ratio", "preset",
    "method", "seed", "realization", "g_re", "g_im", "g_abs",
    "mc_re", "mc_im", "mc_se", "samples", "batches", "status",
]


def _classical_model_at(cfg: ScenarioConfig, axis: str, value) -> ClassicalEmitterModel:
    base = (
        classical_model_from_config(cfg.state)
        if cfg.state.get("kind") == "classical"
        else ClassicalEmitterModel(e_coh=0.0, e_incoh=1.0)
    )
    if axis == "none":
        return base
    if axis != "r":
        raise ConfigError(f"sweep.{axis}_grid", "classical sweeps use r_grid")
    return classical_model_for_ratio(value, e_incoh=base.e_incoh or 1.0)


def run_classical(cfg: ScenarioConfig, threads: int = 1):
    """Classical g^(m,n) over the grid on ``quantum.row_geometry``, with optional MC."""
    _check_emitter_kind(cfg, classical=True)
    order = cfg.order

    def evaluate(point: _Point, cells: dict) -> None:
        model = _classical_model_at(cfg, point.axis, point.value)
        dirs, preset = point.directions
        cells.update(
            n_atoms=point.n, m=order.m, n=order.n,
            e_coh_re=model.e_coh.real, e_coh_im=model.e_coh.imag,
            e_incoh=model.e_incoh, ratio=model.ratio, preset=preset,
            seed=cfg.seed, realization=point.real,
        )
        unit = model.unit()  # g is scale-free; the Monte Carlo runs at O(1) amplitudes
        geometry = row_geometry(point, order, dirs)
        g = geometry.g(unit)[1]
        cells.update(method=geometry.method, g_re=g.real, g_im=g.imag, g_abs=abs(g))
        if cfg.samples:
            norm = math.prod(math.sqrt(v) for v in geometry.intensities(unit))
            mc = classical_mc_G(
                unit, point.ensemble, order, dirs, samples=cfg.samples, seed=cfg.seed
            )
            cells.update(
                mc_re=mc.estimate.real / norm, mc_im=mc.estimate.imag / norm,
                mc_se=mc.std_error / norm, samples=mc.samples, batches=mc.batches,
            )

    return _sweep(cfg, CLASSICAL_COLUMNS, evaluate, threads), {}


DEVIATION_COLUMNS = [
    "n_atoms", "m", "n", "state_kind", "state_param", "ratio", "preset", "seed",
    "realization", "g_exact_re", "g_exact_im", "g_gmt_re", "g_gmt_im",
    "delta_total_re", "delta_total_im", "delta_n_re", "delta_n_im",
    "delta_coh_re", "delta_coh_im", "epsilon",
    "finite_n_ratio", "spin_quadratic_ratio", "spin_linear_ratio",
    "spin_sqrt_ratio", "flagged", "status",
]


def run_deviation(cfg: ScenarioConfig, threads: int = 1):
    """Deviation decomposition over the grid."""
    _check_emitter_kind(cfg, classical=False)
    order = cfg.order

    def evaluate(point: _Point, cells: dict) -> None:
        state, dirs = _quantum_row(cfg, point, cells)
        report = deviation(state, point, order, dirs)
        margins = {m.name: m.ratio for m in report.conditions.margins}
        cells.update(
            g_exact_re=report.g_exact.real, g_exact_im=report.g_exact.imag,
            g_gmt_re=report.g_gmt.real, g_gmt_im=report.g_gmt.imag,
            delta_total_re=report.delta_total.real,
            delta_total_im=report.delta_total.imag,
            delta_n_re=report.delta_n.real, delta_n_im=report.delta_n.imag,
            delta_coh_re=report.delta_coh.real, delta_coh_im=report.delta_coh.imag,
            epsilon=report.epsilon,
            finite_n_ratio=margins.get("finite_n"),
            spin_quadratic_ratio=margins.get("spin_coherence_quadratic"),
            spin_linear_ratio=margins.get("spin_coherence_linear"),
            spin_sqrt_ratio=margins.get("spin_coherence_sqrt"),
            flagged=report.conditions.flagged(),
        )

    return _sweep(cfg, DEVIATION_COLUMNS, evaluate, threads), {}


CONDITIONS_COLUMNS = [
    "n_atoms", "m", "n", "ratio",
    "finite_n_lhs", "finite_n_rhs", "finite_n_ratio",
    "spin_quadratic_lhs", "spin_quadratic_rhs", "spin_quadratic_ratio",
    "spin_linear_lhs", "spin_linear_rhs", "spin_linear_ratio",
    "spin_sqrt_lhs", "spin_sqrt_rhs", "spin_sqrt_ratio",
    "flagged", "note",
]


def run_conditions(cfg: ScenarioConfig, threads: int = 1):
    """Admissibility-condition margins over the sweep."""
    _check_emitter_kind(cfg, classical=False)
    order = cfg.order

    def evaluate(point: _Point, cells: dict) -> None:
        ratio = (
            float(point.value) if point.axis == "r"
            else _quantum_state_at(cfg, point.axis, point.value)[0].ratio
        )
        with closed_form_range(point.n, order.x):
            report = check_conditions(ratio, point.n, order)
        cells.update(
            n_atoms=point.n, m=order.m, n=order.n, ratio=ratio,
            flagged=report.flagged(),
            note="g=0 short-circuit: m > N" if order.x > point.n else "",
        )
        for margin in report.margins:
            key = margin.name.replace("spin_coherence", "spin")
            cells[f"{key}_lhs"] = margin.lhs
            cells[f"{key}_rhs"] = margin.rhs
            cells[f"{key}_ratio"] = margin.ratio

    return _sweep(cfg, CONDITIONS_COLUMNS, evaluate, threads, realizations=1), {}


def fig3_deviation_matrix(
    nat: int,
    m_values: tuple[int, ...],
    r_values,
    realizations: int,
    seed: int,
    distribution="uniform-cube",
    state_kind: str = "pulse",
    threads: int = 1,
    directions_per_realization: int = 1,
):
    """Disorder-averaged off-axis spin-coherence deviations.

    Each realization draws a fresh cloud plus random transverse observation
    directions; the power sums of each (cloud, direction) serve every (m, R)
    cell, and the deviations are averaged over the realization's directions.
    More directions per cloud reduce the estimator variance without changing
    the estimand (the speckle variate decorrelates between well-separated
    directions).
    Returns (means, sems) of shape (len(m), len(R)): the complex mean over
    realizations and its standard error.
    """
    states = [_state_for_ratio(state_kind, r) for r in r_values]
    m_max = max(m_values)

    def one_realization(real: int) -> np.ndarray:
        cloud = random_cloud(nat, seed, distribution, realization=real)
        angles = _angle_rng(seed, real).uniform(
            0.0, 2.0 * math.pi, size=directions_per_realization
        )
        out = np.zeros((len(m_values), len(states)), dtype=complex)
        for angle in angles:
            sums = autocorrelation_sums(cloud, off_axis_direction(angle), m_max)
            for i, m in enumerate(m_values):
                for j, state in enumerate(states):
                    out[i, j] += deviation_coh_autocorrelation(state, sums, m)
        return out / directions_per_realization

    stacked = np.stack(_parallel_map(one_realization, range(realizations), threads))
    means = stacked.mean(axis=0)
    if realizations > 1:
        var = stacked.real.var(axis=0, ddof=1) + stacked.imag.var(axis=0, ddof=1)
        sems = np.sqrt(var / realizations)
    else:
        sems = np.zeros_like(means, dtype=float)
    return means, sems


FIGURE_DEFAULTS = {
    "fig1": {
        "n_grid": [int(v) for v in np.geomspace(10, 1e5, 17).round()],
        "r_inv_grid": list(np.geomspace(1e-2, 1e8, 21)),
    },
    "fig2": {
        "n": _FIG_N_DEFAULT,
        "m_values": (2, 3),
        "r_inv_grid": list(np.geomspace(1.0, 1e12, 121)),
    },
    "fig3": {
        "n": _FIG_N_DEFAULT,
        "m_values": (2, 3),
        "r_inv_grid": list(np.geomspace(1e2, 1e8, 25)),
        "realizations": 1000,
    },
    "fig4": {
        "n": _FIG_N_DEFAULT,
        "orders": ((2, 1), (3, 1), (3, 2)),
        "r_inv_grid": list(np.geomspace(1e4, 1e12, 81)),
    },
}


def _figure_params(figure_id: str, overrides: dict | None, realizations) -> dict:
    """The defaults with ``overrides`` merged in, every value range-checked."""
    if figure_id not in FIGURE_DEFAULTS:
        raise ConfigError("figure", f"unknown figure id {figure_id!r}")
    params = dict(FIGURE_DEFAULTS[figure_id])
    params.update(overrides or {})
    if realizations is not None:
        params["realizations"] = realizations
    for key in ("n_grid", "m_values"):
        if key in params:
            params[key] = [as_int(v, key) for v in as_grid(params[key], key)]
    for key in ("n", "realizations"):
        if key in params:
            params[key] = as_int(params[key], key)
    if "orders" in params:
        params["orders"] = [_tabulated_order(v) for v in params["orders"]]
    params["r_inv_grid"] = as_grid(params["r_inv_grid"], "r_inv_grid")
    if not all(v > 0.0 for v in params["r_inv_grid"]):
        raise ConfigError("r_inv_grid", "entries must be > 0")
    return params


def _tabulated_order(value) -> tuple[int, int]:
    """An [m, n] entry of fig4's ``orders`` with a tabulated leading term."""
    for key in LEADING_UNEQUAL:
        if isinstance(value, (list, tuple)) and list(value) == list(key):
            return key
    raise ConfigError("orders", f"entries must be among {sorted(LEADING_UNEQUAL)}, got {value!r}")


def run_figure(
    figure_id: str,
    overrides: dict | None = None,
    seed: int = 7,
    realizations: int | None = None,
    threads: int = 1,
):
    """Figure-data tables at desk scale; overrides merge over the defaults."""
    params = _figure_params(figure_id, overrides, realizations)

    if figure_id == "fig1":
        table = ResultTable(
            columns=["n_atoms", "r_inv", "ratio", "g2", "nr_squared", "method"]
        )
        for nat in params["n_grid"]:
            for r_inv in params["r_inv_grid"]:
                r = 1.0 / r_inv
                table.append(
                    n_atoms=nat, r_inv=r_inv, ratio=r, g2=forward_g_equal_ratio(nat, 2, r),
                    nr_squared=(nat * r) ** 2, method="forward-closed-form",
                )
        return table, {"figure": figure_id}

    if figure_id == "fig2":
        nat = params["n"]
        table = ResultTable(
            columns=[
                "m", "n_atoms", "r_inv", "ratio", "delta_coh_abs",
                "linear_term", "quadratic_term", "crossover_ratio", "method",
            ]
        )
        for m in params["m_values"]:
            fact = math.factorial(m) * m * (m - 1)
            for r_inv in params["r_inv_grid"]:
                r = 1.0 / r_inv
                table.append(
                    m=m, n_atoms=nat, r_inv=r_inv, ratio=r,
                    delta_coh_abs=abs(deviation_coh_forward_ratio(nat, m, r)),
                    linear_term=fact * r,
                    quadratic_term=0.25 * fact * nat**2 * r**2,
                    crossover_ratio=crossover_ratio(nat),
                    method="forward-closed-form",
                )
        return table, {"figure": figure_id}

    if figure_id == "fig3":
        nat = params["n"]
        m_values = tuple(params["m_values"])
        r_values = [1.0 / r_inv for r_inv in params["r_inv_grid"]]
        reals = params["realizations"]
        means, sems = fig3_deviation_matrix(
            nat, m_values, r_values, reals, seed,
            distribution=params.get("distribution", "uniform-cube"),
            state_kind=params.get("state_kind", "pulse"),
            threads=threads,
        )
        table = ResultTable(
            columns=[
                "m", "n_atoms", "r_inv", "ratio", "realizations",
                "mean_delta_coh_re", "mean_delta_coh_im", "mean_delta_coh_abs",
                "sem", "seed", "method",
            ]
        )
        for i, m in enumerate(m_values):
            for j, r_inv in enumerate(params["r_inv_grid"]):
                table.append(
                    m=m, n_atoms=nat, r_inv=r_inv, ratio=r_values[j],
                    realizations=reals,
                    mean_delta_coh_re=means[i, j].real,
                    mean_delta_coh_im=means[i, j].imag,
                    mean_delta_coh_abs=abs(means[i, j]),
                    sem=float(sems[i, j]), seed=seed, method="power-sum",
                )
        return table, {"figure": figure_id}

    # fig4
    nat = params["n"]
    table = ResultTable(
        columns=[
            "m", "n", "n_atoms", "r_inv", "ratio", "g_abs",
            "leading_pred", "sqrt_r", "r", "method",
        ]
    )
    for m, n in params["orders"]:
        for r_inv in params["r_inv_grid"]:
            r = 1.0 / r_inv
            table.append(
                m=m, n=n, n_atoms=nat, r_inv=r_inv, ratio=r,
                g_abs=forward_g_unequal_ratio_abs(nat, m, n, r),
                leading_pred=leading_unequal(nat, r, CorrelationOrder(m, n)),
                sqrt_r=math.sqrt(r), r=r, method="forward-closed-form",
            )
    return table, {"figure": figure_id}
