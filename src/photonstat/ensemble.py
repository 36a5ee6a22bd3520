"""Emitter geometry: positions, structure factors, seeded cloud generation.

Positions are stored in units of the transition wavelength; observation wave
vectors in units of 2 pi / lambda.  A phase is then exp(2 pi i k . R) with a
dimensionless dot product, which keeps every downstream formula unit-free.

Cloud generation uses a counter-based RNG (Philox) keyed by
(seed, realization index), so realization r of a sweep is reproducible
independently of evaluation order or worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CUBE_SIDE = 100.0  # wavelengths; large enough for fully developed speckle
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Ensemble:
    """Immutable emitter positions plus generation provenance."""

    positions: np.ndarray  # (N, 3), wavelength units
    provenance: dict = field(default_factory=lambda: {"kind": "explicit"})

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=float)))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if pos.shape[0] < 1:
            raise ValueError("an ensemble needs at least one emitter")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def structure_factor(ensemble: Ensemble, k) -> complex:
    """S(k) = sum_mu exp(2 pi i k . R_mu); S(0) = N exactly, |S(k)| <= N."""
    k = np.asarray(k, dtype=float)
    if not np.any(k):
        return complex(ensemble.n)
    phase = _TWO_PI * (ensemble.positions @ k)
    return complex(np.sum(np.exp(1j * phase)))


def phase_matrix(ensemble: Ensemble, wave_vectors) -> np.ndarray:
    """exp(2 pi i k_j . R_mu) as an (N, n_slots) complex array."""
    kk = np.atleast_2d(np.asarray(wave_vectors, dtype=float))
    return np.exp(1j * _TWO_PI * (ensemble.positions @ kk.T))


def _parse_distribution(distribution) -> dict:
    if isinstance(distribution, str):
        if distribution == "uniform-cube":
            return {"kind": "uniform-cube", "side": DEFAULT_CUBE_SIDE}
        if distribution == "gaussian":
            return {"kind": "gaussian", "sigma": DEFAULT_CUBE_SIDE / 2.0}
        raise ValueError(f"unknown distribution {distribution!r}")
    dist = dict(distribution)
    kind = dist.get("kind")
    if kind == "uniform-cube":
        side = float(dist.get("side", DEFAULT_CUBE_SIDE))
        if side <= 0.0:
            raise ValueError("cube side must be positive")
        return {"kind": kind, "side": side}
    if kind == "gaussian":
        sigma = float(dist.get("sigma", DEFAULT_CUBE_SIDE / 2.0))
        if sigma <= 0.0:
            raise ValueError("gaussian sigma must be positive")
        return {"kind": kind, "sigma": sigma}
    raise ValueError(f"unknown distribution kind {kind!r}")


def _rng_for(seed: int, index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def random_cloud(
    n: int,
    seed: int,
    distribution="uniform-cube",
    realization: int = 0,
) -> Ensemble:
    """Seeded random cloud; deterministic for fixed (seed, realization).

    The default geometry is a uniform cube of side 100 wavelengths.  Sizes
    comparable to the wavelength leave the speckle regime, which is worth a
    warning but not a rejection.
    """
    if n < 1:
        raise ValueError("atom count must be positive")
    dist = _parse_distribution(distribution)
    extent = dist.get("side", dist.get("sigma"))
    if extent < 10.0:
        warnings.warn(
            f"cloud extent {extent} wavelengths is small; off-axis structure-factor "
            "phases may not be speckle-like",
            stacklevel=2,
        )
    rng = _rng_for(seed, realization)
    if dist["kind"] == "uniform-cube":
        pos = rng.uniform(-0.5 * dist["side"], 0.5 * dist["side"], size=(n, 3))
    else:
        pos = rng.normal(0.0, dist["sigma"], size=(n, 3))
    return Ensemble(
        positions=pos,
        provenance={
            "kind": "random",
            "seed": seed,
            "realization": realization,
            "distribution": dist,
        },
    )


def forward_directions(n_slots: int) -> np.ndarray:
    """All observation vectors along the drive axis: k = 0 after absorbing k_L."""
    return np.zeros((n_slots, 3))


def off_axis_direction(angle: float = 0.0) -> np.ndarray:
    """Unit observation vector orthogonal to the nominal drive axis z.

    Magnitude 1 in units of 2 pi / lambda; ``angle`` rotates it in the
    transverse plane for seeded averaging studies.
    """
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def equal_directions(k, n_slots: int) -> np.ndarray:
    """The same observation vector in every slot (autocorrelation geometry)."""
    return np.tile(np.asarray(k, dtype=float), (n_slots, 1))


def ensemble_from_config(cfg: dict) -> Ensemble:
    if "positions" in cfg:
        return Ensemble(positions=np.asarray(cfg["positions"], dtype=float))
    n = int(cfg["n"])
    seed = int(cfg.get("seed", 0))
    distribution = cfg.get("distribution", "uniform-cube")
    realization = int(cfg.get("realization", 0))
    return random_cloud(n, seed, distribution, realization=realization)
