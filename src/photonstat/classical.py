"""Classical-oscillator correlators: exact evaluation and Monte Carlo.

Each emitter radiates a fixed coherent amplitude plus an incoherent amplitude
with an independent uniform random phase.  Phase averaging turns intensity
moments into the combinatorial counts C_{j,N}.  A classical model goes
through the same ``quantum.row_geometry`` rows as a two-level state: on one
k (the forward direction included) ``SingleK`` sums the coherent-plus-thermal
series in S(k) and C_{j,N}, and at distinct directions ``SlotTable.g`` takes
its phase-averaged moment table (``ClassicalEmitterModel.moment_table``) in
place of the two-level moments (a classical oscillator can serve any number
of slots).  Both take the amplitudes over max(|E_coh|, E_incoh), so faint
models do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import classical_count_C
from .ensemble import Ensemble, phase_matrix
from .quantum import CorrelationOrder, _as_directions, forward_row
from .states import ClassicalEmitterModel, classical_model_for_ratio


def classical_g_ratio(nat: int, m: int, r: float) -> float:
    """Normalized forward g^(m)(0) as a function of (N, m, R) only."""
    return forward_row(nat, m, m).g(classical_model_for_ratio(r))[1].real


def classical_deviation_coh_ratio(nat: int, m: int, r: float) -> float:
    """g|_(R=0) - g(R) at k = 0, with the constant term cancelled exactly."""
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    c = [classical_count_C(j, nat) for j in range(m + 1)]
    # b_k: coefficient of R^k in C_{m,N} (1 + N R)^m - sum_j C(m,j)^2 (N^2 R)^(m-j) C_{j,N}
    b = [
        c[m] * math.comb(m, k) * nat**k
        - math.comb(m, m - k) ** 2 * nat ** (2 * k) * c[m - k]
        for k in range(1, m + 1)
    ]
    num = 0.0
    for k in range(m, 0, -1):
        num = num * r + float(b[k - 1])
    num *= r
    return num / (float(nat) ** m * (1.0 + nat * r) ** m)


@dataclass(frozen=True)
class McEstimate:
    estimate: complex
    std_error: float
    samples: int
    batches: int
    seed: int


def classical_mc_G(
    model: ClassicalEmitterModel,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    samples: int,
    seed: int,
    batches: int = 20,
) -> McEstimate:
    """Monte Carlo G by sampling the per-emitter phases directly.

    The estimate is the sample mean of the slot-field product; the standard
    error comes from batch means, so batches can be merged associatively.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    batches = max(1, min(batches, samples // 2))
    dirs = _as_directions(directions, order.total)
    m, n = order.m, order.n
    ph = phase_matrix(ensemble, dirs)  # exp(+2 pi i k_j . R_mu)
    ec = model.e_coh
    ei = model.e_incoh
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(ss))

    sizes = [samples // batches + (1 if b < samples % batches else 0) for b in range(batches)]
    batch_means = np.empty(batches, dtype=complex)
    for b, size in enumerate(sizes):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(size, ensemble.n)))
        values = np.ones(size, dtype=complex)
        # minus slot i carries E*(k_i) = sum_mu e^(+2 pi i k_i.R_mu)(Ec* + Ei e^(-i phi_mu))
        for i in range(m):
            values *= (ec.conjugate() + ei * np.conj(phases)) @ ph[:, i]
        # plus slot j carries E(k_j) = sum_mu e^(-2 pi i k_j.R_mu)(Ec + Ei e^(i phi_mu))
        for j in range(m, m + n):
            values *= (ec + ei * phases) @ np.conj(ph[:, j])
        batch_means[b] = values.mean()
    weights = np.asarray(sizes, dtype=float) / samples
    estimate = complex(np.sum(weights * batch_means))
    if batches == 1:
        se = 0.0
    else:
        dev = batch_means - estimate
        se = math.sqrt(
            (np.sum(weights * dev.real**2) + np.sum(weights * dev.imag**2))
            / (batches - 1)
        )
    return McEstimate(
        estimate=estimate, std_error=se, samples=samples, batches=batches, seed=seed
    )
