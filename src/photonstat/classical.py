"""Classical-oscillator correlators: closed forms, exact evaluation, Monte Carlo.

Each emitter radiates a fixed coherent amplitude plus an incoherent amplitude
with an independent uniform random phase.  Phase averaging turns intensity
moments into the combinatorial counts C_{j,N}; at arbitrary directions a
classical model goes through the same ``quantum.SlotTable.g`` as a two-level
state, with its phase-averaged moment table
(``ClassicalEmitterModel.moment_table``) in place of the two-level moments
(a classical oscillator can serve any number of slots).  The closed forms
and the moment table take the amplitudes over max(|E_coh|, E_incoh), so
faint models do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import classical_count_C
from .ensemble import Ensemble, phase_matrix
from .errors import ZeroIntensityError
from .quantum import CorrelationOrder, _as_directions, slot_table
from .states import ClassicalEmitterModel


def classical_intensity(model: ClassicalEmitterModel, nat: int) -> float:
    """<I(0)> = N |E_incoh|^2 + N^2 |E_coh|^2."""
    return nat * model.e_incoh**2 + nat**2 * abs(model.e_coh) ** 2


def classical_forward_g(model: ClassicalEmitterModel, nat: int, m: int) -> float:
    """g^(m)(0) = sum_j C(m,j)^2 (N^2 |Ec|^2)^(m-j) |Ei|^(2j) C_{j,N} / <I>^m."""
    if m < 1 or nat < 1:
        raise ValueError("orders and atom counts must be positive")
    model = model.unit()
    ec2 = abs(model.e_coh) ** 2
    ei2 = model.e_incoh**2
    num = 0.0
    for j in range(m + 1):
        num += (
            math.comb(m, j) ** 2
            * (nat**2 * ec2) ** (m - j)
            * ei2**j
            * classical_count_C(j, nat)
        )
    denom = classical_intensity(model, nat) ** m
    if denom == 0.0:
        raise ZeroIntensityError("classical model emits no light")
    return num / denom


def classical_g_ratio(nat: int, m: int, r: float) -> float:
    """Normalized forward g^(m)(0) as a function of (N, m, R) only."""
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    num = 0.0
    for j in range(m + 1):
        num += math.comb(m, j) ** 2 * (nat**2 * r) ** (m - j) * classical_count_C(j, nat)
    return num / (float(nat) ** m * (1.0 + nat * r) ** m)


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


def classical_forward_g_unequal(
    model: ClassicalEmitterModel, nat: int, m: int, n: int
) -> complex:
    """g^(m,n)(0) for m > n >= 0 from the multiset-counting sum.

    Numerator: sum_j C(m,j) C(n,j) (N Ec*)^(m-j) (N Ec)^(n-j) |Ei|^(2j) C_{j,N};
    normalization divides by <I>^((m+n)/2).
    """
    if not m > n >= 0:
        raise ValueError("requires m > n >= 0")
    model = model.unit()
    ec = model.e_coh
    ei2 = model.e_incoh**2
    num = 0.0 + 0.0j
    for j in range(n + 1):
        num += (
            math.comb(m, j)
            * math.comb(n, j)
            * (nat * ec.conjugate()) ** (m - j)
            * (nat * ec) ** (n - j)
            * ei2**j
            * classical_count_C(j, nat)
        )
    denom = classical_intensity(model, nat) ** (0.5 * (m + n))
    if denom == 0.0:
        raise ZeroIntensityError("classical model emits no light")
    return num / denom


def classical_exact_G(
    model: ClassicalEmitterModel, ensemble: Ensemble, order: CorrelationOrder, directions
) -> complex:
    """Exact phase-averaged G at arbitrary directions via the cumulant engine."""
    return slot_table(ensemble, order, directions).G(model)


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
