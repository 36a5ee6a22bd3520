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

# Two batches of two: the fewest samples that give a batch-mean standard error.
MIN_MC_SAMPLES = 4


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


def _conj_roots(order: CorrelationOrder) -> np.ndarray:
    """e^(-2 pi i q / L), q < L = m + n + 1: the conjugate phasors the estimator draws."""
    n_roots = order.total + 1
    return np.exp(-2j * math.pi * np.arange(n_roots) / n_roots)


def _slot_product(zc: np.ndarray, ph: np.ndarray, e_coh: complex, e_incoh: float, m: int):
    """The slot-field product of each row of conjugate phasors ``zc`` (rows x N).

    With W = zc @ ph and S_i = sum_mu ph[mu, i], minus slot i carries
    E*(k_i) = Ec* S_i + Ei W[:, i] and plus slot j carries
    E(k_j) = Ec conj(S_j) + Ei conj(W[:, j]).
    """
    w = zc @ ph
    s = ph.sum(axis=0)
    minus = e_coh.conjugate() * s[:m] + e_incoh * w[:, :m]
    plus = e_coh * s[m:].conjugate() + e_incoh * w[:, m:].conjugate()
    return minus.prod(axis=1) * plus.prod(axis=1)


def classical_mc_G(
    model: ClassicalEmitterModel,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    samples: int,
    seed: int,
    batches: int = 20,
) -> McEstimate:
    """Monte Carlo G by sampling the per-emitter phases.

    Each emitter radiates Ec + Ei e^(i phi); phi is drawn uniformly from the
    L-th roots of unity, phi = 2 pi q / L with L = m + n + 1.  Over these,
    E[e^(i p phi)] = [p = 0 mod L].  The net phase power of one emitter is in
    [-m, n] in the slot product and in [-(m+n), m+n] in its squared modulus,
    so both moments equal those of continuous uniform phases: the mean is G
    exactly and the standard error is that of continuous phases.  L = m + n
    would alias powers +-L in the second moment.

    Each batch draws its (size x N) phasors once (``_conj_roots``) and
    contracts them with the phase matrix in one matrix product
    (``_slot_product``).  The estimate is
    the sample mean; the standard error comes from the batch means, so at
    least ``MIN_MC_SAMPLES`` samples (two batches of two) are needed.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    if batches < 2:
        raise ValueError(f"need at least two batches, got {batches}")
    batches = min(batches, samples // 2)
    dirs = _as_directions(directions, order.total)
    ph = phase_matrix(ensemble, dirs)  # exp(+2 pi i k_j . R_mu)
    conj_roots = _conj_roots(order)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(ss))

    sizes = [samples // batches + (1 if b < samples % batches else 0) for b in range(batches)]
    batch_means = np.empty(batches, dtype=complex)
    for b, size in enumerate(sizes):
        zc = conj_roots[rng.integers(0, len(conj_roots), size=(size, ensemble.n))]
        batch_means[b] = _slot_product(zc, ph, model.e_coh, model.e_incoh, order.m).mean()
    weights = np.asarray(sizes, dtype=float) / samples
    estimate = complex(np.sum(weights * batch_means))
    dev = batch_means - estimate
    se = math.sqrt(
        (np.sum(weights * dev.real**2) + np.sum(weights * dev.imag**2)) / (batches - 1)
    )
    return McEstimate(
        estimate=estimate, std_error=se, samples=samples, batches=batches, seed=seed
    )
