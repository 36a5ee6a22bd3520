"""Gaussian-moment-theorem predictions, deviations, conditions, and series.

The GMT prediction for m = n is the pair-partition sum over products of
first-order correlators; for m != n it is zero.  Deviations are reported as

    delta_g = g_GMT - g_exact ,

split into a finite-size part (re-evaluated with the coherence zeroed while
keeping the fluctuation: p -> f, c -> 0) and the spin-coherence remainder.
The split is exact by construction; at equal directions and full inversion
delta_g^(2) = +2/N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import falling_factorial
from .ensemble import Ensemble, structure_factor
from .quantum import (
    CorrelationOrder,
    SingleK,
    SlotTable,
    closed_form_range,
    deviation_coh_autocorrelation,
    row_geometry,
)
from .states import SingleAtomState

DEFAULT_MARGIN_POLICY = 0.1  # "much less than one" reported as ratio < policy


@dataclass(frozen=True)
class ConditionMargin:
    """One admissibility condition as numbers, not booleans: lhs << rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return math.inf if self.lhs > 0.0 else 0.0
        return self.lhs / self.rhs

    def satisfied(self, policy: float = DEFAULT_MARGIN_POLICY) -> bool:
        return self.ratio < policy


@dataclass(frozen=True)
class ConditionReport:
    order: CorrelationOrder
    n_atoms: int
    ratio: float
    margins: tuple[ConditionMargin, ...]

    def margin(self, name: str) -> ConditionMargin:
        for m in self.margins:
            if m.name == name:
                return m
        raise KeyError(name)

    def flagged(self, policy: float = DEFAULT_MARGIN_POLICY) -> bool:
        """Any margin at or above the policy.

        With max(m, n) > N there are no margins: g is exactly 0, which misses
        g_GMT = m! when m = n and matches g_GMT = 0 when m != n.
        """
        if not self.margins:
            return self.order.equal_order
        return any(not m.satisfied(policy) for m in self.margins)


@dataclass(frozen=True)
class DeviationReport:
    order: CorrelationOrder
    g_exact: complex
    g_gmt: complex
    delta_total: complex
    delta_n: complex
    delta_coh: complex
    epsilon: float
    conditions: ConditionReport


def _pair_partition_sum(order: CorrelationOrder, g1) -> complex:
    """sum over the m! pairings of prod g1(i, j), i a minus and j a plus slot index.

    Each pairing is a permutation of the plus slots m..2m-1, in lexicographic
    order.
    """
    if not order.equal_order:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for plus in itertools.permutations(range(order.m, 2 * order.m)):
        term = 1.0 + 0.0j
        for i, j in enumerate(plus):
            term *= g1(i, j)
        total += term
    return total


def check_conditions(ratio: float, nat: int, order: CorrelationOrder) -> ConditionReport:
    """Margins for the admissibility conditions at the given coherence ratio.

    For m = n: the finite-size condition m! m (m-1) / (2N) << 1, the
    quadratic spin-coherence condition R^2 << 4 / (N^2 m (m-1)), and the
    stricter intermediate linear condition R << 1 / (m (N - m + 1)).  For
    m != n only a spin-coherence condition remains:
    sqrt(R) << (N-x)! N^x / (x! N! sqrt(N)) with x = max(m, n).  With
    x > N, g = 0 exactly and there are no margins.
    """
    m, n = order.m, order.n
    margins = []
    if order.x > nat:
        return ConditionReport(order=order, n_atoms=nat, ratio=ratio, margins=())
    if order.equal_order:
        lhs = math.factorial(m) * m * (m - 1) / (2.0 * nat)
        margins.append(ConditionMargin("finite_n", lhs, 1.0))
        if m * (m - 1) > 0:
            margins.append(
                ConditionMargin(
                    "spin_coherence_quadratic",
                    ratio**2,
                    4.0 / (nat**2 * m * (m - 1)),
                )
            )
            margins.append(
                ConditionMargin(
                    "spin_coherence_linear", ratio, 1.0 / (m * (nat - m + 1))
                )
            )
        else:
            margins.append(ConditionMargin("spin_coherence_quadratic", 0.0, 1.0))
            margins.append(ConditionMargin("spin_coherence_linear", 0.0, 1.0))
    else:
        x = order.x
        rhs = float(nat) ** x / float(falling_factorial(nat, x)) / (
            math.factorial(x) * math.sqrt(nat)
        )
        margins.append(ConditionMargin("spin_coherence_sqrt", math.sqrt(ratio), rhs))
    return ConditionReport(order=order, n_atoms=nat, ratio=ratio, margins=tuple(margins))


def deviation(
    state: SingleAtomState, ensemble: Ensemble, order: CorrelationOrder, directions
) -> DeviationReport:
    """Full deviation decomposition on the geometry ``row_geometry`` picks."""
    return deviation_on(state, row_geometry(ensemble, order, directions))


def deviation_on(state: SingleAtomState, geometry: SingleK | SlotTable) -> DeviationReport:
    """The decomposition of one row on a one-k row or a slot table.

    On one k every g^(1) is 1, so g_GMT = m! (0 for m != n), the
    coherence-zeroed g is m! N^(m) / N^m with N^(m) the falling factorial,
    and delta_coh comes from the power sums without subtracting two O(1)
    values.  A slot table gives g, the coherence-zeroed g, the slot
    intensities and every pair factor g^(1).
    """
    order, nat = geometry.order, geometry.n
    with closed_form_range(nat, order.x):
        g_exact = geometry.g(state)[1]
        if isinstance(geometry, SlotTable):
            g_gmt = _pair_partition_sum(order, geometry.g1(state))
            delta_total = g_gmt - g_exact
            delta_n = 0.0 + 0.0j
            if order.equal_order:
                zeroed = state.coherence_zeroed()
                delta_n = _pair_partition_sum(order, geometry.g1(zeroed)) - geometry.g(zeroed)[1]
            delta_coh = delta_total - delta_n
        elif order.equal_order:
            m = order.m
            g_gmt = complex(math.factorial(m))
            delta_n = complex(math.factorial(m) * (nat**m - math.perm(nat, m)) / nat**m)
            delta_coh = complex(deviation_coh_autocorrelation(state, geometry.sums, m))
            delta_total = delta_n + delta_coh
        else:
            g_gmt = delta_n = 0j
            delta_total = delta_coh = g_gmt - g_exact
        return DeviationReport(
            order, g_exact, g_gmt, delta_total, delta_n, delta_coh,
            epsilon=math.factorial(order.x) * math.sqrt(state.ratio),
            conditions=check_conditions(state.ratio, nat, order),
        )


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series value plus enough metadata to shade validity regions."""

    value: float
    truncation_order: int
    next_term_estimate: float


def taylor_forward_equal(nat: int, m: int, r: float, variant: str = "exact-N") -> SeriesValue:
    """Second-order expansion of g^(m)(0,...,0) in the coherence ratio.

    ``exact-N`` keeps the finite-N prefactors; ``large-N`` is
    m! - m! m (m-1) R - (1/4) m! m (m-1) N^2 R^2.  The two orders exchange
    dominance at the crossover R ~ 4 / N^2 (see :func:`crossover_ratio`).
    """
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    fact = math.factorial(m)
    mm1 = m * (m - 1)
    if variant == "large-N":
        value = fact - fact * mm1 * r - 0.25 * fact * mm1 * nat**2 * r**2
    elif variant == "exact-N":
        lead = fact**2 * math.comb(nat, m) / float(nat) ** m
        quad = nat**2 - 3 * nat - 2 * m * nat + 3 * m - m**2 - 2
        value = lead * (1.0 - mm1 * r - 0.25 * quad * mm1 * r**2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # empirical magnitude of the dropped R^3 term (e.g. 2 N (N-1)(N-5) R^3 at m = 2)
    next_term = fact * max(mm1, 1) * float(nat) ** 3 * r**3
    return SeriesValue(value=float(value), truncation_order=2, next_term_estimate=next_term)


def crossover_ratio(nat: int) -> float:
    """R at which the first- and second-order coherence corrections match: 4/N^2."""
    return 4.0 / nat**2


def classical_taylor_forward(nat: int, m: int, r: float) -> SeriesValue:
    """Classical counterpart: m! + (1/2) m! m (m-1) R - (1/4) m! m (m-1) N^2 R^2.

    Against the quantum series the linear term is half as large and of
    opposite sign; the quadratic term coincides.
    """
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    fact = math.factorial(m)
    mm1 = m * (m - 1)
    value = fact + 0.5 * fact * mm1 * r - 0.25 * fact * mm1 * nat**2 * r**2
    next_term = fact * max(mm1, 1) * float(nat) ** 3 * r**3
    return SeriesValue(value=float(value), truncation_order=2, next_term_estimate=next_term)


@dataclass(frozen=True)
class OffAxisSeries:
    """Truncated expansion of the off-axis spin-coherence deviation."""

    value: complex
    epsilon: float
    truncation_order: int
    next_term_estimate: float
    large_n_limit: float  # disorder-averaged magnitude: 2 R^2 (m=2), 18 R^2 (m=3)


def taylor_offaxis_coh(ensemble: Ensemble, m: int, k, r: float) -> OffAxisSeries:
    """Expansion of the off-axis autocorrelation deviation in eps = m! sqrt(R).

    m = 2 returns the realization-specific structure-factor form; m = 3 the
    disorder-averaged leading term (2N^2 - 19N + 32)/(144 N^2) eps^4.  Both
    expose the large-N disorder-averaged limits 2 R^2 and 18 R^2.
    """
    if m not in (2, 3):
        raise ValueError("off-axis series available for m in {2, 3} only")
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    nat = ensemble.n
    eps = math.factorial(m) * math.sqrt(r)
    if m == 2:
        s_k = structure_factor(ensemble, np.asarray(k, dtype=float))
        s_2k = structure_factor(ensemble, 2.0 * np.asarray(k, dtype=float))
        a2 = abs(s_k) ** 2
        quadratic = (a2 - nat) / nat**2
        quartic = -(
            nat * abs(s_2k) ** 2
            - (nat - 10.0) * a2**2
            - 8.0 * nat * a2
            - 2.0 * nat * (s_2k * s_k.conjugate() ** 2).real
        ) / (16.0 * nat**3)
        value = quadratic * eps**2 + quartic * eps**4
        large_n = 2.0 * r**2
    else:
        value = (2.0 * nat**2 - 19.0 * nat + 32.0) / (144.0 * nat**2) * eps**4
        large_n = 18.0 * r**2
    return OffAxisSeries(
        value=complex(value),
        epsilon=eps,
        truncation_order=4,
        next_term_estimate=eps**6,
        large_n_limit=large_n,
    )


def leading_unequal(nat: int, r: float, order: CorrelationOrder) -> float:
    """Leading magnitude of |g^(m,n)(0)| for m != n: x!/(x-y)! (NR)^((x-y)/2).

    x = max(m, n) and y = min(m, n); the exact |g| carries a further
    N^(x)/N^x (falling factorial) and 1 + O(NR).  The whole powers of NR are
    taken as integer powers, so (2,1), (3,1) and (3,2) give 2 sqrt(NR), 3 NR
    and 6 sqrt(NR) bit for bit.
    """
    x, y = order.x, min(order.m, order.n)
    if x == y:
        raise ValueError("the leading unequal-order term needs m != n")
    h = (x - y) // 2
    return math.perm(x, y) * nat**h * r**h * (math.sqrt(nat * r) if (x - y) % 2 else 1.0)
