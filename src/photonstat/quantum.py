"""Normalized correlation functions g^(m,n) for independent emitters.

An emitter is a two-level state or a classical oscillator; both enter
through their single-emitter moment table w(a, b) and their incoherent and
coherent powers (``moment_table`` and ``scaled_powers`` in
:mod:`photonstat.states`), taken in units of s = max(incoherent power,
coherent power) so that faint emitters do not underflow.

Three exact evaluation paths, trusted against each other:

* ``oracle_G``: brute-force sum over all index tuples.  Feasible only for
  tiny systems; it is the reference everything else is tested against.
* ``SlotTable.g``: the same sum as a cumulant (set-partition) expansion
  over the structure factors of the 2^(m+n) slot subsets, built once per
  cloud and directions (``slot_table``, :mod:`photonstat.kernels`), for
  either emitter.  Cost O(N 2^(m+n)) plus O(3^(m+n)) per emitter; this path
  reaches N = 10^4.
* ``forward_G_equal`` / ``forward_G_unequal``: closed-form binomial sums for
  two-level atoms with all observation vectors equal to zero (forward
  direction), with exact integer coefficients.

For an autocorrelation (every slot at one k) ``autocorrelation_G`` needs only
the power sums S(d k), d <= m: ``autocorrelation_sums`` computes them once
per cloud and direction, in O(N m), for every order and state.

Raw correlators G carry source-field units^(m+n); ``normalize`` divides by
the square roots of the m+n single-direction intensities.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .combinatorics import DEFAULT_ORDER_CAP, binomial
from .ensemble import Ensemble, phase_matrix, structure_factor
from .errors import CapacityError, ZeroIntensityError
from .states import Emitter, SingleAtomState

ORACLE_TUPLE_GUARD = 10**8


@dataclass(frozen=True)
class CorrelationOrder:
    """(m, n) = number of negative- and positive-frequency field factors."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("orders must be non-negative")
        if self.m + self.n < 1:
            raise ValueError("m + n must be at least 1")

    @property
    def x(self) -> int:
        return max(self.m, self.n)

    @property
    def total(self) -> int:
        return self.m + self.n

    @property
    def equal_order(self) -> bool:
        return self.m == self.n

    @classmethod
    def equal(cls, m: int) -> "CorrelationOrder":
        return cls(m, m)


@dataclass(frozen=True)
class CorrelationResult:
    raw: complex
    value: complex
    method: str
    order: CorrelationOrder
    directions: np.ndarray


def _as_directions(directions, n_slots: int) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(directions, dtype=float))
    if arr.shape != (n_slots, 3):
        raise ValueError(f"need {n_slots} direction vectors of length 3, got {arr.shape}")
    return arr


def first_order_G(state: SingleAtomState, ensemble: Ensemble, k1, k2) -> complex:
    """G^(1)(k1, k2) = f S(k1 - k2) + |c|^2 S(k1) S(-k2)."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    f = state.fluctuation
    c2 = abs(state.coherence) ** 2
    val = f * structure_factor(ensemble, k1 - k2)
    if c2 > 0.0:
        val += c2 * structure_factor(ensemble, k1) * structure_factor(ensemble, k2).conjugate()
    return complex(val)


def intensity(state: SingleAtomState, ensemble: Ensemble, k) -> float:
    """G^(1)(k, k), which is real: f N + |c|^2 |S(k)|^2."""
    c2 = abs(state.coherence) ** 2
    return state.fluctuation * ensemble.n + c2 * abs(structure_factor(ensemble, k)) ** 2


def normalize(raw: complex, intensities) -> complex:
    """g = G / prod_j sqrt(G^(1)(k_j, k_j))."""
    denom = 1.0
    for val in intensities:
        if not val > 0.0:
            raise ZeroIntensityError(
                "cannot normalize against zero single-direction intensity "
                "(dark state or empty ensemble)"
            )
        denom *= math.sqrt(val)
    return complex(raw) / denom


def g1_function(state: SingleAtomState, ensemble: Ensemble):
    """Normalized first-order correlator g^(1)(ki, kj) as a callable."""

    def g1(ki, kj) -> complex:
        raw = first_order_G(state, ensemble, ki, kj)
        return normalize(
            raw, (intensity(state, ensemble, ki), intensity(state, ensemble, kj))
        )

    return g1


class _ChunkedSum:
    """Exact-as-practical complex accumulation via buffered math.fsum."""

    def __init__(self, flush_at: int = 1 << 16):
        self._re: list[float] = []
        self._im: list[float] = []
        self._re_partials: list[float] = []
        self._im_partials: list[float] = []
        self._flush_at = flush_at

    def add(self, z: complex) -> None:
        self._re.append(z.real)
        self._im.append(z.imag)
        if len(self._re) >= self._flush_at:
            self._re_partials.append(math.fsum(self._re))
            self._im_partials.append(math.fsum(self._im))
            self._re.clear()
            self._im.clear()

    def total(self) -> complex:
        return complex(
            math.fsum(self._re_partials + [math.fsum(self._re)]),
            math.fsum(self._im_partials + [math.fsum(self._im)]),
        )


def _oracle_sum(
    emitter: Emitter, ensemble: Ensemble, order: CorrelationOrder, dirs, tuple_guard: int
) -> complex:
    """The tuple sum of ``oracle_G`` in units of s^((m+n)/2)."""
    m, n = order.m, order.n
    nat = ensemble.n
    if nat**order.total > tuple_guard:
        raise CapacityError(
            f"oracle would visit {nat ** order.total} index tuples "
            f"(guard {tuple_guard}); use multilinear_G"
        )
    ph = phase_matrix(ensemble, dirs)
    minus_ph = [list(ph[:, i]) for i in range(m)]
    plus_ph = [list(np.conj(ph[:, m + j])) for j in range(n)]
    w = emitter.moment_table(m, n).tolist()

    raising = [0] * nat
    lowering = [0] * nat
    acc = _ChunkedSum()
    for mus in itertools.product(range(nat), repeat=m):
        for a in mus:
            raising[a] += 1
        for nus in itertools.product(range(nat), repeat=n):
            for a in nus:
                lowering[a] += 1
            moment = 1.0 + 0.0j
            for atom in set(mus).union(nus):
                moment *= w[raising[atom]][lowering[atom]]
                if moment == 0.0:
                    break
            if moment != 0.0:
                term = moment
                for i, a in enumerate(mus):
                    term *= minus_ph[i][a]
                for j, a in enumerate(nus):
                    term *= plus_ph[j][a]
                acc.add(term)
            for a in nus:
                lowering[a] -= 1
        for a in mus:
            raising[a] -= 1
    return acc.total()


def oracle_G(
    emitter: Emitter,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    tuple_guard: int = ORACLE_TUPLE_GUARD,
) -> complex:
    """Brute-force G over all index tuples (mu_1..mu_m, nu_1..nu_n).

    Each atom contributes its moment w(a, b) for the a raising and b lowering
    operators that land on it: for a two-level atom 1, <s+>, <s->, or
    <s+ s->, and zero as soon as it carries two of the same kind.
    """
    dirs = _as_directions(directions, order.total)
    scaled = _oracle_sum(emitter, ensemble, order, dirs, tuple_guard)
    return scaled * emitter.scaled_powers()[0] ** order.total


def oracle_g(emitter: Emitter, ensemble: Ensemble, order: CorrelationOrder, directions) -> complex:
    """``oracle_G`` normalized by intensities from ``structure_factor``.

    The tuple sum and the intensities are both taken in units of s, so faint
    states do not underflow to 0 / 0.
    """
    dirs = _as_directions(directions, order.total)
    _, f, c2 = emitter.scaled_powers()
    ints = [f * ensemble.n + c2 * abs(structure_factor(ensemble, k)) ** 2 for k in dirs]
    return normalize(_oracle_sum(emitter, ensemble, order, dirs, ORACLE_TUPLE_GUARD), ints)


@dataclass(frozen=True)
class SlotTable:
    """Structure factors S(K_T) of one cloud for every subset T of the slots.

    Minus slot i adds +k_i to K_T and plus slot j adds -k_j: ``values[0]`` is
    N, ``values[1 << i]`` is S(+-k_i), and a minus slot i with a plus slot j
    give S(k_i - k_j).  One table serves every emitter, quantum or classical.
    """

    order: CorrelationOrder
    n: int
    values: np.ndarray

    def _scaled_G(self, emitter: Emitter) -> complex:
        """G / s^((m+n)/2) from the emitter's moment table.

        A two-level atom serves at most one slot of each kind, so
        max(m, n) > N gives exactly 0; a classical oscillator serves any number.
        """
        order = self.order
        if isinstance(emitter, SingleAtomState) and order.x > self.n:
            return 0j
        return kernels.partition_sum(
            emitter.moment_table(order.m, order.n), self.values, order.m
        )

    def G(self, emitter: Emitter) -> complex:
        """G of a two-level state or a classical model."""
        return self._scaled_G(emitter) * emitter.scaled_powers()[0] ** self.order.total

    def intensities(self, emitter: Emitter) -> list[float]:
        """f N + |c|^2 |S(k_i)|^2 for every slot i, in units of s."""
        _, f, c2 = emitter.scaled_powers()
        return [f * self.n + c2 * abs(self.values[1 << i]) ** 2 for i in range(self.order.total)]

    def g(self, emitter: Emitter) -> tuple[complex, complex]:
        """(G, g) of a two-level state or a classical model.

        g comes from G and the intensities in units of s: g does not change,
        and faint emitters do not underflow to 0 / 0.
        """
        scaled = self._scaled_G(emitter)
        root = emitter.scaled_powers()[0]
        return scaled * root**self.order.total, normalize(scaled, self.intensities(emitter))

    def g1(self, state: SingleAtomState):
        """g^(1)(k_i, k_j) of minus slot i and plus slot j, as a callable (i, j)."""
        _, f, c2 = state.scaled_powers()
        ints, s = self.intensities(state), self.values
        return lambda i, j: normalize(
            f * s[1 << i | 1 << j] + c2 * s[1 << i] * s[1 << j], (ints[i], ints[j])
        )


def slot_table(ensemble: Ensemble, order: CorrelationOrder, directions) -> SlotTable:
    """The structure factors of every slot subset; m + n is capped at DEFAULT_ORDER_CAP."""
    if order.total > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"multilinear path capped at m + n <= {DEFAULT_ORDER_CAP}, got {order.total}"
        )
    values = kernels.structure_factor_table(
        ensemble.positions, _as_directions(directions, order.total), order.m
    )
    return SlotTable(order=order, n=ensemble.n, values=values)


def multilinear_G(
    state: SingleAtomState, ensemble: Ensemble, order: CorrelationOrder, directions
) -> complex:
    """Exact G from the structure factors of the slot subsets and the cumulants.

    Equivalent to ``oracle_G`` term by term (see :mod:`photonstat.kernels`), at
    cost O(N 2^(m+n)) instead of O(N^(m+n)); max(m, n) > N gives exactly 0.
    """
    return slot_table(ensemble, order, directions).G(state)


@dataclass(frozen=True)
class AutocorrelationSums:
    """Geometry of one cloud along one direction k, for g^(m)(k,...,k).

    With z_mu = exp(2 pi i k . R_mu): ``abs_s2`` is |S(k)|^2 and
    ``pair_sums[q]`` is the disjoint-pair sum
    F_q = [x^q y^q] prod_mu (1 + z_mu x + conj(z_mu) y), which is real.
    q runs from 0 to ``m_max``; one table serves every m <= m_max and every
    state.
    """

    n: int
    abs_s2: float
    pair_sums: tuple[float, ...]

    @property
    def m_max(self) -> int:
        return len(self.pair_sums) - 1


def _pair_sums(power_sums, m: int) -> tuple[float, ...]:
    """F_0..F_m as the exponential of the atom product's log series.

    log prod_mu (1 + z_mu x + conj(z_mu) y) = sum c_ab S((a-b) k) x^a y^b over
    a + b >= 1, with c_ab = (-1)^(a+b+1) (a+b-1)! / (a! b!).  E = exp(L)
    follows from a E_ab = sum i L_ij E_(a-i, b-j), and on the row a = 0 from
    the same recurrence in b.
    """
    log = [[0j] * (m + 1) for _ in range(m + 1)]
    for a in range(m + 1):
        for b in range(m + 1):
            if a + b:
                d = a - b
                s = power_sums[d] if d >= 0 else power_sums[-d].conjugate()
                coef = (-1) ** (a + b + 1) * math.factorial(a + b - 1)
                log[a][b] = coef / (math.factorial(a) * math.factorial(b)) * s
    exp = [[0j] * (m + 1) for _ in range(m + 1)]
    exp[0][0] = 1.0 + 0j
    for a in range(m + 1):
        for b in range(m + 1):
            if a:
                exp[a][b] = sum(
                    i * log[i][j] * exp[a - i][b - j]
                    for i in range(1, a + 1)
                    for j in range(b + 1)
                ) / a
            elif b:
                exp[0][b] = sum(j * log[0][j] * exp[0][b - j] for j in range(1, b + 1)) / b
    return tuple(exp[q][q].real for q in range(m + 1))


def autocorrelation_sums(ensemble: Ensemble, k, m_max: int) -> AutocorrelationSums:
    """Power sums S(d k), d <= m_max, and the pair sums built from them.

    One exp per atom; the higher powers come by repeated multiplication.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    z = np.exp(1j * 2.0 * math.pi * (ensemble.positions @ np.asarray(k, dtype=float)))
    power_sums = [complex(ensemble.n)]
    zd = z
    for _ in range(m_max):
        power_sums.append(complex(zd.sum()))
        zd = zd * z
    return AutocorrelationSums(
        n=ensemble.n,
        abs_s2=abs(power_sums[1]) ** 2,
        pair_sums=_pair_sums(power_sums, m_max),
    )


def autocorrelation_G(state: SingleAtomState, sums: AutocorrelationSums, m: int) -> float:
    """G^(m)(k,...,k) = (m!)^2 sum_q p^(m-q) |c|^(2q) C(N-2q, m-q) F_q.

    q atoms carry one minus slot each, q others one plus slot each (F_q),
    and the remaining m - q slot pairs sit on common atoms chosen from the
    other N - 2q.  Terms with no room for them vanish, so m > N gives 0.
    """
    if not 1 <= m <= sums.m_max:
        raise ValueError(f"order {m} outside 1..{sums.m_max} of the power-sum table")
    p = state.population
    c2 = abs(state.coherence) ** 2
    total = sum(
        p ** (m - q) * c2**q * binomial(sums.n - 2 * q, m - q) * sums.pair_sums[q]
        for q in range(m + 1)
    )
    return math.factorial(m) ** 2 * total


def _forward_equal_a(nat: int, m: int) -> list[int]:
    """a_j = C(m,j)^2 j! (2m-j)! C(N, 2m-j): weight of p^j |c|^(2(m-j))."""
    return [
        math.comb(m, j) ** 2
        * math.factorial(j)
        * math.factorial(2 * m - j)
        * math.comb(nat, 2 * m - j)
        for j in range(m + 1)
    ]


def forward_equal_coefficients(nat: int, m: int) -> list[int]:
    """q_k with G(0..0) = f^m sum_k q_k R^k; exact integers."""
    a = _forward_equal_a(nat, m)
    return [
        sum(a[j] * math.comb(j, k - m + j) for j in range(max(m - k, 0), m + 1))
        for k in range(m + 1)
    ]


def forward_G_equal(state: SingleAtomState, nat: int, m: int) -> float:
    """G^(m)(0,...,0) from the closed binomial double sum."""
    if m < 1 or nat < 1:
        raise ValueError("orders and atom counts must be positive")
    return _forward_equal(nat, m, state.population, abs(state.coherence) ** 2)


def _forward_equal(nat: int, m: int, p: float, c2: float) -> float:
    """sum_j a_j p^j |c|^(2(m-j))."""
    a = _forward_equal_a(nat, m)
    return float(sum(aj * p**j * c2 ** (m - j) for j, aj in enumerate(a)))


def forward_g_equal_ratio(nat: int, m: int, r: float) -> float:
    """Normalized g^(m)(0,...,0) as a function of (N, m, R) only.

    g = sum_k q_k R^k / (N^m (1 + N R)^m); the state enters only through R,
    the fluctuation cancels against the normalization.
    """
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    q = forward_equal_coefficients(nat, m)
    num = 0.0
    for k in range(m, -1, -1):
        num = num * r + float(q[k])
    return num / (float(nat) ** m * (1.0 + nat * r) ** m)


def deviation_coh_forward_ratio(nat: int, m: int, r: float) -> float:
    """Spin-coherence deviation at k = 0: g|_(R=0) - g(R), exactly.

    The constant term cancels analytically, so the difference is evaluated
    from integer coefficients with no catastrophic cancellation even at
    R ~ 1e-12.
    """
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    q = forward_equal_coefficients(nat, m)
    b = [q[0] * math.comb(m, k) * nat**k - q[k] for k in range(1, m + 1)]
    num = 0.0
    for k in range(m, 0, -1):
        num = num * r + float(b[k - 1])
    num *= r
    return num / (float(nat) ** m * (1.0 + nat * r) ** m)


def _forward_unequal_c2(nat: int, m: int, n: int) -> list[int]:
    """Combinatorial weights of the m > n forward sum, j = 0..n."""
    out = []
    for j in range(n + 1):
        val = (
            math.comb(m, j)
            * math.comb(n, j)
            * math.factorial(j)
            * math.factorial(2 * n - j)
            * math.comb(nat, 2 * n - j)
            * math.factorial(m - n)
            * math.comb(nat - (2 * n - j), m - n)
        )
        out.append(val)
    return out


def forward_unequal_coefficients(nat: int, m: int, n: int) -> list[int]:
    """u_k with G = <s+>^(m-n) f^n sum_k u_k R^k for m > n; exact integers."""
    if m <= n:
        raise ValueError("requires m > n")
    c2 = _forward_unequal_c2(nat, m, n)
    return [sum(c2[j] * math.comb(j, n - k) for j in range(n + 1)) for k in range(n + 1)]


def forward_G_unequal(state: SingleAtomState, nat: int, m: int, n: int) -> complex:
    """G^(m,n)(0,...,0) for m != n via the single-j binomial sum."""
    if m == n:
        raise ValueError("use forward_G_equal for m == n")
    return _forward_unequal(nat, m, n, state.fluctuation, state.coherence)


def _forward_unequal(nat: int, m: int, n: int, f: float, c: complex) -> complex:
    """The m != n forward sum from f and c = <s->; m < n is the conjugate of n, m."""
    if m < n:
        return _forward_unequal(nat, n, m, f, c).conjugate()
    c2 = _forward_unequal_c2(nat, m, n)
    cp = c.conjugate()
    cm = c
    total = 0.0 + 0.0j
    for j in range(n + 1):
        inner = 0.0 + 0.0j
        for l in range(j + 1):
            inner += math.comb(j, l) * f**l * cp ** (m - l) * cm ** (n - l)
        total += c2[j] * inner
    return total


def forward_g_unequal_ratio_abs(nat: int, m: int, n: int, r: float) -> float:
    """|g^(m,n)(0,...,0)| as a function of (N, m, n, R) only; m != n.

    |g| = R^(|m-n|/2) sum_k u_k R^k / (N (1 + N R))^((m+n)/2).
    """
    if m == n:
        raise ValueError("use forward_g_equal_ratio for m == n")
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    hi, lo = max(m, n), min(m, n)
    u = forward_unequal_coefficients(nat, hi, lo)
    num = 0.0
    for k in range(lo, -1, -1):
        num = num * r + float(u[k])
    half = 0.5 * (m + n)
    return r ** (0.5 * (hi - lo)) * num / ((nat * (1.0 + nat * r)) ** half)


def forward_intensity(state: SingleAtomState, nat: int) -> float:
    """G^(1)(0, 0) = N p + N (N - 1) |c|^2 = N f (1 + N R)."""
    c2 = abs(state.coherence) ** 2
    return nat * state.population + nat * (nat - 1) * c2


@contextmanager
def closed_form_range(nat: int, m: int):
    """Report a closed form whose terms leave the float range as a CapacityError."""
    try:
        yield
    except OverflowError:
        raise CapacityError(
            f"closed form at N = {nat}, m = {m} leaves the float range"
        ) from None


def correlate_forward(state: SingleAtomState, nat: int, order: CorrelationOrder):
    """CorrelationResult with every k = 0 from the closed forms, which need only N.

    The sums run on the moments in units of s = max(f, |c|^2), like
    ``SlotTable.g``, so faint states do not underflow.
    """
    root, f, c2 = state.scaled_powers()
    with closed_form_range(nat, order.x):
        if order.equal_order:
            scaled = complex(_forward_equal(nat, order.m, f + c2, c2))
        else:
            scaled = _forward_unequal(nat, order.m, order.n, f, state.coherence / root)
        ints = [nat * (f + c2) + nat * (nat - 1) * c2] * order.total
        value = normalize(scaled, ints)
    return CorrelationResult(
        raw=scaled * root**order.total, value=value, method="forward-closed-form",
        order=order, directions=np.zeros((order.total, 3)),
    )


def correlate(
    state: SingleAtomState, ensemble: Ensemble, order: CorrelationOrder, directions
) -> CorrelationResult:
    """Raw plus normalized g: closed forms when every k is 0, else the engine."""
    dirs = _as_directions(directions, order.total)
    if not np.any(dirs):
        return correlate_forward(state, ensemble.n, order)
    raw, value = slot_table(ensemble, order, dirs).g(state)
    return CorrelationResult(raw, value, method="multilinear", order=order, directions=dirs)
