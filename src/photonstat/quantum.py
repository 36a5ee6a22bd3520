"""Normalized correlation functions g^(m,n) for independent two-level emitters.

Three exact evaluation paths, trusted against each other:

* ``oracle_G``: brute-force sum over all index tuples.  Feasible only for
  tiny systems; it is the reference everything else is tested against.
* ``multilinear_G``: the same sum as a cumulant (set-partition) expansion
  over the structure factors of the 2^(m+n) slot subsets, built once per
  cloud and directions (``slot_table``, :mod:`photonstat.kernels`).  Cost
  O(N 2^(m+n)) plus O(3^(m+n)) per state; this path reaches N = 10^4.
* ``forward_G_equal`` / ``forward_G_unequal``: closed-form binomial sums for
  all observation vectors equal to zero (forward direction), with exact
  integer coefficients.

For an autocorrelation (every slot at one k) ``autocorrelation_G`` needs only
the power sums S(d k), d <= m: ``autocorrelation_sums`` computes them once
per cloud and direction, in O(N m), for every order and state.

Raw correlators G carry source-field units^(m+n); ``normalize`` divides by
the square roots of the m+n single-direction intensities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .combinatorics import binomial
from .ensemble import DirectionSet, Ensemble, phase_matrix, structure_factor
from .errors import CapacityError, ZeroIntensityError
from .states import SingleAtomState

DEFAULT_ORDER_CAP = 8
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
    def alpha(self) -> int:
        return min(self.m, self.n)

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
    if isinstance(directions, DirectionSet):
        directions = directions.vectors
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


def oracle_G(
    state: SingleAtomState,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    tuple_guard: int = ORACLE_TUPLE_GUARD,
) -> complex:
    """Brute-force G over all index tuples (mu_1..mu_m, nu_1..nu_n).

    The per-atom normally-ordered moment is 1, <s+>, <s->, or <s+ s->
    depending on how many raising/lowering operators land on the atom, and
    zero as soon as any atom carries two of the same kind.
    """
    m, n = order.m, order.n
    nat = ensemble.n
    if nat**order.total > tuple_guard:
        raise CapacityError(
            f"oracle would visit {nat ** order.total} index tuples "
            f"(guard {tuple_guard}); use multilinear_G"
        )
    dirs = _as_directions(directions, order.total)
    ph = phase_matrix(ensemble, dirs)
    minus_ph = [list(ph[:, i]) for i in range(m)]
    plus_ph = [list(np.conj(ph[:, m + j])) for j in range(n)]
    cplus = state.coherence_plus
    cminus = state.coherence
    pop = state.population

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
                na, nb = raising[atom], lowering[atom]
                if na > 1 or nb > 1:
                    moment = 0.0
                    break
                if na and nb:
                    moment *= pop
                elif na:
                    moment *= cplus
                else:
                    moment *= cminus
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


def _two_level_table(state: SingleAtomState, order: CorrelationOrder, scale: float = 1.0):
    """w(a, b) / scale^((a+b)/2); w is 1, <s+>, <s->, <s+ s->, zero for a or b > 1."""
    c = state.coherence / math.sqrt(scale)
    moments = np.array([[1.0, c], [c.conjugate(), state.population / scale]], dtype=complex)
    table = np.zeros((order.m + 1, order.n + 1), dtype=complex)
    table[:2, :2] = moments[: order.m + 1, : order.n + 1]
    return table


def _scaled_moments(state: SingleAtomState) -> tuple[float, float, float]:
    """(s, f / s, |c|^2 / s) with s = max(f, |c|^2), or s = 1 for a dark state."""
    f = state.fluctuation
    c2 = abs(state.coherence) ** 2
    scale = max(f, c2) or 1.0
    return scale, f / scale, c2 / scale


@dataclass(frozen=True)
class SlotTable:
    """Structure factors S(K_T) of one cloud for every subset T of the slots.

    Minus slot i adds +k_i to K_T and plus slot j adds -k_j: ``values[0]`` is
    N, ``values[1 << i]`` is S(+-k_i), and a minus slot i with a plus slot j
    give S(k_i - k_j).  One table serves every state and moment table.
    """

    order: CorrelationOrder
    n: int
    values: np.ndarray

    def G(self, table: np.ndarray) -> complex:
        """G from the single-emitter moment table ``table[a, b]``."""
        return kernels.partition_sum(table, self.values, self.order.m)

    def intensities(self, f: float, c2: float) -> list[float]:
        """f N + |c|^2 |S(k_i)|^2 for every slot i."""
        return [f * self.n + c2 * abs(self.values[1 << i]) ** 2 for i in range(self.order.total)]

    def g(self, state: SingleAtomState) -> tuple[complex, complex]:
        """(G, g) of a two-level state; G is exactly 0 when max(m, n) > N.

        g comes from w(a, b) / s^((a+b)/2) with s = max(f, |c|^2): g does not
        change, and faint states do not underflow to 0 / 0.
        """
        scale, f, c2 = _scaled_moments(state)
        order = self.order
        raw = 0j if order.x > self.n else self.G(_two_level_table(state, order, scale))
        value = normalize(raw, self.intensities(f, c2))
        return raw * scale ** (order.total / 2), value

    def g1(self, state: SingleAtomState):
        """g^(1)(k_i, k_j) of minus slot i and plus slot j, as a callable (i, j)."""
        _, f, c2 = _scaled_moments(state)
        ints, s = self.intensities(f, c2), self.values
        return lambda i, j: normalize(
            f * s[1 << i | 1 << j] + c2 * s[1 << i] * s[1 << j], (ints[i], ints[j])
        )


def slot_table(
    ensemble: Ensemble, order: CorrelationOrder, directions, cap: int = DEFAULT_ORDER_CAP
) -> SlotTable:
    """The structure factors of every slot subset; m + n is capped at ``cap``."""
    if order.total > cap:
        raise CapacityError(f"multilinear path capped at m + n <= {cap}, got {order.total}")
    values = kernels.structure_factor_table(
        ensemble.positions, _as_directions(directions, order.total), order.m
    )
    return SlotTable(order=order, n=ensemble.n, values=values)


def multilinear_G(
    state: SingleAtomState,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    cap: int = DEFAULT_ORDER_CAP,
) -> complex:
    """Exact G from the structure factors of the slot subsets and the cumulants.

    Equivalent to ``oracle_G`` term by term (see :mod:`photonstat.kernels`), at
    cost O(N 2^(m+n)) instead of O(N^(m+n)).  A two-level atom serves at most
    one slot of each kind, so max(m, n) > N gives exactly 0.
    """
    if order.x > ensemble.n and order.total <= cap:  # over the cap still raises
        return 0j
    return slot_table(ensemble, order, directions, cap).G(_two_level_table(state, order))


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
    a = _forward_equal_a(nat, m)
    p = state.population
    c2 = abs(state.coherence) ** 2
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
    if m < n:
        swapped = forward_G_unequal(state, nat, n, m)
        return swapped.conjugate()
    c2 = _forward_unequal_c2(nat, m, n)
    f = state.fluctuation
    cp = state.coherence_plus
    cm = state.coherence
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


def correlate_forward(state: SingleAtomState, nat: int, order: CorrelationOrder):
    """CorrelationResult with every k = 0 from the closed forms, which need only N."""
    if order.equal_order:
        raw = complex(forward_G_equal(state, nat, order.m))
    else:
        raw = forward_G_unequal(state, nat, order.m, order.n)
    ints = [forward_intensity(state, nat)] * order.total
    return CorrelationResult(
        raw=raw, value=normalize(raw, ints), method="forward-closed-form", order=order,
        directions=np.zeros((order.total, 3)),
    )


def correlate(
    state: SingleAtomState,
    ensemble: Ensemble,
    order: CorrelationOrder,
    directions,
    cap: int = DEFAULT_ORDER_CAP,
) -> CorrelationResult:
    """Raw plus normalized g: closed forms when every k is 0, else the engine."""
    dirs = _as_directions(directions, order.total)
    if not np.any(dirs):
        return correlate_forward(state, ensemble.n, order)
    raw, value = slot_table(ensemble, order, dirs, cap).g(state)
    return CorrelationResult(raw, value, method="multilinear", order=order, directions=dirs)
