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
* ``SingleK.g``: every slot at one k, from the power sums S(d k),
  d <= max(m, n), and the pair sums F_(a,b) built from them
  (``autocorrelation_sums``, O(N max(m, n)) per cloud and direction), for
  either emitter.  The forward direction is its k = 0 case, where
  F_(a,b) = C(N, a) C(N - a, b) and |S|^2 = N^2 are exact integers that need
  no cloud (``forward_sums``).

``row_geometry`` picks one row's path from its direction vectors;
``correlate``, :func:`photonstat.gmt.deviation` and the ``classical``
subcommand go through it.

Raw correlators G carry source-field units^(m+n); ``normalize`` divides by
the square roots of the m+n single-direction intensities.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .combinatorics import DEFAULT_ORDER_CAP, binomial, classical_count_C
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


class _RowGeometry:
    """G and g of either emitter from a row's ``_scaled_G`` and ``intensities``."""

    def G(self, emitter: Emitter) -> complex:
        """G of a two-level state or a classical model."""
        return self._scaled_G(emitter) * emitter.scaled_powers()[0] ** self.order.total

    def g(self, emitter: Emitter) -> tuple[complex, complex]:
        """(G, g) of a two-level state or a classical model.

        g comes from G and the intensities in units of s: g does not change,
        and faint emitters do not underflow to 0 / 0.
        """
        scaled = self._scaled_G(emitter)
        root = emitter.scaled_powers()[0]
        return scaled * root**self.order.total, normalize(scaled, self.intensities(emitter))


@dataclass(frozen=True)
class SlotTable(_RowGeometry):
    """Structure factors S(K_T) of one cloud for every subset T of the slots.

    Minus slot i adds +k_i to K_T and plus slot j adds -k_j: ``values[0]`` is
    N, ``values[1 << i]`` is S(+-k_i), and a minus slot i with a plus slot j
    give S(k_i - k_j).  One table serves every emitter, quantum or classical.
    """

    order: CorrelationOrder
    n: int
    values: np.ndarray
    method = "multilinear"

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

    def intensities(self, emitter: Emitter) -> list[float]:
        """f N + |c|^2 |S(k_i)|^2 for every slot i, in units of s."""
        _, f, c2 = emitter.scaled_powers()
        return [f * self.n + c2 * abs(self.values[1 << i]) ** 2 for i in range(self.order.total)]

    def g1(self, state: SingleAtomState):
        """g^(1)(k_i, k_j) of minus slot i and plus slot j, as a callable (i, j)."""
        _, f, c2 = state.scaled_powers()
        ints, s = self.intensities(state), self.values
        return lambda i, j: normalize(
            f * s[1 << i | 1 << j] + c2 * s[1 << i] * s[1 << j], (ints[i], ints[j])
        )


def _check_cap(order: CorrelationOrder) -> None:
    if order.total > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"paths over a cloud are capped at m + n <= {DEFAULT_ORDER_CAP}, got {order.total}"
        )


def slot_table(ensemble: Ensemble, order: CorrelationOrder, directions) -> SlotTable:
    """The structure factors of every slot subset; m + n is capped at DEFAULT_ORDER_CAP."""
    _check_cap(order)
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
    """Geometry of N emitters along one direction k, for slots that all share it.

    With z_mu = exp(2 pi i k . R_mu): ``abs_s2`` is |S(k)|^2 and ``pairs[a][b]``
    is the disjoint-pair sum F_(a,b) = [x^a y^b] prod_mu (1 + z_mu x + conj(z_mu) y)
    for a, b <= ``m_max``.  One table serves every order up to m_max and every
    state.
    """

    n: int
    abs_s2: float
    pairs: tuple[tuple[complex, ...], ...]

    @property
    def m_max(self) -> int:
        return len(self.pairs) - 1


def _pair_sums(power_sums, m: int) -> tuple[tuple[complex, ...], ...]:
    """F_(a,b), a, b <= m, as the exponential of the atom product's log series.

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
    return tuple(map(tuple, exp))


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
        pairs=_pair_sums(power_sums, m_max),
    )


def forward_sums(nat: int, m_max: int) -> AutocorrelationSums:
    """The sums at k = 0, exact integers that need only N: every z_mu = 1, so
    |S|^2 = N^2 and F_(a,b) = C(N, a) C(N - a, b) counts disjoint atom sets."""
    pairs = tuple(
        tuple(binomial(nat, a) * binomial(nat - a, b) for b in range(m_max + 1))
        for a in range(m_max + 1)
    )
    return AutocorrelationSums(n=nat, abs_s2=nat**2, pairs=pairs)


@contextmanager
def closed_form_range(nat: int, m: int):
    """Report a closed form whose terms leave the float range as a CapacityError."""
    try:
        yield
    except OverflowError:
        raise CapacityError(
            f"closed form at N = {nat}, m = {m} leaves the float range"
        ) from None


@dataclass(frozen=True)
class SingleK(_RowGeometry):
    """Every slot of the row at one k: its order and power sums, for either emitter.

    Two-level atoms, with w the moment table in units of s, j atoms carrying
    a minus and a plus slot and F_(m-j, n-j) counting those that carry one:

        G / s^((m+n)/2) = m! n! sum_j w11^j w10^(m-j) w01^(n-j) C(N - (m+n-2j), j) F_(m-j, n-j).

    Terms with no room for the j common atoms vanish, so max(m, n) > N gives 0.
    A classical slot field is E_coh* S(k) plus a random-phasor sum whose law
    the positions do not change; with S = F_(1,0) and the incoherent power
    u = w11 - w10 w01 = |E_incoh|^2 / s,

        G / s^((m+n)/2) = sum_j C(m,j) C(n,j) C_{j,N} u^j (w10 S)^(m-j) (w01 conj(S))^(n-j).
    """

    order: CorrelationOrder
    sums: AutocorrelationSums
    method: str = "power-sum"

    @property
    def n(self) -> int:
        return self.sums.n

    @functools.cached_property
    def terms(self) -> list:
        """m! n! C(N - (m+n-2j), j) F_(m-j, n-j), j = 0..min(m, n); integers at k = 0."""
        m, n, x = self.order.m, self.order.n, self.order.x
        if x > self.sums.m_max:
            raise ValueError(f"order {x} outside 1..{self.sums.m_max} of the power-sum table")
        fact = math.factorial(m) * math.factorial(n)
        return [
            fact * binomial(self.n - (m + n - 2 * j), j) * self.sums.pairs[m - j][n - j]
            for j in range(min(m, n) + 1)
        ]

    def _sum(self, terms) -> complex:
        """The sum of ``terms``; past the float range, a CapacityError."""
        with closed_form_range(self.n, self.order.x):
            total = complex(sum(terms))
            if not cmath.isfinite(total):
                raise OverflowError
        return total

    def scaled_G(self, w) -> complex:
        """Two-level G / s^((m+n)/2) from the moment table w."""
        m, n = self.order.m, self.order.n
        (_, w01), (w10, w11) = w
        return self._sum(
            t * w11**j * w10 ** (m - j) * w01 ** (n - j) for j, t in enumerate(self.terms)
        )

    def _scaled_G(self, emitter: Emitter) -> complex:
        """G / s^((m+n)/2) of either emitter, chosen by its type."""
        w = emitter.moment_table(1, 1).tolist()
        if isinstance(emitter, SingleAtomState):
            return self.scaled_G(w)
        m, n = self.order.m, self.order.n
        (_, w01), (w10, _) = w
        u, s = emitter.scaled_powers()[1], self.sums.pairs[1][0]
        return self._sum(
            math.comb(m, j) * math.comb(n, j) * classical_count_C(j, self.n) * u**j
            * (w10 * s) ** (m - j) * (w01 * s.conjugate()) ** (n - j)
            for j in range(min(m, n) + 1)
        )

    def intensities(self, emitter: Emitter) -> list[float]:
        """u N + v |S(k)|^2 for every slot, from the powers u, v in units of s."""
        _, u, v = emitter.scaled_powers()
        return [u * self.n + v * self.sums.abs_s2] * self.order.total


@functools.lru_cache(maxsize=256)
def forward_row(nat: int, m: int, n: int) -> SingleK:
    """The k = 0 row of order (m, n) on N atoms, built once."""
    order = CorrelationOrder(m, n)
    return SingleK(order, forward_sums(nat, order.x), method="forward-closed-form")


def row_geometry(ensemble: Ensemble, order: CorrelationOrder, directions) -> SingleK | SlotTable:
    """The cheapest exact geometry of one row, chosen from its direction vectors.

    Every k = 0 gives ``forward_row``, which reads only ``ensemble.n``, so an
    ensemble built on demand stays unbuilt.  Every slot at one k gives its
    power sums, anything else the slot table; both are capped like the engine.
    """
    dirs = _as_directions(directions, order.total)
    if not np.any(dirs):
        return forward_row(ensemble.n, order.m, order.n)
    if (dirs == dirs[0]).all():
        _check_cap(order)
        return SingleK(order, autocorrelation_sums(ensemble, dirs[0], order.x))
    return slot_table(ensemble, order, dirs)


def correlate(
    state: SingleAtomState, ensemble: Ensemble, order: CorrelationOrder, directions
) -> CorrelationResult:
    """Raw plus normalized g on the geometry ``row_geometry`` picks."""
    geometry = row_geometry(ensemble, order, directions)
    raw, value = geometry.g(state)
    return CorrelationResult(raw, value, method=geometry.method)


def deviation_coh_autocorrelation(
    state: SingleAtomState, sums: AutocorrelationSums, m: int
) -> float:
    """Spin-coherence deviation g(c = 0) - g of g^(m)(k,...,k) from power sums.

    In units of s = max(f, |c|^2), u = f/s and v = |c|^2/s, the slot intensity
    is u N + v |S(k)|^2 = (u + v) N + v F_1 with F_1 = |S(k)|^2 - N, and the
    coherence-zeroed g is (m!)^2 C(N, m) / N^m.  Expanding C(N, m) ((u + v) +
    v F_1/N)^m against G removes the t = 0 term symbolically:

        delta = (m!)^2 sum_(t>=1) (u+v)^(m-t) v^t [C(N,m) C(m,t) (F_1/N)^t
                - C(N-2t, m-t) F_t] / (u N + v |S(k)|^2)^m ,

    where the t = 1 bracket is exactly C(N-2, m-2) F_1.  No two O(1) values
    are subtracted, so the relative error stays at rounding level as R -> 0;
    m > N gives exactly 0.
    """
    _, u, v = state.scaled_powers()
    return _deviation_coh(sums, m, u, v)


def _deviation_coh(sums: AutocorrelationSums, m: int, u: float, v: float) -> float:
    if not 1 <= m <= sums.m_max:
        raise ValueError(f"order {m} outside 1..{sums.m_max} of the power-sum table")
    nat = sums.n
    denom = u * nat + v * sums.abs_s2
    if not denom > 0.0:
        raise ZeroIntensityError(
            "cannot normalize against zero single-direction intensity "
            "(dark state or empty ensemble)"
        )
    if m > nat:
        return 0.0
    f1 = sums.pairs[1][1].real
    a = u + v
    total = a ** (m - 1) * v * binomial(nat - 2, m - 2) * f1
    for t in range(2, m + 1):
        bracket = (
            math.comb(nat, m) * math.comb(m, t) * (f1 / nat) ** t
            - binomial(nat - 2 * t, m - t) * sums.pairs[t][t].real
        )
        total += a ** (m - t) * v**t * bracket
    return math.factorial(m) ** 2 * total / denom**m


# Forward values as functions of N and R alone, for the figures and criteria.


def _ratio_moments(r: float):
    """(w, u, v) in units of s = max(f, |c|^2) at coherence ratio R, c real."""
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    u, v = (1.0, r) if r <= 1.0 else (1.0 / r, 1.0)
    return [[1.0, math.sqrt(v)], [math.sqrt(v), u + v]], u, v


def _forward_ratio_g(nat: int, m: int, n: int, r: float) -> complex:
    """g^(m,n)(0,...,0) at coherence ratio R with real coherence."""
    w, u, v = _ratio_moments(r)
    return normalize(forward_row(nat, m, n).scaled_G(w), [u * nat + v * nat**2] * (m + n))


def forward_G_equal(state: SingleAtomState, nat: int, m: int) -> float:
    """G^(m)(0,...,0)."""
    if m < 1 or nat < 1:
        raise ValueError("orders and atom counts must be positive")
    return forward_row(nat, m, m).G(state).real


def forward_g_equal_ratio(nat: int, m: int, r: float) -> float:
    """g^(m)(0,...,0); the fluctuation cancels against the normalization."""
    return _forward_ratio_g(nat, m, m, r).real


def forward_g_unequal_ratio_abs(nat: int, m: int, n: int, r: float) -> float:
    """|g^(m,n)(0,...,0)| for m != n."""
    if m == n:
        raise ValueError("use forward_g_equal_ratio for m == n")
    return abs(_forward_ratio_g(nat, m, n, r))


def deviation_coh_forward_ratio(nat: int, m: int, r: float) -> float:
    """g|_(R=0) - g(R) at k = 0, free of cancellation even at R ~ 1e-12."""
    _, u, v = _ratio_moments(r)
    with closed_form_range(nat, m):
        return _deviation_coh(forward_row(nat, m, m).sums, m, u, v)


def forward_intensity(state: SingleAtomState, nat: int) -> float:
    """G^(1)(0, 0) = N p + N (N - 1) |c|^2 = N f (1 + N R)."""
    return forward_row(nat, 1, 1).G(state).real
