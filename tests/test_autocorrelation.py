"""The one-k power-sum path (forward and off-axis) against the oracle, the
general-direction engine, the general deviation path, exact fractions and a
50-digit reference."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonstat.combinatorics import binomial
from photonstat.ensemble import Ensemble, equal_directions, off_axis_direction, random_cloud
from photonstat.errors import ZeroIntensityError
from photonstat.gmt import deviation, deviation_coh_autocorrelation, deviation_on
from photonstat.quantum import (
    CorrelationOrder,
    SingleK,
    autocorrelation_sums,
    deviation_coh_forward_ratio,
    forward_row,
    intensity,
    multilinear_G,
    oracle_G,
    row_geometry,
    slot_table,
)
from photonstat.states import (
    SingleAtomState,
    driven_steady_state,
    pulse_state,
    state_from_moments,
)

_coord = st.floats(-3.0, 3.0, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord)
# a few shared points, so that clouds with coincident atoms come up often
_shared = st.sampled_from([(0.0, 0.0, 0.0), (0.25, -0.5, 1.0), (1.5, 0.0, -2.0)])
_clouds = st.lists(st.one_of(_shared, _vec), min_size=1, max_size=4)
_directions = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    _vec,
    st.tuples(st.floats(-400.0, 400.0), st.just(0.0), st.floats(-400.0, 400.0)),
)
# |c| as a fraction of its positivity bound sqrt(p (1 - p)), the bound included
_states = st.builds(
    lambda p, frac, phase: state_from_moments(
        p, frac * math.sqrt(p * (1.0 - p)) * complex(math.cos(phase), math.sin(phase))
    ),
    # p down to 1e-6, so the test's own G / I^m stays clear of underflow
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2.0 * math.pi),
)


def _term_scale(state, nat: int, m: int, n: int | None = None) -> float:
    """Sum of the magnitudes of every oracle term of order (m, n), n = m by default.

    m! n! sum_j p^j |c|^(m+n-2j) C(N - (m+n-2j), j) #(A, B), where #(A, B) counts
    the disjoint atom sets of sizes m - j and n - j.
    """
    n = m if n is None else n
    p, c = state.population, abs(state.coherence)
    return math.factorial(m) * math.factorial(n) * sum(
        p**j * c ** (m + n - 2 * j) * binomial(nat - (m + n - 2 * j), j)
        * binomial(nat, m - j) * binomial(nat - m + j, n - j)
        for j in range(min(m, n) + 1)
    )


class TestAgainstOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(positions=_clouds, k=_directions, state=_states, m=st.integers(1, 3))
    def test_G_matches_oracle(self, positions, k, state, m):
        ens = Ensemble(positions=positions)
        got = SingleK(CorrelationOrder.equal(m), autocorrelation_sums(ens, k, 3)).G(state)
        want = oracle_G(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        if m > ens.n:
            assert got == 0.0
        assert abs(got - want) <= 1e-12 * _term_scale(state, ens.n, m)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        positions=_clouds, k=_directions, state=_states,
        m=st.integers(0, 3), n=st.integers(0, 3),
    )
    def test_row_geometry_matches_oracle(self, positions, k, state, m, n):
        # every slot at one k, forward (k = 0, no cloud read) or not, m != n and
        # N < m + n included
        assume(m + n >= 1)
        ens = Ensemble(positions=positions)
        order = CorrelationOrder(m, n)
        dirs = equal_directions(k, order.total)
        geometry = row_geometry(ens, order, dirs)
        assert isinstance(geometry, SingleK)
        assert geometry.method == ("forward-closed-form" if not any(k) else "power-sum")
        got = geometry.G(state)
        want = oracle_G(state, ens, order, dirs)
        if order.x > ens.n:
            assert got == 0.0
        assert abs(got - want) <= 1e-10 * _term_scale(state, ens.n, m, n)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(positions=_clouds, k=_directions, state=_states, m=st.integers(1, 3))
    def test_deviation_matches_oracle(self, positions, k, state, m):
        ens = Ensemble(positions=positions)
        sums = autocorrelation_sums(ens, k, m)
        inten = intensity(state, ens, k)
        if not inten > 0.0:
            with pytest.raises(ZeroIntensityError):
                deviation_coh_autocorrelation(state, sums, m)
            return
        got = deviation_coh_autocorrelation(state, sums, m)
        if m > ens.n:
            assert got == 0.0
            return
        raw = oracle_G(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        zeroed = math.factorial(m) * math.perm(ens.n, m) / ens.n**m
        want = zeroed - raw / inten**m
        scale = zeroed + _term_scale(state, ens.n, m) / inten**m
        assert abs(got - want) <= 1e-11 * scale

    def test_order_above_atom_count_is_exact_zero(self):
        ens = Ensemble(positions=[[0.1, 0.2, 0.3], [1.0, -0.5, 2.0]])
        sums = autocorrelation_sums(ens, off_axis_direction(0.4), 4)
        state = pulse_state(1.2)
        for m in (3, 4):
            assert SingleK(CorrelationOrder.equal(m), sums).G(state) == 0.0
            assert deviation_coh_autocorrelation(state, sums, m) == 0.0

    def test_order_outside_table_rejected(self):
        sums = autocorrelation_sums(random_cloud(5, seed=1), off_axis_direction(0.0), 2)
        with pytest.raises(ValueError):
            SingleK(CorrelationOrder.equal(3), sums).G(pulse_state(1.0))
        with pytest.raises(ValueError):
            deviation_coh_autocorrelation(pulse_state(1.0), sums, 3)


class TestLargeCloud:
    @pytest.mark.parametrize("m", [2, 3])
    def test_G_matches_product_kernel(self, m):
        ens = random_cloud(10_000, seed=41)
        k = off_axis_direction(0.9)
        state = pulse_state(1.7)
        got = SingleK(CorrelationOrder.equal(m), autocorrelation_sums(ens, k, 3)).G(state)
        want = multilinear_G(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (3, 2), (1, 2), (2, 2), (3, 3)])
    def test_g_matches_slot_table(self, m, n):
        ens = random_cloud(10_000, seed=41)
        k = off_axis_direction(0.9)
        state = pulse_state(1.7)
        order = CorrelationOrder(m, n)
        dirs = equal_directions(k, order.total)
        got = row_geometry(ens, order, dirs).g(state)[1]
        want = slot_table(ens, order, dirs).g(state)[1]
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_table_serves_every_order(self):
        ens = random_cloud(500, seed=42)
        k = off_axis_direction(2.0)
        state = pulse_state(2.2)
        shared = autocorrelation_sums(ens, k, 3)
        for m in (1, 2, 3):
            own = autocorrelation_sums(ens, k, m)
            assert SingleK(CorrelationOrder.equal(m), shared).G(state) == pytest.approx(
                SingleK(CorrelationOrder.equal(m), own).G(state), rel=1e-14
            )


class TestDeviation:
    def test_dark_state_raises(self):
        ens = random_cloud(30, seed=43)
        k = off_axis_direction(0.3)
        with pytest.raises(ZeroIntensityError):
            deviation_coh_autocorrelation(pulse_state(0.0), autocorrelation_sums(ens, k, 2), 2)

    def test_inverted_state_has_no_coherence_deviation(self):
        ens = random_cloud(30, seed=44)
        sums = autocorrelation_sums(ens, off_axis_direction(1.0), 3)
        for m in (1, 2, 3):
            assert deviation_coh_autocorrelation(pulse_state(math.pi), sums, m) == 0.0

    @pytest.mark.parametrize("s", [0.3, 2.0, 50.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_driven_states_match_general_path(self, s, m):
        ens = random_cloud(60, seed=45)
        k = off_axis_direction(0.8)
        state = driven_steady_state(s)
        order = CorrelationOrder.equal(m)
        fast = deviation_coh_autocorrelation(state, autocorrelation_sums(ens, k, m), m)
        report = deviation_on(state, slot_table(ens, order, equal_directions(k, 2 * m)))
        assert fast == pytest.approx(report.delta_coh, rel=1e-9, abs=1e-13)


# ------------------------------------------------- 50-digit reference

_N_REF = 10_000
_REF_DIGITS = 50


@pytest.fixture(scope="module")
def reference_cloud():
    """A fig3-sized cloud, its direction, and F_0..F_3 and |S(k)|^2 in 50 digits.

    The pair sums come from the atom-by-atom product of 1 + z x + conj(z) y,
    truncated at degree 3 in x and y, with every phase z evaluated in mpmath.
    """
    ens = random_cloud(_N_REF, seed=46)
    k = off_axis_direction(1.1)
    m = 3
    with mpmath.workdps(_REF_DIGITS):
        kx, ky, kz = (mpmath.mpf(float(v)) for v in k)
        two_pi = 2 * mpmath.pi
        poly = [[mpmath.mpc(0)] * (m + 1) for _ in range(m + 1)]
        poly[0][0] = mpmath.mpc(1)
        s_k = mpmath.mpc(0)
        for x, y, z in ens.positions.tolist():
            phase = mpmath.expj(two_pi * (kx * x + ky * y + kz * z))
            conj = mpmath.conj(phase)
            s_k += phase
            for a in range(m, -1, -1):
                for b in range(m, -1, -1):
                    if a:
                        poly[a][b] += phase * poly[a - 1][b]
                    if b:
                        poly[a][b] += conj * poly[a][b - 1]
        pair_sums = [mpmath.re(poly[q][q]) for q in range(m + 1)]
        abs_s2 = abs(s_k) ** 2
    return ens, k, pair_sums, abs_s2


def _mp_deviation(state, pair_sums, abs_s2, nat: int, m: int):
    """g(c = 0) - g in 50 digits, with the state's floats taken as exact."""
    with mpmath.workdps(_REF_DIGITS):
        c = state.coherence
        c2 = mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2
        f = mpmath.mpf(state.fluctuation)
        p = f + c2
        raw = math.factorial(m) ** 2 * mpmath.fsum(
            p ** (m - q) * c2**q * binomial(nat - 2 * q, m - q) * pair_sums[q]
            for q in range(m + 1)
        )
        inten = f * nat + c2 * abs_s2
        zeroed = mpmath.mpf(math.factorial(m) ** 2 * math.comb(nat, m)) / mpmath.mpf(nat) ** m
        return zeroed - raw / inten**m


def _low_ratio_state(r: float) -> SingleAtomState:
    return SingleAtomState(
        population=1.0 / (1.0 + r),
        coherence=-1j * math.sqrt(r) / (1.0 + r),
        exact_fluctuation=1.0 / (1.0 + r) ** 2,
    )


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8])
def test_low_ratio_deviation_to_ten_digits(reference_cloud, m, r):
    ens, k, pair_sums, abs_s2 = reference_cloud
    state = _low_ratio_state(r)
    got = deviation_coh_autocorrelation(state, autocorrelation_sums(ens, k, m), m)
    want = float(_mp_deviation(state, pair_sums, abs_s2, ens.n, m))
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8])
def test_off_axis_deviation_row_to_ten_digits(reference_cloud, m, r):
    # a deviation row whose slots share one k runs on the power sums
    ens, k, pair_sums, abs_s2 = reference_cloud
    state = _low_ratio_state(r)
    report = deviation(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
    want = float(_mp_deviation(state, pair_sums, abs_s2, ens.n, m))
    assert abs(report.delta_coh - want) <= 1e-10 * abs(want)
    assert report.g_gmt == math.factorial(m)


# ------------------------------------------------- forward rows, exactly


def _forward_g_fraction(nat: int, m: int, r: Fraction) -> Fraction:
    """g^(m)(0,...,0) = sum_j a_j (1+R)^j R^(m-j) / (N (1 + N R))^m in exact fractions,
    a_j = C(m,j)^2 j! (2m-j)! C(N, 2m-j) counting the ordered atom assignments."""
    total = sum(
        math.comb(m, j) ** 2 * math.factorial(j) * math.factorial(2 * m - j)
        * math.comb(nat, 2 * m - j) * (1 + r) ** j * r ** (m - j)
        for j in range(m + 1)
    )
    return total / (nat * (1 + nat * r)) ** m


@pytest.mark.parametrize("nat", [10, 10_000, 10**9])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_forward_deviation_matches_fractions(nat, m):
    for r in (1e-12, 1e-8, 1e-4, 0.5, 30.0):
        exact = _forward_g_fraction(nat, m, Fraction(0)) - _forward_g_fraction(nat, m, Fraction(r))
        got = deviation_coh_forward_ratio(nat, m, r)
        assert abs(got - float(exact)) <= 1e-14 * abs(float(exact))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_forward_delta_n_matches_fractions(m):
    nat = 10**9
    report = deviation_on(pulse_state(1.0), forward_row(nat, m, m))
    want = math.factorial(m) - Fraction(math.factorial(m) * math.perm(nat, m), nat**m)
    assert abs(report.delta_n - float(want)) <= 1e-12 * float(want)
    assert report.delta_total == report.delta_n + report.delta_coh
