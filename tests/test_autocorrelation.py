"""The power-sum autocorrelation path against the oracle, the general-direction
engine, the general deviation path and a 50-digit reference."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat.combinatorics import binomial
from photonstat.ensemble import Ensemble, equal_directions, off_axis_direction, random_cloud
from photonstat.errors import ZeroIntensityError
from photonstat.gmt import deviation, deviation_coh_autocorrelation
from photonstat.quantum import (
    CorrelationOrder,
    autocorrelation_G,
    autocorrelation_sums,
    intensity,
    multilinear_G,
    oracle_G,
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


def _term_scale(state, nat: int, m: int) -> float:
    """Sum of the magnitudes of every oracle term: (m!)^2 sum_q p^(m-q) |c|^2q #(A, B)."""
    p, c2 = state.population, abs(state.coherence) ** 2
    pairs = [binomial(nat, q) * binomial(nat - q, q) for q in range(m + 1)]
    return math.factorial(m) ** 2 * sum(
        p ** (m - q) * c2**q * binomial(nat - 2 * q, m - q) * pairs[q] for q in range(m + 1)
    )


class TestAgainstOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(positions=_clouds, k=_directions, state=_states, m=st.integers(1, 3))
    def test_G_matches_oracle(self, positions, k, state, m):
        ens = Ensemble(positions=positions)
        got = autocorrelation_G(state, autocorrelation_sums(ens, k, 3), m)
        want = oracle_G(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        if m > ens.n:
            assert got == 0.0
        assert abs(got - want) <= 1e-12 * _term_scale(state, ens.n, m)

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
            assert autocorrelation_G(state, sums, m) == 0.0
            assert deviation_coh_autocorrelation(state, sums, m) == 0.0

    def test_order_outside_table_rejected(self):
        sums = autocorrelation_sums(random_cloud(5, seed=1), off_axis_direction(0.0), 2)
        with pytest.raises(ValueError):
            autocorrelation_G(pulse_state(1.0), sums, 3)
        with pytest.raises(ValueError):
            deviation_coh_autocorrelation(pulse_state(1.0), sums, 3)


class TestLargeCloud:
    @pytest.mark.parametrize("m", [2, 3])
    def test_G_matches_product_kernel(self, m):
        ens = random_cloud(10_000, seed=41)
        k = off_axis_direction(0.9)
        state = pulse_state(1.7)
        got = autocorrelation_G(state, autocorrelation_sums(ens, k, 3), m)
        want = multilinear_G(state, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_table_serves_every_order(self):
        ens = random_cloud(500, seed=42)
        k = off_axis_direction(2.0)
        state = pulse_state(2.2)
        shared = autocorrelation_sums(ens, k, 3)
        for m in (1, 2, 3):
            own = autocorrelation_sums(ens, k, m)
            assert autocorrelation_G(state, shared, m) == pytest.approx(
                autocorrelation_G(state, own, m), rel=1e-14
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
        report = deviation(state, ens, order, equal_directions(k, 2 * m))
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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8])
def test_low_ratio_deviation_to_ten_digits(reference_cloud, m, r):
    ens, k, pair_sums, abs_s2 = reference_cloud
    state = SingleAtomState(
        population=1.0 / (1.0 + r),
        coherence=-1j * math.sqrt(r) / (1.0 + r),
        exact_fluctuation=1.0 / (1.0 + r) ** 2,
    )
    got = deviation_coh_autocorrelation(state, autocorrelation_sums(ens, k, m), m)
    want = float(_mp_deviation(state, pair_sums, abs_s2, ens.n, m))
    assert abs(got - want) <= 1e-10 * abs(want)
