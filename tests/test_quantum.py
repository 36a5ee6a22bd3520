"""Quantum correlator paths cross-checked against each other and closed forms."""

import math

import numpy as np
import pytest

from photonstat.ensemble import Ensemble, forward_directions, random_cloud, structure_factor
from photonstat.errors import CapacityError, ZeroIntensityError
from photonstat.quantum import (
    CorrelationOrder,
    correlate,
    forward_g_equal_ratio,
    forward_g_unequal_ratio_abs,
    forward_row,
    forward_sums,
    normalize,
    oracle_G,
    slot_table,
)
from photonstat.states import ClassicalEmitterModel, pulse_state, state_from_moments


def forward_intensity(state, ensemble) -> float:
    """G^(1)(0, 0) = f N + |c|^2 |S(0)|^2, straight from the structure factor."""
    return state.fluctuation * ensemble.n + abs(state.coherence) ** 2 * abs(
        structure_factor(ensemble, np.zeros(3))
    ) ** 2


def random_state(rng):
    p = rng.uniform(0.05, 0.95)
    cmax = math.sqrt(p * (1.0 - p))
    c = rng.uniform(0.0, 0.95) * cmax * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return state_from_moments(p, complex(c))


class TestCorrelationOrder:
    def test_accessors(self):
        order = CorrelationOrder(3, 1)
        assert (order.x, order.total) == (3, 4)
        assert not order.equal_order
        assert CorrelationOrder.equal(2).equal_order

    def test_invalid(self):
        with pytest.raises(ValueError):
            CorrelationOrder(0, 0)
        with pytest.raises(ValueError):
            CorrelationOrder(-1, 2)


class TestOracle:
    def test_single_atom_intensity(self):
        ens = Ensemble(positions=[[0.2, -0.4, 1.0]])
        st = random_state(np.random.default_rng(0))
        for k in ([0, 0, 0], [1.0, 0.5, 0.0]):
            got = oracle_G(st, ens, CorrelationOrder(1, 1), [k, k])
            assert got == pytest.approx(st.population, rel=1e-12)

    def test_two_inverted_atoms(self):
        ens = random_cloud(2, seed=0)
        st = pulse_state(math.pi)
        got = oracle_G(st, ens, CorrelationOrder(1, 1), forward_directions(2))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_inverted_g2_of_three(self):
        ens = random_cloud(3, seed=1)
        st = pulse_state(math.pi)
        raw = oracle_G(st, ens, CorrelationOrder.equal(2), forward_directions(4))
        # 3 unordered atom pairs, 2 orderings on each side: 12 unit terms
        assert raw == pytest.approx(12.0, rel=1e-12)
        g = normalize(raw, [forward_intensity(st, ens)] * 4)
        assert g == pytest.approx(2.0 - 2.0 / 3.0, rel=1e-12)

    def test_guard(self):
        ens = random_cloud(200, seed=0)
        with pytest.raises(CapacityError, match="multilinear"):
            oracle_G(st := pulse_state(1.0), ens, CorrelationOrder.equal(4), forward_directions(8), tuple_guard=10**6)


class TestMultilinear:
    @pytest.mark.parametrize("trial", range(30))
    def test_agrees_with_oracle(self, trial):
        rng = np.random.default_rng(1000 + trial)
        nat = int(rng.integers(1, 7))
        while True:
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if 1 <= m + n <= 5:
                break
        order = CorrelationOrder(m, n)
        ens = random_cloud(nat, seed=trial)
        st = random_state(rng)
        dirs = rng.normal(size=(order.total, 3))
        a = oracle_G(st, ens, order, dirs)
        b = slot_table(ens, order, dirs).G(st)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)

    def test_first_order_structure_factor_identity(self):
        # G(1)(k1,k2) = |c|^2 S(k1) S(-k2) + f S(k1-k2)
        rng = np.random.default_rng(5)
        ens = random_cloud(25, seed=2)
        st = random_state(rng)
        for _ in range(5):
            k1, k2 = rng.normal(size=3), rng.normal(size=3)
            via_kernel = slot_table(ens, CorrelationOrder(1, 1), [k1, k2]).G(st)
            expected = abs(st.coherence) ** 2 * structure_factor(ens, k1) * structure_factor(
                ens, k2
            ).conjugate() + st.fluctuation * structure_factor(ens, k1 - k2)
            assert via_kernel == pytest.approx(expected, rel=1e-12)

    def test_large_n_inverted_autocorrelation(self):
        nat = 10_000
        ens = random_cloud(nat, seed=3)
        st = pulse_state(math.pi)
        raw = slot_table(ens, CorrelationOrder.equal(2), forward_directions(4)).G(st)
        g = normalize(raw, [forward_intensity(st, ens)] * 4)
        assert g == pytest.approx(2.0 - 2.0 / nat, rel=1e-10)

    def test_direction_count_checked(self):
        ens = random_cloud(4, seed=0)
        with pytest.raises(ValueError):
            correlate(pulse_state(math.pi), ens, CorrelationOrder.equal(2), forward_directions(2))

    def test_order_cap(self):
        ens = random_cloud(3, seed=0)
        with pytest.raises(CapacityError):
            slot_table(ens, CorrelationOrder(5, 4), np.zeros((9, 3)))

    def test_chunking_matches_unchunked(self, monkeypatch):
        import photonstat.kernels as kernels

        rng = np.random.default_rng(9)
        ens = random_cloud(50, seed=4)
        st = random_state(rng)
        dirs = rng.normal(size=(4, 3))
        model = ClassicalEmitterModel(e_coh=0.4 - 0.2j, e_incoh=1.0)
        order = CorrelationOrder(2, 1)
        full = slot_table(ens, CorrelationOrder.equal(2), dirs).G(st)
        full_classical = slot_table(ens, order, dirs[:3]).G(model)
        monkeypatch.setattr(kernels, "_ATOM_CHUNK", 7)
        chunked = slot_table(ens, CorrelationOrder.equal(2), dirs).G(st)
        assert chunked == pytest.approx(full, rel=1e-12)
        chunked_classical = slot_table(ens, order, dirs[:3]).G(model)
        assert chunked_classical == pytest.approx(full_classical, rel=1e-12)


class TestForwardClosedForms:
    @pytest.mark.parametrize("nat,m", [(4, 2), (10, 2), (10, 3), (50, 3), (7, 1)])
    def test_equal_matches_multilinear_at_k0(self, nat, m):
        rng = np.random.default_rng(nat * m)
        ens = random_cloud(nat, seed=nat)
        for theta in (math.pi, 2.0, 0.8):
            st = pulse_state(theta)
            closed = forward_row(nat, m, m).G(st).real
            kernel = slot_table(ens, CorrelationOrder.equal(m), forward_directions(2 * m)).G(st)
            assert closed == pytest.approx(kernel.real, rel=1e-10)
            assert abs(kernel.imag) <= 1e-10 * abs(kernel.real)

    @pytest.mark.parametrize(
        "nat,m,n",
        [(6, 2, 1), (12, 3, 1), (12, 3, 2), (30, 2, 1), (9, 1, 0), (3, 3, 2), (3, 2, 3), (4, 3, 2)],
    )
    def test_unequal_matches_multilinear_at_k0(self, nat, m, n):
        ens = random_cloud(nat, seed=nat + m + n)
        for theta in (2.0, 1.0):
            st = pulse_state(theta)
            closed = forward_row(nat, m, n).G(st)
            kernel = slot_table(ens, CorrelationOrder(m, n), forward_directions(m + n)).G(st)
            assert closed == pytest.approx(kernel, rel=1e-10)

    def test_unequal_swapped_is_conjugate(self):
        st = pulse_state(1.2)
        a = forward_row(8, 3, 1).G(st)
        b = forward_row(8, 1, 3).G(st)
        assert b == pytest.approx(a.conjugate(), rel=1e-12)

    def test_zero_coherence_kills_unequal(self):
        st = pulse_state(math.pi)
        assert forward_row(20, 2, 1).G(st) == 0.0
        assert forward_row(20, 3, 2).G(st) == 0.0

    @pytest.mark.parametrize("nat,m_max,entries", [(5, 3, 15), (1, 1500, 3), (2, 2, 6)])
    def test_forward_sums_store_the_corner(self, nat, m_max, entries):
        # F_(a,b) = C(N, a) C(N - a, b) is 0 past a + b = N; only the corner is stored
        sums = forward_sums(nat, m_max)
        assert sums.m_max == m_max
        assert sum(len(row) for row in sums.pairs) == entries
        for a in range(min(m_max, 8) + 1):
            for b in range(min(m_max, 8) + 1):
                want = math.comb(nat, a) * math.comb(nat - a, b) if a + b <= nat else 0
                assert sums.pair(a, b) == want

    def test_structural_zero_past_the_float_range(self):
        # no term has room on one atom, so G is exactly 0, although w11^j
        # (w11 = 1.87 in units of s at theta = 1.5) leaves the float range
        assert forward_row(1, 1200, 1200).g(pulse_state(1.5)) == (0j, 0j)

    def test_inverted_g2_value(self):
        # only j = m survives at c = 0: g = (m!)^2 C(N,m) / N^m
        st = pulse_state(math.pi)
        g = forward_row(4, 2, 2).g(st)[1].real
        assert g == pytest.approx(1.5, rel=1e-12)

    def test_appendix_g2_closed_form(self):
        # [2N(N-1) + 4N(N-1)^2 R + N^2(N-1)^2 R^2] / (N^2 (1+NR)^2)
        for nat in (3, 10, 40):
            for theta in (2.8, 1.5, 0.6):
                st = pulse_state(theta)
                r = st.ratio
                want = (
                    2 * nat * (nat - 1)
                    + 4 * nat * (nat - 1) ** 2 * r
                    + nat**2 * (nat - 1) ** 2 * r**2
                ) / (nat**2 * (1 + nat * r) ** 2)
                got = forward_row(nat, 2, 2).g(st)[1].real
                assert got == pytest.approx(want, rel=1e-11)
                assert forward_g_equal_ratio(nat, 2, r) == pytest.approx(want, rel=1e-11)

    def test_appendix_g21_closed_form(self):
        for nat in (5, 12, 50):
            st = pulse_state(1.9)
            r, f = st.ratio, st.fluctuation
            coh = st.coherence_plus / math.sqrt(f)
            want = (2 * nat * (nat - 1) * coh + nat**2 * (nat - 1) * coh * r) / (
                nat * (1 + nat * r)
            ) ** 1.5
            got = forward_row(nat, 2, 1).g(st)[1]
            assert got == pytest.approx(want, rel=1e-11)
            assert forward_g_unequal_ratio_abs(nat, 2, 1, r) == pytest.approx(
                abs(want), rel=1e-11
            )

    def test_leading_unequal_magnitude(self):
        # |g^(2,1)(0)| ~ 2 sqrt(NR) at small R
        val = forward_g_unequal_ratio_abs(100, 2, 1, 1e-6)
        assert val == pytest.approx(2e-2, rel=0.15)


class TestNormalize:
    def test_autonormalization(self):
        rng = np.random.default_rng(11)
        ens = random_cloud(9, seed=5)
        st = random_state(rng)
        k = rng.normal(size=3)
        res = correlate(st, ens, CorrelationOrder(1, 1), [k, k])
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_third_order_inverted(self):
        nat = 10_000
        st = pulse_state(math.pi)
        g = forward_row(nat, 3, 3).g(st)[1].real
        want = 6.0 * (1 - 1 / nat) * (1 - 2 / nat)
        assert g == pytest.approx(want, rel=1e-12)
        assert g == pytest.approx(5.9982, abs=1e-3)

    def test_g_vanishes_beyond_atom_number(self):
        st = pulse_state(math.pi)
        for nat, m in [(2, 3), (3, 4)]:
            assert forward_row(nat, m, m).G(st) == 0.0

    def test_dark_state_rejected(self):
        st = pulse_state(0.0)
        ens = random_cloud(5, seed=1)
        with pytest.raises(ZeroIntensityError):
            correlate(st, ens, CorrelationOrder(1, 1), forward_directions(2))


class TestSymmetries:
    @pytest.mark.parametrize("trial", range(5))
    def test_slot_permutation_invariance(self, trial):
        rng = np.random.default_rng(2000 + trial)
        ens = random_cloud(int(rng.integers(2, 7)), seed=trial)
        st = random_state(rng)
        order = CorrelationOrder.equal(2)
        dirs = rng.normal(size=(4, 3))
        base = correlate(st, ens, order, dirs).value
        swapped_minus = correlate(st, ens, order, dirs[[1, 0, 2, 3]]).value
        swapped_plus = correlate(st, ens, order, dirs[[0, 1, 3, 2]]).value
        assert swapped_minus == pytest.approx(base, rel=1e-12)
        assert swapped_plus == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_conjugation_swaps_order(self, trial):
        rng = np.random.default_rng(3000 + trial)
        ens = random_cloud(int(rng.integers(2, 6)), seed=trial)
        st = random_state(rng)
        dirs = rng.normal(size=(3, 3))
        g21 = correlate(st, ens, CorrelationOrder(2, 1), dirs).value
        # swapped list: plus block first, reversed roles
        swapped = correlate(st, ens, CorrelationOrder(1, 2), dirs[[2, 0, 1]]).value
        assert swapped == pytest.approx(g21.conjugate(), rel=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_direction_shift_leaves_magnitude(self, trial):
        # valid for zero coherence: every surviving term carries only phase
        # differences k_p - k_q, so a common shift cancels pairwise
        rng = np.random.default_rng(4000 + trial)
        ens = random_cloud(int(rng.integers(2, 7)), seed=10 + trial)
        st = state_from_moments(rng.uniform(0.1, 1.0), 0.0)
        dirs = rng.normal(size=(4, 3))
        shift = rng.normal(size=3)
        a = correlate(st, ens, CorrelationOrder.equal(2), dirs).value
        b = correlate(st, ens, CorrelationOrder.equal(2), dirs + shift).value
        assert abs(b) == pytest.approx(abs(a), rel=1e-12)

    def test_coincident_directions_give_real_g(self):
        rng = np.random.default_rng(17)
        ens = random_cloud(6, seed=6)
        st = random_state(rng)
        k = rng.normal(size=3)
        g = correlate(st, ens, CorrelationOrder.equal(2), [k, k, k, k]).value
        assert abs(g.imag) <= 1e-10 * max(abs(g.real), 1e-15)
        assert g.real >= 0.0

    def test_g1_function_hermitian(self):
        rng = np.random.default_rng(19)
        ens = random_cloud(7, seed=7)
        st = random_state(rng)
        k1, k2 = rng.normal(size=3), rng.normal(size=3)
        # minus slots 0, 1 and plus slots 2, 3 at k1, k2: g1(i, j) = g^(1)(k_i, k_j)
        g1 = slot_table(ens, CorrelationOrder.equal(2), [k1, k2, k1, k2]).g1(st)
        assert g1(0, 2) == pytest.approx(1.0, rel=1e-12)
        assert g1(1, 2) == pytest.approx(g1(0, 3).conjugate(), rel=1e-12)
