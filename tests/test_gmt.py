"""GMT predictions, deviation decomposition, conditions, and series."""

import itertools
import math

import numpy as np
import pytest

from photonstat.combinatorics import falling_factorial
from photonstat.ensemble import (
    equal_directions,
    forward_directions,
    off_axis_direction,
    random_cloud,
    structure_factor,
)
from photonstat.gmt import (
    check_conditions,
    classical_taylor_forward,
    crossover_ratio,
    deviation,
    deviation_coh_autocorrelation,
    deviation_on,
    leading_unequal,
    taylor_forward_equal,
    taylor_offaxis_coh,
)
from photonstat.quantum import (
    CorrelationOrder,
    autocorrelation_sums,
    deviation_coh_forward_ratio,
    forward_g_equal_ratio,
    forward_g_unequal_ratio_abs,
    slot_table,
)
from photonstat.states import pulse_area_for_ratio, pulse_state, state_from_moments


def deviation_N_closed_form(ensemble, order, directions) -> complex:
    """The paper's finite-size deviation from structure factors, m in {2, 3}: the
    reference the general deviation path is held to.

    delta^(2)_N = (2/N^2) S(k1 + k2 - k3 - k4);
    delta^(3)_N = (1/(2 N^3)) sum_(s,s') S(k_s(1) - k_(3+s'(1)))
                  S(k_s(2) + k_s(3) - k_(3+s'(2)) - k_(3+s'(3)))
                  - (12/N^3) S(k1 + k2 + k3 - k4 - k5 - k6),
    with the overall sign matching delta = g_GMT - g_exact.
    """
    if not order.equal_order or order.m not in (2, 3):
        raise ValueError("closed form available for m = n in {2, 3} only")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    nat = ensemble.n
    m = order.m
    if m == 2:
        return (2.0 / nat**2) * structure_factor(
            ensemble, dirs[0] + dirs[1] - dirs[2] - dirs[3]
        )
    total = 0.0 + 0.0j
    for sig in itertools.permutations(range(3)):
        for sigp in itertools.permutations(range(3)):
            single = structure_factor(ensemble, dirs[sig[0]] - dirs[3 + sigp[0]])
            pair = structure_factor(
                ensemble,
                dirs[sig[1]] + dirs[sig[2]] - dirs[3 + sigp[1]] - dirs[3 + sigp[2]],
            )
            total += single * pair
    total /= 2.0 * nat**3
    total -= (12.0 / nat**3) * structure_factor(
        ensemble, dirs[0] + dirs[1] + dirs[2] - dirs[3] - dirs[4] - dirs[5]
    )
    return total


def inline_g1(state, ensemble, ki, kj) -> complex:
    """g^(1)(ki, kj) = [f S(ki - kj) + |c|^2 S(ki) conj(S(kj))] / sqrt(I(ki) I(kj)),
    with I(k) = f N + |c|^2 |S(k)|^2, straight from the structure factors."""
    f, c2 = state.fluctuation, abs(state.coherence) ** 2
    s_i, s_j = structure_factor(ensemble, ki), structure_factor(ensemble, kj)
    raw = f * structure_factor(ensemble, ki - kj) + c2 * s_i * s_j.conjugate()
    ints = [f * ensemble.n + c2 * abs(s) ** 2 for s in (s_i, s_j)]
    return raw / math.sqrt(ints[0] * ints[1])


def gmt_on_slot_table(state, ensemble, order, directions) -> complex:
    """g_GMT of a deviation row on the slot table, the general-direction path."""
    return deviation_on(state, slot_table(ensemble, order, directions)).g_gmt


class TestGmtPredict:
    def test_equal_directions_gives_factorial(self):
        ens = random_cloud(12, seed=0)
        st = pulse_state(1.0)
        k = np.array([0.4, 0.1, -0.2])
        for m in (1, 2, 3, 4):
            got = gmt_on_slot_table(st, ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
            assert got == pytest.approx(math.factorial(m), rel=1e-12)

    def test_unequal_order_is_zero(self):
        ens = random_cloud(5, seed=1)
        got = gmt_on_slot_table(pulse_state(1.0), ens, CorrelationOrder(2, 1), np.zeros((3, 3)))
        assert got == 0.0

    def test_two_pairings_explicit(self):
        # k1 = k3, k2 = k4: prediction is 1 + |g1(k1,k2)|^2
        ens = random_cloud(9, seed=2)
        st = pulse_state(2.0)
        rng = np.random.default_rng(3)
        k1, k2 = rng.normal(size=3), rng.normal(size=3)
        dirs = np.array([k1, k2, k1, k2])
        got = gmt_on_slot_table(st, ens, CorrelationOrder.equal(2), dirs)

        def g1(ki, kj):
            return inline_g1(st, ens, ki, kj)

        # independent pair-partition enumeration: (1,3)(2,4) and (1,4)(2,3)
        want = g1(k1, k1) * g1(k2, k2) + g1(k1, k2) * g1(k2, k1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.0 + abs(g1(k1, k2)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_brute_force_pairings(self, m):
        # every pairing of the minus slots 0..m-1 with the plus slots m..2m-1
        rng = np.random.default_rng(40 + m)
        ens = random_cloud(11, seed=m)
        st = state_from_moments(0.6, 0.2 + 0.15j)
        dirs = rng.normal(size=(2 * m, 3))
        got = gmt_on_slot_table(st, ens, CorrelationOrder.equal(m), dirs)
        want = sum(
            math.prod(inline_g1(st, ens, dirs[i], dirs[j]) for i, j in enumerate(plus))
            for plus in itertools.permutations(range(m, 2 * m))
        )
        assert abs(got - want) <= 1e-12 * math.factorial(m)


class TestDeviation:
    def test_inverted_equal_directions(self):
        nat = 10_000
        ens = random_cloud(nat, seed=4)
        rep = deviation(
            pulse_state(math.pi), ens, CorrelationOrder.equal(2), forward_directions(4)
        )
        assert rep.delta_total == pytest.approx(2.0 / nat, rel=1e-9)
        assert rep.delta_n == pytest.approx(rep.delta_total, rel=1e-12)
        assert rep.delta_coh == pytest.approx(0.0, abs=1e-12)

    def test_third_order_finite_n(self):
        nat = 200
        ens = random_cloud(nat, seed=5)
        rep = deviation(
            pulse_state(math.pi), ens, CorrelationOrder.equal(3), forward_directions(6)
        )
        want = 18.0 / nat - 12.0 / nat**2
        assert rep.delta_total == pytest.approx(want, rel=1e-10)

    def test_split_is_exact(self):
        ens = random_cloud(30, seed=6)
        st = pulse_state(1.3)
        dirs = np.random.default_rng(7).normal(size=(4, 3)) * 0.2
        rep = deviation(st, ens, CorrelationOrder.equal(2), dirs)
        assert rep.delta_n + rep.delta_coh == rep.delta_total

    def test_unequal_order_all_coherence(self):
        ens = random_cloud(25, seed=8)
        st = pulse_state(2.0)
        rep = deviation(st, ens, CorrelationOrder(2, 1), forward_directions(3))
        assert rep.delta_n == 0.0
        assert rep.delta_coh == rep.delta_total
        assert rep.delta_total == pytest.approx(-rep.g_exact, rel=1e-12)

    def test_zero_coherence_unequal_vanishes(self):
        ens = random_cloud(14, seed=9)
        rep = deviation(
            pulse_state(math.pi), ens, CorrelationOrder(2, 1), forward_directions(3)
        )
        assert rep.g_exact == pytest.approx(0.0, abs=1e-14)
        assert rep.delta_total == pytest.approx(0.0, abs=1e-14)

    def test_delta_n_is_state_independent(self):
        # same fluctuation via theta = pi vs explicit moments: identical delta_n
        ens = random_cloud(40, seed=10)
        dirs = np.random.default_rng(11).normal(size=(4, 3)) * 0.3
        rep_a = deviation(pulse_state(math.pi), ens, CorrelationOrder.equal(2), dirs)
        rep_b = deviation(pulse_state(1.1), ens, CorrelationOrder.equal(2), dirs)
        rep_c = deviation(
            state_from_moments(0.37, 0.0), ens, CorrelationOrder.equal(2), dirs
        )
        # delta_n re-evaluates with p -> f, c -> 0; for any state that is the
        # same inverted-family geometry factor
        assert rep_b.delta_n == pytest.approx(rep_a.delta_n, rel=1e-10)
        assert rep_c.delta_n == pytest.approx(rep_a.delta_n, rel=1e-10)


class TestClosedFormFiniteN:
    def test_m2_all_equal(self):
        ens = random_cloud(77, seed=12)
        val = deviation_N_closed_form(ens, CorrelationOrder.equal(2), forward_directions(4))
        assert val == pytest.approx(2.0 / 77, rel=1e-12)

    def test_m3_all_equal(self):
        nat = 61
        ens = random_cloud(nat, seed=13)
        val = deviation_N_closed_form(ens, CorrelationOrder.equal(3), forward_directions(6))
        assert val == pytest.approx(18.0 / nat - 12.0 / nat**2, rel=1e-12)

    @pytest.mark.parametrize("m,seed", [(2, 20), (2, 21), (3, 22), (3, 23)])
    def test_matches_exact_deviation_random_directions(self, m, seed):
        rng = np.random.default_rng(seed)
        nat = int(rng.integers(20, 120))
        ens = random_cloud(nat, seed=seed)
        dirs = rng.normal(size=(2 * m, 3)) * 0.4
        rep = deviation(pulse_state(math.pi), ens, CorrelationOrder.equal(m), dirs)
        closed = deviation_N_closed_form(ens, CorrelationOrder.equal(m), dirs)
        assert closed == pytest.approx(rep.delta_total, rel=1e-10, abs=1e-12)

    def test_unsupported_order(self):
        ens = random_cloud(5, seed=1)
        with pytest.raises(ValueError):
            deviation_N_closed_form(ens, CorrelationOrder.equal(4), np.zeros((8, 3)))


class TestConditions:
    def test_finite_n_number(self):
        rep = check_conditions(0.0, 10_000, CorrelationOrder.equal(2))
        assert rep.margin("finite_n").lhs == pytest.approx(2e-4)

    def test_quadratic_rhs(self):
        rep = check_conditions(1e-3, 10_000, CorrelationOrder.equal(2))
        margin = rep.margin("spin_coherence_quadratic")
        assert margin.rhs == pytest.approx(2e-8)
        assert margin.lhs == pytest.approx(1e-6)
        assert rep.flagged()

    def test_first_order_trivial(self):
        rep = check_conditions(0.5, 100, CorrelationOrder(1, 1))
        assert rep.margin("spin_coherence_quadratic").ratio == 0.0
        assert rep.margin("finite_n").lhs == 0.0

    def test_unequal_rhs(self):
        rep = check_conditions(1e-8, 10_000, CorrelationOrder(2, 1))
        margin = rep.margin("spin_coherence_sqrt")
        # (N-x)! N^x / (x! N! sqrt(N)) ~ 1/(2 sqrt(N)) = 5e-3
        assert margin.rhs == pytest.approx(5e-3, rel=1e-3)
        assert margin.lhs == pytest.approx(1e-4)

    def test_linear_margin_present(self):
        rep = check_conditions(1e-5, 1000, CorrelationOrder.equal(3))
        margin = rep.margin("spin_coherence_linear")
        assert margin.rhs == pytest.approx(1.0 / (3 * (1000 - 3 + 1)))


class TestTaylorForward:
    def test_r0_values(self):
        for nat, m in [(50, 2), (10_000, 3)]:
            exact = taylor_forward_equal(nat, m, 0.0, variant="exact-N")
            assert exact.value == pytest.approx(
                math.factorial(m) ** 2 * math.comb(nat, m) / nat**m, rel=1e-12
            )
            large = taylor_forward_equal(nat, m, 0.0, variant="large-N")
            assert large.value == math.factorial(m)

    def test_matches_closed_form_within_remainder(self):
        nat = 10_000
        for m in (2, 3):
            for r in (1e-7, 1e-6):
                series = taylor_forward_equal(nat, m, r, variant="exact-N")
                exact = forward_g_equal_ratio(nat, m, r)
                # residual is the dropped O(R^3) term, of scale ~ m! N^3 R^3
                assert abs(series.value - exact) <= 10 * math.factorial(m) * nat**3 * r**3
                assert series.truncation_order == 2
                assert series.next_term_estimate > 0

    def test_crossover_estimate(self):
        assert crossover_ratio(10_000) == pytest.approx(4e-8)

    def test_slope_regimes(self):
        # quadratic then linear scaling of the coherence deviation
        nat = 10_000
        quad = np.geomspace(1e-7, 1e-5, 21)
        lin = np.geomspace(1e-11, 1e-9, 21)
        sq = np.polyfit(
            np.log(quad), np.log([abs(deviation_coh_forward_ratio(nat, 2, r)) for r in quad]), 1
        )[0]
        sl = np.polyfit(
            np.log(lin), np.log([abs(deviation_coh_forward_ratio(nat, 2, r)) for r in lin]), 1
        )[0]
        assert sq == pytest.approx(2.0, abs=0.1)
        assert sl == pytest.approx(1.0, abs=0.1)

    def test_classical_series(self):
        nat = 10_000
        assert classical_taylor_forward(nat, 2, 0.0).value == 2.0
        for m in (2, 3):
            fact = math.factorial(m) * m * (m - 1)
            got = classical_taylor_forward(nat, m, 1e-6).value
            want = math.factorial(m) + 0.5 * fact * 1e-6 - 0.25 * fact * nat**2 * 1e-12
            assert got == pytest.approx(want, rel=1e-12)

    def test_quantum_classical_linear_contrast(self):
        # quantum-minus-classical linear coefficient = -(3/2) m! m (m-1)
        for m in (2, 3):
            q = taylor_forward_equal(10**4, m, 0.0, variant="large-N").value
            qr = taylor_forward_equal(10**4, m, 1e-9, variant="large-N").value
            c = classical_taylor_forward(10**4, m, 0.0).value
            cr = classical_taylor_forward(10**4, m, 1e-9).value
            quantum_lin = (qr - q) / 1e-9
            classical_lin = (cr - c) / 1e-9
            fact = math.factorial(m) * m * (m - 1)
            assert quantum_lin - classical_lin == pytest.approx(-1.5 * fact, rel=1e-3)


class TestOffAxis:
    def test_k0_degenerate_quadratic_coefficient(self):
        # at k = 0 the eps^2 coefficient reduces to (N^2 - N)/N^2 ~ 1;
        # r small enough that the eps^4 term is negligible
        nat = 500
        ens = random_cloud(nat, seed=30)
        series = taylor_offaxis_coh(ens, 2, [0.0, 0.0, 0.0], 1e-10)
        eps2_coeff = (nat**2 - nat) / nat**2
        assert series.value.real == pytest.approx(
            eps2_coeff * series.epsilon**2, rel=1e-3
        )

    def test_series_tracks_exact_deviation(self):
        nat = 10_000
        ens = random_cloud(nat, seed=31)
        k = off_axis_direction(0.7)
        r = 1e-5
        series = taylor_offaxis_coh(ens, 2, k, r)
        exact = deviation_coh_autocorrelation(
            pulse_state(pulse_area_for_ratio(r)), autocorrelation_sums(ens, k, 2), 2
        )
        assert abs(series.value - exact) <= 0.2 * abs(exact)

    def test_large_n_limits(self):
        ens = random_cloud(1000, seed=32)
        r = 1e-4
        assert taylor_offaxis_coh(ens, 2, off_axis_direction(0.0), r).large_n_limit == (
            pytest.approx(2.0 * r**2)
        )
        assert taylor_offaxis_coh(ens, 3, off_axis_direction(0.0), r).large_n_limit == (
            pytest.approx(18.0 * r**2)
        )

    def test_m3_averaged_coefficient(self):
        nat = 10_000
        ens = random_cloud(nat, seed=33)
        r = 1e-4
        series = taylor_offaxis_coh(ens, 3, off_axis_direction(0.0), r)
        want = (2 * nat**2 - 19 * nat + 32) / (144 * nat**2) * series.epsilon**4
        assert series.value.real == pytest.approx(want, rel=1e-12)

    def test_unsupported_order(self):
        ens = random_cloud(5, seed=1)
        with pytest.raises(ValueError):
            taylor_offaxis_coh(ens, 4, [1.0, 0, 0], 1e-4)


class TestLeadingUnequal:
    def test_values(self):
        nat, r = 10_000, 1e-8
        assert leading_unequal(nat, r, CorrelationOrder(2, 1)) == pytest.approx(2e-2)
        assert leading_unequal(nat, r, CorrelationOrder(3, 1)) == pytest.approx(3e-4)
        assert leading_unequal(nat, r, CorrelationOrder(3, 2)) == pytest.approx(6e-2)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            leading_unequal(100, 1e-6, CorrelationOrder(2, 2))

    @pytest.mark.parametrize(
        "m,n",
        [(2, 1), (3, 1), (3, 2), (1, 0), (2, 0), (4, 1), (5, 2), (4, 3), (6, 1), (1, 3), (0, 2)],
    )
    def test_matches_exact_forward_g(self, m, n):
        # exact |g| = leading term x N^(x)/N^x x (1 + O(NR)), here at NR = 1e-8
        nat, r = 10_000, 1e-12
        x = max(m, n)
        falling = falling_factorial(nat, x) / nat**x
        exact = forward_g_unequal_ratio_abs(nat, m, n, r)
        assert leading_unequal(nat, r, CorrelationOrder(m, n)) == pytest.approx(
            exact / falling, rel=1e-7
        )


class TestEqualDirectionShortcut:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_full_deviation_path(self, m):
        nat = 60
        ens = random_cloud(nat, seed=34)
        st = pulse_state(1.9)
        k = off_axis_direction(1.3)
        fast = deviation_coh_autocorrelation(st, autocorrelation_sums(ens, k, m), m)
        slots = slot_table(ens, CorrelationOrder.equal(m), equal_directions(k, 2 * m))
        rep = deviation_on(st, slots)
        assert fast == pytest.approx(rep.delta_coh, rel=1e-9, abs=1e-12)

    def test_zeroed_value_is_position_free(self):
        # the c = 0 autocorrelation equals m! ff(N,m)/N^m for any cloud
        nat, m = 35, 3
        st = pulse_state(math.pi)
        k = off_axis_direction(0.4)
        for seed in (1, 2):
            ens = random_cloud(nat, seed=seed)
            val = deviation_coh_autocorrelation(st, autocorrelation_sums(ens, k, m), m)
            assert val == pytest.approx(0.0, abs=1e-10)
        expected = math.factorial(m) * falling_factorial(nat, m) / nat**m
        assert expected == pytest.approx(
            6 * (1 - 1 / nat) * (1 - 2 / nat), rel=1e-12
        )


class TestFig1Contour:
    def test_g2_constant_along_nr_contours(self):
        # along (N R)^2 = const the forward g2 varies only at O(1/N); the
        # finite-N term alone is 2/N, so the 1e-3 window needs N >= 4e3
        for c in (0.3, 1.0, 3.0):
            values = [
                forward_g_equal_ratio(nat, 2, c / nat) for nat in (4000, 10_000, 40_000, 100_000)
            ]
            assert max(values) - min(values) <= 1e-3
