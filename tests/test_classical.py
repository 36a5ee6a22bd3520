"""Classical-oscillator correlators: moments, one-k rows, exact path, MC."""

import itertools
import math

import numpy as np
import pytest

from photonstat.classical import (
    _conj_roots,
    _slot_product,
    classical_deviation_coh_ratio,
    classical_g_ratio,
    classical_mc_G,
)
from photonstat.ensemble import (
    equal_directions,
    forward_directions,
    off_axis_direction,
    phase_matrix,
    random_cloud,
    structure_factor,
)
from photonstat.quantum import (
    CorrelationOrder,
    SingleK,
    forward_row,
    oracle_G,
    row_geometry,
    slot_table,
)
from photonstat.states import ClassicalEmitterModel, classical_model_for_ratio


def forward_g(model, nat, m, n):
    """Normalized forward g^(m,n) of a classical model on the k = 0 row."""
    return forward_row(nat, m, n).g(model)[1]


def forward_intensity(model, nat):
    """<I(0)> = N |E_incoh|^2 + N^2 |E_coh|^2, the forward (1, 1) row's G."""
    return forward_row(nat, 1, 1).G(model).real


def phase_average_oracle(model, a, b, n_grid=256):
    """(1/2pi) integral (Ec* + Ei* e^(-i phi))^a (Ec + Ei e^(i phi))^b d phi.

    The integrand is a trigonometric polynomial of degree <= a + b, so the
    trapezoid rule on > a+b+1 points is exact up to rounding.
    """
    phi = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    ec, ei = model.e_coh, model.e_incoh
    vals = (np.conj(ec) + ei * np.exp(-1j * phi)) ** a * (ec + ei * np.exp(1j * phi)) ** b
    return vals.mean()


class TestClassicalMoments:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
    def test_matches_phase_quadrature(self, a, b):
        # the table is w(a, b) over max(|E_coh|, E_incoh)^(a+b) = 1.3^(a+b)
        model = ClassicalEmitterModel(e_coh=0.4 - 0.7j, e_incoh=1.3)
        table = model.moment_table(3, 2)
        want = phase_average_oracle(model, a, b) / 1.3 ** (a + b)
        assert table[a, b] == pytest.approx(want, rel=1e-12)

    def test_identity_entry(self):
        model = ClassicalEmitterModel(e_coh=1.0, e_incoh=2.0)
        table = model.moment_table(2, 2)
        assert table[0, 0] == 1.0

    def test_conjugate_symmetry(self):
        model = ClassicalEmitterModel(e_coh=0.3 + 0.9j, e_incoh=0.8)
        table = model.moment_table(3, 3)
        for a in range(4):
            for b in range(4):
                assert table[a, b] == pytest.approx(np.conj(table[b, a]), rel=1e-12)


class TestForwardClosedForms:
    """Forward closed forms, evaluated on the k = 0 row of ``SingleK``."""

    def test_incoherent_g2(self):
        model = ClassicalEmitterModel(e_coh=0.0, e_incoh=1.0)
        for nat in (2, 5, 30):
            assert forward_g(model, nat, 2, 2) == pytest.approx(
                2.0 - 1.0 / nat, rel=1e-12
            )

    def test_g1_is_one(self):
        model = classical_model_for_ratio(0.7)
        for nat in (1, 4, 100):
            assert forward_g(model, nat, 1, 1) == pytest.approx(1.0, rel=1e-12)

    def test_large_n_taylor(self):
        # m! + (1/2) m! m (m-1) R - (1/4) m! m (m-1) N^2 R^2, up to the dropped
        # finite-N corrections (leading one is -m! m (m-1)/(4N)) and R^3 terms
        nat = 10_000
        for m in (2, 3):
            for r in (1e-6, 1e-5):
                model = classical_model_for_ratio(r)
                fact = math.factorial(m) * m * (m - 1)
                series = (
                    math.factorial(m) + 0.5 * fact * r - 0.25 * fact * nat**2 * r**2
                )
                got = forward_g(model, nat, m, m).real
                budget = 0.5 * fact / nat + 10 * math.factorial(m) * nat**3 * r**3
                assert abs(got - series) <= budget

    def test_ratio_path_matches_model_path(self):
        for nat in (3, 17):
            for r in (0.0, 1e-3, 0.5, 4.0):
                model = classical_model_for_ratio(r, e_incoh=2.0)
                assert classical_g_ratio(nat, 2, r) == pytest.approx(
                    forward_g(model, nat, 2, 2), rel=1e-11
                )

    def test_unequal_zero_coherence(self):
        model = ClassicalEmitterModel(e_coh=0.0, e_incoh=1.0)
        assert forward_g(model, 10, 2, 1) == 0.0

    def test_unequal_leading_magnitude(self):
        # |g^(2,1)(0)| ~ 2 sqrt(N) sqrt(R)
        model = classical_model_for_ratio(1e-6)
        val = abs(forward_g(model, 100, 2, 1))
        assert val == pytest.approx(2e-2, rel=0.15)

    def test_unequal_appendix_form(self):
        # [2 N^2 + N^3 R] Ec*/|Ei| / (N (1+NR))^(3/2)
        for nat in (4, 25):
            model = ClassicalEmitterModel(e_coh=0.05 + 0.02j, e_incoh=0.9)
            r = model.ratio
            coh = np.conj(model.e_coh) / model.e_incoh
            want = (2 * nat**2 + nat**3 * r) * coh / (nat * (1 + nat * r)) ** 1.5
            got = forward_g(model, nat, 2, 1)
            assert got == pytest.approx(want, rel=1e-11)

    def test_deviation_ratio_matches_direct_difference(self):
        nat, m = 500, 2
        for r in (1e-4, 1e-2):
            direct = classical_g_ratio(nat, m, 0.0) - classical_g_ratio(nat, m, r)
            assert classical_deviation_coh_ratio(nat, m, r) == pytest.approx(
                direct, rel=1e-9
            )


class TestSingleK:
    """Classical rows with every slot at one k, on the power-sum path."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 1), (1, 2), (3, 1), (2, 0)])
    @pytest.mark.parametrize("k", [(0.0, 0.0, 0.0), (0.8, -0.3, 0.5)], ids=["forward", "off-axis"])
    def test_matches_oracle(self, m, n, k):
        model = ClassicalEmitterModel(e_coh=0.6 - 0.3j, e_incoh=0.9)
        for nat in (1, 2, 3, 4):
            ens = random_cloud(nat, seed=nat)
            dirs = equal_directions(k, m + n)
            geometry = row_geometry(ens, CorrelationOrder(m, n), dirs)
            assert isinstance(geometry, SingleK)
            want = oracle_G(model, ens, CorrelationOrder(m, n), dirs)
            assert geometry.G(model) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 1), (3, 3), (1, 3)])
    @pytest.mark.parametrize("r", [1e-8, 1e4])
    def test_matches_slot_table_on_large_cloud(self, m, n, r):
        ens = random_cloud(2000, seed=17)
        dirs = equal_directions(off_axis_direction(0.4), m + n)
        order = CorrelationOrder(m, n)
        model = ClassicalEmitterModel(e_coh=math.sqrt(r) * (0.6 + 0.8j), e_incoh=1.0)
        geometry = row_geometry(ens, order, dirs)
        assert geometry.method == "power-sum"
        want = slot_table(ens, order, dirs).G(model)
        assert geometry.G(model) == pytest.approx(want, rel=1e-12)

    def test_more_slots_than_emitters(self):
        # a classical oscillator serves any number of slots: g^(3)(0) on one
        # emitter is C_{3,1} = 1 at R = 0, not the two-level structural zero
        model = ClassicalEmitterModel(e_coh=0.0, e_incoh=1.0)
        assert forward_g(model, 1, 3, 3) == pytest.approx(1.0, rel=1e-15)
        assert forward_g(classical_model_for_ratio(0.5), 1, 3, 3) != 0.0


class TestExactPath:
    def test_single_atom_intensity(self):
        model = ClassicalEmitterModel(e_coh=0.6 - 0.1j, e_incoh=1.1)
        ens = random_cloud(1, seed=0)
        raw = slot_table(ens, CorrelationOrder(1, 1), forward_directions(2)).G(model)
        assert raw == pytest.approx(abs(model.e_coh) ** 2 + model.e_incoh**2, rel=1e-12)

    @pytest.mark.parametrize("nat,m", [(5, 2), (20, 2), (50, 3), (9, 1)])
    def test_k0_reduces_to_forward(self, nat, m):
        model = classical_model_for_ratio(0.2, e_incoh=1.4)
        ens = random_cloud(nat, seed=nat)
        order = CorrelationOrder.equal(m)
        g = slot_table(ens, order, forward_directions(2 * m)).g(model)[1]
        assert g == pytest.approx(forward_g(model, nat, m, m), rel=1e-10)

    @pytest.mark.parametrize("nat,m,n", [(8, 2, 1), (15, 3, 1), (12, 3, 2)])
    def test_k0_unequal_reduces_to_forward(self, nat, m, n):
        model = ClassicalEmitterModel(e_coh=0.3 + 0.4j, e_incoh=1.0)
        ens = random_cloud(nat, seed=nat + m)
        g = slot_table(ens, CorrelationOrder(m, n), forward_directions(m + n)).g(model)[1]
        assert g == pytest.approx(forward_g(model, nat, m, n), rel=1e-10)

    def test_global_phase_invariance_of_magnitude(self):
        ens = random_cloud(10, seed=3)
        dirs = np.random.default_rng(4).normal(size=(4, 3))
        order = CorrelationOrder.equal(2)
        table = slot_table(ens, order, dirs)
        a = table.G(ClassicalEmitterModel(e_coh=0.5, e_incoh=1.0))
        b = table.G(ClassicalEmitterModel(e_coh=0.5j, e_incoh=1.0))
        assert abs(b) == pytest.approx(abs(a), rel=1e-12)


class TestMonteCarlo:
    def test_coherent_only_zero_variance(self):
        model = ClassicalEmitterModel(e_coh=0.7 + 0.1j, e_incoh=0.0)
        ens = random_cloud(6, seed=1)
        dirs = np.random.default_rng(2).normal(size=(2, 3))
        mc = classical_mc_G(model, ens, CorrelationOrder(1, 1), dirs, samples=1000, seed=3)
        exact = slot_table(ens, CorrelationOrder(1, 1), dirs).G(model)
        assert mc.std_error == pytest.approx(0.0, abs=1e-12)
        assert mc.estimate == pytest.approx(exact, rel=1e-12)

    def test_one_photon_moment(self):
        # <E*(k) E(k)> = N |Ei|^2 + |Ec|^2 |S(k)|^2
        model = ClassicalEmitterModel(e_coh=0.4, e_incoh=1.0)
        ens = random_cloud(10, seed=5)
        k = np.array([0.3, -0.2, 0.9])
        mc = classical_mc_G(
            model, ens, CorrelationOrder(1, 1), [k, k], samples=100_000, seed=7
        )
        want = ens.n * model.e_incoh**2 + abs(model.e_coh * structure_factor(ens, k)) ** 2
        assert abs(mc.estimate - want) <= 3.0 * mc.std_error
        assert abs(mc.estimate - want) / want < 0.05

    def test_incoherent_g2_value(self):
        nat = 30
        model = ClassicalEmitterModel(e_coh=0.0, e_incoh=1.0)
        ens = random_cloud(nat, seed=6)
        mc = classical_mc_G(
            model, ens, CorrelationOrder.equal(2), forward_directions(4),
            samples=1_000_000, seed=11,
        )
        g = mc.estimate / forward_intensity(model, nat) ** 2
        se = mc.std_error / forward_intensity(model, nat) ** 2
        assert abs(g - (2.0 - 1.0 / nat)) <= 3.0 * se

    def test_sample_bookkeeping(self):
        model = classical_model_for_ratio(0.5)
        ens = random_cloud(3, seed=2)
        mc = classical_mc_G(
            model, ens, CorrelationOrder(1, 1), forward_directions(2),
            samples=1003, seed=5, batches=10,
        )
        assert mc.samples == 1003
        assert mc.batches == 10

    def test_determinism(self):
        model = classical_model_for_ratio(0.5)
        ens = random_cloud(4, seed=9)
        dirs = forward_directions(3)
        a = classical_mc_G(model, ens, CorrelationOrder(2, 1), dirs, samples=5000, seed=13)
        b = classical_mc_G(model, ens, CorrelationOrder(2, 1), dirs, samples=5000, seed=13)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error


def conj_roots(n_roots):
    return np.exp(-2j * math.pi * np.arange(n_roots) / n_roots)


def root_moments(model, ens, order, dirs, table):
    """Exact E[X] and E|X|^2 of the slot product over every tuple of N phasors from ``table``."""
    q = np.array(list(itertools.product(range(len(table)), repeat=ens.n)))
    x = _slot_product(table[q], phase_matrix(ens, dirs), model.e_coh, model.e_incoh, order.m)
    return x.mean(), np.mean(np.abs(x) ** 2)


class TestRootsOfUnity:
    """Phases on the L-th roots of unity, L = m + n + 1, give continuous-phase moments."""

    @pytest.mark.parametrize("nat", [1, 2, 3])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_moments_exact(self, m, n, nat):
        order = CorrelationOrder(m, n)
        rng = np.random.default_rng(10 * m + n + 100 * nat)
        model = ClassicalEmitterModel(e_coh=complex(*rng.normal(scale=0.5, size=2)), e_incoh=0.9)
        ens = random_cloud(nat, seed=nat)
        dirs = rng.normal(size=(order.total, 3))
        mean, second = root_moments(model, ens, order, dirs, _conj_roots(order))
        _, reference = root_moments(model, ens, order, dirs, conj_roots(4 * (m + n) + 1))
        exact = slot_table(ens, order, dirs).G(model)
        assert abs(mean - exact) <= 1e-12 * max(1.0, abs(exact))
        assert abs(second - reference) <= 1e-12 * reference
        # one root fewer aliases phase powers +-(m + n) in |X|^2
        _, aliased = root_moments(model, ens, order, dirs, conj_roots(m + n))
        assert abs(aliased - reference) > 1e-3 * reference
