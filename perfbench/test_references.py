"""The benchmark's reference formulas against photonstat's brute-force oracle.

``oracle_G`` sums over every index tuple, so it shares no algebra with the
references; agreement at tiny N (N <= 6, m + n <= 6) means a reference bug
cannot pass for a program fault.  Run with ``pytest perfbench``.
"""

import itertools
import math

import numpy as np
import pytest

import references as ref
from photonstat.ensemble import Ensemble
from photonstat.quantum import CorrelationOrder, oracle_G
from photonstat.states import pulse_state, pulse_area_for_ratio, state_from_moments

TOL = 1e-10


def random_state(rng):
    p = rng.uniform(0.05, 0.95)
    c = rng.uniform(0.0, 0.95) * math.sqrt(p * (1 - p)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return p, complex(c)


def small_orders(max_tuples, nat):
    return [(m, n) for m in range(4) for n in range(4)
            if 1 <= m + n <= 6 and nat ** (m + n) <= max_tuples]


def test_moment_cumulant_matches_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for nat in range(1, 7):
        for m, n in small_orders(5000, nat):
            pos = rng.uniform(-2.0, 2.0, size=(nat, 3))
            dirs = rng.normal(size=(m + n, 3))
            p, c = random_state(rng)
            want = oracle_G(state_from_moments(p, c), Ensemble(positions=pos),
                            CorrelationOrder(m, n), dirs)
            table = ref.structure_factors(pos, ref.block_vectors(dirs, m))
            got, scale = ref.correlator_G(table, m, n, ref.quantum_moment(p, c))
            assert abs(got - want) <= TOL * max(abs(want), scale), (nat, m, n)
            checked += 1
    assert checked > 40


def classical_brute_force(pos, dirs, m, n, w):
    """Sum over all slot-to-emitter tuples of per-emitter phase-averaged moments."""
    nat = pos.shape[0]
    phase = np.exp(2j * math.pi * pos @ np.asarray(dirs).T)
    total = 0.0 + 0.0j
    for slots in itertools.product(range(nat), repeat=m + n):
        term = 1.0 + 0.0j
        for i, atom in enumerate(slots):
            term *= phase[atom, i] if i < m else phase[atom, i].conjugate()
        for atom in set(slots):
            a = sum(1 for i in range(m) if slots[i] == atom)
            b = sum(1 for i in range(m, m + n) if slots[i] == atom)
            term *= w(a, b)
        total += term
    return total


def test_classical_moment_cumulant_matches_tuple_sum():
    rng = np.random.default_rng(12)
    for nat in (1, 2, 3, 4):
        for m, n in small_orders(300, nat):
            pos = rng.uniform(-2.0, 2.0, size=(nat, 3))
            dirs = rng.normal(size=(m + n, 3))
            e_coh = complex(rng.normal(), rng.normal())
            w = ref.classical_moment(e_coh, 0.7)
            want = classical_brute_force(pos, dirs, m, n, w)
            table = ref.structure_factors(pos, ref.block_vectors(dirs, m))
            got, scale = ref.correlator_G(table, m, n, w)
            assert abs(got - want) <= TOL * max(abs(want), scale), (nat, m, n)


def test_classical_moment_is_the_binomial_phase_average():
    e_coh, e_incoh = 0.3 - 0.4j, 1.3
    w = ref.classical_moment(e_coh, e_incoh)
    for a, b in itertools.product(range(4), repeat=2):
        want = sum(math.comb(a, t) * math.comb(b, t) * e_incoh ** (2 * t)
                   * e_coh.conjugate() ** (a - t) * e_coh ** (b - t)
                   for t in range(min(a, b) + 1))
        assert abs(w(a, b) - want) <= 1e-12 * max(1.0, abs(want))


def oracle_g(p, c, f, pos, dirs, m, n):
    ens = Ensemble(positions=pos)
    raw = oracle_G(state_from_moments(p, c), ens, CorrelationOrder(m, n), dirs)
    s_single = ref.structure_factors(pos, dirs)
    return ref.normalized(raw, [f * len(pos) + abs(c) ** 2 * abs(s) ** 2 for s in s_single])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_autocorrelation_delta_matches_oracle(m):
    rng = np.random.default_rng(13 + m)
    for nat in range(1, 6):
        if nat ** (2 * m) > 5000:
            continue
        pos = rng.uniform(-2.0, 2.0, size=(nat, 3))
        k = rng.normal(size=3)
        dirs = np.tile(k, (2 * m, 1))
        for r in (1e-3, 0.37, 4.0):
            st = pulse_state(pulse_area_for_ratio(r))
            g = oracle_g(st.population, st.coherence, st.fluctuation, pos, dirs, m, m)
            g_zeroed = math.factorial(m) ** 2 * math.comb(nat, m) / nat**m
            sums = ref.mp_power_sums(pos, k, m)
            want = complex(ref.autocorrelation_delta(ref.disjoint_pair_sums(sums, m),
                                                     sums, nat, m, r))
            assert abs((g_zeroed - g) - want) <= TOL * math.factorial(m), (nat, r)


@pytest.mark.parametrize("m", [2, 3])
def test_gmt_pair_sum_and_finite_size_closed_form_match_oracle(m):
    rng = np.random.default_rng(17 + m)
    for nat in range(1, 5 if m == 3 else 7):
        pos = rng.uniform(-2.0, 2.0, size=(nat, 3))
        dirs = rng.normal(size=(2 * m, 3))
        table = ref.structure_factors(pos, ref.block_vectors(dirs, m))
        # coherence zeroed: p = f, c = 0, so g^(1)(k_i, k_j) = S(k_i - k_j) / N
        g_exact = oracle_g(0.6, 0.0, 0.6, pos, dirs, m, m)
        g_gmt = ref.gmt_pair_sum(lambda i, j: table[1 << i | 1 << j] / nat, m)

        def s_of(minus, plus):
            return table[sum(1 << i for i in minus + plus)]

        want = ref.delta_n_closed_form(s_of, nat, m)
        assert abs((g_gmt - g_exact) - want) <= TOL * math.factorial(m), nat


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2), (1, 3)])
def test_forward_multinomial_matches_oracle(m, n):
    for nat in range(1, 7):
        if nat ** (m + n) > 5000:
            continue
        pos = np.random.default_rng(nat).uniform(-2.0, 2.0, size=(nat, 3))
        dirs = np.zeros((m + n, 3))
        for r in (0.0, 1e-4, 0.5, 3.0):
            st = pulse_state(pulse_area_for_ratio(r))
            want = abs(oracle_g(st.population, st.coherence, st.fluctuation, pos, dirs, m, n))
            got = float(ref.forward_g(nat, m, n, r))
            assert abs(got - want) <= TOL * max(1.0, want), (nat, r)


def test_worked_second_order_forms_match_multinomial():
    for nat in (2, 7, 50, 10_000):
        for r in (0.0, 1e-8, 1e-3, 0.4, 25.0):
            assert math.isclose(ref.forward_g2(nat, r), float(ref.forward_g(nat, 2, 2, r)),
                                rel_tol=TOL)
            assert math.isclose(ref.forward_g21(nat, r), float(ref.forward_g(nat, 2, 1, r)),
                                rel_tol=TOL, abs_tol=1e-300)


def test_set_partitions_are_counted_by_bell_numbers():
    assert [len(ref.set_partitions((1 << s) - 1)) for s in range(7)] == [1, 1, 2, 5, 15, 52, 203]
