"""Property tests of the exact general-direction paths against brute-force sums.

The slot table's G is checked against ``oracle_G`` for two-level states and
against a tuple sum written here for classical models, on clouds of at most four atoms with
coincident atoms, directions mixing zero and nonzero k, and states on the
positivity bound.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat.ensemble import Ensemble
from photonstat.quantum import CorrelationOrder, oracle_G, slot_table
from photonstat.states import ClassicalEmitterModel, state_from_moments

_coord = st.floats(-3.0, 3.0, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord)
# a few shared points, so that clouds with coincident atoms come up often
_shared = st.sampled_from([(0.0, 0.0, 0.0), (0.25, -0.5, 1.0), (1.5, 0.0, -2.0)])
_clouds = st.lists(st.one_of(_shared, _vec), min_size=1, max_size=4)
# each slot independently: k = 0, an O(1) vector, or a large in-plane one
_direction = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    _vec,
    st.tuples(st.floats(-400.0, 400.0), st.just(0.0), st.floats(-400.0, 400.0)),
)
_orders = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda mn: 1 <= sum(mn) <= 5
)
# |c| as a fraction of its positivity bound sqrt(p (1 - p)), the bound included
_states = st.builds(
    lambda p, frac, phase: state_from_moments(
        p, frac * math.sqrt(p * (1.0 - p)) * complex(math.cos(phase), math.sin(phase))
    ),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-6, 1.0)),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2.0 * math.pi),
)
_models = st.builds(
    lambda re, im, incoh: ClassicalEmitterModel(e_coh=complex(re, im), e_incoh=incoh),
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
    st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
)


def _directions(draw, total: int) -> np.ndarray:
    return np.array([draw(_direction) for _ in range(total)], dtype=float)


def _term_scale(state, ens, order) -> float:
    """Sum of the magnitudes of every oracle term: the oracle at k = 0 with |c|."""
    magnitudes = state_from_moments(state.population, abs(state.coherence))
    return abs(oracle_G(magnitudes, ens, order, np.zeros((order.total, 3))))


def classical_tuple_sum(model, positions, m, n, directions):
    """G over all index tuples, each atom's phase average taken by quadrature.

    Minus slot i carries exp(2 pi i k_i . R) (Ec* + Ei e^(-i phi)), plus slot j
    exp(-2 pi i k_j . R) (Ec + Ei e^(i phi)); the mean over L > m + n equally
    spaced phases is exact for these trigonometric polynomials.
    """
    phis = 2.0 * math.pi * np.arange(m + n + 1) / (m + n + 1)
    minus = model.e_coh.conjugate() + model.e_incoh * np.exp(-1j * phis)
    plus = model.e_coh + model.e_incoh * np.exp(1j * phis)
    phase = np.exp(2j * math.pi * positions @ np.asarray(directions, dtype=float).T)
    nat = positions.shape[0]
    total = 0j
    for idx in itertools.product(range(nat), repeat=m + n):
        term = 1.0 + 0j
        for slot, atom in enumerate(idx):
            term *= phase[atom, slot] if slot < m else phase[atom, slot].conjugate()
        for atom in set(idx):
            a = sum(1 for slot in idx[:m] if slot == atom)
            b = sum(1 for slot in idx[m:] if slot == atom)
            term *= np.mean(minus**a * plus**b)
        total += term
    return total


class TestMultilinearAgainstOracle:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(positions=_clouds, state=_states, order=_orders, data=st.data())
    def test_G_matches_oracle(self, positions, state, order, data):
        ens = Ensemble(positions=positions)
        order = CorrelationOrder(*order)
        dirs = _directions(data.draw, order.total)
        got = slot_table(ens, order, dirs).G(state)
        if order.x > ens.n:
            assert got == 0j
            return
        want = oracle_G(state, ens, order, dirs)
        assert abs(got - want) <= 1e-10 * _term_scale(state, ens, order)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(positions=_clouds, state=_states, extra=st.integers(1, 3), data=st.data())
    def test_more_slots_of_a_kind_than_atoms_is_exact_zero(self, positions, state, extra, data):
        ens = Ensemble(positions=positions)
        x, other = ens.n + extra, data.draw(st.integers(0, 8 - ens.n - extra))
        order = CorrelationOrder(*((x, other) if data.draw(st.booleans()) else (other, x)))
        assert slot_table(ens, order, _directions(data.draw, order.total)).G(state) == 0j


class TestClassicalAgainstTupleSum:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(positions=_clouds, model=_models, order=_orders, data=st.data())
    def test_G_matches_tuple_sum(self, positions, model, order, data):
        ens = Ensemble(positions=positions)
        m, n = order
        dirs = _directions(data.draw, m + n)
        got = slot_table(ens, CorrelationOrder(m, n), dirs).G(model)
        want = classical_tuple_sum(model, ens.positions, m, n, dirs)
        # every tuple's term is at most (|Ec| + Ei)^(m+n) in magnitude
        scale = (ens.n * (abs(model.e_coh) + model.e_incoh)) ** (m + n)
        assert abs(got - want) <= 1e-10 * scale

    def test_more_slots_than_oscillators_stays_nonzero(self):
        # an oscillator serves any number of slots, so max(m, n) > N is no
        # structural zero, unlike for two-level atoms
        ens = Ensemble(positions=[[0.0, 0.0, 0.0], [0.25, -0.5, 1.0]])
        model = ClassicalEmitterModel(e_coh=0.4 - 0.3j, e_incoh=0.7)
        rng = np.random.default_rng(5)
        for m, n in ((3, 1), (1, 3), (3, 3), (4, 2)):
            dirs = rng.normal(size=(m + n, 3))
            slots = slot_table(ens, CorrelationOrder(m, n), dirs)
            want = classical_tuple_sum(model, ens.positions, m, n, dirs)
            assert abs(want) > 1e-3
            for got in (slots.G(model), slots.g(model)[0]):
                assert abs(got - want) <= 1e-10 * (ens.n * 1.2) ** (m + n)
