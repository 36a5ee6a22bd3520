"""The structure-factor cumulant engine against brute-force products."""

import math

import numpy as np
import pytest

from photonstat import kernels
from photonstat.ensemble import random_cloud, structure_factor


def random_factors(rng, n_atoms, n_slots, density=0.4):
    size = 1 << n_slots
    f = rng.normal(size=(n_atoms, size)) + 1j * rng.normal(size=(n_atoms, size))
    f *= rng.random(size=(n_atoms, size)) < density
    f[:, 0] = 1.0
    return f


def brute_force_product(factors):
    """Multiply factor polynomials symbolically, dropping repeated markers."""
    size = factors.shape[1]
    poly = {0: 1.0 + 0.0j}
    for row in factors:
        new = {}
        for mask, coeff in poly.items():
            for add in range(size):
                if row[add] == 0 or (mask & add):
                    continue
                key = mask | add
                new[key] = new.get(key, 0.0) + coeff * row[add]
        poly = new
    return poly


def exp_of_summed_logs(factors):
    return kernels.squarefree_exp(sum(kernels.squarefree_log(row) for row in factors))


def assert_matches(got, want, n_slots):
    for mask in range(1 << n_slots):
        assert got[mask] == pytest.approx(want.get(mask, 0.0), rel=1e-12, abs=1e-12)


class TestSquarefreeEngine:
    @pytest.mark.parametrize("n_slots", [1, 2, 3, 5])
    def test_exp_of_summed_logs_matches_symbolic(self, n_slots):
        rng = np.random.default_rng(n_slots)
        factors = random_factors(rng, 7, n_slots)
        assert_matches(exp_of_summed_logs(factors), brute_force_product(factors), n_slots)

    def test_log_inverts_exp(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
        coeffs[0] = 0.0
        back = kernels.squarefree_log(kernels.squarefree_exp(coeffs))
        np.testing.assert_allclose(back, coeffs, rtol=1e-12, atol=1e-12)

    def test_chunked_logs_equal_single_shot(self):
        rng = np.random.default_rng(1)
        factors = random_factors(rng, 12, 4)
        parts = kernels.squarefree_exp(
            sum(kernels.squarefree_log(row) for row in factors[:5])
            + sum(kernels.squarefree_log(row) for row in factors[5:])
        )
        np.testing.assert_allclose(parts, exp_of_summed_logs(factors), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_slots,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (6, 203)])
    def test_exp_counts_set_partitions(self, n_slots, bell):
        coeffs = np.ones(1 << n_slots)
        coeffs[0] = 0.0
        assert kernels.squarefree_exp(coeffs)[-1] == bell


def signed_masks(vectors, m):
    """K_T for every slot mask T: minus slots add +k, plus slots add -k."""
    signs = np.where(np.arange(len(vectors)) < m, 1.0, -1.0)
    return [
        sum((signs[i] * vectors[i] for i in range(len(vectors)) if t >> i & 1), np.zeros(3))
        for t in range(1 << len(vectors))
    ]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (0, 3)])
def test_structure_factor_table_matches_direct(m, n):
    rng = np.random.default_rng(10 * m + n)
    ens = random_cloud(30, seed=m + n)
    vectors = rng.normal(size=(m + n, 3))
    table = kernels.structure_factor_table(ens.positions, vectors, m)
    assert table[0] == ens.n
    for t, k in enumerate(signed_masks(vectors, m)):
        assert table[t] == pytest.approx(structure_factor(ens, k), rel=1e-12, abs=1e-12)


def test_structure_factor_table_chunking(monkeypatch):
    rng = np.random.default_rng(3)
    ens = random_cloud(50, seed=5)
    vectors = rng.normal(size=(4, 3))
    whole = kernels.structure_factor_table(ens.positions, vectors, 2)
    monkeypatch.setattr(kernels, "_ATOM_CHUNK", 7)
    chunked = kernels.structure_factor_table(ens.positions, vectors, 2)
    np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12)


def test_partition_sum_top_coefficient():
    # atom factors from a moment table and the slot phases, multiplied out
    rng = np.random.default_rng(7)
    m, n = 2, 1
    table = rng.normal(size=(m + 1, n + 1)) + 1j * rng.normal(size=(m + 1, n + 1))
    table[0, 0] = 1.0
    ens = random_cloud(9, seed=7)
    vectors = rng.normal(size=(m + n, 3))
    ks = signed_masks(vectors, m)
    factors = np.array(
        [
            [
                table[(t & 3).bit_count(), (t >> 2).bit_count()]
                * np.exp(2j * math.pi * (pos @ ks[t]))
                for t in range(8)
            ]
            for pos in ens.positions
        ]
    )
    want = brute_force_product(factors)[7]
    s_table = kernels.structure_factor_table(ens.positions, vectors, m)
    assert kernels.partition_sum(table, s_table, m) == pytest.approx(want, rel=1e-12)


def test_backend_reported():
    assert kernels.backend() == "numpy"
