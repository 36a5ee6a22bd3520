"""Counting primitives against independent enumeration oracles."""

import itertools
import math

import pytest

from photonstat.combinatorics import (
    IntegerPartition,
    classical_count_C,
    configuration_count_B,
    enumerate_integer_partitions,
    falling_factorial,
    permutation_count_P,
    stirling_first,
)


def brute_force_classical_count(j, n):
    """Count (mu, nu) tuple pairs with equal index multisets, by enumeration."""
    count = 0
    for mus in itertools.product(range(n), repeat=j):
        for nus in itertools.product(range(n), repeat=j):
            if sorted(mus) == sorted(nus):
                count += 1
    return count


def falling_factorial_poly(m):
    """Coefficients of N(N-1)...(N-m+1) by explicit polynomial multiplication."""
    coeffs = [1]  # constant polynomial 1, lowest degree first
    for i in range(m):
        # multiply by (N - i)
        shifted = [0] + coeffs
        coeffs = [s - i * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


class TestIntegerPartitions:
    def test_j1(self):
        parts = list(enumerate_integer_partitions(1))
        assert len(parts) == 1
        assert parts[0].parts() == (1,)

    def test_j4_matches_exhaustive_count(self):
        # independent oracle: descending tuples summing to 4
        oracle = set()

        def rec(remaining, largest, acc):
            if remaining == 0:
                oracle.add(tuple(acc))
                return
            for part in range(min(largest, remaining), 0, -1):
                rec(remaining - part, part, acc + [part])

        rec(4, 4, [])
        got = {p.parts() for p in enumerate_integer_partitions(4)}
        assert got == oracle
        assert len(got) == 5

    def test_j2_exact_pair(self):
        got = [p.parts() for p in enumerate_integer_partitions(2)]
        assert sorted(got) == [(1, 1), (2,)]

    @pytest.mark.parametrize("j,pj", [(0, 1), (5, 7), (8, 22), (10, 42), (12, 77)])
    def test_partition_function(self, j, pj):
        assert len(list(enumerate_integer_partitions(j))) == pj


class TestStirlingFirst:
    def test_m2_l1(self):
        # N(N-1) = N^2 - N
        assert stirling_first(2, 1) == -1

    def test_m3_l2(self):
        assert stirling_first(3, 2) == -3
        # S(m, m-1) = -m(m-1)/2
        for m in range(2, 9):
            assert stirling_first(m, m - 1) == -m * (m - 1) // 2

    @pytest.mark.parametrize("m", range(0, 9))
    def test_leading_coefficient(self, m):
        assert stirling_first(m, m) == 1

    @pytest.mark.parametrize("m", range(0, 9))
    def test_matches_polynomial_expansion(self, m):
        coeffs = falling_factorial_poly(m)
        for l, c in enumerate(coeffs):
            assert stirling_first(m, l) == c

    def test_domain(self):
        with pytest.raises(ValueError):
            stirling_first(3, 4)

    def test_magnitude_inequality(self):
        # |S(m, m-1)|^l >= |S(m, m-l)|
        for m in range(2, 9):
            top = abs(stirling_first(m, m - 1))
            for l in range(1, m):
                assert top**l >= abs(stirling_first(m, m - l))


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(10, 2) == 90
        assert falling_factorial(3, 7) == 0
        assert falling_factorial(4, 0) == 1

    @pytest.mark.parametrize("m", range(0, 9))
    @pytest.mark.parametrize("n", [0, 1, 5, 17, 100])
    def test_stirling_identity(self, n, m):
        assert falling_factorial(n, m) == sum(
            stirling_first(m, l) * n**l for l in range(m + 1)
        )


class TestConfigurationCounts:
    def test_b_examples(self):
        assert configuration_count_B(IntegerPartition.from_parts([1, 1]), 5) == 10
        for n in (1, 4, 9):
            assert configuration_count_B(IntegerPartition.from_parts([2]), n) == n
        assert configuration_count_B(IntegerPartition.from_parts([1]), 1) == 1

    def test_b_overflowing_partition(self):
        assert configuration_count_B(IntegerPartition.from_parts([1, 1, 1]), 2) == 0

    def test_p_examples(self):
        assert permutation_count_P(IntegerPartition.from_parts([1, 1])) == 2
        assert permutation_count_P(IntegerPartition.from_parts([2])) == 1
        for j in range(1, 7):
            assert permutation_count_P(IntegerPartition.from_parts([1] * j)) == math.factorial(j)

    @pytest.mark.parametrize("j", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_single_power_completeness(self, j, n):
        # every index multiset realized exactly once: sum B P = N^j
        total = sum(
            configuration_count_B(lam, n) * permutation_count_P(lam)
            for lam in enumerate_integer_partitions(j)
        )
        assert total == n**j


class TestClassicalCount:
    def test_j1(self):
        for n in (1, 3, 8):
            assert classical_count_C(1, n) == n

    def test_j2_closed_form(self):
        assert classical_count_C(2, 5) == 45
        for n in range(1, 13):
            assert classical_count_C(2, n) == n * (2 * n - 1)

    def test_j0(self):
        assert classical_count_C(0, 4) == 1

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force(self, j, n):
        assert classical_count_C(j, n) == brute_force_classical_count(j, n)
