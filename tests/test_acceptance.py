"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from photonstat.classical import classical_g_ratio, classical_mc_G
from photonstat.combinatorics import (
    classical_count_C,
    configuration_count_B,
    enumerate_integer_partitions,
    falling_factorial,
    permutation_count_P,
    stirling_first,
)
from photonstat.ensemble import forward_directions, random_cloud, structure_factor
from photonstat.figures import fig3_deviation_matrix, run_figure
from photonstat.gmt import crossover_ratio
from photonstat.quantum import (
    CorrelationOrder,
    deviation_coh_forward_ratio,
    forward_g_equal_ratio,
    forward_g_unequal_ratio_abs,
    forward_row,
    normalize,
    oracle_G,
    slot_table,
)
from photonstat.states import ClassicalEmitterModel, pulse_state, state_from_moments


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance {number:2d}] {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[acceptance {number:2d}] {name}: PASS ({time.perf_counter() - start:.2f}s)")


def random_valid_state(rng):
    p = rng.uniform(0.05, 0.95)
    c = rng.uniform(0.0, 0.95) * math.sqrt(p * (1 - p)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi)
    )
    return state_from_moments(p, complex(c))


def loglog_fit(r_values, y_values):
    slope, intercept = np.polyfit(np.log(r_values), np.log(y_values), 1)
    return slope, math.exp(intercept)


def test_criterion_1_inverted_autocorrelation():
    with criterion(1, "g2(0) = 2 - 2/N, oracle and closed form, < 1 s"):
        start = time.perf_counter()
        st = pulse_state(math.pi)
        for nat in range(2, 9):
            ens = random_cloud(nat, seed=nat)
            raw = oracle_G(st, ens, CorrelationOrder.equal(2), forward_directions(4))
            inten = st.fluctuation * nat + abs(st.coherence) ** 2 * abs(
                structure_factor(ens, np.zeros(3))
            ) ** 2
            g = normalize(raw, [inten] * 4)
            want = 2.0 - 2.0 / nat
            assert abs(g - want) <= 1e-10 * want
        big = 10_000
        g_big = forward_row(big, 2, 2).g(st)[1].real
        assert abs(g_big - (2.0 - 2.0 / big)) <= 1e-10 * 2.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "multilinear == oracle on 300 random instances, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(20_250_801)
        worst = 0.0
        for trial in range(300):
            nat = int(rng.integers(1, 7))
            while True:
                m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                if 1 <= m + n <= 5:
                    break
            order = CorrelationOrder(m, n)
            ens = random_cloud(nat, seed=trial)
            st = random_valid_state(rng)
            dirs = rng.normal(size=(order.total, 3))
            a = oracle_G(st, ens, order, dirs)
            b = slot_table(ens, order, dirs).G(st)
            rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
            worst = max(worst, rel)
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"
        assert time.perf_counter() - start < 60.0


def test_criterion_3_appendix_regression():
    with criterion(3, "App-style g2(0) and |g21(0)| closed forms to 1e-10"):
        r_grid = [0.0] + list(np.geomspace(1e-8, 10.0, 19))
        for nat in range(2, 51):
            for r in r_grid:
                g2_ref = (
                    2 * nat * (nat - 1)
                    + 4 * nat * (nat - 1) ** 2 * r
                    + nat**2 * (nat - 1) ** 2 * r**2
                ) / (nat**2 * (1 + nat * r) ** 2)
                g2 = forward_g_equal_ratio(nat, 2, r)
                assert abs(g2 - g2_ref) <= 1e-10 * max(g2_ref, 1e-300)
                g21_ref = (
                    (2 * nat * (nat - 1) + nat**2 * (nat - 1) * r)
                    * math.sqrt(r)
                    / (nat * (1 + nat * r)) ** 1.5
                )
                g21 = forward_g_unequal_ratio_abs(nat, 2, 1, r)
                assert abs(g21 - g21_ref) <= 1e-10 * max(g21_ref, 1e-300)


def test_criterion_4_fig2_crossover():
    with criterion(4, "slope 2 then 1 with breakpoint near 4/N^2"):
        nat = 10_000
        # 10 points per decade, endpoints inclusive
        quad_window = np.geomspace(1e-7, 1e-5, 21)
        lin_window = np.geomspace(1e-11, 1e-9, 21)
        quad_slope, _ = loglog_fit(
            quad_window, [abs(deviation_coh_forward_ratio(nat, 2, r)) for r in quad_window]
        )
        lin_slope, _ = loglog_fit(
            lin_window, [abs(deviation_coh_forward_ratio(nat, 2, r)) for r in lin_window]
        )
        assert abs(quad_slope - 2.0) <= 0.1, f"quadratic-regime slope {quad_slope:.4f}"
        assert abs(lin_slope - 1.0) <= 0.1, f"linear-regime slope {lin_slope:.4f}"
        # breakpoint: where the local slope crosses 1.5
        grid = np.geomspace(1e-9, 1e-6, 121)
        vals = np.log([abs(deviation_coh_forward_ratio(nat, 2, r)) for r in grid])
        slopes = np.diff(vals) / np.diff(np.log(grid))
        mids = np.sqrt(grid[:-1] * grid[1:])
        crossing = mids[np.argmin(np.abs(slopes - 1.5))]
        assert 0.5 * crossover_ratio(nat) <= crossing <= 2.0 * crossover_ratio(nat)


def test_criterion_5_offaxis_averages():
    with criterion(5, "off-axis <dg_coh> / R^2 -> 2 and 18 (200 realizations), < 5 min"):
        start = time.perf_counter()
        nat, r = 10_000, 1e-4
        means, sems = fig3_deviation_matrix(
            nat, (2, 3), [r], realizations=200, seed=7,
            directions_per_realization=8, threads=2,
        )
        ratio2 = abs(means[0, 0]) / r**2
        ratio3 = abs(means[1, 0]) / r**2
        print(f"    measured: m=2 -> {ratio2:.3f} (sem {sems[0,0]/r**2:.3f}), "
              f"m=3 -> {ratio3:.2f} (sem {sems[1,0]/r**2:.2f})")
        assert abs(ratio2 - 2.0) <= 0.25 * 2.0, f"m=2 plateau {ratio2:.3f}"
        assert abs(ratio3 - 18.0) <= 0.25 * 18.0, f"m=3 plateau {ratio3:.3f}"
        assert time.perf_counter() - start < 300.0


def test_criterion_6_unequal_order_scalings():
    with criterion(6, "|g(m,n)(0)| power laws and prefactors"):
        nat = 10_000
        r_grid = np.geomspace(1e-10, 1e-6, 41)
        cases = [
            ((2, 1), 0.5, 2.0 * math.sqrt(nat)),
            ((3, 2), 0.5, 6.0 * math.sqrt(nat)),
            ((3, 1), 1.0, 3.0 * nat),
        ]
        for (m, n), want_slope, want_prefactor in cases:
            ys = [forward_g_unequal_ratio_abs(nat, m, n, r) for r in r_grid]
            slope, prefactor = loglog_fit(r_grid, ys)
            assert abs(slope - want_slope) <= 0.05, f"({m},{n}) slope {slope:.4f}"
            assert abs(prefactor / want_prefactor - 1.0) <= 0.10, (
                f"({m},{n}) prefactor {prefactor:.3f} vs {want_prefactor:.3f}"
            )


def test_criterion_7_quantum_classical_contrast():
    with criterion(7, "linear-in-R and 1/N coefficients, quantum vs classical"):
        nat = 10_000
        # linear-in-R: least-squares over a window where the N^2 R^2 curvature
        # biases the fit by ~1%
        r_fit = np.linspace(0.0, 2e-10, 6)
        for m in (2, 3):
            fact = math.factorial(m) * m * (m - 1)
            gq = [forward_g_equal_ratio(nat, m, r) for r in r_fit]
            gc = [classical_g_ratio(nat, m, r) for r in r_fit]
            cq = np.polyfit(r_fit, gq, 1)[0]
            cc = np.polyfit(r_fit, gc, 1)[0]
            assert abs(cq / (-fact) - 1.0) <= 0.05, f"quantum m={m}: {cq:.4f}"
            assert abs(cc / (0.5 * fact) - 1.0) <= 0.05, f"classical m={m}: {cc:.4f}"
        # 1/N coefficients at R = 0
        n_grid = np.array([100, 200, 500, 1000, 2000, 5000, 10_000])
        for m in (2, 3):
            fact = math.factorial(m) * m * (m - 1)
            gq = [forward_g_equal_ratio(int(n), m, 0.0) for n in n_grid]
            gc = [classical_g_ratio(int(n), m, 0.0) for n in n_grid]
            cq = np.polyfit(1.0 / n_grid, gq, 1)[0]
            cc = np.polyfit(1.0 / n_grid, gc, 1)[0]
            assert abs(cq / (-0.5 * fact) - 1.0) <= 0.05, f"quantum 1/N m={m}: {cq:.4f}"
            assert abs(cc / (-0.25 * fact) - 1.0) <= 0.05, f"classical 1/N m={m}: {cc:.4f}"


def test_criterion_8_classical_mc_consistency():
    with criterion(8, "classical MC within 3 SE of exact on 50 instances"):
        rng = np.random.default_rng(777)
        failures = 0
        for trial in range(50):
            nat = int(rng.integers(2, 21))
            while True:
                m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                if 1 <= m + n <= 4:
                    break
            order = CorrelationOrder(m, n)
            model = ClassicalEmitterModel(
                e_coh=complex(rng.normal(scale=0.5), rng.normal(scale=0.5)),
                e_incoh=rng.uniform(0.5, 1.5),
            )
            ens = random_cloud(nat, seed=trial)
            dirs = rng.normal(size=(order.total, 3))
            exact = slot_table(ens, order, dirs).G(model)
            mc = classical_mc_G(
                model, ens, order, dirs, samples=100_000, seed=1000 + trial
            )
            if abs(mc.estimate - exact) > 3.0 * mc.std_error:
                failures += 1
        # 3 SE is a ~99.7% interval per instance; all 50 must hold
        assert failures == 0, f"{failures} instances outside 3 SE"


def test_criterion_9_combinatorics_identities():
    with criterion(9, "partition completeness, Stirling identity, C(2,N)"):
        for j in range(1, 7):
            for nat in range(1, 13):
                total = sum(
                    configuration_count_B(lam, nat) * permutation_count_P(lam)
                    for lam in enumerate_integer_partitions(j)
                )
                assert total == nat**j
        for m in range(0, 9):
            for nat in range(0, 101):
                assert falling_factorial(nat, m) == sum(
                    stirling_first(m, l) * nat**l for l in range(m + 1)
                )
        for nat in range(1, 13):
            assert classical_count_C(2, nat) == nat * (2 * nat - 1)


def test_criterion_10_byte_identical_csv():
    with criterion(10, "fig3 CSV byte-identical across runs and thread counts"):
        outputs = []
        for threads in (1, 4, 1):
            table, _ = run_figure(
                "fig3",
                overrides={"r_inv_grid": [1e4, 1e6], "n": 300},
                seed=7,
                realizations=50,
                threads=threads,
            )
            outputs.append(table.to_csv_text().encode())
        assert outputs[0] == outputs[1] == outputs[2]
