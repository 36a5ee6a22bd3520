#!/usr/bin/env python3
"""Benchmark: compiled kernel vs pure-Python fallback on the hot workloads.

The inner loop of every large-N evaluation is the square-free polynomial
product over atoms.  This script times it on representative shapes (the
off-axis autocorrelations behind the figure pipelines, plus a classical
dense-factor case) for both backends and prints the speedup.

Usage: python benchmarks/bench_kernels.py [--atoms 10000] [--repeats 3]
"""

import argparse
import math
import time

import numpy as np

from photonstat import kernels
from photonstat.classical import ClassicalMoments
from photonstat.ensemble import off_axis_direction, random_cloud
from photonstat.quantum import CorrelationOrder, _factor_chunk, _two_level_table
from photonstat.states import ClassicalEmitterModel, pulse_state


def build_quantum_factors(nat, m):
    cloud = random_cloud(nat, seed=1)
    k = off_axis_direction(0.3)
    phases = np.exp(
        1j * 2.0 * math.pi * (cloud.positions @ np.tile(k, (2 * m, 1)).T)
    )
    table = _two_level_table(pulse_state(2.0), CorrelationOrder.equal(m))
    return _factor_chunk(phases, m, m, table)


def build_classical_factors(nat, m):
    cloud = random_cloud(nat, seed=2)
    k = off_axis_direction(1.1)
    phases = np.exp(
        1j * 2.0 * math.pi * (cloud.positions @ np.tile(k, (2 * m, 1)).T)
    )
    model = ClassicalEmitterModel(e_coh=0.3, e_incoh=1.0)
    table = ClassicalMoments.build(model, CorrelationOrder.equal(m)).table
    return _factor_chunk(phases, m, m, table)


def time_backend(impl, factors, repeats):
    size = factors.shape[1]
    best = math.inf
    result = None
    for _ in range(repeats):
        state = np.zeros(size, dtype=complex)
        state[0] = 1.0
        start = time.perf_counter()
        impl.accumulate_product(state, factors)
        best = min(best, time.perf_counter() - start)
        result = state[size - 1]
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = kernels.available_backends()
    if "cython" not in backends:
        print("compiled kernel not built; only the python fallback is available")

    workloads = [
        ("quantum m=n=2", build_quantum_factors(args.atoms, 2)),
        ("quantum m=n=3", build_quantum_factors(args.atoms, 3)),
        ("classical m=n=2", build_classical_factors(min(args.atoms, 2000), 2)),
    ]

    print(f"{'workload':<18} {'atoms':>7} {'slots':>5} "
          f"{'python':>10} {'cython':>10} {'speedup':>8}")
    for name, factors in workloads:
        slots = factors.shape[1].bit_length() - 1
        t_py, v_py = time_backend(backends["python"], factors, args.repeats)
        row = f"{name:<18} {factors.shape[0]:>7} {slots:>5} {t_py * 1e3:>8.1f}ms"
        if "cython" in backends:
            t_cy, v_cy = time_backend(backends["cython"], factors, args.repeats)
            rel = abs(v_py - v_cy) / max(abs(v_py), 1e-300)
            assert rel < 1e-9, f"backend disagreement {rel:.2e} on {name}"
            row += f" {t_cy * 1e3:>8.2f}ms {t_py / t_cy:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
