"""Geometry, structure factors, and the speckle statistics of random clouds."""

import math

import numpy as np
import pytest

from photonstat.ensemble import (
    Ensemble,
    ensemble_from_config,
    equal_directions,
    off_axis_direction,
    random_cloud,
    structure_factor,
)


class TestStructureFactor:
    def test_k_zero_is_n(self):
        ens = random_cloud(17, seed=0)
        assert structure_factor(ens, [0.0, 0.0, 0.0]) == 17.0 + 0.0j

    def test_single_atom_unit_modulus(self):
        ens = Ensemble(positions=[[0.0, 0.0, 0.0]])
        for k in ([1, 0, 0], [0.3, -2.0, 0.7]):
            assert structure_factor(ens, k) == pytest.approx(1.0)

    def test_quarter_wave_pair_cancels(self):
        # atoms at +-lambda/4 on z, observed along z at k0: phases +-pi/2
        ens = Ensemble(positions=[[0, 0, 0.25], [0, 0, -0.25]])
        val = structure_factor(ens, [0, 0, 1.0])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_conjugation(self):
        ens = random_cloud(50, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            k = rng.normal(size=3)
            assert structure_factor(ens, -k) == pytest.approx(
                structure_factor(ens, k).conjugate(), rel=1e-12
            )

    def test_translation_covariance(self):
        base = random_cloud(40, seed=5)
        shift = np.array([0.37, -1.2, 2.9])
        moved = Ensemble(positions=base.positions + shift)
        rng = np.random.default_rng(2)
        for _ in range(5):
            k = rng.normal(size=3)
            s0 = structure_factor(base, k)
            s1 = structure_factor(moved, k)
            phase = np.exp(1j * 2.0 * math.pi * float(k @ shift))
            assert s1 == pytest.approx(s0 * phase, rel=1e-12)
            assert abs(s1) == pytest.approx(abs(s0), rel=1e-12)

    def test_modulus_bound(self):
        ens = random_cloud(100, seed=8)
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert abs(structure_factor(ens, rng.normal(size=3))) <= 100.0 + 1e-9


class TestRandomCloud:
    def test_determinism(self):
        a = random_cloud(3, seed=42)
        b = random_cloud(3, seed=42)
        assert np.array_equal(a.positions, b.positions)

    def test_realizations_differ(self):
        a = random_cloud(3, seed=42, realization=0)
        b = random_cloud(3, seed=42, realization=1)
        assert not np.array_equal(a.positions, b.positions)

    def test_gaussian_distribution(self):
        ens = random_cloud(2000, seed=1, distribution={"kind": "gaussian", "sigma": 50.0})
        assert ens.positions.std() == pytest.approx(50.0, rel=0.1)

    def test_small_extent_warns(self):
        with pytest.warns(UserWarning, match="extent"):
            random_cloud(5, seed=0, distribution={"kind": "uniform-cube", "side": 2.0})

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            random_cloud(5, seed=0, distribution={"kind": "uniform-cube", "side": -1.0})
        with pytest.raises(ValueError):
            random_cloud(5, seed=0, distribution={"kind": "donut"})

    def test_positions_immutable(self):
        ens = random_cloud(4, seed=0)
        with pytest.raises(ValueError):
            ens.positions[0, 0] = 99.0


def speckle_samples(n, seed, k, realizations, distribution="uniform-cube"):
    """S(k) and S(2k) of seeded clouds, one pair per realization."""
    k = np.asarray(k, dtype=float)
    clouds = [random_cloud(n, seed, distribution, realization=r) for r in range(realizations)]
    s_k = np.array([structure_factor(ens, k) for ens in clouds])
    s_2k = np.array([structure_factor(ens, 2.0 * k) for ens in clouds])
    return s_k, s_2k


class TestSpeckleMoments:
    def test_single_atom_exact(self):
        s_k, s_2k = speckle_samples(1, 0, [0.7, 0.1, 0.0], realizations=5)
        assert np.abs(s_k) ** 2 == pytest.approx(np.ones(5), abs=1e-12)
        assert np.abs(s_2k) ** 2 == pytest.approx(np.ones(5), abs=1e-12)
        assert s_2k * s_k.conj() ** 2 == pytest.approx(np.ones(5), abs=1e-12)

    def test_uniform_cube_intensity_scaling(self):
        # <|S(k)|^2> ~ N for an off-axis k, 200 realizations at N = 1e4
        n = 10_000
        s_k, _ = speckle_samples(n, 11, off_axis_direction(0.3), realizations=200)
        assert 0.8 <= np.mean(np.abs(s_k) ** 2) / n <= 1.2

    def test_gaussian_fourth_moment(self):
        n = 10_000
        gaussian = {"kind": "gaussian", "sigma": 50.0}
        s_k, _ = speckle_samples(n, 12, off_axis_direction(1.1), 200, gaussian)
        assert 0.7 <= np.mean(np.abs(s_k) ** 4) / (2.0 * n**2) <= 1.3

    def test_third_order_cross_moment(self):
        # <S(2k) S(-k)^2> ~ N; noisy observable, so moderate N and many draws
        n = 100
        s_k, s_2k = speckle_samples(n, 13, off_axis_direction(2.0), realizations=20_000)
        assert abs(np.mean(s_2k * s_k.conj() ** 2) / n - 1.0) <= 0.2

    def test_mean_intensity_tight(self):
        # sample SE of |S|^2/N is 1/sqrt(realizations); 1000 draws put the
        # +-0.1 window at 3 sigma
        n = 10_000
        s_k, _ = speckle_samples(n, 14, off_axis_direction(0.9), realizations=1000)
        intensity = np.abs(s_k) ** 2 / n
        assert intensity.mean() == pytest.approx(1.0, abs=0.1)
        assert intensity.std(ddof=1) / math.sqrt(1000) == pytest.approx(
            1.0 / math.sqrt(1000), rel=0.5
        )


class TestSerialization:
    def test_random_roundtrip(self):
        ens = random_cloud(6, seed=9)
        again = ensemble_from_config({"n": 6, "seed": 9, "distribution": "uniform-cube"})
        assert np.array_equal(ens.positions, again.positions)

    def test_explicit_roundtrip(self):
        ens = Ensemble(positions=[[0, 0, 0], [1, 2, 3]])
        again = ensemble_from_config({"positions": ens.positions.tolist()})
        assert np.array_equal(ens.positions, again.positions)

    def test_equal_directions_shape(self):
        dirs = equal_directions([1.0, 0.0, 0.0], 4)
        assert dirs.shape == (4, 3)
        assert np.all(dirs == [1.0, 0.0, 0.0])
