"""Single-emitter state constructors and their closed-form moments."""

import math

import numpy as np
import pytest

from photonstat.states import (
    ClassicalEmitterModel,
    classical_model_for_ratio,
    driven_steady_state,
    pulse_area_for_ratio,
    pulse_state,
    state_from_config,
    state_from_moments,
)


class TestPulseState:
    def test_full_inversion(self):
        st = pulse_state(math.pi)
        assert st.population == pytest.approx(1.0)
        assert st.coherence == pytest.approx(0.0, abs=1e-15)
        assert st.fluctuation == pytest.approx(1.0)
        assert st.ratio == pytest.approx(0.0, abs=1e-15)

    def test_half_pulse(self):
        st = pulse_state(math.pi / 2)
        assert st.population == pytest.approx(0.5)
        assert st.coherence == pytest.approx(-0.5j)
        assert st.fluctuation == pytest.approx(0.25)
        assert st.ratio == pytest.approx(1.0)

    def test_dark(self):
        st = pulse_state(0.0)
        assert st.population == 0.0
        assert st.coherence == 0.0
        assert st.ratio == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pulse_state(-0.1)
        with pytest.raises(ValueError):
            pulse_state(math.pi + 0.1)

    @pytest.mark.parametrize("theta", np.linspace(1e-3, math.pi, 25))
    def test_ratio_times_fluctuation(self, theta):
        st = pulse_state(theta)
        assert st.ratio * st.fluctuation == pytest.approx(
            abs(st.coherence) ** 2, rel=1e-14
        )
        assert st.ratio == pytest.approx(1.0 / math.tan(theta / 2) ** 2, rel=1e-12)

    def test_area_for_ratio_roundtrip(self):
        for r in (0.0, 1e-6, 1.0, 1e6):
            st = pulse_state(pulse_area_for_ratio(r))
            assert st.ratio == pytest.approx(r, rel=1e-9, abs=1e-15)


class TestDrivenState:
    def test_s1(self):
        st = driven_steady_state(1.0)
        assert st.population == pytest.approx(0.25)
        assert st.coherence == pytest.approx(-1.0 / (2.0 * math.sqrt(2.0)))
        assert st.fluctuation == pytest.approx(0.125)
        assert st.ratio == pytest.approx(1.0)

    def test_saturation_limit(self):
        st = driven_steady_state(1e6)
        assert st.population == pytest.approx(0.5, abs=1e-5)
        assert st.ratio == pytest.approx(0.0, abs=1e-5)

    def test_weak_drive_ratio(self):
        assert driven_steady_state(1e-4).ratio == pytest.approx(1e4, rel=1e-10)

    @pytest.mark.parametrize("s", np.geomspace(1e-6, 1e6, 25))
    def test_ratio_is_inverse_saturation(self, s):
        assert driven_steady_state(s).ratio * s == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            driven_steady_state(0.0)


class TestFromMoments:
    def test_inverted(self):
        st = state_from_moments(1.0, 0.0)
        assert st.fluctuation == 1.0
        assert st.ratio == 0.0

    def test_boundary_accepted_interior_rejected(self):
        state_from_moments(0.5, 0.5)  # |c|^2 = p(1-p) exactly
        with pytest.raises(ValueError, match="positivity"):
            state_from_moments(0.5, 0.51)

    def test_population_domain(self):
        with pytest.raises(ValueError):
            state_from_moments(1.2, 0.0)

    def test_matches_driven(self):
        driven = driven_steady_state(1.0)
        rebuilt = state_from_moments(driven.population, driven.coherence)
        assert rebuilt.population == driven.population
        assert rebuilt.coherence == driven.coherence
        assert rebuilt.fluctuation == pytest.approx(driven.fluctuation, rel=1e-12)

    def test_coherence_zeroed_keeps_fluctuation(self):
        st = pulse_state(1.1)
        zeroed = st.coherence_zeroed()
        assert zeroed.coherence == 0.0
        assert zeroed.fluctuation == pytest.approx(st.fluctuation, rel=1e-14)

    def test_conjugate_plus(self):
        st = state_from_moments(0.3, 0.1 + 0.2j)
        assert st.coherence_plus == (0.1 - 0.2j)


class TestSerialization:
    def test_roundtrip_kinds(self):
        for cfg, want in (
            ({"kind": "pulse", "theta": 1.3}, pulse_state(1.3)),
            ({"kind": "driven", "s": 2.5}, driven_steady_state(2.5)),
            (
                {"kind": "moments", "p": 0.3, "c_re": 0.1, "c_im": -0.2},
                state_from_moments(0.3, 0.1 - 0.2j),
            ),
        ):
            st = state_from_config(cfg)
            assert st.population == pytest.approx(want.population)
            assert st.coherence == pytest.approx(want.coherence)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            state_from_config({"kind": "thermal"})


class TestClassicalModel:
    def test_ratio(self):
        model = ClassicalEmitterModel(e_coh=2.0, e_incoh=1.0)
        assert model.ratio == pytest.approx(4.0)

    def test_for_ratio(self):
        model = classical_model_for_ratio(0.25)
        assert model.ratio == pytest.approx(0.25)

    def test_zero_incoherent(self):
        model = ClassicalEmitterModel(e_coh=1.0, e_incoh=0.0)
        assert model.ratio == math.inf

    def test_faint_amplitudes_keep_their_ratio(self):
        # |E_coh|^2 = 1e-402 underflows; the ratio of the amplitudes does not
        faint = ClassicalEmitterModel(e_coh=1e-201, e_incoh=1e-200)
        assert faint.ratio == pytest.approx(0.01, rel=1e-14)
        unit = faint.unit()
        assert (unit.e_coh, unit.e_incoh) == (pytest.approx(0.1, rel=1e-15), 1.0)

    def test_negative_incoherent_rejected(self):
        with pytest.raises(ValueError):
            ClassicalEmitterModel(e_coh=0.0, e_incoh=-1.0)
