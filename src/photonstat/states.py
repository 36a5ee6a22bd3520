"""Single-emitter source models.

Quantum emitters are two-level atoms described by their normally-ordered
moments: population p = <s+ s->, coherence c = <s->, and the derived
fluctuation f = p - |c|^2.  The coherent-to-incoherent power ratio
R = |c|^2 / f controls every deviation from Gaussian statistics.  The
classical counterpart is a fixed coherent amplitude plus an
incoherent amplitude with a uniformly random phase per emitter.

Both kinds hand the correlator engine the same two things: the
single-emitter moment table w(a, b) for a minus and b plus slots
(``moment_table``) and the incoherent and coherent powers
(``scaled_powers``), both in units of s = max(incoherent, coherent power),
so faint emitters do not underflow.

A plane-wave drive phase never appears here: it can be absorbed into the
observation wave vectors, so states are position- and phase-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_POSITIVITY_SLACK = 1e-12


@dataclass(frozen=True)
class SingleAtomState:
    """Two-level atom moments; immutable and freely shareable.

    ``exact_fluctuation`` lets a state family supply f = p - |c|^2 in closed
    form; the direct float difference cancels catastrophically when the
    coherent part dominates (e.g. strongly driven atoms), which would spoil
    the reported ratio R.
    """

    population: float
    coherence: complex
    exact_fluctuation: float | None = None

    def __post_init__(self):
        p = self.population
        c2 = abs(self.coherence) ** 2
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"population {p} outside [0, 1]")
        if c2 > p * (1.0 - p) + _POSITIVITY_SLACK:
            raise ValueError(
                f"|c|^2 = {c2:.6g} violates positivity bound p(1-p) = {p * (1.0 - p):.6g}"
            )
        f = self.exact_fluctuation
        if f is not None and not math.isclose(f, p - c2, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("supplied fluctuation disagrees with p - |c|^2")

    @property
    def coherence_plus(self) -> complex:
        """<s+> = conjugate of <s->."""
        return self.coherence.conjugate()

    @property
    def fluctuation(self) -> float:
        """f = <ds+ ds-> = p - |c|^2 (clamped against rounding at the pure boundary)."""
        if self.exact_fluctuation is not None:
            return self.exact_fluctuation
        return max(self.population - abs(self.coherence) ** 2, 0.0)

    @property
    def ratio(self) -> float:
        """R = |c|^2 / f; +inf for coherent emission with no fluctuation."""
        c2 = abs(self.coherence) ** 2
        f = self.fluctuation
        if f == 0.0:
            return math.inf if c2 > 0.0 else 0.0
        return c2 / f

    def _scale(self) -> float:
        """s = max(f, |c|^2), or 1 for a dark state."""
        return max(self.fluctuation, abs(self.coherence) ** 2) or 1.0

    def scaled_powers(self) -> tuple[float, float, float]:
        """(sqrt(s), f / s, |c|^2 / s): the incoherent and coherent powers in units of s."""
        s = self._scale()
        return math.sqrt(s), self.fluctuation / s, abs(self.coherence) ** 2 / s

    def moment_table(self, m: int, n: int) -> np.ndarray:
        """w(a, b) / s^((a+b)/2) for a <= m minus and b <= n plus slots.

        w is 1, <s+>, <s->, <s+ s->, and zero once a or b exceeds 1: an atom
        serves at most one slot of each kind.
        """
        s = self._scale()
        c = self.coherence / math.sqrt(s)
        moments = np.array([[1.0, c], [c.conjugate(), self.population / s]], dtype=complex)
        table = np.zeros((m + 1, n + 1), dtype=complex)
        table[:2, :2] = moments[: m + 1, : n + 1]
        return table

    def coherence_zeroed(self) -> "SingleAtomState":
        """Same fluctuation, zero coherence: p' = f, c' = 0.

        This is the substitution that isolates the finite-size part of a
        GMT deviation.
        """
        return SingleAtomState(population=self.fluctuation, coherence=0.0)


def pulse_state(theta: float) -> SingleAtomState:
    """Coherent superposition after a resonant pulse of area theta.

    p = sin^2(theta/2), c = -i sin(theta/2) cos(theta/2), hence
    f = sin^4(theta/2) and R = cot^2(theta/2).  theta = pi is the fully
    inverted ensemble (no coherence); theta = 0 is dark.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"pulse area {theta} outside [0, pi]")
    if theta == math.pi:
        # exactly inverted; sin/cos rounding would leave a ~1e-16 coherence
        return SingleAtomState(population=1.0, coherence=0.0, exact_fluctuation=1.0)
    half = 0.5 * theta
    s, co = math.sin(half), math.cos(half)
    return SingleAtomState(
        population=s * s, coherence=-1j * s * co, exact_fluctuation=s**4
    )


def driven_steady_state(s: float) -> SingleAtomState:
    """Steady state under cw drive with saturation parameter s.

    p = s / (2(1+s)), c = -sqrt(s) / (sqrt(2)(1+s)), so f = s^2 / (2(1+s)^2)
    and R = 1/s.
    """
    if not s > 0.0:
        raise ValueError(f"saturation parameter must be positive, got {s}")
    return SingleAtomState(
        population=s / (2.0 * (1.0 + s)),
        coherence=-math.sqrt(s) / (math.sqrt(2.0) * (1.0 + s)),
        exact_fluctuation=s**2 / (2.0 * (1.0 + s) ** 2),
    )


def state_from_moments(p: float, c: complex) -> SingleAtomState:
    """Store moments verbatim after the positivity check."""
    return SingleAtomState(population=float(p), coherence=complex(c))


def pulse_area_for_ratio(r: float) -> float:
    """Pulse area theta with cot^2(theta/2) = r; inverse of the pulse family."""
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    return 2.0 * math.atan2(1.0, math.sqrt(r))


def state_from_config(cfg: dict) -> SingleAtomState:
    kind = cfg.get("kind")
    if kind == "pulse":
        return pulse_state(float(cfg["theta"]))
    if kind == "driven":
        return driven_steady_state(float(cfg["s"]))
    if kind == "moments":
        return state_from_moments(
            float(cfg["p"]), complex(float(cfg.get("c_re", 0.0)), float(cfg.get("c_im", 0.0)))
        )
    raise ValueError(f"unknown state kind {kind!r}")


@dataclass(frozen=True)
class ClassicalEmitterModel:
    """Classical oscillator: coherent amplitude plus phase-randomized amplitude.

    Each emitter radiates E_coh + E_incoh e^(i phi) with phi independent and
    uniform on [0, 2pi), so <e^(i q phi)> vanishes for every integer q != 0.
    """

    e_coh: complex
    e_incoh: float

    def __post_init__(self):
        if self.e_incoh < 0.0:
            raise ValueError("incoherent amplitude magnitude must be non-negative")

    @property
    def ratio(self) -> float:
        """R = (|E_coh| / E_incoh)^2, which faint amplitudes do not underflow."""
        if self.e_incoh == 0.0:
            return math.inf if self.e_coh else 0.0
        return (abs(self.e_coh) / self.e_incoh) ** 2

    def _amplitude(self) -> float:
        """a = max(|E_coh|, E_incoh), or 1 when both vanish; s = a^2."""
        return max(abs(self.e_coh), self.e_incoh) or 1.0

    def unit(self) -> "ClassicalEmitterModel":
        """The model with both amplitudes divided by a.

        Normalized correlators do not change, and faint amplitudes give O(1)
        powers instead of underflowing.
        """
        a = self._amplitude()
        return ClassicalEmitterModel(e_coh=self.e_coh / a, e_incoh=self.e_incoh / a)

    def scaled_powers(self) -> tuple[float, float, float]:
        """(a, |E_incoh|^2 / a^2, |E_coh|^2 / a^2): the two powers in units of s = a^2."""
        unit = self.unit()
        return self._amplitude(), unit.e_incoh**2, abs(unit.e_coh) ** 2

    def moment_table(self, m: int, n: int) -> np.ndarray:
        """Phase-averaged w(a, b) / a^(a+b) for a <= m minus and b <= n plus slots.

        w(a, b) = sum_t C(a,t) C(b,t) |E_incoh|^(2t) E_coh*^(a-t) E_coh^(b-t);
        only balanced incoherent powers survive the phase average, and the
        table is conjugate-symmetric under swapping a and b.
        """
        unit = self.unit()
        ec, ei2 = unit.e_coh, unit.e_incoh**2
        table = np.zeros((m + 1, n + 1), dtype=complex)
        for a in range(m + 1):
            for b in range(n + 1):
                table[a, b] = sum(
                    math.comb(a, t) * math.comb(b, t) * ei2**t
                    * ec.conjugate() ** (a - t) * ec ** (b - t)
                    for t in range(min(a, b) + 1)
                )
        return table


Emitter = SingleAtomState | ClassicalEmitterModel


def classical_model_for_ratio(r: float, e_incoh: float = 1.0) -> ClassicalEmitterModel:
    """Model with |E_coh|^2 / |E_incoh|^2 = r and a real coherent amplitude."""
    if r < 0.0:
        raise ValueError("ratio must be non-negative")
    return ClassicalEmitterModel(e_coh=e_incoh * math.sqrt(r), e_incoh=e_incoh)


def classical_model_from_config(cfg: dict) -> ClassicalEmitterModel:
    if cfg.get("kind") != "classical":
        raise ValueError(f"expected classical model config, got kind {cfg.get('kind')!r}")
    return ClassicalEmitterModel(
        e_coh=complex(float(cfg.get("e_coh_re", 0.0)), float(cfg.get("e_coh_im", 0.0))),
        e_incoh=float(cfg["e_incoh"]),
    )
