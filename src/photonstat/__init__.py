"""Photon statistics of independent two-level emitters and classical oscillators.

Computes correlation functions g^(m,n) of arbitrary order for product-state
ensembles, their Gaussian-moment-theorem predictions, the finite-size and
spin-coherence deviations between the two, and the admissibility conditions
that decide when the light is effectively thermal.  The counting primitives
(:mod:`photonstat.combinatorics`) and the series forms
(:mod:`photonstat.gmt`) are reached through their modules.
"""

from .classical import classical_exact_G, classical_mc_G
from .ensemble import Ensemble, random_cloud, structure_factor
from .errors import (
    CapacityError,
    ConfigError,
    PhotonstatError,
    ValidationFailure,
    ZeroIntensityError,
)
from .gmt import DeviationReport, check_conditions, deviation, gmt_predict
from .quantum import (
    CorrelationOrder,
    CorrelationResult,
    correlate,
    multilinear_G,
    normalize,
    oracle_G,
    row_geometry,
    slot_table,
)
from .states import (
    ClassicalEmitterModel,
    SingleAtomState,
    driven_steady_state,
    pulse_state,
    state_from_moments,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
