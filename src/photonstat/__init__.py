"""Photon statistics of independent two-level emitters and classical oscillators.

Computes correlation functions g^(m,n) of arbitrary order for product-state
ensembles, their Gaussian-moment-theorem predictions, the finite-size and
spin-coherence deviations between the two, and the admissibility conditions
that decide when the light is effectively thermal.
"""

from .classical import (
    classical_exact_G,
    classical_forward_g,
    classical_forward_g_unequal,
    classical_mc_G,
)
from .combinatorics import (
    IntegerPartition,
    PairPartition,
    classical_count_C,
    configuration_count_B,
    enumerate_integer_partitions,
    enumerate_pair_partitions,
    falling_factorial,
    permutation_count_P,
    stirling_first,
)
from .ensemble import Ensemble, random_cloud, structure_factor
from .errors import (
    CapacityError,
    ConfigError,
    PhotonstatError,
    ValidationFailure,
    ZeroIntensityError,
)
from .gmt import (
    DeviationReport,
    check_conditions,
    classical_taylor_forward,
    deviation,
    deviation_N_closed_form,
    gmt_predict,
    leading_unequal,
    taylor_forward_equal,
    taylor_offaxis_coh,
)
from .quantum import (
    CorrelationOrder,
    CorrelationResult,
    correlate,
    forward_G_equal,
    forward_G_unequal,
    multilinear_G,
    normalize,
    oracle_G,
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
