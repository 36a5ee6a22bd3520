"""Kernel backend selection.

The compiled extension is preferred; the pure-Python implementation is the
fallback when the extension was not built.  Set PHOTONSTAT_PURE_PYTHON=1 to
force the fallback.
"""

from __future__ import annotations

import os

import numpy as np

from . import _kernels_py

_FORCED = os.environ.get("PHOTONSTAT_PURE_PYTHON", "") not in ("", "0")

if _FORCED:
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

accumulate_product = _impl.accumulate_product


def backend() -> str:
    return BACKEND


def available_backends() -> dict:
    """All importable implementations, keyed by name."""
    out = {"python": _kernels_py}
    try:
        from . import _kernels  # type: ignore[attr-defined]

        out["cython"] = _kernels
    except ImportError:
        pass
    return out


def squarefree_top_coefficient(factor_chunks, n_slots: int) -> complex:
    """Coefficient of the all-markers monomial in the product of all factors.

    ``factor_chunks`` yields (chunk_atoms, 2**n_slots) coefficient blocks.
    """
    size = 1 << n_slots
    state = np.zeros(size, dtype=complex)
    state[0] = 1.0
    for chunk in factor_chunks:
        accumulate_product(state, np.ascontiguousarray(chunk, dtype=complex))
    return complex(state[size - 1])
