"""The structure-factor cumulant engine behind every general-direction G.

With one marker x_i per operator slot (x_i^2 = 0), atom mu contributes
sum_T w(a(T), b(T)) exp(2 pi i K_T . R_mu) x^T: a(T), b(T) count the minus
and plus slots of mask T, w is the single-emitter moment table, and K_T adds
+k_i per minus slot and -k_j per plus slot.  Its square-free log is the same
sum with w replaced by lambda, the log of sum_T w x^T, so the atom product is
exp(sum_T lambda_T S(K_T) x^T) and G, its all-slots coefficient, is the
moment-cumulant sum over set partitions of the slots of prod_B lambda_B
S(K_B).  The atoms enter only through S, the state only through lambda.
"""

from __future__ import annotations

import math

import numpy as np

_ATOM_CHUNK = 4096


def backend() -> str:
    """Name of the evaluation engine, recorded in run metadata."""
    return "numpy"


def structure_factor_table(positions: np.ndarray, vectors: np.ndarray, m: int) -> np.ndarray:
    """S(K_T) for every slot mask T (minus slots first in ``vectors``); entry 0 is N.

    Each atom costs s exps, and mask T one multiply of the term of T without
    its highest slot.  Atoms go in chunks of ``_ATOM_CHUNK``, so no (N, 2^s)
    array is held.
    """
    signed = np.array(vectors, dtype=float)
    signed[m:] *= -1.0
    s = signed.shape[0]
    total = np.zeros(1 << s, dtype=complex)
    for start in range(0, positions.shape[0], _ATOM_CHUNK):
        z = np.exp(2j * math.pi * (signed @ positions[start : start + _ATOM_CHUNK].T))
        terms = np.empty((1 << s, z.shape[1]), dtype=complex)
        terms[0] = 1.0
        for i in range(s):
            np.multiply(terms[: 1 << i], z[i], out=terms[1 << i : 2 << i])
        total += terms.sum(axis=1)
    return total


def _block_sum(a: list, b: list, t: int) -> complex:
    """sum a_U b_(T \\ U) over the blocks U of mask T that hold T's lowest slot."""
    low = t & -t
    rest = t ^ low
    total = 0j
    sub = rest
    while True:
        if a[sub | low]:
            total += a[sub | low] * b[rest ^ sub]
        if sub == 0:
            return total
        sub = (sub - 1) & rest


def squarefree_exp(coeffs) -> np.ndarray:
    """Square-free exponential: e_T sums prod_B c_B over the set partitions of T.

    Splitting off the block that holds T's lowest slot gives
    e_T = sum_U c_U e_(T \\ U); the constant term of ``coeffs`` is ignored.
    """
    c = [complex(v) for v in coeffs]
    e = [1.0 + 0j] + [0j] * (len(c) - 1)
    for t in range(1, len(c)):
        e[t] = _block_sum(c, e, t)
    return np.array(e)


def squarefree_log(coeffs) -> np.ndarray:
    """Square-free log of a polynomial with constant term 1; inverts squarefree_exp.

    w_T = sum_U l_U w_(T \\ U) holds l_T w_0 = l_T in its U = T term.
    """
    w = [complex(v) for v in coeffs]
    log = [0j] * len(w)
    for t in range(1, len(w)):
        log[t] = w[t] - _block_sum(log, w, t)  # log[t] is still 0 here
    return np.array(log)


def partition_sum(table: np.ndarray, s_table: np.ndarray, m: int) -> complex:
    """G from the moment table w(a, b) and the structure factors of every slot mask.

    The all-slots coefficient of exp(sum_T lambda_T S(K_T) x^T), lambda the
    square-free log of w(a(T), b(T)); ``table[0, 0]`` must be 1.
    """
    minus = (1 << m) - 1
    w = [table[(t & minus).bit_count(), (t >> m).bit_count()] for t in range(len(s_table))]
    return complex(squarefree_exp(squarefree_log(w) * s_table)[-1])
