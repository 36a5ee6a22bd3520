"""Reference values for the benchmark's correctness checks.

Everything here is computed apart from photonstat: no function of the
package is called.  The formulas are the ones the paper states, evaluated
along a different route from the program's:

* ``correlator_G``: the moment-cumulant (Leonov-Shiryaev) sum over set
  partitions of the slots, each block contributing a single-emitter joint
  cumulant times the structure factor of the block's summed wave vector.
  The program multiplies one factor polynomial per atom instead.
* ``autocorrelation_delta``: the spin-coherence deviation g(c = 0) - g at one
  observation direction, from the power sums S(d k) with all further
  arithmetic in mpmath at ``MP_DIGITS`` significant digits.
* ``forward_g``: the forward-direction correlator as an exact multinomial
  sum, evaluated in mpmath.
* ``gmt_pair_sum``, ``delta_n_closed_form``, ``condition_margins``: the
  pair-partition prediction, the m = 2, 3 finite-size closed forms and the
  admissibility conditions, written out from their definitions.

Conventions match the package's public contract: positions in wavelengths,
wave vectors in units of 2 pi / lambda, a phase is exp(2 pi i k . r); the
first m slots are minus-frequency (E-) slots, the last n plus-frequency.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import mpmath
import numpy as np

MP_DIGITS = 40
TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------- geometry


def structure_factors(positions: np.ndarray, vectors) -> np.ndarray:
    """S(K) = sum_mu exp(2 pi i K . r_mu) for each row K, with fsum accumulation.

    One K at a time, so that the check adds little to the process's peak memory.
    """
    pos = np.asarray(positions, dtype=float)
    out = []
    for kvec in np.atleast_2d(np.asarray(vectors, dtype=float)):
        phase = TWO_PI * (pos @ kvec)
        out.append(complex(math.fsum(np.cos(phase)), math.fsum(np.sin(phase))))
    return np.array(out)


def mp_power_sums(positions: np.ndarray, k, d_max: int) -> list:
    """[S(0), S(k), ..., S(d_max k)] with every phase evaluated in mpmath."""
    kx, ky, kz = (mpmath.mpf(float(v)) for v in k)
    two_pi = 2 * mpmath.pi
    sums = [mpmath.mpc(0)] * (d_max + 1)
    for x, y, z in np.asarray(positions, dtype=float).tolist():
        base = mpmath.expj(two_pi * (kx * x + ky * y + kz * z))
        power = mpmath.mpc(1)
        for d in range(d_max + 1):
            sums[d] += power
            power *= base
    return sums


# ------------------------------------------------------- single emitters


def quantum_moment(p: float, c: complex):
    """w(a, b) of a two-level atom: 1, <s+>, <s->, <s+ s->, else 0."""
    table = {(0, 0): 1.0, (1, 0): complex(c).conjugate(), (0, 1): complex(c), (1, 1): p}
    return lambda a, b: table.get((a, b), 0.0)


def classical_moment(e_coh: complex, e_incoh: float):
    """w(a, b) = <(Ec* + Ei e^-i phi)^a (Ec + Ei e^i phi)^b> over a uniform phase.

    The average of a trigonometric polynomial of degree a + b is exact on
    a + b + 1 equally spaced phases, so no binomial expansion is needed.
    """
    e_coh = complex(e_coh)

    @lru_cache(maxsize=None)
    def w(a: int, b: int) -> complex:
        pts = a + b + 1
        total = 0.0 + 0.0j
        for q in range(pts):
            u = complex(math.cos(TWO_PI * q / pts), math.sin(TWO_PI * q / pts))
            total += (e_coh.conjugate() + e_incoh * u.conjugate()) ** a * (
                e_coh + e_incoh * u
            ) ** b
        return total / pts

    return w


# ------------------------------------------------- moment-cumulant formula


@lru_cache(maxsize=None)
def set_partitions(mask: int) -> tuple:
    """All set partitions of the bits of ``mask``, each a tuple of block masks."""
    if mask == 0:
        return ((),)
    low = mask & -mask
    rest = mask ^ low
    out = []
    sub = rest
    while True:
        for tail in set_partitions(rest ^ sub):
            out.append((low | sub,) + tail)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return tuple(out)


def _shape(block: int, m: int) -> tuple[int, int]:
    minus = (1 << m) - 1
    return (block & minus).bit_count(), (block >> m).bit_count()


def block_cumulants(w, m: int, n: int) -> dict:
    """Joint cumulant of a block with a minus- and b plus-slots, for a <= m, b <= n.

    Moment-cumulant inversion over set partitions of the block:
    kappa = sum_pi (-1)^(|pi|-1) (|pi|-1)! prod_(B in pi) w(B).
    """
    lam = {}
    for a in range(m + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            total = 0.0 + 0.0j
            for part in set_partitions((1 << (a + b)) - 1):
                k = len(part)
                term = (-1) ** (k - 1) * math.factorial(k - 1)
                for blk in part:
                    term *= w(*_shape(blk, a))
                total += term
            lam[(a, b)] = total
    return lam


def block_vectors(vectors: np.ndarray, m: int) -> np.ndarray:
    """K_B = sum of minus-slot k minus sum of plus-slot k, for every mask B."""
    vecs = np.asarray(vectors, dtype=float)
    s = vecs.shape[0]
    signs = np.array([1.0] * m + [-1.0] * (s - m))
    out = np.zeros((1 << s, 3))
    for mask in range(1, 1 << s):
        idx = [i for i in range(s) if mask >> i & 1]
        out[mask] = (signs[idx, None] * vecs[idx]).sum(axis=0)
    return out


def correlator_G(s_table: np.ndarray, m: int, n: int, w) -> tuple[complex, float]:
    """G = sum over set partitions of the slots of prod_B lambda_B S(K_B).

    ``s_table[mask]`` holds S(K_mask) as from :func:`block_vectors`.  Returns
    G and the sum of the terms' magnitudes, the scale of G's rounding error.
    """
    lam = block_cumulants(w, m, n)
    terms = []
    for part in set_partitions((1 << (m + n)) - 1):
        term = 1.0 + 0.0j
        for blk in part:
            term *= lam[_shape(blk, m)] * s_table[blk]
        terms.append(term)
    return (
        complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)),
        math.fsum(abs(t) for t in terms),
    )


def normalized(raw: complex, intensities) -> complex:
    return raw / math.prod(math.sqrt(v) for v in intensities)


def gmt_pair_sum(g1, m: int) -> complex:
    """Sum over the m! minus/plus pairings of prod g^(1)(k_i, k_(m + sigma(i)))."""
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(m)):
        term = 1.0 + 0.0j
        for i in range(m):
            term *= g1(i, m + perm[i])
        total += term
    return total


def delta_n_closed_form(s_of, nat: int, m: int) -> complex:
    """Finite-size deviation delta_N for m = n in {2, 3} from structure factors.

    ``s_of(minus_slots, plus_slots)`` returns S(sum k_minus - sum k_plus).
    """
    if m == 2:
        return 2.0 / nat**2 * s_of((0, 1), (2, 3))
    total = 0.0 + 0.0j
    for sig in itertools.permutations(range(3)):
        for sigp in itertools.permutations(range(3, 6)):
            total += s_of((sig[0],), (sigp[0],)) * s_of(sig[1:], sigp[1:])
    return total / (2.0 * nat**3) - 12.0 / nat**3 * s_of((0, 1, 2), (3, 4, 5))


# ------------------------------------------ autocorrelation at high precision


def _mp_series_mul(a, b, deg: int):
    out = [[mpmath.mpc(0)] * (deg + 1) for _ in range(deg + 1)]
    for i in range(deg + 1):
        for j in range(deg + 1):
            if a[i][j] == 0:
                continue
            for k in range(deg + 1 - i):
                for l in range(deg + 1 - j):
                    out[i + k][j + l] += a[i][j] * b[k][l]
    return out


def disjoint_pair_sums(power_sums, m: int) -> list:
    """F_r = sum over disjoint atom sets |A| = |B| = r of prod_A z prod_B conj(z).

    F_r = [x^r y^r] prod_mu (1 + z_mu x + conj(z_mu) y)
        = [x^r y^r] exp(sum c_ab S((a-b) k) x^a y^b),
    with c_ab = (-1)^(a+b+1) (a+b-1)! / (a! b!).  Returned for r = 0..m.
    """
    with mpmath.workdps(MP_DIGITS):
        def p_at(d):
            return power_sums[d] if d >= 0 else mpmath.conj(power_sums[-d])

        log = [[mpmath.mpc(0)] * (m + 1) for _ in range(m + 1)]
        for a in range(m + 1):
            for b in range(m + 1):
                if a + b:
                    coef = mpmath.mpf((-1) ** (a + b + 1) * math.factorial(a + b - 1)) / (
                        math.factorial(a) * math.factorial(b)
                    )
                    log[a][b] = coef * p_at(a - b)
        result = [[mpmath.mpc(0)] * (m + 1) for _ in range(m + 1)]
        result[0][0] = mpmath.mpc(1)
        power = [row[:] for row in result]
        for k in range(1, 2 * m + 1):
            power = _mp_series_mul(power, log, m)
            for i in range(m + 1):
                for j in range(m + 1):
                    result[i][j] += power[i][j] / math.factorial(k)
        return [result[r][r] for r in range(m + 1)]


def autocorrelation_delta(f_sums, power_sums, nat: int, m: int, ratio: float):
    """g(c = 0) - g for the pulse state of coherence ratio R at one direction k.

    With p = 1/(1+R), |c|^2 = R/(1+R)^2 and f = p - |c|^2, the correlator is
    G = (m!)^2 sum_j p^j |c|^(2(m-j)) C(N - 2(m-j), j) F_(m-j) and each slot
    intensity is f N + |c|^2 |S(k)|^2.  Returns an mpmath number.
    """
    with mpmath.workdps(MP_DIGITS):
        r = mpmath.mpf(ratio)
        p = 1 / (1 + r)
        c2 = r / (1 + r) ** 2
        f = p - c2
        fact2 = math.factorial(m) ** 2
        g_raw = fact2 * mpmath.fsum(
            p**j * c2 ** (m - j) * math.comb(nat - 2 * (m - j), j) * f_sums[m - j]
            for j in range(m + 1)
            if nat >= 2 * (m - j)
        )
        inten = f * nat + c2 * abs(power_sums[1]) ** 2
        g_zeroed = mpmath.mpf(fact2 * math.comb(nat, m)) / mpmath.mpf(nat) ** m
        return g_zeroed - g_raw / inten**m


# ---------------------------------------------------- forward direction


def forward_g(nat: int, m: int, n: int, ratio) -> mpmath.mpc:
    """|g^(m,n)(0..0)| for the pulse state of ratio R, as a multinomial sum.

    G = m! n! sum_j N! / (j! (m-j)! (n-j)! (N-m-n+j)!) p^j c+^(m-j) c-^(n-j),
    normalized by (N p + N (N-1) |c|^2)^((m+n)/2).  Returns an mpmath number.
    """
    with mpmath.workdps(MP_DIGITS):
        r = mpmath.mpf(ratio)
        p = 1 / (1 + r)
        c_abs = mpmath.sqrt(r) / (1 + r)
        total = mpmath.mpf(0)
        for j in range(min(m, n) + 1):
            if nat - m - n + j < 0:
                continue
            count = math.prod(range(nat - m - n + j + 1, nat + 1)) // (
                math.factorial(j) * math.factorial(m - j) * math.factorial(n - j)
            )
            total += count * p**j * c_abs ** (m + n - 2 * j)
        inten = nat * p + nat * (nat - 1) * c_abs**2
        return math.factorial(m) * math.factorial(n) * total / inten ** (mpmath.mpf(m + n) / 2)


def forward_g2(nat: int, r: float) -> float:
    """g^(2)(0) of the worked second-order example."""
    return (
        2 * nat * (nat - 1) + 4 * nat * (nat - 1) ** 2 * r + nat**2 * (nat - 1) ** 2 * r**2
    ) / (nat**2 * (1 + nat * r) ** 2)


def forward_g21(nat: int, r: float) -> float:
    """|g^(2,1)(0)| of the worked second-order example."""
    return (2 * nat * (nat - 1) + nat**2 * (nat - 1) * r) * math.sqrt(r) / (
        nat * (1 + nat * r)
    ) ** 1.5


# ------------------------------------------------------------ conditions


def condition_margins(nat: int, m: int, n: int, ratio: float) -> dict:
    """(lhs, rhs) of each admissibility condition, keyed by the CSV column stem."""
    if m == n:
        out = {"finite_n": (math.factorial(m) * m * (m - 1) / (2.0 * nat), 1.0)}
        if m > 1:
            out["spin_quadratic"] = (ratio**2, 4.0 / (nat**2 * m * (m - 1)))
            out["spin_linear"] = (ratio, 1.0 / (m * (nat - m + 1)))
        else:
            out["spin_quadratic"] = (0.0, 1.0)
            out["spin_linear"] = (0.0, 1.0)
        return out
    x = max(m, n)
    falling = math.prod(range(nat - x + 1, nat + 1))
    rhs = float(nat) ** x / float(falling) / (math.factorial(x) * math.sqrt(nat))
    return {"spin_sqrt": (math.sqrt(ratio), rhs)}
