"""Exact counting primitives behind the closed-form correlators.

Everything here is integer arithmetic (Python ints, hence arbitrary
precision): permutation-induced pair partitions, integer partitions,
Stirling numbers of the first kind, falling factorials, and the
phase-cancellation count for classical oscillators.  Conversion to floating
point happens only inside the correlator normalizations, never here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapacityError

DEFAULT_ORDER_CAP = 8


@dataclass(frozen=True)
class IntegerPartition:
    """A partition of ``total`` encoded by part multiplicities.

    ``multiplicities[k]`` is the number of parts equal to ``k + 1``, so
    ``sum((k + 1) * r for k, r in enumerate(multiplicities)) == total``.
    """

    total: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.multiplicities):
            raise ValueError("part multiplicities must be non-negative")
        weight = sum((k + 1) * r for k, r in enumerate(self.multiplicities))
        if weight != self.total:
            raise ValueError(
                f"multiplicities sum to {weight}, declared total is {self.total}"
            )

    @property
    def num_parts(self) -> int:
        """Number of parts, usually written l(lambda)."""
        return sum(self.multiplicities)

    def parts(self) -> tuple[int, ...]:
        """Parts in descending order, e.g. (2, 1, 1)."""
        out = []
        for k in range(len(self.multiplicities) - 1, -1, -1):
            out.extend([k + 1] * self.multiplicities[k])
        return tuple(out)

    @classmethod
    def from_parts(cls, parts) -> "IntegerPartition":
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        total = sum(parts)
        mult = [0] * (max(parts) if parts else 0)
        for p in parts:
            mult[p - 1] += 1
        return cls(total=total, multiplicities=tuple(mult))

    def __str__(self) -> str:
        inner = ",".join(
            f"{k + 1}^{r}" for k, r in enumerate(self.multiplicities) if r > 0
        )
        return f"({inner})" if inner else "()"


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of slots {1..m} against slots {m+1..2m}.

    Each pair is (i, j) with i a minus-frequency slot and j the plus-frequency
    slot matched to it; the matching is induced by a permutation of the
    plus-slot block.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = len(self.pairs)
        firsts = [p[0] for p in self.pairs]
        seconds = sorted(p[1] for p in self.pairs)
        if firsts != list(range(1, m + 1)):
            raise ValueError("first elements must be 1..m in order")
        if len(set(seconds)) != m:
            raise ValueError("second elements must be distinct")


def enumerate_pair_partitions(m: int) -> Iterator[PairPartition]:
    """All m! pairings of {1..m} with the plus slots m+1..2m, in lexicographic order.

    ``m == 0`` yields nothing; ``m > DEFAULT_ORDER_CAP`` raises
    :class:`CapacityError` since the output grows factorially.
    """
    if m < 0:
        raise ValueError("order m must be non-negative")
    if m == 0:
        return
    if m > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"pair-partition enumeration capped at m <= {DEFAULT_ORDER_CAP}, got {m}"
        )
    for perm in itertools.permutations(range(m + 1, 2 * m + 1)):
        yield PairPartition(tuple((i + 1, perm[i]) for i in range(m)))


def enumerate_integer_partitions(j: int) -> Iterator[IntegerPartition]:
    """All partitions of j, in lexicographic order of descending part tuples.

    The count matches the partition function p(j); p(0) = 1 via the empty
    partition.
    """
    if j < 0:
        raise ValueError("partition size must be non-negative")

    def _descending(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(largest, remaining), 0, -1):
            acc.append(part)
            yield from _descending(remaining - part, part, acc)
            acc.pop()

    for parts in _descending(j, j, []):
        if parts:
            yield IntegerPartition.from_parts(parts)
        else:
            yield IntegerPartition(total=0, multiplicities=())


@lru_cache(maxsize=None)
def stirling_first(m: int, l: int) -> int:
    """Signed Stirling number of the first kind.

    Coefficient of N^l in the falling factorial N(N-1)...(N-m+1); the sign is
    (-1)^(m-l).  Defined here directly from the falling-factorial recurrence,
    which is unambiguous.
    """
    if m < 0 or l < 0:
        raise ValueError("arguments must be non-negative")
    if l > m:
        raise ValueError(f"l={l} exceeds m={m}")
    if m == 0:
        return 1 if l == 0 else 0
    if l == 0:
        return 0
    # N(N-1)...(N-m+1) = (N - (m-1)) * [falling factorial of order m-1]
    same_degree = stirling_first(m - 1, l) if l <= m - 1 else 0
    return stirling_first(m - 1, l - 1) - (m - 1) * same_degree


def falling_factorial(n: int, m: int) -> int:
    """N(N-1)...(N-m+1); zero when m > N, one when m == 0."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    return math.perm(n, m)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n, including for negative n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def configuration_count_B(partition: IntegerPartition, n: int) -> int:
    """Distinct atom-label assignments realizing the multiplicity pattern.

    N! / [(N - l(lambda))! * prod_k r_k!]; zero when the partition needs more
    distinct labels than there are atoms.
    """
    if n < 0:
        raise ValueError("atom count must be non-negative")
    l = partition.num_parts
    if l > n:
        return 0
    denom = math.prod(math.factorial(r) for r in partition.multiplicities)
    return falling_factorial(n, l) // denom


def permutation_count_P(partition: IntegerPartition) -> int:
    """Orderings of one index multiset with the given multiplicities.

    j! / prod_k (k!)^(r_k).
    """
    denom = math.prod(
        math.factorial(k + 1) ** r for k, r in enumerate(partition.multiplicities)
    )
    return math.factorial(partition.total) // denom


def classical_count_C(j: int, n: int) -> int:
    """Number of index tuples whose random phases cancel.

    Counts pairs of j-tuples (mu, nu) over N atoms that agree as multisets;
    this is the combinatorial weight of the order-j incoherent term in the
    classical intensity moments.  C(0, N) = 1.
    """
    if j < 0:
        raise ValueError("order must be non-negative")
    if n < 1:
        raise ValueError("atom count must be positive")
    total = 0
    for lam in enumerate_integer_partitions(j):
        total += configuration_count_B(lam, n) * permutation_count_P(lam) ** 2
    return total
