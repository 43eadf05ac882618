"""Exact power-sum collision counts over boxes [1, P]^(2r).

The central quantity is the number of 2r-tuples (n_1..n_r, m_1..m_r) in
[1, P]^(2r) whose first k power sums agree: sum n_i^j = sum m_i^j for
j = 1..k.  Counting enumerates only the P^r left tuples, groups them by
their power-sum vector, and sums squared multiplicities; the fully naive
double loop survives in the test suite as an independent oracle.  All
power sums are exact big integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import PreconditionError, ResourceGuardError

__all__ = [
    "ENUMERATION_GUARD",
    "VmvtInstance",
    "vmvt_count",
    "monotonicity_check",
    "ford_bound_log",
]

ENUMERATION_GUARD = 10**8  # maximum number of left tuples P^r


@dataclass(frozen=True)
class VmvtInstance:
    """One counted instance: box parameters and the exact solution count."""

    r: int
    k: int
    P: int
    count: int

    def __post_init__(self) -> None:
        if min(self.r, self.k, self.P) < 1:
            raise PreconditionError("r, k, P must all be >= 1")
        # diagonal tuples alone give P^r solutions; P^(2r) is everything
        if not self.P**self.r <= self.count <= self.P ** (2 * self.r):
            raise PreconditionError(
                f"count {self.count} outside [P^r, P^(2r)] for r={self.r}, P={self.P}"
            )


def _check_guard(r: int, k: int, P: int) -> None:
    if min(r, k, P) < 1:
        raise PreconditionError(f"r, k, P must all be >= 1, got {r}, {k}, {P}")
    if r * math.log(P) > math.log(ENUMERATION_GUARD) + 1e-9 or P**r > ENUMERATION_GUARD:
        raise ResourceGuardError(
            f"P^r = {P}^{r} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )


def vmvt_count(r: int, k: int, P: int) -> VmvtInstance:
    """Exact count of power-sum collisions in [1, P]^(2r) for exponents 1..k.

    Enumerates the P^r left tuples, grouping them by power-sum vector, and
    returns the sum of squared multiplicities.  Raises ResourceGuardError
    when P^r exceeds the enumeration guard.
    """
    _check_guard(r, k, P)
    powers = {n: tuple(n**j for j in range(1, k + 1)) for n in range(1, P + 1)}
    counts: dict[tuple[int, ...], int] = {}
    for head in powers.values():
        for rest in product(range(1, P + 1), repeat=r - 1):
            key = head
            for n in rest:
                pn = powers[n]
                key = tuple(key[j] + pn[j] for j in range(k))
            counts[key] = counts.get(key, 0) + 1
    total = sum(mult * mult for mult in counts.values())
    return VmvtInstance(r, k, P, total)


def monotonicity_check(r: int, k: int, P: int) -> bool:
    """Whether adding one variable pair grows the count by at most P^2.

    Compares the exact counts at r+1 and r via integer arithmetic; both
    instances must pass the enumeration guard.
    """
    wider = vmvt_count(r + 1, k, P)
    base = vmvt_count(r, k, P)
    return wider.count <= P * P * base.count


def ford_bound_log(r: int, k: int, P: int) -> float:
    """Natural log of the reference upper bound k^(3k^3) * P^(2r - k(k+1)/2 + k^2/1000).

    Valid only in the regime k >= 129 and 2k^2 <= r <= 4k^2, far beyond
    exhaustive counting, so this is a pure formula evaluation and is never
    compared against an enumerated count.
    """
    if k < 129:
        raise PreconditionError(f"k must be >= 129, got {k}")
    if not 2 * k * k <= r <= 4 * k * k:
        raise PreconditionError(
            f"r must lie in [2k^2, 4k^2] = [{2 * k * k}, {4 * k * k}], got {r}"
        )
    if P < 1:
        raise PreconditionError(f"P must be >= 1, got {P}")
    exponent = 2 * r - k * (k + 1) // 2 + k * k / 1000.0
    return 3 * k**3 * math.log(k) + exponent * math.log(P)
