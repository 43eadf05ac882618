"""Segmented prime generation and von Mangoldt weights.

The sieve is a classical odd-only segmented sieve of Eratosthenes backed
by numpy boolean segments, so memory stays bounded by the segment size
regardless of the limit.  Streams are emitted in strictly increasing
order.  numpy is imported by the sieve functions when they run, so
importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import PreconditionError, ResourceGuardError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PrimeRange",
    "SIEVE_GUARD",
    "primes_up_to",
    "mangoldt_terms",
]

SEGMENT_SIZE = 1 << 20  # odd numbers per sieve segment
SIEVE_GUARD = 10**9  # largest sieve limit


@dataclass(frozen=True)
class PrimeRange:
    """Enumeration range [2, limit]; every sieve is checked against SIEVE_GUARD here."""

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise PreconditionError(f"limit must be >= 2, got {self.limit}")
        if self.limit > SIEVE_GUARD:
            raise ResourceGuardError(
                f"sieve limit {self.limit} exceeds the sieve guard {SIEVE_GUARD}"
            )


def _base_primes(limit: int) -> np.ndarray:
    """Plain sieve up to limit (used for the base primes <= sqrt(X))."""
    import numpy as np

    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def primes_up_to(prime_range: PrimeRange) -> Iterator[int]:
    """Stream every prime <= limit exactly once, in increasing order.

    The sieve runs segment by segment; only one segment mask is alive at
    a time.
    """
    import numpy as np

    limit = prime_range.limit
    base = _base_primes(math.isqrt(limit))
    odd_base = base[base > 2]
    yield from (p for p in (2, 3) if p <= limit)

    low = 5
    span = 2 * SEGMENT_SIZE  # SEGMENT_SIZE odd numbers per segment
    while low <= limit:
        high = min(low + span, limit + 1)
        if high % 2 == 0:
            high += 1  # keep [low, high) aligned on odd numbers
        count = (high - low + 1) // 2
        mask = np.ones(count, dtype=bool)
        for p in odd_base:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= high:
                continue
            mask[(start - low) // 2 :: p] = False
        primes = low + 2 * np.flatnonzero(mask).astype(np.int64)
        primes = primes[primes <= limit]  # rebinding frees the unfiltered array
        yield from primes.tolist()
        low += span


def _higher_powers(limit: int) -> list[tuple[int, float]]:
    """All (p**k, log p) with p**k <= limit and k >= 2, sorted by p**k."""
    out: list[tuple[int, float]] = []
    for p in _base_primes(math.isqrt(limit)).tolist():
        weight = math.log(p)
        n = p * p
        while n <= limit:
            out.append((n, weight))
            n *= p
    out.sort()
    return out


def mangoldt_terms(prime_range: PrimeRange) -> Iterator[tuple[int, float]]:
    """Stream every n <= limit with nonzero von Mangoldt weight, by n.

    Emits the pair (n, log p) for each prime power n = p**k.  The prime
    stream is merged with the (short) sorted list of higher powers, so
    memory stays bounded by the segment size; every n occurs once, so the
    merge never compares weights.
    """
    primes = ((p, math.log(p)) for p in primes_up_to(prime_range))
    yield from heapq.merge(primes, _higher_powers(prime_range.limit))
