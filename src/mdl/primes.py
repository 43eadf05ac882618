"""Segmented prime generation and von Mangoldt weights.

The sieve is a classical odd-only segmented sieve of Eratosthenes (Bays
and Hudson, BIT 17, 1977) on bytearray segments, so memory stays bounded
by the segment size regardless of the limit.  Composites are cleared by
slice assignment and primes read out with itertools.compress, so the
sieve needs no dependency.  Streams are emitted in strictly increasing
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .errors import PreconditionError, ResourceGuardError

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
        if not isinstance(self.limit, int):
            raise PreconditionError(f"limit must be an int, got {self.limit!r}")
        if self.limit < 2:
            raise PreconditionError(f"limit must be >= 2, got {self.limit}")
        if self.limit > SIEVE_GUARD:
            raise ResourceGuardError(
                f"sieve limit {self.limit} exceeds the sieve guard {SIEVE_GUARD}"
            )


def _odd_sieve(low: int, high: int, odd_primes: Iterable[int]) -> Iterator[int]:
    """The odd primes in [low, high), for odd low >= 3.

    odd_primes must hold every odd prime <= sqrt(high); their odd
    multiples from p*p on are cleared from a mask of the odd numbers.
    """
    count = (high - low + 1) // 2
    mask = bytearray(b"\x01") * count
    for p in odd_primes:
        start = max(p * p, (low + p - 1) // p * p)
        if start % 2 == 0:
            start += p
        i = (start - low) // 2
        mask[i::p] = bytes(len(range(i, count, p)))
    return compress(range(low, high, 2), mask)


def _base_primes(limit: int) -> list[int]:
    """Every prime <= limit (the base primes <= sqrt(X)), sieved from its own base."""
    if limit < 2:
        return []
    return [2, *_odd_sieve(3, limit + 1, _base_primes(math.isqrt(limit))[1:])]


def primes_up_to(prime_range: PrimeRange) -> Iterator[int]:
    """Stream every prime <= limit exactly once, in increasing order.

    The sieve runs segment by segment; only one segment mask is alive at
    a time.
    """
    limit = prime_range.limit
    odd_base = _base_primes(math.isqrt(limit))[1:]
    yield from (p for p in (2, 3) if p <= limit)

    low = 5
    span = 2 * SEGMENT_SIZE  # SEGMENT_SIZE odd numbers per segment
    while low <= limit:
        yield from _odd_sieve(low, min(low + span, limit + 1), odd_base)
        low += span


def _higher_powers(limit: int) -> list[tuple[int, float]]:
    """All (p**k, log p) with p**k <= limit and k >= 2, sorted by p**k."""
    out: list[tuple[int, float]] = []
    for p in _base_primes(math.isqrt(limit)):
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
    memory stays bounded by the segment size; the powers left over after
    the last prime (limit 4 or 64, say) close the stream.
    """
    log = math.log
    limit = prime_range.limit
    powers = [*_higher_powers(limit), (limit + 1, 0.0)]  # the last is a sentinel
    i, next_power = 0, powers[0][0]
    for p in primes_up_to(prime_range):
        while next_power < p:
            yield powers[i]
            i += 1
            next_power = powers[i][0]
        yield p, log(p)
    yield from powers[i:-1]
