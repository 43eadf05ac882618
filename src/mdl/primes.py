"""Segmented prime generation and von Mangoldt weights.

The sieve is a classical odd-only segmented sieve of Eratosthenes (Bays
and Hudson, BIT 17, 1977) on bytearray segments, so memory stays bounded
by the segment size regardless of the limit.  Composites are cleared by
slice assignment and primes read out with itertools.compress, so the
sieve needs no dependency.  Streams are emitted in strictly increasing
order, in lists of at most _BATCH primes each: the residue engine and its
consumers loop over a list, not one generator hop per prime, while memory
stays bounded by one segment and one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, islice
from typing import Iterable, Iterator

from .errors import PreconditionError, ResourceGuardError

__all__ = [
    "PrimeRange",
    "SIEVE_GUARD",
    "prime_batches",
    "primes_up_to",
    "mangoldt_batches",
    "mangoldt_terms",
]

SEGMENT_SIZE = 1 << 20  # odd numbers per sieve segment
_BATCH = 1 << 11  # items per list at most; 2^14 put a child's peak over 20 MB
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


def prime_batches(prime_range: PrimeRange) -> Iterator[list[int]]:
    """Every prime <= limit once, ascending, in non-empty lists of at most _BATCH.

    The sieve runs segment by segment; only one segment mask is alive at a time.
    """
    limit = prime_range.limit
    odd_base = _base_primes(math.isqrt(limit))[1:]
    span = 2 * SEGMENT_SIZE  # SEGMENT_SIZE odd numbers per segment
    segments = (_odd_sieve(low, min(low + span, limit + 1), odd_base)
                for low in range(5, limit + 1, span))
    primes = chain([p for p in (2, 3) if p <= limit], chain.from_iterable(segments))
    while batch := list(islice(primes, _BATCH)):
        yield batch


def primes_up_to(prime_range: PrimeRange) -> Iterator[int]:
    """Every prime <= limit exactly once, in increasing order: prime_batches, flat."""
    return chain.from_iterable(prime_batches(prime_range))


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


def mangoldt_batches(prime_range: PrimeRange) -> Iterator[tuple[list[int], list[float]]]:
    """Every n <= limit with nonzero von Mangoldt weight, as batches (ns, weights).

    The n = p**k ascend within and across batches, each with weight log p.
    A batch of primes takes in the (few) higher powers below its last prime,
    placed by bisect; those after the last prime (limit 4 or 64, say) close
    the stream as one more batch.
    """
    powers = _higher_powers(prime_range.limit)
    i = 0
    for ns in prime_batches(prime_range):
        weights = list(map(math.log, ns))
        while i < len(powers) and powers[i][0] < ns[-1]:
            n, weight = powers[i]
            k = bisect_left(ns, n)
            ns.insert(k, n)
            weights.insert(k, weight)
            i += 1
        yield ns, weights
    if i < len(powers):
        yield [n for n, _ in powers[i:]], [weight for _, weight in powers[i:]]


def mangoldt_terms(prime_range: PrimeRange) -> Iterator[tuple[int, float]]:
    """Every (n, log p) of mangoldt_batches, flat, by n."""
    return chain.from_iterable(zip(*batch) for batch in mangoldt_batches(prime_range))
