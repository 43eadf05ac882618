"""Segmented prime generation and von Mangoldt weights.

The sieve is a classical odd-only segmented sieve of Eratosthenes (Bays
and Hudson, BIT 17, 1977) on bytearray segments, so memory stays bounded
by the segment size regardless of the limit.  Composites are cleared by
slice assignment and primes read out with itertools.compress over the
candidates 6k + 1 and 6k + 5 alone, so the sieve needs no dependency; the
base primes up to sqrt(limit) come from the same sieve and read-out, run
to that smaller limit.  Streams come in one list per block of BLOCK_WIDTH
consecutive integers, ascending.  The block is the one grouping of the
residue pipeline: it bounds the memory each list takes, and it is the
summation block of the exponential sums, so their order, and every bit of
their results, is fixed here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, compress
from typing import Iterable, Iterator

from .arith import _check_int
from .errors import ResourceGuardError

__all__ = [
    "PrimeRange",
    "SIEVE_GUARD",
    "prime_batches",
    "primes_up_to",
    "mangoldt_batches",
    "mangoldt_terms",
]

BLOCK_WIDTH = 1 << 16  # integers per batch and per summation block
SEGMENT_SIZE = 1 << 21  # integers per sieve segment, a multiple of BLOCK_WIDTH
SIEVE_GUARD = 10**9  # largest sieve limit


class PrimeRange(namedtuple("PrimeRange", "limit")):
    """Enumeration range [2, limit]; every sieve is checked against SIEVE_GUARD here."""

    __slots__ = ()

    def __new__(cls, limit: int) -> PrimeRange:
        _check_int("limit", limit, least=2)
        if limit > SIEVE_GUARD:
            raise ResourceGuardError(
                f"sieve limit {limit} exceeds the sieve guard {SIEVE_GUARD}"
            )
        return super().__new__(cls, limit)


def _odd_mask(low: int, high: int, odd_primes: Iterable[int]) -> bytearray:
    """1 at index i when low + 2i + 1 is prime, for the odd numbers in [low, high).

    low is even and >= 0.  odd_primes must hold every odd prime <= sqrt(high);
    their odd multiples from p*p on are cleared, and so is 1.
    """
    count = (high - low) // 2
    mask = bytearray(b"\x01") * count
    if low == 0:
        mask[0] = 0
    for p in odd_primes:
        start = max(p * p, (low + p - 1) // p * p)
        if start % 2 == 0:
            start += p
        i = (start - low) // 2
        mask[i::p] = bytearray(len(range(i, count, p)))
    return mask


def _base_primes(limit: int) -> list[int]:
    """Every prime <= limit (the base primes <= sqrt(X)), from the same sieve."""
    return list(primes_up_to(PrimeRange(limit))) if limit >= 2 else []


def prime_batches(prime_range: PrimeRange) -> Iterator[list[int]]:
    """Every prime <= limit once, as one ascending list per block of BLOCK_WIDTH.

    List b holds the primes in [b * BLOCK_WIDTH, (b + 1) * BLOCK_WIDTH), for
    every block up to the limit's; the last list may be empty.  Each block is
    read out of its segment's mask one class, 6k + 1 or 6k + 5, at a time,
    and the mask is released before the next segment is sieved.
    """
    limit = prime_range.limit
    odd_base = _base_primes(math.isqrt(limit))[1:]
    for low in range(0, limit + 1, SEGMENT_SIZE):
        high = min(low + SEGMENT_SIZE, limit + 1)
        mask = _odd_mask(low, high, odd_base)
        for start in range(low, high, BLOCK_WIDTH):
            primes, stop = [], (start + BLOCK_WIDTH - low) // 2  # the block's end in mask
            for first in (start + (1 - start) % 6, start + (5 - start) % 6):
                primes += compress(range(first, high, 6), mask[(first - low) // 2:stop:3])
            primes.sort()  # one merge of the two ascending runs
            yield [p for p in (2, 3) if p <= limit] + primes if start == 0 else primes
        del mask  # one segment's mask at a time


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
    """Every n <= limit with nonzero von Mangoldt weight, as (ns, weights), one per block.

    Batch b holds the n = p**k in block b of prime_batches, ascending, each
    with weight log p: the block's primes, with its (few) higher powers
    placed among them by bisect.
    """
    powers = _higher_powers(prime_range.limit)
    i = 0
    for block, ns in enumerate(prime_batches(prime_range)):
        weights = list(map(math.log, ns))
        while i < len(powers) and powers[i][0] < (block + 1) * BLOCK_WIDTH:
            n, weight = powers[i]
            k = bisect_left(ns, n)
            ns.insert(k, n)
            weights.insert(k, weight)
            i += 1
        yield ns, weights


def mangoldt_terms(prime_range: PrimeRange) -> Iterator[tuple[int, float]]:
    """Every (n, log p) of mangoldt_batches, flat, by n."""
    return chain.from_iterable(zip(*batch) for batch in mangoldt_batches(prime_range))
