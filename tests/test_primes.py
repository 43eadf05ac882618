"""Segmented sieve and von Mangoldt stream."""

from __future__ import annotations

import math
import tracemalloc
from collections import deque
from functools import cache

import pytest

import mdl.primes
from mdl.arith import is_prime
from mdl.digits import DigitCountReport, mersenne_residues
from mdl.errors import PreconditionError, ResourceGuardError
from mdl.expsum import mangoldt_exp_sum, mersenne_prime_sum
from mdl.primes import (
    BLOCK_WIDTH,
    SEGMENT_SIZE,
    SIEVE_GUARD,
    PrimeRange,
    _base_primes,
    _odd_mask,
    mangoldt_terms,
    prime_batches,
    primes_up_to,
)
from oracles import mangoldt_by_factoring, primes_by_trial_division


@cache
def _trial_primes() -> list[int]:
    """Every prime to 4 * BLOCK_WIDTH + 2 by trial division, computed once."""
    return primes_by_trial_division(4 * BLOCK_WIDTH + 2)


@cache
def _factored_terms() -> list[tuple[int, float]]:
    """Every (n, log p) with n = p^k <= 2^18 by factoring, computed once."""
    return [(n, w) for n in range(2, 2**18 + 1) if (w := mangoldt_by_factoring(n))]


def test_sieve_matches_trial_division():
    assert list(primes_up_to(PrimeRange(2000))) == primes_by_trial_division(2000)


def test_sieve_segmentation_is_invisible(monkeypatch):
    # the same blocks from one segment as from one segment per block
    limit = 3 * BLOCK_WIDTH + 100
    wide = list(prime_batches(PrimeRange(limit)))
    monkeypatch.setattr(mdl.primes, "SEGMENT_SIZE", BLOCK_WIDTH)  # 4 segments instead of 1
    assert list(prime_batches(PrimeRange(limit))) == wide
    assert [p for batch in wide for p in batch] == [p for p in _trial_primes() if p <= limit]


def test_base_primes_match_trial_division():
    # every n up to 3000 passes each p*p at which the odd-only mask clears, and
    # every limit at which 2, 3 or a candidate 6k + 1 or 6k + 5 enters the read-out
    primes = primes_by_trial_division(3000)
    for n in range(3001):
        assert _base_primes(n) == [p for p in primes if p <= n], n


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("d", [-2, -1, 0, 1, 2])
def test_sieve_matches_trial_division_at_segment_ends(monkeypatch, k: int, d: int):
    # with one block per segment, both start at k * BLOCK_WIDTH; k = 0, which
    # has no limit below its start, checks the limits 2 to 6 instead
    monkeypatch.setattr(mdl.primes, "SEGMENT_SIZE", BLOCK_WIDTH)
    limit = k * BLOCK_WIDTH + d if k else 4 + d
    want = [p for p in _trial_primes() if p <= limit]
    assert list(primes_up_to(PrimeRange(limit))) == want


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", range(-7, 8))
def test_sieve_matches_trial_division_at_block_ends(k: int, d: int):
    # BLOCK_WIDTH = 4 mod 6, so k * BLOCK_WIDTH + d meets both classes, and
    # the numbers between them, at the end of a block and of the limit
    limit = k * BLOCK_WIDTH + d
    batches = list(prime_batches(PrimeRange(limit)))
    assert [p for batch in batches for p in batch] == [p for p in _trial_primes() if p <= limit]
    assert len(batches) == limit // BLOCK_WIDTH + 1


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sieve_holds_one_segment_mask_at_a_time():
    # sieving one segment peaks at its mask, SEGMENT_SIZE / 2 bytes, plus the
    # marking's copies; a mask still held while the next segment is sieved would
    # add its whole size to that, and the batches add far less
    limit = 2 * SEGMENT_SIZE  # three segments, the last holding the limit alone
    odd_base = _base_primes(math.isqrt(limit))[1:]
    one_segment = _peak_bytes(lambda: _odd_mask(0, SEGMENT_SIZE, odd_base))
    run = _peak_bytes(lambda: deque(prime_batches(PrimeRange(limit)), maxlen=0))
    assert run - one_segment < SEGMENT_SIZE // 4, (run, one_segment)


def test_marking_holds_one_zero_buffer_at_a_time():
    # a bytes right-hand side is copied into a fresh bytearray first: two buffers
    mask = _odd_mask(0, 2**21, [3, 5, 7])
    peak = _peak_bytes(lambda: _odd_mask(0, 2**21, [3, 5, 7]))
    assert peak < 1.5 * len(mask), (peak, len(mask))


def test_sieve_yields_plain_ints():
    assert all(type(p) is int for p in primes_up_to(PrimeRange(10**5)))


@pytest.mark.parametrize(
    "x, count",
    [(2, 1), (10, 4), (100, 25), (10**6, 78498), (2 * 10**6, 148_933), (10**7, 664_579)],
)
def test_prime_count_reference_values(x: int, count: int):
    assert sum(1 for _ in primes_up_to(PrimeRange(x))) == count


def test_prime_range_validation():
    with pytest.raises(PreconditionError):
        PrimeRange(1)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: PrimeRange(1000.0), "limit"),
        (lambda: DigitCountReport(3, 2, 1, X=1e4), "X"),
        (lambda: mersenne_residues(3, 5, 1e4), "X"),
        (lambda: mersenne_prime_sum(3, 5, 1, 1e4), "X"),
        (lambda: mangoldt_exp_sum(3, 5, 1, 2, 1e4), "X"),
        (lambda: mangoldt_exp_sum(3, 5, 1, 2, 1.0), "X"),
    ],
    ids=[
        "PrimeRange", "count_blocks", "mersenne_residues", "mersenne_prime_sum",
        "mangoldt_exp_sum", "mangoldt_exp_sum_at_1",
    ],
)
def test_every_sieve_caller_rejects_a_non_int_limit(call, name):
    # each names the limit as its own signature does, before any sieve
    with pytest.raises(PreconditionError, match=rf"^{name} must be an int, got (1|1000|10000)\.0$"):
        call()


def test_sieve_guard_boundary():
    # the range is checked when it is built, before any segment is sieved
    assert PrimeRange(SIEVE_GUARD).limit == SIEVE_GUARD
    with pytest.raises(ResourceGuardError, match="sieve guard"):
        PrimeRange(SIEVE_GUARD + 1)


def test_mangoldt_terms_match_factoring_oracle():
    limit = 300
    got = dict(mangoldt_terms(PrimeRange(limit)))
    for n in range(2, limit + 1):
        weight = mangoldt_by_factoring(n)
        if weight:
            assert math.isclose(got.pop(n), weight, rel_tol=1e-15)
        else:
            assert n not in got
    assert not got


@pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 64, 1024])
def test_mangoldt_terms_merge_emits_powers_after_the_last_prime(limit: int):
    # at 4, 8, 9 and 64 the stream ends with a power above the largest prime
    want = [(n, mangoldt_by_factoring(n)) for n in range(2, limit + 1)]
    assert list(mangoldt_terms(PrimeRange(limit))) == [(n, w) for n, w in want if w]


@pytest.mark.parametrize(
    "limit", [4, 64, BLOCK_WIDTH, BLOCK_WIDTH + 1, 2**17, 2**17 + 1, 3 * BLOCK_WIDTH, 2**18]
)
def test_mangoldt_terms_keep_a_last_block_without_a_prime(limit: int):
    # at 2^17 and 2^17 + 1 the last block holds the power 2^17 and no prime
    assert list(mangoldt_terms(PrimeRange(limit))) == [
        (n, w) for n, w in _factored_terms() if n <= limit
    ]


def test_mangoldt_terms_sorted_and_weighted_by_base_prime():
    terms = list(mangoldt_terms(PrimeRange(64)))
    assert all(type(term) is tuple and len(term) == 2 for term in terms)
    ns = [n for n, _ in terms]
    assert all(a < b for a, b in zip(ns, ns[1:]))  # strictly ascending
    for n, weight in terms:
        p = round(math.exp(weight))
        assert is_prime(p)
        assert weight == math.log(p)
        while n % p == 0:
            n //= p
        assert n == 1, (p, weight)


def test_mangoldt_sum_equals_log_lcm():
    # Chebyshev psi(X) is exactly log lcm(1..X)
    X = 500
    psi = sum(weight for _, weight in mangoldt_terms(PrimeRange(X)))
    assert math.isclose(psi, math.log(math.lcm(*range(1, X + 1))), rel_tol=1e-12)
