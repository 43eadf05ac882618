"""Segmented sieve and von Mangoldt stream."""

from __future__ import annotations

import math

import pytest

import mdl.primes
from mdl.arith import is_prime
from mdl.digits import count_blocks, mersenne_residues
from mdl.errors import PreconditionError, ResourceGuardError
from mdl.expsum import mangoldt_exp_sum, mersenne_prime_sum
from mdl.primes import SIEVE_GUARD, PrimeRange, _base_primes, mangoldt_terms, primes_up_to
from oracles import mangoldt_by_factoring, primes_by_trial_division


def test_sieve_matches_trial_division():
    assert list(primes_up_to(PrimeRange(2000))) == primes_by_trial_division(2000)


def test_sieve_segmentation_is_invisible(monkeypatch):
    wide = list(primes_up_to(PrimeRange(10_000)))
    monkeypatch.setattr(mdl.primes, "SEGMENT_SIZE", 64)  # 79 segments instead of 2
    narrow = list(primes_up_to(PrimeRange(10_000)))
    assert wide == narrow


def test_base_primes_match_trial_division():
    # every n up to 3000 passes each p*p at which the odd-only mask clears
    primes = primes_by_trial_division(3000)
    for n in range(3001):
        assert _base_primes(n) == [p for p in primes if p <= n], n


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("d", [-2, -1, 0, 1, 2])
def test_sieve_matches_trial_division_at_segment_ends(monkeypatch, k: int, d: int):
    # with 64 odd numbers per segment, the segments start at 5 + 128k
    monkeypatch.setattr(mdl.primes, "SEGMENT_SIZE", 64)
    limit = 5 + 128 * k + d
    assert list(primes_up_to(PrimeRange(limit))) == primes_by_trial_division(limit)


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
    "call",
    [
        lambda: PrimeRange(1000.0),
        lambda: count_blocks(3, 1e4, 2, 1),
        lambda: mersenne_residues(3, 5, 1e4),
        lambda: mersenne_prime_sum(3, 5, 1, 1e4),
        lambda: mangoldt_exp_sum(3, 5, 1, 2, 1e4),
        lambda: mangoldt_exp_sum(3, 5, 1, 2, 1.0),
    ],
    ids=[
        "PrimeRange", "count_blocks", "mersenne_residues", "mersenne_prime_sum",
        "mangoldt_exp_sum", "mangoldt_exp_sum_at_1",
    ],
)
def test_every_sieve_caller_rejects_a_non_int_limit(call):
    with pytest.raises(PreconditionError, match=r"^limit must be an int, got (1|1000|10000)\.0$"):
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
