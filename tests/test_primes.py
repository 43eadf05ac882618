"""Segmented sieve and von Mangoldt stream."""

from __future__ import annotations

import math

import pytest

from mdl.errors import PreconditionError
from mdl.primes import MangoldtTerm, PrimeRange, mangoldt_terms, pi_of, primes_up_to
from oracles import mangoldt_by_factoring, primes_by_trial_division


def test_sieve_matches_trial_division():
    assert list(primes_up_to(PrimeRange(2000))) == primes_by_trial_division(2000)


def test_sieve_segmentation_is_invisible():
    wide = list(primes_up_to(PrimeRange(10_000)))
    narrow = list(primes_up_to(PrimeRange(10_000, segment_size=64)))
    assert wide == narrow


@pytest.mark.parametrize("x, count", [(2, 1), (10, 4), (100, 25), (10**6, 78498)])
def test_pi_of_reference_counts(x: int, count: int):
    assert pi_of(x) == count


def test_prime_range_validation():
    with pytest.raises(PreconditionError):
        PrimeRange(1)
    with pytest.raises(PreconditionError):
        PrimeRange(100, segment_size=8)


def test_mangoldt_terms_match_factoring_oracle():
    limit = 300
    got = {t.n: t.weight for t in mangoldt_terms(PrimeRange(limit))}
    for n in range(2, limit + 1):
        weight = mangoldt_by_factoring(n)
        if weight:
            assert math.isclose(got.pop(n), weight, rel_tol=1e-15)
        else:
            assert n not in got
    assert not got


def test_mangoldt_terms_sorted_and_weighted_by_base_prime():
    terms = list(mangoldt_terms(PrimeRange(64)))
    assert [t.n for t in terms] == sorted(t.n for t in terms)
    for t in terms:
        assert t.n % t.p == 0
        assert math.isclose(t.weight, math.log(t.p), rel_tol=1e-15)


def test_mangoldt_sum_equals_log_lcm():
    # Chebyshev psi(X) is exactly log lcm(1..X)
    X = 500
    psi = sum(t.weight for t in mangoldt_terms(PrimeRange(X)))
    assert math.isclose(psi, math.log(math.lcm(*range(1, X + 1))), rel_tol=1e-12)


def test_mangoldt_term_is_frozen():
    term = MangoldtTerm(9, 3, math.log(3))
    with pytest.raises(AttributeError):
        term.n = 10  # type: ignore[misc]
