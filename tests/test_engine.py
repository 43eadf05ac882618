"""The stepped residue engine against direct pow, and its callers against the oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdl.arith import stepped_powers
from mdl.digits import count_blocks, mersenne_residues
from mdl.errors import PreconditionError
from mdl.expsum import mangoldt_exp_sum, mersenne_prime_sum
from mdl.primes import PrimeRange, mangoldt_terms, primes_up_to
from oracles import (
    digit_window_by_expansion,
    mangoldt_sum_by_direct_powers,
    mersenne_sum_by_direct_powers,
    powers_by_direct_pow,
    primes_by_trial_division,
)

PRIMES_TO_1E4 = list(primes_up_to(PrimeRange(10**4)))


@pytest.mark.parametrize("X", [2, 3, 100, 10**4])
@pytest.mark.parametrize("gamma", [1, 20, 40, 101])
@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_stepped_powers_match_pow_over_primes(q: int, gamma: int, X: int):
    primes = [p for p in PRIMES_TO_1E4 if p <= X]
    modulus = q**gamma
    for base in (2, 5, -7):
        got = [x for _, x in stepped_powers(base, primes, modulus)]
        assert got == powers_by_direct_pow(base, primes, modulus), (base, q, gamma, X)


@pytest.mark.parametrize("X", [2, 3, 4, 10**4])
def test_stepped_powers_match_pow_over_prime_powers(X: int):
    exponents = [n for n, _ in mangoldt_terms(PrimeRange(X))]
    for modulus in (3, 3**40, 7**20, 11**101):
        for g in (2, 5, -2, -7):
            got = [x for _, x in stepped_powers(g, exponents, modulus)]
            assert got == powers_by_direct_pow(g, exponents, modulus), (modulus, g, X)


@settings(max_examples=200)
@given(
    exponents=st.lists(st.integers(0, 10**6), unique=True, max_size=60),
    base=st.integers(-(10**6), 10**6),
    modulus=st.integers(1, 3**101),
)
def test_stepped_powers_property(exponents: list[int], base: int, modulus: int):
    exponents.sort()
    pairs = list(stepped_powers(base, exponents, modulus))
    assert [e for e, _ in pairs] == exponents
    assert [x for _, x in pairs] == powers_by_direct_pow(base, exponents, modulus)


@pytest.mark.parametrize("exponents", [[3, 2], [2, 3, 3], [2, 5, 3, 7], [-1, 2]])
def test_stepped_powers_rejects_bad_exponents(exponents: list[int]):
    with pytest.raises(PreconditionError):
        list(stepped_powers(2, exponents, 9))


def test_stepped_powers_rejects_bad_modulus():
    with pytest.raises(PreconditionError):
        list(stepped_powers(2, [2, 3], 0))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_mersenne_walk_matches_reduced_pow(q: int):
    # the walk takes x - 1 for x = 2^p mod q, unreduced; with q = 3, p = 2
    # gives the residue 0, the lower end of the range
    X = 1000
    want = [(pow(2, p, q) - 1) % q for p in primes_by_trial_division(X)]
    assert mersenne_residues(q, 1, X) == want
    assert count_blocks(q, X, 0, 1).counts == tuple(want.count(v) for v in range(q))
    assert (q != 3) or want[0] == 0


@pytest.mark.parametrize("q, r, s", [(5, 20, 2), (7, 12, 1), (11, 30, 2)])
def test_count_blocks_matches_expansion_oracle_on_wide_moduli(q: int, r: int, s: int):
    X = 600
    manual = [0] * q**s
    for p in primes_by_trial_division(X):
        manual[digit_window_by_expansion(p, q, r, s)] += 1
    assert count_blocks(q, X, r, s).counts == tuple(manual)


@pytest.mark.parametrize("q, gamma", [(3, 40), (11, 20)])
def test_mersenne_sum_matches_direct_powers_oracle(q: int, gamma: int):
    for a in (1, 4):
        got = mersenne_prime_sum(q, gamma, a, 3000)
        assert abs(got.value - mersenne_sum_by_direct_powers(q**gamma, a, 3000)) < 1e-9


@pytest.mark.parametrize("g", [2, 5, -2])
def test_mangoldt_sum_matches_direct_powers_oracle_mod_3_40(g: int):
    got = mangoldt_exp_sum(3, 40, 7, g, 2000)
    assert abs(got.value - mangoldt_sum_by_direct_powers(3**40, 7, g, 2000)) < 1e-9
