"""The stepped residue engine against direct pow, and its callers against the oracles."""

from __future__ import annotations

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdl.arith import ENUMERATION_GUARD, stepped_powers
from mdl.digits import DigitCountReport, _check_work, _mersenne_walk, mersenne_residues
from mdl.errors import PreconditionError, ResourceGuardError
from mdl.expsum import mangoldt_exp_sum, mersenne_prime_sum
from mdl.primes import (
    BLOCK_WIDTH,
    SIEVE_GUARD,
    PrimeRange,
    mangoldt_batches,
    mangoldt_terms,
    prime_batches,
    primes_up_to,
)
from oracles import (
    digit_window_by_expansion,
    mangoldt_sum_by_direct_powers,
    mersenne_sum_by_direct_powers,
    phase_sum_by_blocked_kahan,
    powers_by_direct_pow,
    primes_by_trial_division,
)

PRIMES_TO_1E4 = list(primes_up_to(PrimeRange(10**4)))


def _stepped(base: int, batches: list[list[int]], modulus: int, start: int = 1) -> list[int]:
    """The values of one stepper from start, fed the batches in order, flat."""
    powers = stepped_powers(base, modulus, start)
    out = []
    for batch in batches:
        got = powers(batch)
        assert len(got) == len(batch)
        out += got
    return out


def _cut(items: list, cuts: list[int]) -> list[list]:
    """items as consecutive lists, cut at the sorted indices cuts; a repeat cut gives []."""
    bounds = [0, *sorted(cuts), len(items)]
    return [items[i:j] for i, j in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("X", [2, 3, 100, 10**4])
@pytest.mark.parametrize("gamma", [1, 20, 40, 101])
@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_stepped_powers_match_pow_over_primes(q: int, gamma: int, X: int):
    primes = [p for p in PRIMES_TO_1E4 if p <= X]
    modulus = q**gamma
    for base in (2, 5, -7):
        want = powers_by_direct_pow(base, primes, modulus)
        got = _stepped(base, list(prime_batches(PrimeRange(X))), modulus)
        assert got == want, (base, q, gamma, X)
        assert _stepped(base, _cut(primes, [0, 1, 1, len(primes) // 2]), modulus) == want


@pytest.mark.parametrize("X", [2, 3, 4, 10**4])
def test_stepped_powers_match_pow_over_prime_powers(X: int):
    batches = [ns for ns, _ in mangoldt_batches(PrimeRange(X))]
    exponents = [n for ns in batches for n in ns]
    for modulus in (3, 3**40, 7**20, 11**101):
        for g in (2, 5, -2, -7):
            got = _stepped(g, batches, modulus)
            assert got == powers_by_direct_pow(g, exponents, modulus), (modulus, g, X)


# at least 200 examples, or the profile's count when higher (2,000 under ci)
@settings(max_examples=max(200, settings.default.max_examples))
@given(
    exponents=st.lists(st.integers(1, 10**6), unique=True, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=6),
    base=st.integers(-(10**6), 10**6),
    modulus=st.integers(1, 3**101),
    start=st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(3**102), 3**102)),
    multiple=st.integers(-3, 3),
)
def test_stepped_powers_property(exponents, cuts, base: int, modulus: int, start, multiple):
    # any cut of the exponents into batches, empty ones included, gives the same
    # values start * base^e mod modulus; start is any int, reduced or not
    exponents.sort()
    batches = _cut(exponents, [min(c, len(exponents)) for c in cuts])
    for begin in (start, multiple * modulus, start + multiple * modulus):
        want = [begin * pow(base, e, modulus) % modulus for e in exponents]
        assert _stepped(base, batches, modulus, begin) == want, begin
    assert _stepped(base, batches, modulus) == powers_by_direct_pow(base, exponents, modulus)


@pytest.mark.parametrize("exponents", [[3, 2], [2, 3, 3], [2, 5, 3, 7], [-1, 2], [0, 2]])
def test_stepped_powers_rejects_bad_exponents(exponents: list[int]):
    with pytest.raises(PreconditionError):
        stepped_powers(2, 9)(exponents)
    # one state across the batches: a descent between two batches is caught too
    with pytest.raises(PreconditionError):
        _stepped(2, [[], *([e] for e in exponents)], 9)


def test_stepped_powers_rejects_bad_modulus():
    with pytest.raises(PreconditionError):
        stepped_powers(2, 0)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_mersenne_walk_matches_reduced_pow(q: int):
    # the walk takes x - a for x = a * 2^p mod q, reduced; with q = 3, p = 2
    # gives the residue 0, the lower end of the range
    X = 1000
    primes = primes_by_trial_division(X)
    want = [(pow(2, p, q) - 1) % q for p in primes]
    assert mersenne_residues(q, 1, X) == want
    assert DigitCountReport(q, 0, 1, X).counts == tuple(want.count(v) for v in range(q))
    assert (q != 3) or want[0] == 0
    # from any multiplier a the walk gives the phase numerators a * (2^p - 1) mod q^e
    for a in (1, 2, q - 1, q + 1):
        for modulus in (q, q**3):
            got = [x for xs in _mersenne_walk(modulus, X, a) for x in xs]
            assert got == [a * (pow(2, p, modulus) - 1) % modulus for p in primes], a


@pytest.mark.parametrize("q, r, s", [(5, 20, 2), (7, 12, 1), (11, 30, 2)])
def test_count_blocks_matches_expansion_oracle_on_wide_moduli(q: int, r: int, s: int):
    X = 600
    manual = [0] * q**s
    for p in primes_by_trial_division(X):
        manual[digit_window_by_expansion(p, q, r, s)] += 1
    assert DigitCountReport(q, r, s, X).counts == tuple(manual)


@pytest.mark.parametrize("q, gamma", [(3, 40), (11, 20)])
def test_mersenne_sum_matches_direct_powers_oracle(q: int, gamma: int):
    for a in (1, 4):
        got = mersenne_prime_sum(q, gamma, a, 3000)
        assert abs(got.value - mersenne_sum_by_direct_powers(q**gamma, a, 3000)) < 1e-9


@pytest.mark.parametrize("g", [2, 5, -2])
def test_mangoldt_sum_matches_direct_powers_oracle_mod_3_40(g: int):
    got = mangoldt_exp_sum(3, 40, 7, g, 2000)
    assert abs(got.value - mangoldt_sum_by_direct_powers(3**40, 7, g, 2000)) < 1e-9


def _bits(result) -> tuple[str, str, str, int]:
    # float.hex tells 0.0 from -0.0, which == does not
    return result.real.hex(), result.imag.hex(), result.normalizer.hex(), result.term_count


@pytest.mark.parametrize("X", [64, 2**17 + 1, 3 * BLOCK_WIDTH + 5])
def test_batches_are_the_summation_blocks(X: int):
    # list b of either stream holds its items of block b, ascending, for every
    # block up to X's, so the blocks ascend and none is skipped
    mangoldt = [ns for ns, _ in mangoldt_batches(PrimeRange(X))]
    for batches in (list(prime_batches(PrimeRange(X))), mangoldt):
        assert len(batches) == X // BLOCK_WIDTH + 1
        for block, ns in enumerate(batches):
            assert all(n // BLOCK_WIDTH == block for n in ns), (X, block)
            assert ns == sorted(set(ns)), (X, block)


@pytest.mark.parametrize("X", [70_000, 2**17, 3 * BLOCK_WIDTH + 5])
def test_blocked_bits_at_block_crossing_limits(X: int):
    # both sums span two blocks or more; at 2^17 the last block of the von
    # Mangoldt sum holds 2^17 alone, and that of the Mersenne sum nothing
    Q, a, g = 3**40, 5, 7
    mersenne = [(p, 1.0, a * (pow(2, p, Q) - 1) % Q) for p in primes_up_to(PrimeRange(X))]
    mangoldt = [(n, w, a * pow(g, n, Q) % Q) for n, w in mangoldt_terms(PrimeRange(X))]
    for got, terms in [
        (mersenne_prime_sum(3, 40, a, X), mersenne),
        (mangoldt_exp_sum(3, 40, a, g, X), mangoldt),
    ]:
        total, normalizer, count = phase_sum_by_blocked_kahan(terms, Q)
        assert _bits(got) == (total.real.hex(), total.imag.hex(), normalizer.hex(), count)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "walk",
    [lambda X: mersenne_prime_sum(3, 40, 1, X), lambda X: DigitCountReport(3, 100, 2, X)],
    ids=["mersenne_prime_sum", "count_blocks"],
)
def test_walks_hold_one_batch_not_every_residue(walk):
    # pi(10^6) - pi(10^5) = 68,906 more residues would take some 3.5 MB if held
    # at once; between the two X only the sieve segment grows, by X / 2 bytes
    small, large = _peak_bytes(lambda: walk(10**5)), _peak_bytes(lambda: walk(10**6))
    assert large - small < 2**20, (small, large)


def _walk_admitted(X: int, modulus: int) -> bool:
    try:
        _check_work(X, modulus, "walked primes", "enumeration", ENUMERATION_GUARD)
    except ResourceGuardError:
        return False
    return True


def test_walk_charge_is_one_up_to_224_bits():
    # at a charge of 1 the bound 1.25506 X / ln X admits every X the sieve does
    for modulus in (3, 3**40, 3**101, 3**141, 2**224 - 1):
        assert _walk_admitted(SIEVE_GUARD, modulus)
    # mod 3^41000 (64,984 bits) a prime is charged (800 + 64984) / 1024 = 64.24;
    # X = 10^7, a bound of 778,665 primes, stays admitted, and 10^8 is rejected
    assert _walk_admitted(10**7, 3**41000)
    assert not _walk_admitted(10**8, 3**41000)
    with pytest.raises(ResourceGuardError, match="charged 64.24 each"):
        _check_work(10**8, 3**41000, "walked primes", "enumeration", ENUMERATION_GUARD)


@pytest.mark.parametrize(
    "walk",
    [
        lambda: DigitCountReport(3, 41000, 1, X=SIEVE_GUARD),
        lambda: mersenne_prime_sum(3, 41000, 1, SIEVE_GUARD),
        lambda: mangoldt_exp_sum(3, 41000, 1, 2, SIEVE_GUARD),
    ],
    ids=["count_blocks", "mersenne_prime_sum", "mangoldt_exp_sum"],
)
def test_every_walk_is_guarded_before_the_sieve(walk, monkeypatch):
    # the sieve guard and the modulus guard admit each of these runs; the sieve
    # never starts, as the walk's charge rejects them first (mersenne_residues
    # charges the same against the 20 times smaller residue guard first)
    monkeypatch.setattr("mdl.primes._odd_mask", None)  # any sieve would fail
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="enumeration guard"):
        walk()
    assert time.perf_counter() - start < 0.1
