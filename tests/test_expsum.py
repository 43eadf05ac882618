"""Exponential sums: golden values, symmetry contracts, determinism."""

from __future__ import annotations

import math

import pytest

from mdl.errors import PreconditionError, SelfCheckError
from mdl.expsum import (
    ExpSumResult, _phase_join, _phase_partials, log_ratio, mangoldt_exp_sum, mersenne_prime_sum)
from oracles import mangoldt_sum_by_direct_powers, mersenne_sum_by_direct_powers

# (q, gamma) of each modulus q^gamma
M9 = (3, 2)
M3 = (3, 1)
M7 = (7, 1)
M340 = (3, 40)


def test_mangoldt_sum_empty_at_x_one():
    r = mangoldt_exp_sum(*M9, 1, 2, 1)
    assert (r.real, r.imag, r.term_count, r.normalizer) == (0.0, 0.0, 0, 0.0)


def test_mangoldt_sum_three_term_golden_value():
    r = mangoldt_exp_sum(*M9, 1, 2, 4)
    # frozen from the direct-powers oracle: log2*e(4/9)+log3*e(8/9)+log2*e(7/9)
    assert abs(r.real - 0.31060429294489456) < 1e-12
    assert abs(r.imag - -1.1517207863583243) < 1e-12
    assert r.term_count == 3
    assert math.isclose(r.normalizer, math.log(2) + math.log(3) + math.log(2), rel_tol=1e-12)


@pytest.mark.parametrize("a, g, X", [(1, 2, 4), (2, 2, 50), (4, 5, 120), (7, -2, 80)])
def test_mangoldt_sum_matches_direct_powers_oracle(a: int, g: int, X: int):
    r = mangoldt_exp_sum(*M9, a, g, X)
    assert abs(r.value - mangoldt_sum_by_direct_powers(9, a, g, X)) < 1e-9


def test_mangoldt_sum_rejections():
    with pytest.raises(PreconditionError):
        mangoldt_exp_sum(*M9, 3, 2, 10)  # a shares the prime
    with pytest.raises(PreconditionError):
        mangoldt_exp_sum(*M9, 1, 6, 10)  # g shares the prime
    with pytest.raises(PreconditionError):
        mangoldt_exp_sum(*M9, 1, 1, 10)  # degenerate base
    with pytest.raises(PreconditionError):
        mangoldt_exp_sum(*M9, 1, 2, 0)


def test_mersenne_sum_small_golden_value():
    r = mersenne_prime_sum(*M3, 1, 10)
    # 2^p-1 mod 3 is 0,1,1,1 over p=2,3,5,7
    assert abs(r.real - -0.5) < 1e-12
    assert abs(r.imag - 1.5 * math.sqrt(3)) < 1e-12
    assert r.term_count == 4 and r.normalizer == 4.0


def test_mersenne_sum_single_prime():
    r = mersenne_prime_sum(*M7, 5, 2)
    assert r.term_count == 1
    assert abs(r.value - mersenne_sum_by_direct_powers(7, 5, 2)) < 1e-12


def test_mersenne_sum_frozen_value_q7():
    r = mersenne_prime_sum(*M7, 1, 100)
    # frozen from the direct-powers oracle; residues cluster on {0,1,3}
    assert abs(r.real - -3.8542074622853777) < 1e-9
    assert abs(r.imag - 14.240634915676585) < 1e-9
    assert 0.0 + 1e-6 < r.magnitude < 25.0  # nontrivial but below pi(100)
    assert abs(r.value - mersenne_sum_by_direct_powers(7, 1, 100)) < 1e-9


@pytest.mark.parametrize("a", [1, 7, 100])
def test_triangle_inequality(a: int):
    r = mersenne_prime_sum(*M340, a, 10**4)
    assert r.magnitude <= r.normalizer * (1 + 1e-9)
    s = mangoldt_exp_sum(*M340, a, 2, 10**4)
    assert s.magnitude <= s.normalizer * (1 + 1e-9)


def test_expsum_result_rechecks_the_triangle_inequality():
    # weights 2 and -1 on the phases 1 and -1 (numerators 0 and 4/2) sum to
    # 3, above the weight total 1; with weights 2 and 1 the sum is 1 of 3
    with pytest.raises(SelfCheckError, match="exceeds normalizer 1.0$"):
        _phase_join([_phase_partials([([2.0, -1.0], [0, 2])], 4)], 0.5)
    within = _phase_join([_phase_partials([([2.0, 1.0], [0, 2])], 4)], 0.5)
    assert (within.magnitude, within.normalizer) == (pytest.approx(1.0), 3.0)


def test_expsum_result_only_holds_values():
    # building a record does no arithmetic: the sums check what they build
    assert ExpSumResult(3.0, 4.0, 1, 4.9, 0.5).magnitude == 5.0
    assert ExpSumResult("1", 0.0, 1, 1.0, 1.0).real == "1"


def test_conjugation_symmetry():
    a = 17
    plus = mangoldt_exp_sum(*M340, a, 2, 10**4)
    minus = mangoldt_exp_sum(*M340, 3**40 - a, 2, 10**4)
    assert abs(plus.value - minus.value.conjugate()) <= 1e-9 * max(plus.magnitude, 1.0)


def test_a_periodicity_is_bitwise():
    a = 5
    base = mersenne_prime_sum(*M340, a, 10**4)
    shifted = mersenne_prime_sum(*M340, a + 3**40, 10**4)
    assert (base.real, base.imag) == (shifted.real, shifted.imag)


def test_log_ratio_reference_points():
    assert log_ratio(3**40, *M340) == pytest.approx(1.0, abs=1e-15)
    assert log_ratio(3**80, *M340) == pytest.approx(2.0, abs=1e-14)
    # frozen from ln(10^6)/(40 ln 3)
    assert abs(log_ratio(10**6, *M340) - 0.31438549114340764) < 1e-15
    with pytest.raises(PreconditionError):
        log_ratio(1, *M340)


def test_expsum_result_rho():
    r = mersenne_prime_sum(*M340, 1, 100)
    assert r.rho == pytest.approx(math.log(100) / math.log(3**40), rel=1e-12)
