"""The Wieferich bases q = 1093 and 3511, where 2^(q-1) = 1 mod q^2.

There the order of 2 mod q^2 equals its order mod q (lift_valuation 2), so
the two lowest base-q digits of 2^p - 1 depend only on p mod order_mod_q: the
residues mod q and q^2 repeat heavily, the case in which the Erdos-Turan
bound reads long runs of equal neighbours off the sorted points.  Each digit
route is checked here against its tests/oracles.py counterpart.
"""

from __future__ import annotations

import math

import pytest

from mdl.digits import (
    DigitCountReport, PointSet, discrepancy, erdos_turan_bound, mersenne_residues)
from mdl.expsum import mersenne_prime_sum
from mdl.order import OrderStructure
from oracles import (
    digit_window_by_expansion,
    erdos_turan_by_fsum,
    mersenne_sum_by_direct_powers,
    primes_by_trial_division,
    star_discrepancy_by_max_formula,
    star_discrepancy_by_threshold_sweep,
)

# q -> (order of 2 mod q, distinct residues mod q and mod q^2 of the 9,592 primes
# to 10^5); the second is phi(order) plus the primes dividing the order (2, 7 and
# 13 for 364; 3, 5 and 13 for 1,755), since by 10^5 primes hit every class
# coprime to the order
WIEFERICH = {1093: (364, 147), 3511: (1755, 867)}


@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_order_of_two_does_not_lift_at_the_second_digit(q):
    tau, distinct = WIEFERICH[q]
    structure = OrderStructure(q, 2)
    assert pow(2, q - 1, q * q) == 1
    assert (structure.order_mod_q, structure.lift_valuation) == (tau, 2)
    coprime = sum(math.gcd(c, tau) == 1 for c in range(tau))
    dividing = sum(tau % p == 0 for p in primes_by_trial_division(tau))
    assert coprime + dividing == distinct


@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_residues_below_the_lift_valuation_are_the_classes_of_p(q):
    # for gamma <= lift_valuation, 2^p = 2^(p mod order_mod_q) mod q^gamma
    structure = OrderStructure(q, 2)
    primes = primes_by_trial_division(10**5)
    classes = {p % structure.order_mod_q for p in primes}
    for gamma in range(1, structure.lift_valuation + 1):
        modulus = q**gamma
        residues = mersenne_residues(q, gamma, 10**5)
        assert set(residues) == {(pow(2, c, modulus) - 1) % modulus for c in classes}
        assert len(set(residues)) == WIEFERICH[q][1]
    # one digit further the order is q times larger, and no two primes share a residue
    assert len(set(mersenne_residues(q, structure.lift_valuation + 1, 10**5))) == len(primes)


@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_erdos_turan_bound_bit_for_bit_against_fsum(q, gamma):
    residues = mersenne_residues(q, gamma, 10**5)
    got = erdos_turan_bound(PointSet(q, gamma, residues), 10)
    assert got.hex() == erdos_turan_by_fsum(residues, q**gamma, 10).hex()


@pytest.mark.parametrize("q, X", [(1093, 1000), (3511, 300)])
def test_discrepancy_matches_threshold_sweep_mod_q(q, X):
    # to 1,000 the 168 residues mod 1093 take 122 values
    residues = mersenne_residues(q, 1, X)
    exact = star_discrepancy_by_threshold_sweep(residues, q)
    assert discrepancy(PointSet(q, 1, residues)) == float(exact)


def test_discrepancy_matches_threshold_sweep_mod_1093_squared():
    # 1,194,649 thresholds against the 9,592 residues to 10^5, which take 147 values
    residues = mersenne_residues(1093, 2, 10**5)
    exact = star_discrepancy_by_threshold_sweep(residues, 1093**2)
    assert discrepancy(PointSet(1093, 2, residues)) == float(exact)


@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_discrepancy_matches_max_formula(q, gamma):
    residues = mersenne_residues(q, gamma, 10**5)
    got = discrepancy(PointSet(q, gamma, residues))
    assert got.hex() == star_discrepancy_by_max_formula(residues, q**gamma).hex()


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_digit_counts_match_full_expansion(q, r):
    # q^2 exceeds BIN_GUARD, so one digit is the widest window at these bases
    report = DigitCountReport(q, r, 1, 2000)
    counts = [0] * q
    for p in primes_by_trial_division(2000):
        counts[digit_window_by_expansion(p, q, r, 1)] += 1
    assert report.counts == tuple(counts)


@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("q", sorted(WIEFERICH))
def test_mersenne_sum_matches_direct_powers(q, gamma):
    for a in (1, 4):
        got = mersenne_prime_sum(q, gamma, a, 3000)
        assert abs(got.value - mersenne_sum_by_direct_powers(q**gamma, a, 3000)) < 1e-9
