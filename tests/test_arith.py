"""Exact modular arithmetic primitives, and the oracles' unit-circle embedding."""

from __future__ import annotations

import cmath
import copy
import math
import pickle
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mdl.cli
from mdl.arith import (
    BASE_GUARD,
    MODULUS_BIT_GUARD,
    _prime_factors,
    is_prime,
    padic_valuation,
    prime_power,
    stepped_powers,
)
from mdl.digits import (
    DigitCountReport,
    PointSet,
    digit_block,
    discrepancy,
    erdos_turan_bound,
    mersenne_residues,
)
from mdl.errors import PreconditionError, ResourceGuardError
from mdl.expsum import ExpSumResult, log_ratio, mangoldt_exp_sum, mersenne_prime_sum
from mdl.order import (
    OrderStructure,
    congruence_criterion,
    excess_valuation,
    order_mod_power,
    valuation_difference,
)
from mdl.primes import PrimeRange, primes_up_to
from mdl.vmvt import VmvtInstance
from oracles import unit_circle_value


def test_is_prime_small_values():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes_below_50)


class _Int(int):
    pass


def test_is_prime_is_false_for_non_ints():
    for n in (7.5, 9.5, 7.0):
        assert is_prime(n) is False, n
    # equal to the cached 7.0, and an int: the cache must key it apart
    assert is_prime(_Int(7)) is True


def test_factorize_multiplies_back_to_n():
    primes = set(primes_up_to(PrimeRange(10**4)))
    for n in range(1, 10**4 + 1):
        factors = list(_prime_factors(n))
        assert set(factors) <= primes and factors == sorted(factors), n
        assert math.prod(factors) == n


def test_is_prime_stops_at_the_smallest_factor():
    # each has a prime cofactor near 2^31: factoring it fully takes ~23,000 divisions
    for n in (2 * (2**31 - 1), 3 * 715827883):
        start = time.perf_counter()
        assert not is_prime.__wrapped__(n)  # past the cache
        assert time.perf_counter() - start < 1e-3


def test_a_large_q_is_trial_divided_once_not_per_call():
    # one test of q near BASE_GUARD is ~32,000 divisions (a few ms); a lemma sweep
    # re-checks q in every valuation, and each digit_block call checks it again
    q = 4294967291
    structure = OrderStructure(q, q - 1)
    start = time.perf_counter()
    for m in range(1, 11):
        for x in range(21):
            valuation_difference(structure, m, x, 21)
    for p in primes_up_to(PrimeRange(250)):
        digit_block(p, q, 0, 1)
    assert time.perf_counter() - start < 0.2


def test_is_prime_agrees_with_the_sieve():
    sieve = set(primes_up_to(PrimeRange(10**5 - 1)))
    assert {n for n in range(10**5) if is_prime(n)} == sieve


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_prime(2**61 - 1),
        lambda: digit_block(2**61 - 1, 3, 5, 1),
        lambda: DigitCountReport(2**61 - 1, 5, 1, X=100),
        lambda: padic_valuation(2**61 - 1, 5),
        lambda: OrderStructure(2**61 - 1, 2),
    ],
    ids=["is_prime", "digit_block", "count_blocks", "padic_valuation", "order"],
)
def test_trial_division_is_guarded_before_it_starts(call):
    # 2^61 - 1 is prime: unguarded, each call divides up to about 1.5 * 10^9
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="base guard"):
        call()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "call, error, match, seconds",
    [
        # the descent finds order 2^32 - 6 mod 2^32 - 5: g^order would have 4 * 10^9 bits
        (lambda: OrderStructure(2**32 - 5, 2),
         ResourceGuardError, "power guard", 0.1),
        # the closed form is 2201, so the residue's modulus q^2202 has 68,262 bits;
        # reading the valuation of x (2,200 divisions) comes first
        (lambda: valuation_difference(OrderStructure(2**31 - 1, 2), 31, (2**31 - 1) ** 2200, 0),
         ResourceGuardError, "modulus guard", 0.5),
        (lambda: DigitCountReport(3, 0, 10**9, 7),
         PreconditionError, r"s <= r\+1", 0.1),
        (lambda: VmvtInstance(10**9, 1, 10**9),
         ResourceGuardError, "enumeration guard", 0.1),
    ],
    ids=["OrderStructure", "valuation_difference", "DigitCountReport", "VmvtInstance"],
)
def test_caller_sized_powers_are_guarded_before_they_are_formed(call, error, match, seconds):
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize(
    "call",
    [
        lambda: OrderStructure(11, 3, order_mod_q=5, lift_valuation=2, cofactor=2),
        lambda: DigitCountReport(3, 1, 1, 7, counts=(1, 2, 1), pi_X=4),
        lambda: VmvtInstance(1, 1, 3, count=3),
        lambda: PointSet(3, 2, [5, 0, 5, 8], points=(0, 5, 5, 8)),
    ],
    ids=["OrderStructure", "DigitCountReport", "VmvtInstance", "PointSet"],
)
def test_records_take_only_their_parameters(call):
    # each call passes the true results, but a record derives them itself
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


@pytest.mark.parametrize(
    "record",
    [
        PrimeRange(100),
        DigitCountReport(3, 1, 1, 7),
        ExpSumResult(3.0, 4.0, 1, 5.0, 0.5),
        OrderStructure(11, 3),
        VmvtInstance(2, 1, 3),
        PointSet(3, 2, [5, 0, 5, 8]),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_survive_copy_and_pickle(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_point_set_keeps_its_points_from_the_callers_list():
    residues = [5, 0, 5, 8]
    points = PointSet(3, 2, residues)
    residues.append(1)
    residues.sort(reverse=True)
    assert type(points.points) is tuple and points.points == (0, 5, 5, 8)


def test_copied_records_derive_their_results_again():
    # a copy or pickle carries the parameters alone, so a wrong result field is not kept
    forged = tuple.__new__(OrderStructure, (11, 3, 5, 9, 2))
    assert copy.copy(forged) == pickle.loads(pickle.dumps(forged)) == OrderStructure(11, 3)


def test_trial_division_guard_boundary():
    # every known Mersenne exponent is below 2^32; 2^32 - 5 is the largest prime there
    assert is_prime(2**32 - 5)
    assert 0 <= digit_block(2**32 - 5, 3, 5, 1) < 3
    with pytest.raises(ResourceGuardError, match="base guard"):
        is_prime(2**32 + 15)


@pytest.mark.parametrize(
    "g", [-1, 0, 1, 7, 14, 2.5], ids=["-1", "0", "1", "q", "2q", "non-int"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda g: mangoldt_exp_sum(7, 2, 1, g, 100),
        lambda g: mdl.cli.order_structure(7, g),  # the name the CLI calls
        lambda g: OrderStructure(7, g),
    ],
    ids=["mangoldt", "order_structure", "OrderStructure"],
)
def test_every_base_taker_rejects_the_same_g(call, g):
    with pytest.raises(PreconditionError, match=r"\|g\| >= 2|must not be divisible by q"):
        call(g)


@pytest.mark.parametrize(
    "call",
    [
        lambda: VmvtInstance(2.5, 1, 3),
        lambda: VmvtInstance(2, 1.5, 3),
        lambda: VmvtInstance(2, 1, 3.0),
        lambda: DigitCountReport(3, 2, 1.0, 100),
        lambda: digit_block(5, 3, 2, 1.0),
        lambda: congruence_criterion(OrderStructure(11, 3), 2, 1, 1.5, 2),
        lambda: valuation_difference(OrderStructure(11, 3), 1.5, 2, 1),
        lambda: order_mod_power(OrderStructure(11, 3), 1.0),
        lambda: excess_valuation(OrderStructure(11, 3), 1.5),
        lambda: erdos_turan_bound(PointSet(3, 2, [1, 2]), 2.5),
        lambda: stepped_powers(2, 9.0)([1]),
        lambda: log_ratio(100.0, 3, 2),
    ],
    ids=[
        "VmvtInstance_r", "VmvtInstance_k", "VmvtInstance_P", "DigitCountReport",
        "digit_block", "congruence_criterion", "valuation_difference",
        "order_mod_power", "excess_valuation", "erdos_turan_bound", "stepped_powers",
        "log_ratio",
    ],
)
def test_every_non_int_argument_is_a_precondition_error(call):
    # neither a leaked TypeError nor a silent answer from float arithmetic
    with pytest.raises(PreconditionError, match=r"must be an int, got \d+\.\d+$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: prime_power("3", 2),
        lambda: prime_power(3, "2"),
        lambda: DigitCountReport(3, 2, 1, "100"),
        lambda: DigitCountReport(None, 2, 1, 100),
        lambda: mersenne_residues(3, 2, "100"),
        lambda: mersenne_prime_sum(3, 5, 1, "100"),
        lambda: mangoldt_exp_sum(3, 5, 1, 2, None),
        lambda: OrderStructure("11", 3),
        lambda: congruence_criterion(OrderStructure(11, 3), "2", 1, 1, 2),
        lambda: congruence_criterion(OrderStructure(11, 3), 2, "1", 1, 2),
    ],
    ids=[
        "prime_power_q", "prime_power_e", "DigitCountReport_X", "DigitCountReport_q",
        "mersenne_residues", "mersenne_prime_sum", "mangoldt_exp_sum", "OrderStructure",
        "congruence_criterion_r", "congruence_criterion_s",
    ],
)
def test_every_argument_is_checked_before_it_is_compared(call):
    # a str or None reaches no comparison that would leak a TypeError
    with pytest.raises(
        PreconditionError, match=r"(must be an int|must be an odd prime >= 3), got ('\d+'|None)$"
    ):
        call()


@pytest.mark.parametrize(
    "call, name, least, value",
    [
        (lambda: prime_power(3, 0), "gamma", 1, 0),
        (lambda: stepped_powers(2, 0), "modulus", 1, 0),
        (lambda: PrimeRange(1), "limit", 2, 1),
        (lambda: DigitCountReport(3, -1, 1, 100), "r", 0, -1),
        (lambda: digit_block(5, 3, 2, 0), "s", 1, 0),
        (lambda: DigitCountReport(3, 2, 1, 1), "X", 2, 1),
        (lambda: mersenne_prime_sum(3, 2, 1, 1), "X", 2, 1),
        (lambda: mangoldt_exp_sum(3, 2, 1, 2, 0), "X", 1, 0),
        (lambda: log_ratio(1, 3, 2), "X", 2, 1),
        (lambda: erdos_turan_bound(PointSet(3, 2, [0, 1]), 0), "H", 1, 0),
        (lambda: mdl.cli._run_discrepancy(3, 2, 100, 0), "H", 1, 0),
        (lambda: order_mod_power(OrderStructure(11, 3), 0), "n", 1, 0),
        (lambda: excess_valuation(OrderStructure(11, 3), -1), "n", 1, -1),
        (lambda: valuation_difference(OrderStructure(11, 3), 0, 2, 1), "m", 1, 0),
        (lambda: valuation_difference(OrderStructure(11, 3), 1, -1, 1), "x", 0, -1),
        (lambda: valuation_difference(OrderStructure(11, 3), 1, 2, -1), "y", 0, -1),
        (lambda: congruence_criterion(OrderStructure(11, 3), 2, 1, -1, 2), "n1", 0, -1),
        (lambda: congruence_criterion(OrderStructure(11, 3), 2, 1, 1, -2), "n2", 0, -2),
        (lambda: VmvtInstance(0, 1, 3), "r", 1, 0),
        (lambda: VmvtInstance(1, 0, 3), "k", 1, 0),
        (lambda: VmvtInstance(1, 1, 0), "P", 1, 0),
    ],
    ids=[
        "prime_power", "stepped_powers", "PrimeRange", "window_r", "window_s",
        "DigitCountReport_X", "mersenne_prime_sum", "mangoldt_exp_sum", "log_ratio",
        "erdos_turan_bound", "cli_discrepancy", "order_mod_power", "excess_valuation",
        "valuation_difference_m", "valuation_difference_x", "valuation_difference_y",
        "congruence_criterion_n1", "congruence_criterion_n2",
        "VmvtInstance_r", "VmvtInstance_k", "VmvtInstance_P",
    ],
)
def test_every_lower_bound_names_its_parameter(call, name, least, value):
    # one rule and one message, under the name of the caller's own parameter
    message = f"{name} must be >= {least}, got {value}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()


def test_bools_pass_the_int_check():
    assert VmvtInstance(True, 1, 3).count == 3
    assert order_mod_power(OrderStructure(11, 3), True) == 5


@pytest.mark.parametrize("a", [3, 6, 2.5], ids=["q", "2q", "non-int"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: mangoldt_exp_sum(3, 2, a, 2, 100),
        lambda a: mersenne_prime_sum(3, 2, a, 100),
    ],
    ids=["mangoldt", "mersenne"],
)
def test_every_a_taker_rejects_the_same_a(call, a):
    with pytest.raises(PreconditionError, match="must not be divisible by q"):
        call(a)


@pytest.mark.parametrize(
    "q, n, expected",
    [(3, 9, 2), (3, 10, 0), (3, -18, 2), (2, 48, 4), (11, 242, 2), (5, 2400, 2)],
)
def test_padic_valuation(q: int, n: int, expected: int):
    assert padic_valuation(q, n) == expected


def test_padic_valuation_rejects_zero_and_composite_base():
    with pytest.raises(PreconditionError):
        padic_valuation(3, 0)
    with pytest.raises(PreconditionError):
        padic_valuation(6, 12)


@pytest.mark.parametrize("q, n", [(3.0, 9), (3, 9.0)])
def test_padic_valuation_rejects_non_ints(q, n):
    with pytest.raises(PreconditionError):
        padic_valuation(q, n)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 8), st.integers(1, 500))
def test_padic_valuation_definition(q: int, e: int, cofactor: int):
    if cofactor % q == 0:
        cofactor += 1
    assert padic_valuation(q, q**e * cofactor) == e


def test_prime_power_modulus_construction():
    assert prime_power(3, 40) == 3**40
    with pytest.raises(PreconditionError):
        prime_power(2, 5)  # only odd primes carry a digit statistic here
    with pytest.raises(PreconditionError):
        prime_power(9, 2)
    with pytest.raises(PreconditionError):
        prime_power(3, 0)


def test_modulus_guard_boundary():
    # 3^41348 has 65536 bits, 3^41349 has 65537: the guard sits between them
    assert prime_power(3, 41348).bit_length() == MODULUS_BIT_GUARD
    with pytest.raises(ResourceGuardError):
        prime_power(3, 41349)
    prime_power(11, 101)  # the widest modulus the tests and goldens use


def test_modulus_guard_never_forms_the_power():
    # 3^(10^18) could not be formed at all; the guard reads its logarithm
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        prime_power(3, 10**18)


def test_base_guard_boundary():
    # 2^32 - 5 is the largest prime below the guard, 2^32 + 15 the smallest above
    assert BASE_GUARD == 2**32
    assert prime_power(2**32 - 5, 1) == 2**32 - 5
    with pytest.raises(ResourceGuardError, match="base guard"):
        prime_power(2**32 + 15, 1)
    # 2^61 - 1 is prime; the guard answers before any trial division
    with pytest.raises(ResourceGuardError):
        prime_power(2**61 - 1, 1)


@pytest.mark.parametrize(
    "q, gamma, error",
    [
        (9, 2, PreconditionError),
        (3, 0, PreconditionError),
        (2**32 + 15, 1, ResourceGuardError),
        (3, 41349, ResourceGuardError),
        (3, 2.5, PreconditionError),
        (3.0, 2, PreconditionError),
    ],
    ids=["q=9", "gamma=0", "q=2^32+15", "3^41349", "gamma=2.5", "q=3.0"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda q, gamma: mersenne_residues(q, gamma, 100),
        lambda q, gamma: discrepancy(PointSet(q, gamma, [0])),
        lambda q, gamma: erdos_turan_bound(PointSet(q, gamma, [0]), 1),
        lambda q, gamma: mangoldt_exp_sum(q, gamma, 1, 2, 100),
        lambda q, gamma: mersenne_prime_sum(q, gamma, 1, 100),
        lambda q, gamma: order_mod_power(OrderStructure(q, 2), gamma),
        lambda q, gamma: congruence_criterion(OrderStructure(q, 2), gamma, 1, 0, 1),
    ],
    ids=["residues", "discrepancy", "erdos_turan", "mangoldt", "mersenne", "order", "congruence"],
)
def test_every_modulus_taker_rejects_like_prime_power(call, q, gamma, error):
    with pytest.raises(error):
        prime_power(q, gamma)
    with pytest.raises(error):
        call(q, gamma)


def test_unit_circle_value_against_cmath():
    # tolerance, not equality: cos/sin of the rounded ratio vs cexp
    for modulus in (9, 27, 3**40):
        for value in (0, 1, modulus // 2, modulus - 1):
            direct = cmath.exp(2j * cmath.pi * value / modulus)
            assert abs(unit_circle_value(value, modulus) - direct) < 1e-12


def test_unit_circle_value_beyond_double_precision():
    # the ratio must be formed as an exact integer quotient first
    modulus = 3**40  # > 2^53
    z = unit_circle_value(1, modulus)
    assert z != 1.0 + 0.0j
    assert abs(z - cmath.exp(2j * cmath.pi / modulus)) < 1e-15
    assert abs(abs(z) - 1.0) < 1e-15

