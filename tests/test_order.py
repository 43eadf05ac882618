"""Order lifting structure: closed forms against exhaustive oracles."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdl.arith
from mdl.errors import PreconditionError, ResourceGuardError, SelfCheckError
from mdl.order import (
    POWER_BIT_GUARD,
    OrderStructure,
    congruence_criterion,
    congruence_table,
    excess_valuation,
    order_mod_power,
    valuation_difference,
)
from oracles import order_full_scan, orders_by_stride_scan


@pytest.mark.parametrize(
    "q, g, tau, G",
    [(3, 2, 2, 1), (11, 3, 5, 2), (5, 7, 4, 2)],
)
def test_order_structure_reference_values(q: int, g: int, tau: int, G: int):
    s = OrderStructure(q, g)
    assert (s.order_mod_q, s.lift_valuation) == (tau, G)
    assert g**tau - 1 == s.cofactor * q**G
    assert math.gcd(s.cofactor, q) == 1


def test_order_structure_rejections():
    with pytest.raises(PreconditionError):
        OrderStructure(3, 1)
    with pytest.raises(PreconditionError):
        OrderStructure(3, -1)
    with pytest.raises(PreconditionError):
        OrderStructure(3, 6)
    with pytest.raises(PreconditionError):
        OrderStructure(4, 3)


@pytest.mark.parametrize("q", [241, 2521, 65537])
def test_order_by_descent_matches_brute_force(q: int):
    # q - 1 has 20, 48 and 17 divisors; the descent must stop on the least order
    for g in range(2, 21):
        d, x = 1, g % q
        while x != 1:
            d, x = d + 1, x * g % q
        if d * math.log2(g) > POWER_BIT_GUARD:
            # the guard message names g^order, so the descent is still checked
            with pytest.raises(ResourceGuardError, match=rf"^{g}\^{d} exceeds"):
                OrderStructure(q, g)
        else:
            assert OrderStructure(q, g).order_mod_q == d, (q, g)


def test_power_guard_boundary():
    # 16 has order 3571 mod 64279: 16^3571 = 2^14284 sits exactly on the guard
    s = OrderStructure(64279, 16)
    assert s.order_mod_q * 4 == POWER_BIT_GUARD
    assert len(str(abs(s.cofactor))) <= 4300  # the most digits Python prints
    # -32 has order 2857 mod 28571: (-32)^2857 has 14285 bits, one too many
    with pytest.raises(ResourceGuardError, match=r"^\(-32\)\^2857 exceeds the power guard"):
        OrderStructure(28571, -32)


def test_order_structure_negative_generator():
    s = OrderStructure(7, -3)
    assert pow(-3, s.order_mod_q, 7) == 1
    assert (-3) ** s.order_mod_q - 1 == s.cofactor * 7**s.lift_valuation
    assert order_mod_power(s, 2) == order_full_scan(-3, 49)


@pytest.mark.parametrize(
    "q, g, n, expected",
    [(3, 2, 3, 18), (11, 3, 2, 5), (11, 3, 3, 55)],
)
def test_order_mod_power_reference_values(q: int, g: int, n: int, expected: int):
    assert order_mod_power(OrderStructure(q, g), n) == expected


def test_order_mod_power_modulus_guard_boundary():
    # 3^41348 has 65536 bits, 3^41349 has 65537: the modulus guard sits between them
    s = OrderStructure(3, 2)  # order 2, lift valuation 1
    assert order_mod_power(s, 41348) == 2 * 3**41347
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        order_mod_power(s, 41349)


def test_order_powers_are_guarded_before_they_are_formed():
    # 11^(10^9) has about 3.5 * 10^9 bits; the guard reads its logarithm
    s = OrderStructure(11, 3)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        order_mod_power(s, 10**9)
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        congruence_criterion(s, 10**9, 2, 0, 1)
    assert time.perf_counter() - start < 0.1


def test_congruence_criterion_modulus_guard_boundary():
    s = OrderStructure(3, 2)  # order 2, lift valuation 1
    assert congruence_criterion(s, 41348, 1, 0, 1) is False
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        congruence_criterion(s, 41349, 1, 0, 1)


def test_congruence_criterion_does_not_revalidate_q(monkeypatch):
    # q was checked when the structure was built; the sweep only sizes its moduli
    s = OrderStructure(11, 3)  # lift valuation 2, so s > 2 lifts the order
    checked = []
    monkeypatch.setattr(mdl.arith, "_check_odd_prime", checked.append)
    for r in range(2, 6):
        for sv in range(2, r + 1):
            for n1 in range(4):
                congruence_criterion(s, r, sv, n1, 0)
    assert checked == []


def test_order_mod_power_matches_full_scan_small_box():
    for q in (3, 5, 7, 11):
        for g in range(2, 13):
            if g % q == 0:
                continue
            s = OrderStructure(q, g)
            for n in (1, 2, 3):
                assert order_mod_power(s, n) == order_full_scan(g, q**n), (q, g, n)


def test_stride_oracle_agrees_with_full_scan():
    # the vectorized orbit walk is itself validated before tests rely on it
    for q in (3, 5, 7, 13):
        for g in (2, 3, 5, 6, 7, 11, 12):
            if g % q == 0:
                continue
            assert orders_by_stride_scan(q, g, 3) == [
                order_full_scan(g, q**n) for n in (1, 2, 3)
            ]


def test_excess_valuation_profile():
    s = OrderStructure(11, 3)  # lift valuation 2
    assert [excess_valuation(s, n) for n in (1, 2, 3, 4)] == [1, 0, 0, 0]
    with pytest.raises(PreconditionError):
        excess_valuation(s, 0)


def test_excess_valuation_consistent_with_order_decomposition():
    for q, g in ((3, 2), (11, 3), (5, 7), (7, 10)):
        s = OrderStructure(q, g)
        for n in (1, 2, 3):
            t = order_mod_power(s, n)
            v = n + excess_valuation(s, n)
            diff = g**t - 1
            assert diff % q**v == 0 and (diff // q**v) % q != 0


@pytest.mark.parametrize(
    "q, g, m, x, y, expected",
    [
        (3, 2, 1, 3, 1, 1),
        (3, 2, 1, 4, 1, None),
        (11, 3, 11, 5, 0, 3),
        (11, 3, 1, 12, 1, None),  # 3^11 - 1 is 2 mod 11
        (11, 3, 1, 6, 1, 2),  # 3^6 - 3 = 726 = 6 * 11^2
    ],
)
def test_valuation_difference_reference_values(q, g, m, x, y, expected):
    assert valuation_difference(OrderStructure(q, g), m, x, y) == expected


def test_valuation_difference_matches_big_integer_valuation():
    for q, g in ((3, 2), (5, 3), (11, 3)):
        s = OrderStructure(q, g)
        for m in (1, 2, q):
            for x in range(8):
                for y in range(8):
                    if x == y:
                        continue
                    got = valuation_difference(s, m, x, y)
                    diff = g ** (m * x) - g ** (m * y)
                    if got is None:
                        assert diff % q != 0
                    else:
                        assert diff % q**got == 0 and (diff // q**got) % q != 0


def test_valuation_difference_symmetry_and_rejection():
    s = OrderStructure(3, 2)
    assert valuation_difference(s, 5, 9, 2) == valuation_difference(s, 5, 2, 9)
    with pytest.raises(PreconditionError):
        valuation_difference(s, 1, 4, 4)
    with pytest.raises(PreconditionError):
        valuation_difference(s, 0, 4, 1)


def _forged(lift_valuation: int) -> OrderStructure:
    # a structure with a wrong cofactor cannot be built, so forge the closed
    # form by lying about lift_valuation in a tuple filled past __new__
    return tuple.__new__(OrderStructure, (11, 3, 5, lift_valuation, 2))


def test_self_check_error_surfaces_on_forged_structure():
    # the true lift valuation of 3 mod 11 is 2, so 9 is too large and 1 one
    # too small; x - y is a multiple of the order, so 3^6 - 3 = 6 * 11^2 is
    # divisible by 11, and with 1 its residue mod 11^2 is 0: the direct
    # route must read that as the cap 2, not as a match
    for lift_valuation in (9, 1):
        with pytest.raises(SelfCheckError):
            valuation_difference(_forged(lift_valuation), 1, 6, 1)


def test_forged_closed_form_is_sized_before_its_modulus_is_formed():
    # 11^18944 has 65536 bits, 11^18945 has 65537: the modulus guard sits between
    with pytest.raises(SelfCheckError):
        valuation_difference(_forged(18943), 1, 6, 1)
    with pytest.raises(ResourceGuardError, match="modulus guard"):
        valuation_difference(_forged(18944), 1, 6, 1)


@pytest.mark.parametrize("k", [100, 300, 1000])
def test_valuation_difference_takes_one_residue(k: int):
    # 2^(2 * 3^k) - 1 has 3-adic valuation k + 1; one residue mod 3^(k+2) shows it
    s = OrderStructure(3, 2)
    start = time.perf_counter()
    assert valuation_difference(s, 2, 3**k, 0) == k + 1
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "q, g, r, s, n1, n2, expected",
    [
        (3, 2, 2, 1, 4, 1, (True, True)),
        (3, 2, 2, 1, 2, 1, (False, False)),
        (11, 3, 2, 2, 7, 7, (True, True)),
    ],
)
def test_congruence_criterion_reference_values(q, g, r, s, n1, n2, expected):
    # expected is (power congruence, divisibility), each side worked by hand
    congruence, divisibility = expected
    assert congruence == divisibility
    assert congruence_criterion(OrderStructure(q, g), r, s, n1, n2) is congruence


def test_congruence_criterion_window_rejections():
    s = OrderStructure(11, 3)  # lift valuation 2
    with pytest.raises(PreconditionError):
        congruence_criterion(s, 1, 2, 0, 0)  # r < s
    with pytest.raises(PreconditionError):
        congruence_criterion(s, 3, 1, 0, 0)  # s below lift valuation
    with pytest.raises(PreconditionError):
        congruence_criterion(s, 3, 2, -1, 0)


def test_congruence_criterion_sides_agree_on_sample_box():
    for q, g in ((3, 2), (7, 5), (11, 3)):
        s = OrderStructure(q, g)
        G = s.lift_valuation
        for r in range(G, 5):
            for sv in range(G, r + 1):
                for n1 in range(0, 12):
                    for n2 in range(0, 12):
                        # the power side is checked against this inside the call
                        divides = (n1 - n2) % q ** (r - sv) == 0
                        assert congruence_criterion(s, r, sv, n1, n2) is divides, (
                            q, g, r, sv, n1, n2
                        )


def test_congruence_criterion_raises_on_forged_structure():
    # the true lift valuation of 3 mod 11 is 2.  With 9, the order mod 11^9
    # is taken as 5, so 3^5 and 3^0 differ mod 11^9 while 11^0 divides 1;
    # with 1, 3^5 = 1 mod 11^2 while 11^1 does not divide 1
    for lift_valuation, r in ((9, 9), (1, 2)):
        with pytest.raises(SelfCheckError, match="^congruence mismatch for q=11, g=3"):
            congruence_criterion(_forged(lift_valuation), r, lift_valuation, 1, 0)


@pytest.mark.parametrize("q, g", [(13, 2), (11, 3), (19, 2)])
def test_congruence_table_matches_divisibility_on_the_sweep_box(q, g):
    # the box verify-lemmas sweeps: r <= 5, exponents 0..30; the power side is
    # rebuilt from orbit-walked orders and plain pow, the other by divisibility
    structure = OrderStructure(q, g)
    orders = orders_by_stride_scan(q, g, 5)
    exponents = range(31)
    for r in range(1, 6):
        for s in range(structure.lift_valuation, r + 1):
            powers = [pow(g, n * orders[s - 1], q**r) for n in exponents]
            table = congruence_table(structure, r, s, exponents, exponents)
            assert table == [[x == y for y in powers] for x in powers], (r, s)
            assert table == [
                [(a - b) % q ** (r - s) == 0 for b in exponents] for a in exponents
            ], (r, s)


def test_congruence_table_raises_on_forged_structure():
    # as in the one-pair test; the message names the first disagreeing pair,
    # (0, 1) when the forged order is too short for 11^9
    with pytest.raises(SelfCheckError, match=(
        r"^congruence mismatch for q=11, g=3, r=9, s=9, n1=0, n2=1: "
        r"power congruence False, divisibility True$"
    )):
        congruence_table(_forged(9), 9, 9, range(3), range(3))
    with pytest.raises(SelfCheckError, match="^congruence mismatch for q=11, g=3"):
        congruence_table(_forged(1), 2, 1, range(3), range(3))


def test_congruence_table_rows_follow_the_first_exponents():
    s = OrderStructure(3, 2)
    assert congruence_table(s, 2, 1, [4, 2], [1, 2, 7]) == [
        [True, False, True], [False, True, False]
    ]
    assert congruence_table(s, 2, 1, [], [1]) == []
    with pytest.raises(PreconditionError, match="^n2 must be >= 0, got -1$"):
        congruence_table(s, 2, 1, [0, 1], [3, -1])


@settings(deadline=None)
@given(
    qg=st.sampled_from([(3, 2), (5, 7), (7, 5), (11, 3), (13, 2), (19, 2)]),
    r=st.integers(1, 6),
    data=st.data(),
)
def test_congruence_table_equals_each_pair_property(qg, r, data):
    structure = OrderStructure(*qg)
    r = max(r, structure.lift_valuation)
    s = data.draw(st.integers(structure.lift_valuation, r), label="s")
    n1 = data.draw(st.lists(st.integers(0, 10**6), max_size=6), label="n1")
    n2 = data.draw(st.lists(st.integers(0, 10**6), max_size=6), label="n2")
    table = congruence_table(structure, r, s, n1, n2)
    assert table == [[congruence_criterion(structure, r, s, a, b) for b in n2] for a in n1]
    assert table == [[(a - b) % qg[0] ** (r - s) == 0 for b in n2] for a in n1]
