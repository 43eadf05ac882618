"""Digit windows, counting reports, discrepancy, and its certified bound."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdl.digits import (
    DigitCountReport,
    PointSet,
    _exact_row_sums,
    digit_block,
    discrepancy,
    erdos_turan_bound,
    mersenne_residues,
)
from mdl.errors import PreconditionError, ResourceGuardError
from oracles import (
    digit_window_by_expansion,
    erdos_turan_by_fsum,
    erdos_turan_by_unreduced_phases,
    primes_by_trial_division,
    star_discrepancy_by_max_formula,
    star_discrepancy_by_threshold_sweep,
    window_hits_by_fractional_part,
)


@pytest.mark.parametrize(
    "p, q, r, s, expected",
    [(7, 3, 2, 2, 6), (3, 3, 0, 1, 1), (2, 3, 0, 1, 0), (13, 5, 3, 2, 2)],
)
def test_digit_block_reference_values(p, q, r, s, expected):
    assert digit_block(p, q, r, s) == expected


def test_digit_block_matches_full_expansion():
    for p in primes_by_trial_division(200):
        for q in (3, 5, 7):
            for r in (0, 1, 5, 12):
                for s in range(1, r + 2):
                    assert digit_block(p, q, r, s) == digit_window_by_expansion(
                        p, q, r, s
                    ), (p, q, r, s)


def test_digit_block_rejections():
    with pytest.raises(PreconditionError):
        digit_block(7, 3, 2, 4)  # window longer than r+1
    with pytest.raises(PreconditionError):
        digit_block(8, 3, 2, 1)  # p not prime
    with pytest.raises(PreconditionError):
        digit_block(7, 3, -1, 1)


@pytest.mark.parametrize(
    "q, r, s",
    [(3, 2, 4), (3, -1, 1), (3, 2, 0), (9, 2, 1)],
    ids=["s-above-r-plus-1", "negative-r", "s-zero", "composite-q"],
)
def test_window_rejections(q, r, s):
    # both window readers check (q, r, s) first: before p, and before X's sieve guard
    with pytest.raises(PreconditionError):
        digit_block(7, q, r, s)
    with pytest.raises(PreconditionError):
        DigitCountReport(q, r, s, X=10**13)


def test_count_blocks_small_reference():
    rep = DigitCountReport(3, 0, 1, X=7)
    assert rep.counts == (1, 3, 0)
    assert rep.pi_X == 4
    assert rep.expected == pytest.approx(4 / 3)
    assert rep.deviations == (1 / 4 - 1.0 / 3, 3 / 4 - 1.0 / 3, 0 / 4 - 1.0 / 3)
    assert rep.max_abs_deviation == pytest.approx(3 / 4 - 1 / 3)


def test_count_blocks_q7_support():
    rep = DigitCountReport(7, 0, 1, X=100)
    assert {v for v, c in enumerate(rep.counts) if c} == {0, 1, 3}


def test_count_blocks_single_prime():
    rep = DigitCountReport(3, 0, 1, X=2)
    assert rep.pi_X == 1 and sum(rep.counts) == 1


def test_count_blocks_checks_x_before_the_bin_guard():
    # 3^13 window values exceed BIN_GUARD, but the bad X is reported first;
    # the bin guard then comes before the sieve guard of the first draw
    with pytest.raises(PreconditionError, match="X must be >= 2"):
        DigitCountReport(3, 20, 13, X=1)
    for X in (7, 10**13):
        with pytest.raises(ResourceGuardError, match="bin guard"):
            DigitCountReport(3, 20, 13, X)


def test_count_blocks_matches_expansion_oracle():
    X, q, r, s = 300, 3, 4, 2
    rep = DigitCountReport(q, r, s, X)
    manual = [0] * q**s
    for p in primes_by_trial_division(X):
        manual[digit_window_by_expansion(p, q, r, s)] += 1
    assert rep.counts == tuple(manual)


@pytest.mark.parametrize(
    "p, q, r, digits",
    [(7, 3, 2, (2, 0)), (5, 3, 1, (1, 1))],
)
def test_fractional_part_check_reference_true_cases(p, q, r, digits):
    value = digits[0] * q + digits[1]
    assert digit_block(p, q, r, len(digits)) == value
    assert window_hits_by_fractional_part(p, q, r, len(digits))[value]


def test_fractional_part_check_mismatch_is_false_false():
    # value 3 is digits (1, 0); positions 2..1 of 127 = 11201 in base 3 hold (2, 0)
    assert digit_block(7, 3, 2, 2) != 3
    assert not window_hits_by_fractional_part(7, 3, 2, 2)[3]


def test_fractional_part_check_window_values_are_guarded():
    # 3^12 = 531,441 window values fit BIN_GUARD; 3^13 = 1,594,323 do not
    assert sum(DigitCountReport(3, 20, 12, X=7).counts) == 4
    with pytest.raises(ResourceGuardError, match="bin guard"):
        DigitCountReport(3, 20, 13, X=7)


@pytest.mark.parametrize(
    "p", [8, 9, 1, 0], ids=["composite-p", "odd-composite-p", "p-one", "p-zero"]
)
def test_fractional_part_check_rejections(p):
    # a valid window (3, 2, 1): only p is at fault
    with pytest.raises(PreconditionError, match="p must be prime"):
        digit_block(p, 3, 2, 1)


@settings(max_examples=200)
@given(
    p=st.sampled_from(primes_by_trial_division(500)),
    q=st.sampled_from([3, 5, 7, 11]),
    r=st.integers(0, 25),
    data=st.data(),
)
def test_fractional_part_routes_agree_everywhere(p, q, r, data):
    s = data.draw(st.integers(1, min(2, r + 1)))
    value = data.draw(st.integers(0, q**s - 1))
    hit = window_hits_by_fractional_part(p, q, r, s)[value]
    assert (digit_block(p, q, r, s) == value) == hit


def test_fractional_part_routes_find_the_expanded_window():
    for p in primes_by_trial_division(200):
        for q in (3, 5, 7):
            for r in (0, 1, 5, 12):
                for s in range(1, min(2, r + 1) + 1):
                    want = digit_window_by_expansion(p, q, r, s)
                    assert digit_block(p, q, r, s) == want
                    hits = window_hits_by_fractional_part(p, q, r, s)
                    assert hits == [v == want for v in range(q**s)]


def test_mersenne_residues_prime_order_and_values():
    got = mersenne_residues(3, 2, 20)
    want = [(2**p - 1) % 9 for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    assert got == want


def test_residue_guard_admits_the_north_star_and_rejects_before_the_sieve():
    assert len(mersenne_residues(3, 20, 10**7)) == 664579
    # 1.25506 X / ln X is 6.1 * 10^7 at X = 10^9, some 8 GB on the discrepancy path
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="residue guard"):
        mersenne_residues(3, 20, 10**9)
    assert time.perf_counter() - start < 0.1


def test_residue_guard_charges_wide_residues_by_size():
    # mod 3^20000 (31,700 bits) a residue is charged (200 + 31700 / 4) / 256 = 31.74
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="charged 31.74 each"):
        mersenne_residues(3, 20000, 7 * 10**7)
    assert time.perf_counter() - start < 0.1
    # up to 224 bits the charge is 1, so the north star stays admitted mod 3^101
    assert len(mersenne_residues(3, 101, 10**7)) == 664579


def test_discrepancy_trivial_cases():
    assert discrepancy(PointSet(3, 1, mersenne_residues(3, 1, 2))) == 1.0  # one point at zero
    ten = PointSet(3, 1, mersenne_residues(3, 1, 10))
    assert discrepancy(ten) == pytest.approx(2 / 3, abs=1e-15)


def test_discrepancy_matches_threshold_sweep_oracle():
    for q, gamma, X in [(3, 1, 10), (3, 2, 50), (5, 2, 100), (7, 1, 40), (3, 3, 80)]:
        residues = mersenne_residues(q, gamma, X)
        exact = star_discrepancy_by_threshold_sweep(residues, q**gamma)
        assert discrepancy(PointSet(q, gamma, residues)) == float(exact), (q, gamma, X)


def test_discrepancy_of_perfectly_uniform_points():
    # injected residue list covering every class once
    assert discrepancy(PointSet(3, 2, mersenne_residues(3, 2, 10**6))) > 0  # smoke: real points
    residues = list(range(9))
    exact = star_discrepancy_by_threshold_sweep(residues, 9)
    assert float(exact) == pytest.approx(1 / 9, abs=1e-15)
    assert discrepancy(PointSet(3, 2, residues)) == float(exact)


def test_threshold_sweep_takes_left_limits():
    # one point at 8/9: the gap 8/9 is approached just below the point, never reached
    assert star_discrepancy_by_threshold_sweep([8], 9) == Fraction(8, 9)
    assert discrepancy(PointSet(3, 2, [8])) == 8 / 9


@pytest.mark.parametrize("gamma, n", [(33, 1659), (33, 1660), (40, 1), (40, 1700)])
def test_discrepancy_matches_max_formula_across_the_int64_switch(gamma, n):
    # N * 3^33 < 2^63 at N = 1659 (int64) and not at 1660; N * 3^40 >= 2^63 for
    # every N, so its points are Python ints; walk order is not sorted
    modulus = 3**gamma
    assert (n * modulus < 2**63) == (gamma == 33 and n == 1659)
    residues = mersenne_residues(3, gamma, 15000)[: n - 1] + [modulus - 1]
    assert residues != sorted(residues) or n == 1
    got = discrepancy(PointSet(3, gamma, residues))
    assert got.hex() == star_discrepancy_by_max_formula(residues, modulus).hex()


@pytest.mark.parametrize("gamma", [2, 5, 33, 40])
def test_discrepancy_of_duplicates_and_single_points(gamma):
    modulus = 3**gamma
    for residues in ([0], [modulus - 1], [modulus // 2], [5, 5, 0, 5, 0], [modulus - 1] * 7):
        got = discrepancy(PointSet(3, gamma, residues))
        assert got.hex() == star_discrepancy_by_max_formula(residues, modulus).hex(), residues
    assert discrepancy(PointSet(3, gamma, [0])) == 1.0
    assert discrepancy(PointSet(3, gamma, [modulus - 1])) == (modulus - 1) / modulus


# N of 3^33 straddle N * 3^33 = 2^63, the switch from int64 to Python-int points
_MAX_FORMULA_N = {
    5: st.integers(1, 60), 20: st.integers(1, 60), 33: st.integers(1600, 1700),
    34: st.integers(1, 60), 40: st.integers(1, 60),
}


@settings(deadline=None)
@given(
    gamma=st.sampled_from(sorted(_MAX_FORMULA_N)),
    data=st.data(),
    rng=st.randoms(use_true_random=False),
)
def test_discrepancy_matches_max_formula_property(gamma, data, rng):
    modulus = 3**gamma
    n = data.draw(_MAX_FORMULA_N[gamma], label="N")
    support = data.draw(
        st.lists(
            st.integers(0, modulus - 1) | st.sampled_from([0, 1, modulus - 1]),
            min_size=1, max_size=12,
        ),
        label="support",
    )
    residues = (support * n)[:n]  # repeats whenever N exceeds the support
    rng.shuffle(residues)
    got = discrepancy(PointSet(3, gamma, residues))
    assert got.hex() == star_discrepancy_by_max_formula(residues, modulus).hex()


# N * 3^20 < 2^63 (int64) and N * 3^40 >= 2^63 (Python ints)
@pytest.mark.parametrize("gamma, X", [(2, 100), (20, 10**5), (40, 10**4)])
def test_discrepancy_is_free_of_residue_order(gamma, X):
    # D* reads order statistics, so a record forged past PointSet's sort, in
    # any order, gives the sorted record's bits
    walk, modulus = mersenne_residues(3, gamma, X), 3**gamma
    want = star_discrepancy_by_max_formula(walk, modulus)
    assert discrepancy(PointSet(3, gamma, walk)).hex() == want.hex()
    shuffled = random.Random(gamma).sample(walk, len(walk))
    for residues in (walk, sorted(walk, reverse=True), shuffled):
        forged = tuple.__new__(PointSet, (3, gamma, tuple(residues)))
        assert discrepancy(forged).hex() == want.hex()


@settings(deadline=None)
@given(
    gamma=st.sampled_from(sorted(_MAX_FORMULA_N)),
    data=st.data(),
    rng=st.randoms(use_true_random=False),
)
def test_discrepancy_is_order_free_property(gamma, data, rng):
    modulus = 3**gamma
    n = data.draw(_MAX_FORMULA_N[gamma], label="N")
    support = data.draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=12))
    residues = (support * n)[:n]
    rng.shuffle(residues)
    want = star_discrepancy_by_max_formula(residues, modulus)
    # supports forged past the record's sort, int64 and Python-int regimes alike
    for order in (residues, sorted(residues, reverse=True)):
        forged = tuple.__new__(PointSet, (3, gamma, tuple(order)))
        assert discrepancy(forged).hex() == want.hex()


@pytest.mark.parametrize(
    "gamma, X, H, frozen",
    [
        (20, 10**5, 100, float.fromhex("0x1.24c24343c9286p-3")),
        (34, 10**4, 60, float.fromhex("0x1.9173988c119b6p-2")),  # object numerators
    ],
)
def test_erdos_turan_bound_is_free_of_residue_order(gamma, X, H, frozen):
    # PointSet sorts the residues, so every order gives one record; each per-h
    # sum is exact and rounded once, so a support forged past that sort, in
    # any other order, gives the same bits
    walk = mersenne_residues(3, gamma, X)
    points = PointSet(3, gamma, walk)
    assert erdos_turan_bound(points, H).hex() == frozen.hex()
    shuffled = random.Random(gamma).sample(walk, len(walk))
    for residues in (walk, sorted(walk, reverse=True), shuffled):
        assert PointSet(3, gamma, residues) == points
        forged = tuple.__new__(PointSet, (3, gamma, tuple(residues)))
        assert erdos_turan_bound(forged, H).hex() == frozen.hex()


@settings(deadline=None)
@given(
    gamma=st.sampled_from([5, 20, 33, 34, 40]),
    H=st.integers(1, 30),
    support=st.lists(st.integers(0, 3**40 - 1), min_size=1, max_size=12),
    rng=st.randoms(use_true_random=False),
)
def test_erdos_turan_bound_is_order_free_property(gamma, H, support, rng):
    residues = [x % 3**gamma for x in support * 3]
    want = erdos_turan_bound(PointSet(3, gamma, residues), H)
    # supports forged past the record's sort: the exact per-h sums keep the bits
    rng.shuffle(residues)
    for order in (residues, sorted(residues, reverse=True)):
        forged = tuple.__new__(PointSet, (3, gamma, tuple(order)))
        assert erdos_turan_bound(forged, H).hex() == want.hex()


def test_erdos_turan_matches_unreduced_oracle():
    for q, gamma, X, H in [(3, 2, 200, 12), (5, 2, 150, 10), (7, 1, 300, 15)]:
        lib = erdos_turan_bound(PointSet(q, gamma, mersenne_residues(q, gamma, X)), H)
        oracle = erdos_turan_by_unreduced_phases(q, gamma, X, H)
        assert lib == pytest.approx(oracle, rel=1e-9), (q, gamma, X, H)


def test_erdos_turan_frozen_golden_value():
    got = erdos_turan_bound(PointSet(3, 20, mersenne_residues(3, 20, 10**5)), 100)
    assert got == 0.14294865179649124


# values frozen from the scalar cos/sin loop with Kahan sums that the numpy
# phases and math.fsum replaced, moduli below 2^53 and above 2^63; the next
# two from that fsum route, one with weights up to 1,604; the last two from
# the int / int phase ratios that the stepped numerators replaced, one past
# H * 3^33 = 2^63 and one mod 3^34 > 2^53
@pytest.mark.parametrize(
    "q, gamma, X, H, frozen",
    [
        (5, 10, 10**5, 50, 0.12613993543911484),
        (11, 5, 10**5, 100, 0.1454907221620843),
        (3, 40, 10**5, 100, 0.13420312402117981),
        (3, 101, 3 * 10**4, 50, 0.3285380685874239),
        (3, 20, 10**6, 100, float.fromhex("0x1.c831dd9d9fcadp-5")),
        (3, 3, 10**5, 40, float.fromhex("0x1.f8aa13f166bacp+0")),
        (3, 33, 10**4, 1700, float.fromhex("0x1.42ed78cc626eap-1")),
        (3, 34, 10**4, 60, float.fromhex("0x1.9173988c119b6p-2")),
    ],
)
def test_erdos_turan_frozen_scalar_route_values(q, gamma, X, H, frozen):
    assert erdos_turan_bound(PointSet(q, gamma, mersenne_residues(q, gamma, X)), H) == frozen


def test_int64_ratios_would_round_twice_above_2_53():
    # 3^33 < 2^53 < 3^34: why the numerators of 3^34 are Python ints, since
    # int64 quotients would round twice
    modulus = 3**34
    rng = random.Random(modulus)
    support = [rng.randrange(modulus) for _ in range(500)]
    naive = (np.array(support, dtype=np.int64) / float(modulus)).tolist()
    assert naive != [x / modulus for x in support]


@pytest.mark.parametrize("H", [1659, 1660])
def test_erdos_turan_bound_across_the_int64_product_switch(H):
    # 1659 * 3^33 < 2^63 <= 1660 * 3^33: the product h * (3^33 - 1) would wrap
    # in int64 at the last h of H = 1660; the stepped numerators never form it,
    # and these H stay as a large-H regression
    modulus = 3**33
    assert 1659 * modulus < 2**63 <= 1660 * modulus
    residues = mersenne_residues(3, 33, 2000) + [modulus - 1]
    assert erdos_turan_bound(PointSet(3, 33, residues), H) == erdos_turan_by_fsum(
        residues, modulus, H
    )


# 3^5, 3^20 and 3^33 take int64 numerators, 3^34 (the first power of 3 above
# 2^53) and 3^40 Python ints; the H of 3^33 straddle H * 3^33 = 2^63
_DUAL_ROUTE_H = {
    5: st.integers(1, 40),
    20: st.integers(1, 40),
    33: st.integers(1600, 1700),
    34: st.integers(1, 40),
    40: st.integers(1, 40),
}


@settings(deadline=None)
@given(gamma=st.sampled_from(sorted(_DUAL_ROUTE_H)), data=st.data())
def test_erdos_turan_bound_equals_fsum_route(gamma, data):
    modulus = 3**gamma
    H = data.draw(_DUAL_ROUTE_H[gamma], label="H")
    support = data.draw(
        st.lists(
            st.integers(0, modulus - 1) | st.sampled_from([0, 1, modulus - 1]),
            min_size=1, max_size=12, unique=True,
        ),
        label="support",
    )
    counts = data.draw(
        st.lists(st.integers(1, 2000), min_size=len(support), max_size=len(support)),
        label="multiplicities",
    )
    residues = [x for x, count in zip(support, counts) for _ in range(count)]
    got = erdos_turan_bound(PointSet(3, gamma, residues), H)
    assert got.hex() == erdos_turan_by_fsum(residues, modulus, H).hex()


def _abs_sum_ceiling(rows):
    return max(math.ceil(sum(abs(Fraction(x)) for x in row)) for row in rows)


_SUMMANDS = (
    st.floats(-(2.0**20), 2.0**20)
    | st.floats(-(2.0**-1000), 2.0**-1000)
    | st.sampled_from([0.0, -0.0, 2.0**-1074, -(2.0**-1074), 1.0, 2.0**-53, 3.0 * 2**-53])
)


def _row(data, length):
    # a short drawn row, optionally followed by its negation, repeated to length
    values = data.draw(st.lists(_SUMMANDS, min_size=1, max_size=16))
    if data.draw(st.booleans(), label="cancel"):
        values += [-x for x in values]
    return (values * length)[:length]


@settings(deadline=None)
@given(
    length=st.sampled_from([1, 2, 3, 7, 8, 9, 63, 64, 255, 256, 1024, 1025]),
    slack=st.integers(0, 2**30),
    data=st.data(),
)
def test_exact_row_sums_equal_fsum_row_by_row(length, slack, data):
    rows = [_row(data, length), _row(data, length)]
    got = _exact_row_sums(np.array(rows), _abs_sum_ceiling(rows) + slack)
    # == rather than hex: fsum returns +0.0 for a row of -0.0
    assert got == [math.fsum(row) for row in rows]


@settings(deadline=None)
@given(
    bound=st.integers(1, 2**40)
    | st.sampled_from([2**k + d for k in (10, 20, 39) for d in (-1, 0, 1)]),
    length=st.sampled_from([2, 3, 4, 8, 31, 32, 1024]),
    finer=st.integers(0, 10),
    signed=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_exact_row_sums_at_the_bound(bound, length, finer, signed, rng):
    # rows of multiples of 2^-e whose absolute values sum to bound exactly,
    # on grids down to 2^finer times finer than the one bound alone allows
    e = 53 - bound.bit_length() + min(finer, length.bit_length() - 2)
    base, extra = divmod(bound << e, length)
    parts = [base] * length
    parts[0] += extra
    for i in range(0, length - 1, 2):
        moved = rng.randrange(base // 2 + 1)
        parts[i] += moved
        parts[i + 1] -= moved
    rows = []
    for _ in range(2):
        row = [math.ldexp(part, -e) for part in parts]
        if signed:
            row = [-x if rng.random() < 0.5 else x for x in row]
        rng.shuffle(row)
        rows.append(row)
    assert _abs_sum_ceiling(rows) == bound
    assert _exact_row_sums(np.array(rows), bound) == [math.fsum(row) for row in rows]


@pytest.mark.parametrize(
    "row, want",
    [
        ([1.0, 2.0**-53], 1.0),  # a tie rounds to the even neighbour
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
        ([1.0, 2.0**-53, 2.0**-1074], 1.0 + 2.0**-52),  # a subnormal breaks the tie
        ([2.0**-1074, 2.0**-1074, -(2.0**-1074)], 2.0**-1074),
        ([0.5, -0.5, 2.0**-1074], 2.0**-1074),
        ([-0.0, -0.0], 0.0),
        ([7.0, -7.0], 0.0),
        ([1.0, 2.0**-70], 1.0),  # two passes, where the half row beside it takes one
    ],
)
def test_exact_row_sums_reference_values(row, want):
    # beside each row and its negation, a row that needs its own number of passes
    negated, half = [-x for x in row], [0.5] + [0.0] * (len(row) - 1)
    assert [math.fsum(row), math.fsum(negated)] == [want, -want]
    rows = np.array([row, negated, half])
    assert _exact_row_sums(rows, _abs_sum_ceiling([row, half])) == [want, -want, 0.5]


def test_erdos_turan_bound_holds_six_rows_of_the_support():
    # support, weights, numerators, two product rows and one scratch row take
    # 48 B a distinct residue; a loop that still held the sorted array and the
    # run starts, or a second angle or scratch row, would pass 56 B
    points = PointSet(3, 20, mersenne_residues(3, 20, 10**6))
    n = len(points.points)  # every residue mod 3^20 to 10^6 is distinct
    tracemalloc.start()
    try:
        erdos_turan_bound(points, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * n, peak / n


def test_erdos_turan_certifies_discrepancy_spot_checks():
    for q, gamma, X, H in [(3, 5, 2000, 10), (7, 1, 2000, 10), (3, 2, 500, 25)]:
        points = PointSet(q, gamma, mersenne_residues(q, gamma, X))
        assert discrepancy(points) <= erdos_turan_bound(points, H) * (1 + 1e-9)


def test_erdos_turan_h_one_formula():
    # 1/2 + 3*|S_1|/N spelled out by hand
    q, gamma, X = 3, 2, 100
    residues = mersenne_residues(q, gamma, X)
    import cmath

    inner = sum(cmath.exp(2j * cmath.pi * x / 9) for x in residues)
    want = 0.5 + 3.0 * abs(inner) / len(residues)
    assert erdos_turan_bound(PointSet(q, gamma, residues), 1) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("residues", [[0, 243], [5, -1], [], [1.5]])
def test_residues_keyword_rejects_values_outside_the_modulus(residues):
    with pytest.raises(PreconditionError, match=r"^residues? "):
        PointSet(3, 5, residues)


@pytest.mark.parametrize(
    "make", [lambda: (x for x in [1, 2]), lambda: iter([1, 2]), lambda: {1, 2}],
    ids=["generator", "iterator", "set"],
)
def test_residues_must_be_a_sequence_read_once(make):
    # PointSet reads residues twice, to check and to sort them; a one-shot
    # stream is rejected before any item is drawn, not drained by the checks
    residues = make()
    with pytest.raises(PreconditionError, match=r"^residues must be a sequence, got \w+$"):
        PointSet(3, 2, residues)
    assert sorted(residues) == [1, 2]


@pytest.mark.parametrize("points", [[0, 1], (3, 1, (0, 1))], ids=["list", "tuple"])
@pytest.mark.parametrize(
    "call", [discrepancy, lambda points: erdos_turan_bound(points, 3)],
    ids=["discrepancy", "erdos_turan_bound"],
)
def test_points_must_be_a_point_set(call, points):
    # a PreconditionError naming points, not an AttributeError from reading q;
    # a record forged past PointSet's checks is still a PointSet
    with pytest.raises(PreconditionError, match=r"^points must be a PointSet, got (list|tuple)$"):
        call(points)
    assert call(tuple.__new__(PointSet, (3, 1, (0, 1)))) == call(PointSet(3, 1, [1, 0]))


def test_erdos_turan_guard_counts_each_run_of_equal_neighbours_once(monkeypatch):
    # mod 3 the 9,592 residues to 10^5 take 2 values, and
    # 194,553 * (2 + 512) > 10^8 >= 194,552 * (2 + 512); a count of one per
    # point, or any count above 2, rejects H = 194,552 as well
    points = PointSet(3, 1, mersenne_residues(3, 1, 10**5))
    assert len(points.points) == 9592
    with pytest.raises(ResourceGuardError, match=r"= 194553 \* \(1 \* 2 \+ 512\) exceeds"):
        erdos_turan_bound(points, 194553)

    class Admitted(Exception):
        pass

    def admitted() -> None:
        raise Admitted  # numpy is loaded only once the guard has admitted the run

    monkeypatch.setattr("mdl.digits._numpy", admitted)
    with pytest.raises(Admitted):
        erdos_turan_bound(points, 194552)


def test_residues_sequences_agree_with_the_list():
    want = PointSet(3, 2, list(range(9)))
    for residues in (range(9), tuple(range(9)), list(range(8, -1, -1))):
        assert PointSet(3, 2, residues) == want


def test_residues_keyword_excludes_primes():
    # residues is the only input; there is no primes keyword and no X
    with pytest.raises(TypeError):
        PointSet(3, 2, [0, 7, 4, 1], primes=[2, 3, 5, 7])
    with pytest.raises(TypeError):
        PointSet(3, 2, 10, residues=[0, 7, 4, 1])
    points = PointSet(3, 2, [0, 7, 4, 1])
    with pytest.raises(TypeError):
        discrepancy(points, primes=[2, 3, 5, 7])
    with pytest.raises(TypeError):
        erdos_turan_bound(points, 5, primes=[2, 3, 5, 7])
