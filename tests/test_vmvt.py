"""Power-sum collision counts against the literal double loop."""

from __future__ import annotations

import time

import pytest

from mdl.errors import PreconditionError, ResourceGuardError
from mdl.vmvt import VmvtInstance
from oracles import vmvt_by_double_loop, vmvt_k1_by_polynomial_coefficients


@pytest.mark.parametrize(
    "r, k, P, expected",
    [(1, 1, 5, 5), (2, 1, 2, 6), (2, 2, 2, 6), (3, 2, 1, 1), (1, 1, 9, 9)],
)
def test_vmvt_reference_counts(r, k, P, expected):
    assert VmvtInstance(r, k, P).count == expected


def test_vmvt_agrees_with_double_loop_box():
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for P in (1, 2, 3, 4):
                assert VmvtInstance(r, k, P).count == vmvt_by_double_loop(r, k, P)


def test_vmvt_bounds_hold():
    inst = VmvtInstance(3, 2, 5)
    assert inst.P**inst.r <= inst.count <= inst.P ** (2 * inst.r)


def test_vmvt_guard():
    # 9 * 10 * min(C(18, 9), 82) = 7,380 dictionary updates
    assert VmvtInstance(9, 1, 10).count == vmvt_k1_by_polynomial_coefficients(9, 10)
    with pytest.raises(ResourceGuardError):
        VmvtInstance(6, 2, 30)  # 6 * 30 * min(C(35, 6), 175 * 5395), about 1.7 * 10^8
    with pytest.raises(ResourceGuardError):
        VmvtInstance(1, 1, 10**8 + 1)  # r * P alone exceeds the guard
    assert VmvtInstance(1, 1, 2).count == 2  # far inside the guard


def test_vmvt_guard_boundary():
    # r = k = 1 needs P * P updates: exactly 10^8 passes, one more P fails
    assert VmvtInstance(1, 1, 10**4).count == 10**4
    with pytest.raises(ResourceGuardError):
        VmvtInstance(1, 1, 10**4 + 1)


def test_vmvt_p_one_counts_one_without_rounds():
    # [1, 1]^(2r) holds one tuple; r = 10^8 rounds would take minutes
    start = time.perf_counter()
    assert VmvtInstance(10**8, 1, 1).count == 1
    assert VmvtInstance(10**8 + 1, 1, 1).count == 1
    assert time.perf_counter() - start < 1.0


def test_vmvt_guard_rejects_before_any_work():
    # a huge k is clamped before the guard and r * P is rejected before C(P+r-1, r)
    with pytest.raises(ResourceGuardError):
        VmvtInstance(10**9, 10**9, 10**9)


# counts frozen from the tuple enumeration that the dynamic program replaced
@pytest.mark.parametrize(
    "r, k, P, expected",
    [(4, 3, 24, 7_124_904), (4, 2, 40, 272_909_400), (4, 3, 30, 17_856_234)],
)
def test_vmvt_frozen_enumeration_counts(r, k, P, expected):
    assert VmvtInstance(r, k, P).count == expected


def test_vmvt_k1_against_polynomial_coefficients():
    assert VmvtInstance(4, 1, 100).count == 47_938_730_314_300
    assert vmvt_k1_by_polynomial_coefficients(4, 100) == 47_938_730_314_300
    for r, P in ((1, 7), (3, 9), (5, 6)):
        assert VmvtInstance(r, 1, P).count == vmvt_k1_by_polynomial_coefficients(r, P)


def test_vmvt_k_beyond_r_counts_as_k_equals_r():
    # Newton's identities: r power sums of r numbers fix their multiset
    for r in (1, 2, 3):
        for P in (1, 2, 3, 4):
            want = vmvt_by_double_loop(r, r, P)
            for k in range(r + 1, r + 3):
                assert vmvt_by_double_loop(r, k, P) == want
                assert VmvtInstance(r, k, P).count == want
    inst = VmvtInstance(2, 20000, 3)
    assert (inst.k, inst.count) == (20000, VmvtInstance(2, 2, 3).count)


def test_vmvt_k_beyond_p_minus_one_counts_as_k_equals_p_minus_one():
    # P - 1 power sums fix the multiplicity of each value in [1, P]
    for P in (2, 3):
        for k in range(P, P + 3):
            assert VmvtInstance(4, k, P).count == vmvt_by_double_loop(4, P - 1, P)


def test_vmvt_more_equations_never_add_solutions():
    for r, P in ((2, 4), (3, 3)):
        counts = [VmvtInstance(r, k, P).count for k in (1, 2, 3)]
        assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("r, k, P", [(1, 1, 2), (1, 2, 2), (2, 1, 3), (3, 3, 4)])
def test_monotonicity_reference_instances(r, k, P):
    # one more variable pair grows the count by at most P^2, in integers
    assert VmvtInstance(r + 1, k, P).count <= P * P * VmvtInstance(r, k, P).count


def test_monotonicity_rejects_r_below_one():
    with pytest.raises(PreconditionError):
        VmvtInstance(0, 1, 3)

