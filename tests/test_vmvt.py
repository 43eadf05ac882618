"""Power-sum collision counts against the literal double loop."""

from __future__ import annotations

import math

import pytest

from mdl.errors import PreconditionError, ResourceGuardError
from mdl.vmvt import VmvtInstance, ford_bound_log, monotonicity_check, vmvt_count
from oracles import vmvt_by_double_loop


@pytest.mark.parametrize(
    "r, k, P, expected",
    [(1, 1, 5, 5), (2, 1, 2, 6), (2, 2, 2, 6), (3, 2, 1, 1), (1, 1, 9, 9)],
)
def test_vmvt_reference_counts(r, k, P, expected):
    assert vmvt_count(r, k, P).count == expected


def test_vmvt_agrees_with_double_loop_box():
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for P in (1, 2, 3, 4):
                assert vmvt_count(r, k, P).count == vmvt_by_double_loop(r, k, P)


def test_vmvt_bounds_hold():
    inst = vmvt_count(3, 2, 5)
    assert inst.P**inst.r <= inst.count <= inst.P ** (2 * inst.r)


def test_vmvt_instance_rejects_impossible_count():
    with pytest.raises(PreconditionError):
        VmvtInstance(2, 1, 3, 8)  # below the diagonal floor 9
    with pytest.raises(PreconditionError):
        VmvtInstance(1, 1, 3, 10)  # above P^2


def test_vmvt_guard():
    with pytest.raises(ResourceGuardError):
        vmvt_count(9, 1, 10)
    with pytest.raises(ResourceGuardError):
        vmvt_count(1, 1, 10**8 + 1)
    assert vmvt_count(1, 1, 2).count == 2  # far inside the guard


def test_vmvt_more_equations_never_add_solutions():
    for r, P in ((2, 4), (3, 3)):
        counts = [vmvt_count(r, k, P).count for k in (1, 2, 3)]
        assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("r, k, P", [(1, 1, 2), (1, 2, 2), (2, 1, 3), (3, 3, 4)])
def test_monotonicity_reference_instances(r, k, P):
    assert monotonicity_check(r, k, P) is True


def test_monotonicity_propagates_guard():
    with pytest.raises(ResourceGuardError):
        monotonicity_check(8, 1, 10)  # r+1 = 9 exceeds the guard at P=10


def test_ford_bound_log_reference_values():
    k = 129
    assert ford_bound_log(2 * k * k, k, 1) == pytest.approx(
        3 * k**3 * math.log(k), rel=1e-12
    )
    want = 3 * k**3 * math.log(k) + (66564 - 8385 + 16.641) * math.log(10)
    assert ford_bound_log(33282, k, 10) == pytest.approx(want, rel=1e-9)


def test_ford_bound_log_window_rejections():
    with pytest.raises(PreconditionError):
        ford_bound_log(2 * 128 * 128, 128, 10)  # k below the regime
    with pytest.raises(PreconditionError):
        ford_bound_log(129, 129, 10)  # r below 2k^2
    with pytest.raises(PreconditionError):
        ford_bound_log(5 * 129 * 129, 129, 10)  # r above 4k^2
