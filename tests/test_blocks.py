"""The one compensated sum and the fixed block order of the phase sums."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from mdl.arith import unit_circle_value
from mdl.expsum import BLOCK_WIDTH, _phase_sum, kahan_sum


def test_kahan_beats_naive_on_adversarial_input():
    # classic cancellation pattern: huge value plus many tiny ones
    values = [complex(1e16, 0.0)] + [complex(1.0, 0.0)] * 1000 + [complex(-1e16, 0.0)]
    assert kahan_sum(values).real == 1000.0


@given(st.lists(st.floats(-1e6, 1e6), max_size=50))
def test_kahan_close_to_fsum(xs: list[float]):
    got = kahan_sum(complex(x, 0.0) for x in xs)
    assert math.isclose(got.real, math.fsum(xs), rel_tol=1e-12, abs_tol=1e-9)
    assert got.imag == 0.0


def test_phase_sum_restarts_kahan_at_every_block():
    # keys straddle three blocks; the middle block holds a single term
    modulus = 3**40
    keys = [1, 7, BLOCK_WIDTH - 1, BLOCK_WIDTH + 5, 3 * BLOCK_WIDTH, 3 * BLOCK_WIDTH + 2]
    terms = [(n, math.log(n + 1), pow(5, n, modulus)) for n in keys]
    blocks = [terms[:3], terms[3:4], terms[4:]]
    want = kahan_sum(
        kahan_sum(w * unit_circle_value(r, modulus) for _, w, r in block)
        for block in blocks
    )
    weights = kahan_sum(kahan_sum(w for _, w, _ in block) for block in blocks)
    assert _phase_sum(terms, modulus) == (want, weights.real, len(terms))


def test_phase_sum_of_no_terms_is_zero():
    assert _phase_sum([], 9) == (0j, 0.0, 0)
