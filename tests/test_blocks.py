"""The one compensated sum and the fixed block order of the phase sums."""

from __future__ import annotations

import math

from hypothesis import example, given
from hypothesis import strategies as st

from mdl.expsum import ExpSumResult, _phase_join, _phase_partials, kahan_sum
from mdl.primes import BLOCK_WIDTH
from oracles import phase_sum_by_blocked_kahan, unit_circle_value

MODULI = (3**20, 3**40, 3**101)
LOG_WEIGHTS = tuple(math.log(p) for p in (2, 3, 5, 7, 97, 65537))


def test_kahan_beats_naive_on_adversarial_input():
    # classic cancellation pattern: huge value plus many tiny ones
    values = [complex(1e16, 0.0)] + [complex(1.0, 0.0)] * 1000 + [complex(-1e16, 0.0)]
    assert kahan_sum(values).real == 1000.0


@given(st.lists(st.floats(-1e6, 1e6), max_size=50))
def test_kahan_close_to_fsum(xs: list[float]):
    got = kahan_sum(complex(x, 0.0) for x in xs)
    assert math.isclose(got.real, math.fsum(xs), rel_tol=1e-12, abs_tol=1e-9)
    assert got.imag == 0.0


def _phase_sum(batches: list[tuple[list, list]], modulus: int, rho: float) -> ExpSumResult:
    """Every batch's partial, as one part, joined: the route of a sum in one process."""
    return _phase_join([_phase_partials(batches, modulus)], rho)


def _batches(terms: list[tuple[int, float, int]]) -> list[tuple[list, list]]:
    """terms as (weights, residues) batches, one per block from block 0 to the last.

    As in mdl.primes, a batch is cut only at a block boundary, and a block
    without terms gives an empty batch.
    """
    batches: list[tuple[list, list]] = []
    for n, weight, residue in terms:
        while len(batches) <= n // BLOCK_WIDTH:
            batches.append(([], []))
        batches[-1][0].append(weight)
        batches[-1][1].append(residue)
    return batches


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
    batches = _batches(terms)
    assert [len(ws) for ws, _ in batches] == [3, 1, 0, 2]  # block 2 gives an empty batch
    for padded in (batches, [([], []), *batches, ([], [])]):
        assert _phase_sum(padded, modulus, 0.5) == ExpSumResult(
            want.real, want.imag, len(terms), weights.real, 0.5
        )


def test_phase_sum_of_no_terms_is_zero():
    assert _phase_sum([], 9, 0.5) == ExpSumResult(0.0, 0.0, 0, 0.0, 0.5)
    assert _phase_sum([([], [])] * 3, 9, 0.5) == ExpSumResult(0.0, 0.0, 0, 0.0, 0.5)


def _bits(total: complex, normalizer: float, count: int) -> tuple[str, str, str, int]:
    # float.hex tells 0.0 from -0.0, which == does not
    return total.real.hex(), total.imag.hex(), normalizer.hex(), count


@st.composite
def _blocked_terms(draw) -> tuple[list[tuple[int, float, int]], int, int]:
    """Terms in three to five of blocks 0..6, weighted 1.0 or log p, residue 0 drawn often.

    The blocks left out before and between those drawn give empty batches.
    The multiplier a is 1 often, else any int within twice the modulus.
    """
    modulus = draw(st.sampled_from(MODULI))
    a = draw(st.one_of(st.just(1), st.integers(-2 * modulus, 2 * modulus)))
    weight = st.sampled_from((1.0, *LOG_WEIGHTS))
    residue = st.one_of(st.just(0), st.integers(0, modulus - 1))
    # the first and last offsets of a block are drawn often
    edge = st.one_of(st.sampled_from((0, BLOCK_WIDTH - 1)), st.integers(0, BLOCK_WIDTH - 1))
    terms = []
    for block in sorted(draw(st.sets(st.integers(0, 6), min_size=3, max_size=5))):
        for offset in sorted(draw(st.sets(edge, min_size=1, max_size=8))):
            terms.append((block * BLOCK_WIDTH + offset, draw(weight), draw(residue)))
    return terms, a, modulus


@given(_blocked_terms())
@example(([], 1, 3**20))
@example(([], 1, 3**40))
@example(([], 1, 3**101))
def test_phase_sum_matches_blocked_complex_kahan_bit_for_bit(case):
    # both take the phase numerators a * r % modulus, which the callers step
    terms, a, modulus = case
    numerators = [(n, w, a * r % modulus) for n, w, r in terms]
    want = phase_sum_by_blocked_kahan(numerators, modulus)
    got = _phase_sum(_batches(numerators), modulus, 0.5)
    assert _bits(got.value, got.normalizer, got.term_count) == _bits(*want)
