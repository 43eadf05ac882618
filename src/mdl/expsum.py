"""Exponential sums over prime-power moduli q^gamma.

Two sums are provided: one over prime powers n <= X weighted by log p
(von Mangoldt weights), with phase a*g^n, and one over primes p <= X with
phase a*(2^p - 1).  Each sum is a pass over the batches of mdl.primes,
one per block of BLOCK_WIDTH consecutive exponents, split into runs of
blocks by mdl.primes._in_parts: in each run the phase numerators a*g^n
mod q^gamma are stepped from a across the gaps between consecutive
exponents (stepped_powers), and a*(2^p - 1) comes from the Mersenne walk
of mdl.digits, stepped from a too.  Numerators stay
exact; only the numerator/modulus ratio is rounded to double, so the
modulus may far exceed 2^53 without loss.  Each batch's phases are
Kahan-summed from zero, as plain float sums of the real part, the
imaginary part and the weight.  The batch totals are Kahan-summed in block
order, so results are reproducible bit for bit, however the blocks are
split.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterable

from .arith import (
    ENUMERATION_GUARD, _check_int, _check_unit, _check_unit_base, prime_power, stepped_powers)
from .digits import _check_work, _mersenne_walk, _walk_range
from .errors import SelfCheckError
from .primes import PrimeRange, _in_parts, mangoldt_batches

__all__ = [
    "ExpSumResult",
    "mangoldt_exp_sum",
    "mersenne_prime_sum",
    "log_ratio",
]

class ExpSumResult(namedtuple("ExpSumResult", "real imag term_count normalizer rho")):
    """Value and context of one evaluated exponential sum.

    normalizer is the sum of the absolute term weights (so the trivial
    estimate is |sum| <= normalizer, which the sums check when they build
    the record); rho is log X over log q^gamma.
    """

    __slots__ = ()

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.real, self.imag)


def log_ratio(X: int, q: int, gamma: int) -> float:
    """log(X) / log(q^gamma), the scale of X against the modulus."""
    prime_power(q, gamma)
    _check_int("X", X, least=2)
    return math.log(X) / (gamma * math.log(q))


def kahan_sum(values: Iterable[complex]) -> complex:
    """Compensated (Kahan) sum, taken in the exact order of the input."""
    total = comp = 0j
    for value in values:
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


Partial = tuple[float, float, float, int]  # a block's real and imaginary sums, weight, terms


def _phase_partials(
    batches: Iterable[tuple[Iterable[float], list[int]]], modulus: int
) -> list[Partial]:
    """Per non-empty batch, weight * e(numerator / modulus) summed over (weights, numerators).

    Each numerator is an exact residue in [0, modulus), stepped, not formed
    here, and is divided by the modulus once.  The real parts, imaginary
    parts and weights of each non-empty batch are Kahan-summed from zero as
    three plain floats, so a batch's partial does not depend on the batches
    before it.  The float pairs give the same bits as complex Kahan sums of
    weight * complex(cos(angle), sin(angle)): complex addition and
    subtraction act on each part alone, and weight times complex(cos, sin)
    is (weight * cos, weight * sin), since cos of a finite double is never 0
    and the angle is never -0.0.  The numerators set each batch's length;
    its weights may run longer, as a repeat does.
    """
    cos, sin, tau = math.cos, math.sin, math.tau
    partials: list[Partial] = []
    for ws, rs in batches:
        if not rs:
            continue
        re = im = wt = re_comp = im_comp = wt_comp = 0.0
        for w, r in zip(ws, rs):
            angle = tau * (r / modulus)
            y = w * cos(angle) - re_comp
            t = re + y
            re_comp = (t - re) - y
            re = t
            y = w * sin(angle) - im_comp
            t = im + y
            im_comp = (t - im) - y
            im = t
            y = w - wt_comp
            t = wt + y
            wt_comp = (t - wt) - y
            wt = t
        partials.append((re, im, wt, len(rs)))
    return partials


def _phase_join(parts: Iterable[list[Partial]], rho: float) -> ExpSumResult:
    """The partials of the parts, one after another, Kahan-summed as an ExpSumResult with rho.

    That order is part of every frozen report, so the parts must hold the
    partials of the summation blocks of mdl.primes, in block order.  Raises
    SelfCheckError if |sum| > normalizer.
    """
    partials = list(chain.from_iterable(parts))
    total = kahan_sum(complex(re, im) for re, im, _, _ in partials)
    normalizer = kahan_sum(wt for _, _, wt, _ in partials).real
    count = sum(n for _, _, _, n in partials)
    result = ExpSumResult(total.real, total.imag, count, normalizer, rho)
    if result.magnitude > normalizer * (1.0 + 1e-9):
        raise SelfCheckError(f"sum magnitude {result.magnitude} exceeds normalizer {normalizer}")
    return result


def mangoldt_exp_sum(q: int, gamma: int, a: int, g: int, X: int) -> ExpSumResult:
    """Sum of log(p) * phase(a * g^n) over prime powers n = p^k <= X.

    The phase of t is exp(2*pi*i*t/q^gamma).  normalizer is the total
    weight sum over the same n.  X=1 gives the empty sum.
    """
    Q = prime_power(q, gamma)
    _check_int("X", X, least=1)
    _check_unit(q, "a", a)
    _check_unit_base(q, g)
    if X == 1:
        return ExpSumResult(0.0, 0.0, 0, 0.0, 0.0)
    prime_range = PrimeRange(X)
    _check_work(X, Q, f"prime powers mod {q}^{gamma}", "enumeration", ENUMERATION_GUARD)

    def part(prime_range: PrimeRange, first: int) -> list[Partial]:
        powers = stepped_powers(g, Q, a)
        batches = mangoldt_batches(prime_range, first)
        return _phase_partials(((ws, powers(ns)) for ns, ws in batches), Q)

    return _phase_join(_in_parts(prime_range, part), log_ratio(X, q, gamma))


def mersenne_prime_sum(q: int, gamma: int, a: int, X: int) -> ExpSumResult:
    """Sum of phase(a * (2^p - 1)) over primes p <= X.

    normalizer is the prime count up to X.
    """
    Q = prime_power(q, gamma)
    _check_int("X", X, least=2)
    _check_unit(q, "a", a)
    rho = log_ratio(X, q, gamma)

    def part(prime_range: PrimeRange, first: int) -> list[Partial]:
        walk = _mersenne_walk(Q, prime_range, a, first)
        return _phase_partials(((repeat(1.0), xs) for xs in walk), Q)

    return _phase_join(_in_parts(_walk_range(Q, X), part), rho)
