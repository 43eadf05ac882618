"""Exponential sums over prime-power moduli q^gamma.

Two sums are provided: one over prime powers n <= X weighted by log p
(von Mangoldt weights), with phase a*g^n, and one over primes p <= X with
phase a*(2^p - 1).  Phases are exact residues; only the final
residue/modulus ratio is rounded to double, so the modulus may far exceed
2^53 without loss.  Each sum is one sequential pass over its stream: the
powers g^n come from one walk across the gaps between consecutive
exponents (stepped_powers), the residues of 2^p - 1 from the Mersenne
walk of mdl.digits, and the phases are Kahan-summed in fixed blocks of
BLOCK_WIDTH consecutive exponents, so results are reproducible bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, tee
from typing import Iterable

from .arith import _check_unit, _check_unit_base, prime_power, stepped_powers, unit_circle_value
from .digits import _mersenne_walk
from .errors import PreconditionError, SelfCheckError
from .primes import PrimeRange, mangoldt_terms

__all__ = [
    "BLOCK_WIDTH",
    "ExpSumResult",
    "kahan_sum",
    "mangoldt_exp_sum",
    "mersenne_prime_sum",
    "log_ratio",
]

BLOCK_WIDTH = 1 << 16  # consecutive exponents per summation block


@dataclass(frozen=True)
class ExpSumResult:
    """Value and context of one evaluated exponential sum.

    normalizer is the sum of the absolute term weights (so the trivial
    estimate is |sum| <= normalizer); rho is log X over log q^gamma.  The
    triangle inequality is re-checked at construction.
    """

    real: float
    imag: float
    term_count: int
    normalizer: float
    rho: float

    def __post_init__(self) -> None:
        if self.magnitude > self.normalizer * (1.0 + 1e-9):
            raise SelfCheckError(
                f"sum magnitude {self.magnitude} exceeds normalizer {self.normalizer}"
            )

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.real, self.imag)


def log_ratio(X: int, q: int, gamma: int) -> float:
    """log(X) / log(q^gamma), the scale of X against the modulus."""
    prime_power(q, gamma)
    if X < 2:
        raise PreconditionError(f"X must be >= 2, got {X}")
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


def _phase_sum(
    terms: Iterable[tuple[int, float, int]], modulus: int
) -> tuple[complex, float, int]:
    """Sum weight * e(residue / modulus) over (n, weight, residue) terms.

    The terms come by strictly ascending n.  Those whose n share
    n // BLOCK_WIDTH form one block, Kahan-summed from zero; the block
    totals are then Kahan-summed in block order, and so are the weights.
    That order is part of every frozen report.  Returns the sum, the
    weight total and the number of terms.
    """
    sums: list[complex] = []
    weights: list[complex] = []
    count = 0
    for _, block in groupby(terms, lambda term: term[0] // BLOCK_WIDTH):
        block = list(block)
        sums.append(kahan_sum(w * unit_circle_value(r, modulus) for _, w, r in block))
        weights.append(kahan_sum(w for _, w, _ in block))
        count += len(block)
    return kahan_sum(sums), kahan_sum(weights).real, count


def mangoldt_exp_sum(q: int, gamma: int, a: int, g: int, X: int) -> ExpSumResult:
    """Sum of log(p) * phase(a * g^n) over prime powers n = p^k <= X.

    The phase of t is exp(2*pi*i*t/q^gamma).  normalizer is the total
    weight sum over the same n.  X=1 gives the empty sum.
    """
    Q = prime_power(q, gamma)
    if X < 1:
        raise PreconditionError(f"X must be >= 1, got {X}")
    _check_unit(q, "a", a)
    _check_unit_base(q, g)
    if X == 1:
        return ExpSumResult(0.0, 0.0, 0, 0.0, 0.0)
    terms, exponents = tee(mangoldt_terms(PrimeRange(X)))
    powers = stepped_powers(g, (n for n, _ in exponents), Q)
    total, normalizer, count = _phase_sum(
        ((n, weight, (a * x) % Q) for (n, weight), x in zip(terms, powers)), Q
    )
    return ExpSumResult(total.real, total.imag, count, normalizer, log_ratio(X, q, gamma))


def mersenne_prime_sum(q: int, gamma: int, a: int, X: int) -> ExpSumResult:
    """Sum of phase(a * (2^p - 1)) over primes p <= X.

    normalizer is the prime count up to X.
    """
    Q = prime_power(q, gamma)
    walk = _mersenne_walk(Q, X)
    _check_unit(q, "a", a)
    total, normalizer, count = _phase_sum(
        ((p, 1.0, a * residue % Q) for p, residue in walk), Q
    )
    return ExpSumResult(total.real, total.imag, count, normalizer, log_ratio(X, q, gamma))
