"""Exponential sums over prime-power moduli q^gamma.

Two sums are provided: one over prime powers n <= X weighted by log p
(von Mangoldt weights), with phase a*g^n, and one over primes p <= X with
phase a*(2^p - 1).  Phases are exact residues; only the final
residue/modulus ratio is rounded to double, so the modulus may far exceed
2^53 without loss.  Each sum is one sequential pass over batches of up
to 2,048 terms: the powers g^n are stepped across the gaps between
consecutive exponents (stepped_powers), the residues of 2^p - 1 come from
the Mersenne walk of mdl.digits, and the phases are Kahan-summed in fixed
blocks of BLOCK_WIDTH consecutive exponents, whatever the batches, so
results are reproducible bit for bit.  Each block is a loop over its
terms that keeps the real part, the imaginary part and the weight as
plain float Kahan sums.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .arith import _check_unit, _check_unit_base, prime_power, stepped_powers
from .digits import _mersenne_walk
from .errors import PreconditionError, SelfCheckError
from .primes import PrimeRange, mangoldt_batches

__all__ = [
    "ExpSumResult",
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
    batches: Iterable[tuple[list[int], list[float], list[int]]], modulus: int
) -> tuple[complex, float, int]:
    """Sum weight * e(residue / modulus) over (ns, weights, residues) batches.

    The n come strictly ascending across the batches.  Terms whose n share
    n // BLOCK_WIDTH form one block, whose real parts, imaginary parts and
    weights are Kahan-summed from zero as three plain floats; the block
    totals are then Kahan-summed in block order.  That order is part of
    every frozen report, so a block may span batches and a batch blocks:
    the three sums carry over from one batch to the next, and bisect finds
    where each block ends in a batch.  The float pairs give the same bits
    as complex Kahan sums of weight * complex(cos(angle), sin(angle)):
    complex addition and subtraction act on each part alone, and weight
    times complex(cos, sin) is (weight * cos, weight * sin), since cos of a
    finite double is never 0 and the angle is never -0.0.  Returns the sum,
    the weight total and the number of terms.
    """
    cos, sin, tau, width = math.cos, math.sin, math.tau, BLOCK_WIDTH
    sums: list[complex] = []
    weights: list[float] = []
    block = None
    re = im = wt = re_comp = im_comp = wt_comp = 0.0
    count = 0
    for ns, ws, rs in batches:
        count += len(ns)
        i = 0
        while i < len(ns):
            if ns[i] // width != block:  # a new block: new totals, summed from zero
                block = ns[i] // width
                re = im = wt = re_comp = im_comp = wt_comp = 0.0
                sums.append(0j)
                weights.append(0.0)
            end = bisect_left(ns, (block + 1) * width, i)
            for w, r in zip(ws[i:end], rs[i:end]):
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
            sums[-1], weights[-1] = complex(re, im), wt
            i = end
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
    if X == 1 and isinstance(X, int):  # 1.0 goes on to PrimeRange's int check
        return ExpSumResult(0.0, 0.0, 0, 0.0, 0.0)
    powers, batches = stepped_powers(g, Q), mangoldt_batches(PrimeRange(X))
    total, normalizer, count = _phase_sum(
        ((ns, ws, [a * x % Q for x in powers(ns)]) for ns, ws in batches), Q
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
        ((ps, [1.0] * len(ps), [a * x % Q for x in xs]) for ps, xs in walk), Q
    )
    return ExpSumResult(total.real, total.imag, count, normalizer, log_ratio(X, q, gamma))
