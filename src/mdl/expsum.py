"""Exponential sums over prime-power moduli, plus their bound expressions.

Two sums are provided: one over prime powers n <= X weighted by log p
(von Mangoldt weights), with phase a*g^n, and one over primes p <= X with
phase a*(2^p - 1).  Phases are exact residues; only the final
residue/modulus ratio is rounded to double, so the modulus may far exceed
2^53 without loss.  The powers g^n and 2^p come from one walk across the
gaps between consecutive exponents (stepped_powers), consumed block by
block; evaluation is blocked and reduced in a fixed order, making results
bit-identical for every thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._blocks import kahan_complex_sum, ordered_block_map, stepped_blocks
from .arith import PrimePowerModulus, unit_circle_value
from .errors import PreconditionError, SelfCheckError
from .primes import MangoldtTerm, PrimeRange, mangoldt_terms, primes_up_to

__all__ = [
    "ExpSumResult",
    "mangoldt_exp_sum",
    "mersenne_prime_sum",
    "exp_sum_bound",
    "log_ratio",
]


@dataclass(frozen=True)
class ExpSumResult:
    """Value and context of one evaluated exponential sum.

    normalizer is the sum of the absolute term weights (so the trivial
    estimate is |sum| <= normalizer); rho is log X over log modulus.  The
    triangle inequality is re-checked at construction.
    """

    real: float
    imag: float
    term_count: int
    normalizer: float
    modulus: PrimePowerModulus
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


def _reject_non_unit(m: PrimePowerModulus, name: str, value: int) -> None:
    if value % m.q == 0:
        raise PreconditionError(
            f"{name}={value} must be coprime to q={m.q}"
        )


def log_ratio(X: int, m: PrimePowerModulus) -> float:
    """log(X) / log(modulus), the scale of X against the modulus."""
    if X < 2:
        raise PreconditionError(f"X must be >= 2, got {X}")
    return math.log(X) / (m.gamma * math.log(m.q))


def exp_sum_bound(X: int, m: PrimePowerModulus, delta: float, c: float) -> float:
    """Evaluate c * (X^(1 - delta*rho^2) * log X + X * q^(-delta*gamma)).

    delta and c are free user-supplied parameters; nothing here asserts
    that any particular sum obeys this expression.
    """
    if X < 2:
        raise PreconditionError(f"X must be >= 2, got {X}")
    if delta <= 0 or c <= 0:
        raise PreconditionError(f"delta and c must be > 0, got {delta}, {c}")
    rho = log_ratio(X, m)
    main = math.exp((1.0 - delta * rho * rho) * math.log(X)) * math.log(X)
    tail = X * math.exp(-delta * m.gamma * math.log(m.q))
    return c * (main + tail)


def _phase_block_sum(
    residues_weights: Sequence[tuple[int, float]], modulus: int
) -> tuple[complex, float]:
    """Kahan-accumulate one block of (residue, weight) phase terms."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    wtotal = 0.0
    wcomp = 0.0
    for residue, weight in residues_weights:
        value = weight * unit_circle_value(residue, modulus)
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        wy = weight - wcomp
        wt = wtotal + wy
        wcomp = (wt - wtotal) - wy
        wtotal = wt
    return total, wtotal


def mangoldt_exp_sum(
    m: PrimePowerModulus, a: int, g: int, X: int, threads: int = 1
) -> ExpSumResult:
    """Sum of log(p) * phase(a * g^n) over prime powers n = p^k <= X.

    The phase of t is exp(2*pi*i*t/modulus).  normalizer is the total
    weight sum over the same n.  X=1 gives the empty sum.
    """
    if X < 1:
        raise PreconditionError(f"X must be >= 1, got {X}")
    _reject_non_unit(m, "a", a)
    _reject_non_unit(m, "g", g)
    if g in (-1, 0, 1):
        raise PreconditionError(f"g must be an integer with |g| >= 2, got {g}")
    Q = m.modulus
    if X == 1:
        return ExpSumResult(0.0, 0.0, 0, 0.0, m, 0.0)
    terms = list(mangoldt_terms(PrimeRange(X)))

    def work(block: tuple[Sequence[MangoldtTerm], list[int]]) -> tuple[complex, float]:
        pairs = [((a * x) % Q, t.weight) for t, x in zip(*block)]
        return _phase_block_sum(pairs, Q)

    blocks = stepped_blocks(terms, lambda t: t.n, g, Q)
    partials = ordered_block_map(work, blocks, threads)
    total = kahan_complex_sum(p[0] for p in partials)
    normalizer = kahan_complex_sum(complex(p[1], 0.0) for p in partials).real
    return ExpSumResult(
        total.real, total.imag, len(terms), normalizer, m, log_ratio(X, m)
    )


def mersenne_prime_sum(
    m: PrimePowerModulus,
    a: int,
    X: int,
    threads: int = 1,
    primes: Sequence[int] | None = None,
) -> ExpSumResult:
    """Sum of phase(a * (2^p - 1)) over primes p <= X.

    normalizer is the prime count up to X.  A precomputed, strictly
    increasing sequence of exactly the primes <= X may be passed to skip
    the sieve.
    """
    if X < 2:
        raise PreconditionError(f"X must be >= 2, got {X}")
    _reject_non_unit(m, "a", a)
    Q = m.modulus
    if primes is None:
        primes = list(primes_up_to(PrimeRange(X)))

    def work(block: tuple[Sequence[int], list[int]]) -> tuple[complex, float]:
        pairs = [((a * (x - 1)) % Q, 1.0) for x in block[1]]
        return _phase_block_sum(pairs, Q)

    partials = ordered_block_map(work, stepped_blocks(primes, int, 2, Q), threads)
    total = kahan_complex_sum(p[0] for p in partials)
    count = len(primes)
    return ExpSumResult(
        total.real, total.imag, count, float(count), m, log_ratio(X, m)
    )
