"""Base-q digit statistics of Mersenne numbers 2^p - 1 over primes p <= X.

A length-s window of base-q digits at positions r..r-s+1 (position 0 is
the least significant digit) is a plain integer in [0, q^s), read off
exactly from 2^p - 1 mod q^(r+1).  On top of that sit per-window prime
counts, an exact star-discrepancy of the scaled residues, and an
Erdos-Turan upper bound for that discrepancy built from exponential sums.
Everything float is a single rounding away from exact integer or rational
arithmetic.  numpy is loaded by the exact discrepancy below 2^63 and by
the Erdos-Turan bound once its guard admits the run, only through _numpy,
which holds numpy's OpenBLAS to one thread unless the caller set
OPENBLAS_NUM_THREADS: mdl makes no BLAS call, and an idle OpenBLAS worker
cost 60 ms of a 240 ms discrepancy run on 2 vCPUs.  For threaded BLAS,
set that variable (OMP_NUM_THREADS alone is overridden) or import numpy first.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, islice
from typing import TYPE_CHECKING

from .arith import (
    ENUMERATION_GUARD, _check_int, _check_odd_prime, is_prime, prime_power, stepped_powers)
from .errors import PreconditionError, ResourceGuardError
from .primes import PrimeRange, prime_batches

if TYPE_CHECKING:
    from types import ModuleType

    import numpy as np

__all__ = [
    "DigitCountReport",
    "PointSet",
    "digit_block",
    "mersenne_residues",
    "discrepancy",
    "erdos_turan_bound",
    "BIN_GUARD",
    "RESIDUE_GUARD",
]

BIN_GUARD = 10**6  # maximum number of digit-window values q^s
# Most residues mersenne_residues holds, each charged max(1, (800 + bits) / 1024): on the
# discrepancy path a residue took 98-185 B to 3^101, 555 B mod 3^1000, 1.4 KB mod 3^3000
# and 7.0 KB mod 3^20000, within (800 + bits) / 4 B.  Walks charge primes the same against
# ENUMERATION_GUARD: a step and phase took 0.9-1.3 us to 224 bits, 51 us at 64,984 bits.
RESIDUE_GUARD = 5 * 10**6
# Phase terms charged per h of erdos_turan_bound on top of one per distinct residue
# for its fixed numpy calls: 18-25 us, 630-700 terms at 29-36 ns (2-vCPU AVX-512).
_PER_H_TERMS = 512
# Python-int numerators (q^gamma >= 2^53) charge _OBJECT_TERMS + bits // 128 terms: a
# residue cost 310-420 ns from 3^34 to 3^101, 0.85 us mod 3^1000, 2.6 us mod 3^3000 and
# 9.9 us mod 3^20000, within 350 + bits / 2 ns, against 59 ns below 2^53.
_OBJECT_TERMS = 8

# Leading constant of the discrepancy bound; the classical inequality
# D* <= 1/(H+1) + 3 * sum_{h<=H} (1/h) |S_h| / N holds with this value.
ERDOS_TURAN_CONSTANT = 3.0


class DigitCountReport(
    namedtuple("DigitCountReport", "q r s X counts pi_X expected deviations max_abs_deviation")
):
    """Prime counts per digit-window value, with uniformity deviations.

    Built from (q, r, s, X) by one Mersenne walk of 2^p - 1 mod q^(r+1).
    counts[v] is the number of primes p <= X whose window equals v, for
    every window value v in [0, q^s), and pi_X their total; deviations[v]
    is the signed gap between that frequency and the uniform 1 / q^s, and
    expected and max_abs_deviation measure the distance as a whole.
    Raises ResourceGuardError, before anything is allocated, when q^s
    exceeds BIN_GUARD or q^(r+1) exceeds MODULUS_BIT_GUARD bits.
    """

    __slots__ = ()

    def __new__(cls, q: int, r: int, s: int, X: int) -> DigitCountReport:
        walk = _mersenne_walk(_window_checks(q, r, s), X)
        size = q**s
        if size > BIN_GUARD:
            raise ResourceGuardError(
                f"q^s = {q}^{s} digit-window values exceed the bin guard {BIN_GUARD}"
            )
        counts = [0] * size
        divisor = q ** (r - s + 1)
        for residue in chain.from_iterable(walk):
            counts[residue // divisor] += 1
        pi_X, uniform = sum(counts), 1.0 / size  # pi_X >= 1: X >= 2 admits p = 2
        deviations = tuple(count / pi_X - uniform for count in counts)
        return super().__new__(
            cls, q, r, s, X, tuple(counts), pi_X, pi_X / size, deviations,
            max(map(abs, deviations)),
        )

    def __getnewargs__(self) -> tuple[int, int, int, int]:
        return self.q, self.r, self.s, self.X


def _window_checks(q: int, r: int, s: int) -> int:
    """q^(r+1), the modulus of window (q, r, s), once q, r and s are valid."""
    _check_odd_prime(q)  # a bad q is reported before a bad r or s
    _check_int("r", r, least=0)
    _check_int("s", s, least=1)
    if s > r + 1:
        raise PreconditionError(f"need 1 <= s <= r+1, got s={s}, r={r}")
    return prime_power(q, r + 1)


def _check_work(X: int, modulus: int, items: str, name: str, guard: int) -> None:
    """Reject pi(X) items, charged by size, over guard; pi(X) < 1.25506 X / ln X for X > 1."""
    charge = max(1.0, (800 + modulus.bit_length()) / 1024)
    if X > guard * math.log(X) / 1.25506 / charge:  # X stays an int of any size
        msg = f"pi({X}) {items}, charged {charge:.2f} each,"
        raise ResourceGuardError(f"{msg} may exceed the {name} guard {guard}")


def _mersenne_walk(modulus: int, X: int, a: int = 1) -> Iterator[list[int]]:
    """Residue batches: a * (2^p - 1) mod modulus for each prime p <= X.

    One stepped_powers pass from a over the prime batches, in p order: x - a
    for each x = a * 2^p.  X is checked at once; the sieve guard, then the
    walk's charge against ENUMERATION_GUARD, when the first batch is drawn,
    so callers can finish their own checks first.
    """
    _check_int("X", X, least=2)

    def walk() -> Iterator[list[int]]:
        prime_range, powers = PrimeRange(X), stepped_powers(2, modulus, a)
        _check_work(X, modulus, "walked primes", "enumeration", ENUMERATION_GUARD)
        for primes in prime_batches(prime_range):
            yield [(x - a) % modulus for x in powers(primes)]

    return walk()


def digit_block(p: int, q: int, r: int, s: int) -> int:
    """Digits r..r-s+1 of 2^p - 1 in base q, packed into one integer.

    The window is read from the exact residue of 2^p - 1 mod q^(r+1); the
    returned value lies in [0, q^s).
    """
    modulus = _window_checks(q, r, s)
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    return (pow(2, p, modulus) - 1) % modulus // q ** (r - s + 1)


def mersenne_residues(q: int, gamma: int, X: int) -> list[int]:
    """Residues of 2^p - 1 mod q^gamma for all primes p <= X, in p order.

    The Mersenne walk, collected into a list.  Raises ResourceGuardError
    before the sieve when _check_work charges them above RESIDUE_GUARD.
    """
    modulus = prime_power(q, gamma)
    walk = _mersenne_walk(modulus, X)
    _check_work(X, modulus, f"residues mod {q}^{gamma}", "residue", RESIDUE_GUARD)
    return list(chain.from_iterable(walk))


class PointSet(namedtuple("PointSet", "q gamma points")):
    """Residues x mod q^gamma, the points x / q^gamma, checked once and sorted.

    residues is the list mersenne_residues returns, or any non-empty sequence
    of ints in [0, q^gamma); points holds them as a tuple fixed after the check,
    in ascending order: discrepancy reads order statistics off it, and libm's
    cos and sin run faster on erdos_turan_bound's ascending angles.
    """

    __slots__ = ()

    def __new__(cls, q: int, gamma: int, residues: Sequence[int]) -> PointSet:
        modulus = prime_power(q, gamma)
        if not isinstance(residues, Sequence):  # no one-shot streams to drain
            raise PreconditionError(f"residues must be a sequence, got {type(residues).__name__}")
        if not residues:
            raise PreconditionError("residues must not be empty")
        for x in residues:
            if not (isinstance(x, int) and 0 <= x < modulus):
                raise PreconditionError(f"residue {x!r} is not an integer in [0, {q}^{gamma})")
        return super().__new__(cls, q, gamma, tuple(sorted(residues)))


def _modulus(points: PointSet) -> int:
    """q^gamma of a PointSet; any other argument is a PreconditionError."""
    if not isinstance(points, PointSet):
        raise PreconditionError(f"points must be a PointSet, got {type(points).__name__}")
    return points.q**points.gamma


def _numpy() -> ModuleType:
    """numpy, imported with OpenBLAS on this thread unless OPENBLAS_NUM_THREADS is set."""
    # OpenBLAS reads the variable once, as numpy loads it; os.environ is left as found
    pin = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


def discrepancy(points: PointSet) -> float:
    """Exact star discrepancy of the points x / q^gamma of a PointSet.

    With x_(i) the i-th smallest of the N residues and u_i = i * q^gamma -
    x_(i) * N, it is the largest u_i or q^gamma - u_i (that is x_(i) * N -
    (i - 1) * q^gamma) over N * q^gamma.  The u_i are exact: one int64
    numpy pass while N * q^gamma < 2^63, Python ints one at a time above,
    where an array would hold a wide product per residue.  The single
    division at the end is the only rounding.
    """
    modulus, xs = _modulus(points), points.points
    n = len(xs)
    if n * modulus < 2**63:
        np = _numpy()
        xs = np.array(xs, np.int64)
        xs.sort(kind="stable")  # for records built past __new__; one run on a real one
        ups = np.arange(1, n + 1, dtype=np.int64) * modulus - xs * n
        best = max(int(ups.max()), modulus - int(ups.min()))
    else:
        ups = (i * modulus - x * n for i, x in enumerate(sorted(xs), start=1))
        best = max(max(up, modulus - up) for up in ups)
    return best / (n * modulus)


def _exact_row_sums(rows: np.ndarray, bound: int) -> list[float]:
    """Each row's exact sum, rounded once: math.fsum of the row, bit for bit.

    bound, an integer below 2^52, caps each finite row's sum of absolute
    values.  Row by row, each pass scales by 2^w and moves the integer parts
    to one scratch row, both exact; with max(bound, row length) * 2^w <= 2^53
    numpy adds those in any order without rounding.  A Python int gathers the
    pass totals, one int / int rounds half-even, as fsum does.  rows is overwritten.
    """
    np = _numpy()
    w = 53 - (max(bound, rows.shape[1]) - 1).bit_length()
    parts, sums = np.empty(rows.shape[1]), []
    for row in rows:
        total, shift = 0, 0
        while row.any():
            row *= 2.0**w
            np.trunc(row, out=parts)
            row -= parts
            total, shift = (total << w) + int(parts.sum()), shift + w
        sums.append(total / (1 << shift))
    return sums


def erdos_turan_bound(points: PointSet, H: int) -> float:
    """Erdos-Turan upper bound for the star discrepancy of a PointSet.

    Evaluates 1/(H+1) + 3 * sum over h <= H of |S_h| / (h * N), where S_h
    sums the phase h * residue / q^gamma over the N residues.  Equal residues
    are neighbours in the sorted points: each run is one distinct residue, its
    length the multiplicity.  Their numerators (h * residue) mod q^gamma step
    from h to h + 1 by adding the residues and reducing, in int64 when q^gamma
    < 2^53 and Python ints above; each over q^gamma is one correctly rounded
    phase ratio.  Per h, numpy takes sin and cos in place and _exact_row_sums
    adds the weighted parts exactly, rounding each once; the loop holds support,
    weights, numerators, two product rows and one scratch row.  Raises
    ResourceGuardError, before numpy is imported, when H times the terms charged
    per h exceeds ENUMERATION_GUARD: 512 for its fixed numpy calls, plus one per
    distinct residue, or 8 + bits // 128 once q^gamma >= 2^53 has that many bits.
    """
    modulus, xs, n = _modulus(points), points.points, len(points.points)
    _check_int("H", H, least=1)
    distinct = 1 + sum(map(operator.ne, xs, islice(xs, 1, None)))  # equal residues are neighbours
    # below 2^53, 2 * modulus fits in int64 and modulus is an exact double
    small = modulus < 2**53
    charge = 1 if small else _OBJECT_TERMS + modulus.bit_length() // 128
    if H * (charge * distinct + _PER_H_TERMS) > ENUMERATION_GUARD:
        raise ResourceGuardError(
            f"H * ({charge} * distinct residues + {_PER_H_TERMS}) = {H} * "
            f"({charge} * {distinct} + {_PER_H_TERMS}) exceeds the "
            f"enumeration guard {ENUMERATION_GUARD}"
        )
    np = _numpy()
    xs = np.array(xs, np.int64 if small else object)
    xs.sort(kind="stable")  # for records built past __new__; pages in less code than quicksort
    starts = np.flatnonzero(np.diff(xs, prepend=-1))  # where each run of equal residues begins
    support, weights = xs[starts], np.diff(starts, append=n)
    del xs, starts  # the loop reads neither
    numerators = np.zeros_like(support)  # h * x mod modulus, stepped by addition
    products = np.empty((2, len(weights)))  # the phase ratios, then weight * cos, weight * sin

    total = 0.0
    for h in range(1, H + 1):
        numerators += support
        numerators %= modulus
        # one rounding either way; object ratios are Python floats, cast exactly
        np.divide(numerators, modulus, out=products[0], casting="unsafe")
        products[0] *= math.tau
        np.sin(products[0], out=products[1])
        np.cos(products[0], out=products[0])
        products *= weights
        real, imag = _exact_row_sums(products, n)  # sum |weight * cos| <= n
        total += abs(complex(real, imag)) / (h * n)
    return 1.0 / (H + 1) + ERDOS_TURAN_CONSTANT * total
