"""Exact arithmetic over prime-power moduli.

Every modulus q^e is a plain int formed by prime_power, which checks q and
e and the size of the power before it is formed; code that holds an
already validated q and int e checks only the size, with _check_power_size.
Checks shared by several modules sit here too: _check_int, the one test of
an int argument and of its lower bound, which names the argument as its
caller does, and ENUMERATION_GUARD, which bounds the vmvt dynamic program,
the Erdos-Turan phase terms and the walks.  The residue engine,
stepped_powers, turns batches of positive, ascending exponents (the blocks
of mdl.primes) into the orbit start * base^e.  All of it is exact integer
arithmetic; floating point enters where a canonical residue over its
modulus becomes a double: in expsum._phase_sum and digits.erdos_turan_bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator

from .errors import PreconditionError, ResourceGuardError

__all__ = [
    "BASE_GUARD",
    "ENUMERATION_GUARD",
    "MODULUS_BIT_GUARD",
    "is_prime",
    "padic_valuation",
    "prime_power",
    "stepped_powers",
]

MODULUS_BIT_GUARD = 1 << 16  # maximum size, in bits, of a modulus q^e
BASE_GUARD = 1 << 32  # largest prime base q, and largest n tested by trial division
ENUMERATION_GUARD = 10**8  # VmvtInstance updates, erdos_turan_bound terms, walked primes


def _prime_factors(n: int) -> Iterator[int]:
    """Prime factors of n <= BASE_GUARD, ascending and with repetition.

    Trial division, one factor at a time, so a caller that needs only the
    smallest factor stops after it.  A larger n raises ResourceGuardError
    before any division.
    """
    if n > BASE_GUARD:
        raise ResourceGuardError(f"n = {n} exceeds the base guard {BASE_GUARD}")
    d = 2
    while d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


@lru_cache(maxsize=4096, typed=True)
def is_prime(n: int) -> bool:
    """Whether n is a prime int: its smallest prime factor is n itself.

    Cached, as hot loops re-check the same primes; typed, so 7.0 is not 7.
    """
    return isinstance(n, int) and n >= 2 and next(_prime_factors(n)) == n


def _check_odd_prime(q: int) -> None:
    """Reject q unless it is an odd prime int; is_prime applies BASE_GUARD first."""
    if not (isinstance(q, int) and q >= 3 and is_prime(q)):
        raise PreconditionError(f"q must be an odd prime >= 3, got {q!r}")


def _check_int(name: str, value: int, rule: str = "", least: int | None = None) -> None:
    """Reject value unless it is an int (bools pass) >= least, if set; rule extends the message."""
    if not isinstance(value, int):
        raise PreconditionError(f"{name} must be an int{rule}, got {value!r}")
    if least is not None and value < least:
        raise PreconditionError(f"{name} must be >= {least}, got {value}")


def _check_unit(q: int, name: str, value: int) -> None:
    """Reject value unless it is an int that q does not divide."""
    _check_int(name, value, f" and must not be divisible by q={q}")
    if value % q == 0:
        raise PreconditionError(f"{name}={value} must not be divisible by q={q}")


def _check_unit_base(q: int, g: int) -> None:
    """Reject q as _check_odd_prime does, then g if |g| < 2 or _check_unit fails."""
    _check_odd_prime(q)
    if g in (-1, 0, 1):
        raise PreconditionError(f"g must be an integer with |g| >= 2, got {g}")
    _check_unit(q, "g", g)


def _check_power_size(q: int, e: int) -> None:
    """Reject q^e, before it is formed, when it exceeds MODULUS_BIT_GUARD bits.

    The size is read from e * log2(q); callers check e with _check_int, q is not validated.
    """
    if e * math.log2(q) > MODULUS_BIT_GUARD:
        raise ResourceGuardError(
            f"modulus {q}^{e} exceeds the modulus guard of {MODULUS_BIT_GUARD} bits"
        )


def prime_power(q: int, gamma: int) -> int:
    """q**gamma for an odd prime q <= BASE_GUARD and an exponent gamma >= 1.

    The power routinely exceeds the 53-bit float significand, so callers
    reduce by it in exact integer arithmetic.  A power beyond
    MODULUS_BIT_GUARD bits is rejected with ResourceGuardError before it
    is formed (_check_power_size).
    """
    _check_odd_prime(q)
    _check_int("gamma", gamma, least=1)
    _check_power_size(q, gamma)
    return q**gamma


def padic_valuation(q: int, n: int) -> int:
    """Largest k with q**k dividing the int n; the sign of n is ignored.

    Undefined (and rejected) for n == 0.
    """
    if not is_prime(q):
        raise PreconditionError(f"q must be prime, got {q}")
    _check_int("n", n)
    if n == 0:
        raise PreconditionError("valuation needs a nonzero n, got 0")
    n = abs(n)
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def stepped_powers(base: int, modulus: int, start: int = 1) -> Callable[[list[int]], list[int]]:
    """A stepper: each call maps a batch of exponents e to start * base**e mod modulus.

    The exponents are positive and strictly ascending across the calls.
    The stepper starts at exponent 0 with start % modulus, so every value,
    the first included, is the previous one times base**(e - e_prev),
    computed once per distinct gap (prime gaps below 10^7 take fewer than a
    hundred values) into one table for every batch.  Callers hold one batch
    of powers at a time, beside whatever else their batch carries, such as
    von Mangoldt weights.
    """
    _check_int("base", base)
    _check_int("modulus", modulus, least=1)
    _check_int("start", start)
    steps: dict[int, int] = {}
    previous, value = 0, start % modulus

    def powers(exponents: list[int]) -> list[int]:
        nonlocal previous, value
        out = []
        for e in exponents:
            step = steps.get(e - previous)
            if step is None:  # every gap in the table is >= 1
                if e <= previous:
                    raise PreconditionError(
                        f"exponents must strictly ascend from 0, got {previous} then {e}"
                    )
                step = steps[e - previous] = pow(base, e - previous, modulus)
            value = value * step % modulus
            out.append(value)
            previous = e
        return out

    return powers
