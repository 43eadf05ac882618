"""Exact power-sum collision counts over boxes [1, P]^(2r).

The central quantity is the number of 2r-tuples (n_1..n_r, m_1..m_r) in
[1, P]^(2r) whose first k power sums agree: sum n_i^j = sum m_i^j for
j = 1..k.  Counting runs r rounds of a dynamic program over power-sum
vectors: the state maps each vector reachable with i variables to the
number of i-tuples that reach it, and one round adds each n in [1, P].
The count is the sum of the squared multiplicities after round r.  A
vector is packed into one integer, with its coordinates as digits in a
radix above any coordinate the rounds can reach, so adding two vectors
is one integer addition with no carries.  By Newton's identities the
first r power sums of r numbers determine their multiset, and so do the
first P - 1 power sums of numbers in [1, P] (a Vandermonde system in the
multiplicities), so every k above min(r, P - 1) gives the same count as
that clamp.  The fully naive double loop survives in the test suite as
an independent oracle.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import ENUMERATION_GUARD, _check_int
from .errors import ResourceGuardError

__all__ = ["VmvtInstance"]


class VmvtInstance(namedtuple("VmvtInstance", "r k P count")):
    """Box parameters (r, k, P) and the exact collision count they give.

    count is computed at construction by r rounds of the power-sum dynamic
    program with k clamped to min(k, r, P - 1); P = 1 gives a count of 1
    with no round.  Raises ResourceGuardError, before any round, when
    r * P times the smaller of the multiset count C(P+r-1, r) and the
    power-sum box exceeds ENUMERATION_GUARD.  The field count shadows
    tuple.count.
    """

    __slots__ = ()

    def __new__(cls, r: int, k: int, P: int) -> VmvtInstance:
        _check_int("r", r, least=1)
        _check_int("k", k, least=1)
        _check_int("P", P, least=1)
        if P == 1:  # the box [1, 1]^(2r) holds one tuple, for every r
            return super().__new__(cls, r, k, P, 1)
        top = min(k, r, P - 1)  # the highest power compared: a larger k changes no count
        _check_guard(r, top, P)
        radix = r * P**top + 1  # above every coordinate sum after r rounds
        steps = [sum(n**j * radix ** (j - 1) for j in range(1, top + 1)) for n in range(1, P + 1)]
        state = {0: 1}
        for _ in range(r):
            reached: dict[int, int] = {}
            for key, mult in state.items():
                for step in steps:
                    vector = key + step
                    reached[vector] = reached.get(vector, 0) + mult
            state = reached
        return super().__new__(cls, r, k, P, sum(mult * mult for mult in state.values()))

    def __getnewargs__(self) -> tuple[int, int, int]:
        return self.r, self.k, self.P


def _check_guard(rounds: int, k: int, P: int) -> None:
    """Reject, before any work, when `rounds` rounds may exceed the guard.

    k must already be clamped.  A round updates at most P entries per live
    vector.  The live vectors never outnumber the multisets
    C(P+rounds-1, rounds), nor the box of power-sum vectors that `rounds`
    variables reach, whose coordinate j takes rounds * (P^j - 1) + 1 values.
    """
    live = ENUMERATION_GUARD // (rounds * P)  # most live vectors the guard allows
    if live >= 1 and math.comb(P + rounds - 1, rounds) <= live:
        return
    box = 1
    for j in range(1, k + 1):
        box *= rounds * (P**j - 1) + 1
        if box > live:
            raise ResourceGuardError(
                f"r * P * live vectors for r={rounds}, k={k}, P={P} exceeds the "
                f"enumeration guard {ENUMERATION_GUARD} dictionary updates"
            )
