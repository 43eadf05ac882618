"""Exact desk-scale statistics of the base-q digits of Mersenne numbers.

The library computes, with exact integer and rational arithmetic wherever
a tolerance would otherwise creep in:

- exponential sums over prime powers and over Mersenne exponents, with
  prime-power moduli far beyond double precision;
- the multiplicative-order lifting structure of a unit modulo q^n;
- digit-window counts of 2^p - 1 in base q, their uniformity deviations,
  exact star discrepancy, and an Erdos-Turan upper bound certifying it;
- exact power-sum collision counts (mean-value counts) over small boxes.

Every exponential sum is one sequential pass over its stream, Kahan-summed
in a fixed block order on float pairs (real and imaginary parts), and the
Erdos-Turan inner sums are exact sums rounded once (the bits of math.fsum),
so results are reproducible bit for bit.

Each module's __all__ is the one list of its public names: the package
re-exports every one of them, and its own __all__ joins those lists.
"""

from .arith import *
from .digits import *
from .errors import *
from .expsum import *
from .order import *
from .primes import *
from .vmvt import *

__version__ = "0.1.0"

__all__ = (
    arith.__all__
    + digits.__all__
    + errors.__all__
    + expsum.__all__
    + order.__all__
    + primes.__all__
    + vmvt.__all__
)
