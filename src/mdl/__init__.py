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
Erdos-Turan inner sums are correctly rounded by math.fsum, so results are
reproducible bit for bit.
"""

from .arith import (
    is_prime,
    padic_valuation,
    prime_power,
    stepped_powers,
    unit_circle_value,
)
from .digits import (
    DigitCountReport,
    count_blocks,
    digit_block,
    discrepancy,
    erdos_turan_bound,
    fractional_part_check,
    mersenne_residues,
)
from .errors import PreconditionError, ResourceGuardError, SelfCheckError
from .expsum import (
    ExpSumResult,
    log_ratio,
    mangoldt_exp_sum,
    mersenne_prime_sum,
)
from .order import (
    OrderStructure,
    congruence_criterion,
    excess_valuation,
    order_mod_power,
    order_structure,
    valuation_difference,
)
from .primes import (
    PrimeRange,
    mangoldt_terms,
    primes_up_to,
)
from .vmvt import VmvtInstance, monotonicity_check, vmvt_count

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "is_prime",
    "padic_valuation",
    "prime_power",
    "stepped_powers",
    "unit_circle_value",
    "DigitCountReport",
    "count_blocks",
    "digit_block",
    "discrepancy",
    "erdos_turan_bound",
    "fractional_part_check",
    "mersenne_residues",
    "PreconditionError",
    "ResourceGuardError",
    "SelfCheckError",
    "ExpSumResult",
    "log_ratio",
    "mangoldt_exp_sum",
    "mersenne_prime_sum",
    "OrderStructure",
    "congruence_criterion",
    "excess_valuation",
    "order_mod_power",
    "order_structure",
    "valuation_difference",
    "PrimeRange",
    "mangoldt_terms",
    "primes_up_to",
    "VmvtInstance",
    "monotonicity_check",
    "vmvt_count",
]
