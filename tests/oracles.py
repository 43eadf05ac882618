"""Independent reference implementations used to validate the library.

Everything here recomputes values from definitions, by a different route
than the library takes: trial division instead of sieving, full integer
expansion instead of modular windows, fractional-part intervals instead
of digit division, plain sums with cmath instead of compensated blocked
sums, one complex phase per term instead of float pairs, and exhaustive
orbit walks instead of closed forms.  Slow on purpose; sized for test
boxes only.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby

import numpy as np

from mdl.expsum import kahan_sum
from mdl.primes import BLOCK_WIDTH


def primes_by_trial_division(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def mangoldt_by_factoring(n: int) -> float:
    """log p if n is a positive power of the prime p, else 0."""
    if n < 2:
        return 0.0
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n)


def order_full_scan(g: int, modulus: int) -> int:
    """Multiplicative order by literal repeated multiplication."""
    x = g % modulus
    count = 1
    while x != 1:
        x = x * g % modulus
        count += 1
    return count


def orders_by_stride_scan(q: int, g: int, n_max: int, table_cap: int = 1 << 16) -> list[int]:
    """Orders of g mod q^n for n = 1..n_max, by exhaustive orbit walking.

    The order mod q comes from order_full_scan.  The order mod q^n is a
    multiple of it (a power congruent to 1 mod q^n is congruent to 1 mod
    q), so the walk steps through y = g^order_mod_q and counts orbit
    length.  Long orbits are scanned in vectorized blocks against a table
    of powers of y; the scan is still exhaustive, never a closed form.
    """
    tau = order_full_scan(g, q)
    top = q**n_max
    y_top = 1
    for _ in range(tau):
        y_top = y_top * g % top

    table: np.ndarray | None = None
    orders: list[int] = []
    for n in range(1, n_max + 1):
        m = q**n
        y = y_top % m
        if y == 1:
            orders.append(tau)
            continue
        k, v = 1, y
        while v != 1 and k < 4096:
            v = v * y % m
            k += 1
        if v == 1:
            orders.append(tau * k)
            continue
        if table is None:
            # powers y_top^0 .. y_top^(cap-1) mod q^n_max, doubled with numpy;
            # q^n_max stays below 2^31 so products fit in int64
            table = np.array([1], dtype=np.int64)
            val = y_top
            while table.size < table_cap:
                table = np.concatenate([table, (val * table) % top])
                val = val * val % top
        table_m = table % m
        step = int(table_m[-1]) * y % m  # y^cap mod m
        base = v * y % m
        k += 1
        while True:
            hits = np.flatnonzero((base * table_m) % m == 1)
            if hits.size:
                orders.append(tau * (k + int(hits[0])))
                break
            base = base * step % m
            k += table_cap
    return orders


def powers_by_direct_pow(base: int, exponents: list[int], modulus: int) -> list[int]:
    """base**e mod modulus by one full modular exponentiation per exponent."""
    return [pow(base, e, modulus) for e in exponents]


def digit_window_by_expansion(p: int, q: int, r: int, s: int) -> int:
    """Digit window read from the full base-q expansion of 2**p - 1."""
    m = 2**p - 1
    digits = []
    while m:
        m, d = divmod(m, q)
        digits.append(d)
    value = 0
    for pos in range(r, r - s, -1):
        value = value * q + (digits[pos] if pos < len(digits) else 0)
    return value


def window_hits_by_fractional_part(p: int, q: int, r: int, s: int) -> list[bool]:
    """Whether frac((2**p - 1) / q**(r+1)) lies in [v / q**s, (v+1) / q**s), per v.

    Entry v is True for exactly one v in [0, q**s): the value of the digit
    window r..r-s+1, by the reduction from digit windows to the points
    M_p / q^(r+1).  The residue comes from the full integer 2**p - 1, and
    both sides of each comparison are multiplied out to exact integers:
    v * q**(r+1) <= residue * q**s < (v+1) * q**(r+1).
    """
    modulus = q ** (r + 1)
    scaled = (2**p - 1) % modulus * q**s
    return [v * modulus <= scaled < (v + 1) * modulus for v in range(q**s)]


def star_discrepancy_by_threshold_sweep(residues: list[int], modulus: int) -> Fraction:
    """Exact star discrepancy via every grid threshold, left and right limits.

    The points are residue/modulus; the empirical-vs-uniform gap is
    piecewise linear between grid points, so its sup is attained at a
    threshold v/modulus approached from one side or the other.
    """
    n = len(residues)
    best = Fraction(0)
    for v in range(modulus + 1):
        t = Fraction(v, modulus)
        below = sum(1 for x in residues if Fraction(x, modulus) < t)
        at_or_below = sum(1 for x in residues if Fraction(x, modulus) <= t)
        best = max(best, abs(Fraction(below, n) - t), abs(Fraction(at_or_below, n) - t))
    return best


def star_discrepancy_by_max_formula(residues: list[int], modulus: int) -> float:
    """Exact star discrepancy by the maximum formula, one Python int pair per point.

    With x_(i) the i-th smallest of the N residues, the largest of
    i * modulus - x_(i) * N and x_(i) * N - (i - 1) * modulus, over
    N * modulus: the scalar loop that the library's numpy arrays replaced,
    one correctly rounded int / int at the end.
    """
    residues = sorted(residues)
    n = len(residues)
    best = 0
    for i, residue in enumerate(residues, start=1):
        up = i * modulus - residue * n
        down = residue * n - (i - 1) * modulus
        if up > best:
            best = up
        if down > best:
            best = down
    return best / (n * modulus)


def mangoldt_sum_by_direct_powers(Q: int, a: int, g: int, X: int) -> complex:
    """Weighted phase sum with exact integer powers and cmath, no blocking."""
    total = 0j
    for n in range(2, X + 1):
        weight = mangoldt_by_factoring(n)
        if weight:
            total += weight * cmath.exp(2j * cmath.pi * ((a * g**n) % Q) / Q)
    return total


def mersenne_sum_by_direct_powers(Q: int, a: int, X: int) -> complex:
    """Phase sum over primes with exact integer 2**p - 1 and cmath."""
    total = 0j
    for p in primes_by_trial_division(X):
        total += cmath.exp(2j * cmath.pi * ((a * (2**p - 1)) % Q) / Q)
    return total


def unit_circle_value(value: int, modulus: int) -> complex:
    """exp(2*pi*i*value/modulus) for exact integers 0 <= value < modulus.

    The ratio value/modulus is formed by one correctly-rounded conversion
    of the exact rational to binary floating point (CPython's int/int
    division), so the phase error is at most one ulp of the ratio even
    when the modulus exceeds 2**53.  The angle tau * ratio is the one
    expsum._phase_sum forms.
    """
    angle = math.tau * (value / modulus)
    return complex(math.cos(angle), math.sin(angle))


def phase_sum_by_blocked_kahan(
    terms: list[tuple[int, float, int]], modulus: int
) -> tuple[complex, float, int]:
    """The blocked phase sum as complex Kahan sums of one complex phase per term.

    Each block of n // BLOCK_WIDTH sums weight * unit_circle_value(residue)
    and the weights with kahan_sum; the block totals are Kahan-summed in
    block order.  This fixes the bits of every frozen exponential sum.
    """
    sums, weights = [], []
    for _, block in groupby(terms, lambda term: term[0] // BLOCK_WIDTH):
        block = list(block)
        sums.append(kahan_sum(w * unit_circle_value(r, modulus) for _, w, r in block))
        weights.append(kahan_sum(w for _, w, _ in block))
    return kahan_sum(sums), kahan_sum(weights).real, len(terms)


def erdos_turan_by_unreduced_phases(
    q: int, gamma: int, X: int, H: int
) -> float:
    """Discrepancy bound with no modulus reduction for h divisible by q."""
    Q = q**gamma
    residues = [(2**p - 1) % Q for p in primes_by_trial_division(X)]
    n = len(residues)
    total = 0.0
    for h in range(1, H + 1):
        inner = sum(cmath.exp(2j * cmath.pi * ((h * x) % Q) / Q) for x in residues)
        total += abs(inner) / (h * n)
    return 1.0 / (H + 1) + 3.0 * total


def erdos_turan_by_fsum(residues: list[int], modulus: int, H: int) -> float:
    """The discrepancy bound with int / int phase ratios and math.fsum sums.

    The same numpy cos and sin of the same correctly rounded ratios as the
    library, weighted by multiplicity; each weighted real and imaginary
    part is added by fsum, exact and rounded once.
    """
    multiplicity = Counter(residues)
    weights = np.array(list(multiplicity.values()), dtype=float)
    total = 0.0
    for h in range(1, H + 1):
        ratios = np.array([h * x % modulus / modulus for x in multiplicity])
        angles = math.tau * ratios
        real = math.fsum((weights * np.cos(angles)).tolist())
        imag = math.fsum((weights * np.sin(angles)).tolist())
        total += abs(complex(real, imag)) / (h * len(residues))
    return 1.0 / (H + 1) + 3.0 * total


def vmvt_by_double_loop(r: int, k: int, P: int) -> int:
    """Literal enumeration of both sides of the power-sum system."""
    from itertools import product

    def key(tup: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(n**j for n in tup) for j in range(1, k + 1))

    count = 0
    for left in product(range(1, P + 1), repeat=r):
        lk = key(left)
        for right in product(range(1, P + 1), repeat=r):
            if key(right) == lk:
                count += 1
    return count


def vmvt_k1_by_polynomial_coefficients(r: int, P: int) -> int:
    """k = 1 count as sum_m ([x^m] (x + ... + x^P)^r)^2, by polynomial products."""
    coefficients = [1]
    for _ in range(r):
        product = [0] * (len(coefficients) + P)
        for m, c in enumerate(coefficients):
            for n in range(1, P + 1):
                product[m + n] += c
        coefficients = product
    return sum(c * c for c in coefficients)
