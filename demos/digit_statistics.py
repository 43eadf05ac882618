"""Do base-q digits of 2^p - 1 equidistribute as p runs over primes?

Counts primes by a digit window and watches the worst deviation from the
uniform share shrink as X grows; also shows the one base where position 0
provably cannot equidistribute.

Run:  python3 demos/digit_statistics.py
"""

from __future__ import annotations

from mdl import DigitCountReport, digit_block


def main() -> None:
    print("window: digit at position 25 of 2^p - 1 in base 3")
    print(f"{'X':>9} {'pi(X)':>7} {'counts':>24} {'max |dev|':>10}")
    for X in (10**4, 10**5, 10**6):
        rep = DigitCountReport(3, r=25, s=1, X=X)
        counts = " ".join(f"{rep.counts[v]:>7}" for v in range(3))
        print(f"{X:>9} {rep.pi_X:>7} {counts:>24} {rep.max_abs_deviation:>10.5f}")
    print("uniform share would be 1/3 per digit value; the deviation falls\n")

    print("two-digit window at positions 26..25, base 3, X = 10^5")
    rep = DigitCountReport(3, r=26, s=2, X=10**5)
    for value in range(9):
        bar = "#" * round(rep.counts[value] / rep.pi_X * 180)
        print(f"  window {value}: {rep.counts[value]:>5}  {bar}")
    print(f"  max |dev| = {rep.max_abs_deviation:.5f}\n")

    print("base 7 is different at position 0: 2^p mod 7 cycles through")
    print("{2, 4, 1}, so the last digit of 2^p - 1 only ever hits {1, 3, 0}")
    rep = DigitCountReport(7, r=0, s=1, X=10**4)
    for value in range(7):
        print(f"  digit {value}: {rep.counts[value]:>5}")
    sample = {p: digit_block(p, 7, 0, 1) for p in (2, 3, 5, 7, 11, 13)}
    print(f"  first few primes map to {sample}")


if __name__ == "__main__":
    main()
