"""Exact constants of the equatorial geometric Bell inequality.

With a continuum of equatorial settings the quantum value is the mean of
|cos(2 pi sum alpha_i)|, which is 2/pi for any number of parties, while
the optimal classical value C_n is an exact rational: the count of
alternating permutations over n!.  Their ratio therefore grows like
(pi/2)^n.  Two independent exact routes (the permutation recurrence and
truncated means of the Irwin-Hall law for the defining sign integral)
agree term by term.
"""

import math

from bellpersist import bell


def main():
    print(" n   classical C_n        float      quantum    ratio")
    for n in range(2, 13):
        c = bell.gbi_classical(n)
        print(f"{n:2d}   {str(c):>12s}   {float(c):10.6f}   {2 / math.pi:.6f}"
              f"   {bell.gbi_qcr(n):10.4f}")
    print()
    for n in range(2, 9):
        assert bell.gbi_classical_by_integration(n) == bell.gbi_classical(n)
    print("integration route reproduces the recurrence exactly for n <= 8")
    ratio = float(bell.gbi_classical(19) / bell.gbi_classical(20))
    print(f"C_19/C_20 = {ratio:.9f}  vs  pi/2 = {math.pi / 2:.9f}")


if __name__ == "__main__":
    main()
