"""Party-loss thresholds for symmetrized GHZ-block mixtures.

Handing an M-party GHZ block to a uniformly random M-subset of N parties
dilutes every subgroup correlator by 1/C(N, M).  Because the
quantum-to-classical ratio grows like b * a^M, large enough registers
tolerate losing parties: the first loss becomes survivable at N = 9 for
the Mermin-type family (a = sqrt 2) and already at N = 7 for the
geometric one (a = pi/2).  Asymptotically the preserved fraction tends
to the root of H(gamma) = gamma log2 a.
"""

import math

from bellpersist import persistency


def main():
    for label, family, a in (("mermin-type", "makb", math.sqrt(2.0)),
                             ("geometric", "gbi", math.pi / 2.0)):
        print(f"--- {label} family (a = {a:.4f}) ---")
        for n in range(4, 13):
            r = persistency.ghz_persistency(family, n)
            print(f"  N={n:3d}: lose up to {r.max_traced} "
                  f"(subgroup {r.witness_m}, margin {r.margin:.4f})")
        gamma = persistency.gamma_crit(a)
        print(f"  critical preserved fraction gamma = {gamma:.6f}")
        for n in (100, 1000, 10**4):
            frac = persistency.ghz_persistency(family, n).witness_m / n
            print(f"  frontier fraction at N={n}: {frac:.4f}")
        print(f"  => about {100 * (1 - gamma):.1f}% of parties are expendable "
              f"in the large-N limit")
        print()


if __name__ == "__main__":
    main()
