"""How many parties a Dicke state can lose before the correlation
indicator gives up.

Tracing L of N qubits out of the Dicke state with M zeros leaves a
binomial mixture of smaller Dicke states.  The sum of squared x/z
correlation-tensor entries is an exact integer ratio S / C(N, M)^2;
above 1 it is sufficient (Zukowski-Brukner) for the reduced state to
violate a two-setting full-correlation Bell inequality.  Scanning N at
fixed (M, L) gives threshold sizes N0 that grow linearly in L; the
inverse slope is the asymptotic fraction of parties that may be lost.
"""

from bellpersist import dicke, persistency


def main():
    print("first survivable loss per excitation count:")
    for n, m in [(5, 1), (6, 2), (8, 3), (9, 4)]:
        r = persistency.dicke_persistency(n, m)
        print(f"  N={n}, M={m}: max traced {r.max_traced} "
              f"(margin {r.margin:.4f})")
    print()

    print("threshold sizes N0(M, L) with linear fits N0 = a L + b:")
    for m in (1, 2, 3, 4):
        pts = [(l, dicke.solve_n0(m, l)) for l in (5, 10, 20, 40)]
        fit = dicke.fit_n0_line(m, range(5, 41))
        sample = ", ".join(f"L={l}: {n0:.2f}" for l, n0 in pts)
        print(f"  M={m}: {sample}")
        print(f"        a = {fit.slope:.4f}, b = {fit.intercept:.4f}, "
              f"rms {fit.rms_residual:.4f}, asymptotic loss fraction "
              f"1/a = {1 / fit.slope:.4f}")
    print()
    print("the loss fraction grows with the excitation count M, "
          "approaching roughly 0.48 of all parties")


if __name__ == "__main__":
    main()
