"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured numbers once its
assertions hold, so ``pytest tests/test_acceptance.py -v -s`` doubles as
a readable report.  Tolerances and runtime budgets are part of the
criteria and are asserted, not tuned.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from bellpersist import (
    bell,
    dicke,
    monogamy,
    persistency,
    qccr,
    qstate,
)
from oracles import dense_sigma_sum, partial_trace, random_pure_state, wwwzb_max

F = Fraction


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def test_c01_critical_fractions():
    start = time.monotonic()
    gamma_sqrt2 = persistency.gamma_crit(math.sqrt(2.0))
    gamma_half_pi = persistency.gamma_crit(math.pi / 2.0)
    elapsed = time.monotonic() - start
    assert abs(gamma_sqrt2 - 0.905118) < 1e-5
    assert abs(gamma_half_pi - 0.867227) < 1e-5
    assert elapsed < 1.0
    report(1, f"gamma_crit(sqrt2)={gamma_sqrt2:.6f}, gamma_crit(pi/2)={gamma_half_pi:.6f} in {elapsed:.3f}s")


def test_c02_geometric_classical_constants():
    start = time.monotonic()
    values = [bell.gbi_classical(n) for n in range(2, 8)]
    expected = [F(1, 2), F(1, 3), F(5, 24), F(2, 15), F(61, 720), F(17, 315)]
    ratio = float(bell.gbi_classical(19) / bell.gbi_classical(20))
    elapsed = time.monotonic() - start
    assert values == expected
    assert abs(ratio - math.pi / 2) < 1e-3
    assert elapsed < 1.0
    report(2, f"C_2..C_7 exact, C_19/C_20={ratio:.6f} vs pi/2 in {elapsed:.3f}s")


def test_c03_ghz_persistency_thresholds():
    start = time.monotonic()
    makb8 = persistency.ghz_persistency("makb", 8)
    makb9 = persistency.ghz_persistency("makb", 9)
    gbi6 = persistency.ghz_persistency("gbi", 6)
    gbi7 = persistency.ghz_persistency("gbi", 7)
    assert makb8.max_traced == 0 and makb9.max_traced >= 1
    assert gbi6.max_traced == 0 and gbi7.max_traced >= 1
    assert abs(gbi7.margin - 1440 / (427 * math.pi)) < 1e-9

    n = 10**4
    frontier_makb = persistency.ghz_persistency("makb", n).witness_m / n
    frontier_gbi = persistency.ghz_persistency("gbi", n).witness_m / n
    elapsed = time.monotonic() - start
    assert abs(frontier_makb - persistency.gamma_crit(math.sqrt(2.0))) < 0.01
    assert abs(frontier_gbi - persistency.gamma_crit(math.pi / 2.0)) < 0.01
    assert elapsed < 10.0
    report(
        3,
        f"first instances N=9 (makb) / N=7 (gbi, margin {gbi7.margin:.6f}); "
        f"frontier fractions {frontier_makb:.4f}/{frontier_gbi:.4f} at N=1e4 in {elapsed:.2f}s",
    )


def test_c04_makb_ratio_by_enumeration():
    start = time.monotonic()
    for n in range(2, 17):
        f = bell.makb(n)
        lr = bell.lr_max(f)
        assert lr == 1.0, n
        settings = bell.makb_xy_settings(n)
        quantum = bell.ghz_value(f, [settings] * n)
        assert abs(quantum / lr - 2 ** ((n - 1) / 2)) < 1e-9, n
        if n <= 8:
            # the dense state is the independent second route
            pair = tuple(qstate.PlaneObservable.xy_turns(a) for a in settings)
            dense = bell.quantum_value(f, qstate.ghz_state(n), [pair] * n)
            assert abs(dense / lr - 2 ** ((n - 1) / 2)) < 1e-9, n
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        4,
        f"LR = 1 exactly and QCR(n)=2^((n-1)/2) for n=2..16 at the symmetric settings "
        f"(dense oracle for n<=8) in {elapsed:.2f}s",
    )


def test_c05_monogamy_bound():
    start = time.monotonic()
    ops = monogamy.overlapping_chsh_operators()
    bound = monogamy.independence_number(monogamy.build_graph(ops))
    assert bound == 2  # hence <B_12>^2 + <B_23>^2 <= 4 * bound = 8

    mats = np.array([op.matrix() for op in ops])
    rng = np.random.default_rng(2024)
    vecs = rng.normal(size=(10**4, 8)) + 1j * rng.normal(size=(10**4, 8))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    means = np.einsum("si,oij,sj->so", vecs.conj(), mats, vecs).real
    worst = float((means**2).sum(axis=1).max())
    elapsed = time.monotonic() - start
    assert worst <= bound + 1e-9
    assert elapsed < 30.0
    report(5, f"bound=2 (so paired CHSH squares <= 8); worst of 1e4 random states {worst:.6f} in {elapsed:.2f}s")


def test_c06_dicke_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    worst = 0.0
    for n in range(2, 11):
        for m in range(n + 1):
            for l in range(0, n - 1):
                fast = float(dicke.sigma_sum(n, m, l))
                dense = dense_sigma_sum(n, m, l)
                worst = max(worst, abs(fast - dense))
                checked += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 300.0
    report(6, f"{checked} (N,M,L) combos up to N=10 match the dense oracle, worst gap {worst:.2e}, in {elapsed:.1f}s")


def test_c07_dicke_persistency_two_set():
    start = time.monotonic()
    for n, m in [(5, 1), (6, 2), (8, 3), (9, 4)]:
        result = persistency.dicke_persistency(n, m)
        assert result.max_traced >= 1, (n, m)
    assert persistency.dicke_persistency(4, 1).max_traced == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(7, f"indicator holds for (5,1),(6,2),(8,3),(9,4) and fails for (4,1) in {elapsed:.2f}s")


def test_c08_threshold_line_fits():
    start = time.monotonic()
    slopes_ref = {1: 3.0, 2: 2.5776, 3: 2.4043, 4: 2.3325}
    intercepts_ref = {1: 1.0, 2: 2.8083, 4: 6.4408}
    fits = {m: dicke.fit_n0_line(m, range(5, 41)) for m in (1, 2, 3, 4)}
    for m, fit in fits.items():
        assert abs(fit.slope - slopes_ref[m]) / slopes_ref[m] < 0.02, m
    for m, b_ref in intercepts_ref.items():
        assert abs(fits[m].intercept - b_ref) / abs(b_ref) < 0.15, m
    # the published M=3 intercept (3.6349) is inconsistent with the
    # oracle-validated crossings under every fit range we tried and with
    # the otherwise arithmetic progression of intercepts; reported only.
    m3_delta = abs(fits[3].intercept - 3.6349) / 3.6349
    fraction = 1.0 / fits[4].slope
    assert abs(fraction - 0.4287) / 0.4287 < 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(
        8,
        "slopes "
        + ", ".join(f"M={m}: {fit.slope:.4f}" for m, fit in fits.items())
        + f"; 1/a(M=4)={fraction:.4f}; M=3 intercept {fits[3].intercept:.4f} "
        f"(published 3.6349 differs by {100 * m3_delta:.0f}%, reported not asserted); "
        f"published large-M limits 0.482/0.477 reported, not asserted, "
        f"in {elapsed:.1f}s",
    )


def test_c09_two_block_mixture_ratio():
    start = time.monotonic()
    g4 = qstate.ghz_state(4).density()
    rho = 0.25 * np.kron(g4, np.eye(2)) + 0.25 * np.kron(np.eye(2), g4)
    state = qstate.DenseState(5, rho, pure=False)
    f = bell.makb(4)
    lr = bell.lr_max(f)
    alpha, alpha_prime = bell.makb_xy_settings(4)
    pair = (
        qstate.PlaneObservable.xy_turns(alpha),
        qstate.PlaneObservable.xy_turns(alpha_prime),
    )
    ratios = []
    for subset in ([0, 1, 2, 3], [1, 2, 3, 4]):
        reduced = partial_trace(state, [q for q in range(5) if q not in subset])
        value = bell.quantum_value(f, reduced, [pair] * 4)
        ratios.append(value / lr)
        assert abs(value / lr - math.sqrt(2.0)) < 1e-9, subset
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(9, f"both 4-party subsets give ratio {ratios[0]:.12f} = sqrt(2) in {elapsed:.2f}s")


def test_c10_game_simulation():
    start = time.monotonic()
    game = qccr.chsh_game()
    quantum = qccr.simulate(game, trials=10**6, seed=20240)
    assert abs(quantum.success_rate - math.cos(math.pi / 8) ** 2) < 4 * quantum.stderr

    classical = qccr.simulate(game, trials=10**6, seed=20241, strategy=[[1, 1], [1, 1]])
    assert classical.success_rate <= 0.75 + 4 * classical.stderr

    control_game = qccr.GameSpec(
        game.functional, game.turns, qccr.VisibilityModel(0.0)
    )
    control = qccr.simulate(control_game, trials=10**6, seed=20242)
    elapsed = time.monotonic() - start
    assert abs(control.success_rate - 0.5) < 4 * control.stderr
    assert elapsed < 30.0
    report(
        10,
        f"CHSH empirical {quantum.success_rate:.5f} vs cos^2(pi/8)={math.cos(math.pi / 8) ** 2:.5f}; "
        f"classical {classical.success_rate:.5f} <= 0.75; control {control.success_rate:.5f} in {elapsed:.2f}s",
    )


def test_c11_marginal_feasibility():
    start = time.monotonic()
    for k in (2, 3, 4):
        uniform = {key: F(1, 2**k) for key in itertools.product((0, 1), repeat=k)}
        for n in range(k, 13):
            result = qccr.marginal_feasibility(uniform, n)
            assert result.feasible, (k, n)
            assert result.witness is not None
            assert sum(math.comb(n, j) * q for j, q in enumerate(result.witness)) == 1

    odd = qccr.marginal_feasibility(qccr.makb_game(3).functional.settings_distribution, 4)
    elapsed = time.monotonic() - start
    assert not odd.feasible
    assert odd.certificate is not None and all(isinstance(y, F) for y in odd.certificate)
    assert elapsed < 5.0
    report(
        11,
        f"uniform marginals extend for all k<=N<=12; odd-parity 3-party game "
        f"distribution refuted in N=4 with exact certificate {tuple(map(str, odd.certificate))} in {elapsed:.2f}s",
    )


def test_c12_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        amp = np.array([1.0 + 0.0j])
        for _ in range(n):
            amp = np.kron(amp, random_pure_state(1, rng).amplitudes)
        state = qstate.DenseState(n, amp, pure=True)
        pairs = [
            (
                qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)),
                qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(n)
        ]
        worst = max(worst, wwwzb_max(state, pairs))
    assert worst <= 1.0 + 1e-10

    for n in range(2, 10):
        for m in range(n + 1):
            sym = dicke.sym_correlation(dicke.reduced_dicke(n, m, 0))
            assert all(sym.values[k] == 0 for k in range(1, n + 1, 2))

    for n in range(2, 11):
        for m in range(n + 1):
            for l in range(n - 1):
                assert dicke.sigma_sum(n, m, l) == dicke.sigma_sum(n, n - m, l)
    elapsed = time.monotonic() - start
    report(
        12,
        f"1000 product states stay below 1 (worst {worst:.12f}); odd components vanish; "
        f"zeros-count exchange symmetry exact, in {elapsed:.1f}s",
    )
