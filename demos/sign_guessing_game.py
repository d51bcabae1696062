"""The distributed sign-guessing game, classical vs. entangled.

A referee hands player i a coin y_i and a setting x_i (settings drawn
with probability proportional to |g|); each player broadcasts one bit
and the group guesses y_1...y_k sign(g).  Broadcasting y_i times a local
measurement outcome converts Bell violation into guessing advantage:
cos^2(pi/8) vs 3/4 for the two-player game, and certainty vs 3/4 for the
three-player one.  Omitting any single broadcast kills the edge: the
guess then carries that player's fair coin, which is what a state with
no correlations at all (visibility 0) gives.
"""

import math

from bellpersist import qccr


def main():
    game = qccr.chsh_game()
    print("two-player game:")
    print(f"  best classical success: {qccr.classical_best(game):.4f}")
    print(f"  entangled protocol:     {qccr.quantum_success(game):.6f}"
          f"  (= cos^2(pi/8) = {math.cos(math.pi / 8) ** 2:.6f})")
    r = qccr.simulate(game, trials=200_000, seed=42)
    print(f"  simulated ({r.trials} rounds, seed {r.seed}): "
          f"{r.success_rate:.4f} +- {r.stderr:.4f}")
    r = qccr.simulate(game, trials=200_000, seed=42, strategy=[[1, 1], [1, 1]])
    print(f"  best classical strategy simulated:  {r.success_rate:.4f}")
    control = qccr.GameSpec(game.functional, game.turns, qccr.VisibilityModel(0.0))
    r = qccr.simulate(control, trials=200_000, seed=42)
    print(f"  one broadcast dropped (v = 0 control): {r.success_rate:.4f}")
    print()

    game3 = qccr.makb_game(3)
    print("three-player game (perfect correlations):")
    print(f"  best classical success: {qccr.classical_best(game3):.4f}")
    print(f"  entangled protocol:     {qccr.quantum_success(game3):.4f}")
    r = qccr.simulate(game3, trials=100_000, seed=7)
    print(f"  simulated: {r.success_rate:.4f}")
    print()

    print("symmetrized play (any subset of the register measures):")
    big = qccr.makb_game(8, n_total=9)
    print(f"  blocks of 8 inside 9 parties: quantum {qccr.quantum_success(big):.4f} "
          f"vs classical {qccr.classical_best(big):.4f}  -> every 8-subset wins")
    small = qccr.makb_game(4, n_total=5)
    print(f"  blocks of 4 inside 5 parties: quantum {qccr.quantum_success(small):.4f} "
          f"vs classical {qccr.classical_best(small):.4f}  -> dilution wins")


if __name__ == "__main__":
    main()
