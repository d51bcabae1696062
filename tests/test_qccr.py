import gc
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume as hypothesis_assume
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpersist import bell, qccr, qstate
from bellpersist.qccr import (
    GameSpec,
    GhzMixture,
    VisibilityModel,
    chsh_game,
    classical_best,
    game_from_json,
    game_to_json,
    gbi_game,
    makb_game,
    marginal_feasibility,
    quantum_success,
    simulate,
)
from oracles import (
    game_distribution_by_entries,
    ghz_mixture_density,
    numerators_by_entries,
    outcome_distribution,
    partial_trace,
    plain_game_from_json,
    plain_game_to_json,
)

F = Fraction


# PINNED_GAMES of test_cli.py, makb on 2..16 players, gbi on two players
# at every grid to 64
_PLAIN_ROUTE_GAMES = (
    [
        pytest.param(chsh_game, id="chsh"),
        pytest.param(lambda: makb_game(3), id="makb3"),
        pytest.param(lambda: makb_game(4, 6), id="makb4in6"),
        pytest.param(lambda: gbi_game(2, grid=16), id="gbi2x16"),
        pytest.param(lambda: gbi_game(3), id="gbi3x32"),
    ]
    + [pytest.param(lambda n=n: makb_game(n), id=f"makb{n}") for n in range(2, 17)]
    + [pytest.param(lambda g=g: gbi_game(2, grid=g), id=f"gbi2x{g}") for g in range(2, 65)]
)


class TestAnalyticValues:
    def test_chsh_classical(self):
        assert classical_best(chsh_game()) == pytest.approx(0.75, abs=1e-12)

    def test_chsh_quantum(self):
        assert quantum_success(chsh_game()) == pytest.approx(
            math.cos(math.pi / 8) ** 2, abs=1e-12
        )

    def test_all_positive_coefficients_trivialize(self):
        f = bell.BellFunctional(2, {k: 0.25 for k in itertools.product((0, 1), repeat=2)})
        game = GameSpec(f, chsh_game().turns, VisibilityModel(1.0))
        assert classical_best(game) == pytest.approx(1.0, abs=1e-12)

    def test_makb3_game(self):
        game = makb_game(3)
        assert classical_best(game) == pytest.approx(0.75, abs=1e-12)
        assert quantum_success(game) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_fair_coin(self):
        game = chsh_game()
        control = GameSpec(game.functional, game.turns, VisibilityModel(0.0))
        assert quantum_success(control) == pytest.approx(0.5, abs=1e-15)

    def test_classical_best_at_least_half(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = {
                k: rng.normal() for k in itertools.product((0, 1), repeat=2)
            }
            f = bell.BellFunctional(2, coeffs)
            game = GameSpec(f, chsh_game().turns, VisibilityModel(1.0))
            assert classical_best(game) >= 0.5

    def test_quantum_beats_classical_iff_lr_exceeded(self):
        game = chsh_game()
        quantum = quantum_success(game)
        classical = classical_best(game)
        value = sum(
            float(c) * 1.0 / math.comb(2, 2) * math.cos(
                sum(2.0 * math.pi * game.turns[i][s] for i, s in enumerate(k))
            )
            for k, c in game.functional.coefficients.items()
        )
        assert (quantum > classical) == (value > bell.lr_max(game.functional))

    def test_symmetrized_advantage_threshold(self):
        # uniformly symmetrized mixtures first beat the classical game at
        # nine parties (blocks of eight); below that the 1/C(N,k)
        # visibility eats the quantum edge
        small = makb_game(4, n_total=5)
        assert quantum_success(small) < classical_best(small)
        big = makb_game(8, n_total=9)
        assert quantum_success(big) > classical_best(big)

    def test_two_block_mixture_beats_classical_on_both_subsets(self):
        # half-weight blocks on parties 0-3 and 1-4: visibility 1/2 keeps
        # the Mermin-type advantage for both four-party ensembles
        game = makb_game(4)
        g4 = qstate.ghz_state(4).density()
        rho = 0.25 * np.kron(g4, np.eye(2)) + 0.25 * np.kron(np.eye(2), g4)
        state = qstate.DenseState(5, rho, pure=False)
        for subset in ([0, 1, 2, 3], [1, 2, 3, 4]):
            reduced = partial_trace(state, [q for q in range(5) if q not in subset])
            assert _dense_success(game, reduced) > classical_best(game)


def _observables(game):
    """Each party's dense observable at each setting: the xy-plane
    observable at 2 pi times its turns radians, the angle the parity
    model plays."""
    return [[qstate.PlaneObservable("xy", 2.0 * math.pi * t) for t in row] for row in game.turns]


def _dense_success(game, state):
    """Success probability of measure-and-broadcast play on a dense state
    holding exactly the measured parties, from bell.quantum_value."""
    value = bell.quantum_value(game.functional, state, _observables(game))
    return 0.5 * (1.0 + value / float(game.functional.abs_total()))


def _dense_correlators(game, state):
    """Dense correlators of the settings tuples, in the table's order."""
    observables = _observables(game)
    return np.array([
        qstate.expectation(state, [observables[i][s] for i, s in enumerate(key)])
        for key in sorted(game.functional.coefficients)
    ])


class TestGhzMixtureModel:
    def test_visibility(self):
        mix = GhzMixture(5, 4)
        assert mix.visibility(4) == pytest.approx(1 / 5)
        assert mix.visibility(3) == 0.0

    def test_dense_realization_matches_model(self):
        game = makb_game(3, n_total=5)
        dense = ghz_mixture_density(5, 3)
        # every 3-subset of the dense mixture gives the one analytic value
        for subset in ([0, 1, 2], [1, 3, 4]):
            reduced = partial_trace(dense, [q for q in range(5) if q not in subset])
            assert _dense_success(game, reduced) == pytest.approx(
                quantum_success(game), abs=1e-12
            )

    def test_outcome_distribution_matches_parity_model(self):
        game = makb_game(2, n_total=2)
        for key in itertools.product((0, 1), repeat=2):
            probs = outcome_distribution(qstate.ghz_state(2), _observables(game), key)
            angle = sum(2.0 * math.pi * game.turns[i][s] for i, s in enumerate(key))
            corr = math.cos(angle)
            expected = np.array(
                [(1 + corr) / 4, (1 - corr) / 4, (1 - corr) / 4, (1 + corr) / 4]
            )
            np.testing.assert_allclose(probs, expected, atol=1e-12)


class TestSimulation:
    def test_chsh_converges(self):
        game = chsh_game()
        result = simulate(game, trials=10**6, seed=7)
        assert abs(result.success_rate - math.cos(math.pi / 8) ** 2) < 4 * result.stderr

    def test_deterministic_given_seed(self):
        game = chsh_game()
        a = simulate(game, trials=20_000, seed=123)
        b = simulate(game, trials=20_000, seed=123)
        assert a.success_rate == b.success_rate

    def test_jobs_merge_independent_of_execution(self):
        game = chsh_game()
        a = simulate(game, trials=30_000, seed=5, jobs=3)
        b = simulate(game, trials=30_000, seed=5, jobs=3)
        assert a.success_rate == b.success_rate

    def test_convergence_over_fifty_seeds(self):
        games = [chsh_game(), makb_game(4)]
        analytic = [quantum_success(g) for g in games]
        for game, expected in zip(games, analytic):
            for seed in range(50):
                result = simulate(game, trials=10**5, seed=seed)
                assert abs(result.success_rate - expected) < 4 * result.stderr, (
                    game.name,
                    seed,
                )

    def test_z_scores_unbiased_over_seeds(self):
        # over 200 seeds the z-scores of the rate against its analytic
        # value have mean 0 and spread 1, as independent streams give
        game = chsh_game()
        z = np.array([
            (r.success_rate - r.analytic) / r.stderr
            for r in (simulate(game, trials=10**4, seed=seed) for seed in range(200))
        ])
        assert abs(z.mean()) < 4 / math.sqrt(len(z)), z.mean()
        assert 0.8 <= z.std() <= 1.2, z.std()

    def test_classical_strategy_bounded(self):
        game = chsh_game()
        result = simulate(game, trials=10**6, seed=11, strategy=[[1, 1], [1, 1]])
        assert result.success_rate <= 0.75 + 3 * result.stderr

    def test_zero_visibility_control(self):
        game = chsh_game()
        control = GameSpec(game.functional, game.turns, VisibilityModel(0.0))
        result = simulate(control, trials=10**6, seed=13)
        assert abs(result.success_rate - 0.5) < 3 * result.stderr

    def test_omitting_any_broadcast_destroys_correlation(self):
        # the library plays this as the zero-visibility control; the +-1
        # reference still plays the protocol with one broadcast left out
        game = chsh_game()
        components, probs, coeffs, corr = qccr._settings_table(game)
        trials = 10**5
        for player in (0, 1):
            successes = _signed_chunk(
                np.random.default_rng(17), trials, probs, np.sign(coeffs), corr,
                2, None, components, player,
            )
            rate = successes / trials
            # success indistinguishable from coin flipping
            assert abs(rate - 0.5) < 4 * math.sqrt(rate * (1 - rate) / trials)

    def test_dense_oracle_sampling_matches_model(self):
        # the parity kernel plays the dense GHZ correlators as it plays
        # the model's table
        game = makb_game(3)
        _, probs, coeffs, corr = qccr._settings_table(game)
        dense = _dense_correlators(game, qstate.ghz_state(3))
        np.testing.assert_allclose(dense, corr, atol=1e-12)
        trials = 10**5
        rates = [_play_chunk(29, trials, probs, coeffs, c) / trials for c in (corr, dense)]
        sigma = math.hypot(*(max(math.sqrt(r * (1 - r) / trials), 1e-4) for r in rates))
        assert abs(rates[0] - rates[1]) < 4 * sigma

    def test_memory_flat_in_trials(self):
        # a chunk holds one block's arrays however many rounds it plays
        game = chsh_game()
        simulate(game, 10, 1)
        peaks = []
        for trials in (2**17, 2**21):
            tracemalloc.start()
            try:
                simulate(game, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # at most four float64 arrays of 2**16 rounds more, fixed here so
        # that a larger block fails too
        assert peaks[1] <= peaks[0] + 4 * 8 * 2**16, peaks

    def test_memory_flat_in_jobs(self):
        # streams are seeded one at a time and share one set of buffers:
        # a stream per round peaks within 64 KiB of one stream
        game = chsh_game()
        simulate(game, 10, 1)
        peaks = []
        for jobs in (1, 20_000):
            tracemalloc.start()
            try:
                simulate(game, 20_000, 1, jobs=jobs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks

    def test_chunk_peak_flat_in_blocks(self):
        # the chunk writes every block into its buffers: it peaks alike at
        # 2 and 30 blocks, within 16 KiB (the interpreter's free lists
        # refill as it runs), less than a block's smallest array, its 32
        # KiB of flags; and at most numpy's iterator buffers (8192
        # elements of 8 bytes each, for the strided and casting passes)
        # above the buffers themselves, which are made outside
        _, probs, coeffs, corr = qccr._settings_table(gbi_game(3))
        table, negative, bias = qccr._guide_table(probs), coeffs < 0, 0.5 * (1.0 + corr)
        buffers = qccr._play_buffers(qccr._BLOCK)
        # first-call set-up out of the traced calls
        qccr._simulate_chunk(np.random.default_rng(5), 2 * qccr._BLOCK, *table, negative, bias, buffers)
        peaks = []
        for blocks in (2, 30):
            rng = np.random.default_rng(5)
            tracemalloc.start()
            try:
                qccr._simulate_chunk(rng, blocks * qccr._BLOCK, *table, negative, bias, buffers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 16 * 1024, peaks
        assert max(peaks) <= 2 * 8 * 8192, peaks

    @pytest.mark.parametrize(
        "trials,jobs", [(40_000, 1), (40_000, 2), (40_000, 3), (40_000, 7), (3_000, 3_000)]
    )
    def test_streams_are_spawned_children(self, trials, jobs):
        # stream i, seeded alone, plays as child i of one spawn(jobs)
        game, seed = gbi_game(2, grid=16), 9
        k = game.n_parties
        components, probs, coeffs, corr = qccr._settings_table(game)
        counts = [trials // jobs + (i < trials % jobs) for i in range(jobs)]
        expected = sum(
            _signed_chunk(
                np.random.default_rng(child), n, probs, np.sign(coeffs), corr,
                k, None, components, None,
            )
            for child, n in zip(np.random.SeedSequence(seed).spawn(jobs), counts)
        )
        assert simulate(game, trials, seed, jobs=jobs).success_rate == expected / trials

    def test_jobs_above_trials_run_one_stream_per_trial(self):
        game = chsh_game()
        assert simulate(game, 7, 3, jobs=50) == simulate(game, 7, 3, jobs=7)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            simulate(chsh_game(), trials=0, seed=1)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            simulate(chsh_game(), trials=10, seed=1, strategy=[[1, 2], [1, 1]])

    @pytest.mark.parametrize(
        "strategy",
        [
            [[1.7, 1], [1, -1.2]],
            [[1.0, 1], [1, 1]],
            [[True, True], [True, True]],
            np.ones((2, 2)),
            [[1, 1, 1], [1, 1, 1]],
            [1, -1],
        ],
        ids=["fractional", "float-one", "bool", "float-array", "three-settings", "flat"],
    )
    def test_strategy_answers_must_be_integers(self, strategy):
        # a non-integer answer raises rather than being truncated to +-1
        with pytest.raises(ValueError):
            simulate(chsh_game(), trials=10, seed=1, strategy=strategy)

    def test_strategy_accepts_numpy_integers(self):
        game = chsh_game()
        answers = np.array([[1, -1], [1, 1]], dtype=np.int8)
        assert simulate(game, 100, 1, strategy=answers) == simulate(
            game, 100, 1, strategy=[[1, -1], [1, 1]]
        )

    def test_strategy_analytic_is_its_own_success(self):
        # all +1 answers win chsh unless both settings are primed
        result = simulate(chsh_game(), trials=10, seed=1, strategy=[[1, 1], [1, 1]])
        assert result.analytic == 0.75

    def test_gbi_game_simulation(self):
        game = gbi_game(2, grid=16)
        expected = quantum_success(game)
        result = simulate(game, trials=2 * 10**5, seed=31)
        assert abs(result.success_rate - expected) < 4 * result.stderr

    def test_gbi_quantum_success_tends_to_closed_form(self):
        # grid averages approach (1 + pi/4)/2 for perfect visibility
        value = quantum_success(gbi_game(2, grid=64))
        assert value == pytest.approx(0.5 * (1 + math.pi / 4), abs=2e-3)


def _play_chunk(seed, trials, probs, coeffs, corr):
    """qccr._simulate_chunk as simulate calls it for one stream."""
    size = min(trials, qccr._BLOCK)
    return qccr._simulate_chunk(
        np.random.default_rng(seed), trials, *qccr._guide_table(probs), coeffs < 0,
        0.5 * (1.0 + corr), qccr._play_buffers(size),
    )


def _signed_chunk(rng, trials, probs, signs, corr, k, strategy, settings_components, drop_player):
    """The Monte Carlo round as products of +-1 int64 values; the reference
    for the sign-bit form of qccr._simulate_chunk.

    All rounds' uniforms are read at once, two per round: the setting is
    the right searchsorted of the first on the cdf, the parity compares
    the second with its bias.  The coins y_i and the outcomes m_i come
    from a second generator, seeded from ``rng`` after those uniforms."""
    u = rng.random((trials, 2))
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    s_idx = cdf.searchsorted(u[:, 0], side="right")
    coins = np.random.default_rng(rng.integers(2**63))
    y = coins.integers(0, 2, size=(trials, k)) * 2 - 1
    if strategy is None:
        parity = np.where(u[:, 1] < 0.5 * (1.0 + corr[s_idx]), 1, -1)
        m = coins.integers(0, 2, size=(trials, k)) * 2 - 1
        m[:, -1] = parity * np.prod(m[:, :-1], axis=1)
    else:
        comps = settings_components[s_idx]
        m = strategy[np.arange(k)[None, :], comps]
    broadcast = y * m
    if drop_player is not None:
        broadcast = np.delete(broadcast, drop_player, axis=1)
    guess = np.prod(broadcast, axis=1)
    target = np.prod(y, axis=1) * signs[s_idx]
    return int(np.sum(guess == target))


_ORACLE_GAMES = pytest.mark.parametrize(
    "builder",
    [chsh_game, lambda: makb_game(4, 6), lambda: gbi_game(2, grid=16)],
    ids=["chsh", "makb4in6", "gbi2x16"],
)


def _answers(game):
    k, spp = game.n_parties, game.functional.settings_per_party
    return np.random.default_rng(0).choice([-1, 1], size=(k, spp))


def _assert_chunk_matches_oracle(game, trials, seed):
    """The parity kernel counts what _signed_chunk counts, for the state's
    correlators and for a strategy played as its +-1 table."""
    k = game.n_parties
    components, probs, coeffs, corr = qccr._settings_table(game)
    answers = _answers(game)
    table = np.prod([answers[party, components[:, party]] for party in range(k)], axis=0)
    for strategy, played in ((None, corr), (answers, table)):
        expected = _signed_chunk(
            np.random.default_rng(seed), trials, probs, np.sign(coeffs), corr,
            k, strategy, components, None,
        )
        got = _play_chunk(seed, trials, probs, coeffs, played)
        assert got == expected, (game.name, trials, seed, strategy is None)


class TestSignBitOracle:
    """The parity kernel counts what the +-1 products count, for the
    state's correlators and for a classical strategy played as the +-1
    table of the products of its answers."""

    @_ORACLE_GAMES
    def test_counts_match_signed_products(self, builder):
        game = builder()
        for seed in range(1, 6):
            _assert_chunk_matches_oracle(game, 10_000, seed)

    @pytest.mark.parametrize(
        "builder",
        [chsh_game, lambda: gbi_game(3, grid=8), lambda: makb_game(4, 6)],
        ids=["chsh", "gbi3x8", "makb4in6"],
    )
    def test_counts_match_across_block_boundaries(self, builder):
        # the chunk plays in blocks; the oracle reads every round's
        # uniforms at once
        game = builder()
        block = qccr._BLOCK
        for trials in (1, block - 1, block, block + 1, 3 * block + 5):
            _assert_chunk_matches_oracle(game, trials, seed=trials)

    @_ORACLE_GAMES
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_strategy_simulation_sums_signed_streams(self, builder, jobs):
        game = builder()
        k = game.n_parties
        components, probs, coeffs, corr = qccr._settings_table(game)
        answers = _answers(game)
        trials, seed = 20_002, 4
        counts = [trials // jobs + (i < trials % jobs) for i in range(jobs)]
        expected = sum(
            _signed_chunk(
                np.random.default_rng(child), n, probs, np.sign(coeffs), corr,
                k, answers, components, None,
            )
            for child, n in zip(np.random.SeedSequence(seed).spawn(jobs), counts)
        )
        result = simulate(game, trials, seed, jobs=jobs, strategy=answers.tolist())
        assert result.success_rate == expected / trials
        # the strategy's expected success, summed exactly over the settings
        value = sum(
            Fraction(c) * math.prod(int(answers[i, s]) for i, s in enumerate(key))
            for key, c in game.functional.coefficients.items()
        )
        expected_success = (1 + value / game.functional.abs_total()) / 2
        assert result.analytic == pytest.approx(float(expected_success), abs=1e-12)


def _normalized(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


def _table_probs(game):
    return qccr._settings_table(game)[1]


_TINY = np.full(30_000, 1e-9)
# settings probabilities whose cdf qccr._draw_settings must search exactly
DRAW_CASES = {
    "len1": lambda: np.ones(1),
    "len2": lambda: _normalized([0.3, 0.7]),
    "len4": lambda: _normalized([1, 1, 1, 1]),
    "len16": lambda: _normalized(np.random.default_rng(0).random(16)),
    # fifteen weights share the first of 16 buckets, past the forward steps
    "len16-skew": lambda: _normalized(np.r_[np.full(15, 1e-6), 1.0]),
    "gbi3x32": lambda: _table_probs(gbi_game(3)),
    "gbi2x16": lambda: _table_probs(gbi_game(2, grid=16)),
    "geometric": lambda: _normalized(0.5 ** np.arange(60)),
    "tiny-then-large": lambda: _normalized(np.r_[_TINY, 1.0]),
    "large-then-tiny": lambda: _normalized(np.r_[1.0, _TINY]),
}


def _assert_draw_matches_choice(probs, seed, trials):
    # strided, as _simulate_chunk passes a column of its uniforms
    u = np.random.default_rng(seed).random((trials, 2))[:, 0]
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    got = np.full(trials, -1, np.intp)
    scratch = np.empty(trials), np.empty(trials, bool)
    qccr._draw_settings(u, *qccr._guide_table(probs), got, *scratch)
    assert np.array_equal(got, cdf.searchsorted(u, side="right"))


class TestSettingsDraw:
    """The guide-table draw equals the right searchsorted of the uniforms
    on the normalized cdf, which is numpy's weighted choice, index for
    index."""

    @pytest.mark.parametrize("case", sorted(DRAW_CASES))
    def test_equals_numpy_choice(self, case):
        probs = DRAW_CASES[case]()
        for seed in range(1, 6):
            # more and, for the larger tables, fewer trials than buckets
            for trials in (200_000, 1_000):
                _assert_draw_matches_choice(probs, seed, trials)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_positive_weights(self, weights, seed):
        _assert_draw_matches_choice(_normalized(weights), seed, 5_000)


def _without_distribution(game):
    payload = json.loads(game_to_json(game))
    del payload["functional"]["settings_distribution"]
    return game_from_json(json.dumps(payload))


class TestGameDistributionExactRoute:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: gbi_game(3),
            lambda: gbi_game(2, grid=16),
            lambda: _without_distribution(gbi_game(2, grid=16)),
            lambda: makb_game(3),
            lambda: makb_game(4, 6),
            chsh_game,
        ],
        ids=["gbi3x32", "gbi2x16", "gbi2x16-json", "makb3", "makb4in6", "chsh"],
    )
    def test_matches_fraction_sums(self, builder):
        f = builder().functional
        # the former route: an exact Fraction sum, each P rounded from it
        total = sum((abs(Fraction(c)) for c in f.coefficients.values()), Fraction(0))
        assert f.abs_total() == total
        # built on each read, so read once
        dist = f.settings_distribution
        assert dist.keys() == f.coefficients.keys()
        for key, c in f.coefficients.items():
            p, exact = dist[key], abs(Fraction(c)) / total
            if isinstance(c, float):
                assert type(p) is float and p == float(exact), key
            else:
                assert type(p) is Fraction and p == exact, key

    @pytest.mark.parametrize(
        "builder",
        _PLAIN_ROUTE_GAMES + [
            # tables out of tuple order: a file above ten settings per
            # party, and a functional built in reverse
            pytest.param(lambda: game_from_json(game_to_json(gbi_game(3))), id="gbi3x32-json"),
            pytest.param(
                lambda: GameSpec(
                    bell.BellFunctional(3, dict(reversed(bell.makb(3).coefficients.items()))),
                    makb_game(3).turns, VisibilityModel(0.5),
                ),
                id="makb3-reversed",
            ),
        ],
    )
    def test_settings_table_matches_entry_lists(self, builder):
        # the arrays as built from one Python list per column, the tuples
        # sorted by Python
        game = builder()
        f = game.functional
        dist = f.settings_distribution
        keys = sorted(dist)
        expected = (
            np.array(keys, dtype=np.int64),
            np.array([dist[k] for k in keys], dtype=float),
            np.array([f.coefficients[k] for k in keys], dtype=float),
        )
        for got, want in zip(qccr._settings_table(game), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _large_containers(root, size, skip):
    """Every sized object of at least ``size`` entries reachable from
    ``root`` through references, types and modules aside, not entering
    the objects of ``skip``."""
    seen, stack, found = {id(s) for s in skip}, [root], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType)):
                continue
            seen.add(id(ref))
            if hasattr(ref, "__len__") and not isinstance(ref, (str, bytes)) and len(ref) >= size:
                found.append(ref)
            stack.append(ref)
    return found


class TestOneEntryTable:
    """A game holds one table with an entry per settings tuple, its
    coefficients: P(s) is held per distinct pair and read key by key only
    when asked for."""

    @pytest.mark.parametrize("read_back", [False, True], ids=["built", "from-json"])
    def test_gbi3x32_holds_only_its_coefficients(self, read_back):
        game = gbi_game(3)
        if read_back:
            game = game_from_json(game_to_json(game))
        f = game.functional
        assert len(f.coefficients) == 30_741
        assert _large_containers(game, 30_741, [f.coefficients]) == []
        assert _large_containers(game, 30_741, []) == [f.coefficients]

    @pytest.mark.parametrize(
        "builder",
        [lambda: gbi_game(3), lambda: game_from_json(game_to_json(gbi_game(3))), chsh_game,
         lambda: makb_game(4, 6)],
        ids=["gbi3x32", "gbi3x32-json", "chsh", "makb4in6"],
    )
    def test_read_distribution_is_the_entry_route(self, builder):
        f = builder().functional
        dist = f.settings_distribution
        expected = game_distribution_by_entries(f.coefficients)
        assert list(dist) == list(expected)
        assert _bits(dist.values()) == _bits(expected.values())
        # one share object per distinct pair of n(s) and float or not
        numerators, _ = numerators_by_entries(f.coefficients)
        kinds = [isinstance(c, float) for c in f.coefficients.values()]
        objects = {}
        for pair, p in zip(zip(kinds, map(abs, numerators)), dist.values()):
            objects.setdefault(pair, set()).add(id(p))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len({id(p) for p in dist.values()}) == len(objects) == len(f._shares)
        # each read builds a new dict of the same objects
        again = f.settings_distribution
        assert again is not dist and list(map(id, again.values())) == list(map(id, dist.values()))


class TestMarginalFeasibility:
    def test_uniform_always_feasible(self):
        for k in (2, 3):
            uniform = {
                key: F(1, 2**k) for key in itertools.product((0, 1), repeat=k)
            }
            for n in range(k, 13):
                result = marginal_feasibility(uniform, n)
                assert result.feasible, (k, n)
                assert result.witness is not None

    def test_uniform_witness_is_uniform(self):
        uniform = {key: F(1, 4) for key in itertools.product((0, 1), repeat=2)}
        result = marginal_feasibility(uniform, 5)
        total = sum(math.comb(5, j) * q for j, q in enumerate(result.witness))
        assert total == 1

    def test_makb3_distribution_infeasible_in_four(self):
        dist = makb_game(3).functional.settings_distribution
        result = marginal_feasibility(dist, 4)
        assert not result.feasible
        assert result.certificate is not None

    _UNIFORM2 = {key: F(1, 4) for key in itertools.product((0, 1), repeat=2)}

    def test_rejects_invalid_certificate(self, monkeypatch):
        # y = (-1, -1, -1) has y.A <= 0 but y.marginal < 0: not a certificate
        monkeypatch.setattr(qccr, "_phase_one_simplex", lambda a, b: (None, [F(-1)] * 3))
        with pytest.raises(RuntimeError, match="Farkas"):
            marginal_feasibility(self._UNIFORM2, 3)

    def test_rejects_invalid_witness(self, monkeypatch):
        monkeypatch.setattr(qccr, "_phase_one_simplex", lambda a, b: ([F(-1)] * 4, None))
        with pytest.raises(RuntimeError, match="witness"):
            marginal_feasibility(self._UNIFORM2, 3)

    def test_certificate_check_survives_optimize_flag(self):
        # python -O strips assert statements; the checks must not be asserts
        script = (
            "from fractions import Fraction as F\n"
            "from bellpersist import qccr\n"
            "assert False, 'asserts are live'\n"
            "qccr._phase_one_simplex = lambda a, b: (None, [F(-1)] * 3)\n"
            "uniform = {k: F(1, 4) for k in ('00', '01', '10', '11')}\n"
            "try:\n"
            "    qccr.marginal_feasibility(uniform, 3)\n"
            "except RuntimeError:\n"
            "    print('rejected')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "rejected\n"

    def test_makb3_infeasible_in_all_larger(self):
        dist = makb_game(3).functional.settings_distribution
        for n in range(4, 9):
            assert not marginal_feasibility(dist, n).feasible

    def test_makb_even_distribution_extends(self):
        dist = makb_game(4).functional.settings_distribution
        for n in (5, 6, 8):
            assert marginal_feasibility(dist, n).feasible

    def test_self_extension_iff_exchangeable(self):
        dist = makb_game(3).functional.settings_distribution
        assert marginal_feasibility(dist, 3).feasible
        skew = {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 0): F(0), (1, 1): F(0)}
        result = marginal_feasibility(skew, 2)
        assert not result.feasible
        assert "symmetric" in result.reason

    def test_certificate_is_exact(self):
        dist = makb_game(3).functional.settings_distribution
        result = marginal_feasibility(dist, 4)
        y = result.certificate
        marginal = [F(0), F(1, 4), F(0), F(1, 4)]
        assert sum(yi * mi for yi, mi in zip(y, marginal)) > 0
        for j in range(5):
            col = [
                F(math.comb(1, j - i)) if 0 <= j - i <= 1 else F(0) for i in range(4)
            ]
            assert sum(yi * ci for yi, ci in zip(y, col)) <= 0

    def test_feasible_monotone_in_n_for_uniform(self):
        uniform = {key: F(1, 8) for key in itertools.product((0, 1), repeat=3)}
        feasible = [marginal_feasibility(uniform, n).feasible for n in range(3, 13)]
        assert all(feasible)

    def test_input_validation(self):
        uniform = {key: F(1, 4) for key in itertools.product((0, 1), repeat=2)}
        with pytest.raises(ValueError):
            marginal_feasibility(uniform, 1)
        with pytest.raises(ValueError):
            marginal_feasibility(uniform, 13)
        with pytest.raises(ValueError):
            marginal_feasibility({(0, 0): F(1, 2), (1, 1): F(1, 4)}, 3)
        with pytest.raises(ValueError, match="^probability inf is not finite$"):
            marginal_feasibility({"0": math.inf, "1": 0.5}, 2)

    @pytest.mark.parametrize(
        "dist,line",
        [
            ({(True, False): 0.5, (0, 1): 0.5}, "settings key (True, False) is not a tuple"),
            ({(1.0, 0.0): 0.5, (0, 1): 0.5}, "settings key (1.0, 0.0) is not a tuple"),
            ({"10": 0.25, (1, 0): 0.5, "01": 0.5}, "settings key (1, 0) names a tuple given"),
            ({(1, 0): 0.5, "10": 0.25, "01": 0.5}, "settings key '10' names a tuple given"),
        ],
        ids=["bool", "float", "string-then-tuple", "tuple-then-string"],
    )
    def test_key_refused_by_name(self, dist, line):
        # True and 1.0 equal 1, and "10" and (1, 0) spell one tuple, but a
        # key is read only in its documented forms and only once
        with pytest.raises(ValueError) as info:
            marginal_feasibility(dist, 4)
        assert str(info.value).startswith(line)

    def test_integer_types_accepted_as_settings(self):
        dist = {(np.int64(1), 0): F(1, 2), ("0", "1"): F(1, 2)}
        assert marginal_feasibility(dist, 2) == marginal_feasibility({"10": 0.5, "01": 0.5}, 2)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [
            chsh_game,
            lambda: makb_game(3, 5),
            pytest.param(lambda: makb_game(3, np.int64(5)), id="numpy-register"),
        ],
    )
    def test_round_trip_preserves_values(self, builder):
        game = builder()
        restored = game_from_json(game_to_json(game))
        assert restored.name == game.name
        assert classical_best(restored) == pytest.approx(classical_best(game), abs=1e-12)
        assert quantum_success(restored) == pytest.approx(quantum_success(game), abs=1e-12)

    @pytest.mark.parametrize(
        "builder",
        [
            chsh_game,
            lambda: makb_game(4, 6),
            lambda: gbi_game(3),
            lambda: gbi_game(2, grid=16),
            lambda: GameSpec(chsh_game().functional, chsh_game().turns, VisibilityModel(0.3)),
        ],
        ids=["chsh", "makb4in6", "gbi3x32", "gbi2x16", "chsh-v0.3"],
    )
    def test_round_trip_keeps_settings_table(self, builder):
        game = builder()
        restored = game_from_json(game_to_json(game))
        assert restored == game
        for got, expected in zip(qccr._settings_table(restored), qccr._settings_table(game)):
            assert np.array_equal(got, expected)
        assert quantum_success(restored) == quantum_success(game)
        assert _classical_or_error(restored) == _classical_or_error(game)

    def test_distribution_within_tolerance_is_replaced(self):
        game = chsh_game()
        payload = json.loads(game_to_json(game))
        dist = payload["functional"]["settings_distribution"]
        nudged = {key: p * (1 + 1e-13) for key, p in dist.items()}
        assert all(nudged[key] != p for key, p in dist.items())
        payload["functional"]["settings_distribution"] = nudged
        restored = game_from_json(json.dumps(payload))
        derived = game.functional.settings_distribution
        assert restored.functional.settings_distribution == {
            key: float(p) for key, p in derived.items()
        }
        assert json.loads(game_to_json(restored))["functional"]["settings_distribution"] == dist

    def test_games_compare_by_value(self):
        # a functional compares by its parties, settings and coefficients;
        # the attached distribution is derived from them
        assert chsh_game() == chsh_game()
        f = chsh_game().functional
        assert f == bell.BellFunctional(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
        assert f != bell.BellFunctional(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert f != bell.BellFunctional(2, f.coefficients, settings_per_party=3)

    def test_non_equatorial_observables_refused(self):
        # the parity model plays cos(sum of angles), which only equatorial
        # settings give; an xz observable must not play as if it were one
        payload = json.loads(game_to_json(chsh_game()))
        payload["observables"][0][0]["plane"] = "xz"
        with pytest.raises(ValueError, match="xy plane"):
            game_from_json(json.dumps(payload))

    def test_turns_are_numbers(self):
        # a game holds turns, not observable objects: a dense observable
        # is no number, and the turns are stored as floats
        game = chsh_game()
        obs = qstate.PlaneObservable("xy", 2.0 * math.pi * game.turns[0][0])
        with pytest.raises(ValueError, match="turns PlaneObservable"):
            GameSpec(game.functional, ((obs, game.turns[0][1]), game.turns[1]), game.state)
        exact = GameSpec(game.functional, ((F(1, 8), 0), (1, F(-1, 4))), game.state)
        assert exact.turns == ((0.125, 0.0), (1.0, -0.25))
        assert all(type(t) is float for row in exact.turns for t in row)

    def test_dense_states_not_serialized(self):
        # a game holds only what its file can: no dense state gets in
        game = chsh_game()
        with pytest.raises(ValueError):
            GameSpec(game.functional, game.turns, qstate.ghz_state(2))


def _bits(values):
    """Each value as its type and, for a float, its exact bits."""
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


def _loaded_bits(game):
    f = game.functional
    return (
        list(f.coefficients), _bits(f.coefficients.values()),
        list(f.settings_distribution), _bits(f.settings_distribution.values()),
        [_bits(row) for row in game.turns], game.state, game.name,
    )


def _assert_plain_json_routes_agree(game):
    """The writer spells what json.dumps spells, and the reader loads
    what json's own parse loads, bit for bit."""
    text = game_to_json(game)
    assert text == plain_game_to_json(game)
    assert _loaded_bits(game_from_json(text)) == _loaded_bits(plain_game_from_json(text))


# a table value: an int, a float (subnormal, near the float range's ends,
# spelled with an exponent) or a Fraction
_TABLE_VALUES = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([5e-324, -2.5e-310, 1e300, -1e-300, 1e22, 1.5e-07, 0.1, -0.0, 0]),
    st.fractions(-(10**6), 10**6, max_denominator=10**6),
)


def _fresh(value):
    """A new object of the same type and value as ``value``."""
    if type(value) is float:
        return float.fromhex(value.hex())
    if type(value) is int:
        return int(str(value))
    return Fraction(value.numerator, value.denominator)


class TestJsonSecondRoutes:
    @pytest.mark.parametrize("builder", _PLAIN_ROUTE_GAMES)
    def test_built_games(self, builder):
        _assert_plain_json_routes_agree(builder())

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 12)]),
        pool=st.lists(_TABLE_VALUES, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_mixed_tables(self, shape, pool, data):
        # values shared by several entries, or equal in distinct objects
        n, spp = shape
        keys = list(itertools.product(range(spp), repeat=n))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(keys), max_size=len(keys)))
        fresh = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        values = [_fresh(pool[i]) if new else pool[i] for i, new in zip(picks, fresh)]
        f = bell.BellFunctional(n, dict(zip(keys, values)), spp)
        hypothesis_assume(f.coefficients)
        turns = data.draw(
            st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, 1e22]), min_size=spp, max_size=spp)
        )
        _assert_plain_json_routes_agree(GameSpec(f, (tuple(turns),) * n, VisibilityModel(0.5)))

    @pytest.mark.parametrize("spelling", ["-0.0", "1E5", "1e400", "NaN", "Infinity"])
    @pytest.mark.parametrize("where", ["coefficient", "probability", "turns", "visibility"])
    def test_number_spellings_read_alike(self, spelling, where):
        game = chsh_game()
        payload = json.loads(game_to_json(GameSpec(game.functional, game.turns, VisibilityModel(0.5))))
        f = payload["functional"]
        holder, key = {
            "coefficient": (f["coefficients"], "01"),
            "probability": (f["settings_distribution"], "01"),
            "turns": (payload["observables"][1][0], "turns"),
            "visibility": (payload["state"], "v"),
        }[where]
        holder[key] = "@"
        text = json.dumps(payload).replace('"@"', spelling)

        def outcome(read):
            try:
                return _loaded_bits(read(text))
            except ValueError as exc:
                return str(exc)

        assert outcome(game_from_json) == outcome(plain_game_from_json)

    def test_loaded_game_holds_each_number_once(self):
        # gbi3x32 writes 30 741 coefficients, probabilities and 96 turns;
        # it loads with one float per distinct number text, and one per
        # distinct derived probability
        game = game_from_json(game_to_json(gbi_game(3)))
        f = game.functional
        floats = [*f.coefficients.values(), *f.settings_distribution.values()]
        floats += itertools.chain.from_iterable(game.turns)
        assert len({id(v) for v in floats}) <= 200


def _classical_or_error(game):
    """classical_best, or the type of the error it raises (the exhaustive
    search takes two settings per party only)."""
    try:
        return classical_best(game)
    except ValueError as exc:
        return type(exc)
