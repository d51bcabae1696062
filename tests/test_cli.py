import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpersist import bell, persistency, qccr
from bellpersist.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "gamma_crit.csv": ["gamma-crit", "--a", "sqrt2", "--a", "pi/2"],
    "gbi_constants.csv": ["gbi", "constants", "--max-n", "8"],
    "persistency_ghz_gbi.csv": ["persistency", "ghz", "--family", "gbi", "--n", "6:9"],
    "persistency_dicke_m1.csv": ["persistency", "dicke", "--n", "4:9", "--m", "1"],
    "monogamy_bound.csv": [
        "monogamy", "bound", "--file", str(DATA / "chsh_pair_operators.txt"),
    ],
    "makb_qcr.csv": ["makb", "qcr", "--n-range", "2:5"],
    "dicke_fit_m1.csv": ["dicke", "fit", "--m-range", "1:1", "--l-range", "5:12"],
    "dicke_sigma.json": [
        "dicke", "sigma", "--n", "5", "--m", "1", "--l", "1", "--format", "json",
    ],
    "qccr_simulate.csv": [
        "qccr", "simulate", "--game", str(DATA / "chsh_game.json"),
        "--trials", "50000", "--seed", "7",
    ],
    "qccr_feasibility.csv": [
        "qccr", "feasibility", "--dist", str(DATA / "makb3_distribution.json"),
        "--n-total", "4",
    ],
    "dicke_n0_m2.csv": ["dicke", "n0", "--m", "2", "--l-range", "1:8"],
    "makb_coefficients_n3.csv": ["makb", "coefficients", "--n", "3"],
    "qccr_make_game_chsh.json": ["qccr", "make-game", "--type", "chsh"],
}


def run_cli(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bellpersist.cli"] + argv,
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_output_matches_golden(self, name):
        result = run_cli(GOLDEN_COMMANDS[name])
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / name).read_text()

    def test_byte_identical_across_runs(self):
        argv = GOLDEN_COMMANDS["qccr_simulate.csv"]
        first, second = run_cli(argv), run_cli(argv)
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()


class TestOutputModes:
    def test_atomic_file_output(self, tmp_path):
        target = tmp_path / "out.csv"
        code = main(["gamma-crit", "--a", "sqrt2", "--output", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "a,gamma_crit,residual"
        assert lines[1].startswith("1.41421356237,0.9051179214019102,")
        assert not list(tmp_path.glob("*.tmp"))

    def test_gamma_crit_prints_the_root_itself(self, capsys):
        # the root just below 1 reads back exactly, not as the interval's end
        assert main(["gamma-crit", "--a", "1.000000000001"]) == 0
        printed = capsys.readouterr().out.splitlines()[1].split(",")[1]
        assert float(printed) == persistency.gamma_crit(1.000000000001) < 1

    def test_output_file_mode_matches_open(self, tmp_path):
        old = os.umask(0o022)
        try:
            target = tmp_path / "game.json"
            assert main(["qccr", "make-game", "--type", "chsh", "--output", str(target)]) == 0
            plain = tmp_path / "plain.json"
            with open(plain, "w"):
                pass
        finally:
            os.umask(old)
        assert target.stat().st_mode == plain.stat().st_mode

    def test_json_envelope_records_seed(self, tmp_path):
        target = tmp_path / "sim.json"
        code = main(
            [
                "qccr", "simulate", "--game", str(DATA / "chsh_game.json"),
                "--trials", "1000", "--seed", "42",
                "--format", "json", "--output", str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["config"]["seed"] == 42
        assert payload["version"]
        assert payload["rows"][0]["seed"] == "42"


class TestExitCodes:
    @pytest.mark.parametrize(
        "token,code", [("foo", 2), ("pi", 2), ("1.0", 1), ("4", 1), ("nan", 1), ("inf", 1)]
    )
    def test_bad_base_one_stderr_line(self, token, code):
        # an unparsable token is a usage error; a number outside 1 < a < 4
        # is rejected by gamma_crit itself
        result = run_cli(["gamma-crit", "--a", "sqrt2", "--a", token])
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("bellpersist")
        assert token in result.stderr and "Traceback" not in result.stderr

    def test_usage_error_unknown_command(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_usage_error_missing_required(self):
        result = run_cli(["monogamy", "bound"])
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dicke", "sigma", "--n", "5", "--m", "2"],
            ["dicke", "n0", "--m", "2", "--l-range", "x"],
            ["qccr", "make-game", "--type", "foo"],
            ["bogus"],
            [],
            ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "x"],
            ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "10",
             "--subset", "0,1"],
            ["gamma-crit", "--a", "sqrt2", "--tolerance", "1e-6"],
        ],
        ids=[
            "missing-flag", "bad-l-range", "bad-type", "unknown-command", "no-command", "bad-trials",
            "no-subset-flag", "no-tolerance-flag",
        ],
    )
    def test_usage_error_one_stderr_line(self, argv):
        result = run_cli(argv)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert result.stderr.startswith("bellpersist") and ": error: " in result.stderr
        assert "usage:" not in result.stderr and "Traceback" not in result.stderr

    def test_computation_error_exit_one(self, tmp_path):
        bad = tmp_path / "too_many.txt"
        bad.write_text("\n".join(["XX"] * 25) + "\n")
        result = run_cli(["monogamy", "bound", "--file", str(bad)])
        assert result.returncode == 1
        assert "capped" in result.stderr

    def test_negative_seed_exit_one(self):
        argv = ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "10"]
        result = run_cli(argv + ["--seed", "-1"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "bellpersist: seed -1 outside 0..\n"

    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    @pytest.mark.parametrize(
        "argv", [["gamma-crit", "--a", "sqrt2"], ["qccr", "make-game", "--type", "chsh"]],
        ids=["emit", "make-game"],
    )
    def test_failed_output_names_given_path(self, tmp_path, argv, target):
        path = tmp_path / "missing" / "out" if target == "missing-parent" else tmp_path / "out"
        if target == "directory":
            path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        result = run_cli(argv + ["--output", str(path)])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.count("\n") == 1 and str(path) in result.stderr
        assert ".tmp" not in result.stderr
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_file_exit_one(self):
        result = run_cli(["monogamy", "bound", "--file", "/nonexistent/x.txt"])
        assert result.returncode == 1

    def test_gbi_constants_past_float_range_exit_one(self):
        # the ratio (pi/2)^n / 2 leaves the double range near n = 1570
        result = run_cli(["gbi", "constants", "--max-n", "1600"])
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_gbi_constants_past_float_range_names_column_and_n(self):
        # qcr at 1570 is 4.05e307, at 1571 past the largest float
        result = run_cli(["gbi", "constants", "--max-n", "1571"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "bellpersist: qcr at n = 1571 exceeds the largest float; use --max-n 1570 or less\n"
        )

    @pytest.mark.parametrize("key", ["functional", "observables", "state"])
    def test_game_spec_missing_key_exit_one(self, tmp_path, key):
        spec = json.loads((DATA / "chsh_game.json").read_text())
        del spec[key]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(spec))
        result = run_cli(["qccr", "simulate", "--game", str(path), "--trials", "10"])
        assert result.returncode == 1
        assert result.stderr == f"bellpersist: game spec lacks key '{key}'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["persistency", "ghz", "--family", "makb", "--n", "9", "--seed", "1"],
            ["dicke", "sigma", "--n", "5", "--m", "1", "--l", "1", "--jobs", "2"],
            ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "10",
             "--tolerance", "1e-6"],
            ["qccr", "make-game", "--type", "chsh", "--format", "json"],
            ["qccr", "make-game", "--type", "chsh", "--n", "9"],
            ["qccr", "make-game", "--type", "chsh", "--grid", "4"],
            ["qccr", "make-game", "--type", "chsh", "--n-total", "5"],
            ["qccr", "make-game", "--type", "makb", "--grid", "4"],
            ["qccr", "make-game", "--type", "gbi", "--n-total", "5"],
        ],
    )
    def test_flags_only_where_read(self, argv):
        assert run_cli(argv).returncode == 2

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_gbi_constants_empty_range_exit_two(self, max_n):
        result = run_cli(["gbi", "constants", "--max-n", max_n])
        assert result.returncode == 2 and result.stdout == ""

    def test_one_party_geometric_game_exit_one(self, tmp_path):
        target = tmp_path / "game.json"
        result = run_cli(["qccr", "make-game", "--type", "gbi", "--n", "1", "--output", str(target)])
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert not target.exists()

    @pytest.mark.parametrize(
        "where,value",
        [
            ((), []),
            (("functional",), []),
            (("functional", "settings_distribution", "00"), "1/4"),
            (("observables",), {"0": 1}),
            (("state",), ["ghz_mixture"]),
            (("functional", "n_parties"), 2.7),
            (("functional", "settings_per_party"), 2.9),
            (("state", "n_parties"), 2.5),
            (("state", "block_size"), True),
            (("functional", "coefficients", " 0,+1"), 0.0),
            (("functional", "coefficients"), {"0,0": 1.0, "0,1": 1.0, "1,0": 1.0, "1,1": -1.0}),
            (("functional", "settings_distribution"), {"00": 0.5, "01": 0.5}),
            (("functional", "settings_distribution"), {"00": 0.4, "01": 0.2, "10": 0.2, "11": 0.2}),
            (("observables", 0, 0, "turns"), float("nan")),
            (("observables", 0, 0, "turns"), float("inf")),
            # the parity model plays equatorial correlators only
            (("observables", 0, 0, "plane"), "xz"),
        ],
    )
    def test_game_spec_wrong_type_exit_one(self, tmp_path, capsys, where, value):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_replaced(_GAME, where, value)))
        assert main(["qccr", "simulate", "--game", str(path), "--trials", "10"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "where,value,line",
        [
            (("state",), {"kind": "visibility", "v": True}, "visibility True is not a number"),
            (("name",), ["x"], "game name ['x'] is not a string"),
            (("observables", 0, 0, "turns"), True, "turns True is not a number"),
            (("observables", 0, 0, "turns"), "0.1", "turns '0.1' is not a number"),
            (("functional", "coefficients", "00"), float("nan"), "coefficient nan is not finite"),
            # keys that no int() parse reads, refused by name
            *[
                (("functional", "coefficients", key), 1.0,
                 f"settings key {key!r} is not spelled in digits")
                for key in ("-1-1", " 0 1", "+0+1")
            ],
            # the settings count is checked before any key is spelled
            (("functional", "settings_per_party"), "2", "settings count '2' is not an integer"),
        ],
        ids=[
            "bool-visibility", "list-name", "bool-turns", "string-turns", "nan-coefficient",
            "minus-key", "blank-key", "plus-key", "string-settings-count",
        ],
    )
    def test_game_spec_value_refused(self, tmp_path, where, value, line):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_replaced(_GAME, where, value)))
        result = run_cli(["qccr", "simulate", "--game", str(path), "--trials", "10"])
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"bellpersist: {line}\n"

    @pytest.mark.parametrize("keep_distribution", [False, True], ids=["derived", "given"])
    def test_coefficient_sum_past_float_range_one_line(self, tmp_path, keep_distribution):
        # each coefficient is a float, but sum |g| = 4e308 is not
        spec = _replaced(
            _GAME, ("functional", "coefficients"),
            {"00": 1e308, "01": 1e308, "10": 1e308, "11": -1e308},
        )
        if not keep_distribution:
            del spec["functional"]["settings_distribution"]
        path = tmp_path / "game.json"
        path.write_text(json.dumps(spec))
        result = run_cli(["qccr", "simulate", "--game", str(path), "--trials", "10"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "bellpersist: game coefficients' sum |g| exceeds the largest float\n"

    @pytest.mark.parametrize(
        "grid,n", [(16, 2), (32, 3)], ids=["gbi2x16", "gbi3x32"],
    )
    @pytest.mark.parametrize("nudge,code", [(1e-11, 1), (1e-13, 0)], ids=["1e-11", "1e-13"])
    def test_one_probability_nudged(self, tmp_path, capsys, grid, n, nudge, code):
        # the file's P(s) is checked once per distinct pair of file value and
        # derived share: one entry off among the many of its share is caught
        text = qccr.game_to_json(qccr.gbi_game(n, grid))
        spec = json.loads(text)
        dist = spec["functional"]["settings_distribution"]
        key = sorted(dist)[len(dist) // 2]
        nudged = dist[key] * (1 + nudge)
        assert nudged != dist[key] and list(dist.values()).count(dist[key]) > 1
        dist[key] = nudged
        paths = tmp_path / "made.json", tmp_path / "nudged.json"
        paths[0].write_text(text)
        paths[1].write_text(json.dumps(spec))
        outcomes = []
        for path in paths:
            code_of = main(["qccr", "simulate", "--game", str(path), "--trials", "100", "--seed", "3"])
            outcomes.append((code_of, *capsys.readouterr()))
        if code:
            assert outcomes[1] == (1, "", "bellpersist: settings probabilities are not "
                                   "|coefficient| / sum |coefficients|\n")
        else:
            # accepted, the nudged file plays the derived P(s) as the made one does
            assert outcomes[1] == outcomes[0] and outcomes[0][0] == 0

    @pytest.mark.parametrize(
        "where,value,name",
        [
            (("functional", "settings_distribution", "00"), 10**400, "probability"),
            (("observables", 0, 0, "turns"), 10**400, "turns"),
            (("observables", 1, 1, "turns"), -(10**400), "turns"),
        ],
        ids=["probability", "turns", "negative-turns"],
    )
    def test_integer_past_float_range_one_line(self, tmp_path, where, value, name):
        # a JSON integer has no range; one no float holds is refused by name
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_replaced(_GAME, where, value)))
        result = run_cli(["qccr", "simulate", "--game", str(path), "--trials", "10"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"bellpersist: {name} lies outside the float range\n"

    def test_feasibility_zero_denominator_one_line(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"00": "1/0", "11": 1, "01": 0, "10": 0}')
        result = run_cli(["qccr", "feasibility", "--dist", str(path), "--n-total", "4"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "bellpersist: probability '1/0' divides by zero\n"

    def test_subset_of_every_party(self, tmp_path, capsys):
        # every subset of the register plays alike, so the column lists
        # the players, also when the GHZ mixture spans more parties
        path = tmp_path / "makb4.json"
        assert main(["qccr", "make-game", "--type", "makb", "--n", "4", "--n-total", "6",
                     "--output", str(path)]) == 0
        rows = {DATA / "chsh_game.json": "chsh,0+1,1000,", path: "makb4,0+1+2+3,1000,"}
        for game, row in rows.items():
            assert main(["qccr", "simulate", "--game", str(game), "--trials", "1000"]) == 0
            assert capsys.readouterr().out.splitlines()[1].startswith(row)

    def test_jobs_zero_exit_one(self):
        argv = ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "10"]
        assert main(argv + ["--jobs", "0"]) == 1

    @pytest.mark.parametrize(
        "message,line",
        [("", "out of memory"), ("Unable to allocate 72.8 TiB", "Unable to allocate 72.8 TiB")],
    )
    def test_memory_error_exit_one(self, monkeypatch, capsys, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(qccr, "simulate", exhausted)
        argv = ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "10"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"bellpersist: {line}\n"

    def test_jobs_above_trials_run_trials_streams(self):
        def capped():
            # a wrong implementation fails fast instead of eating memory
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        argv = ["qccr", "simulate", "--game", str(DATA / "chsh_game.json"), "--trials", "5"]
        many = run_cli(argv + ["--jobs", "1000000000000"], preexec_fn=capped, timeout=120)
        assert many.returncode == 0, many.stderr
        assert many.stdout == run_cli(argv + ["--jobs", "5"]).stdout

    def test_range_too_large_exit_two(self):
        # the list of 10**20 party counts cannot be sized, let alone held;
        # the range's length overflows before anything is allocated
        token = "2:100000000000000000000"
        result = run_cli(["persistency", "ghz", "--family", "makb", "--n", token])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.count("\n") == 1 and f"range '{token}' too large" in result.stderr
        assert "Traceback" not in result.stderr

    def test_tolerance_below_float_spacing_returns(self):
        # the bisection runs to adjacent floats and stops there
        result = run_cli(["gamma-crit", "--a", "sqrt2"], timeout=60)
        assert result.returncode == 0
        assert abs(float(result.stdout.splitlines()[1].split(",")[2])) < 1e-12


class TestFeasibilityInput:
    def test_decimal_probabilities_accepted(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text('{"00": 0.1, "11": 0.9, "01": 0, "10": 0}')
        assert main(["qccr", "feasibility", "--dist", str(path), "--n-total", "4"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2:4] == ["true", "1/10;0;0;0;9/10"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"00": 0.5, "11": 0.5, "0": 0}',
            '{"00": 0.5, "11": 0.5, "012": 0}',
            '{"00": 0.5, "11": 0.5, "02": 0}',
            "{}",
            "[]",
            "null",
        ],
    )
    def test_malformed_distribution_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "dist.json"
        path.write_text(text)
        assert main(["qccr", "feasibility", "--dist", str(path), "--n-total", "4"]) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestLibraryDecides:
    @pytest.mark.parametrize("family", ["makb", "gbi"])
    def test_asymptotic_rows_equal_default(self, capsys, family):
        argv = ["persistency", "ghz", "--family", family, "--n", "2:600"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--asymptotic"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("family", ["makb", "gbi"])
    def test_large_n_certified_row_equals_asymptotic(self, capsys, family):
        argv = ["persistency", "ghz", "--family", family, "--n", "10000"]
        assert main(argv) == 0
        certified = capsys.readouterr().out
        assert main(argv + ["--asymptotic"]) == 0
        assert capsys.readouterr().out == certified

    @pytest.mark.parametrize(
        "make_args,classical",
        [(["--type", "gbi", "--n", "3"], ""), (["--type", "makb", "--n", "4"], "0.625")],
    )
    def test_classical_best_column(self, tmp_path, capsys, make_args, classical):
        path = tmp_path / "game.json"
        assert main(["qccr", "make-game", *make_args, "--output", str(path)]) == 0
        assert main(["qccr", "simulate", "--game", str(path), "--trials", "100"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == classical

    def test_classical_best_empty_past_party_cap(self, tmp_path, capsys):
        # 17 two-setting players lie past the LR cap: the column is left
        # empty rather than the table of 2^17 transform entries allocated
        n = 17
        f = bell.BellFunctional(n, {(0,) * n: 1, (1,) * n: -1})
        path = tmp_path / "game.json"
        game = qccr.GameSpec(f, ((0.0, 0.25),) * n, qccr.VisibilityModel(1.0))
        path.write_text(qccr.game_to_json(game))
        assert main(["qccr", "simulate", "--game", str(path), "--trials", "100"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2 and rows[1].endswith(",")

    def test_makb_qcr_past_eight_parties(self, capsys):
        assert main(["makb", "qcr", "--n-range", "9:12"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:2] for row in rows] == [[str(n), "1"] for n in range(9, 13)]
        for n, _, quantum, qcr in rows:
            assert quantum == qcr and float(qcr) == pytest.approx(2 ** ((int(n) - 1) / 2), rel=1e-11)

    def test_makb_qcr_past_sixteen_parties_exit_one(self):
        result = run_cli(["makb", "qcr", "--n-range", "17:17"])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "bellpersist: party count 17 outside 2..16\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    """A copy of ``value`` with the subtree at ``path`` set to ``new``."""
    if not path:
        return new
    value = json.loads(json.dumps(value))
    node = value
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return value


def _corrupted(base):
    """Raw bytes, any JSON value, or ``base`` with one subtree replaced."""
    paths = list(_paths(base))
    return st.one_of(
        st.binary(max_size=20),
        _JSON.map(lambda v: json.dumps(v).encode()),
        st.builds(
            lambda path, new: json.dumps(_replaced(base, path, new)).encode(),
            st.sampled_from(paths),
            _JSON,
        ),
    )


_GAME = json.loads((DATA / "chsh_game.json").read_text())
_DIST = {"00": "1/4", "01": 0.25, "10": "1/4", "11": 0.25}
# raw bytes, or lines drawn mostly from Pauli letters, blanks and comments
_PAULI_FILES = st.binary(max_size=40) | st.lists(
    st.text(alphabet="IXYZxz0 #\t\u00e9", max_size=6), max_size=30
).map(lambda lines: "\n".join(lines).encode())


class TestMalformedInputFuzz:
    """Malformed input never escapes as an exception: exit 0 or 1, and at
    most one stderr line."""

    @staticmethod
    def _run(tmp_path_factory, data, argv):
        """Run ``argv`` with ``data`` in the file named by its last flag."""
        path = tmp_path_factory.getbasetemp() / "fuzz_input.json"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
        assert code in (0, 1)
        assert err.getvalue().count("\n") <= 1

    @settings(max_examples=200, deadline=None)
    @given(data=_corrupted(_GAME))
    def test_simulate_game(self, tmp_path_factory, data):
        self._run(tmp_path_factory, data, ["qccr", "simulate", "--trials", "20", "--game"])

    @settings(max_examples=200, deadline=None)
    @given(data=_corrupted(_DIST))
    def test_feasibility_dist(self, tmp_path_factory, data):
        self._run(tmp_path_factory, data, ["qccr", "feasibility", "--n-total", "4", "--dist"])

    @settings(max_examples=200, deadline=None)
    @given(data=_PAULI_FILES)
    def test_monogamy_file(self, tmp_path_factory, data):
        self._run(tmp_path_factory, data, ["monogamy", "bound", "--file"])


class TestGameSpecWorkflow:
    def test_make_game_then_simulate(self, tmp_path):
        spec = tmp_path / "makb3.json"
        assert main(["qccr", "make-game", "--type", "makb", "--n", "3", "--output", str(spec)]) == 0
        result = run_cli(
            ["qccr", "simulate", "--game", str(spec), "--trials", "2000", "--seed", "1"]
        )
        assert result.returncode == 0
        # perfect correlations: the three-player game is won every round
        success = float(result.stdout.splitlines()[1].split(",")[4])
        assert success == 1.0

    def test_make_game_output_file_matches_stdout(self, tmp_path):
        argv = ["qccr", "make-game", "--type", "makb", "--n", "3"]
        target = tmp_path / "makb3.json"
        assert main(argv + ["--output", str(target)]) == 0
        assert target.read_bytes() == run_cli(argv).stdout.encode()
        assert not list(tmp_path.glob("*.tmp"))

    def test_seed_changes_output(self):
        base = GOLDEN_COMMANDS["qccr_simulate.csv"]
        alt = [tok if tok != "7" else "8" for tok in base]
        assert run_cli(base).stdout != run_cli(alt).stdout


# `qccr make-game` bytes (sha256) and `qccr simulate` rows, keyed by
# (--trials, --seed, --jobs): at 200000 trials as the Fraction-sum,
# +-1-product implementation of the game path wrote them, except that the
# gbi files hold each turn as s / grid itself, not its trip through
# radians; at 98311 = 3 * 2**15 + 7 trials, which leaves each stream a
# short last block, as the per-block arrays played them before the play
# buffers; gbi2x300 as the game path wrote it before settings keys were
# packed; any rewrite of that path must keep them byte for byte
PINNED_GAMES = {
    "gbi3x32": (
        ["--type", "gbi", "--n", "3"],
        "36508e7e6a0c115ef79feb1cb04366cfc007550d9210433cdf74ef81982280b7",
    ),
    "gbi2x16": (
        ["--type", "gbi", "--n", "2", "--grid", "16"],
        "42941490cf8dc0e6d14b788a7b321433eed7f16c5d9012c32727a70a2f37cf3e",
    ),
    # 300 settings per party: two bytes per setting in the packed keys
    "gbi2x300": (
        ["--type", "gbi", "--n", "2", "--grid", "300"],
        "e83bb39b67f2edef8ba5bb560e0b416ee96a162cbbf44a7003e9193e012a2c3a",
    ),
    "makb3": (
        ["--type", "makb", "--n", "3"],
        "84fecf4e0f132715a476d8e121f8b43f483c20f93aa23a6e92a4ea37b68ae444",
    ),
    "makb4": (
        ["--type", "makb", "--n", "4", "--n-total", "6"],
        "94bafe7099cc9a5a5e434bc3f242eb3abb5b93b675a33c8acd4d52c4952cdc58",
    ),
    "chsh": (
        ["--type", "chsh"],
        "86685a225d1aa2a5d6e98321efb1d36ebb890c0bdd296f948e92e6c5d81a4e14",
    ),
}
PINNED_SIMULATE_ROWS = {
    "gbi3x32": {
        ("200000", "1", "1"): "gbi3x32,0+1+2,200000,1,0.894345,0.000687357334197,0.893965613429,",
        ("200000", "1", "2"): "gbi3x32,0+1+2,200000,1,0.894845,0.000685920644007,0.893965613429,",
        ("200000", "7", "1"): "gbi3x32,0+1+2,200000,7,0.894425,0.000687127787879,0.893965613429,",
        ("200000", "7", "2"): "gbi3x32,0+1+2,200000,7,0.894015,0.000688302912151,0.893965613429,",
        ("98311", "1", "1"): "gbi3x32,0+1+2,98311,1,0.895332160186,0.000976332319484,0.893965613429,",
        ("98311", "1", "3"): "gbi3x32,0+1+2,98311,1,0.894955803521,0.000977880462275,0.893965613429,",
        ("98311", "7", "1"): "gbi3x32,0+1+2,98311,7,0.894437041633,0.000980007970237,0.893965613429,",
        ("98311", "7", "3"): "gbi3x32,0+1+2,98311,7,0.893409689658,0.000984199490092,0.893965613429,",
    },
    "gbi2x300": {
        ("200000", "1", "1"): "gbi2x300,0+1,200000,1,0.893415,0.000690016803328,0.892713437086,",
    },
    "chsh": {
        ("200000", "1", "1"): "chsh,0+1,200000,1,0.854055,0.000789446188714,0.853553390593,0.75",
        ("200000", "1", "2"): "chsh,0+1,200000,1,0.854675,0.000788053438464,0.853553390593,0.75",
        ("200000", "7", "1"): "chsh,0+1,200000,7,0.85512,0.00078705077854,0.853553390593,0.75",
        ("200000", "7", "2"): "chsh,0+1,200000,7,0.854395,0.000788683028773,0.853553390593,0.75",
        ("98311", "1", "1"): "chsh,0+1,98311,1,0.85382103732,0.00112674283902,0.853553390593,0.75",
        ("98311", "1", "3"): "chsh,0+1,98311,1,0.854848389295,0.00112345174137,0.853553390593,0.75",
        ("98311", "7", "1"): "chsh,0+1,98311,7,0.855448525597,0.00112152032116,0.853553390593,0.75",
        ("98311", "7", "3"): "chsh,0+1,98311,7,0.852844544354,0.00112985331679,0.853553390593,0.75",
    },
    "makb4": {
        ("200000", "1", "1"): "makb4,0+1+2+3,200000,1,0.523655,0.00111678207582,0.52357022604,0.625",
        ("200000", "1", "2"): "makb4,0+1+2+3,200000,1,0.52312,0.00111683809391,0.52357022604,0.625",
        ("200000", "7", "1"): "makb4,0+1+2+3,200000,7,0.524055,0.00111673935405,0.52357022604,0.625",
        ("200000", "7", "2"): "makb4,0+1+2+3,200000,7,0.523505,0.00111679791139,0.52357022604,0.625",
        ("98311", "1", "1"): "makb4,0+1+2+3,98311,1,0.524071568797,0.0015928140129,0.52357022604,0.625",
        ("98311", "1", "3"): "makb4,0+1+2+3,98311,1,0.524122427806,0.00159280618645,0.52357022604,0.625",
        ("98311", "7", "1"): "makb4,0+1+2+3,98311,7,0.523827445555,0.00159285134939,0.52357022604,0.625",
        ("98311", "7", "3"): "makb4,0+1+2+3,98311,7,0.524305520237,0.00159277787415,0.52357022604,0.625",
    },
}


# the data row of `dicke sigma --n N --m M --l L`, as the binomial double
# sum gave it: the edges of the argument checks, a half-filled register
# traced far along L, a long row at small M and a register of 10^5
PINNED_SIGMA_ROWS = {
    ("1", "0", "0"): "1,0,0,1,1,false",
    ("2", "1", "0"): "2,1,0,2,2,true",
    ("24", "0", "23"): "24,0,23,1,1,false",
    ("24", "24", "0"): "24,24,0,1,1,false",
    ("24", "12", "23"): "24,12,23,0,0,false",
    ("600", "300", "290"): (
        "600,300,290,11568894943863493869858913453485920935838117117527787574031100128556"
        "52571446802818461259699637342003113537487743881636623239436851548875582793106074"
        "43223260934636169653129791546762695348581239241686544884488009769912705515371339"
        "4069967917526646477046161523488528564093529401055115578708694538199197350/539870"
        "73965610244886395945980590473807481588543315636858998106423147595130756315759139"
        "64407319507901004538268188732322968234561680000920041354927360631276589365198134"
        "58746404293506241528844943948520981692731465003395192978029865974971825536892886"
        "77614809022078735601395737874890621693818114631349186381,0.0214290090091,false"
    ),
    ("1000", "500", "480"): (
        "1000,500,480,2425697457878803575873025111551909375422753451502172974958128884083"
        "90542786151553537426355794322755150596407410000139986762048154074660223602819199"
        "44241639352633994385223544014772681573214001090796607695310663827659608128426217"
        "99627200301614908628862004442302608886415728147171290398598750214432659725123772"
        "23770400472551185248717230478713868563060782608236428421044116639240897253621345"
        "16010553596208706186063532595083286826928144975338181872537707646210972389971447"
        "260910579764290289001168159832332305997910551568/1102007974857004965473240866345"
        "76998698774317345909831603880684918924480631001263092752009673612977096651011476"
        "34475425740641437995744389933679474821875023907451305577585276081449517760116094"
        "26920895925565684584466255871899493116842204731472781965638166441580849262440514"
        "31895567008078248098188373816748327605620771740222899076333268357836070706142128"
        "88219739196898465536231879352768035042525721267736318322724849945192768323766466"
        "29729314142836655585130559136178405754422402365902589047448766937835470299287120"
        "044575,0.0220116143732,false"
    ),
    ("20000", "3", "19000"): (
        "20000,3,19000,7915637474995954813/14105115096980600000,0.561189144546,false"
    ),
    ("100000", "2", "10"): "100000,2,10,231346017544923131/15431790125000000,14.9915217658,true",
}

# persistency ghz rows at large N, (N, family) -> the csv data row
PINNED_GHZ_ROWS = {
    ("10000", "makb"): "10000,makb,950,9050,2.41878193032",
    ("30000", "makb"): "30000,makb,2848,27152,1.6474280469",
    ("100000", "makb"): "100000,makb,9490,90510,1.55045262232",
    ("1000000", "makb"): "1000000,makb,94884,905116,3.50170853902",
    ("10000", "gbi"): "10000,gbi,1329,8671,2.22306393451",
    ("30000", "gbi"): "30000,gbi,3985,26015,1.10437237558",
    ("100000", "gbi"): "100000,gbi,13279,86721,2.68512483208",
}


class TestPinnedGameOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_GAMES))
    def test_make_game_bytes(self, tmp_path, name):
        make_args, digest = PINNED_GAMES[name]
        spec = tmp_path / "game.json"
        assert main(["qccr", "make-game", *make_args, "--output", str(spec)]) == 0
        assert hashlib.sha256(spec.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PINNED_SIMULATE_ROWS))
    def test_simulate_rows(self, tmp_path, capsys, name):
        spec = tmp_path / "game.json"
        assert main(["qccr", "make-game", *PINNED_GAMES[name][0], "--output", str(spec)]) == 0
        for (trials, seed, jobs), row in PINNED_SIMULATE_ROWS[name].items():
            argv = ["--game", str(spec), "--trials", trials, "--seed", seed, "--jobs", jobs]
            assert main(["qccr", "simulate", *argv]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row, (trials, seed, jobs)


class TestPinnedGhzRows:
    @pytest.mark.parametrize("point", sorted(PINNED_GHZ_ROWS), ids="-".join)
    @pytest.mark.parametrize("flags", [[], ["--asymptotic"]], ids=["default", "asymptotic"])
    def test_rows(self, capsys, point, flags):
        n, family = point
        assert main(["persistency", "ghz", "--family", family, "--n", n, *flags]) == 0
        assert capsys.readouterr().out.splitlines()[1] == PINNED_GHZ_ROWS[point]


class TestPinnedSigmaRows:
    @pytest.mark.parametrize("point", sorted(PINNED_SIGMA_ROWS), ids="-".join)
    def test_csv_and_json_rows(self, capsys, point):
        n, m, l = point
        argv = ["dicke", "sigma", "--n", n, "--m", m, "--l", l]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row == PINNED_SIGMA_ROWS[point]
        assert main([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows == [dict(zip(header.split(","), row.split(",")))]


# every game make-game writes, with each party's turns as its builder
# forms them: chsh, makb on 2..16 players alone and inside two more
# parties, and gbi on every grid to 64 (two players) and 16 (three), on
# 32 and on the largest grid under the size cap
_MADE_GAMES = (
    [pytest.param(["--type", "chsh"], [list(bell.makb_xy_settings(2))] * 2, id="chsh")]
    + [
        pytest.param(
            ["--type", "makb", "--n", str(n), *total],
            [list(bell.makb_xy_settings(n))] * n,
            id=f"makb{n}" + (f"in{total[1]}" if total else ""),
        )
        for n in range(2, 17)
        for total in ([], ["--n-total", str(n + 2)])
    ]
    + [
        pytest.param(
            ["--type", "gbi", "--n", str(n), "--grid", str(grid)],
            [[s / grid for s in range(grid)]] * n,
            id=f"gbi{n}x{grid}",
        )
        for n, grids in ((2, [*range(2, 65), 447]), (3, [*range(2, 17), 32, 58]))
        for grid in grids
    ]
)


class TestMadeGameFiles:
    @pytest.mark.parametrize("make_args,turns", _MADE_GAMES)
    def test_file_round_trips_with_builder_turns(self, capsys, make_args, turns):
        # a GameSpec holds what its file holds: reading a made file and
        # writing it again gives the same text, and each written turn is
        # the builder's value itself, not its trip through radians
        assert main(["qccr", "make-game", *make_args]) == 0
        text = capsys.readouterr().out
        assert qccr.game_to_json(qccr.game_from_json(text)) + "\n" == text
        assert [[o["turns"] for o in row] for row in json.loads(text)["observables"]] == turns

    def test_radian_trip_file_plays_the_same(self, tmp_path, capsys):
        # earlier files hold each turn t as (2 pi t) / (2 pi), e.g. 11/16
        # as 0.6874999999999999; 2 pi times that is 2 pi t, so they play
        # the same rounds
        new = tmp_path / "new.json"
        assert main(["qccr", "make-game", *PINNED_GAMES["gbi2x16"][0], "--output", str(new)]) == 0
        payload = json.loads(new.read_text())
        for o in itertools.chain.from_iterable(payload["observables"]):
            o["turns"] = 2.0 * math.pi * o["turns"] / (2.0 * math.pi)
        assert payload["observables"][0][11]["turns"] == 0.6874999999999999
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload, sort_keys=True) + "\n")
        for seed, jobs in itertools.product(("1", "7"), ("1", "2")):
            rows = []
            for spec in (new, old):
                argv = ["--game", str(spec), "--trials", "200000", "--seed", seed, "--jobs", jobs]
                assert main(["qccr", "simulate", *argv]) == 0
                rows.append(capsys.readouterr().out)
            assert rows[0] == rows[1], (seed, jobs)


# golden commands that compute with arrays: the Monte Carlo
_NUMPY_COMMANDS = {"qccr_simulate.csv"}
_NUMPY_FREE = {"version": ["--version"]} | {
    name: GOLDEN_COMMANDS[name] for name in sorted(set(GOLDEN_COMMANDS) - _NUMPY_COMMANDS)
}


def _run_python(script, argv=()):
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )


class TestStartup:
    @pytest.mark.parametrize("name", sorted(_NUMPY_FREE))
    def test_exact_commands_leave_numpy_unloaded(self, name):
        # nor dataclasses, nor the inspect it imports: records come from
        # bellpersist._record
        script = (
            "import sys\n"
            "from bellpersist.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
            "assert 'numpy._core' not in sys.modules and not loaded, loaded\n"
            "heavy = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
            "assert not heavy, heavy\n"
        )
        result = _run_python(script, _NUMPY_FREE[name])
        assert result.returncode == 0, result.stderr

    def test_cli_import_loads_every_module(self):
        # perfbench/trace_launch.py wraps functions in these modules right
        # after importing bellpersist.cli, so cli must register them in
        # sys.modules
        modules = ("cli", "dicke", "persistency", "bell", "qccr", "qstate", "monogamy")
        script = (
            "import sys\n"
            "import bellpersist.cli\n"
            f"missing = [m for m in {modules!r} if 'bellpersist.' + m not in sys.modules]\n"
            "assert not missing, missing\n"
        )
        result = _run_python(script)
        assert result.returncode == 0, result.stderr


# compute modules each command executes; the package registers every
# module lazily, so the others are never compiled
_COMPUTE_MODULES = ("dicke", "persistency", "bell", "qccr", "qstate", "monogamy")
_EXECUTED = {
    "version": set(),
    "gamma_crit.csv": {"persistency"},
    "gbi_constants.csv": {"bell"},
    "persistency_ghz_gbi.csv": {"persistency", "bell"},
    "persistency_ghz_makb": {"persistency"},
    "persistency_dicke_m1.csv": {"persistency", "dicke"},
    "monogamy_bound.csv": {"monogamy", "qstate"},
    "makb_qcr.csv": {"bell"},
    "dicke_fit_m1.csv": {"dicke"},
    "dicke_sigma.json": {"dicke"},
    "qccr_simulate.csv": {"qccr", "bell"},
    "qccr_feasibility.csv": {"qccr"},
    "dicke_n0_m2.csv": {"dicke"},
    "makb_coefficients_n3.csv": {"bell"},
    "qccr_make_game_chsh.json": {"qccr", "bell"},
}
_EXECUTED_ARGV = GOLDEN_COMMANDS | {
    "version": ["--version"],
    "persistency_ghz_makb": ["persistency", "ghz", "--family", "makb", "--n", "6:9"],
}

# the public names of each module
_PUBLIC = {
    "bell": (
        "BellFunctional", "gbi_classical", "gbi_classical_by_integration", "gbi_qcr",
        "gbi_quantum", "ghz_value", "lr_max", "makb", "makb_xy_settings", "quantum_value",
    ),
    "dicke": (
        "DickeMixture", "N0Fit", "SymCorrelation", "fit_n0_line", "reduced_dicke", "sigma_sum",
        "solve_n0", "sym_correlation", "sym_sigma",
    ),
    "errors": ("CapabilityError", "NoCrossingError"),
    "monogamy": (
        "AnticommGraph", "build_graph", "independence_number", "overlapping_chsh_operators",
    ),
    "persistency": (
        "PersistencyResult", "binary_entropy", "dicke_persistency", "gamma_crit",
        "ghz_persistency",
    ),
    "qccr": (
        "FeasibilityResult", "GameSpec", "GhzMixture", "SimulationResult", "VisibilityModel",
        "chsh_game", "classical_best", "gbi_game", "makb_game", "marginal_feasibility",
        "quantum_success", "simulate",
    ),
    "qstate": (
        "DenseState", "PauliString", "PlaneObservable", "anticommutes", "expectation",
        "ghz_state",
    ),
}

# names the package no longer has: test-only second routes, now in
# tests/oracles.py, wrappers whose callers call the code underneath, the
# second MAKB settings convention, and the growth model the GHZ frontier
# now takes as a family name
_REMOVED = {
    "bell": (
        "SignFunction", "optimize_wwwzb_angles", "violation_indicator", "wwwzb_max",
        "wwwzb_value", "WWWZB_VALUE_CAP", "WWWZB_MAX_CAP", "makb_alignment_phase",
    ),
    "dicke": ("dense_sigma_sum",),
    "monogamy": ("squared_sum_bound",),
    "persistency": ("dicke_asymptotic", "frontier_fraction", "QcrModel"),
    "qccr": ("outcome_distribution", "ghz_mixture_density"),
    "qstate": (
        "dicke_state", "mixture", "partial_trace", "random_pure_state", "PAULI_MATRICES",
    ),
}

# intra-package imports of each module under src/bellpersist; "__init__"
# stands for a name taken from the package itself
_IMPORTS = {
    "__init__": {"_lazy", "errors"},
    "_lazy": set(),
    "_record": set(),
    "bell": {"_record", "errors", "qstate"},
    "cli": {"__init__", "bell", "dicke", "errors", "monogamy", "persistency", "qccr"},
    "dicke": {"_record", "errors"},
    "errors": set(),
    "monogamy": {"_record", "errors", "qstate"},
    "persistency": {"_record", "bell", "dicke", "errors"},
    "qccr": {"_lazy", "_record", "bell", "errors"},
    "qstate": {"_lazy", "_record", "errors"},
}


class TestModuleContract:
    @pytest.mark.parametrize("name", sorted(_EXECUTED))
    def test_command_executes_only_its_modules(self, name):
        # a lazy module that has not executed is not yet a plain ModuleType,
        # and type() reads that without loading it
        script = (
            "import sys, types\n"
            "from bellpersist.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n"
            f"names = {_COMPUTE_MODULES!r}\n"
            "modules = [(m, sys.modules['bellpersist.' + m]) for m in names]\n"
            "ran = sorted(m for m, module in modules if type(module) is types.ModuleType)\n"
            "sys.stderr.write(','.join(ran))\n"
        )
        result = _run_python(script, _EXECUTED_ARGV[name])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ",".join(sorted(_EXECUTED[name]))

    def test_public_names_resolve(self):
        # each public name lives on its module only; the package holds the
        # modules, not a second flat route to their names
        import bellpersist

        for module_name, names in _PUBLIC.items():
            module = getattr(bellpersist, module_name)
            for name in names:
                assert hasattr(module, name), f"{module_name}.{name}"
        for name in ("simulate", "sigma_sum", "__all__", "no_such_name"):
            with pytest.raises(AttributeError):
                getattr(bellpersist, name)
        flat = set(dir(bellpersist)) & {name for names in _PUBLIC.values() for name in names}
        assert not flat, sorted(flat)

    def test_removed_names_are_gone(self):
        import bellpersist

        for module_name, names in _REMOVED.items():
            module = getattr(bellpersist, module_name)
            for name in names:
                assert not hasattr(bellpersist, name), name
                assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(bellpersist.dicke.DickeMixture, "dense")
        for method in ("to_density_state", "validate_spectrum"):
            assert not hasattr(bellpersist.qstate.DenseState, method), method
        # a game holds turns, as its file does, and no observable objects
        assert not hasattr(bellpersist.qstate.PlaneObservable, "turns")
        assert not hasattr(bellpersist.qccr.chsh_game(), "observables")

    def test_import_graph(self):
        package = Path(__file__).parent.parent / "src" / "bellpersist"
        modules = {path.stem for path in package.glob("*.py")}
        assert modules == set(_IMPORTS)
        for name in sorted(modules):
            found = set()
            for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                    assert not {"oracles", "tests"} & set(roots), name
                    assert "bellpersist" not in roots, name
                elif isinstance(node, ast.ImportFrom):
                    root = (node.module or "").split(".")[0]
                    assert root not in ("oracles", "tests", "bellpersist"), name
                    if node.level == 0:
                        continue
                    if node.module:
                        found.add(node.module.split(".")[0])
                    else:
                        found |= {a.name if a.name in modules else "__init__" for a in node.names}
            assert found == _IMPORTS[name], name

    def test_traced_run_matches_golden(self, tmp_path):
        # the tracer wraps functions in every module, so modules this
        # command never needs execute too; stdout must not change
        name = "dicke_n0_m2.csv"
        spans = tmp_path / "spans.json"
        launcher = Path(__file__).parent.parent / "perfbench" / "trace_launch.py"
        result = subprocess.run(
            [sys.executable, str(launcher), str(spans), "0", "--", *GOLDEN_COMMANDS[name]],
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / name).read_bytes()
        traced = json.loads(spans.read_text())["names"]
        assert {"dicke.solve_n0", "qccr.simulate", "monogamy.build_graph"} <= set(traced)


def _readme_commands():
    """The ``bellpersist ...`` lines of the README's "Command line" block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("bellpersist ")]


class TestReadmeCommands:
    def test_every_command_runs(self, tmp_path):
        # in README order, so the game file make-game writes is there for
        # simulate; chsh.json goes to tmp_path
        commands = _readme_commands()
        assert len(commands) >= 10
        root = Path(__file__).parent.parent
        for argv in commands:
            argv = [str(tmp_path / token) if token == "chsh.json" else token for token in argv]
            result = run_cli(argv, cwd=root, timeout=120)
            assert (result.returncode, result.stderr) == (0, ""), argv
