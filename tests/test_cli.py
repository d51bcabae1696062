import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        assert lines[1].startswith("1.41421356237,0.905117917995,")
        assert not list(tmp_path.glob("*.tmp"))

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
    def test_usage_error_bad_base(self):
        result = run_cli(["gamma-crit", "--a", "1.0"])
        assert result.returncode == 2

    def test_usage_error_unknown_command(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_usage_error_missing_required(self):
        result = run_cli(["monogamy", "bound"])
        assert result.returncode == 2

    def test_computation_error_exit_one(self, tmp_path):
        bad = tmp_path / "too_many.txt"
        bad.write_text("\n".join(["XX"] * 25) + "\n")
        result = run_cli(["monogamy", "bound", "--file", str(bad)])
        assert result.returncode == 1
        assert "capped" in result.stderr

    def test_missing_file_exit_one(self):
        result = run_cli(["monogamy", "bound", "--file", "/nonexistent/x.txt"])
        assert result.returncode == 1

    def test_gbi_constants_past_float_range_exit_one(self):
        # the ratio (pi/2)^n / 2 leaves the double range near n = 1570
        result = run_cli(["gbi", "constants", "--max-n", "1600"])
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

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
        ],
    )
    def test_flags_only_where_read(self, argv):
        assert run_cli(argv).returncode == 2


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
