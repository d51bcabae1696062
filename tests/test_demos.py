"""Each demo's stdout, byte for byte against tests/golden/demos."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", sorted(path.stem for path in (ROOT / "demos").glob("*.py")))
def test_demo_output_matches_golden(name):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")], capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (ROOT / "tests" / "golden" / "demos" / f"{name}.txt").read_bytes()
