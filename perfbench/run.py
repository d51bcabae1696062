"""Time-to-solution benchmark of the ``bellpersist`` command line.

Run from the root of a bellpersist checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each workload (see ``workloads.py``) is a fixed list of CLI commands.
Every command runs as a fresh ``python -m bellpersist.cli`` process
against the checkout's ``src/``, so interpreter start-up and imports are
counted.  Commands run one after another from this process (a closed
loop with one client), with BLAS/OpenMP threads in the child environment
capped at the number of usable CPUs.  Every output is checked
(``checks.py``); a command that exits non-zero or fails its check, or
whose output differs from an earlier run of the same command, counts as
a failed operation.

``--trace 0`` measures the end-to-end metrics:

- ``setup_s``: median wall time of ``bellpersist --version``, run three
  times up front and once per round; interpreter start plus every
  import.
- ``wall_s``: wall time of one pass over the workload's commands, taken
  as the sum over commands of each command's median.  Commands repeat
  round-robin until ``--seconds`` is used up, each at least three times.
- ``peak_rss_mb``: the largest max-RSS of any command, from ``wait4``.

Both times are in reference-speed seconds.  The machine this benchmark
was built on shares its cores with other tenants, and its speed drifts
by up to a third over minutes, far more than the medians of one run can
absorb.  So a fixed pure-Python calibration loop runs just before and
just after every command, and each command's wall time is scaled by
``PROBE_REF_S`` over the mean of those two loop times before medians
are taken.  On an idle machine of that class the scaled time equals the
wall time; the unscaled medians and the median loop time are printed
beside the metrics.

The error rate, failed over attempted commands, is carried by the
``failed`` and ``attempted`` fields of the result line.

``--trace 1`` measures the per-layer metrics of ``layers.py``: the
import-time report of ``import bellpersist.cli`` and, per pass, every
command re-run under ``trace_launch.py`` beside an untraced run of the
same command.  Traced stdout must match untraced stdout byte for byte.

``--self-test`` runs every workload once at its default seed, then
alters single digits of each checked output and confirms that every
altered output fails its check.

The last line of stdout is the JSON result.  The lines before it give
the sample counts and unscaled figures, the provenance (machine,
versions, git state, seed, thread caps) and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_SAMPLES = 3
# calibration loop time on an idle 2-vCPU Xeon VM with CPython 3.11
PROBE_REF_S = 0.012
PROBE_REPEATS = 3
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
# a run must end within 180 s whatever --seconds says
HARD_LIMIT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(_usable_cpus())
    return env


def _calibration_loop() -> None:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i * i + 1)


def probe() -> float:
    """Median time of the calibration loop: the machine's current speed."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool = False
    # wall_s at the reference machine speed
    scaled_s: float = 0.0


def spawn(cmd: list[str], env: dict[str, str], timeout: float, capture: Path) -> Outcome:
    """Run ``cmd`` to completion; wall time covers spawn to reap."""
    out_path, err_path = capture.with_suffix(".out"), capture.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes().decode("utf-8", errors="replace")
    stderr = err_path.read_bytes().decode("utf-8", errors="replace")
    killed = proc.returncode == -signal.SIGKILL
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr, killed)


class Runner:
    """Runs and checks commands, and counts attempts and failures."""

    def __init__(self, seconds: float):
        self.env = child_env()
        self.started = time.perf_counter()
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []
        self.first_output: dict[tuple[str, ...], str] = {}
        self.verified: set[tuple[tuple[str, ...], str]] = set()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_time(self) -> bool:
        return self.elapsed() > HARD_LIMIT_S

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        sys.stderr.write(f"perfbench: FAILED {what}: {why}\n")

    def run(self, cmd, traced_as: tuple[int, Path] | None = None) -> Outcome | None:
        """Run one workload command (optionally under the trace launcher)
        and check it.  Returns None when it failed."""
        self.attempted += 1
        argv = list(cmd.argv)
        if traced_as is None:
            full = [sys.executable, "-m", "bellpersist.cli", *argv]
        else:
            cid, spans = traced_as
            full = [sys.executable, str(HERE / "trace_launch.py"), str(spans), str(cid), "--", *argv]
        before = probe()
        result = spawn(full, self.env, HARD_LIMIT_S + 20 - self.elapsed(), WORK / "last")
        loop = (before + probe()) / 2
        self.probes.append(loop)
        result.scaled_s = result.wall_s * PROBE_REF_S / loop
        label = "bellpersist " + " ".join(argv) + (" (traced)" if traced_as else "")
        if result.timed_out:
            self.fail(label, "timed out")
            return None
        if result.code != 0:
            self.fail(label, f"exit code {result.code}: {result.stderr.strip()[-300:]}")
            return None
        output = result.stdout
        if cmd.output_file:
            try:
                output += Path(cmd.output_file).read_text(encoding="utf-8")
            except OSError as exc:
                self.fail(label, f"cannot read {cmd.output_file}: {exc}")
                return None
        key = tuple(argv)
        first = self.first_output.setdefault(key, output)
        if output != first:
            self.fail(label, "output differs from an earlier run of the same command")
            return None
        if (key, output) not in self.verified:
            try:
                cmd.check(result.stdout)
            except Exception as exc:  # a check that cannot run is a failed check
                self.fail(label, f"{type(exc).__name__}: {exc}")
                return None
            self.verified.add((key, output))
        return result


def measure(runner: Runner, commands) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics, plus the unscaled figures behind them."""
    from checks import check_version
    from workloads import Command

    version = Command(("--version",), check_version())
    setup = [runner.run(version) for _ in range(SETUP_RUNS)]
    # commands run round-robin; a round may stop part-way when time is up,
    # since each command's median stands on its own
    runs: list[list[Outcome | None]] = [[] for _ in commands]
    last = [0.0] * len(commands)
    turn = 0
    while not runner.out_of_time():
        i = turn % len(commands)
        if min(map(len, runs)) >= MIN_SAMPLES and runner.elapsed() + last[i] > runner.seconds:
            break
        if i == 0 and turn:
            setup.append(runner.run(version))
        began = runner.elapsed()
        runs[i].append(runner.run(commands[i]))
        last[i] = runner.elapsed() - began
        turn += 1
    setup = [r for r in setup if r]
    ok = [[r for r in samples if r] for samples in runs]
    if not setup or not all(ok):
        return {}, {}
    metrics = {
        "wall_s": sum(statistics.median(r.scaled_s for r in samples) for samples in ok),
        "setup_s": statistics.median(r.scaled_s for r in setup),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in samples) for samples in ok),
    }
    notes = {
        "samples_per_command": min(map(len, runs)),
        "setup_samples": len(setup),
        "unscaled_wall_s": sum(statistics.median(r.wall_s for r in samples) for samples in ok),
        "unscaled_setup_s": statistics.median(r.wall_s for r in setup),
        "calibration_loop_s": statistics.median(runner.probes),
    }
    return metrics, notes


def import_times(runner: Runner) -> tuple[float, float] | None:
    from layers import parse_importtime

    samples = []
    for _ in range(IMPORTTIME_RUNS):
        runner.attempted += 1
        result = spawn(
            [sys.executable, "-X", "importtime", "-c", "import bellpersist.cli"],
            runner.env,
            60.0,
            WORK / "importtime",
        )
        try:
            if result.code != 0:
                raise ValueError(result.stderr.strip()[-300:])
            samples.append(parse_importtime(result.stderr))
        except ValueError as exc:
            runner.fail("import-time report", str(exc))
    if not samples:
        return None
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def trace(runner: Runner, commands) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, plus the number of traced passes."""
    from layers import EXACT, PassStats, median_metrics

    imports = import_times(runner)
    passes, overheads = [], []
    while not runner.out_of_time():
        began = runner.elapsed()
        stats = PassStats()
        plain_wall = traced_wall = 0.0
        complete = True
        for cid, cmd in enumerate(commands):
            plain = runner.run(cmd)
            spans_path = WORK / f"spans-{cid}.json"
            traced = runner.run(cmd, traced_as=(cid, spans_path))
            if plain is None or traced is None:
                complete = False
                continue
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
            with open(spans_path, encoding="utf-8") as handle:
                record = json.load(handle)
            spans_path.unlink()
            stats.add_command(record["names"], record["spans"])
        took = runner.elapsed() - began
        if complete:
            passes.append(stats.metrics())
            overheads.append(traced_wall - plain_wall)
            if any(passes[-1][k] != passes[0][k] for k in EXACT):
                runner.fail("traced counts", "calls or per-call counts differ between traced passes")
        if passes and runner.elapsed() + took > runner.seconds:
            break
    if not passes or imports is None:
        return {}, {}
    out = {"cli.import_s": imports[0], "cli.import_scipy_s": imports[1]}
    out.update(median_metrics(passes))
    out["trace.overhead_s"] = statistics.median(overheads)
    return out, {"traced_passes": len(passes)}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _proc_field(path: str, field: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == field:
                    return value.strip()
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "thread_caps": {var: child_env()[var] for var in THREAD_VARS},
    }


def _digit_mutations(text: str, rng: random.Random, limit: int) -> list[str]:
    """Copies of ``text`` with one digit d replaced by (d + 5) % 10, among
    the first four significant digits and the exponent of each number."""
    positions = []
    for match in re.finditer(r"\d[\d.]*(?:e[-+]?\d+)?", text):
        token, base = match.group(), match.start()
        mantissa, _, _ = token.partition("e")
        significant = 0
        for i, ch in enumerate(mantissa):
            if ch.isdigit() and (significant or ch != "0"):
                if significant < 4:
                    positions.append(base + i)
                significant += 1
        if not significant:
            positions.append(base)
        exponent = base + len(mantissa) + 1
        positions.extend(exponent + i for i, ch in enumerate(token[len(mantissa) + 1 :]) if ch.isdigit())
    if len(positions) > limit:
        positions = sorted(rng.sample(positions, limit))
    return [text[:p] + str((int(text[p]) + 5) % 10) + text[p + 1 :] for p in positions]


def self_test() -> int:
    from workloads import WORKLOADS, build

    runner = Runner(0.0)
    rng = random.Random(0)
    missed = tested = 0
    for name, spec in WORKLOADS.items():
        commands = build(name, spec.default_seed, WORK)
        for cmd in commands:
            result = runner.run(cmd)
            if result is None or not cmd.strict:
                continue
            caught = 0
            mutants = _digit_mutations(result.stdout, rng, 24)
            for mutant in mutants:
                try:
                    cmd.check(mutant)
                except Exception:
                    caught += 1
            tested += len(mutants)
            missed += len(mutants) - caught
            print(
                f"{name:14s} {caught:3d}/{len(mutants):3d} altered outputs rejected: "
                f"bellpersist {' '.join(cmd.argv)}"
            )
    print(
        f"self-test: {runner.failed} of {runner.attempted} real outputs failed; "
        f"{missed} of {tested} altered outputs passed"
    )
    return 0 if runner.failed == 0 and missed == 0 and tested else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "bellpersist" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        sys.stderr.write("perfbench: run from the root of a bellpersist checkout (src/bellpersist missing)\n")
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test()

    from layers import PER_LAYER
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    commands = build(args.workload, seed, WORK)
    runner = Runner(args.seconds)
    if args.trace:
        metrics, notes = trace(runner, commands)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, notes = measure(runner, commands)
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    if not metrics:
        runner.failed = max(runner.failed, 1)
    print(
        f"perfbench workload={args.workload} seed={seed} trace={args.trace} "
        f"commands={len(commands)} elapsed_s={runner.elapsed():.1f} "
        + " ".join(f"{k}={v!r}" for k, v in notes.items())
    )
    print(
        f"workload {spec.name}: {spec.why}; stresses {','.join(spec.stresses)}; "
        f"bypasses {','.join(spec.bypasses) or 'none'}; seeds: default {spec.default_seed}, "
        f"held-out {spec.held_out_seed}"
    )
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    rate = runner.failed / max(runner.attempted, 1)
    print(f"error_rate {rate!r} 1 ({runner.failed} of {runner.attempted} commands)")
    result = {
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
