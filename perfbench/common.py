"""Shared plumbing for the benchmark: paths, seeds, child processes, stats.

The benchmark is a client of the program: every timed unit runs in a
fresh interpreter started here, with ``src/`` on its path, so imports
and the module-level caches of the program cost the same on every unit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
CHILD = BENCH_DIR / "child.py"

#: Client connections of serve-zipf (the machine's CPU count, as the
#: benchmark is sized for a 2-CPU container).
PARALLELISM = 2

#: Wall-clock limit for one child process.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (missing program, child crashed)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark.

    With them present, makes them importable for the client-side checks.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program sources not found at {SRC / 'repro'}; run the "
            "benchmark from the root of a repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics' names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def derive_seed(seed: int, purpose: str) -> int:
    """A stable 31-bit seed for ``purpose`` derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def child_env() -> Dict[str, str]:
    """The program's environment: ``src/`` on the path, a random hash seed.

    A fixed ``PYTHONHASHSEED`` would hide hash-order nondeterminism from
    the byte-identity checks, so an inherited one is dropped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def wait_rusage(proc: subprocess.Popen, timeout: float) -> int:
    """Reap ``proc`` and return its peak RSS in KiB (from ``wait4``)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"process {proc.args!r} timed out after {timeout}s")
        time.sleep(0.005)


def run_child(task: str, args: dict, expect_code: int = 0) -> dict:
    """Run ``child.py <task>`` in a fresh interpreter; return its report.

    The report is the child's last stdout line (JSON) plus ``spawn``,
    the monotonic time just before the interpreter was started (the
    child stamps its own phases with the same system-wide clock).
    """
    command = [sys.executable, str(CHILD), task, json.dumps(args)]
    spawn = time.monotonic()
    proc = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {task} timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != expect_code:
        raise BenchError(
            f"child {task} exited {proc.returncode} (expected {expect_code}):\n"
            + err.decode("utf-8", "replace")[-4000:]
        )
    if expect_code != 0:
        return {"spawn": spawn}
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"child {task} printed no report")
    report = json.loads(lines[-1])
    report["spawn"] = spawn
    return report


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def remember_digest(key: str, digest: str) -> bool:
    """Pin ``digest`` for ``key`` across runs; False if it changed.

    The first run of a seed in a checkout records the digest; every
    later run of the same seed must reproduce it.
    """
    path = WORK / "digests" / f"{key}.sha256"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        return path.read_text().strip() == digest
    path.write_text(digest + "\n")
    return True


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted raw samples."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Result:
    """What one workload run produced.

    ``metrics`` maps end-to-end metric names to values, ``layers`` maps
    per-layer metric names to values (traced runs only), ``shares`` holds
    the property shares printed with every result.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.shares: Dict[str, float] = {}
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Record an output check; a failed one makes the run incorrect."""
        if not ok:
            self.checks.append(what)

    @property
    def correct(self) -> bool:
        return not self.checks
