"""Report/emit helpers shared by the bench modules.

Lives under a unique module name (not ``conftest``) so bench modules
can ``from benchkit import emit, emit_json`` regardless of which other
conftest files pytest has loaded — a mixed invocation like ``pytest
benchmarks/bench_foo.py tests/core/test_bar.py`` binds the bare
``conftest`` module name to whichever file loads first, which made the
old ``from conftest import emit`` ambiguous once ``tests/`` gained a
top-level conftest.  ``benchmarks/conftest.py`` re-exports these for
its fixtures and the terminal-summary hook.
"""

import json
import os
import pathlib
import platform
import subprocess

_BLOCKS: list[str] = []
_BENCH_DIR = pathlib.Path(__file__).resolve().parent


def emit(text: str) -> None:
    """Queue a results block for the end-of-run report."""
    _BLOCKS.append(text)


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Write machine-readable results to ``BENCH_<name>.json``.

    Sits next to the bench modules so successive full runs leave a
    commit-able perf trail (ops/sec, entries, speedup vs baseline).
    """
    path = _BENCH_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    emit(f"[machine-readable results -> {path}]")
    return path


def provenance(**extra) -> dict:
    """Where a full bench run came from: commit, toolchain, machine.

    ``dirty`` is true when the checkout had uncommitted changes, so the
    numbers belong to the commit plus a working-tree diff.  ``extra``
    records run parameters such as the repeat count.
    """
    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=_BENCH_DIR, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain",
                                 "--untracked-files=no")),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), **extra}
