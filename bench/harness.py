"""Loading curvespec from the checkout and calling its CLI in process."""

from __future__ import annotations

import importlib
import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"


class MissingProgram(RuntimeError):
    """The checkout holds no curvespec sources to benchmark."""


def fresh_import():
    """Import curvespec from this checkout's ``src``, executing every module
    again (earlier imports are dropped first).  Returns the package."""
    package_init = SRC / "curvespec" / "__init__.py"
    if not package_init.is_file():
        raise MissingProgram(f"no curvespec sources at {package_init.parent}")
    for name in [n for n in sys.modules if n == "curvespec" or n.startswith("curvespec.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("curvespec")
    importlib.import_module("curvespec.cli")
    if Path(package.__file__).resolve() != package_init.resolve():
        raise MissingProgram(f"imported curvespec from {package.__file__}, not from {SRC}")
    return package


def curvespec_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "curvespec" or n.startswith("curvespec.")]


def call_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    """One in-process ``curvespec <argv>`` call: (exit code, stdout, stderr,
    seconds).  The exit code is None when the call raised."""
    main = sys.modules["curvespec.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed unit, not a crashed run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def reference_seconds() -> float:
    """Time of one fixed pure-Python loop of integer arithmetic and dict
    updates: a probe of how fast the machine runs interpreted code now."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(3000):
        k = i % 61
        acc[k] = acc.get(k, 0) + (i * i) // 7 - k
    return time.perf_counter() - start
